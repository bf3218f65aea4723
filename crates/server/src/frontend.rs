//! The serving front-end [`crate::server`] and [`crate::router`] both
//! start through: everything between a TCP listener and one decoded
//! request.
//!
//! The front-end owns
//!
//! * **bind and accept** — one acceptor thread; the optional wire-fault
//!   accept hook acts first, then the **admission gate**: at most
//!   [`FrontConfig::max_connections`] connections are served, one beyond
//!   that is answered `overloaded` and closed (*shed*);
//! * the **connection registry** and the **bounded drain**
//!   ([`Front::drain`]) that waits on it after shutdown;
//! * the **stop flag** and the self-connect that wakes the acceptor;
//! * the **per-connection loop** — bounded line reads with a 250 ms stop
//!   poll, the `oversized` reply (the offender drained to its newline so
//!   the next request still serves), **idle reaping** of connections
//!   whose next full line misses [`FrontConfig::idle_timeout`], `ping`
//!   and `shutdown` answered inline, reply **write deadlines** with the
//!   connection dropped (a *write drop*) when one fails;
//! * the counters all of that produces ([`FrontTally`]), `ok` / `errors`
//!   included: every reply passes through one place that counts it.
//!
//! A [`Handler`] supplies the rest: per-connection state, `request + raw
//! line → reply`, a hook after the reply write, and a hook after a wire
//! `shutdown`.

use crate::chaos::{Net, NetFaultHandle, NET};
use crate::proto::{self, code, Command, Method, Request};
use segdb_obs::Json;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// How often blocked connection readers (and other pollers of the stop
/// flag) wake to check it.
pub(crate) const READ_POLL: Duration = Duration::from_millis(250);

/// Connections served concurrently unless configured otherwise — the
/// server's default, and the router's fixed limit.
pub(crate) const DEFAULT_MAX_CONNECTIONS: usize = 256;

/// What a front-end needs to know about its listener and connections.
pub(crate) struct FrontConfig {
    /// Bind address; `127.0.0.1:0` picks a free port.
    pub(crate) addr: String,
    /// Thread-name prefix (`<name>-acceptor`, `<name>-conn`).
    pub(crate) name: &'static str,
    /// Longest accepted request line in bytes (newline excluded).
    pub(crate) max_line_bytes: usize,
    /// Deadline for writing one reply.
    pub(crate) write_timeout: Duration,
    /// A full request line must arrive within this window.
    pub(crate) idle_timeout: Duration,
    /// Connections served concurrently (min 1).
    pub(crate) max_connections: usize,
    /// Upper bound on [`Front::drain`].
    pub(crate) drain_timeout: Duration,
    /// Wire-fault schedule consulted at accept time.
    pub(crate) accept_chaos: Option<NetFaultHandle>,
}

/// One reply line and whether it reports success — the connection loop
/// counts `ok` / `errors` from the flag.
pub(crate) struct Reply {
    pub(crate) line: String,
    pub(crate) ok: bool,
}

impl Reply {
    pub(crate) fn ok(id: Option<u64>, result: Json) -> Reply {
        Reply {
            line: proto::ok_line(id, result),
            ok: true,
        }
    }

    pub(crate) fn err(id: Option<u64>, code: &str, message: &str) -> Reply {
        Reply {
            line: proto::err_line(id, code, message),
            ok: false,
        }
    }
}

/// What a server or router plugs into the front-end.
pub(crate) trait Handler: Send + Sync + 'static {
    /// State private to one connection.
    type Conn;

    /// A connection was admitted; `seq` numbers it.
    fn open(&self, seq: u64) -> Self::Conn;

    /// Answer one decoded request (`ping` and `shutdown` never arrive
    /// here). `raw` is the line it was decoded from.
    fn handle(&self, conn: &mut Self::Conn, request: Request, raw: &str) -> Reply;

    /// The reply [`Handler::handle`] returned has been written (or the
    /// write failed — the time was spent either way).
    fn written(&self, _conn: &mut Self::Conn) {}

    /// A wire `shutdown` was acknowledged and the stop flag is up.
    fn wire_shutdown(&self) {}
}

segdb_obs::tally! {
    /// Monotone front-end counters, part of the `stats` reply's `server`
    /// block in this order: connections admitted, requests decoded,
    /// replies by outcome, and connections dropped on a failed write,
    /// reaped past the idle deadline or shed at the admission gate.
    pub(crate) enum FrontCount: FrontTally {
        Connections = "connections",
        Requests = "requests",
        Ok = "ok",
        Errors = "errors",
        WriteDrops = "write_drops",
        Reaped = "reaped",
        Shed = "shed",
    }
}

/// Recover from mutex poisoning: a panicked thread must not wedge the
/// whole serving layer (the guarded values are plain data).
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// A bound front-end: listener address, stop flag, connection registry
/// and counters.
pub(crate) struct Front {
    cfg: FrontConfig,
    local: SocketAddr,
    stop: AtomicBool,
    /// Admitted, not-yet-exited connections: the admission gate and the
    /// bounded drain both read it.
    conns: Mutex<usize>,
    conn_exited: Condvar,
    conn_seq: AtomicU64,
    stats: FrontTally,
}

impl Front {
    /// Bind `cfg.addr`. Nothing is accepted until [`Front::spawn`].
    pub(crate) fn bind(mut cfg: FrontConfig) -> io::Result<(Arc<Front>, TcpListener)> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let local = listener.local_addr()?;
        cfg.max_connections = cfg.max_connections.max(1);
        let front = Front {
            cfg,
            local,
            stop: AtomicBool::new(false),
            conns: Mutex::new(0),
            conn_exited: Condvar::new(),
            conn_seq: AtomicU64::new(0),
            stats: FrontTally::new(),
        };
        Ok((Arc::new(front), listener))
    }

    /// Start the acceptor thread serving `handler`.
    pub(crate) fn spawn<H: Handler>(
        self: &Arc<Self>,
        listener: TcpListener,
        handler: Arc<H>,
    ) -> io::Result<JoinHandle<()>> {
        let front = Arc::clone(self);
        thread::Builder::new()
            .name(format!("{}-acceptor", self.cfg.name))
            .spawn(move || accept_loop(&listener, &front, &handler))
    }

    /// The address actually bound (resolves `:0` to the chosen port).
    pub(crate) fn addr(&self) -> SocketAddr {
        self.local
    }

    pub(crate) fn stopping(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }

    /// Flip the stop flag (idempotent) and wake the acceptor with a
    /// self-connect; connection readers notice within [`READ_POLL`].
    pub(crate) fn stop(&self) {
        if !self.stop.swap(true, Ordering::AcqRel) {
            let _ = TcpStream::connect(self.local);
        }
    }

    /// Wait — at most [`FrontConfig::drain_timeout`] — for live
    /// connections to exit, so a wedged peer cannot wedge shutdown.
    pub(crate) fn drain(&self) {
        let deadline = Instant::now() + self.cfg.drain_timeout;
        let mut conns = lock(&self.conns);
        while *conns > 0 {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            conns = self
                .conn_exited
                .wait_timeout(conns, deadline - now)
                .unwrap_or_else(|p| p.into_inner())
                .0;
        }
    }

    /// The front-end's share of the `stats` reply's `server` block.
    pub(crate) fn stats_fields(&self) -> Vec<(&'static str, Json)> {
        let max = Json::U64(self.cfg.max_connections as u64);
        let mut fields = vec![("max_connections", max)];
        fields.extend(self.stats.fields());
        fields
    }

    /// Decrement the live-connection registry and wake the drain waiter.
    fn connection_exited(&self) {
        let mut conns = lock(&self.conns);
        *conns = conns.saturating_sub(1);
        self.conn_exited.notify_all();
    }

    /// A reply write failed (stalled peer past the write deadline, or a
    /// peer that vanished); the connection is dropped and the drop counted.
    fn record_write_drop(&self) {
        self.stats.bump(FrontCount::WriteDrops);
        NET.bump(Net::ServerWriteDrop);
    }
}

fn accept_loop<H: Handler>(listener: &TcpListener, front: &Arc<Front>, handler: &Arc<H>) {
    loop {
        let mut stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if front.stopping() {
                    return;
                }
                // A persistent accept error (e.g. EMFILE) must not spin
                // the acceptor at 100% CPU; back off before retrying.
                thread::sleep(Duration::from_millis(50));
                continue;
            }
        };
        if front.stopping() {
            return;
        }
        // The wire-fault schedule acts first: an accept-reset victim is
        // dropped before the front-end's own logic ever sees it, exactly
        // like a reset on the physical network.
        if front
            .cfg
            .accept_chaos
            .as_ref()
            .is_some_and(|chaos| chaos.on_accept())
        {
            continue;
        }
        let admitted = {
            let mut conns = lock(&front.conns);
            let room = *conns < front.cfg.max_connections;
            if room {
                *conns += 1;
            }
            room
        };
        if !admitted {
            // Shed at the gate: an explicit `overloaded` refusal beats
            // accepting unboundedly — resilient clients back off and
            // retry instead of stacking up dead readers.
            front.stats.bump(FrontCount::Shed);
            NET.bump(Net::ServerShed);
            let _ = stream.set_write_timeout(Some(front.cfg.write_timeout));
            let _ = write_line(
                &mut stream,
                &proto::err_line(
                    None,
                    code::OVERLOADED,
                    "connection limit reached; back off and retry",
                ),
            );
            continue;
        }
        front.stats.bump(FrontCount::Connections);
        let (conn_front, conn_handler) = (Arc::clone(front), Arc::clone(handler));
        // Detached: readers notice the stop flag within READ_POLL.
        let spawned = thread::Builder::new()
            .name(format!("{}-conn", front.cfg.name))
            .spawn(move || {
                serve_connection(&conn_front, &*conn_handler, stream);
                conn_front.connection_exited();
            });
        if spawned.is_err() {
            // The closure never ran; undo its registry slot.
            front.connection_exited();
        }
    }
}

fn serve_connection<H: Handler>(front: &Front, handler: &H, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    if stream.set_read_timeout(Some(READ_POLL)).is_err() {
        return;
    }
    // A reply write that blocks past the deadline fails and the
    // connection is dropped — a stalled peer cannot pin this thread.
    let _ = stream.set_write_timeout(Some(front.cfg.write_timeout));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut conn = handler.open(front.conn_seq.fetch_add(1, Ordering::Relaxed));
    let mut reader = BufReader::new(read_half).take(0);
    let mut writer = stream;
    loop {
        if front.stopping() {
            return;
        }
        let deadline = Instant::now() + front.cfg.idle_timeout;
        let line =
            match read_bounded_line(&mut reader, front.cfg.max_line_bytes, &front.stop, deadline) {
                Ok(LineRead::Line(line)) => line,
                Ok(LineRead::Oversized { terminated }) => {
                    front.stats.bump(FrontCount::Errors);
                    if write_line(
                        &mut writer,
                        &proto::err_line(None, code::OVERSIZED, "request line exceeds limit"),
                    )
                    .is_err()
                    {
                        front.record_write_drop();
                        return;
                    }
                    // Drain the offender to its newline so the next request
                    // on this connection still gets served.
                    if terminated || drain_oversized(&mut reader, &front.stop, deadline) {
                        continue;
                    }
                    return;
                }
                Ok(LineRead::IdleExpired) => {
                    front.stats.bump(FrontCount::Reaped);
                    NET.bump(Net::ServerReap);
                    return;
                }
                Ok(LineRead::Eof) | Ok(LineRead::Stopped) | Err(_) => return,
            };
        let line = String::from_utf8_lossy(&line);
        let reply = match proto::parse_request(&line) {
            Err(e) => Reply {
                line: e.to_line(),
                ok: false,
            },
            Ok(request) => {
                front.stats.bump(FrontCount::Requests);
                match request.method {
                    Method::Command(Command::Ping) => {
                        Reply::ok(request.id, Json::Str("pong".to_string()))
                    }
                    Method::Command(Command::Shutdown) => {
                        front.stats.bump(FrontCount::Ok);
                        let _ =
                            write_line(&mut writer, &proto::ok_line(request.id, Json::Bool(true)));
                        front.stop();
                        handler.wire_shutdown();
                        return;
                    }
                    _ => handler.handle(&mut conn, request, &line),
                }
            }
        };
        front.stats.bump(if reply.ok {
            FrontCount::Ok
        } else {
            FrontCount::Errors
        });
        let wrote = write_line(&mut writer, &reply.line);
        handler.written(&mut conn);
        if wrote.is_err() {
            front.record_write_drop();
            return;
        }
    }
}

/// Outcome of one bounded line read.
enum LineRead {
    /// A complete request line (newline stripped).
    Line(Vec<u8>),
    /// Peer closed the connection (possibly mid-request).
    Eof,
    /// The line exceeded the configured limit; `terminated` tells
    /// whether its newline was already consumed (if not, the caller
    /// must drain to the newline before the connection can continue).
    Oversized {
        /// The offending line's newline has been consumed.
        terminated: bool,
    },
    /// The front-end is stopping.
    Stopped,
    /// The idle deadline passed before a full line arrived — the idle
    /// or slow-loris reaping signal.
    IdleExpired,
}

fn read_bounded_line<R: BufRead>(
    reader: &mut io::Take<R>,
    max: usize,
    stop: &AtomicBool,
    deadline: Instant,
) -> io::Result<LineRead> {
    let mut buf = Vec::new();
    // One spare byte so a line of exactly `max` bytes plus its newline
    // still fits, while anything longer is detected without draining it.
    reader.set_limit(max as u64 + 1);
    loop {
        match reader.read_until(b'\n', &mut buf) {
            Ok(0) => {
                // EOF, or the length limit exhausted without a newline.
                // A non-newline-terminated tail under the limit is a
                // torn request: the peer died mid-line, so Eof.
                return Ok(if buf.len() > max {
                    LineRead::Oversized { terminated: false }
                } else {
                    LineRead::Eof
                });
            }
            Ok(_) => {
                if buf.last() == Some(&b'\n') {
                    buf.pop();
                    return Ok(if buf.len() > max {
                        LineRead::Oversized { terminated: true }
                    } else {
                        LineRead::Line(buf)
                    });
                }
                if buf.len() > max {
                    return Ok(LineRead::Oversized { terminated: false });
                }
                // Partial line; keep reading.
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if stop.load(Ordering::Acquire) {
                    return Ok(LineRead::Stopped);
                }
                if Instant::now() >= deadline {
                    return Ok(LineRead::IdleExpired);
                }
            }
            Err(e) => return Err(e),
        }
    }
}

/// After an unterminated oversized line: consume input up to and
/// including its newline so the connection can keep serving. Bounded by
/// a byte cap and the caller's deadline; `false` means give up and
/// close the connection.
fn drain_oversized<R: BufRead>(
    reader: &mut io::Take<R>,
    stop: &AtomicBool,
    deadline: Instant,
) -> bool {
    /// An attacker streaming an endless "line" must not hold the
    /// reader forever; beyond this the connection is simply closed.
    const DRAIN_CAP: u64 = 8 * 1024 * 1024;
    let mut drained: u64 = 0;
    let mut scratch = Vec::new();
    while drained < DRAIN_CAP {
        scratch.clear();
        reader.set_limit(4096);
        match reader.read_until(b'\n', &mut scratch) {
            Ok(0) => return false, // EOF before the newline
            Ok(n) => {
                drained += n as u64;
                if scratch.last() == Some(&b'\n') {
                    return true;
                }
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if stop.load(Ordering::Acquire) || Instant::now() >= deadline {
                    return false;
                }
            }
            Err(_) => return false,
        }
    }
    false
}

fn write_line(writer: &mut TcpStream, line: &str) -> io::Result<()> {
    writer.write_all(line.as_bytes())?;
    writer.write_all(b"\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn far_deadline() -> Instant {
        Instant::now() + Duration::from_secs(60)
    }

    /// Drive `read_bounded_line` over in-memory bytes (no socket, no
    /// timeouts — BufRead genericity is the point).
    fn read_one(data: &[u8], max: usize) -> (LineRead, io::Take<io::Cursor<Vec<u8>>>) {
        let stop = AtomicBool::new(false);
        let mut reader = io::Cursor::new(data.to_vec()).take(0);
        let out = read_bounded_line(&mut reader, max, &stop, far_deadline()).unwrap();
        (out, reader)
    }

    #[test]
    fn line_of_exactly_max_bytes_is_accepted() {
        let payload = vec![b'x'; 16];
        let mut data = payload.clone();
        data.push(b'\n');
        let (out, _) = read_one(&data, 16);
        let LineRead::Line(line) = out else {
            panic!("expected a line");
        };
        assert_eq!(line, payload, "exactly max bytes is within the limit");
        // One byte more crosses it; the limit trips before the newline
        // is reached, so the offender is reported unterminated.
        let mut data = vec![b'x'; 17];
        data.push(b'\n');
        let (out, mut reader) = read_one(&data, 16);
        assert!(matches!(out, LineRead::Oversized { terminated: false }));
        let stop = AtomicBool::new(false);
        assert!(drain_oversized(&mut reader, &stop, far_deadline()));
    }

    #[test]
    fn eof_with_unterminated_tail_reads_as_eof() {
        // A torn request — the peer died mid-line — must not be served.
        let (out, _) = read_one(b"half-a-request", 64);
        assert!(matches!(out, LineRead::Eof));
        let (out, _) = read_one(b"", 64);
        assert!(matches!(out, LineRead::Eof));
    }

    #[test]
    fn unterminated_oversized_line_drains_to_the_next_request() {
        // 100 bytes of junk (limit 16), then its newline, then a valid
        // line: after draining, the valid line must still be readable.
        let mut data = vec![b'j'; 100];
        data.push(b'\n');
        data.extend_from_slice(b"next\n");
        let (out, mut reader) = read_one(&data, 16);
        assert!(matches!(out, LineRead::Oversized { terminated: false }));
        let stop = AtomicBool::new(false);
        assert!(drain_oversized(&mut reader, &stop, far_deadline()));
        let next = read_bounded_line(&mut reader, 16, &stop, far_deadline()).unwrap();
        let LineRead::Line(line) = next else {
            panic!("expected the post-drain line");
        };
        assert_eq!(line, b"next");
    }

    #[test]
    fn drain_gives_up_on_eof_without_newline() {
        let data = vec![b'j'; 100];
        let (out, mut reader) = read_one(&data, 16);
        assert!(matches!(out, LineRead::Oversized { terminated: false }));
        let stop = AtomicBool::new(false);
        assert!(!drain_oversized(&mut reader, &stop, far_deadline()));
    }

    #[test]
    fn multibyte_utf8_survives_buffered_chunking() {
        // A multi-byte code point straddling BufReader refills must
        // come through intact — `read_bounded_line` works on bytes and
        // decoding happens only on the complete line.
        let payload = "héllo→wörld✓".repeat(3);
        let mut data = payload.clone().into_bytes();
        data.push(b'\n');
        let stop = AtomicBool::new(false);
        // Capacity 3 forces refills inside every multi-byte sequence.
        let mut reader = BufReader::with_capacity(3, io::Cursor::new(data)).take(0);
        let out = read_bounded_line(&mut reader, 1024, &stop, far_deadline()).unwrap();
        let LineRead::Line(line) = out else {
            panic!("expected a line");
        };
        assert_eq!(String::from_utf8(line).unwrap(), payload);
    }
}
