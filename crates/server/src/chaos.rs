//! Deterministic network fault injection: the wire-level sibling of
//! `segdb_pager::fault::FaultDevice`.
//!
//! A [`NetFaultPlan`] is a seeded schedule of wire faults. Arm it on a
//! [`NetFaultHandle`] and every stream or listener sharing that handle
//! draws from one private RNG ([`segdb_rng::SmallRng`]), per counted
//! *logical* wire operation:
//!
//! * **connect** (client dial) — may abort with an injected connection
//!   reset before touching the network;
//! * **accept** (server side, via [`ChaosListener`]) — may drop the
//!   freshly accepted stream on the floor, so the peer sees an
//!   EOF/reset instead of a response;
//! * **send** (one request frame) — may pause (injected latency), fail
//!   outright, or *truncate*: only a seeded prefix of the frame reaches
//!   the wire before the socket is shut down — the peer is left holding
//!   a partial frame;
//! * **recv** (one response line) — may pause, fail, kill the socket
//!   mid-frame, or *trickle*: deliver the line one byte per read, the
//!   slow-loris read pattern.
//!
//! Injection counts **logical** operations (frames, not syscalls), so a
//! given `(seed, request sequence)` pair replays the identical fault
//! trace regardless of how TCP fragments the bytes — the same deflake
//! guarantee the storage torture suite gets from `FaultDevice`. Faults
//! split into *disruptive* kinds (the attempt they land on dies; the
//! resilient client observes exactly one failure per injection) and
//! *benign* perturbations (latency, trickle) that disturb timing only;
//! `segdb_obs::net` keeps the global injected/observed ledger the
//! torture suite balances.
//!
//! The handle starts **disarmed**: wrapped streams and listeners are
//! transparent until [`NetFaultHandle::arm`] starts the schedule.

use segdb_rng::SmallRng;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// The seeded wire-fault schedule of one [`NetFaultHandle`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetFaultPlan {
    /// Seed of the handle's private RNG.
    pub seed: u64,
    /// Probability a client connect attempt is aborted (reset) before
    /// dialing.
    pub connect_reset: f64,
    /// Probability an accepted server connection is dropped on the
    /// floor ([`ChaosListener`] only).
    pub accept_reset: f64,
    /// Probability a request send fails with nothing on the wire.
    pub send_error: f64,
    /// Probability a request send is truncated mid-frame (drawn after
    /// `send_error`).
    pub truncated_send: f64,
    /// Probability a response read fails.
    pub recv_error: f64,
    /// Probability the socket is killed while awaiting a response
    /// (drawn after `recv_error`).
    pub disconnect: f64,
    /// Probability a send/recv is delayed by injected latency.
    pub latency: f64,
    /// Upper bound on one injected latency pause, in milliseconds.
    pub max_latency_ms: u64,
    /// Probability a response is delivered one byte per read.
    pub trickle: f64,
}

impl NetFaultPlan {
    /// A plan that injects nothing (the disarmed baseline).
    pub fn none(seed: u64) -> NetFaultPlan {
        NetFaultPlan {
            seed,
            connect_reset: 0.0,
            accept_reset: 0.0,
            send_error: 0.0,
            truncated_send: 0.0,
            recv_error: 0.0,
            disconnect: 0.0,
            latency: 0.0,
            max_latency_ms: 0,
            trickle: 0.0,
        }
    }

    /// The standard torture mix: every fault kind armed at a rate a
    /// retrying client survives with a modest budget (the chance that
    /// one request exhausts 16 attempts is below 1e-9).
    pub fn chaotic(seed: u64) -> NetFaultPlan {
        NetFaultPlan {
            seed,
            connect_reset: 0.10,
            accept_reset: 0.08,
            send_error: 0.06,
            truncated_send: 0.06,
            recv_error: 0.06,
            disconnect: 0.06,
            latency: 0.10,
            max_latency_ms: 3,
            trickle: 0.10,
        }
    }
}

/// What kind of wire fault was injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetFaultKind {
    /// Client connect attempt aborted.
    ConnectReset,
    /// Accepted server connection dropped on the floor.
    AcceptReset,
    /// Request send failed with nothing written.
    SendError,
    /// Request send truncated: only `sent` bytes reached the wire.
    TruncatedSend {
        /// Frame bytes that reached the wire before the cut.
        sent: u32,
    },
    /// Response read failed.
    RecvError,
    /// Socket killed while awaiting a response.
    Disconnect,
    /// Injected latency pause of `ms` milliseconds (benign).
    Latency {
        /// Pause length in milliseconds.
        ms: u16,
    },
    /// Response delivered one byte per read (benign).
    Trickle,
}

/// One injected wire fault, for trace comparison across replays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetFaultEvent {
    /// Counted logical-operation index (0-based from arming).
    pub op: u64,
    /// What was injected.
    pub kind: NetFaultKind,
}

/// Per-handle injection counters (deterministic, unlike the
/// process-wide [`segdb_obs::net`] totals which accumulate across
/// handles).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NetFaultStats {
    /// Connect resets injected.
    pub connect_resets: u64,
    /// Accept resets injected.
    pub accept_resets: u64,
    /// Send errors injected.
    pub send_errors: u64,
    /// Truncated sends injected.
    pub truncated_sends: u64,
    /// Recv errors injected.
    pub recv_errors: u64,
    /// Mid-frame disconnects injected.
    pub disconnects: u64,
    /// Latency pauses injected.
    pub latencies: u64,
    /// Trickle reads injected.
    pub trickles: u64,
}

impl NetFaultStats {
    /// Every injected fault, benign perturbations included.
    pub fn total(&self) -> u64 {
        self.disruptive() + self.latencies + self.trickles
    }

    /// Injected faults that kill the attempt they land on.
    pub fn disruptive(&self) -> u64 {
        self.connect_resets
            + self.accept_resets
            + self.send_errors
            + self.truncated_sends
            + self.recv_errors
            + self.disconnects
    }
}

/// Order-independent FNV-1a digest of a fault trace, for cheap replay
/// equality checks across processes (two identical runs must print the
/// identical digest).
pub fn trace_digest(trace: &[NetFaultEvent]) -> u64 {
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for e in trace {
        let kind: u64 = match e.kind {
            NetFaultKind::ConnectReset => 1,
            NetFaultKind::AcceptReset => 2,
            NetFaultKind::SendError => 3,
            NetFaultKind::TruncatedSend { sent } => 4 | (u64::from(sent) << 8),
            NetFaultKind::RecvError => 5,
            NetFaultKind::Disconnect => 6,
            NetFaultKind::Latency { ms } => 7 | (u64::from(ms) << 8),
            NetFaultKind::Trickle => 8,
        };
        digest ^= e.op.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ kind;
        digest = digest.wrapping_mul(0x0000_0100_0000_01B3);
    }
    digest
}

struct ChaosCore {
    plan: NetFaultPlan,
    rng: SmallRng,
    armed: bool,
    ops: u64,
    trace: Vec<NetFaultEvent>,
    stats: NetFaultStats,
}

impl ChaosCore {
    fn draw(&mut self, p: f64) -> bool {
        p > 0.0 && self.rng.gen_bool(p)
    }

    fn record(&mut self, op: u64, kind: NetFaultKind) {
        self.trace.push(NetFaultEvent { op, kind });
        let t = segdb_obs::net::totals();
        match kind {
            NetFaultKind::ConnectReset => {
                self.stats.connect_resets += 1;
                t.injected_connect_reset();
            }
            NetFaultKind::AcceptReset => {
                self.stats.accept_resets += 1;
                t.injected_accept_reset();
            }
            NetFaultKind::SendError => {
                self.stats.send_errors += 1;
                t.injected_send_error();
            }
            NetFaultKind::TruncatedSend { .. } => {
                self.stats.truncated_sends += 1;
                t.injected_truncated_send();
            }
            NetFaultKind::RecvError => {
                self.stats.recv_errors += 1;
                t.injected_recv_error();
            }
            NetFaultKind::Disconnect => {
                self.stats.disconnects += 1;
                t.injected_disconnect();
            }
            NetFaultKind::Latency { .. } => {
                self.stats.latencies += 1;
                t.injected_latency();
            }
            NetFaultKind::Trickle => {
                self.stats.trickles += 1;
                t.injected_trickle();
            }
        }
    }
}

/// How one send operation should be perturbed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SendFate {
    Pass,
    Error,
    /// Put `sent` bytes on the wire, then cut the socket.
    Truncate {
        sent: usize,
    },
}

/// How one recv operation should be perturbed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RecvFate {
    Pass { trickle: bool },
    Error,
    Disconnect,
}

/// The harness-side controller of a chaos schedule: arms the plan,
/// reads the trace/stats, and is cloned into every [`ChaosStream`] /
/// [`ChaosListener`] that should share the schedule.
#[derive(Clone)]
pub struct NetFaultHandle {
    core: Arc<Mutex<ChaosCore>>,
}

impl std::fmt::Debug for NetFaultHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetFaultHandle").finish()
    }
}

fn lock(core: &Arc<Mutex<ChaosCore>>) -> MutexGuard<'_, ChaosCore> {
    core.lock().unwrap_or_else(|p| p.into_inner())
}

impl NetFaultHandle {
    /// A fresh handle holding `plan`, **disarmed** until
    /// [`NetFaultHandle::arm`].
    pub fn new(plan: NetFaultPlan) -> NetFaultHandle {
        NetFaultHandle {
            core: Arc::new(Mutex::new(ChaosCore {
                rng: SmallRng::seed_from_u64(plan.seed),
                plan,
                armed: false,
                ops: 0,
                trace: Vec::new(),
                stats: NetFaultStats::default(),
            })),
        }
    }

    /// Install `plan` and start injecting: reseeds the RNG from
    /// `plan.seed` and resets the operation counter. Trace and stats
    /// keep accumulating.
    pub fn arm(&self, plan: NetFaultPlan) {
        let mut c = lock(&self.core);
        c.rng = SmallRng::seed_from_u64(plan.seed);
        c.plan = plan;
        c.ops = 0;
        c.armed = true;
    }

    /// Stop injecting (wrapped streams keep working fault-free).
    pub fn disarm(&self) {
        lock(&self.core).armed = false;
    }

    /// Counted logical operations since the last [`NetFaultHandle::arm`].
    pub fn ops(&self) -> u64 {
        lock(&self.core).ops
    }

    /// Per-handle injection counters.
    pub fn stats(&self) -> NetFaultStats {
        lock(&self.core).stats
    }

    /// Every injected fault so far, in order.
    pub fn trace(&self) -> Vec<NetFaultEvent> {
        lock(&self.core).trace.clone()
    }

    /// [`trace_digest`] of the handle's trace.
    pub fn digest(&self) -> u64 {
        trace_digest(&lock(&self.core).trace)
    }

    /// Count one connect attempt; `Err` aborts it with an injected
    /// reset.
    fn on_connect(&self) -> io::Result<()> {
        let mut c = lock(&self.core);
        if !c.armed {
            return Ok(());
        }
        let op = c.ops;
        c.ops += 1;
        let p = c.plan.connect_reset;
        if c.draw(p) {
            c.record(op, NetFaultKind::ConnectReset);
            return Err(io::Error::new(
                io::ErrorKind::ConnectionReset,
                format!("injected connect reset (op {op})"),
            ));
        }
        Ok(())
    }

    /// Count one accept; `true` means drop the accepted stream.
    pub(crate) fn on_accept(&self) -> bool {
        let mut c = lock(&self.core);
        if !c.armed {
            return false;
        }
        let op = c.ops;
        c.ops += 1;
        let p = c.plan.accept_reset;
        if c.draw(p) {
            c.record(op, NetFaultKind::AcceptReset);
            return true;
        }
        false
    }

    /// Count one send of a `frame_len`-byte frame; returns the pause
    /// (already recorded) and the send's fate.
    fn on_send(&self, frame_len: usize) -> (Duration, SendFate) {
        let mut c = lock(&self.core);
        if !c.armed {
            return (Duration::ZERO, SendFate::Pass);
        }
        let op = c.ops;
        c.ops += 1;
        let pause = draw_latency(&mut c, op);
        let p_err = c.plan.send_error;
        if c.draw(p_err) {
            c.record(op, NetFaultKind::SendError);
            return (pause, SendFate::Error);
        }
        let p_trunc = c.plan.truncated_send;
        if c.draw(p_trunc) && frame_len > 1 {
            let sent = c.rng.gen_range(1..frame_len);
            c.record(op, NetFaultKind::TruncatedSend { sent: sent as u32 });
            return (pause, SendFate::Truncate { sent });
        }
        (pause, SendFate::Pass)
    }

    /// Count one response read; returns the pause and the read's fate.
    fn on_recv(&self) -> (Duration, RecvFate) {
        let mut c = lock(&self.core);
        if !c.armed {
            return (Duration::ZERO, RecvFate::Pass { trickle: false });
        }
        let op = c.ops;
        c.ops += 1;
        let pause = draw_latency(&mut c, op);
        let p_err = c.plan.recv_error;
        if c.draw(p_err) {
            c.record(op, NetFaultKind::RecvError);
            return (pause, RecvFate::Error);
        }
        let p_disc = c.plan.disconnect;
        if c.draw(p_disc) {
            c.record(op, NetFaultKind::Disconnect);
            return (pause, RecvFate::Disconnect);
        }
        let p_trickle = c.plan.trickle;
        if c.draw(p_trickle) {
            c.record(op, NetFaultKind::Trickle);
            return (pause, RecvFate::Pass { trickle: true });
        }
        (pause, RecvFate::Pass { trickle: false })
    }
}

fn draw_latency(c: &mut ChaosCore, op: u64) -> Duration {
    let p = c.plan.latency;
    if c.plan.max_latency_ms > 0 && c.draw(p) {
        let ms = c.rng.gen_range(1..=c.plan.max_latency_ms);
        c.record(op, NetFaultKind::Latency { ms: ms as u16 });
        Duration::from_millis(ms)
    } else {
        Duration::ZERO
    }
}

/// A `TcpListener` whose accepts pass through a chaos schedule:
/// accept-reset victims are dropped on the floor (their peer sees an
/// EOF or reset in place of a response) and the next live connection
/// is returned.
pub struct ChaosListener {
    inner: TcpListener,
    chaos: Option<NetFaultHandle>,
}

impl ChaosListener {
    /// Wrap an already-bound listener; `chaos: None` is fully
    /// transparent.
    pub fn wrap(inner: TcpListener, chaos: Option<NetFaultHandle>) -> ChaosListener {
        ChaosListener { inner, chaos }
    }

    /// The wrapped listener's local address.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.inner.local_addr()
    }

    /// Accept the next connection that survives the schedule.
    pub fn accept(&self) -> io::Result<(TcpStream, SocketAddr)> {
        loop {
            let (stream, peer) = self.inner.accept()?;
            if let Some(chaos) = &self.chaos {
                if chaos.on_accept() {
                    // Dropping the stream closes it; the peer's next
                    // read sees EOF (or a reset if it keeps writing).
                    drop(stream);
                    continue;
                }
            }
            return Ok((stream, peer));
        }
    }
}

/// A framed client-side connection whose logical operations (connect,
/// send one request line, receive one response line) pass through a
/// chaos schedule. With `chaos: None` it is a plain framed TCP
/// connection — the resilient client uses the same code path either
/// way.
pub struct ChaosStream {
    stream: TcpStream,
    chaos: Option<NetFaultHandle>,
    /// Bytes read past the last returned line.
    rbuf: Vec<u8>,
}

impl std::fmt::Debug for ChaosStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChaosStream")
            .field("peer", &self.stream.peer_addr().ok())
            .finish()
    }
}

fn killed(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::ConnectionReset, what.to_string())
}

impl ChaosStream {
    /// Dial `addr` within `timeout`, injecting connect resets when the
    /// schedule says so.
    pub fn connect(
        addr: &str,
        timeout: Duration,
        chaos: Option<NetFaultHandle>,
    ) -> io::Result<ChaosStream> {
        if let Some(c) = &chaos {
            c.on_connect()?;
        }
        let sock = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "no address resolved"))?;
        let stream = TcpStream::connect_timeout(&sock, timeout)?;
        let _ = stream.set_nodelay(true);
        Ok(ChaosStream {
            stream,
            chaos,
            rbuf: Vec::new(),
        })
    }

    /// Send one request line (`line` excludes the newline) as a single
    /// frame. An injected truncation puts a prefix on the wire and then
    /// shuts the socket down — the peer is left with a partial frame.
    pub fn send_frame(&mut self, line: &str) -> io::Result<()> {
        let mut frame = Vec::with_capacity(line.len() + 1);
        frame.extend_from_slice(line.as_bytes());
        frame.push(b'\n');
        let fate = match &self.chaos {
            Some(chaos) => {
                let (pause, fate) = chaos.on_send(frame.len());
                if !pause.is_zero() {
                    std::thread::sleep(pause);
                }
                fate
            }
            None => SendFate::Pass,
        };
        match fate {
            SendFate::Pass => self.stream.write_all(&frame),
            SendFate::Error => Err(killed("injected send error")),
            SendFate::Truncate { sent } => {
                let _ = self.stream.write_all(&frame[..sent]);
                let _ = self.stream.flush();
                let _ = self.stream.shutdown(Shutdown::Both);
                Err(killed("injected truncated send"))
            }
        }
    }

    /// Receive one response line (newline stripped), bounded by `max`
    /// bytes and an absolute `deadline`. Returns `TimedOut` when the
    /// deadline passes, `UnexpectedEof` on a peer close mid-line.
    pub fn recv_line(&mut self, deadline: Instant, max: usize) -> io::Result<String> {
        let trickle = match &self.chaos {
            Some(chaos) => {
                let (pause, fate) = chaos.on_recv();
                if !pause.is_zero() {
                    std::thread::sleep(pause);
                }
                match fate {
                    RecvFate::Pass { trickle } => trickle,
                    RecvFate::Error => return Err(killed("injected recv error")),
                    RecvFate::Disconnect => {
                        let _ = self.stream.shutdown(Shutdown::Both);
                        return Err(killed("injected mid-frame disconnect"));
                    }
                }
            }
            None => false,
        };
        loop {
            if let Some(pos) = self.rbuf.iter().position(|&b| b == b'\n') {
                let rest = self.rbuf.split_off(pos + 1);
                let mut line = std::mem::replace(&mut self.rbuf, rest);
                line.pop();
                return Ok(String::from_utf8_lossy(&line).into_owned());
            }
            if self.rbuf.len() > max {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "response line exceeds limit",
                ));
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "response deadline passed",
                ));
            }
            self.stream.set_read_timeout(Some(deadline - now))?;
            let mut chunk = [0u8; 4096];
            let want = if trickle { 1 } else { chunk.len() };
            match self.stream.read(&mut chunk[..want]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "peer closed mid-response",
                    ))
                }
                Ok(n) => self.rbuf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "response deadline passed",
                    ))
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Kill the connection (both halves).
    pub fn kill(&self) {
        let _ = self.stream.shutdown(Shutdown::Both);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpListener;
    use std::thread;

    /// An echo server answering each line with `ack:<line>`.
    fn echo_server() -> (SocketAddr, thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let h = thread::spawn(move || {
            let mut quit = false;
            while !quit {
                let Ok((stream, _)) = listener.accept() else {
                    break;
                };
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let mut writer = stream;
                let mut line = String::new();
                loop {
                    line.clear();
                    match reader.read_line(&mut line) {
                        Ok(0) | Err(_) => break,
                        Ok(_) => {
                            quit |= line.trim_end() == "quit";
                            let msg = format!("ack:{}", line.trim_end());
                            if writer.write_all(msg.as_bytes()).is_err()
                                || writer.write_all(b"\n").is_err()
                            {
                                break;
                            }
                        }
                    }
                }
            }
        });
        (addr, h)
    }

    fn far_deadline() -> Instant {
        Instant::now() + Duration::from_secs(10)
    }

    #[test]
    fn disarmed_stream_is_transparent() {
        let (addr, server) = echo_server();
        let handle = NetFaultHandle::new(NetFaultPlan::chaotic(1));
        let mut s = ChaosStream::connect(
            &addr.to_string(),
            Duration::from_secs(5),
            Some(handle.clone()),
        )
        .unwrap();
        for i in 0..8 {
            s.send_frame(&format!("hello-{i}")).unwrap();
            assert_eq!(
                s.recv_line(far_deadline(), 1024).unwrap(),
                format!("ack:hello-{i}")
            );
        }
        assert_eq!(handle.stats().total(), 0, "nothing injected while disarmed");
        assert!(handle.trace().is_empty());
        s.send_frame("quit").unwrap();
        drop(s);
        server.join().unwrap();
    }

    #[test]
    fn armed_send_error_kills_nothing_but_the_attempt() {
        let (addr, server) = echo_server();
        let handle = NetFaultHandle::new(NetFaultPlan::none(2));
        let mut s = ChaosStream::connect(
            &addr.to_string(),
            Duration::from_secs(5),
            Some(handle.clone()),
        )
        .unwrap();
        handle.arm(NetFaultPlan {
            send_error: 1.0,
            ..NetFaultPlan::none(2)
        });
        let err = s.send_frame("doomed").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionReset);
        assert_eq!(handle.stats().send_errors, 1);
        // Nothing reached the wire, so the connection is still usable.
        handle.disarm();
        s.send_frame("alive").unwrap();
        assert_eq!(s.recv_line(far_deadline(), 1024).unwrap(), "ack:alive");
        s.send_frame("quit").unwrap();
        drop(s);
        server.join().unwrap();
    }

    #[test]
    fn truncated_send_leaves_peer_a_partial_frame() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream);
            let mut got = Vec::new();
            reader.read_to_end(&mut got).unwrap();
            got
        });
        let handle = NetFaultHandle::new(NetFaultPlan::none(3));
        let mut s = ChaosStream::connect(
            &addr.to_string(),
            Duration::from_secs(5),
            Some(handle.clone()),
        )
        .unwrap();
        handle.arm(NetFaultPlan {
            truncated_send: 1.0,
            ..NetFaultPlan::none(3)
        });
        let frame = "a-request-line-of-some-length";
        assert!(s.send_frame(frame).is_err());
        let tr = handle.trace();
        assert_eq!(tr.len(), 1);
        let NetFaultKind::TruncatedSend { sent } = tr[0].kind else {
            panic!("expected a truncated send, got {:?}", tr[0].kind);
        };
        let got = peer.join().unwrap();
        assert_eq!(got.len(), sent as usize, "peer holds exactly the prefix");
        assert!(got.len() < frame.len() + 1, "the frame was cut short");
        assert_eq!(&got[..], &format!("{frame}\n").as_bytes()[..got.len()]);
    }

    #[test]
    fn trickled_response_arrives_intact() {
        let (addr, server) = echo_server();
        let handle = NetFaultHandle::new(NetFaultPlan::none(4));
        let mut s = ChaosStream::connect(
            &addr.to_string(),
            Duration::from_secs(5),
            Some(handle.clone()),
        )
        .unwrap();
        handle.arm(NetFaultPlan {
            trickle: 1.0,
            ..NetFaultPlan::none(4)
        });
        s.send_frame("slow-and-steady").unwrap();
        assert_eq!(
            s.recv_line(far_deadline(), 1024).unwrap(),
            "ack:slow-and-steady"
        );
        assert_eq!(handle.stats().trickles, 1);
        assert_eq!(handle.stats().disruptive(), 0, "trickle is benign");
        handle.disarm();
        s.send_frame("quit").unwrap();
        drop(s);
        server.join().unwrap();
    }

    #[test]
    fn chaos_listener_resets_then_serves() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = NetFaultHandle::new(NetFaultPlan::none(5));
        handle.arm(NetFaultPlan {
            // Deterministic with p=1 for exactly the first draw: use a
            // plan where the first accept resets, then disarm.
            accept_reset: 1.0,
            ..NetFaultPlan::none(5)
        });
        let chaos = ChaosListener::wrap(listener, Some(handle.clone()));
        let h2 = handle.clone();
        let server = thread::spawn(move || {
            // One live connection: the reset victim is consumed
            // internally once the handle disarms for the second dial.
            let (stream, _) = chaos.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut writer = stream;
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            writer.write_all(b"served\n").unwrap();
            h2.stats()
        });
        // First dial: accepted then dropped — reads see EOF.
        let victim = TcpStream::connect(addr).unwrap();
        victim
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut buf = String::new();
        // The drop may race the connect; either EOF (0 bytes) or a
        // reset error proves the server hung up without answering.
        let eof = BufReader::new(victim).read_line(&mut buf);
        assert!(matches!(eof, Ok(0) | Err(_)), "victim got {eof:?}/{buf:?}");
        handle.disarm();
        // Second dial survives and is served.
        let live = TcpStream::connect(addr).unwrap();
        let mut writer = live.try_clone().unwrap();
        writer.write_all(b"hi\n").unwrap();
        let mut reader = BufReader::new(live);
        let mut response = String::new();
        reader.read_line(&mut response).unwrap();
        assert_eq!(response, "served\n");
        let stats = server.join().unwrap();
        assert_eq!(stats.accept_resets, 1);
    }

    #[test]
    fn same_seed_same_ops_replays_the_identical_trace() {
        let run = || {
            let handle = NetFaultHandle::new(NetFaultPlan::none(0));
            handle.arm(NetFaultPlan::chaotic(99));
            for i in 0..60u64 {
                match i % 3 {
                    0 => {
                        let _ = handle.on_connect();
                    }
                    1 => {
                        let _ = handle.on_send(64);
                    }
                    _ => {
                        let _ = handle.on_recv();
                    }
                }
            }
            (handle.trace(), handle.stats(), handle.digest())
        };
        let (t1, s1, d1) = run();
        let (t2, s2, d2) = run();
        assert_eq!(t1, t2, "fault traces must replay bit-identically");
        assert_eq!(s1, s2);
        assert_eq!(d1, d2);
        assert!(s1.total() > 0, "the chaotic plan actually injected");
    }

    #[test]
    fn digest_distinguishes_traces() {
        let a = vec![NetFaultEvent {
            op: 0,
            kind: NetFaultKind::SendError,
        }];
        let b = vec![NetFaultEvent {
            op: 0,
            kind: NetFaultKind::RecvError,
        }];
        assert_ne!(trace_digest(&a), trace_digest(&b));
        assert_ne!(trace_digest(&a), trace_digest(&[]));
    }
}
