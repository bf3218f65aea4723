//! The resilient client: reconnect-and-retry request execution with
//! per-attempt deadlines and bounded, seeded-jitter exponential backoff.
//!
//! Every server method this repo exposes over the wire is **idempotent**
//! — queries, traces, stats and pings mutate nothing, and the write
//! methods (`insert` / `delete`) carry a mandatory request id the
//! server deduplicates on — so a request whose outcome is unknown (the
//! connection died before a response arrived) is always safe to replay
//! on a fresh connection. That makes the retry policy simple and total:
//!
//! * **retryable** — wire-level disruptions (connect failure, reset,
//!   EOF mid-response, missed attempt deadline) and the server's
//!   explicit back-pressure codes `overloaded` and `timeout`. The
//!   budget is `1 + max_retries` attempts with exponential backoff
//!   between them, jittered from a seeded [`segdb_rng::SmallRng`] so
//!   replays are deterministic and synchronized clients don't stampede.
//! * **terminal** — answers that retrying cannot improve: protocol
//!   errors (`bad_request`, `unknown_method`, `oversized`), database
//!   rejections (`db`), storage faults (`io_error`), a draining server
//!   (`shutting_down`), and malformed response lines.
//!
//! A connection that fails an attempt is always discarded before the
//! retry — a late response from a timed-out attempt must never be
//! matched to a later request. As a second guard on the same hazard,
//! the convenience methods stamp every request with a fresh numeric
//! `id` and [`Client::call_line`] verifies the echo: a response whose
//! numeric id differs from the request's is treated as a wire fault
//! and retried on a fresh connection. Wire disruptions and resilience
//! actions are tallied in [`ClientStats`] and the process-wide
//! [`segdb_obs::net`] counters the server's `stats` method surfaces.

use crate::chaos::{ChaosStream, NetFaultHandle};
use crate::proto::{self, code};
use segdb_core::QueryMode;
use segdb_geom::Segment;
use segdb_obs::json::{self, Json};
use segdb_rng::SmallRng;
use std::time::{Duration, Instant};

/// Tunables for a [`Client`].
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Server address, e.g. `127.0.0.1:7878`.
    pub addr: String,
    /// Deadline per attempt, covering connect + send + receive.
    pub attempt_timeout: Duration,
    /// Retries after the first attempt; 0 means fail fast.
    pub max_retries: u32,
    /// First backoff pause; doubles per retry.
    pub backoff_base: Duration,
    /// Upper bound on one backoff pause.
    pub backoff_cap: Duration,
    /// Seed of the jitter RNG (deterministic per seed).
    pub jitter_seed: u64,
    /// Longest accepted response line in bytes.
    pub max_line_bytes: usize,
    /// Request ids are stamped `id_base + 1, id_base + 2, …`. The
    /// server's write-dedup window is keyed by the bare id, so clients
    /// that may write to the same server within its window must use
    /// disjoint bases (the CLI derives one from wall clock + pid per
    /// invocation); 0 keeps ids small and deterministic for
    /// single-session tools like the load driver.
    pub id_base: u64,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            addr: "127.0.0.1:7878".to_string(),
            attempt_timeout: Duration::from_secs(2),
            max_retries: 16,
            backoff_base: Duration::from_millis(2),
            backoff_cap: Duration::from_millis(200),
            jitter_seed: 0x5EED_CAFE,
            max_line_bytes: 4 * 1024 * 1024,
            id_base: 0,
        }
    }
}

/// Why a call gave up.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallError {
    /// The server answered with an error retrying cannot improve, or
    /// the response line was not a protocol response.
    Terminal {
        /// The wire error code (or `malformed` for unparseable lines).
        code: String,
        /// Human-readable detail.
        message: String,
    },
    /// The retry budget ran out on retryable outcomes.
    Exhausted {
        /// Attempts made (1 + retries).
        attempts: u32,
        /// The last retryable outcome, e.g. `overloaded` or an I/O
        /// error description.
        last: String,
    },
}

impl std::fmt::Display for CallError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CallError::Terminal { code, message } => write!(f, "terminal [{code}]: {message}"),
            CallError::Exhausted { attempts, last } => {
                write!(
                    f,
                    "retry budget exhausted after {attempts} attempts: {last}"
                )
            }
        }
    }
}

impl std::error::Error for CallError {}

impl CallError {
    /// The wire error code of the final outcome (`io` for wire-level
    /// exhaustion without a server verdict).
    pub fn code(&self) -> &str {
        match self {
            CallError::Terminal { code, .. } => code,
            CallError::Exhausted { last, .. } => {
                if last.starts_with(code::OVERLOADED) {
                    code::OVERLOADED
                } else if last.starts_with(code::TIMEOUT) {
                    code::TIMEOUT
                } else {
                    "io"
                }
            }
        }
    }
}

/// Resilience tallies of one [`Client`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClientStats {
    /// Attempts made (first tries + retries).
    pub attempts: u64,
    /// Retries after a retryable outcome.
    pub retries: u64,
    /// Fresh connections dialed after a dead one.
    pub reconnects: u64,
    /// Wire-level disruptions observed (and survived).
    pub observed_faults: u64,
}

/// One outcome of a single attempt.
enum Attempt {
    /// A parsed response object (ok or error — classified by caller).
    Response(Json),
    /// The connection died; description for diagnostics.
    Wire(String),
}

/// A reconnecting, retrying NDJSON client over one server address.
pub struct Client {
    cfg: ClientConfig,
    rng: SmallRng,
    conn: Option<ChaosStream>,
    chaos: Option<NetFaultHandle>,
    stats: ClientStats,
    ever_connected: bool,
    /// Correlation-id counter for the convenience methods; each stamped
    /// request carries a fresh id the server echoes back.
    next_id: u64,
}

impl std::fmt::Debug for Client {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Client")
            .field("addr", &self.cfg.addr)
            .field("stats", &self.stats)
            .finish()
    }
}

impl Client {
    /// A client for `cfg.addr`; connects lazily on the first call.
    pub fn new(cfg: ClientConfig) -> Client {
        Client {
            rng: SmallRng::seed_from_u64(cfg.jitter_seed),
            cfg,
            conn: None,
            chaos: None,
            stats: ClientStats::default(),
            ever_connected: false,
            next_id: 0,
        }
    }

    /// A client whose connections pass through a chaos schedule — the
    /// torture-harness configuration.
    pub fn with_chaos(cfg: ClientConfig, chaos: NetFaultHandle) -> Client {
        Client {
            chaos: Some(chaos),
            ..Client::new(cfg)
        }
    }

    /// Resilience tallies so far.
    pub fn stats(&self) -> ClientStats {
        self.stats
    }

    /// Drop the current connection, if any (the next call redials).
    pub fn disconnect(&mut self) {
        if let Some(conn) = self.conn.take() {
            conn.kill();
        }
    }

    /// Execute one already-rendered request line and return the parsed
    /// `result` object of a successful response.
    ///
    /// Retryable outcomes (wire disruptions, `overloaded`, `timeout`)
    /// are retried up to the budget with jittered exponential backoff;
    /// terminal outcomes return immediately. The request must be
    /// idempotent — every query method is.
    ///
    /// When the request line carries a numeric `id`, the response's
    /// echoed id is verified: a response carrying a *different* numeric
    /// id is a stale line from an earlier request on the connection and
    /// is treated as a wire fault (discard the connection, retry). A
    /// `null` response id skips the check — the server answers `null`
    /// when it could not salvage the id from a malformed line.
    pub fn call_line(&mut self, line: &str) -> Result<Json, CallError> {
        self.call_line_with(line, self.cfg.attempt_timeout, self.cfg.max_retries)
    }

    /// [`Client::call_line`] with an explicit per-attempt deadline and
    /// retry budget for this one call, overriding the configured ones.
    ///
    /// The router's hedged reads use this to bound the *first* replica
    /// attempt at a p99-derived delay with zero retries before trying
    /// the next replica; everything else about the call (idempotence
    /// requirements, id-echo verification, connection hygiene) is
    /// identical.
    pub fn call_line_bounded(
        &mut self,
        line: &str,
        attempt_timeout: Duration,
        max_retries: u32,
    ) -> Result<Json, CallError> {
        self.call_line_with(line, attempt_timeout, max_retries)
    }

    fn call_line_with(
        &mut self,
        line: &str,
        attempt_timeout: Duration,
        max_retries: u32,
    ) -> Result<Json, CallError> {
        let want_id = request_id(line);
        let budget = 1 + max_retries;
        let mut last = String::new();
        for attempt in 0..budget {
            if attempt > 0 {
                self.stats.retries += 1;
                segdb_obs::net::totals().client_retry();
                self.backoff(attempt - 1);
            }
            self.stats.attempts += 1;
            match self.attempt(line, attempt_timeout) {
                Ok(Attempt::Response(v)) => {
                    let got = v.get("id").and_then(|x| match *x {
                        Json::U64(u) => Some(u),
                        _ => None,
                    });
                    if let (Some(want), Some(got)) = (want_id, got) {
                        if want != got {
                            self.disconnect();
                            self.stats.observed_faults += 1;
                            segdb_obs::net::totals().observed_fault();
                            last = format!("id mismatch: sent {want}, received {got}");
                            continue;
                        }
                    }
                    if v.get("ok") == Some(&Json::Bool(true)) {
                        return Ok(v.get("result").cloned().unwrap_or(Json::Null));
                    }
                    let (ecode, message) = error_fields(&v);
                    match ecode.as_str() {
                        // Back-pressure: the server is alive and asks
                        // us to come back later.
                        code::OVERLOADED | code::TIMEOUT => {
                            last = format!("{ecode}: {message}");
                        }
                        _ => {
                            return Err(CallError::Terminal {
                                code: ecode,
                                message,
                            })
                        }
                    }
                }
                Ok(Attempt::Wire(what)) => {
                    // The connection is unusable (or of unknown state);
                    // never reuse it for the retry.
                    self.disconnect();
                    self.stats.observed_faults += 1;
                    segdb_obs::net::totals().observed_fault();
                    last = what;
                }
                Err(e) => return Err(e),
            }
        }
        Err(CallError::Exhausted {
            attempts: budget,
            last,
        })
    }

    /// One attempt: ensure a connection, send the frame, read one line.
    /// `Ok(Attempt::Wire(_))` means the attempt died at the wire level
    /// (retryable); `Err` is terminal.
    fn attempt(&mut self, line: &str, attempt_timeout: Duration) -> Result<Attempt, CallError> {
        let deadline = Instant::now() + attempt_timeout;
        if self.conn.is_none() {
            match ChaosStream::connect(&self.cfg.addr, attempt_timeout, self.chaos.clone()) {
                Ok(conn) => {
                    if self.ever_connected {
                        self.stats.reconnects += 1;
                        segdb_obs::net::totals().client_reconnect();
                    }
                    self.ever_connected = true;
                    self.conn = Some(conn);
                }
                Err(e) => return Ok(Attempt::Wire(format!("connect: {e}"))),
            }
        }
        let conn = self.conn.as_mut().expect("connection just ensured");
        if let Err(e) = conn.send_frame(line) {
            return Ok(Attempt::Wire(format!("send: {e}")));
        }
        match conn.recv_line(deadline, self.cfg.max_line_bytes) {
            Ok(response) => match json::parse(response.trim_end()) {
                Ok(v) if matches!(v, Json::Obj(_)) => Ok(Attempt::Response(v)),
                _ => Err(CallError::Terminal {
                    code: "malformed".to_string(),
                    message: format!(
                        "response is not a JSON object: {}",
                        &response[..response.len().min(80)]
                    ),
                }),
            },
            Err(e) => Ok(Attempt::Wire(format!("recv: {e}"))),
        }
    }

    /// Sleep `min(cap, base·2^k)`, jittered to 50–100 % of that bound.
    fn backoff(&mut self, k: u32) {
        let base = self.cfg.backoff_base.as_micros() as u64;
        let cap = self.cfg.backoff_cap.as_micros() as u64;
        let bound = base.saturating_mul(1u64 << k.min(20)).min(cap);
        if bound == 0 {
            return;
        }
        let us = bound / 2 + self.rng.gen_range(0..=bound / 2);
        std::thread::sleep(Duration::from_micros(us));
    }

    /// The next correlation id (monotone, starts at `id_base + 1`).
    fn fresh_id(&mut self) -> u64 {
        self.next_id += 1;
        self.cfg.id_base.wrapping_add(self.next_id)
    }

    /// Render a parameterless request stamped with a fresh id.
    fn stamped(&mut self, method: &str) -> String {
        Json::obj([
            ("id", Json::U64(self.fresh_id())),
            ("method", Json::Str(method.to_string())),
        ])
        .render()
    }

    /// Ask the server (or router) at `addr` to shut down gracefully:
    /// one un-retried attempt under a short deadline, so a peer that is
    /// already gone costs half a second, not a retry budget.
    pub fn send_shutdown(addr: &str) -> Result<(), CallError> {
        let mut one_shot = Client::new(ClientConfig {
            addr: addr.to_string(),
            attempt_timeout: Duration::from_millis(500),
            max_retries: 0,
            ..ClientConfig::default()
        });
        one_shot.call_line(r#"{"method":"shutdown"}"#).map(drop)
    }

    /// Convenience: `ping` (answers `true` on a pong).
    pub fn ping(&mut self) -> Result<bool, CallError> {
        let line = self.stamped("ping");
        let r = self.call_line(&line)?;
        Ok(r == Json::Str("pong".to_string()))
    }

    /// Convenience: the server's `stats` document.
    pub fn remote_stats(&mut self) -> Result<Json, CallError> {
        let line = self.stamped("stats");
        self.call_line(&line)
    }

    /// Convenience: the server's slow-query log (the `slowlog` method) —
    /// the K worst requests with per-stage timings and correlation ids.
    pub fn remote_slowlog(&mut self) -> Result<Json, CallError> {
        let line = self.stamped("slowlog");
        self.call_line(&line)
    }

    /// Convenience: the `health` document — a single server reports its
    /// own liveness; a router reports per-shard reachability.
    pub fn remote_health(&mut self) -> Result<Json, CallError> {
        let line = self.stamped("health");
        self.call_line(&line)
    }

    /// [`Client::query_mode`] in collect mode, answering the sorted hit
    /// ids. Kept only because the benchmark package calls it.
    pub fn query_ids(
        &mut self,
        method: &str,
        params: &[(&str, i64)],
    ) -> Result<Vec<u64>, CallError> {
        Ok(self.query_mode(method, params, QueryMode::Collect)?.ids)
    }

    /// Run one query under a [`QueryMode`] and return the mode-shaped
    /// reply: `ids` carries segments only for modes that materialize
    /// them (collect / limit), `count` is always filled. `method` and
    /// `params` are a query's wire form, [`proto::query_wire`].
    pub fn query_mode(
        &mut self,
        method: &str,
        params: &[(&str, i64)],
        mode: QueryMode,
    ) -> Result<QueryReply, CallError> {
        let line = proto::query_request(self.fresh_id(), method, params, mode);
        let result = self.call_line(&line)?;
        let ids = result
            .get("ids")
            .and_then(Json::as_arr)
            .map(|a| {
                a.iter()
                    .filter_map(|x| match *x {
                        Json::U64(u) => Some(u),
                        _ => None,
                    })
                    .collect()
            })
            .ok_or_else(|| CallError::Terminal {
                code: "malformed".to_string(),
                message: "response result carries no `ids` array".to_string(),
            })?;
        let count = result
            .get("count")
            .and_then(|c| match *c {
                Json::U64(u) => Some(u),
                Json::I64(i) => u64::try_from(i).ok(),
                _ => None,
            })
            .ok_or_else(|| CallError::Terminal {
                code: "malformed".to_string(),
                message: "response result carries no `count`".to_string(),
            })?;
        let mode = result
            .get("mode")
            .and_then(Json::as_str)
            .unwrap_or("collect")
            .to_string();
        Ok(QueryReply { ids, count, mode })
    }

    /// Render one write request (`insert` / `delete`) for `seg`, stamped
    /// with a fresh id. The id doubles as the server-side **idempotence
    /// key**: [`Client::call_line`] replays the identical rendered line on
    /// every retry, so a write whose first ack was lost to a wire fault is
    /// answered from the server's dedup window instead of re-applied.
    fn write_line(&mut self, method: &str, seg: &Segment) -> String {
        proto::write_request(self.fresh_id(), method, seg)
    }

    /// Parse a write acknowledgement object.
    fn write_reply(result: &Json) -> Result<WriteReply, CallError> {
        let seq = result.get("seq").and_then(|v| match *v {
            Json::U64(u) => Some(u),
            _ => None,
        });
        let applied = result.get("applied").and_then(|v| match *v {
            Json::Bool(b) => Some(b),
            _ => None,
        });
        match (seq, applied) {
            (Some(seq), Some(applied)) => Ok(WriteReply {
                seq,
                applied,
                duplicate: result.get("duplicate") == Some(&Json::Bool(true)),
            }),
            _ => Err(CallError::Terminal {
                code: "malformed".to_string(),
                message: "write response carries no `seq`/`applied` ack".to_string(),
            }),
        }
    }

    /// Convenience: durably insert `seg` on a writable server.
    ///
    /// Safe to retry — the stamped request id is the idempotence key.
    pub fn insert(&mut self, seg: &Segment) -> Result<WriteReply, CallError> {
        let line = self.write_line("insert", seg);
        let result = self.call_line(&line)?;
        Self::write_reply(&result)
    }

    /// Convenience: durably delete `seg` (exact match) on a writable
    /// server. `applied` is false when no such segment is stored.
    pub fn delete(&mut self, seg: &Segment) -> Result<WriteReply, CallError> {
        let line = self.write_line("delete", seg);
        let result = self.call_line(&line)?;
        Self::write_reply(&result)
    }

    /// Convenience: force a WAL group-commit flush — every previously
    /// acknowledged write is durable once this returns.
    pub fn flush(&mut self) -> Result<(), CallError> {
        let line = self.stamped("flush");
        self.call_line(&line)?;
        Ok(())
    }

    /// Convenience: `wal_since` — the applied WAL records with
    /// `seq > from` from a writable server's catch-up ring (the serving
    /// half of replica catch-up).
    pub fn wal_since(&mut self, from: u64) -> Result<Json, CallError> {
        let line = Json::obj([
            ("id", Json::U64(self.fresh_id())),
            ("method", Json::Str("wal_since".to_string())),
            ("params", Json::obj([("from", Json::U64(from))])),
        ])
        .render();
        self.call_line(&line)
    }

    /// Convenience: `sync_from` — ask a writable server to pull and
    /// apply the records it is missing from `peer` (the pulling half of
    /// replica catch-up). `from` overrides the server's own cursor;
    /// `None` lets it default to its last WAL sequence number.
    pub fn sync_from(&mut self, peer: &str, from: Option<u64>) -> Result<Json, CallError> {
        let mut params = vec![("peer".to_string(), Json::Str(peer.to_string()))];
        if let Some(from) = from {
            params.push(("from".to_string(), Json::U64(from)));
        }
        let line = Json::obj([
            ("id", Json::U64(self.fresh_id())),
            ("method", Json::Str("sync_from".to_string())),
            ("params", Json::Obj(params)),
        ])
        .render();
        self.call_line(&line)
    }
}

/// A write acknowledgement off the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteReply {
    /// WAL sequence number of the logged operation (0 for a no-op
    /// delete miss).
    pub seq: u64,
    /// Whether the operation changed the database.
    pub applied: bool,
    /// True when the server answered from its idempotence window — the
    /// original ack was lost and this is its replay.
    pub duplicate: bool,
}

/// A mode-shaped query reply off the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryReply {
    /// Hit ids, sorted — empty for count/exists modes.
    pub ids: Vec<u64>,
    /// The hit count the answer witnesses (for exists: 0 or 1).
    pub count: u64,
    /// The mode the server says it served.
    pub mode: String,
}

/// The numeric `id` a rendered request line carries, if any.
fn request_id(line: &str) -> Option<u64> {
    json::parse(line.trim())
        .ok()?
        .get("id")
        .and_then(|v| match *v {
            Json::U64(u) => Some(u),
            Json::I64(i) => u64::try_from(i).ok(),
            _ => None,
        })
}

fn error_fields(v: &Json) -> (String, String) {
    let err = v.get("error");
    let code = err
        .and_then(|e| e.get("code"))
        .and_then(Json::as_str)
        .unwrap_or("malformed")
        .to_string();
    let message = err
        .and_then(|e| e.get("message"))
        .and_then(Json::as_str)
        .unwrap_or("")
        .to_string();
    (code, message)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpListener;
    use std::thread;

    /// A scripted one-shot server: each accepted connection pops the
    /// next script entry; `Some(line)` answers every request with that
    /// line, `None` closes the connection after reading one line.
    fn scripted_server(script: Vec<Option<String>>) -> (String, thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let h = thread::spawn(move || {
            for entry in script {
                let Ok((stream, _)) = listener.accept() else {
                    return;
                };
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let mut writer = stream;
                let mut line = String::new();
                loop {
                    line.clear();
                    match reader.read_line(&mut line) {
                        Ok(0) | Err(_) => break,
                        Ok(_) => match &entry {
                            Some(response) => {
                                writer.write_all(response.as_bytes()).unwrap();
                                writer.write_all(b"\n").unwrap();
                            }
                            None => break, // close mid-conversation
                        },
                    }
                }
            }
        });
        (addr, h)
    }

    fn quick_cfg(addr: &str) -> ClientConfig {
        ClientConfig {
            addr: addr.to_string(),
            attempt_timeout: Duration::from_secs(2),
            max_retries: 4,
            backoff_base: Duration::from_micros(100),
            backoff_cap: Duration::from_millis(2),
            ..ClientConfig::default()
        }
    }

    #[test]
    fn retries_reconnect_after_a_dropped_connection() {
        let ok = r#"{"id":null,"ok":true,"result":"pong"}"#.to_string();
        let (addr, h) = scripted_server(vec![None, Some(ok)]);
        let mut client = Client::new(quick_cfg(&addr));
        assert!(client.ping().unwrap());
        let s = client.stats();
        assert_eq!(s.retries, 1, "{s:?}");
        assert_eq!(s.reconnects, 1, "{s:?}");
        assert_eq!(s.observed_faults, 1, "{s:?}");
        drop(client);
        h.join().unwrap();
    }

    #[test]
    fn overloaded_is_retried_until_the_budget_runs_out() {
        let busy =
            r#"{"id":null,"ok":false,"error":{"code":"overloaded","message":"full"}}"#.to_string();
        let (addr, h) = scripted_server(vec![Some(busy)]);
        let mut client = Client::new(quick_cfg(&addr));
        let err = client.ping().unwrap_err();
        let CallError::Exhausted { attempts, last } = &err else {
            panic!("expected exhaustion, got {err:?}");
        };
        assert_eq!(*attempts, 5);
        assert!(last.starts_with("overloaded"), "{last}");
        assert_eq!(err.code(), code::OVERLOADED);
        assert_eq!(client.stats().retries, 4);
        client.disconnect();
        h.join().unwrap();
    }

    #[test]
    fn terminal_errors_fail_fast() {
        let bad =
            r#"{"id":null,"ok":false,"error":{"code":"bad_request","message":"nope"}}"#.to_string();
        let io_err =
            r#"{"id":null,"ok":false,"error":{"code":"io_error","message":"disk"}}"#.to_string();
        let (addr, h) = scripted_server(vec![Some(bad), Some(io_err)]);
        let mut client = Client::new(quick_cfg(&addr));
        let err = client.ping().unwrap_err();
        assert!(
            matches!(&err, CallError::Terminal { code, .. } if code == "bad_request"),
            "{err:?}"
        );
        assert_eq!(client.stats().retries, 0, "terminal outcomes never retry");
        // The storage-fault code is terminal by policy too.
        client.disconnect();
        let err = client.ping().unwrap_err();
        assert!(
            matches!(&err, CallError::Terminal { code, .. } if code == "io_error"),
            "{err:?}"
        );
        client.disconnect();
        h.join().unwrap();
    }

    #[test]
    fn mismatched_response_id_is_a_wire_fault() {
        // Every scripted connection answers with a foreign id; the
        // client must refuse each one and exhaust its budget.
        let stale = r#"{"id":999,"ok":true,"result":"pong"}"#.to_string();
        let (addr, h) = scripted_server(vec![Some(stale); 5]);
        let mut client = Client::new(quick_cfg(&addr));
        let err = client.ping().unwrap_err();
        let CallError::Exhausted { attempts, last } = &err else {
            panic!("expected exhaustion, got {err:?}");
        };
        assert_eq!(*attempts, 5);
        assert!(last.contains("id mismatch"), "{last}");
        assert_eq!(client.stats().observed_faults, 5);
        drop(client);
        h.join().unwrap();
    }

    #[test]
    fn matching_response_id_passes_the_echo_check() {
        // The first stamped request of a fresh client carries id 1.
        let ok = r#"{"id":1,"ok":true,"result":"pong"}"#.to_string();
        let (addr, h) = scripted_server(vec![Some(ok)]);
        let mut client = Client::new(quick_cfg(&addr));
        assert!(client.ping().unwrap());
        assert_eq!(client.stats().retries, 0);
        drop(client);
        h.join().unwrap();
    }

    #[test]
    fn malformed_response_is_terminal() {
        let (addr, h) = scripted_server(vec![Some("not json".to_string())]);
        let mut client = Client::new(quick_cfg(&addr));
        let err = client.ping().unwrap_err();
        assert!(
            matches!(&err, CallError::Terminal { code, .. } if code == "malformed"),
            "{err:?}"
        );
        client.disconnect();
        h.join().unwrap();
    }

    #[test]
    fn connect_failure_exhausts_with_io_code() {
        // A bound-then-dropped listener leaves a port nothing listens on.
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        let mut client = Client::new(ClientConfig {
            max_retries: 2,
            attempt_timeout: Duration::from_millis(300),
            ..quick_cfg(&addr)
        });
        let err = client.ping().unwrap_err();
        assert!(
            matches!(err, CallError::Exhausted { attempts: 3, .. }),
            "{err:?}"
        );
        assert_eq!(err.code(), "io");
        assert_eq!(client.stats().observed_faults, 3);
    }

    #[test]
    fn backoff_is_deterministic_per_seed_and_bounded() {
        let mut a = Client::new(ClientConfig {
            jitter_seed: 9,
            ..ClientConfig::default()
        });
        let mut b = Client::new(ClientConfig {
            jitter_seed: 9,
            ..ClientConfig::default()
        });
        // Same seed → the jitter RNG streams match.
        for _ in 0..16 {
            assert_eq!(a.rng.next_u64(), b.rng.next_u64());
        }
        // The pause bound never exceeds the cap.
        let cfg = ClientConfig::default();
        let cap = cfg.backoff_cap.as_micros() as u64;
        let base = cfg.backoff_base.as_micros() as u64;
        for k in 0..40u32 {
            let bound = base.saturating_mul(1u64 << k.min(20)).min(cap);
            assert!(bound <= cap);
        }
    }
}
