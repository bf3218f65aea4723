//! Closed-loop load driver for the serving layer.
//!
//! `K` connection threads each replay their share of a deterministic
//! query workload (same generators and seeds as the benchmarks), wait
//! for every reply before sending the next request (closed loop), check
//! answers against the in-process [`scan_oracle`], and record wall-clock
//! latency in a power-of-two-microsecond [`Histogram`]. Per-connection
//! histograms are folded with [`Histogram::merge`] into one fleet-wide
//! distribution; `BENCH_serve.json` (written by the `segdb-load` binary)
//! reports throughput and p50/p95/p99 bounds from it.
//!
//! Verification assumes the server serves the set
//! `family.generate(n, seed)` built with the default (vertical)
//! direction — exactly what `segdb-cli gen … | segdb-cli build …`
//! followed by `segdb-cli serve …` produces with the same parameters.
//!
//! With `--write-pct P`, `P` % of the slots become writes against a
//! writable server — inserts of fresh segments above the set's bounding
//! box and deletes of distinct stored segments, so the schedule
//! **commutes**: any interleaving across connections reaches the same
//! final set. In-flight verification is off in mixed runs; instead a
//! post-run sweep checks collect queries against the **shadow model**
//! (`base − acked deletes + acked inserts`) and the report carries
//! per-op-kind latency histograms (query / insert / delete).
//!
//! Requests travel through the resilient [`Client`]: a transient
//! failure (wire disruption, `overloaded`, `timeout`) is retried within
//! the budget, and a request that still fails is *recorded and skipped*
//! — the connection's remaining script keeps replaying, so merged
//! histograms stay comparable across runs instead of losing a whole
//! connection's share to one bad connect. With `--chaos SEED` each
//! connection's traffic passes through its own armed [`NetFaultPlan`]
//! (seeded `SEED + connection`), and the report carries the
//! order-independent XOR of the per-connection trace digests — two runs
//! with identical parameters must print the identical digest.

use crate::chaos::{NetFaultHandle, NetFaultPlan, NetFaultStats};
use crate::client::{Client, ClientConfig};
use crate::proto::{self, code};
use segdb_core::QueryMode;
use segdb_geom::gen::{vertical_queries, Family};
use segdb_geom::query::scan_oracle;
use segdb_geom::{Segment, VerticalQuery};
use segdb_obs::{Histogram, Json};
use segdb_rng::SmallRng;
use std::io;
use std::thread;
use std::time::{Duration, Instant};

/// Query height as a fraction of the set's y-span, per mille — the
/// benchmark default, keeping expected output sizes moderate.
const QUERY_FRAC_PER_MILLE: u32 = 120;

/// Seed perturbation separating the query stream from the segment set.
const QUERY_SEED_SALT: u64 = 0x9E37_79B9;

/// Seed perturbation for the write/query coin flips of a mixed run.
const WRITE_SEED_SALT: u64 = 0x517C_C1B7_2722_0A95;

/// Seed perturbation for the post-run verification sweep.
const SWEEP_SEED_SALT: u64 = 0x2545_F491_4F6C_DD1D;

/// Verification queries swept after a mixed read/write run.
const SWEEP_QUERIES: usize = 32;

/// Id space for segments a mixed run inserts — far above anything the
/// workload generators assign, so shadow-set bookkeeping is by id.
const INSERT_ID_BASE: u64 = 1 << 40;

/// Which query mode the load replays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModeSpec {
    /// Every request uses this one mode.
    Fixed(QueryMode),
    /// Cycle collect → count → exists → limit(8), request by request.
    Mix,
}

impl Default for ModeSpec {
    fn default() -> Self {
        ModeSpec::Fixed(QueryMode::Collect)
    }
}

/// Parse `collect`, `count`, `exists`, `limit:K` or `mix`.
pub fn parse_mode(s: &str) -> Option<ModeSpec> {
    match s {
        "mix" => Some(ModeSpec::Mix),
        "collect" => Some(ModeSpec::Fixed(QueryMode::Collect)),
        "count" => Some(ModeSpec::Fixed(QueryMode::Count)),
        "exists" => Some(ModeSpec::Fixed(QueryMode::Exists)),
        _ => {
            let k = s.strip_prefix("limit:")?.parse().ok()?;
            Some(ModeSpec::Fixed(QueryMode::Limit(k)))
        }
    }
}

impl ModeSpec {
    /// The mode request `i` runs under.
    fn mode_for(self, i: usize) -> QueryMode {
        match self {
            ModeSpec::Fixed(m) => m,
            ModeSpec::Mix => match i % 4 {
                0 => QueryMode::Collect,
                1 => QueryMode::Count,
                2 => QueryMode::Exists,
                _ => QueryMode::Limit(8),
            },
        }
    }

    /// Short name for the report.
    pub fn name(self) -> String {
        match self {
            ModeSpec::Mix => "mix".to_string(),
            ModeSpec::Fixed(QueryMode::Limit(k)) => format!("limit:{k}"),
            ModeSpec::Fixed(m) => m.name().to_string(),
        }
    }
}

/// What to replay and against which server.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Server address, e.g. `127.0.0.1:7878`.
    pub addr: String,
    /// Concurrent closed-loop connections.
    pub connections: usize,
    /// Total requests across all connections.
    pub requests: usize,
    /// Workload family the served database was built from.
    pub family: Family,
    /// Segment count the served database was built with.
    pub n: usize,
    /// Seed the served database was built with.
    pub seed: u64,
    /// Check every answer against the local scan oracle.
    pub verify: bool,
    /// Send a `shutdown` request once the run completes.
    pub shutdown_after: bool,
    /// Arm a wire-fault schedule on every connection (connection `c`
    /// uses the plan reseeded to `plan.seed + c`).
    pub chaos_plan: Option<NetFaultPlan>,
    /// Retry budget per request beyond the first attempt.
    pub max_retries: u32,
    /// Deadline per attempt (connect + send + receive).
    pub attempt_timeout: Duration,
    /// Query mode the requests run under (fixed or mixed).
    pub mode: ModeSpec,
    /// Percentage (0–100) of requests that are writes; the server must
    /// be writable when this is non-zero. Writes split evenly between
    /// inserts of fresh segments and deletes of distinct stored ones,
    /// so any interleaving across connections commutes to the same
    /// final set — which the post-run shadow-model sweep verifies.
    pub write_pct: u32,
    /// The address is a scatter-gather router: lift its per-shard
    /// upstream tallies and latency histograms (the `stats` reply's
    /// `router` block) into the report's `cluster` block.
    pub cluster: bool,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            addr: "127.0.0.1:7878".to_string(),
            connections: 4,
            requests: 400,
            family: Family::Mixed,
            n: 2000,
            seed: 42,
            verify: true,
            shutdown_after: false,
            chaos_plan: None,
            max_retries: 16,
            attempt_timeout: Duration::from_secs(2),
            mode: ModeSpec::default(),
            write_pct: 0,
            cluster: false,
        }
    }
}

/// Resolve a family by its short benchmark name (`mixed`, `grid`, …).
pub fn parse_family(name: &str) -> Option<Family> {
    Family::ALL.into_iter().find(|f| f.name() == name)
}

/// What one prepared request does, and the payload run bookkeeping
/// needs to reconstruct the shadow model afterwards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReqKind {
    /// A read — one of the four generalized-segment query shapes.
    Query,
    /// Insert this (workload-fresh) segment.
    Insert(Segment),
    /// Delete this (distinct, stored) segment.
    Delete(Segment),
}

/// One prepared request: the wire line, the oracle's answer and the
/// mode the reply is checked under.
#[derive(Debug, Clone)]
pub struct PreparedRequest {
    /// Request line (no trailing newline).
    pub line: String,
    /// Sorted segment ids the full answer contains (mode-aware
    /// verification derives the expected count / existence / limit
    /// prefix from it). Empty for writes and for mixed read/write runs,
    /// whose reads are verified by the post-run sweep instead.
    pub expected: Vec<u64>,
    /// Mode the request runs under (queries only).
    pub mode: QueryMode,
    /// Read or write, with the write payload.
    pub kind: ReqKind,
}

/// Mode-aware answer check: collect wants the ids exactly; count wants
/// the full cardinality; exists wants the bit; limit wants
/// `min(k, t)` ids, every one a member of the full answer.
pub fn verify_reply(mode: QueryMode, ids: &[u64], count: u64, expected: &[u64]) -> bool {
    match mode {
        QueryMode::Collect => ids == expected && count == expected.len() as u64,
        QueryMode::Count => count == expected.len() as u64,
        QueryMode::Exists => (count > 0) != expected.is_empty(),
        QueryMode::Limit(k) => {
            ids.len() as u64 == (k as u64).min(expected.len() as u64)
                && count == ids.len() as u64
                && ids.iter().all(|id| expected.binary_search(id).is_ok())
        }
    }
}

/// Latency histogram in microseconds: power-of-two bounds from 1 µs to
/// ~16.8 s, plus overflow — the same bucket scheme the server's
/// lifecycle histograms use, so the two distributions compare directly.
pub fn latency_histogram() -> Histogram {
    Histogram::latency_us()
}

/// Query `i` of a stream cycling through the four generalized-segment
/// shapes, cut from the bounded query `q` (the database is vertical, so
/// the canonical form doubles as the user query and the oracle's).
pub fn cycle_shape(i: usize, q: &VerticalQuery) -> VerticalQuery {
    let VerticalQuery::Segment { x, lo, hi } = *q else {
        unreachable!("vertical_queries yields bounded segments")
    };
    match i % 4 {
        0 => VerticalQuery::Line { x },
        1 => VerticalQuery::RayUp { x, y0: lo },
        2 => VerticalQuery::RayDown { x, y0: hi },
        _ => *q,
    }
}

/// Deterministically expand the config into the request stream, cycling
/// through all four generalized-segment shapes, with oracle answers.
///
/// With `write_pct > 0`, a seeded coin turns that share of the slots
/// into writes, split between inserts and deletes. The writes are built
/// to **commute**: every insert is a fresh horizontal segment strictly
/// above the base set's bounding box (distinct `y` per insert — nothing
/// to cross), and every delete targets a distinct stored segment, so
/// whatever order `K` connections land them in, the final set is the
/// same shadow model the post-run sweep checks. In-flight query
/// verification is off in mixed runs (answers legitimately depend on
/// the interleaving); `expected` stays empty.
pub fn build_requests(cfg: &LoadConfig) -> Vec<PreparedRequest> {
    let set = cfg.family.generate(cfg.n, cfg.seed);
    let queries = vertical_queries(
        &set,
        cfg.requests,
        QUERY_FRAC_PER_MILLE,
        cfg.seed ^ QUERY_SEED_SALT,
    );
    let write_pct = u64::from(cfg.write_pct.min(100));
    let mut rng = SmallRng::seed_from_u64(cfg.seed ^ WRITE_SEED_SALT);
    let (mut x_lo, mut x_hi, mut y_top) = (i64::MAX, i64::MIN, i64::MIN);
    for s in &set {
        x_lo = x_lo.min(s.a.x);
        x_hi = x_hi.max(s.b.x);
        y_top = y_top.max(s.a.y).max(s.b.y);
    }
    if x_lo >= x_hi {
        x_hi = x_lo + 1;
    }
    let mut fresh = 0u64;
    let mut next_delete = 0usize;
    queries
        .iter()
        .enumerate()
        .map(|(i, q)| {
            if write_pct > 0 && rng.gen_range(0..100) < write_pct {
                let delete = rng.gen_range(0..2) == 0 && next_delete < set.len();
                let (method, seg) = if delete {
                    let seg = set[next_delete];
                    next_delete += 1;
                    ("delete", seg)
                } else {
                    fresh += 1;
                    let y = y_top + fresh as i64;
                    let seg = Segment::new(INSERT_ID_BASE + fresh, (x_lo, y), (x_hi, y))
                        .expect("fresh insert segment above the bounding box is valid");
                    ("insert", seg)
                };
                return PreparedRequest {
                    line: proto::write_request(i as u64, method, &seg),
                    expected: Vec::new(),
                    mode: QueryMode::Collect,
                    kind: if delete {
                        ReqKind::Delete(seg)
                    } else {
                        ReqKind::Insert(seg)
                    },
                };
            }
            let oracle = cycle_shape(i, q);
            let (method, params) = proto::query_wire(&oracle.into());
            let mode = cfg.mode.mode_for(i);
            let line = proto::query_request(i as u64, method, &params, mode);
            let mut expected: Vec<u64> = if write_pct > 0 {
                Vec::new()
            } else {
                scan_oracle(&set, &oracle).iter().map(|s| s.id).collect()
            };
            expected.sort_unstable();
            PreparedRequest {
                line,
                expected,
                mode,
                kind: ReqKind::Query,
            }
        })
        .collect()
}

/// Aggregated outcome of a load run.
#[derive(Debug)]
pub struct LoadReport {
    /// Requests sent (and answered — the loop is closed).
    pub sent: u64,
    /// Well-formed `ok` responses.
    pub ok: u64,
    /// `ok` responses whose ids disagreed with the oracle.
    pub wrong: u64,
    /// Error responses of any kind.
    pub errors: u64,
    /// Errors with code `degraded` — a routed cluster admitting that
    /// every replica of some shard was unreachable. A replicated
    /// cluster surviving a replica kill must keep this at zero.
    pub degraded: u64,
    /// Errors with code `overloaded`.
    pub overloaded: u64,
    /// Errors with code `timeout`.
    pub timeouts: u64,
    /// Requests whose retry budget drowned in wire-level failures
    /// (never earning a server verdict).
    pub io_failed: u64,
    /// Client retries across all requests.
    pub retries: u64,
    /// Client reconnects after dead connections.
    pub reconnects: u64,
    /// Wire disruptions the clients observed (and survived).
    pub observed_faults: u64,
    /// Injected-fault counters summed over all connection schedules.
    pub injected: NetFaultStats,
    /// XOR of the per-connection fault-trace digests (zero without
    /// chaos); replay-stable for identical parameters.
    pub trace_digest: u64,
    /// Wall-clock duration of the whole run.
    pub elapsed: Duration,
    /// Per-request round-trip latency in microseconds, all connections
    /// merged.
    pub latency: Histogram,
    /// Round-trip latency of the queries alone (mixed runs).
    pub query_latency: Histogram,
    /// Round-trip latency of the inserts alone (mixed runs).
    pub insert_latency: Histogram,
    /// Round-trip latency of the deletes alone (mixed runs).
    pub delete_latency: Histogram,
    /// Writes the server acknowledged as applied.
    pub write_acked: u64,
    /// Write acks answered from the server's idempotence window — the
    /// original reply was lost to a wire fault and this is its replay.
    pub write_duplicates: u64,
    /// Writes that failed terminally or exhausted their retry budget.
    pub write_failed: u64,
    /// Applied inserts, for the post-run shadow model.
    pub acked_inserts: Vec<Segment>,
    /// Applied deletes, for the post-run shadow model.
    pub acked_deletes: Vec<Segment>,
    /// Post-run sweep queries checked against the shadow model.
    pub sweep_checked: u64,
    /// Sweep queries whose answer disagreed with the shadow model.
    pub sweep_wrong: u64,
    /// The server's own view of the run: counter deltas of the `stats`
    /// reply's `io`/`server` blocks (after − before), plus its
    /// cumulative `latency`/`pages` quantile blocks. `None` when either
    /// probe failed (e.g. the server was unreachable at snapshot time).
    pub server: Option<Json>,
    /// On `--cluster` runs: the router's `router` stats block — one
    /// entry per shard with upstream call tallies and the round-trip
    /// latency histogram. `None` off-cluster or when the probe failed.
    pub cluster: Option<Json>,
}

impl LoadReport {
    fn empty() -> LoadReport {
        LoadReport {
            sent: 0,
            ok: 0,
            wrong: 0,
            errors: 0,
            degraded: 0,
            overloaded: 0,
            timeouts: 0,
            io_failed: 0,
            retries: 0,
            reconnects: 0,
            observed_faults: 0,
            injected: NetFaultStats::default(),
            trace_digest: 0,
            elapsed: Duration::ZERO,
            latency: latency_histogram(),
            query_latency: latency_histogram(),
            insert_latency: latency_histogram(),
            delete_latency: latency_histogram(),
            write_acked: 0,
            write_duplicates: 0,
            write_failed: 0,
            acked_inserts: Vec::new(),
            acked_deletes: Vec::new(),
            sweep_checked: 0,
            sweep_wrong: 0,
            server: None,
            cluster: None,
        }
    }

    fn fold(&mut self, t: &LoadReport) {
        self.sent += t.sent;
        self.ok += t.ok;
        self.wrong += t.wrong;
        self.errors += t.errors;
        self.degraded += t.degraded;
        self.overloaded += t.overloaded;
        self.timeouts += t.timeouts;
        self.io_failed += t.io_failed;
        self.retries += t.retries;
        self.reconnects += t.reconnects;
        self.observed_faults += t.observed_faults;
        self.injected.connect_resets += t.injected.connect_resets;
        self.injected.accept_resets += t.injected.accept_resets;
        self.injected.send_errors += t.injected.send_errors;
        self.injected.truncated_sends += t.injected.truncated_sends;
        self.injected.recv_errors += t.injected.recv_errors;
        self.injected.disconnects += t.injected.disconnects;
        self.injected.latencies += t.injected.latencies;
        self.injected.trickles += t.injected.trickles;
        self.trace_digest ^= t.trace_digest;
        self.latency.merge(&t.latency);
        self.query_latency.merge(&t.query_latency);
        self.insert_latency.merge(&t.insert_latency);
        self.delete_latency.merge(&t.delete_latency);
        self.write_acked += t.write_acked;
        self.write_duplicates += t.write_duplicates;
        self.write_failed += t.write_failed;
        self.acked_inserts.extend_from_slice(&t.acked_inserts);
        self.acked_deletes.extend_from_slice(&t.acked_deletes);
        self.sweep_checked += t.sweep_checked;
        self.sweep_wrong += t.sweep_wrong;
    }

    /// Requests per second over the whole run.
    pub fn throughput_rps(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.sent as f64 / secs
        }
    }

    /// The benchmark-report JSON written to `BENCH_serve.json`.
    pub fn to_json(&self, cfg: &LoadConfig) -> Json {
        let quantiles = |h: &Histogram| {
            Json::obj([
                ("p50", Json::U64(h.quantile_bound(0.50))),
                ("p95", Json::U64(h.quantile_bound(0.95))),
                ("p99", Json::U64(h.quantile_bound(0.99))),
                ("mean", Json::F64(h.mean())),
                ("max", Json::U64(h.max())),
            ])
        };
        // The write blocks appear only on mixed runs, so the bench gate
        // can require them on both sides of a write-vs-write diff and
        // skip them on read-only diffs.
        let mut writes = Vec::new();
        if cfg.write_pct > 0 {
            let mut merged = latency_histogram();
            merged.merge(&self.insert_latency);
            merged.merge(&self.delete_latency);
            writes.push((
                "writes".to_string(),
                Json::obj([
                    ("write_pct", Json::U64(u64::from(cfg.write_pct))),
                    ("acked", Json::U64(self.write_acked)),
                    ("duplicates", Json::U64(self.write_duplicates)),
                    ("failed", Json::U64(self.write_failed)),
                    ("acked_inserts", Json::U64(self.acked_inserts.len() as u64)),
                    ("acked_deletes", Json::U64(self.acked_deletes.len() as u64)),
                    ("sweep_checked", Json::U64(self.sweep_checked)),
                    ("sweep_wrong", Json::U64(self.sweep_wrong)),
                ]),
            ));
            writes.push(("write_latency_us".to_string(), quantiles(&merged)));
            writes.push((
                "query_latency_us".to_string(),
                quantiles(&self.query_latency),
            ));
            writes.push((
                "insert_latency_us".to_string(),
                quantiles(&self.insert_latency),
            ));
            writes.push((
                "delete_latency_us".to_string(),
                quantiles(&self.delete_latency),
            ));
        }
        if cfg.cluster {
            writes.push((
                "cluster".to_string(),
                self.cluster.clone().unwrap_or(Json::Null),
            ));
        }
        let mut doc = Json::obj([
            ("experiment", Json::Str("serve".to_string())),
            ("family", Json::Str(cfg.family.name().to_string())),
            ("segments", Json::U64(cfg.n as u64)),
            ("seed", Json::U64(cfg.seed)),
            ("connections", Json::U64(cfg.connections as u64)),
            ("mode", Json::Str(cfg.mode.name())),
            ("write_pct", Json::U64(u64::from(cfg.write_pct))),
            ("verify", Json::Bool(cfg.verify)),
            ("requests", Json::U64(self.sent)),
            ("ok", Json::U64(self.ok)),
            ("wrong", Json::U64(self.wrong)),
            ("errors", Json::U64(self.errors)),
            ("degraded", Json::U64(self.degraded)),
            ("overloaded", Json::U64(self.overloaded)),
            ("timeouts", Json::U64(self.timeouts)),
            ("io_failed", Json::U64(self.io_failed)),
            ("retries", Json::U64(self.retries)),
            ("reconnects", Json::U64(self.reconnects)),
            (
                "net",
                Json::obj([
                    ("chaos", Json::Bool(cfg.chaos_plan.is_some())),
                    (
                        "trace_digest",
                        Json::Str(format!("{:016x}", self.trace_digest)),
                    ),
                    ("injected_disruptive", Json::U64(self.injected.disruptive())),
                    ("injected_total", Json::U64(self.injected.total())),
                    ("observed_faults", Json::U64(self.observed_faults)),
                    (
                        "injected_matches_observed",
                        Json::Bool(self.injected.disruptive() == self.observed_faults),
                    ),
                ]),
            ),
            ("elapsed_s", Json::F64(self.elapsed.as_secs_f64())),
            ("throughput_rps", Json::F64(self.throughput_rps())),
            (
                "latency_us",
                Json::obj([
                    ("p50", Json::U64(self.latency.quantile_bound(0.50))),
                    ("p95", Json::U64(self.latency.quantile_bound(0.95))),
                    ("p99", Json::U64(self.latency.quantile_bound(0.99))),
                    ("mean", Json::F64(self.latency.mean())),
                    ("max", Json::U64(self.latency.max())),
                    ("histogram", self.latency.to_json()),
                ]),
            ),
            ("server", self.server.clone().unwrap_or(Json::Null)),
        ]);
        if let Json::Obj(fields) = &mut doc {
            // Splice the write blocks in before the trailing `server`
            // snapshot so related top-level metrics stay adjacent.
            let at = fields.len() - 1;
            fields.splice(at..at, writes);
        }
        doc
    }
}

/// Numeric delta of two stats snapshots: every key carrying a `U64` in
/// both trees yields `after − before` (saturating); nested objects
/// recurse; anything else is dropped. Monotone server counters make
/// the saturation purely defensive.
pub fn stats_delta(before: &Json, after: &Json) -> Json {
    let Json::Obj(fields) = after else {
        return Json::Obj(Vec::new());
    };
    Json::Obj(
        fields
            .iter()
            .filter_map(|(k, a)| {
                let b = before.get(k)?;
                match (b, a) {
                    (Json::U64(b), Json::U64(a)) => {
                        Some((k.clone(), Json::U64(a.saturating_sub(*b))))
                    }
                    (Json::Obj(_), Json::Obj(_)) => Some((k.clone(), stats_delta(b, a))),
                    _ => None,
                }
            })
            .collect(),
    )
}

/// The report's `server` block from two `stats` snapshots bracketing
/// the run: `io` and `server` counters as deltas (what the run itself
/// cost), `latency` and `pages` verbatim from the *after* snapshot
/// (quantile summaries cannot be subtracted; they are cumulative since
/// server start).
fn server_block(before: &Json, after: &Json) -> Json {
    let sub = |k: &str| -> (Json, Json) {
        (
            before.get(k).cloned().unwrap_or(Json::Null),
            after.get(k).cloned().unwrap_or(Json::Null),
        )
    };
    let (io_b, io_a) = sub("io");
    let (srv_b, srv_a) = sub("server");
    Json::obj([
        ("io", stats_delta(&io_b, &io_a)),
        ("server", stats_delta(&srv_b, &srv_a)),
        (
            "latency",
            after.get("latency").cloned().unwrap_or(Json::Null),
        ),
        ("pages", after.get("pages").cloned().unwrap_or(Json::Null)),
    ])
}

/// Replay `work` through one resilient client. A request that fails
/// even after retries is recorded and *skipped* — one bad connect or a
/// burst of refusals must not void the connection's remaining script,
/// or merged histograms would silently lose that connection's share.
fn run_connection(
    cfg: ClientConfig,
    chaos: Option<NetFaultHandle>,
    work: &[PreparedRequest],
    verify: bool,
) -> LoadReport {
    let mut tally = LoadReport::empty();
    let mut client = match &chaos {
        Some(handle) => Client::with_chaos(cfg, handle.clone()),
        None => Client::new(cfg),
    };
    for request in work {
        let t0 = Instant::now();
        let outcome = client.call_line(&request.line);
        let us = u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX);
        tally.latency.observe(us);
        match request.kind {
            ReqKind::Query => tally.query_latency.observe(us),
            ReqKind::Insert(_) => tally.insert_latency.observe(us),
            ReqKind::Delete(_) => tally.delete_latency.observe(us),
        }
        tally.sent += 1;
        match outcome {
            Ok(result) => {
                tally.ok += 1;
                match request.kind {
                    ReqKind::Query if verify => {
                        let got: Option<Vec<u64>> =
                            result.get("ids").and_then(Json::as_arr).map(|a| {
                                a.iter()
                                    .filter_map(|x| match *x {
                                        Json::U64(u) => Some(u),
                                        _ => None,
                                    })
                                    .collect()
                            });
                        let count = result.get("count").and_then(|c| match *c {
                            Json::U64(u) => Some(u),
                            _ => None,
                        });
                        let correct = match (got, count) {
                            (Some(ids), Some(count)) => {
                                verify_reply(request.mode, &ids, count, &request.expected)
                            }
                            _ => false,
                        };
                        if !correct {
                            tally.wrong += 1;
                        }
                    }
                    ReqKind::Query => {}
                    ReqKind::Insert(seg) | ReqKind::Delete(seg) => {
                        let applied = result.get("applied") == Some(&Json::Bool(true));
                        if result.get("duplicate") == Some(&Json::Bool(true)) {
                            tally.write_duplicates += 1;
                        }
                        if applied {
                            tally.write_acked += 1;
                            match request.kind {
                                ReqKind::Insert(_) => tally.acked_inserts.push(seg),
                                _ => tally.acked_deletes.push(seg),
                            }
                        }
                    }
                }
            }
            Err(e) => {
                tally.errors += 1;
                if !matches!(request.kind, ReqKind::Query) {
                    tally.write_failed += 1;
                }
                match e.code() {
                    code::DEGRADED => tally.degraded += 1,
                    code::OVERLOADED => tally.overloaded += 1,
                    code::TIMEOUT => tally.timeouts += 1,
                    "io" => tally.io_failed += 1,
                    _ => {}
                }
            }
        }
    }
    let stats = client.stats();
    tally.retries = stats.retries;
    tally.reconnects = stats.reconnects;
    tally.observed_faults = stats.observed_faults;
    if let Some(handle) = &chaos {
        tally.injected = handle.stats();
        tally.trace_digest = handle.digest();
    }
    tally
}

/// Post-run verification for mixed read/write runs, against the
/// **shadow model**: because the schedule's writes commute, the served
/// set must now equal `base − acked deletes + acked inserts` no matter
/// how the connections' writes interleaved. Flushes (so every acked
/// write is also durable), then sweeps [`SWEEP_QUERIES`] collect-mode
/// queries and compares each answer with the scan oracle over the
/// shadow set.
fn sweep_shadow(cfg: &LoadConfig, report: &mut LoadReport) {
    let mut shadow = cfg.family.generate(cfg.n, cfg.seed);
    let dead: std::collections::HashSet<u64> = report.acked_deletes.iter().map(|s| s.id).collect();
    shadow.retain(|s| !dead.contains(&s.id));
    shadow.extend_from_slice(&report.acked_inserts);
    let sweeps = vertical_queries(
        &shadow,
        SWEEP_QUERIES,
        QUERY_FRAC_PER_MILLE,
        cfg.seed ^ SWEEP_SEED_SALT,
    );
    let mut client = Client::new(ClientConfig {
        addr: cfg.addr.clone(),
        attempt_timeout: cfg.attempt_timeout,
        max_retries: cfg.max_retries,
        ..ClientConfig::default()
    });
    let _ = client.flush();
    for (i, q) in sweeps.iter().enumerate() {
        let oracle = cycle_shape(i, q);
        let (method, params) = proto::query_wire(&oracle.into());
        let mut expect: Vec<u64> = scan_oracle(&shadow, &oracle).iter().map(|s| s.id).collect();
        expect.sort_unstable();
        report.sweep_checked += 1;
        match client.query_mode(method, &params, QueryMode::Collect) {
            Ok(reply) if reply.ids == expect => {}
            _ => report.sweep_wrong += 1,
        }
    }
}

/// Best-effort `stats` snapshot through a short-budget plain client
/// (no chaos — the probe must see the server, not the fault schedule).
fn probe_stats(cfg: &LoadConfig) -> Option<Json> {
    let mut client = Client::new(ClientConfig {
        addr: cfg.addr.clone(),
        attempt_timeout: cfg.attempt_timeout,
        max_retries: 2,
        ..ClientConfig::default()
    });
    client.remote_stats().ok()
}

/// Run the closed-loop load: `connections` threads replay the prepared
/// request stream round-robin and the tallies are merged. Two `stats`
/// probes bracket the run to fill [`LoadReport::server`].
pub fn run_load(cfg: &LoadConfig) -> io::Result<LoadReport> {
    let work = build_requests(cfg);
    let connections = cfg.connections.max(1);
    let stats_before = probe_stats(cfg);
    let t0 = Instant::now();
    let handles: Vec<_> = (0..connections)
        .map(|c| {
            let mine: Vec<PreparedRequest> =
                work.iter().skip(c).step_by(connections).cloned().collect();
            let client_cfg = ClientConfig {
                addr: cfg.addr.clone(),
                attempt_timeout: cfg.attempt_timeout,
                max_retries: cfg.max_retries,
                // Distinct jitter per connection so synchronized
                // retries don't stampede (still seed-deterministic).
                jitter_seed: cfg.seed ^ (c as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                ..ClientConfig::default()
            };
            // Each connection owns its schedule: chaos draws depend only
            // on this thread's own request sequence, so the trace (and
            // the XOR-merged digest) replays bit-identically.
            let chaos = cfg.chaos_plan.map(|plan| {
                let handle = NetFaultHandle::new(plan);
                handle.arm(NetFaultPlan {
                    seed: plan.seed.wrapping_add(c as u64),
                    ..plan
                });
                handle
            });
            // In-flight answers are nondeterministic while writes
            // interleave; mixed runs verify via the post-run sweep.
            let verify = cfg.verify && cfg.write_pct == 0;
            thread::spawn(move || run_connection(client_cfg, chaos, &mine, verify))
        })
        .collect();
    let mut report = LoadReport::empty();
    for h in handles {
        let tally = h
            .join()
            .map_err(|_| io::Error::other("load connection thread panicked"))?;
        report.fold(&tally);
    }
    report.elapsed = t0.elapsed();
    if cfg.write_pct > 0 && cfg.verify {
        sweep_shadow(cfg, &mut report);
    }
    let stats_after = probe_stats(cfg);
    report.server = match (&stats_before, &stats_after) {
        (Some(before), Some(after)) => Some(server_block(before, after)),
        _ => None,
    };
    if cfg.cluster {
        // The router's per-shard upstream tallies are cumulative over
        // its lifetime; the after-snapshot is the run's view.
        report.cluster = stats_after.as_ref().and_then(|s| s.get("router").cloned());
    }
    if cfg.shutdown_after {
        Client::send_shutdown(&cfg.addr).map_err(|e| io::Error::other(e.to_string()))?;
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_stream_is_deterministic_and_cycles_shapes() {
        let cfg = LoadConfig {
            requests: 8,
            n: 200,
            ..LoadConfig::default()
        };
        let a = build_requests(&cfg);
        let b = build_requests(&cfg);
        assert_eq!(a.len(), 8);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.line, y.line);
            assert_eq!(x.expected, y.expected);
        }
        for (i, method) in [
            "query_line",
            "query_ray_up",
            "query_ray_down",
            "query_segment",
        ]
        .iter()
        .enumerate()
        {
            assert!(a[i].line.contains(method), "{}: {}", method, a[i].line);
            let v = segdb_obs::json::parse(&a[i].line).expect("request line is valid JSON");
            assert_eq!(v.get("id"), Some(&Json::U64(i as u64)));
        }
    }

    #[test]
    fn mode_specs_parse_and_cycle() {
        assert_eq!(parse_mode("mix"), Some(ModeSpec::Mix));
        assert_eq!(
            parse_mode("limit:5"),
            Some(ModeSpec::Fixed(QueryMode::Limit(5)))
        );
        assert_eq!(parse_mode("count"), Some(ModeSpec::Fixed(QueryMode::Count)));
        assert_eq!(parse_mode("limit:"), None);
        assert_eq!(parse_mode("nope"), None);
        assert_eq!(ModeSpec::Mix.mode_for(0), QueryMode::Collect);
        assert_eq!(ModeSpec::Mix.mode_for(1), QueryMode::Count);
        assert_eq!(ModeSpec::Mix.mode_for(2), QueryMode::Exists);
        assert_eq!(ModeSpec::Mix.mode_for(3), QueryMode::Limit(8));
        let cfg = LoadConfig {
            requests: 8,
            n: 100,
            mode: ModeSpec::Mix,
            ..LoadConfig::default()
        };
        let reqs = build_requests(&cfg);
        assert!(
            reqs[1].line.contains(r#""mode":"count""#),
            "{}",
            reqs[1].line
        );
        assert!(reqs[3].line.contains(r#""limit":8"#), "{}", reqs[3].line);
        assert!(!reqs[0].line.contains("mode"), "collect stays implicit");
    }

    #[test]
    fn mode_aware_verification() {
        let expected = vec![2, 5, 9];
        assert!(verify_reply(QueryMode::Collect, &[2, 5, 9], 3, &expected));
        assert!(!verify_reply(QueryMode::Collect, &[2, 5], 2, &expected));
        assert!(verify_reply(QueryMode::Count, &[], 3, &expected));
        assert!(!verify_reply(QueryMode::Count, &[], 2, &expected));
        assert!(verify_reply(QueryMode::Exists, &[], 1, &expected));
        assert!(!verify_reply(QueryMode::Exists, &[], 0, &expected));
        assert!(verify_reply(QueryMode::Exists, &[], 0, &[]));
        assert!(verify_reply(QueryMode::Limit(2), &[5, 9], 2, &expected));
        assert!(verify_reply(QueryMode::Limit(8), &[2, 5, 9], 3, &expected));
        assert!(!verify_reply(QueryMode::Limit(2), &[5], 1, &expected));
        assert!(!verify_reply(QueryMode::Limit(2), &[5, 7], 2, &expected));
    }

    #[test]
    fn stats_delta_subtracts_numeric_leaves_recursively() {
        let before = Json::obj([
            ("reads", Json::U64(10)),
            ("nested", Json::obj([("hits", Json::U64(3))])),
            ("label", Json::Str("x".into())),
        ]);
        let after = Json::obj([
            ("reads", Json::U64(25)),
            ("nested", Json::obj([("hits", Json::U64(7))])),
            ("label", Json::Str("x".into())),
            ("new_counter", Json::U64(5)),
        ]);
        let d = stats_delta(&before, &after);
        assert_eq!(d.get("reads"), Some(&Json::U64(15)));
        assert_eq!(
            d.get("nested").and_then(|n| n.get("hits")),
            Some(&Json::U64(4))
        );
        assert_eq!(d.get("label"), None, "non-numeric leaves are dropped");
        assert_eq!(d.get("new_counter"), None, "keys absent before are dropped");
        // A counter that (impossibly) went backwards saturates at zero.
        let d = stats_delta(&after, &before);
        assert_eq!(d.get("reads"), Some(&Json::U64(0)));
    }

    #[test]
    fn server_block_deltas_counters_and_copies_quantiles() {
        let snap = |reads: u64, requests: u64| {
            Json::obj([
                ("io", Json::obj([("reads", Json::U64(reads))])),
                ("server", Json::obj([("requests", Json::U64(requests))])),
                (
                    "latency",
                    Json::obj([("collect", Json::obj([("p99", Json::U64(64))]))]),
                ),
                (
                    "pages",
                    Json::obj([("collect", Json::obj([("p50", Json::U64(4))]))]),
                ),
            ])
        };
        let block = server_block(&snap(100, 40), &snap(160, 90));
        assert_eq!(
            block.get("io").and_then(|x| x.get("reads")),
            Some(&Json::U64(60))
        );
        assert_eq!(
            block.get("server").and_then(|x| x.get("requests")),
            Some(&Json::U64(50))
        );
        assert_eq!(
            block
                .get("latency")
                .and_then(|l| l.get("collect"))
                .and_then(|c| c.get("p99")),
            Some(&Json::U64(64)),
            "quantile blocks come through verbatim"
        );
    }

    #[test]
    fn expected_ids_are_sorted() {
        let cfg = LoadConfig {
            requests: 16,
            n: 300,
            ..LoadConfig::default()
        };
        for r in build_requests(&cfg) {
            assert!(r.expected.windows(2).all(|w| w[0] < w[1]));
        }
    }
}
