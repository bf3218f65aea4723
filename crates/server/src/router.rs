//! The scatter-gather router: one NDJSON endpoint in front of a static
//! x-range-sharded cluster of `segdb-server` shards, each backed by an
//! R-way replica set.
//!
//! **Topology.** A [`ShardMap`] pairs `K` shard replica sets with the
//! `K − 1` cut abscissae of a [`segdb_core::partition::XCuts`]: shard
//! `i` *owns* the half-open x-range `[cuts[i-1], cuts[i])`, and every
//! stored segment is replicated into each shard its closed x-span
//! touches — the cross-process lift of Theorem 2's short/long split
//! (`segdb-cli partition` fragments a CSV the same way). Within a
//! shard, every replica stores the same fragment; the first listed
//! replica is *preferred* for reads.
//!
//! **Replication and health.** Each replica carries a circuit
//! [`crate::breaker::Breaker`] fed by every routed call *and* by the
//! router's `health` probes (which ping every replica, not just the
//! preferred one — that is the recovery path that closes a breaker
//! after a restart). Consecutive infrastructure failures trip the
//! breaker open; after a cooldown it admits exactly one half-open
//! probe. Open replicas are deprioritized, never excluded: a read that
//! finds every replica open still probes one, so a fully-recovered
//! shard converges back to green without operator help.
//!
//! **Reads.** A query fans out over the [`crate::client`] resilient
//! clients to only the shards its abscissa can touch. Per shard the
//! router walks the replica set in failover order (preferred first,
//! open breakers last); the first answer wins. When more than one
//! replica is live the first attempt is *hedged*: it gets a tight
//! p99-derived deadline, and on a miss the router immediately tries
//! the next replica, returning to the hedged replica with the full
//! budget only if every alternative fails. Replies are merged per
//! [`QueryMode`] — mirroring the in-process `ReportSink` contract
//! server-side:
//!
//! * `Count` routes to the *owning* shard alone (which, by the
//!   replication invariant, stores every segment stabbed there) and
//!   sums whatever counts come back, so replicas never double-count.
//! * `Exists` walks the touch set in shard order and short-circuits on
//!   the first witness.
//! * `Collect` unions the touch set's id lists, sorts, and de-duplicates
//!   boundary-replicated long segments by id.
//! * `Limit(k)` fuses per-shard prefixes: union, de-dup, truncate to
//!   `k` — the owner alone already witnesses `min(k, total)` hits, so
//!   the fused answer always does too.
//!
//! **Writes.** `insert` / `delete` fan out to *every replica of every
//! shard* the segment's span touches, forwarding the client's original
//! request line verbatim so the id-keyed dedup window of each replica
//! keeps the write exactly-once end-to-end through client, router, and
//! failover retries. A shard acknowledges as soon as *any* of its
//! replicas does; replicas that are down (or held open by their
//! breaker) are recorded as *lagging* in the ack rather than failing
//! the write — they catch up over the `sync_from` wire method before
//! rejoining. The shard owning the segment's x-midpoint provides the
//! authoritative acknowledgement.
//!
//! **Failure semantics.** The router spends a bounded retry budget per
//! replica call and fails over within the shard; only when every
//! replica of a touched shard is unreachable does the reply become a
//! structured [`code::DEGRADED`] error naming the shard. That code is
//! deliberately *terminal* to the resilient client — the router already
//! retried — and replaying the same request id later is always safe.
//! Shard answers that retrying cannot improve (`db`, `bad_request`, …)
//! are authoritative — every replica would repeat them — and are
//! relayed under their original code without charging any breaker.

use crate::breaker::{Breaker, BreakerConfig, BreakerState};
use crate::chaos::NetFaultHandle;
use crate::client::{CallError, Client, ClientConfig};
use crate::frontend::{lock, Front, FrontConfig, Handler, Reply, DEFAULT_MAX_CONNECTIONS};
use crate::proto::{self, code, Command, Method, Request};
use segdb_core::partition::XCuts;
use segdb_core::{Query, QueryMode};
use segdb_geom::Segment;
use segdb_obs::json::{self, Json};
use segdb_obs::Histogram;
use std::collections::BTreeSet;
use std::io;
use std::net::SocketAddr;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Base of the upstream clients' backoff-jitter seeds.
const JITTER_SEED_BASE: u64 = 0x5EED_2070;

/// Floor of the hedged first read attempt's deadline, in microseconds —
/// a cold latency histogram must not make the router hedge every read.
const HEDGE_DELAY_MIN_US: u64 = 25_000;

/// Ceiling of the hedge delay, in microseconds: past half a second the
/// hedge has stopped being a tail-latency device.
const HEDGE_DELAY_MAX_US: u64 = 500_000;

/// The static cluster topology: per-shard replica sets plus the x-cuts
/// that partition ownership between the shards.
#[derive(Debug, Clone)]
pub struct ShardMap {
    replicas: Vec<Vec<String>>,
    preferred: Vec<String>,
    cuts: XCuts,
}

impl ShardMap {
    /// Pair one single-replica shard per address with `cuts`; there
    /// must be exactly one more address than cuts. The v1 constructor —
    /// [`ShardMap::new_replicated`] is the general form.
    pub fn new(addrs: Vec<String>, cuts: XCuts) -> Result<ShardMap, String> {
        ShardMap::new_replicated(addrs.into_iter().map(|a| vec![a]).collect(), cuts)
    }

    /// Pair per-shard replica sets with `cuts`; there must be exactly
    /// one more (non-empty, duplicate-free) set than cuts. The first
    /// replica of each set is preferred for reads.
    pub fn new_replicated(replicas: Vec<Vec<String>>, cuts: XCuts) -> Result<ShardMap, String> {
        if replicas.is_empty() {
            return Err("shard map needs at least one shard".to_string());
        }
        if replicas.len() != cuts.shard_count() {
            return Err(format!(
                "{} replica sets for {} ownership ranges ({} cuts)",
                replicas.len(),
                cuts.shard_count(),
                cuts.cuts().len()
            ));
        }
        for (i, set) in replicas.iter().enumerate() {
            if set.is_empty() {
                return Err(format!("shard {i} carries an empty replica set"));
            }
            for (r, addr) in set.iter().enumerate() {
                if set[..r].contains(addr) {
                    return Err(format!("shard {i} lists replica `{addr}` twice"));
                }
            }
        }
        let preferred = replicas.iter().map(|set| set[0].clone()).collect();
        Ok(ShardMap {
            replicas,
            preferred,
            cuts,
        })
    }

    /// Parse the shard-map file format. v2 carries a replica set per
    /// shard:
    ///
    /// ```json
    /// {"shards":[
    ///   {"replicas":["127.0.0.1:7001","127.0.0.1:8001"],"until":-217},
    ///   {"replicas":["127.0.0.1:7002","127.0.0.1:8002"],"until":310},
    ///   {"replicas":["127.0.0.1:7003","127.0.0.1:8003"]}
    /// ]}
    /// ```
    ///
    /// and the v1 single-`addr` form stays readable (each shard becomes
    /// a one-replica set):
    ///
    /// ```json
    /// {"shards":[{"addr":"127.0.0.1:7001","until":-217},{"addr":"127.0.0.1:7002"}]}
    /// ```
    ///
    /// `until` is the shard's *exclusive* upper cut, required on every
    /// entry but the last and strictly increasing down the list; the
    /// first shard is unbounded below, the last unbounded above. When
    /// an entry carries both `replicas` and `addr` (as the rendered
    /// form does), `replicas` wins.
    pub fn parse(text: &str) -> Result<ShardMap, String> {
        let doc = json::parse(text.trim()).map_err(|e| format!("shard map is not JSON: {e}"))?;
        let shards = doc
            .get("shards")
            .and_then(Json::as_arr)
            .ok_or("shard map carries no `shards` array")?;
        let mut sets = Vec::with_capacity(shards.len());
        let mut cuts = Vec::new();
        for (i, entry) in shards.iter().enumerate() {
            let mut set = Vec::new();
            if let Some(reps) = entry.get("replicas").and_then(Json::as_arr) {
                for rep in reps {
                    let addr = rep
                        .as_str()
                        .ok_or_else(|| format!("shard {i} carries a non-string replica address"))?;
                    set.push(addr.to_string());
                }
            } else if let Some(addr) = entry.get("addr").and_then(Json::as_str) {
                set.push(addr.to_string());
            }
            if set.is_empty() {
                return Err(format!(
                    "shard {i} carries neither `addr` nor a non-empty `replicas` list"
                ));
            }
            sets.push(set);
            let until = entry.get("until").and_then(|v| match *v {
                Json::I64(n) => Some(n),
                Json::U64(n) => i64::try_from(n).ok(),
                _ => None,
            });
            match until {
                Some(c) if i + 1 < shards.len() => cuts.push(c),
                Some(_) => return Err("the last shard must not carry `until`".to_string()),
                None if i + 1 < shards.len() => {
                    return Err(format!("shard {i} needs an integer `until` cut"))
                }
                None => {}
            }
        }
        let cuts = XCuts::new(cuts).map_err(|e| e.to_string())?;
        ShardMap::new_replicated(sets, cuts)
    }

    /// Render back into the shard-map file format (round-trips
    /// [`ShardMap::parse`]); also the wire `shard_map` reply body. Each
    /// entry carries both the v2 `replicas` list and the v1 `addr`
    /// (the preferred replica) so v1 readers keep working.
    pub fn to_json(&self) -> Json {
        let entries = self
            .replicas
            .iter()
            .enumerate()
            .map(|(i, set)| {
                let mut fields = vec![
                    ("addr".to_string(), Json::Str(set[0].clone())),
                    (
                        "replicas".to_string(),
                        Json::Arr(set.iter().map(|a| Json::Str(a.clone())).collect()),
                    ),
                ];
                if let Some(&cut) = self.cuts.cuts().get(i) {
                    fields.push(("until".to_string(), Json::I64(cut)));
                }
                Json::Obj(fields)
            })
            .collect();
        Json::obj([
            ("role", Json::Str("router".to_string())),
            ("shards", Json::Arr(entries)),
        ])
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.replicas.len()
    }

    /// The preferred (first) replica address of every shard, in
    /// ownership order.
    pub fn addrs(&self) -> &[String] {
        &self.preferred
    }

    /// The full replica sets, in ownership order.
    pub fn replica_sets(&self) -> &[Vec<String>] {
        &self.replicas
    }

    /// The ownership cuts.
    pub fn cuts(&self) -> &XCuts {
        &self.cuts
    }
}

/// Tunables for a [`Router`].
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Listen address; `127.0.0.1:0` picks an ephemeral port.
    pub addr: String,
    /// Per-attempt deadline of one upstream shard call.
    pub attempt_timeout: Duration,
    /// Upstream retries per replica call after the first attempt. Kept
    /// deliberately smaller than the client default — the downstream
    /// client retries too, and budgets multiply.
    pub max_retries: u32,
    /// Longest accepted request line (and shard response line) in bytes.
    pub max_line_bytes: usize,
    /// Reply-write deadline towards downstream clients.
    pub write_timeout: Duration,
    /// Reap downstream connections idle longer than this.
    pub idle_timeout: Duration,
    /// Bound on the connection drain in [`Router::wait`].
    pub drain_timeout: Duration,
    /// Forward a wire `shutdown` to every replica of every shard
    /// (best-effort, single attempt each) before stopping the router
    /// itself. Off by default so in-process harnesses keep owning
    /// their shard lifecycles.
    pub forward_shutdown: bool,
    /// Per-replica circuit-breaker thresholds.
    pub breaker: BreakerConfig,
    /// Hedge the first read attempt with a tight p99-derived deadline
    /// whenever a shard has more than one live replica.
    pub hedge_reads: bool,
    /// Wire-fault schedule injected into *upstream* shard connections —
    /// the torture-harness hook ([`crate::chaos`]).
    pub chaos: Option<NetFaultHandle>,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            addr: "127.0.0.1:0".to_string(),
            attempt_timeout: Duration::from_secs(2),
            max_retries: 4,
            max_line_bytes: 4 * 1024 * 1024,
            write_timeout: Duration::from_secs(2),
            idle_timeout: Duration::from_secs(30),
            drain_timeout: Duration::from_secs(5),
            forward_shutdown: false,
            breaker: BreakerConfig::default(),
            hedge_reads: true,
            chaos: None,
        }
    }
}

segdb_obs::tally! {
    /// Upstream calls to one shard, or to one replica, and how many
    /// failed.
    enum Call: CallTally {
        Requests = "requests",
        Errors = "errors",
    }
}

segdb_obs::tally! {
    /// How reads were steered around a failing replica: the `failover`
    /// block of the router's `stats` reply.
    enum Failover: FailoverTally {
        /// Reads answered by a replica other than the preferred one.
        Failovers = "failovers",
        /// Hedged first attempts that missed their tight deadline.
        Hedges = "hedges",
    }
}

segdb_obs::tally! {
    /// The router's share of the `server` block of its `stats` reply.
    enum Routed: RoutedTally {
        /// Replies that admitted a whole replica set unreachable.
        Degraded = "degraded",
    }
}

/// Per-shard upstream accounting: calls, failures, and the round-trip
/// latency histogram `segdb-load --cluster` surfaces per shard.
#[derive(Debug)]
struct ShardTally {
    calls: CallTally,
    latency: Mutex<Histogram>,
}

impl ShardTally {
    fn new() -> ShardTally {
        ShardTally {
            calls: CallTally::new(),
            latency: Mutex::new(Histogram::latency_us()),
        }
    }
}

/// One replica's health state and call tallies, shared by every router
/// connection (so a breaker tripped on one connection shields them all).
#[derive(Debug)]
struct ReplicaSlot {
    addr: String,
    breaker: Mutex<Breaker>,
    calls: CallTally,
}

struct Shared {
    map: ShardMap,
    cfg: RouterConfig,
    front: Arc<Front>,
    routed: RoutedTally,
    shards: Vec<ShardTally>,
    replicas: Vec<Vec<ReplicaSlot>>,
    started: Instant,
    failover: FailoverTally,
}

impl Shared {
    fn new(map: ShardMap, cfg: RouterConfig, front: Arc<Front>) -> Shared {
        let shards = (0..map.shard_count()).map(|_| ShardTally::new()).collect();
        let replicas = build_replica_slots(&map, &cfg);
        Shared {
            map,
            cfg,
            front,
            routed: RoutedTally::new(),
            shards,
            replicas,
            started: Instant::now(),
            failover: FailoverTally::new(),
        }
    }

    /// The breakers' monotone clock: milliseconds since router start.
    fn now_ms(&self) -> u64 {
        u64::try_from(self.started.elapsed().as_millis()).unwrap_or(u64::MAX)
    }
}

/// The router's side of a connection: a private set of upstream clients
/// (one per replica, connected lazily), and every request routed
/// through them.
impl Handler for Shared {
    type Conn = Vec<Vec<Client>>;

    fn open(&self, seq: u64) -> Self::Conn {
        upstream_clients(self, seq)
    }

    fn handle(&self, clients: &mut Self::Conn, request: Request, raw: &str) -> Reply {
        match route(self, clients, request.id, request.method, raw) {
            Ok(line) => Reply { line, ok: true },
            Err(line) => Reply { line, ok: false },
        }
    }

    /// Best-effort shutdown fan-out: one un-retried attempt per replica.
    fn wire_shutdown(&self) {
        if self.cfg.forward_shutdown {
            for addr in self.map.replica_sets().iter().flatten() {
                let _ = Client::send_shutdown(addr);
            }
        }
    }
}

/// Build the per-replica health slots for `map`.
fn build_replica_slots(map: &ShardMap, cfg: &RouterConfig) -> Vec<Vec<ReplicaSlot>> {
    map.replica_sets()
        .iter()
        .map(|set| {
            set.iter()
                .map(|addr| ReplicaSlot {
                    addr: addr.clone(),
                    breaker: Mutex::new(Breaker::new(cfg.breaker)),
                    calls: CallTally::new(),
                })
                .collect()
        })
        .collect()
}

/// A running scatter-gather router. Obtain the bound address with
/// [`Router::addr`], stop it with [`Router::shutdown`] (or the wire
/// `shutdown` method) and reap its threads with [`Router::wait`].
pub struct Router {
    shared: Arc<Shared>,
    acceptor: JoinHandle<()>,
}

impl Router {
    /// Bind and start routing for `map` — replicas may come and go;
    /// each request discovers reachability through its own fan-out and
    /// the shared per-replica breakers. Downstream connections get the
    /// same front-end a single server has: at most 256 are served, one
    /// beyond that is shed with `overloaded`.
    pub fn start(map: ShardMap, cfg: RouterConfig) -> io::Result<Router> {
        let (front, listener) = Front::bind(front_config(&cfg))?;
        let shared = Arc::new(Shared::new(map, cfg, front));
        let acceptor = shared.front.spawn(listener, Arc::clone(&shared))?;
        Ok(Router { shared, acceptor })
    }

    /// The address actually bound (resolves `:0` to the chosen port).
    pub fn addr(&self) -> SocketAddr {
        self.shared.front.addr()
    }

    /// Begin a graceful shutdown (idempotent, non-blocking).
    pub fn shutdown(&self) {
        self.shared.front.stop();
    }

    /// Block until the acceptor has stopped, then wait — at most
    /// [`RouterConfig::drain_timeout`] — for live connections to drain.
    pub fn wait(self) {
        let _ = self.acceptor.join();
        self.shared.front.drain();
    }
}

fn front_config(cfg: &RouterConfig) -> FrontConfig {
    FrontConfig {
        addr: cfg.addr.clone(),
        name: "segdb-router",
        max_line_bytes: cfg.max_line_bytes,
        write_timeout: cfg.write_timeout,
        idle_timeout: cfg.idle_timeout,
        max_connections: DEFAULT_MAX_CONNECTIONS,
        drain_timeout: cfg.drain_timeout,
        // `RouterConfig::chaos` faults the upstream side only.
        accept_chaos: None,
    }
}

/// Build one resilient upstream client per replica, seeded distinctly
/// per connection so concurrent backoff jitter never synchronizes.
fn upstream_clients(shared: &Shared, conn_seq: u64) -> Vec<Vec<Client>> {
    shared
        .map
        .replica_sets()
        .iter()
        .enumerate()
        .map(|(s, set)| {
            set.iter()
                .enumerate()
                .map(|(r, addr)| {
                    let cfg = ClientConfig {
                        addr: addr.clone(),
                        attempt_timeout: shared.cfg.attempt_timeout,
                        max_retries: shared.cfg.max_retries,
                        jitter_seed: JITTER_SEED_BASE
                            .wrapping_add(conn_seq.wrapping_mul(0x9E37_79B9))
                            .wrapping_add((s as u64) << 8)
                            .wrapping_add(r as u64),
                        max_line_bytes: shared.cfg.max_line_bytes,
                        ..ClientConfig::default()
                    };
                    match &shared.cfg.chaos {
                        Some(h) => Client::with_chaos(cfg, h.clone()),
                        None => Client::new(cfg),
                    }
                })
                .collect()
        })
        .collect()
}

/// True when `err` says the replica's *infrastructure* failed (budget
/// exhausted on wire faults, or the replica draining away) — the
/// outcomes that charge its breaker and justify failing over. Every
/// other terminal error is an authoritative answer: the replica is
/// healthy and its twins would say the same.
fn infra_failure(err: &CallError) -> bool {
    match err {
        CallError::Exhausted { .. } => true,
        CallError::Terminal { code: c, .. } => c == code::SHUTTING_DOWN,
    }
}

/// One timed upstream call against replica `r` of shard `s`; tallies
/// land on both the shard aggregate and the replica slot.
fn replica_call<T>(
    shared: &Shared,
    s: usize,
    r: usize,
    call: impl FnOnce() -> Result<T, CallError>,
) -> Result<T, CallError> {
    let started = Instant::now();
    let (shard, replica) = (&shared.shards[s], &shared.replicas[s][r]);
    shard.calls.bump(Call::Requests);
    replica.calls.bump(Call::Requests);
    let result = call();
    let us = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
    lock(&shard.latency).observe(us);
    if result.is_err() {
        shard.calls.bump(Call::Errors);
        replica.calls.bump(Call::Errors);
    }
    result
}

/// The order a read walks shard replicas: a rotation starting at
/// `preferred`, with open-breaker replicas demoted to the tail as a
/// last resort — demoted, never dropped, so a read that finds every
/// breaker open still probes one instead of fast-failing degraded.
fn read_order(states: &[BreakerState], preferred: usize) -> Vec<usize> {
    let n = states.len();
    let rotated: Vec<usize> = (0..n).map(|k| (preferred + k) % n).collect();
    let mut order: Vec<usize> = rotated
        .iter()
        .copied()
        .filter(|&r| states[r] != BreakerState::Open)
        .collect();
    order.extend(
        rotated
            .iter()
            .copied()
            .filter(|&r| states[r] == BreakerState::Open),
    );
    order
}

/// Clamp a shard's observed p99 round-trip into the hedge-deadline
/// window.
fn hedge_delay_us(p99_us: u64) -> u64 {
    p99_us.clamp(HEDGE_DELAY_MIN_US, HEDGE_DELAY_MAX_US)
}

/// The hedged first attempt's deadline for shard `s`: its observed p99
/// round-trip, clamped, and never beyond the configured full deadline.
fn hedge_delay(shared: &Shared, s: usize) -> Duration {
    let p99_us = lock(&shared.shards[s].latency).quantile_bound(0.99);
    Duration::from_micros(hedge_delay_us(p99_us)).min(shared.cfg.attempt_timeout)
}

/// One read against shard `s`, walking its replicas in failover order.
/// The first replica may be tried under a tight hedged deadline (its
/// full-budget turn comes back around last); authoritative data errors
/// return immediately; infrastructure failures charge the breaker and
/// fail over.
fn shard_read(
    shared: &Shared,
    clients: &mut [Vec<Client>],
    s: usize,
    raw_line: &str,
) -> Result<Json, CallError> {
    let now = shared.now_ms();
    let states: Vec<BreakerState> = shared.replicas[s]
        .iter()
        .map(|slot| lock(&slot.breaker).state(now))
        .collect();
    let order = read_order(&states, 0);
    let n = order.len();
    let mut tried_any = false;
    let mut hedged_first = None;
    let mut last_err: Option<CallError> = None;
    for (pos, &r) in order.iter().enumerate() {
        let slot = &shared.replicas[s][r];
        let admitted = lock(&slot.breaker).admit(shared.now_ms());
        let is_last = pos + 1 == n;
        // An unadmitted replica is skipped — unless it is the last
        // candidate and nothing was tried yet, the forced last-resort
        // attempt that keeps recovery from deadlocking on its breaker.
        if !admitted && (!is_last || tried_any) {
            continue;
        }
        let hedged = pos == 0 && n >= 2 && shared.cfg.hedge_reads;
        let result = if hedged {
            let delay = hedge_delay(shared, s);
            replica_call(shared, s, r, || {
                clients[s][r].call_line_bounded(raw_line, delay, 0)
            })
        } else {
            replica_call(shared, s, r, || clients[s][r].call_line(raw_line))
        };
        tried_any = true;
        match result {
            Ok(v) => {
                lock(&slot.breaker).record_success(shared.now_ms());
                if pos > 0 {
                    shared.failover.bump(Failover::Failovers);
                }
                return Ok(v);
            }
            Err(e) if !infra_failure(&e) => {
                // The replica answered; its twins would answer the same.
                lock(&slot.breaker).record_success(shared.now_ms());
                return Err(e);
            }
            Err(e) => {
                if hedged {
                    // Missing the tight hedge deadline is not evidence
                    // of a dead replica — count the hedge, keep the
                    // breaker out of it, and come back with the full
                    // budget only if every alternative fails.
                    shared.failover.bump(Failover::Hedges);
                    hedged_first = Some(r);
                } else {
                    lock(&slot.breaker).record_failure(shared.now_ms());
                }
                last_err = Some(e);
            }
        }
    }
    if let Some(r) = hedged_first {
        let slot = &shared.replicas[s][r];
        match replica_call(shared, s, r, || clients[s][r].call_line(raw_line)) {
            Ok(v) => {
                lock(&slot.breaker).record_success(shared.now_ms());
                return Ok(v);
            }
            Err(e) if !infra_failure(&e) => {
                lock(&slot.breaker).record_success(shared.now_ms());
                return Err(e);
            }
            Err(e) => {
                lock(&slot.breaker).record_failure(shared.now_ms());
                last_err = Some(e);
            }
        }
    }
    Err(last_err.unwrap_or(CallError::Exhausted {
        attempts: 0,
        last: "every replica is held open by its circuit breaker".to_string(),
    }))
}

/// Outcome of fanning one idempotent write line across a shard's
/// replica set.
enum FanOutcome {
    /// At least one replica acknowledged. `lagging` lists replicas that
    /// missed the write (down, or held open by their breaker) and must
    /// catch up over `sync_from` before rejoining reads.
    Acked {
        first: Json,
        acked: usize,
        lagging: Vec<String>,
    },
    /// No replica produced an acknowledgement: either an authoritative
    /// rejection (relayed under its own code) or the whole set down
    /// (rendered degraded) — [`shard_error_line`] distinguishes.
    Failed(CallError),
}

/// Fan one write (or flush) to every replica of shard `s`. The
/// original request line — and so the client's request id, the
/// replica-side idempotence key — is forwarded verbatim, so a
/// partially-applied fan-out converges when the client replays the
/// same id after a `degraded` reply.
fn fan_write_to_shard(
    shared: &Shared,
    clients: &mut [Vec<Client>],
    s: usize,
    raw_line: &str,
) -> FanOutcome {
    let mut first = None;
    let mut acked = 0usize;
    let mut lagging = Vec::new();
    let mut last_err: Option<CallError> = None;
    for (r, slot) in shared.replicas[s].iter().enumerate() {
        if !lock(&slot.breaker).admit(shared.now_ms()) {
            // A replica the breaker holds open misses this write; it is
            // reported lagging, not fatal.
            lagging.push(slot.addr.clone());
            continue;
        }
        match replica_call(shared, s, r, || clients[s][r].call_line(raw_line)) {
            Ok(result) => {
                lock(&slot.breaker).record_success(shared.now_ms());
                acked += 1;
                if first.is_none() {
                    first = Some(result);
                }
            }
            Err(e) if infra_failure(&e) => {
                lock(&slot.breaker).record_failure(shared.now_ms());
                lagging.push(slot.addr.clone());
                last_err = Some(e);
            }
            Err(e) => {
                // An authoritative rejection every replica would repeat.
                lock(&slot.breaker).record_success(shared.now_ms());
                return FanOutcome::Failed(e);
            }
        }
    }
    match first {
        Some(first) => FanOutcome::Acked {
            first,
            acked,
            lagging,
        },
        None => FanOutcome::Failed(last_err.unwrap_or(CallError::Exhausted {
            attempts: 0,
            last: "every replica is held open by its circuit breaker".to_string(),
        })),
    }
}

/// Render a shard failure downstream: answers retrying cannot improve
/// are relayed under their original code; infrastructure failures (the
/// retry budget exhausted on every replica, or a shard draining away)
/// become the structured `degraded` error. Replaying the same request
/// id after a `degraded` reply is always safe — replica-side dedup
/// keeps replicated writes exactly-once.
fn shard_error_line(shared: &Shared, id: Option<u64>, i: usize, err: &CallError) -> String {
    let addr = &shared.map.addrs()[i];
    match err {
        CallError::Terminal { code: c, message } if c != code::SHUTTING_DOWN => {
            proto::err_line(id, c, &format!("shard {i} ({addr}): {message}"))
        }
        _ => {
            shared.routed.bump(Routed::Degraded);
            proto::err_line(
                id,
                code::DEGRADED,
                &format!("shard {i} ({addr}) unavailable: {err}; the cluster is serving degraded — retrying the same request id is safe"),
            )
        }
    }
}

/// Inclusive x-extent of a query (the abscissa for the line/ray
/// shapes; the endpoint extent for the segment shape).
fn x_extent(q: Query) -> (i64, i64) {
    match q {
        Query::Line { x, .. } | Query::RayUp { x, .. } | Query::RayDown { x, .. } => (x, x),
        Query::Segment { x1, x2, .. } => (x1.min(x2), x1.max(x2)),
    }
}

/// The inclusive shard range a query fans out to. `Count` routes to
/// owners only — a replica in the wider touch set would double-count —
/// while the materializing and witnessing modes take the full touch set
/// and de-duplicate at merge time.
fn query_targets(cuts: &XCuts, mode: QueryMode, xmin: i64, xmax: i64) -> (usize, usize) {
    match mode {
        QueryMode::Count => (cuts.owner_of_x(xmin), cuts.owner_of_x(xmax)),
        _ => {
            let (lo, _) = cuts.touch_range(xmin);
            let (_, hi) = cuts.touch_range(xmax);
            (lo, hi)
        }
    }
}

/// Pull `count` out of a shard's query result.
fn reply_count(result: &Json) -> u64 {
    result
        .get("count")
        .and_then(|c| match *c {
            Json::U64(u) => Some(u),
            Json::I64(i) => u64::try_from(i).ok(),
            _ => None,
        })
        .unwrap_or(0)
}

/// Pull the `ids` list out of a shard's query result.
fn reply_ids(result: &Json) -> Vec<u64> {
    result
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
        .unwrap_or_default()
}

/// Render the merged query reply in the single-node result shape (plus
/// the fan-out width), so resilient clients parse both identically.
fn merged_query_line(
    id: Option<u64>,
    ids: Vec<u64>,
    count: u64,
    mode: QueryMode,
    fanout: usize,
) -> String {
    proto::ok_line(
        id,
        Json::obj([
            ("ids", Json::Arr(ids.into_iter().map(Json::U64).collect())),
            ("count", Json::U64(count)),
            ("mode", Json::Str(mode.name().to_string())),
            ("fanout", Json::U64(fanout as u64)),
        ]),
    )
}

/// Dispatch one parsed request: pick targets, fan out, merge. `Ok` is a
/// rendered success line, `Err` a rendered error line — here and in
/// every helper.
fn route(
    shared: &Shared,
    clients: &mut [Vec<Client>],
    id: Option<u64>,
    method: Method,
    raw_line: &str,
) -> Result<String, String> {
    let command = match method {
        Method::Query(q, mode) => return route_query(shared, clients, id, q, mode, raw_line),
        Method::Command(command) => command,
    };
    match command {
        Command::Insert(seg) | Command::Delete(seg) => {
            route_write(shared, clients, id, &seg, raw_line)
        }
        Command::Trace(q) => {
            let owner = shared.map.cuts().owner_of_x(x_extent(q).0);
            match shard_read(shared, clients, owner, raw_line) {
                Ok(result) => Ok(proto::ok_line(id, result)),
                Err(e) => Err(shard_error_line(shared, id, owner, &e)),
            }
        }
        Command::Flush => {
            let mut outcome = Ok(proto::ok_line(id, Json::Bool(true)));
            for s in 0..shared.map.shard_count() {
                if let FanOutcome::Failed(e) = fan_write_to_shard(shared, clients, s, raw_line) {
                    outcome = Err(shard_error_line(shared, id, s, &e));
                    break;
                }
            }
            outcome
        }
        Command::WalSince { .. } | Command::SyncFrom { .. } => Err(proto::err_line(
            id,
            code::BAD_REQUEST,
            "replica catch-up targets one replica directly: send `wal_since`/`sync_from` to the replica's own address, not the router",
        )),
        Command::Stats => Ok(proto::ok_line(id, stats_json(shared, clients))),
        Command::SlowLog => Ok(proto::ok_line(id, slowlog_json(shared, clients))),
        Command::Health => Ok(proto::ok_line(id, health_json(shared, clients))),
        Command::ShardMap => Ok(proto::ok_line(id, shared.map.to_json())),
        // Answered inline by the front-end; kept total for safety.
        Command::Ping => Ok(proto::ok_line(id, Json::Str("pong".to_string()))),
        Command::Shutdown => Ok(proto::ok_line(id, Json::Bool(true))),
    }
}

fn route_query(
    shared: &Shared,
    clients: &mut [Vec<Client>],
    id: Option<u64>,
    q: Query,
    mode: QueryMode,
    raw_line: &str,
) -> Result<String, String> {
    let (xmin, xmax) = x_extent(q);
    let (lo, hi) = query_targets(shared.map.cuts(), mode, xmin, xmax);
    let fanout = hi - lo + 1;
    match mode {
        QueryMode::Count => {
            let mut total = 0u64;
            for i in lo..=hi {
                match shard_read(shared, clients, i, raw_line) {
                    Ok(result) => total += reply_count(&result),
                    Err(e) => return Err(shard_error_line(shared, id, i, &e)),
                }
            }
            Ok(merged_query_line(id, Vec::new(), total, mode, fanout))
        }
        QueryMode::Exists => {
            for i in lo..=hi {
                match shard_read(shared, clients, i, raw_line) {
                    Ok(result) if reply_count(&result) > 0 => {
                        // Short-circuit on the first witness.
                        return Ok(merged_query_line(id, Vec::new(), 1, mode, i - lo + 1));
                    }
                    Ok(_) => {}
                    Err(e) => return Err(shard_error_line(shared, id, i, &e)),
                }
            }
            Ok(merged_query_line(id, Vec::new(), 0, mode, fanout))
        }
        QueryMode::Collect => {
            let mut merged = BTreeSet::new();
            for i in lo..=hi {
                match shard_read(shared, clients, i, raw_line) {
                    Ok(result) => merged.extend(reply_ids(&result)),
                    Err(e) => return Err(shard_error_line(shared, id, i, &e)),
                }
            }
            let count = merged.len() as u64;
            Ok(merged_query_line(
                id,
                merged.into_iter().collect(),
                count,
                mode,
                fanout,
            ))
        }
        QueryMode::Limit(k) => {
            // Fuse per-shard prefixes; stop as soon as `k` distinct ids
            // are in hand (the owner shard alone witnesses min(k, total),
            // so the fused prefix always reaches it).
            let mut merged = BTreeSet::new();
            let mut asked = 0;
            for i in lo..=hi {
                asked += 1;
                match shard_read(shared, clients, i, raw_line) {
                    Ok(result) => merged.extend(reply_ids(&result)),
                    Err(e) => return Err(shard_error_line(shared, id, i, &e)),
                }
                if merged.len() >= k as usize {
                    break;
                }
            }
            let ids: Vec<u64> = merged.into_iter().take(k as usize).collect();
            let count = ids.len() as u64;
            Ok(merged_query_line(id, ids, count, mode, asked))
        }
    }
}

fn route_write(
    shared: &Shared,
    clients: &mut [Vec<Client>],
    id: Option<u64>,
    seg: &Segment,
    raw_line: &str,
) -> Result<String, String> {
    let (lo, hi) = shared.map.cuts().shards_of(seg);
    let owner = shared.map.cuts().owner_of(seg);
    let mut owner_ack = Json::Null;
    let mut fanned = 0u64;
    let mut acked = 0u64;
    let mut lagging = Vec::new();
    for s in lo..=hi {
        fanned += shared.replicas[s].len() as u64;
        match fan_write_to_shard(shared, clients, s, raw_line) {
            FanOutcome::Acked {
                first,
                acked: n,
                lagging: lag,
            } => {
                acked += n as u64;
                lagging.extend(lag.into_iter().map(Json::Str));
                if s == owner {
                    owner_ack = first;
                }
            }
            FanOutcome::Failed(e) => return Err(shard_error_line(shared, id, s, &e)),
        }
    }
    if let Json::Obj(fields) = &mut owner_ack {
        fields.push(("replicas".to_string(), Json::U64(fanned)));
        fields.push(("acked".to_string(), Json::U64(acked)));
        if !lagging.is_empty() {
            fields.push(("lagging".to_string(), Json::Arr(lagging)));
        }
    }
    Ok(proto::ok_line(id, owner_ack))
}

/// Fetch one document from shard `s` by walking its replicas in
/// failover order, skipping replicas the breaker rejects. `Ok` carries
/// the replica index that answered; `Err(None)` means every replica
/// was held open by its breaker.
fn fetch_from_replicas(
    shared: &Shared,
    clients: &mut [Vec<Client>],
    s: usize,
    mut fetch: impl FnMut(&mut Client) -> Result<Json, CallError>,
) -> Result<(usize, Json), Option<CallError>> {
    let now = shared.now_ms();
    let states: Vec<BreakerState> = shared.replicas[s]
        .iter()
        .map(|slot| lock(&slot.breaker).state(now))
        .collect();
    let mut last_err = None;
    for r in read_order(&states, 0) {
        let slot = &shared.replicas[s][r];
        if !lock(&slot.breaker).admit(shared.now_ms()) {
            continue;
        }
        match replica_call(shared, s, r, || fetch(&mut clients[s][r])) {
            Ok(doc) => {
                lock(&slot.breaker).record_success(shared.now_ms());
                return Ok((r, doc));
            }
            Err(e) => {
                if infra_failure(&e) {
                    lock(&slot.breaker).record_failure(shared.now_ms());
                } else {
                    lock(&slot.breaker).record_success(shared.now_ms());
                }
                last_err = Some(e);
            }
        }
    }
    Err(last_err)
}

/// The entry rendered for a shard none of whose replicas produced a
/// document: the aggregate stays partial and the shard is flagged
/// `unreachable` so dashboards can tell a dark shard from an empty one.
fn unreachable_entry(shared: &Shared, s: usize, err: Option<CallError>) -> Json {
    let detail = match err {
        Some(e) => e.to_string(),
        None => "every replica is held open by its circuit breaker".to_string(),
    };
    Json::obj([
        ("addr", Json::Str(shared.map.addrs()[s].clone())),
        ("ok", Json::Bool(false)),
        ("unreachable", Json::Bool(true)),
        ("error", Json::Str(detail)),
    ])
}

/// One per-shard accounting entry of the router's `stats` reply: the
/// upstream call tallies, the latency histogram (summary + buckets)
/// that `segdb-load --cluster` lifts into `BENCH_serve.json`, and the
/// per-replica call/breaker breakdown.
fn shard_tally_json(shared: &Shared, s: usize, now_ms: u64) -> Json {
    let tally = &shared.shards[s];
    let latency = lock(&tally.latency);
    let replicas = shared.replicas[s]
        .iter()
        .map(|slot| {
            let breaker = lock(&slot.breaker);
            let state = Json::Str(breaker.state(now_ms).name().to_string());
            let mut fields = vec![("addr", Json::Str(slot.addr.clone()))];
            fields.extend(slot.calls.fields());
            fields.extend([("breaker", state), ("opens", Json::U64(breaker.opens()))]);
            Json::obj(fields)
        })
        .collect();
    let mut fields = vec![("addr", Json::Str(shared.map.addrs()[s].clone()))];
    fields.extend(tally.calls.fields());
    fields.extend([
        ("latency_us", latency.summary_json()),
        ("histogram", latency.to_json()),
        ("replicas", Json::Arr(replicas)),
    ]);
    Json::obj(fields)
}

/// Total breaker trips across every replica of every shard.
fn breaker_opens_total(shared: &Shared) -> u64 {
    shared
        .replicas
        .iter()
        .flatten()
        .map(|slot| lock(&slot.breaker).opens())
        .sum()
}

fn stats_json(shared: &Shared, clients: &mut [Vec<Client>]) -> Json {
    let mut segments = 0u64;
    let mut shard_docs = Vec::with_capacity(shared.map.shard_count());
    for i in 0..shared.map.shard_count() {
        shard_docs.push(
            match fetch_from_replicas(shared, clients, i, Client::remote_stats) {
                Ok((r, doc)) => {
                    segments += doc.get("segments").and_then(Json::as_f64).unwrap_or(0.0) as u64;
                    Json::obj([
                        ("addr", Json::Str(shared.replicas[i][r].addr.clone())),
                        ("ok", Json::Bool(true)),
                        ("stats", doc),
                    ])
                }
                Err(e) => unreachable_entry(shared, i, e),
            },
        );
    }
    let now = shared.now_ms();
    let tallies = (0..shared.map.shard_count())
        .map(|i| shard_tally_json(shared, i, now))
        .collect();
    let mut failover = shared.failover.fields();
    failover.push(("breaker_opens", Json::U64(breaker_opens_total(shared))));
    let failover = Json::obj(failover);
    let mut server = shared.front.stats_fields();
    server.extend(shared.routed.fields());
    Json::obj([
        ("role", Json::Str("router".to_string())),
        // Stored replicas across the cluster (boundary-crossing long
        // segments count once per shard holding them; only one replica
        // per shard is consulted, so R-way copies do not multiply it).
        ("segments", Json::U64(segments)),
        ("server", Json::obj(server)),
        (
            "router",
            Json::obj([("shards", Json::Arr(tallies)), ("failover", failover)]),
        ),
        ("shards", Json::Arr(shard_docs)),
    ])
}

fn slowlog_json(shared: &Shared, clients: &mut [Vec<Client>]) -> Json {
    let mut entries = Vec::with_capacity(shared.map.shard_count());
    for i in 0..shared.map.shard_count() {
        entries.push(
            match fetch_from_replicas(shared, clients, i, Client::remote_slowlog) {
                Ok((r, doc)) => Json::obj([
                    ("addr", Json::Str(shared.replicas[i][r].addr.clone())),
                    ("ok", Json::Bool(true)),
                    ("slowlog", doc),
                ]),
                Err(e) => unreachable_entry(shared, i, e),
            },
        );
    }
    Json::obj([
        ("role", Json::Str("router".to_string())),
        ("shards", Json::Arr(entries)),
    ])
}

/// The router's `health`: ping *every* replica of every shard — the
/// probe outcomes feed the breakers, which is how a restarted replica's
/// breaker closes again. A shard is `ok` when any replica answers; the
/// top-level `ok` demands every replica of every shard live, so the
/// document turns red the moment one replica dies and green only after
/// it is back (the check-script smoke watches exactly that bit).
fn health_json(shared: &Shared, clients: &mut [Vec<Client>]) -> Json {
    let mut all_ok = true;
    let mut entries = Vec::with_capacity(shared.map.shard_count());
    for (s, row) in clients.iter_mut().enumerate() {
        let mut any_ok = false;
        let mut reps = Vec::with_capacity(shared.replicas[s].len());
        for (r, client) in row.iter_mut().enumerate() {
            let slot = &shared.replicas[s][r];
            let outcome = client.ping();
            let mut fields = vec![("addr".to_string(), Json::Str(slot.addr.clone()))];
            match outcome {
                Ok(true) => {
                    lock(&slot.breaker).record_success(shared.now_ms());
                    any_ok = true;
                    fields.push(("ok".to_string(), Json::Bool(true)));
                }
                Ok(false) => {
                    all_ok = false;
                    lock(&slot.breaker).record_failure(shared.now_ms());
                    fields.push(("ok".to_string(), Json::Bool(false)));
                    fields.push((
                        "error".to_string(),
                        Json::Str("unexpected pong".to_string()),
                    ));
                }
                Err(e) => {
                    all_ok = false;
                    lock(&slot.breaker).record_failure(shared.now_ms());
                    fields.push(("ok".to_string(), Json::Bool(false)));
                    fields.push(("error".to_string(), Json::Str(e.to_string())));
                }
            }
            let state = lock(&slot.breaker).state(shared.now_ms());
            fields.push(("breaker".to_string(), Json::Str(state.name().to_string())));
            reps.push(Json::Obj(fields));
        }
        entries.push(Json::obj([
            ("addr", Json::Str(shared.map.addrs()[s].clone())),
            ("ok", Json::Bool(any_ok)),
            ("replicas", Json::Arr(reps)),
        ]));
    }
    Json::obj([
        ("ok", Json::Bool(all_ok)),
        ("role", Json::Str("router".to_string())),
        ("shards", Json::Arr(entries)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead as _, BufReader, Write as _};
    use std::net::TcpListener;
    use std::thread;

    #[test]
    fn shard_map_parse_round_trips() {
        let text = r#"{"shards":[{"addr":"127.0.0.1:7001","until":-217},{"addr":"127.0.0.1:7002","until":310},{"addr":"127.0.0.1:7003"}]}"#;
        let map = ShardMap::parse(text).unwrap();
        assert_eq!(map.shard_count(), 3);
        assert_eq!(map.cuts().cuts(), &[-217, 310]);
        let rendered = map.to_json().render();
        let again = ShardMap::parse(&rendered).unwrap();
        assert_eq!(again.addrs(), map.addrs());
        assert_eq!(again.replica_sets(), map.replica_sets());
        assert_eq!(again.cuts(), map.cuts());
    }

    #[test]
    fn shard_map_parses_replicated_topologies() {
        let text = r#"{"shards":[
            {"replicas":["127.0.0.1:7001","127.0.0.1:8001"],"until":0},
            {"replicas":["127.0.0.1:7002","127.0.0.1:8002"]}
        ]}"#;
        let map = ShardMap::parse(text).unwrap();
        assert_eq!(map.shard_count(), 2);
        // The first replica of each set is preferred — and doubles as
        // the v1 `addr` when rendered.
        assert_eq!(map.addrs(), &["127.0.0.1:7001", "127.0.0.1:7002"]);
        assert_eq!(
            map.replica_sets()[1],
            vec!["127.0.0.1:7002".to_string(), "127.0.0.1:8002".to_string()]
        );
        let again = ShardMap::parse(&map.to_json().render()).unwrap();
        assert_eq!(again.replica_sets(), map.replica_sets());
        // Empty and duplicate replica sets are rejected.
        assert!(ShardMap::parse(r#"{"shards":[{"replicas":[]}]}"#).is_err());
        assert!(ShardMap::parse(r#"{"shards":[{"replicas":["a","a"]}]}"#).is_err());
        // Mixed v1/v2 entries parse; `replicas` wins over `addr`.
        let mixed = ShardMap::parse(
            r#"{"shards":[{"addr":"x","replicas":["y","z"],"until":3},{"addr":"w"}]}"#,
        )
        .unwrap();
        assert_eq!(mixed.addrs(), &["y", "w"]);
    }

    #[test]
    fn shard_map_rejects_malformed_topologies() {
        // Missing cut between shards.
        assert!(
            ShardMap::parse(r#"{"shards":[{"addr":"a"},{"addr":"b"}]}"#).is_err(),
            "missing `until` must be rejected"
        );
        // A cut on the last shard.
        assert!(
            ShardMap::parse(r#"{"shards":[{"addr":"a","until":0},{"addr":"b","until":9}]}"#)
                .is_err()
        );
        // Non-increasing cuts.
        assert!(ShardMap::parse(
            r#"{"shards":[{"addr":"a","until":5},{"addr":"b","until":5},{"addr":"c"}]}"#
        )
        .is_err());
        // No shards at all.
        assert!(ShardMap::parse(r#"{"shards":[]}"#).is_err());
        // A single unbounded shard is the degenerate-but-valid cluster.
        assert!(ShardMap::parse(r#"{"shards":[{"addr":"a"}]}"#).is_ok());
    }

    #[test]
    fn count_routes_to_owners_other_modes_to_the_touch_set() {
        let cuts = XCuts::new(vec![0, 100]).unwrap();
        // Off-cut: one owner, one touched shard — identical targets.
        assert_eq!(query_targets(&cuts, QueryMode::Count, 5, 5), (1, 1));
        assert_eq!(query_targets(&cuts, QueryMode::Collect, 5, 5), (1, 1));
        // Exactly on a cut: the owner is the right side; collect widens
        // to both shards whose closed data range contains the abscissa.
        assert_eq!(query_targets(&cuts, QueryMode::Count, 100, 100), (2, 2));
        assert_eq!(query_targets(&cuts, QueryMode::Collect, 100, 100), (1, 2));
        assert_eq!(query_targets(&cuts, QueryMode::Exists, 0, 0), (0, 1));
        assert_eq!(query_targets(&cuts, QueryMode::Limit(3), 0, 0), (0, 1));
    }

    #[test]
    fn shape_extent_covers_all_shapes() {
        assert_eq!(x_extent(Query::Line { x: 7, y: 0 }), (7, 7));
        assert_eq!(x_extent(Query::RayUp { x: -2, y: 1 }), (-2, -2));
        assert_eq!(x_extent(Query::RayDown { x: 3, y: 1 }), (3, 3));
        assert_eq!(
            x_extent(Query::Segment {
                x1: 9,
                y1: 0,
                x2: 4,
                y2: 5
            }),
            (4, 9)
        );
    }

    #[test]
    fn read_order_keeps_open_breakers_as_a_last_resort() {
        use BreakerState::{Closed, HalfOpen, Open};
        // A plain rotation when everything is closed.
        assert_eq!(read_order(&[Closed, Closed, Closed], 1), vec![1, 2, 0]);
        // Open breakers sink to the tail but are never dropped.
        assert_eq!(read_order(&[Open, Closed, HalfOpen], 0), vec![1, 2, 0]);
        assert_eq!(read_order(&[Closed, Open, Closed], 1), vec![2, 0, 1]);
        // All open: the rotation survives as the probe order.
        assert_eq!(read_order(&[Open, Open], 0), vec![0, 1]);
        assert_eq!(read_order(&[Closed], 0), vec![0]);
    }

    #[test]
    fn hedge_delay_derives_from_p99_and_clamps() {
        // A cold histogram must not hedge aggressively.
        assert_eq!(hedge_delay_us(0), HEDGE_DELAY_MIN_US);
        // In-window p99s pass through.
        assert_eq!(hedge_delay_us(100_000), 100_000);
        // Pathological tails cap out.
        assert_eq!(hedge_delay_us(10_000_000), HEDGE_DELAY_MAX_US);
    }

    #[test]
    fn infra_failures_trip_the_breaker_data_errors_do_not() {
        assert!(infra_failure(&CallError::Exhausted {
            attempts: 3,
            last: "recv: broken pipe".to_string(),
        }));
        assert!(infra_failure(&CallError::Terminal {
            code: code::SHUTTING_DOWN.to_string(),
            message: "draining".to_string(),
        }));
        assert!(!infra_failure(&CallError::Terminal {
            code: code::BAD_REQUEST.to_string(),
            message: "params carry no `seg`".to_string(),
        }));
        assert!(!infra_failure(&CallError::Terminal {
            code: code::DB.to_string(),
            message: "duplicate id".to_string(),
        }));
    }

    /// A [`Shared`] for routing unit tests — bound, but nothing accepts.
    fn test_shared(sets: Vec<Vec<String>>, cuts: Vec<i64>, cfg: RouterConfig) -> Shared {
        let map = ShardMap::new_replicated(sets, XCuts::new(cuts).unwrap()).unwrap();
        let (front, _listener) = Front::bind(front_config(&cfg)).unwrap();
        Shared::new(map, cfg, front)
    }

    /// A scripted replica that echoes an empty count result at every
    /// request's own id until the connection closes.
    fn scripted_replica() -> (String, thread::JoinHandle<u64>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let handle = thread::spawn(move || {
            let mut served = 0u64;
            let Ok((stream, _)) = listener.accept() else {
                return served;
            };
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut writer = stream;
            let mut line = String::new();
            loop {
                line.clear();
                match reader.read_line(&mut line) {
                    Ok(0) | Err(_) => return served,
                    Ok(_) => {}
                }
                let id = json::parse(line.trim())
                    .ok()
                    .and_then(|d| d.get("id").and_then(Json::as_f64))
                    .map(|f| f as u64);
                let reply = proto::ok_line(
                    id,
                    Json::obj([
                        ("ids", Json::Arr(Vec::new())),
                        ("count", Json::U64(0)),
                        ("mode", Json::Str("count".to_string())),
                    ]),
                );
                served += 1;
                if writer.write_all(reply.as_bytes()).is_err() || writer.write_all(b"\n").is_err() {
                    return served;
                }
            }
        });
        (addr, handle)
    }

    #[test]
    fn reads_fail_over_within_the_retry_budget_and_trip_the_breaker() {
        // Replica 0: a port that refuses connections (bound, then
        // dropped). Replica 1: a live scripted server.
        let dead_addr = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        let (live_addr, handle) = scripted_replica();
        let cfg = RouterConfig {
            attempt_timeout: Duration::from_millis(250),
            max_retries: 0, // budget = 1: a refused connect fails over instantly
            hedge_reads: false,
            ..RouterConfig::default()
        };
        let shared = test_shared(vec![vec![dead_addr, live_addr]], vec![], cfg);
        let mut clients = upstream_clients(&shared, 0);
        let line =
            r#"{"id":7,"method":"query","params":{"shape":"line","x":1,"y":0,"mode":"count"}}"#;
        // Three reads: each burns the one-attempt budget on the dead
        // preferred replica, fails over, and charges its breaker.
        for _ in 0..3 {
            let result = shard_read(&shared, &mut clients, 0, line).unwrap();
            assert_eq!(reply_count(&result), 0);
        }
        assert_eq!(shared.failover.get(Failover::Failovers), 3);
        assert_eq!(shared.replicas[0][0].calls.get(Call::Errors), 3);
        let now = shared.now_ms();
        assert_eq!(
            lock(&shared.replicas[0][0].breaker).state(now),
            BreakerState::Open,
            "three consecutive infra failures trip the breaker"
        );
        // With the breaker open the dead replica is demoted: the next
        // read goes straight to the live replica, no failover, no new
        // error against replica 0.
        let result = shard_read(&shared, &mut clients, 0, line).unwrap();
        assert_eq!(reply_count(&result), 0);
        assert_eq!(shared.failover.get(Failover::Failovers), 3);
        assert_eq!(shared.replicas[0][0].calls.get(Call::Errors), 3);
        assert_eq!(breaker_opens_total(&shared), 1);
        drop(clients);
        assert_eq!(
            handle.join().unwrap(),
            4,
            "the live replica served every read"
        );
    }
}
