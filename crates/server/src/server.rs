//! The TCP serving layer: a bounded worker pool over one shared database.
//!
//! Thread anatomy:
//!
//! * the `frontend` threads — one acceptor, one reader per
//!   connection — which decode requests and hand each to `submit`;
//! * a fixed pool of **workers** executes queued jobs against the shared
//!   backend — a read-only [`SegmentDatabase`] (the `Send + Sync` read
//!   path the sharded page cache provides) or a [`WriteEngine`]
//!   ([`Server::start_writable`]) that additionally serves the `insert`
//!   / `delete` / `flush` write methods and merges the delta overlay
//!   into every query;
//! * on a writable server with [`ServerConfig::compact_min_tombs`] set,
//!   one **compactor** thread folds lazy-delete tombstones back into
//!   the index in the background (DESIGN.md §13).
//!
//! A worker that pops a query also takes its share of the queries
//! already queued behind it and runs the group as **one** shared index
//! walk (`take_group`); it never waits for more to arrive, so with no
//! backlog every query runs alone (DESIGN.md §11).
//!
//! Overload policy is refuse-fast: the job queue is bounded and a full
//! queue answers `overloaded` immediately instead of queueing without
//! bound; a request that misses its deadline answers `timeout`, its
//! `ReplySlot` is marked abandoned, and workers skip abandoned jobs
//! that have not started — so under sustained overload dead jobs shed
//! from the queue instead of burning worker capacity. Shutdown (API
//! call or wire `shutdown`) stops the front-end, drains queued jobs
//! with `shutting_down` errors and joins the pool.
//!
//! Connection hardening (admission gate, idle reaping, write deadlines,
//! bounded drain, oversized lines — DESIGN.md §10 "Network failure
//! model") lives in `frontend`; its counters and the worker
//! pool's are tallied together in the `stats` method (`server` block
//! plus the process-wide `net` block from [`segdb_obs::net`]).

use crate::chaos::NetFaultHandle;
use crate::frontend::{
    bump, lock, Front, FrontConfig, Handler, Reply, DEFAULT_MAX_CONNECTIONS, READ_POLL,
};
use crate::lifecycle::{Lifecycle, RequestRecord};
use crate::proto::{self, code, Command, Method, Request};
use segdb_core::report::ids;
use segdb_core::{
    DbError, Query, QueryAnswer, QueryMode, QueryTrace, SegmentDatabase, WriteAck, WriteEngine,
};
use segdb_geom::{Direction, VerticalQuery};
use segdb_obs::{Json, StageTimer, TraceSummary};
use std::collections::VecDeque;
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Most queries one shared walk serves, whatever the backlog.
const GROUP_CAP: usize = 64;

/// Tunables for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; `127.0.0.1:0` picks a free port (see [`Server::addr`]).
    pub addr: String,
    /// Executor threads sharing the database (min 1).
    pub workers: usize,
    /// Jobs admitted but not yet executing; a request arriving beyond
    /// this is refused with `overloaded`.
    pub queue_depth: usize,
    /// Deadline per request, measured from admission to reply.
    pub request_timeout: Duration,
    /// Longest accepted request line in bytes (newline excluded).
    pub max_line_bytes: usize,
    /// Deadline for writing one reply; a stalled peer that blocks past
    /// it loses the connection (a *write drop*).
    pub write_timeout: Duration,
    /// A full request line must arrive within this window; idle and
    /// slow-loris connections are reaped when it passes.
    pub idle_timeout: Duration,
    /// Connections served concurrently; one beyond this is answered
    /// `overloaded` and closed at the accept gate (*shed*).
    pub max_connections: usize,
    /// Upper bound on [`Server::wait`]'s wait for live connections to
    /// finish after shutdown.
    pub drain_timeout: Duration,
    /// Slow-query log capacity: the K worst requests kept for the
    /// `slowlog` wire op (0 disables the log).
    pub slowlog_entries: usize,
    /// Only requests at least this slow (admission → reply written)
    /// enter the slow-query log; zero admits every request.
    pub slowlog_threshold: Duration,
    /// Optional wire-fault schedule applied at accept time (the
    /// torture harness arms it; production leaves it `None`).
    pub chaos: Option<NetFaultHandle>,
    /// Background tombstone compaction (writable servers only): run a
    /// compaction pass whenever the index holds at least this many
    /// tombstones. `0` disables the background thread.
    pub compact_min_tombs: u64,
    /// How often the background compaction thread re-checks the
    /// tombstone count.
    pub compact_interval: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_depth: 64,
            request_timeout: Duration::from_secs(5),
            max_line_bytes: 64 * 1024,
            write_timeout: Duration::from_secs(2),
            idle_timeout: Duration::from_secs(30),
            max_connections: DEFAULT_MAX_CONNECTIONS,
            drain_timeout: Duration::from_secs(5),
            slowlog_entries: 32,
            slowlog_threshold: Duration::ZERO,
            chaos: None,
            compact_min_tombs: 0,
            compact_interval: Duration::from_millis(500),
        }
    }
}

/// What the server executes requests against: a read-only database
/// snapshot, or a [`WriteEngine`] that additionally accepts the write
/// methods and merges the delta overlay into every query.
enum Backend {
    /// Queries go straight at the shared database; writes answer
    /// `read_only`.
    ReadOnly(Arc<SegmentDatabase>),
    /// Queries and writes go through the write engine (snapshot reads
    /// under its epoch lock).
    Writable(Arc<WriteEngine>),
}

impl Backend {
    /// Run `f` against the current database snapshot.
    fn with_db<R>(&self, f: impl FnOnce(&SegmentDatabase) -> R) -> R {
        match self {
            Backend::ReadOnly(db) => f(db),
            Backend::Writable(eng) => eng.with_db(f),
        }
    }

    /// The engine, when the server is writable.
    fn engine(&self) -> Option<&Arc<WriteEngine>> {
        match self {
            Backend::ReadOnly(_) => None,
            Backend::Writable(eng) => Some(eng),
        }
    }

    /// Run one query — a group of one (delta-merged when writable).
    fn query(&self, q: &Query, mode: QueryMode) -> Result<(QueryAnswer, QueryTrace), DbError> {
        match self {
            Backend::ReadOnly(db) => db.query(q, mode),
            Backend::Writable(eng) => eng.query(q, mode),
        }
    }

    /// Run a group of canonical-frame queries as one shared index walk
    /// (delta-merged per query when writable).
    fn query_batch(
        &self,
        items: &[(VerticalQuery, QueryMode)],
    ) -> Vec<Result<(QueryAnswer, QueryTrace), DbError>> {
        match self {
            Backend::ReadOnly(db) => db.query_batch_canonical_mode(items),
            Backend::Writable(eng) => eng.query_batch_canonical_mode(items),
        }
    }
}

/// Monotone worker-pool counters; the `stats` method reports them next
/// to the front-end's.
#[derive(Debug, Default)]
struct ServerStats {
    overloaded: AtomicU64,
    timeouts: AtomicU64,
}

/// One admitted request travelling from a connection reader to a worker,
/// queued beside the [`Method`] it asks for. The [`StageTimer`] starts at
/// admission; the worker's first lap is the queue wait, its second the
/// index walk, and the connection reader closes the lifecycle when the
/// reply hits the socket.
struct Job {
    id: Option<u64>,
    slot: Arc<ReplySlot>,
    timer: StageTimer,
}

/// What a worker takes from the queue: a run of queries for one shared
/// walk, or one command.
enum Group {
    Queries(Vec<(Job, Query, QueryMode)>),
    Command(Job, Command),
}

/// Why a request was refused: wire error code and message.
type Refusal = (&'static str, String);

/// What executing one request yields: the reply's `result`, plus — for
/// the requests that enter the lifecycle histograms — what only the
/// worker can measure about them.
type Outcome = Result<(Json, Option<ExecInfo>), Refusal>;

/// The worker-measured pieces of one request's lifecycle record.
struct ExecInfo {
    /// Wire method name (`query_line`, …, `trace`, `insert`, `delete`).
    op: &'static str,
    /// Histogram bucket key: the query mode's name, or `op`.
    mode: &'static str,
    /// Pages the walk touched (physical reads + buffer-pool hits).
    pages: u64,
    /// Hits the answer witnessed.
    hits: u64,
    /// Shared walk the request ran in (0 = ran alone), and its size.
    batch_id: u64,
    batch_size: u32,
}

/// A lifecycle record waiting for its final stage: everything measured
/// up to the end of execution, carried from the worker to the
/// connection reader, which adds the reply-write lap and records it.
struct PendingRecord {
    timer: StageTimer,
    id: Option<u64>,
    queue_us: u64,
    exec_us: u64,
    info: ExecInfo,
}

/// One worker-produced reply plus the lifecycle record still missing
/// its reply-write stage.
struct Done {
    reply: Reply,
    pending: Option<PendingRecord>,
}

impl Done {
    fn refused(id: Option<u64>, code: &str, message: &str) -> Done {
        Done {
            reply: Reply::err(id, code, message),
            pending: None,
        }
    }
}

/// Single-use rendezvous for one reply. The connection reader waits
/// with a deadline; on timeout the slot is marked abandoned so a worker
/// that has not started the job yet skips it entirely, and a fill after
/// the deadline is simply discarded.
#[derive(Default)]
struct ReplySlot {
    cell: Mutex<Option<Done>>,
    ready: Condvar,
    abandoned: AtomicBool,
}

impl ReplySlot {
    fn fill(&self, done: Done) {
        *lock(&self.cell) = Some(done);
        self.ready.notify_all();
    }

    /// True once the requester gave up waiting — executing the job would
    /// only produce a reply nobody reads. Best-effort: a job already
    /// running when the deadline passes still completes and is discarded.
    fn is_abandoned(&self) -> bool {
        self.abandoned.load(Ordering::Acquire)
    }

    fn wait_for(&self, timeout: Duration) -> Option<Done> {
        let deadline = Instant::now() + timeout;
        let mut slot = lock(&self.cell);
        while slot.is_none() {
            let now = Instant::now();
            if now >= deadline {
                self.abandoned.store(true, Ordering::Release);
                return None;
            }
            slot = self
                .ready
                .wait_timeout(slot, deadline - now)
                .unwrap_or_else(|p| p.into_inner())
                .0;
        }
        slot.take()
    }
}

struct Shared {
    backend: Backend,
    /// The database's fixed query direction: all a query's translation
    /// needs, so a group is translated without the database lock.
    direction: Direction,
    queue: Mutex<VecDeque<(Job, Method)>>,
    not_empty: Condvar,
    front: Arc<Front>,
    queue_depth: usize,
    request_timeout: Duration,
    workers: usize,
    stats: ServerStats,
    /// Per-mode stage histograms + the slow-query log (DESIGN.md §12).
    lifecycle: Lifecycle,
}

impl Shared {
    /// Wake every idle worker so it sees the stop flag. Taking the queue
    /// lock first closes the window between a worker's stop check and
    /// its wait.
    fn wake_workers(&self) {
        drop(lock(&self.queue));
        self.not_empty.notify_all();
    }
}

/// The server's side of a connection: requests go through the bounded
/// queue, and the lifecycle record of the last reply waits here for its
/// write lap.
impl Handler for Shared {
    type Conn = Option<PendingRecord>;

    fn open(&self, _seq: u64) -> Self::Conn {
        None
    }

    fn handle(&self, conn: &mut Self::Conn, request: Request, _raw: &str) -> Reply {
        let done = submit(self, request);
        // Counted before the reply can reach the client (see
        // `Lifecycle::record_exec`); only the write lap waits.
        if let Some(p) = &done.pending {
            (self.lifecycle).record_exec(p.info.mode, p.queue_us, p.exec_us, p.info.pages);
        }
        *conn = done.pending;
        done.reply
    }

    fn written(&self, conn: &mut Self::Conn) {
        // The write lap closes the lifecycle — even when the write
        // failed (the server still paid the cost; the duration then
        // includes the stall that killed the connection).
        if let Some(mut pending) = conn.take() {
            let write_us = pending.timer.lap_us();
            self.lifecycle.record_write(RequestRecord {
                id: pending.id,
                op: pending.info.op,
                mode: pending.info.mode,
                queue_us: pending.queue_us,
                exec_us: pending.exec_us,
                write_us,
                total_us: pending.timer.total_us(),
                pages: pending.info.pages,
                hits: pending.info.hits,
                batch_id: pending.info.batch_id,
                batch_size: pending.info.batch_size,
            });
        }
    }

    fn wire_shutdown(&self) {
        self.wake_workers();
    }
}

/// A running server. Obtain the bound address with [`Server::addr`],
/// stop it with [`Server::shutdown`] (or the wire `shutdown` method) and
/// reap its threads with [`Server::wait`].
pub struct Server {
    shared: Arc<Shared>,
    acceptor: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
    compactor: Option<JoinHandle<()>>,
}

impl Server {
    /// Bind, spawn the worker pool and the acceptor, and start serving
    /// `db` read-only — which the caller may keep querying concurrently.
    /// Write methods answer `read_only`; see [`Server::start_writable`].
    pub fn start(db: Arc<SegmentDatabase>, cfg: ServerConfig) -> io::Result<Server> {
        // Enter serving with a clean buffer pool: build() already cleans,
        // but an offline mutation (insert/remove through `&mut` before
        // the Arc was created) may have left dirty pages resident. Write
        // them back up front — keeping the pool warm — so serving is
        // pure reads plus clean evictions.
        db.pager()
            .clean_pool()
            .map_err(|e| io::Error::other(e.to_string()))?;
        Server::start_backend(Backend::ReadOnly(db), cfg)
    }

    /// Bind and serve a [`WriteEngine`]: queries merge the delta
    /// overlay, and the `insert` / `delete` / `flush` wire methods are
    /// live. With [`ServerConfig::compact_min_tombs`] `> 0` a background
    /// thread folds lazy-delete tombstones back into the index whenever
    /// their count reaches the threshold.
    pub fn start_writable(engine: Arc<WriteEngine>, cfg: ServerConfig) -> io::Result<Server> {
        engine
            .with_db(|db| db.pager().clean_pool())
            .map_err(|e| io::Error::other(e.to_string()))?;
        Server::start_backend(Backend::Writable(engine), cfg)
    }

    fn start_backend(backend: Backend, cfg: ServerConfig) -> io::Result<Server> {
        let (front, listener) = Front::bind(FrontConfig {
            addr: cfg.addr,
            name: "segdb",
            max_line_bytes: cfg.max_line_bytes,
            write_timeout: cfg.write_timeout,
            idle_timeout: cfg.idle_timeout,
            max_connections: cfg.max_connections,
            drain_timeout: cfg.drain_timeout,
            accept_chaos: cfg.chaos,
        })?;
        let shared = Arc::new(Shared {
            direction: backend.with_db(|db| db.direction()),
            backend,
            queue: Mutex::new(VecDeque::new()),
            not_empty: Condvar::new(),
            front,
            queue_depth: cfg.queue_depth,
            request_timeout: cfg.request_timeout,
            workers: cfg.workers.max(1),
            stats: ServerStats::default(),
            lifecycle: Lifecycle::new(
                cfg.slowlog_entries,
                u64::try_from(cfg.slowlog_threshold.as_micros()).unwrap_or(u64::MAX),
            ),
        });
        let workers = (0..shared.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("segdb-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
            })
            .collect::<io::Result<Vec<_>>>()?;
        let acceptor = shared.front.spawn(listener, Arc::clone(&shared))?;
        let compactor = match (shared.backend.engine(), cfg.compact_min_tombs) {
            (Some(engine), min_tombs) if min_tombs > 0 => {
                let engine = Arc::clone(engine);
                let shared = Arc::clone(&shared);
                let interval = cfg.compact_interval;
                Some(
                    thread::Builder::new()
                        .name("segdb-compactor".to_string())
                        .spawn(move || compact_loop(&shared, &engine, min_tombs, interval))?,
                )
            }
            _ => None,
        };
        Ok(Server {
            shared,
            acceptor,
            workers,
            compactor,
        })
    }

    /// The address actually bound (resolves `:0` to the chosen port).
    pub fn addr(&self) -> SocketAddr {
        self.shared.front.addr()
    }

    /// Begin a graceful shutdown (idempotent, non-blocking).
    pub fn shutdown(&self) {
        self.shared.front.stop();
        self.shared.wake_workers();
    }

    /// Block until the server has stopped and every pool thread exited,
    /// then wait — at most [`ServerConfig::drain_timeout`] — for live
    /// connections to drain. Returns immediately after a completed
    /// shutdown; otherwise waits for one (API or wire-initiated).
    pub fn wait(self) {
        let _ = self.acceptor.join();
        for w in self.workers {
            let _ = w.join();
        }
        if let Some(c) = self.compactor {
            let _ = c.join();
        }
        self.shared.front.drain();
    }
}

/// The background tombstone janitor: every `interval`, if the index
/// holds at least `min_tombs` lazy-delete tombstones, fold the delta
/// and rebuild the live set ([`WriteEngine::compact`]), restoring the
/// count-mode fast paths to their tombstone-free cost. Errors are
/// swallowed — a transient storage fault must not kill the thread; the
/// next tick retries.
fn compact_loop(shared: &Shared, engine: &WriteEngine, min_tombs: u64, interval: Duration) {
    let step = READ_POLL.min(interval.max(Duration::from_millis(1)));
    let mut since_check = Duration::ZERO;
    while !shared.front.stopping() {
        thread::sleep(step);
        since_check += step;
        if since_check < interval {
            continue;
        }
        since_check = Duration::ZERO;
        if engine.with_db(|db| db.tomb_count()) >= min_tombs {
            let _ = engine.compact();
        }
    }
}

/// Pop the next job and, when it is a query, this worker's share of the
/// queries queued behind it: with `len` jobs queued and `workers`
/// workers, `ceil(len / workers)` queries in all, at most [`GROUP_CAP`].
/// The share is taken from wherever the queries sit (requests from
/// distinct connections have no mutual order); other jobs keep their
/// positions. With no more jobs queued than workers the share is one —
/// the group forms from backlog alone, never from waiting. `None` when
/// the queue is empty.
fn take_group(queue: &mut VecDeque<(Job, Method)>, workers: usize) -> Option<Group> {
    let share = queue.len().div_ceil(workers).min(GROUP_CAP);
    let mut group = match queue.pop_front()? {
        (job, Method::Query(q, mode)) => vec![(job, q, mode)],
        (job, Method::Command(command)) => return Some(Group::Command(job, command)),
    };
    let mut i = 0;
    while i < queue.len() && group.len() < share {
        match queue[i].1 {
            Method::Query(q, mode) => group.extend(queue.remove(i).map(|(job, _)| (job, q, mode))),
            Method::Command(_) => i += 1,
        }
    }
    Some(Group::Queries(group))
}

fn worker_loop(shared: &Shared) {
    loop {
        let group = {
            let mut queue = lock(&shared.queue);
            loop {
                let group = take_group(&mut queue, shared.workers);
                if group.is_some() || shared.front.stopping() {
                    break group;
                }
                queue = shared
                    .not_empty
                    .wait(queue)
                    .unwrap_or_else(|p| p.into_inner());
            }
        };
        match group {
            None => break, // stopping
            Some(Group::Queries(jobs)) => execute_queries(shared, jobs),
            Some(Group::Command(mut job, command)) => {
                let queue_us = job.timer.lap_us();
                let outcome = execute(shared, job.id, &command);
                finish(job, queue_us, outcome);
            }
        }
    }
    // Refuse whatever was still queued when the stop flag went up.
    let mut queue = lock(&shared.queue);
    while let Some((job, _)) = queue.pop_front() {
        job.slot.fill(Done::refused(
            job.id,
            code::SHUTTING_DOWN,
            "server is shutting down",
        ));
    }
}

/// The one place a worker's outcome becomes a reply: close the
/// execution lap, encode the line, and attach the lifecycle record the
/// connection reader completes after the write.
fn finish(job: Job, queue_us: u64, outcome: Outcome) {
    let mut timer = job.timer;
    let exec_us = timer.lap_us();
    let done = match outcome {
        Ok((result, info)) => Done {
            reply: Reply::ok(job.id, result),
            pending: info.map(|info| PendingRecord {
                timer,
                id: job.id,
                queue_us,
                exec_us,
                info,
            }),
        },
        Err((code, message)) => Done::refused(job.id, code, &message),
    };
    job.slot.fill(done);
}

/// Execute a group of query jobs — one job when nothing was queued
/// behind it — as one shared index walk, replies demultiplexed back to
/// each request's [`ReplySlot`] by its own correlation id. Jobs whose
/// requester already timed out are dropped before the walk; a group of
/// one reports `batch_id = 0`.
fn execute_queries(shared: &Shared, jobs: Vec<(Job, Query, QueryMode)>) {
    let mut live: Vec<_> = jobs
        .into_iter()
        .filter(|(job, ..)| !job.slot.is_abandoned())
        .collect();
    let mut queue_laps: Vec<u64> = Vec::with_capacity(live.len());
    let mut prepared: Vec<Result<(VerticalQuery, QueryMode), DbError>> =
        Vec::with_capacity(live.len());
    for (job, q, mode) in &mut live {
        queue_laps.push(job.timer.lap_us());
        prepared.push(q.in_frame(shared.direction).map(|q| (q, *mode)));
    }
    let items: Vec<(VerticalQuery, QueryMode)> = prepared
        .iter()
        .filter_map(|p| p.as_ref().ok().copied())
        .collect();
    let mut results = shared.backend.query_batch(&items).into_iter();
    for (((job, q, _), prep), queue_us) in live.into_iter().zip(prepared).zip(queue_laps) {
        let outcome = prep
            .and_then(|_| results.next().expect("one result per prepared query"))
            .map(|(answer, trace)| {
                let info = ExecInfo {
                    op: proto::query_wire(&q).0,
                    mode: trace.mode.name(),
                    pages: trace.io.reads + trace.io.cache_hits,
                    hits: answer.count(),
                    batch_id: trace.batch_id,
                    batch_size: trace.batch_size,
                };
                (Json::obj(answer_json(&answer, &trace)), Some(info))
            })
            .map_err(db_refusal);
        finish(job, queue_us, outcome);
    }
}

/// Admit a request into the bounded queue and await its reply. The
/// request's [`StageTimer`] starts here, at admission.
fn submit(shared: &Shared, request: Request) -> Done {
    let slot = Arc::new(ReplySlot::default());
    {
        let mut queue = lock(&shared.queue);
        if shared.front.stopping() {
            return Done::refused(request.id, code::SHUTTING_DOWN, "server is shutting down");
        }
        if queue.len() >= shared.queue_depth {
            bump(&shared.stats.overloaded);
            return Done::refused(
                request.id,
                code::OVERLOADED,
                "job queue full; back off and retry",
            );
        }
        let job = Job {
            id: request.id,
            slot: Arc::clone(&slot),
            timer: StageTimer::start(),
        };
        queue.push_back((job, request.method));
    }
    shared.not_empty.notify_one();
    slot.wait_for(shared.request_timeout).unwrap_or_else(|| {
        bump(&shared.stats.timeouts);
        Done::refused(request.id, code::TIMEOUT, "request missed its deadline")
    })
}

/// Render a mode-shaped answer: `ids` carries the segments when the
/// mode materializes them (empty for count/exists), `count` the hit
/// count the answer witnesses, `mode` echoes the mode served.
fn answer_json(answer: &QueryAnswer, trace: &QueryTrace) -> Vec<(&'static str, Json)> {
    let id_list = answer.segments().map(ids).unwrap_or_default();
    vec![
        (
            "ids",
            Json::Arr(id_list.into_iter().map(Json::U64).collect()),
        ),
        ("count", Json::U64(answer.count())),
        ("mode", Json::Str(trace.mode.name().to_string())),
        ("trace", trace.to_json()),
    ]
}

/// Refuse with a database failure under its wire error code. Transient
/// storage faults (injected or real I/O errors) answer `io_error` — a
/// worker-surviving condition — instead of the generic `db`.
fn db_refusal(e: DbError) -> Refusal {
    let code = if e.is_transient() { code::IO } else { code::DB };
    (code, e.to_string())
}

/// The engine behind the write and catch-up methods, or the `read_only`
/// refusal of a server started without one.
fn engine_or_read_only(shared: &Shared) -> Result<&Arc<WriteEngine>, Refusal> {
    shared.backend.engine().ok_or_else(|| {
        (
            code::READ_ONLY,
            "database is served read-only; start the server with a WAL to write".to_string(),
        )
    })
}

/// Run one write against the engine; `op` names the method for the
/// lifecycle histograms.
fn execute_write(
    shared: &Shared,
    op: &'static str,
    run: impl FnOnce(&WriteEngine) -> Result<WriteAck, DbError>,
) -> Outcome {
    let ack = run(engine_or_read_only(shared)?).map_err(db_refusal)?;
    let info = ExecInfo {
        op,
        mode: op,
        pages: 0,
        hits: u64::from(ack.applied),
        batch_id: 0,
        batch_size: 0,
    };
    let result = Json::obj([
        ("seq", Json::U64(ack.seq)),
        ("applied", Json::Bool(ack.applied)),
        ("duplicate", Json::Bool(ack.duplicate)),
    ]);
    Ok((result, Some(info)))
}

/// Execute one non-query job. Counting and encoding the outcome is the
/// caller's business ([`finish`] and the front-end).
fn execute(shared: &Shared, id: Option<u64>, command: &Command) -> Outcome {
    // The protocol guarantees writes carry a correlation id — it doubles
    // as the idempotence key.
    let key = id.unwrap_or(0);
    let result = match *command {
        Command::Insert(seg) => return execute_write(shared, "insert", |e| e.insert(key, seg)),
        Command::Delete(seg) => return execute_write(shared, "delete", |e| e.delete(key, seg)),
        Command::Flush => {
            engine_or_read_only(shared)?.flush().map_err(db_refusal)?;
            Json::Bool(true)
        }
        Command::Trace(q) => {
            segdb_obs::trace::clear();
            let result =
                segdb_obs::trace::with_tracing(|| shared.backend.query(&q, QueryMode::Collect));
            let (events, dropped) = segdb_obs::trace::drain();
            let (answer, trace) = result.map_err(db_refusal)?;
            let info = ExecInfo {
                op: "trace",
                mode: "trace",
                pages: trace.io.reads + trace.io.cache_hits,
                hits: answer.count(),
                batch_id: 0,
                batch_size: 0,
            };
            let mut fields = answer_json(&answer, &trace);
            fields.push((
                "spans",
                TraceSummary::from_events(&events, dropped).to_json(),
            ));
            return Ok((Json::obj(fields), Some(info)));
        }
        Command::Stats => stats_json(shared),
        Command::SlowLog => shared.lifecycle.slowlog_json(),
        Command::Health => Json::obj([
            ("ok", Json::Bool(true)),
            ("role", Json::Str("server".to_string())),
            ("writable", Json::Bool(shared.backend.engine().is_some())),
            ("segments", Json::U64(shared.backend.with_db(|db| db.len()))),
        ]),
        // A single node is its own one-shard "cluster".
        Command::ShardMap => Json::obj([
            ("role", Json::Str("single".to_string())),
            ("shards", Json::Arr(Vec::new())),
        ]),
        Command::WalSince { from } => {
            let engine = engine_or_read_only(shared)?;
            let recs = engine
                .records_since(from)
                .map_err(|e| (code::DB, e.to_string()))?;
            Json::obj([
                ("from", Json::U64(from)),
                ("last_seq", Json::U64(engine.last_seq())),
                (
                    "records",
                    Json::Arr(recs.iter().map(proto::wal_record_json).collect()),
                ),
            ])
        }
        Command::SyncFrom { ref peer, from } => {
            sync_from_peer(engine_or_read_only(shared)?, peer, from)?
        }
        // Answered inline by the front-end; kept total for safety.
        Command::Ping => Json::Str("pong".to_string()),
        Command::Shutdown => Json::Bool(true),
    };
    Ok((result, None))
}

/// Pull the records after `from` (defaulting to this engine's own last
/// WAL sequence number) from `peer` and apply them idempotently. The
/// replicas of one shard advance their sequence counters in lockstep —
/// they see the same fan-out write stream — so the local cursor is
/// directly meaningful to the peer.
fn sync_from_peer(engine: &WriteEngine, peer: &str, from: Option<u64>) -> Result<Json, Refusal> {
    use crate::client::{Client, ClientConfig};
    let from = from.unwrap_or_else(|| engine.last_seq());
    let mut client = Client::new(ClientConfig {
        addr: peer.to_string(),
        max_retries: 2,
        ..ClientConfig::default()
    });
    let reply = client
        .wal_since(from)
        .map_err(|e| (code::IO, format!("peer {peer}: {e}")))?;
    let records = reply
        .get("records")
        .and_then(Json::as_arr)
        .ok_or_else(|| (code::IO, format!("peer {peer}: reply carries no `records`")))?;
    let mut applied = 0u64;
    let mut skipped = 0u64;
    for v in records {
        let rec = proto::parse_wal_record(v)
            .map_err(|m| (code::IO, format!("peer {peer}: bad record: {m}")))?;
        let ack = engine.sync_apply(&rec).map_err(db_refusal)?;
        if ack.applied && !ack.duplicate {
            applied += 1;
        } else {
            skipped += 1;
        }
    }
    Ok(Json::obj([
        ("peer", Json::Str(peer.to_string())),
        ("from", Json::U64(from)),
        ("received", Json::U64(records.len() as u64)),
        ("applied", Json::U64(applied)),
        ("skipped", Json::U64(skipped)),
        ("last_seq", Json::U64(engine.last_seq())),
    ]))
}

/// The `writer` stats block of a writable server: WAL lifetime
/// counters, the live delta size and the engine's epoch/compaction
/// tallies. `Json::Null` for a read-only server.
fn writer_json(shared: &Shared) -> Json {
    let Some(engine) = shared.backend.engine() else {
        return Json::Null;
    };
    let (wal, delta_size) = engine.wal_stats();
    let c = engine.counters();
    let get = |a: &AtomicU64| Json::U64(a.load(Ordering::Relaxed));
    let (tombs, wal_seq) = engine.with_db(|db| (db.tomb_count(), db.wal_seq()));
    Json::obj([
        ("wal_bytes", Json::U64(wal.bytes)),
        ("wal_records", Json::U64(wal.records)),
        ("wal_resets", Json::U64(wal.resets)),
        ("group_commits", Json::U64(wal.group_commits)),
        ("delta_size", Json::U64(delta_size as u64)),
        ("inserts", get(&c.inserts)),
        ("deletes", get(&c.deletes)),
        ("delete_misses", get(&c.delete_misses)),
        ("duplicates", get(&c.duplicates)),
        ("rebuilds", get(&c.rebuilds)),
        ("compactions", get(&c.compactions)),
        ("epoch", get(&c.epoch)),
        ("tombstones", Json::U64(tombs)),
        ("wal_seq", Json::U64(wal_seq)),
    ])
}

fn stats_json(shared: &Shared) -> Json {
    let (segments, index, space_blocks, io, resident, capacity, metrics) =
        shared.backend.with_db(|db| {
            (
                db.len(),
                format!("{:?}", db.kind()),
                db.space_blocks() as u64,
                db.pager().stats(),
                db.pager().cached_pages() as u64,
                db.pager().cache_capacity() as u64,
                db.metrics_json().unwrap_or(Json::Null),
            )
        });
    // Every page access is a device read or a buffer-pool hit.
    let lookups = io.reads + io.cache_hits;
    let hit_rate = if lookups == 0 {
        0.0
    } else {
        io.cache_hits as f64 / lookups as f64
    };
    let get = |c: &AtomicU64| Json::U64(c.load(Ordering::Relaxed));
    let mut server = vec![
        ("workers", Json::U64(shared.workers as u64)),
        ("queue_depth", Json::U64(shared.queue_depth as u64)),
        ("overloaded", get(&shared.stats.overloaded)),
        ("timeouts", get(&shared.stats.timeouts)),
    ];
    server.extend(shared.front.stats_fields());
    Json::obj([
        ("segments", Json::U64(segments)),
        ("index", Json::Str(index)),
        ("space_blocks", Json::U64(space_blocks)),
        (
            "io",
            Json::obj([
                ("reads", Json::U64(io.reads)),
                ("writes", Json::U64(io.writes)),
                ("cache_hits", Json::U64(io.cache_hits)),
                ("allocations", Json::U64(io.allocations)),
                ("frees", Json::U64(io.frees)),
            ]),
        ),
        (
            "cache",
            Json::obj([
                ("resident_pages", Json::U64(resident)),
                ("capacity", Json::U64(capacity)),
                ("hit_rate", Json::F64(hit_rate)),
            ]),
        ),
        ("writer", writer_json(shared)),
        ("server", Json::obj(server)),
        ("latency", shared.lifecycle.latency_json()),
        ("pages", shared.lifecycle.pages_json()),
        (
            "trace",
            Json::obj([(
                "dropped_events",
                Json::U64(segdb_obs::trace::dropped_total()),
            )]),
        ),
        ("faults", segdb_obs::faults::totals().snapshot().to_json()),
        ("net", segdb_obs::net::totals().snapshot().to_json()),
        ("metrics", metrics),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bare(line: &str) -> Done {
        Done {
            reply: Reply {
                line: line.to_string(),
                ok: true,
            },
            pending: None,
        }
    }

    fn line_of(done: Option<Done>) -> Option<String> {
        done.map(|d| d.reply.line)
    }

    #[test]
    fn reply_slot_returns_filled_value() {
        let slot = Arc::new(ReplySlot::default());
        let filler = Arc::clone(&slot);
        let t = thread::spawn(move || filler.fill(bare("hello")));
        assert_eq!(
            line_of(slot.wait_for(Duration::from_secs(5))).as_deref(),
            Some("hello")
        );
        t.join().unwrap();
    }

    #[test]
    fn reply_slot_times_out_when_never_filled() {
        let slot = ReplySlot::default();
        assert!(slot.wait_for(Duration::from_millis(10)).is_none());
    }

    #[test]
    fn timed_out_slot_is_marked_abandoned() {
        let slot = ReplySlot::default();
        assert!(!slot.is_abandoned());
        assert!(slot.wait_for(Duration::ZERO).is_none());
        assert!(slot.is_abandoned(), "timeout abandons the slot");
        // A filled slot is never abandoned.
        let slot = ReplySlot::default();
        slot.fill(bare("ok"));
        assert_eq!(
            line_of(slot.wait_for(Duration::ZERO)).as_deref(),
            Some("ok")
        );
        assert!(!slot.is_abandoned());
    }

    #[test]
    fn late_fill_after_timeout_is_discarded() {
        let slot = ReplySlot::default();
        assert!(slot.wait_for(Duration::ZERO).is_none());
        slot.fill(bare("late"));
        // A second waiter (none exists in practice) would see the value;
        // the point is that filling a timed-out slot must not panic.
        assert_eq!(
            line_of(slot.wait_for(Duration::ZERO)).as_deref(),
            Some("late")
        );
    }

    /// A queue of jobs numbered by position; `Q` is a query, anything
    /// else a write (a `flush`).
    fn queue_of(kinds: &str) -> VecDeque<(Job, Method)> {
        kinds
            .chars()
            .enumerate()
            .map(|(i, kind)| {
                let job = Job {
                    id: Some(i as u64),
                    slot: Arc::new(ReplySlot::default()),
                    timer: StageTimer::start(),
                };
                match kind {
                    'Q' => (
                        job,
                        Method::Query(Query::Line { x: 0, y: 0 }, QueryMode::Count),
                    ),
                    _ => (job, Method::Command(Command::Flush)),
                }
            })
            .collect()
    }

    fn ids<'a>(jobs: impl IntoIterator<Item = &'a Job>) -> Vec<u64> {
        jobs.into_iter().map(|job| job.id.unwrap()).collect()
    }

    fn group_ids(group: Option<Group>) -> Vec<u64> {
        match group {
            None => Vec::new(),
            Some(Group::Queries(jobs)) => ids(jobs.iter().map(|(job, ..)| job)),
            Some(Group::Command(job, _)) => ids([&job]),
        }
    }

    #[test]
    fn a_worker_takes_its_share_of_the_queued_queries() {
        // (queue, workers) → (group taken, what stays queued, in order).
        let cases: [(&str, usize, &[u64], &[u64]); 8] = [
            // No more jobs than workers: the query runs alone.
            ("Q", 1, &[0], &[]),
            ("QQ", 2, &[0], &[1]),
            ("QQQQ", 4, &[0], &[1, 2, 3]),
            // Backlog: ceil(len / workers) queries in all.
            ("QQQ", 2, &[0, 1], &[2]),
            ("QQQQQQQQ", 1, &[0, 1, 2, 3, 4, 5, 6, 7], &[]),
            // Writes count towards the backlog but are never taken and
            // keep their positions; the share is filled past them.
            ("QWQWQQ", 2, &[0, 2, 4], &[1, 3, 5]),
            // Fewer queries queued than the share asks for.
            ("QWWWWQ", 1, &[0, 5], &[1, 2, 3, 4]),
            // A write at the head runs alone whatever queues behind it.
            ("WQQQ", 1, &[0], &[1, 2, 3]),
        ];
        for (kinds, workers, group, rest) in cases {
            let mut queue = queue_of(kinds);
            let taken = take_group(&mut queue, workers);
            assert_eq!(group_ids(taken), group, "{kinds} / {workers} workers");
            assert_eq!(
                ids(queue.iter().map(|(job, _)| job)),
                rest,
                "{kinds} / {workers} workers"
            );
        }
        // The cap bounds a group however deep the backlog.
        let mut queue = queue_of(&"Q".repeat(3 * GROUP_CAP));
        assert_eq!(group_ids(take_group(&mut queue, 1)).len(), GROUP_CAP);
        assert_eq!(queue.len(), 2 * GROUP_CAP);
        assert!(take_group(&mut VecDeque::new(), 2).is_none());
    }
}
