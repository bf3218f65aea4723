//! The TCP serving layer: a bounded worker pool over one shared database.
//!
//! Thread anatomy:
//!
//! * one **acceptor** blocks in `accept()` and spawns a detached reader
//!   thread per connection;
//! * each **connection reader** decodes newline-delimited requests
//!   ([`crate::proto`]) with a hard line-length bound and a 250 ms read
//!   timeout (so it notices shutdown without data);
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
//! Overload policy is refuse-fast: the job queue is bounded and a full
//! queue answers `overloaded` immediately instead of queueing without
//! bound; a request that misses its deadline answers `timeout`, its
//! [`ReplySlot`] is marked abandoned, and workers skip abandoned jobs
//! that have not started — so under sustained overload dead jobs shed
//! from the queue instead of burning worker capacity. Shutdown (API
//! call or wire `shutdown`) stops the acceptor via a self-connect,
//! drains queued jobs with `shutting_down` errors and joins the pool.
//!
//! Connection hardening (DESIGN.md §10 "Network failure model"):
//!
//! * **write deadlines** — every reply write carries
//!   [`ServerConfig::write_timeout`]; a stalled peer that blocks a
//!   write past it loses the connection (counted as a write drop)
//!   instead of pinning the reader thread;
//! * **idle reaping** — a full request line must arrive within
//!   [`ServerConfig::idle_timeout`], so idle keep-alives and slow-loris
//!   trickles are reaped rather than held forever;
//! * **admission gate** — at most [`ServerConfig::max_connections`]
//!   connections are served; one beyond that is answered `overloaded`
//!   and closed at accept time (shed), giving resilient clients an
//!   explicit back-off signal;
//! * **bounded drain** — [`Server::wait`] waits at most
//!   [`ServerConfig::drain_timeout`] for live connections to finish
//!   after shutdown;
//! * **oversized lines** answer `oversized` and the line is drained to
//!   its newline so the *next* request on the connection still serves.
//!
//! All of it is tallied in the `stats` method (`server` block plus the
//! process-wide `net` block from [`segdb_obs::net`]).

use crate::chaos::NetFaultHandle;
use crate::lifecycle::{Lifecycle, RequestRecord};
use crate::proto::{self, code, Method, QueryShape, Request};
use segdb_core::report::ids;
use segdb_core::{
    DbError, QueryAnswer, QueryMode, QueryTrace, SegmentDatabase, WriteAck, WriteEngine,
};
use segdb_geom::Segment;
use segdb_obs::{Json, StageTimer, TraceSummary};
use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// How often blocked connection readers poll the stop flag.
const READ_POLL: Duration = Duration::from_millis(250);

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
    /// Batched execution admission window: after a worker picks up a
    /// query it waits up to this long for more queries to arrive, then
    /// executes the whole group as **one** shared index walk
    /// (DESIGN.md "Batched execution model"). `ZERO` disables batching.
    /// The wait is charged to the requests' queue-wait stage, so the
    /// latency cost of batching stays visible in the histograms.
    pub batch_window: Duration,
    /// Most queries one shared walk serves (min 1; 1 disables batching).
    pub batch_max: usize,
    /// Page budget for pinning the index's internal levels resident at
    /// startup. Pinned pages never leave the cache, so every walk's
    /// upper-level probes are hits for the server's lifetime. `0`
    /// leaves the cache fully evictable.
    pub pin_budget: usize,
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
            max_connections: 256,
            drain_timeout: Duration::from_secs(5),
            slowlog_entries: 32,
            slowlog_threshold: Duration::ZERO,
            chaos: None,
            compact_min_tombs: 0,
            compact_interval: Duration::from_millis(500),
            batch_window: Duration::ZERO,
            batch_max: 16,
            pin_budget: 0,
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

    /// Run one query shape in collect mode, materializing the segments
    /// (the `trace` wire method's walk) — a group of one.
    fn trace_collect(&self, shape: QueryShape) -> Result<(Vec<Segment>, QueryTrace), DbError> {
        let q = self.with_db(|db| shape_canonical(db, shape))?;
        let mut results = self.query_batch(&[(q, QueryMode::Collect)]);
        match results.pop().expect("one result per item")? {
            (QueryAnswer::Segments(hits), trace) => Ok((hits, trace)),
            _ => unreachable!("collect-mode answers carry segments"),
        }
    }

    /// Run a group of canonical-frame queries as one shared index walk
    /// (delta-merged per query when writable).
    fn query_batch(
        &self,
        items: &[(segdb_geom::VerticalQuery, QueryMode)],
    ) -> Vec<Result<(QueryAnswer, QueryTrace), DbError>> {
        match self {
            Backend::ReadOnly(db) => db.query_batch_canonical_mode(items),
            Backend::Writable(eng) => eng.query_batch_canonical_mode(items),
        }
    }
}

/// Express one wire query shape as its canonical-frame query (the same
/// translation the facade's shape entry points apply).
fn shape_canonical(
    db: &SegmentDatabase,
    shape: QueryShape,
) -> Result<segdb_geom::VerticalQuery, DbError> {
    Ok(match shape {
        QueryShape::Line { x, y } => db.direction().make_query((x, y).into(), None, None)?,
        QueryShape::RayUp { x, y } => db.direction().make_query((x, y).into(), Some(y), None)?,
        QueryShape::RayDown { x, y } => db.direction().make_query((x, y).into(), None, Some(y))?,
        QueryShape::Segment { x1, y1, x2, y2 } => {
            db.segment_query((x1, y1).into(), (x2, y2).into())?
        }
    })
}

/// Monotone serving counters, exposed by the `stats` method.
#[derive(Debug, Default)]
struct ServerStats {
    connections: AtomicU64,
    requests: AtomicU64,
    ok: AtomicU64,
    errors: AtomicU64,
    overloaded: AtomicU64,
    timeouts: AtomicU64,
    write_drops: AtomicU64,
    reaped: AtomicU64,
    shed: AtomicU64,
}

impl ServerStats {
    fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// One admitted request travelling from a connection reader to a worker.
/// The [`StageTimer`] starts at admission; the worker's first lap is the
/// queue wait, its second the index walk, and the connection reader
/// closes the lifecycle when the reply hits the socket.
struct Job {
    id: Option<u64>,
    method: Method,
    slot: Arc<ReplySlot>,
    timer: StageTimer,
}

/// What the execution of one query yielded, beyond the response line —
/// the pieces of the lifecycle record only the worker can measure.
/// `None` from [`execute`] means the request does not enter the
/// lifecycle histograms (errors, stats, slowlog).
struct ExecInfo {
    /// Wire method name (`query_line`, …, or `trace`).
    op: &'static str,
    /// Histogram bucket key: the query mode's name, or `trace`.
    mode: &'static str,
    /// Pages the walk touched (physical reads + buffer-pool hits).
    pages: u64,
    /// Hits the answer witnessed.
    hits: u64,
}

/// A lifecycle record waiting for its final stage: everything measured
/// up to the end of execution, carried from the worker to the
/// connection reader, which adds the reply-write lap and records it.
struct PendingRecord {
    timer: StageTimer,
    id: Option<u64>,
    op: &'static str,
    mode: &'static str,
    queue_us: u64,
    exec_us: u64,
    pages: u64,
    hits: u64,
    batch_id: u64,
    batch_size: u32,
}

/// One worker-produced reply: the response line plus the lifecycle
/// record still missing its reply-write stage.
struct Reply {
    line: String,
    pending: Option<PendingRecord>,
}

impl Reply {
    fn bare(line: String) -> Reply {
        Reply {
            line,
            pending: None,
        }
    }
}

/// Single-use rendezvous for one response line. The connection reader
/// waits with a deadline; on timeout the slot is marked abandoned so a
/// worker that has not started the job yet skips it entirely, and a
/// fill after the deadline is simply discarded.
#[derive(Default)]
struct ReplySlot {
    cell: Mutex<Option<Reply>>,
    ready: Condvar,
    abandoned: AtomicBool,
}

impl ReplySlot {
    fn fill(&self, response: Reply) {
        *lock(&self.cell) = Some(response);
        self.ready.notify_all();
    }

    /// True once the requester gave up waiting — executing the job would
    /// only produce a reply nobody reads. Best-effort: a job already
    /// running when the deadline passes still completes and is discarded.
    fn is_abandoned(&self) -> bool {
        self.abandoned.load(Ordering::Acquire)
    }

    fn wait_for(&self, timeout: Duration) -> Option<Reply> {
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

/// Recover from mutex poisoning: a panicked worker must not wedge the
/// whole serving layer (the queue holds plain data).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

struct Shared {
    backend: Backend,
    queue: Mutex<VecDeque<Job>>,
    not_empty: Condvar,
    stop: AtomicBool,
    local: SocketAddr,
    queue_depth: usize,
    request_timeout: Duration,
    max_line_bytes: usize,
    workers: usize,
    write_timeout: Duration,
    idle_timeout: Duration,
    max_connections: usize,
    drain_timeout: Duration,
    chaos: Option<NetFaultHandle>,
    /// Batch collector admission window (`ZERO` = batching off).
    batch_window: Duration,
    /// Most queries per shared walk.
    batch_max: usize,
    /// Live connection registry: count of admitted, not-yet-exited
    /// connections, used by the admission gate and the bounded drain.
    conns: Mutex<usize>,
    conn_exited: Condvar,
    stats: ServerStats,
    /// Per-mode stage histograms + the slow-query log (DESIGN.md §12).
    lifecycle: Lifecycle,
}

impl Shared {
    /// Flip the stop flag once, wake every sleeper (workers via the
    /// condvar, the acceptor via a self-connect, readers via their poll).
    fn initiate_shutdown(&self) {
        if self.stop.swap(true, Ordering::AcqRel) {
            return;
        }
        self.not_empty.notify_all();
        let _ = TcpStream::connect(self.local);
    }

    fn stopping(&self) -> bool {
        self.stop.load(Ordering::Acquire)
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
        if cfg.pin_budget > 0 {
            backend
                .with_db(|db| db.pin_internal_levels(cfg.pin_budget))
                .map_err(|e| io::Error::other(format!("cannot pin internal levels: {e}")))?;
        }
        let listener = TcpListener::bind(&cfg.addr)?;
        let local = listener.local_addr()?;
        let shared = Arc::new(Shared {
            backend,
            queue: Mutex::new(VecDeque::new()),
            not_empty: Condvar::new(),
            stop: AtomicBool::new(false),
            local,
            queue_depth: cfg.queue_depth,
            request_timeout: cfg.request_timeout,
            max_line_bytes: cfg.max_line_bytes,
            workers: cfg.workers.max(1),
            write_timeout: cfg.write_timeout,
            idle_timeout: cfg.idle_timeout,
            max_connections: cfg.max_connections.max(1),
            drain_timeout: cfg.drain_timeout,
            chaos: cfg.chaos,
            batch_window: cfg.batch_window,
            batch_max: cfg.batch_max.max(1),
            conns: Mutex::new(0),
            conn_exited: Condvar::new(),
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
        let acceptor = {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name("segdb-acceptor".to_string())
                .spawn(move || accept_loop(&listener, &shared))?
        };
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
        self.shared.local
    }

    /// Begin a graceful shutdown (idempotent, non-blocking).
    pub fn shutdown(&self) {
        self.shared.initiate_shutdown();
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
        // Connection readers are detached and poll the stop flag every
        // READ_POLL; bound the drain so a wedged peer cannot wedge us.
        let deadline = Instant::now() + self.shared.drain_timeout;
        let mut conns = lock(&self.shared.conns);
        while *conns > 0 {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            conns = self
                .shared
                .conn_exited
                .wait_timeout(conns, deadline - now)
                .unwrap_or_else(|p| p.into_inner())
                .0;
        }
    }
}

/// Decrement the live-connection registry and wake the drain waiter.
fn connection_exited(shared: &Shared) {
    let mut conns = lock(&shared.conns);
    *conns = conns.saturating_sub(1);
    shared.conn_exited.notify_all();
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shared.stopping() {
                    return;
                }
                // A persistent accept error (e.g. EMFILE) must not spin
                // the acceptor at 100% CPU; back off before retrying.
                thread::sleep(Duration::from_millis(50));
                continue;
            }
        };
        if shared.stopping() {
            return;
        }
        // The wire-fault schedule acts first: an accept-reset victim is
        // dropped before the server's own logic ever sees it, exactly
        // like a reset on the physical network.
        if let Some(chaos) = &shared.chaos {
            if chaos.on_accept() {
                drop(stream);
                continue;
            }
        }
        let admitted = {
            let mut conns = lock(&shared.conns);
            if *conns < shared.max_connections {
                *conns += 1;
                true
            } else {
                false
            }
        };
        if !admitted {
            // Shed at the gate: an explicit `overloaded` refusal beats
            // accepting unboundedly — resilient clients back off and
            // retry instead of stacking up dead readers.
            ServerStats::bump(&shared.stats.shed);
            segdb_obs::net::totals().server_shed();
            let mut stream = stream;
            let _ = stream.set_write_timeout(Some(shared.write_timeout));
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
        ServerStats::bump(&shared.stats.connections);
        let conn_shared = Arc::clone(shared);
        // Detached: readers notice the stop flag within READ_POLL.
        let spawned = thread::Builder::new()
            .name("segdb-conn".to_string())
            .spawn(move || {
                serve_connection(&conn_shared, stream);
                connection_exited(&conn_shared);
            });
        if spawned.is_err() {
            // The closure never ran; undo its registry slot.
            connection_exited(shared);
        }
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
    while !shared.stopping() {
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

/// Pull further query jobs out of `queue` (wherever they sit — requests
/// from distinct connections have no mutual ordering guarantee) until
/// `batch` holds `max` jobs. Non-query jobs keep their queue position.
fn take_query_jobs(queue: &mut VecDeque<Job>, batch: &mut Vec<Job>, max: usize) {
    let mut i = 0;
    while i < queue.len() && batch.len() < max {
        if matches!(queue[i].method, Method::Query(..)) {
            if let Some(job) = queue.remove(i) {
                batch.push(job);
            }
        } else {
            i += 1;
        }
    }
}

fn worker_loop(shared: &Shared) {
    let batching = shared.batch_window > Duration::ZERO && shared.batch_max > 1;
    loop {
        let batch: Vec<Job> = {
            let mut queue = lock(&shared.queue);
            loop {
                let Some(job) = queue.pop_front() else {
                    if shared.stopping() {
                        break Vec::new();
                    }
                    queue = shared
                        .not_empty
                        .wait(queue)
                        .unwrap_or_else(|p| p.into_inner());
                    continue;
                };
                if !batching || !matches!(job.method, Method::Query(..)) {
                    break vec![job];
                }
                // Admission window: hold this query while compatible
                // batchmates arrive, up to batch_max or the window's
                // end, whichever is first. The wait lands in the
                // requests' queue-wait stage (the timers keep running).
                let mut batch = vec![job];
                take_query_jobs(&mut queue, &mut batch, shared.batch_max);
                let deadline = Instant::now() + shared.batch_window;
                while batch.len() < shared.batch_max && !shared.stopping() {
                    let now = Instant::now();
                    if now >= deadline {
                        break;
                    }
                    queue = shared
                        .not_empty
                        .wait_timeout(queue, deadline - now)
                        .unwrap_or_else(|p| p.into_inner())
                        .0;
                    take_query_jobs(&mut queue, &mut batch, shared.batch_max);
                }
                break batch;
            }
        };
        match batch.first().map(|job| &job.method) {
            None => break, // stopping
            Some(Method::Query(..)) => execute_queries(shared, batch),
            Some(_) => batch.into_iter().for_each(|job| run_single(shared, job)),
        }
    }
    // Refuse whatever was still queued when the stop flag went up.
    let mut queue = lock(&shared.queue);
    while let Some(job) = queue.pop_front() {
        ServerStats::bump(&shared.stats.errors);
        job.slot.fill(Reply::bare(proto::err_line(
            job.id,
            code::SHUTTING_DOWN,
            "server is shutting down",
        )));
    }
}

/// Execute one non-query job and fill its slot.
fn run_single(shared: &Shared, job: Job) {
    let mut timer = job.timer;
    let queue_us = timer.lap_us();
    let (line, info) = execute(shared, job.id, job.method);
    let exec_us = timer.lap_us();
    let pending = info.map(|info| PendingRecord {
        timer,
        id: job.id,
        op: info.op,
        mode: info.mode,
        queue_us,
        exec_us,
        pages: info.pages,
        hits: info.hits,
        batch_id: 0,
        batch_size: 0,
    });
    job.slot.fill(Reply { line, pending });
}

/// Execute a collected group of query jobs — one job when the collector
/// is off or found no batchmates — as one shared index walk, replies
/// demultiplexed back to each request's [`ReplySlot`] by its own
/// correlation id. Jobs whose requester already timed out are dropped
/// before the walk; a group of one reports `batch_id = 0`.
fn execute_queries(shared: &Shared, jobs: Vec<Job>) {
    let mut live: Vec<Job> = jobs
        .into_iter()
        .filter(|j| !j.slot.is_abandoned())
        .collect();
    // Lap every timer now: the queue-wait stage charged to each request
    // includes the batching window it sat through.
    let mut queue_laps: Vec<u64> = Vec::with_capacity(live.len());
    let mut prepared: Vec<Result<(segdb_geom::VerticalQuery, QueryMode), DbError>> =
        Vec::with_capacity(live.len());
    for job in &mut live {
        queue_laps.push(job.timer.lap_us());
        let Method::Query(shape, mode) = job.method else {
            unreachable!("the collector only batches query jobs");
        };
        prepared.push(
            shared
                .backend
                .with_db(|db| shape_canonical(db, shape))
                .map(|q| (q, mode)),
        );
    }
    let items: Vec<(segdb_geom::VerticalQuery, QueryMode)> = prepared
        .iter()
        .filter_map(|p| p.as_ref().ok().copied())
        .collect();
    let mut results = shared.backend.query_batch(&items).into_iter();
    for ((job, prep), queue_us) in live.into_iter().zip(prepared).zip(queue_laps) {
        let outcome = match prep {
            Ok(_) => results.next().expect("one result per prepared query"),
            Err(e) => Err(e),
        };
        let Method::Query(shape, _) = job.method else {
            unreachable!("the collector only batches query jobs");
        };
        let mut timer = job.timer;
        match outcome {
            Ok((answer, trace)) => {
                ServerStats::bump(&shared.stats.ok);
                let exec_us = timer.lap_us();
                let pending = PendingRecord {
                    timer,
                    id: job.id,
                    op: shape_op(shape),
                    mode: trace.mode.name(),
                    queue_us,
                    exec_us,
                    pages: trace.io.reads + trace.io.cache_hits,
                    hits: answer.count(),
                    batch_id: trace.batch_id,
                    batch_size: trace.batch_size,
                };
                job.slot.fill(Reply {
                    line: proto::ok_line(job.id, Json::obj(answer_json(&answer, &trace))),
                    pending: Some(pending),
                });
            }
            Err(e) => {
                ServerStats::bump(&shared.stats.errors);
                job.slot.fill(Reply::bare(proto::err_line(
                    job.id,
                    db_code(&e),
                    &e.to_string(),
                )));
            }
        }
    }
}

/// Outcome of one bounded line read.
pub(crate) enum LineRead {
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
    /// The server is stopping.
    Stopped,
    /// The idle deadline passed before a full line arrived — the idle
    /// or slow-loris reaping signal.
    IdleExpired,
}

pub(crate) fn read_bounded_line<R: BufRead>(
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
pub(crate) fn drain_oversized<R: BufRead>(
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

pub(crate) fn write_line(writer: &mut TcpStream, line: &str) -> io::Result<()> {
    writer.write_all(line.as_bytes())?;
    writer.write_all(b"\n")
}

fn serve_connection(shared: &Arc<Shared>, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    if stream.set_read_timeout(Some(READ_POLL)).is_err() {
        return;
    }
    // A reply write that blocks past the deadline fails and the
    // connection is dropped — a stalled peer cannot pin this thread.
    let _ = stream.set_write_timeout(Some(shared.write_timeout));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half).take(0);
    let mut writer = stream;
    loop {
        if shared.stopping() {
            return;
        }
        let deadline = Instant::now() + shared.idle_timeout;
        let line =
            match read_bounded_line(&mut reader, shared.max_line_bytes, &shared.stop, deadline) {
                Ok(LineRead::Line(line)) => line,
                Ok(LineRead::Oversized { terminated }) => {
                    ServerStats::bump(&shared.stats.errors);
                    if write_line(
                        &mut writer,
                        &proto::err_line(None, code::OVERSIZED, "request line exceeds limit"),
                    )
                    .is_err()
                    {
                        record_write_drop(shared);
                        return;
                    }
                    // Drain the offender to its newline so the next request
                    // on this connection still gets served.
                    if terminated || drain_oversized(&mut reader, &shared.stop, deadline) {
                        continue;
                    }
                    return;
                }
                Ok(LineRead::IdleExpired) => {
                    ServerStats::bump(&shared.stats.reaped);
                    segdb_obs::net::totals().server_reap();
                    return;
                }
                Ok(LineRead::Eof) | Ok(LineRead::Stopped) | Err(_) => return,
            };
        let line = String::from_utf8_lossy(&line);
        let response = match proto::parse_request(&line) {
            Err(e) => {
                ServerStats::bump(&shared.stats.errors);
                Reply::bare(e.to_line())
            }
            Ok(request) => {
                ServerStats::bump(&shared.stats.requests);
                match request.method {
                    Method::Ping => {
                        ServerStats::bump(&shared.stats.ok);
                        Reply::bare(proto::ok_line(request.id, Json::Str("pong".to_string())))
                    }
                    Method::Shutdown => {
                        ServerStats::bump(&shared.stats.ok);
                        let _ =
                            write_line(&mut writer, &proto::ok_line(request.id, Json::Bool(true)));
                        shared.initiate_shutdown();
                        return;
                    }
                    _ => submit(shared, request),
                }
            }
        };
        let wrote = write_line(&mut writer, &response.line);
        if let Some(mut pending) = response.pending {
            // The write lap closes the lifecycle — even when the write
            // failed (the server still paid the cost; the duration then
            // includes the stall that killed the connection).
            let write_us = pending.timer.lap_us();
            shared.lifecycle.record(RequestRecord {
                id: pending.id,
                op: pending.op,
                mode: pending.mode,
                queue_us: pending.queue_us,
                exec_us: pending.exec_us,
                write_us,
                total_us: pending.timer.total_us(),
                pages: pending.pages,
                hits: pending.hits,
                batch_id: pending.batch_id,
                batch_size: pending.batch_size,
            });
        }
        if wrote.is_err() {
            record_write_drop(shared);
            return;
        }
    }
}

/// A reply write failed (stalled peer past the write deadline, or a
/// peer that vanished); the connection is dropped and the drop counted.
fn record_write_drop(shared: &Shared) {
    ServerStats::bump(&shared.stats.write_drops);
    segdb_obs::net::totals().server_write_drop();
}

/// Admit a request into the bounded queue and await its reply. The
/// request's [`StageTimer`] starts here, at admission.
fn submit(shared: &Shared, request: Request) -> Reply {
    let slot = Arc::new(ReplySlot::default());
    {
        let mut queue = lock(&shared.queue);
        if shared.stopping() {
            ServerStats::bump(&shared.stats.errors);
            return Reply::bare(proto::err_line(
                request.id,
                code::SHUTTING_DOWN,
                "server is shutting down",
            ));
        }
        if queue.len() >= shared.queue_depth {
            ServerStats::bump(&shared.stats.overloaded);
            ServerStats::bump(&shared.stats.errors);
            return Reply::bare(proto::err_line(
                request.id,
                code::OVERLOADED,
                "job queue full; back off and retry",
            ));
        }
        queue.push_back(Job {
            id: request.id,
            method: request.method,
            slot: Arc::clone(&slot),
            timer: StageTimer::start(),
        });
    }
    shared.not_empty.notify_one();
    match slot.wait_for(shared.request_timeout) {
        Some(response) => response,
        None => {
            ServerStats::bump(&shared.stats.timeouts);
            ServerStats::bump(&shared.stats.errors);
            Reply::bare(proto::err_line(
                request.id,
                code::TIMEOUT,
                "request missed its deadline",
            ))
        }
    }
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

/// Pick the wire error code for a database failure. Transient storage
/// faults (injected or real I/O errors) answer `io_error` — a
/// worker-surviving condition — instead of the generic `db`.
fn db_code(e: &DbError) -> &'static str {
    if e.is_transient() {
        code::IO
    } else {
        code::DB
    }
}

/// The wire method name of a query shape (the lifecycle record's `op`).
fn shape_op(shape: QueryShape) -> &'static str {
    match shape {
        QueryShape::Line { .. } => "query_line",
        QueryShape::RayUp { .. } => "query_ray_up",
        QueryShape::RayDown { .. } => "query_ray_down",
        QueryShape::Segment { .. } => "query_segment",
    }
}

/// Render a write acknowledgement as the response `result`.
fn ack_json(ack: &WriteAck) -> Json {
    Json::obj([
        ("seq", Json::U64(ack.seq)),
        ("applied", Json::Bool(ack.applied)),
        ("duplicate", Json::Bool(ack.duplicate)),
    ])
}

/// Execute one write method against the engine (the `read_only` refusal
/// happens in the caller). `op` names the method for the lifecycle
/// histograms.
fn execute_write(
    shared: &Shared,
    engine: &WriteEngine,
    id: Option<u64>,
    op: &'static str,
    run: impl FnOnce(&WriteEngine) -> Result<WriteAck, DbError>,
) -> (String, Option<ExecInfo>) {
    match run(engine) {
        Ok(ack) => {
            ServerStats::bump(&shared.stats.ok);
            let info = ExecInfo {
                op,
                mode: op,
                pages: 0,
                hits: u64::from(ack.applied),
            };
            (proto::ok_line(id, ack_json(&ack)), Some(info))
        }
        Err(e) => {
            ServerStats::bump(&shared.stats.errors);
            (proto::err_line(id, db_code(&e), &e.to_string()), None)
        }
    }
}

fn execute(shared: &Shared, id: Option<u64>, method: Method) -> (String, Option<ExecInfo>) {
    match method {
        Method::Query(..) => unreachable!("query jobs run through execute_queries"),
        Method::Insert(seg) | Method::Delete(seg) => {
            let Some(engine) = shared.backend.engine() else {
                ServerStats::bump(&shared.stats.errors);
                return (
                    proto::err_line(
                        id,
                        code::READ_ONLY,
                        "database is served read-only; start the server with a WAL to write",
                    ),
                    None,
                );
            };
            // The protocol guarantees writes carry a correlation id —
            // it doubles as the idempotence key.
            let key = id.unwrap_or(0);
            match method {
                Method::Insert(_) => {
                    execute_write(shared, engine, id, "insert", |e| e.insert(key, seg))
                }
                _ => execute_write(shared, engine, id, "delete", |e| e.delete(key, seg)),
            }
        }
        Method::Flush => {
            let Some(engine) = shared.backend.engine() else {
                ServerStats::bump(&shared.stats.errors);
                return (
                    proto::err_line(id, code::READ_ONLY, "database is served read-only"),
                    None,
                );
            };
            match engine.flush() {
                Ok(()) => {
                    ServerStats::bump(&shared.stats.ok);
                    (proto::ok_line(id, Json::Bool(true)), None)
                }
                Err(e) => {
                    ServerStats::bump(&shared.stats.errors);
                    (proto::err_line(id, db_code(&e), &e.to_string()), None)
                }
            }
        }
        Method::Trace(shape) => {
            segdb_obs::trace::clear();
            let result = segdb_obs::trace::with_tracing(|| shared.backend.trace_collect(shape));
            let (events, dropped) = segdb_obs::trace::drain();
            match result {
                Ok((hits, trace)) => {
                    ServerStats::bump(&shared.stats.ok);
                    let info = ExecInfo {
                        op: "trace",
                        mode: "trace",
                        pages: trace.io.reads + trace.io.cache_hits,
                        hits: hits.len() as u64,
                    };
                    let mut fields = answer_json(&QueryAnswer::Segments(hits), &trace);
                    fields.push((
                        "spans",
                        TraceSummary::from_events(&events, dropped).to_json(),
                    ));
                    (proto::ok_line(id, Json::obj(fields)), Some(info))
                }
                Err(e) => {
                    ServerStats::bump(&shared.stats.errors);
                    (proto::err_line(id, db_code(&e), &e.to_string()), None)
                }
            }
        }
        Method::Stats => {
            ServerStats::bump(&shared.stats.ok);
            (proto::ok_line(id, stats_json(shared)), None)
        }
        Method::SlowLog => {
            ServerStats::bump(&shared.stats.ok);
            (proto::ok_line(id, shared.lifecycle.slowlog_json()), None)
        }
        Method::Health => {
            ServerStats::bump(&shared.stats.ok);
            let segments = shared.backend.with_db(|db| db.len());
            let doc = Json::obj([
                ("ok", Json::Bool(true)),
                ("role", Json::Str("server".to_string())),
                ("writable", Json::Bool(shared.backend.engine().is_some())),
                ("segments", Json::U64(segments)),
            ]);
            (proto::ok_line(id, doc), None)
        }
        Method::ShardMap => {
            ServerStats::bump(&shared.stats.ok);
            // A single node is its own one-shard "cluster".
            let doc = Json::obj([
                ("role", Json::Str("single".to_string())),
                ("shards", Json::Arr(Vec::new())),
            ]);
            (proto::ok_line(id, doc), None)
        }
        Method::WalSince { from } => {
            let Some(engine) = shared.backend.engine() else {
                ServerStats::bump(&shared.stats.errors);
                return (
                    proto::err_line(
                        id,
                        code::READ_ONLY,
                        "catch-up needs a writable server; start it with a WAL",
                    ),
                    None,
                );
            };
            match engine.records_since(from) {
                Ok(recs) => {
                    ServerStats::bump(&shared.stats.ok);
                    let doc = Json::obj([
                        ("from", Json::U64(from)),
                        ("last_seq", Json::U64(engine.last_seq())),
                        (
                            "records",
                            Json::Arr(recs.iter().map(proto::wal_record_json).collect()),
                        ),
                    ]);
                    (proto::ok_line(id, doc), None)
                }
                Err(e) => {
                    ServerStats::bump(&shared.stats.errors);
                    (proto::err_line(id, code::DB, &e.to_string()), None)
                }
            }
        }
        Method::SyncFrom { peer, from } => {
            let Some(engine) = shared.backend.engine() else {
                ServerStats::bump(&shared.stats.errors);
                return (
                    proto::err_line(
                        id,
                        code::READ_ONLY,
                        "catch-up needs a writable server; start it with a WAL",
                    ),
                    None,
                );
            };
            match sync_from_peer(engine, &peer, from) {
                Ok(doc) => {
                    ServerStats::bump(&shared.stats.ok);
                    (proto::ok_line(id, doc), None)
                }
                Err((ecode, message)) => {
                    ServerStats::bump(&shared.stats.errors);
                    (proto::err_line(id, ecode, &message), None)
                }
            }
        }
        // Handled inline by the connection reader; kept total for safety.
        Method::Ping => (proto::ok_line(id, Json::Str("pong".to_string())), None),
        Method::Shutdown => (proto::ok_line(id, Json::Bool(true)), None),
    }
}

/// Pull the records after `from` (defaulting to this engine's own last
/// WAL sequence number) from `peer` and apply them idempotently. The
/// replicas of one shard advance their sequence counters in lockstep —
/// they see the same fan-out write stream — so the local cursor is
/// directly meaningful to the peer.
fn sync_from_peer(
    engine: &WriteEngine,
    peer: &str,
    from: Option<u64>,
) -> Result<Json, (&'static str, String)> {
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
        let ack = engine
            .sync_apply(&rec)
            .map_err(|e| (db_code(&e), e.to_string()))?;
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

/// Fraction of all page lookups served by one cache tier. Lookups that
/// missed both tiers show up as device reads, so the denominator is
/// reads + evictable hits + pinned hits.
fn tier_rate(hits: u64, io: segdb_pager::IoStats) -> f64 {
    let lookups = io.reads + io.cache_hits + io.pin_hits;
    if lookups == 0 {
        0.0
    } else {
        hits as f64 / lookups as f64
    }
}

fn stats_json(shared: &Shared) -> Json {
    let (segments, index, space_blocks, io, tiers, metrics) = shared.backend.with_db(|db| {
        (
            db.len(),
            format!("{:?}", db.kind()),
            db.space_blocks() as u64,
            db.pager().stats(),
            db.pager().cache_tiers(),
            db.metrics_json().unwrap_or(Json::Null),
        )
    });
    let s = &shared.stats;
    let get = |c: &AtomicU64| Json::U64(c.load(Ordering::Relaxed));
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
                ("pin_hits", Json::U64(io.pin_hits)),
                ("allocations", Json::U64(io.allocations)),
                ("frees", Json::U64(io.frees)),
            ]),
        ),
        (
            "cache",
            Json::obj([
                ("pinned_pages", Json::U64(tiers.pinned_pages)),
                ("evictable_pages", Json::U64(tiers.evictable_pages)),
                ("evictable_capacity", Json::U64(tiers.evictable_capacity)),
                ("pinned_hit_rate", Json::F64(tier_rate(io.pin_hits, io))),
                (
                    "evictable_hit_rate",
                    Json::F64(tier_rate(io.cache_hits, io)),
                ),
            ]),
        ),
        ("writer", writer_json(shared)),
        (
            "server",
            Json::obj([
                ("workers", Json::U64(shared.workers as u64)),
                ("queue_depth", Json::U64(shared.queue_depth as u64)),
                ("max_connections", Json::U64(shared.max_connections as u64)),
                ("connections", get(&s.connections)),
                ("requests", get(&s.requests)),
                ("ok", get(&s.ok)),
                ("errors", get(&s.errors)),
                ("overloaded", get(&s.overloaded)),
                ("timeouts", get(&s.timeouts)),
                ("write_drops", get(&s.write_drops)),
                ("reaped", get(&s.reaped)),
                ("shed", get(&s.shed)),
            ]),
        ),
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

    #[test]
    fn reply_slot_returns_filled_value() {
        let slot = Arc::new(ReplySlot::default());
        let filler = Arc::clone(&slot);
        let t = thread::spawn(move || filler.fill(Reply::bare("hello".to_string())));
        assert_eq!(
            slot.wait_for(Duration::from_secs(5))
                .map(|r| r.line)
                .as_deref(),
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
        slot.fill(Reply::bare("ok".to_string()));
        assert_eq!(
            slot.wait_for(Duration::ZERO).map(|r| r.line).as_deref(),
            Some("ok")
        );
        assert!(!slot.is_abandoned());
    }

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

    #[test]
    fn late_fill_after_timeout_is_discarded() {
        let slot = ReplySlot::default();
        assert!(slot.wait_for(Duration::ZERO).is_none());
        slot.fill(Reply::bare("late".to_string()));
        // A second waiter (none exists in practice) would see the value;
        // the point is that filling a timed-out slot must not panic.
        assert_eq!(
            slot.wait_for(Duration::ZERO).map(|r| r.line).as_deref(),
            Some("late")
        );
    }
}
