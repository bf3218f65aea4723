//! The two served workloads: `Client` connections over loopback to a
//! `Server` in this process.
//!
//! `read` serves a small, fully resident index, so wire parse, queueing,
//! thread hand-off, reply encode, socket writes and client decode are
//! most of each request. `rw` puts writes beside reads: group-commit
//! syncs, the delta-overlay merge on every read, and inline folds.

use crate::driver::{client_threads, timed_ops, Tally, Units};
use crate::inputs::{
    bounding_box, generate_set, mode_of, reply_is_correct, shaped_queries, Expected, Pool, MODES,
    POOL,
};
use crate::probes::{self, wire_params};
use crate::report::Report;
use crate::spans::Recorder;
use crate::stats::Samples;
use crate::{Args, SetupTimes};
use segdb_core::{QueryMode, SegmentDatabase, WriteEngine, WriterConfig};
use segdb_geom::query::scan_oracle;
use segdb_geom::{Segment, VerticalQuery};
use segdb_obs::Json;
use segdb_pager::{FileDevice, IoStats};
use segdb_server::{Client, ClientConfig, Server, ServerConfig};
use std::collections::HashSet;
use std::ops::Range;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Read,
    Rw,
}

/// `read`: built with the default, NCT-validating builder (what
/// `segdb-cli build` does), so `setup_s` pays the validation.
pub const READ_N: usize = 100_000;
/// `rw`: trusted input; the write path is the subject.
pub const RW_N: usize = 100_000;
/// Buffer pool: every live page of either index stays resident.
const CACHE_PAGES: usize = 8192;
/// Every `WRITE_EVERY`-th op is a write.
const WRITE_EVERY: u64 = 5;
/// Frozen op rates (ops per second on the 2-core reference box when the
/// benchmark was defined): with `--seconds` they fix the op counts.
const READ_OPS_PER_S: u64 = 4000;
const RW_OPS_PER_S: u64 = 3000;
/// Inserted segments get ids from here up (above every generated id).
const INSERT_ID_BASE: u64 = 1 << 40;
const SWEEP_QUERIES: usize = 32;
const SWEEP_SEED_SALT: u64 = 0x2545_F491_4F6C_DD1D;
/// Modes the `rw` reads alternate through.
const RW_READ_MODES: [QueryMode; 3] = [QueryMode::Count, QueryMode::Collect, QueryMode::Exists];

enum Backend {
    ReadOnly(Arc<SegmentDatabase>),
    Writable(Arc<WriteEngine>),
}

impl Backend {
    fn with_db<R>(&self, f: impl FnOnce(&SegmentDatabase) -> R) -> R {
        match self {
            Backend::ReadOnly(db) => f(db),
            Backend::Writable(engine) => engine.with_db(f),
        }
    }

    fn engine(&self) -> Option<&WriteEngine> {
        match self {
            Backend::ReadOnly(_) => None,
            Backend::Writable(engine) => Some(engine),
        }
    }

    /// Cumulative `(pager I/O, WAL bytes appended, folds run)`.
    fn counters(&self) -> (IoStats, u64, u64) {
        let io = self.with_db(|db| db.pager().stats());
        match self.engine() {
            None => (io, 0, 0),
            Some(e) => (
                io,
                e.wal_stats().0.bytes,
                e.counters().epoch.load(Ordering::SeqCst),
            ),
        }
    }
}

struct Ctx {
    set: Vec<Segment>,
    backend: Backend,
    server: Server,
    clients: Vec<Client>,
    /// A connection of the harness's own, for `stats`, `ping`, `flush`.
    control: Client,
}

impl Ctx {
    /// Stop the server and wait until its threads have ended.
    fn stop(self) -> Backend {
        let Ctx {
            backend,
            server,
            clients,
            control,
            ..
        } = self;
        drop(clients);
        drop(control);
        server.shutdown();
        server.wait();
        backend
    }
}

fn client(addr: &str, thread: usize) -> Client {
    let mut c = Client::new(ClientConfig {
        addr: addr.to_string(),
        // The request id is the server's write-idempotence key: every
        // connection stamps from a range of its own.
        id_base: (thread as u64 + 1) << 32,
        ..ClientConfig::default()
    });
    assert!(c.ping().expect("server answers ping"), "pong");
    c
}

fn db_path(scratch: &Path) -> std::path::PathBuf {
    scratch.join("served.db")
}

fn wal_path(scratch: &Path) -> std::path::PathBuf {
    scratch.join("served.wal")
}

fn recover(scratch: &Path, shards: usize) -> WriteEngine {
    let db = SegmentDatabase::open_sharded(db_path(scratch), CACHE_PAGES, shards).expect("open");
    let wal = wal_path(scratch);
    let dev = if wal.exists() {
        FileDevice::open(&wal).expect("open wal")
    } else {
        FileDevice::create(&wal, db.pager().page_size()).expect("create wal")
    };
    WriteEngine::recover(db, Box::new(dev), WriterConfig::default())
        .expect("recover")
        .0
}

fn setup(kind: Kind, seed: u64, scratch: &Path) -> (Ctx, SetupTimes) {
    let mut times = SetupTimes::default();
    let total = Instant::now();
    let threads = client_threads();
    let (n, builder) = match kind {
        Kind::Read => (READ_N, SegmentDatabase::builder()),
        Kind::Rw => (RW_N, SegmentDatabase::builder().trust_input()),
    };
    let set = generate_set(n, seed);
    let _ = std::fs::remove_file(wal_path(scratch));
    let t = Instant::now();
    let db = builder
        .cache_pages(CACHE_PAGES)
        .persist_to(db_path(scratch))
        .build(set.clone())
        .expect("build on a file");
    times.build_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    db.save().expect("save");
    drop(db);
    times.save_s = t.elapsed().as_secs_f64();
    let cfg = ServerConfig {
        workers: threads,
        ..ServerConfig::default()
    };
    let (backend, server) = match kind {
        Kind::Read => {
            let t = Instant::now();
            let db = Arc::new(
                SegmentDatabase::open_sharded(db_path(scratch), CACHE_PAGES, threads)
                    .expect("reopen"),
            );
            times.open_s = t.elapsed().as_secs_f64();
            let server = Server::start(Arc::clone(&db), cfg).expect("start server");
            (Backend::ReadOnly(db), server)
        }
        Kind::Rw => {
            let t = Instant::now();
            let engine = Arc::new(recover(scratch, threads));
            times.recover_s = t.elapsed().as_secs_f64();
            let server = Server::start_writable(Arc::clone(&engine), cfg).expect("start server");
            (Backend::Writable(engine), server)
        }
    };
    let addr = server.addr().to_string();
    let clients = (0..threads).map(|t| client(&addr, t)).collect();
    let control = client(&addr, threads);
    times.total_s = total.elapsed().as_secs_f64();
    let ctx = Ctx {
        set,
        backend,
        server,
        clients,
        control,
    };
    (ctx, times)
}

/// The commuting write schedule: inserts are fresh horizontal segments
/// above the bounding box (distinct `y` each — nothing to cross),
/// deletes take distinct stored segments, so the final set is the same
/// whichever connection sends which write and in whatever order they
/// land.
struct WritePlan {
    x_lo: i64,
    x_hi: i64,
    y_top: i64,
}

impl WritePlan {
    fn new(set: &[Segment]) -> WritePlan {
        let (x_lo, x_hi, _, y_top) = bounding_box(set);
        WritePlan {
            x_lo,
            x_hi: x_hi.max(x_lo + 1),
            y_top,
        }
    }

    /// The `w`-th write of the run: even `w` inserts, odd `w` deletes.
    fn write(&self, set: &[Segment], w: u64) -> (bool, Segment) {
        let slot = w / 2;
        if w.is_multiple_of(2) {
            let y = self.y_top + 1 + slot as i64;
            let seg = Segment::new(INSERT_ID_BASE + slot, (self.x_lo, y), (self.x_hi, y))
                .expect("a horizontal segment above the bounding box is valid");
            (true, seg)
        } else {
            (false, set[slot as usize % set.len()])
        }
    }
}

/// Base set minus the acknowledged deletes plus the acknowledged inserts.
fn shadow_model(base: &[Segment], inserts: &[Segment], deletes: &[Segment]) -> Vec<Segment> {
    let dead: HashSet<u64> = deletes.iter().map(|s| s.id).collect();
    let mut shadow: Vec<Segment> = base
        .iter()
        .filter(|s| !dead.contains(&s.id))
        .copied()
        .collect();
    shadow.extend_from_slice(inserts);
    shadow
}

struct ThreadOut {
    tally: Tally,
    rec: Recorder,
    inserts: Vec<Segment>,
    deletes: Vec<Segment>,
    retries: u64,
}

/// One timed (or warm-up) phase: ops `ops`, taken by every connection
/// at once. On `rw` every [`WRITE_EVERY`]-th op is the next write of the
/// schedule and the rest are segment-shaped reads cycling through
/// [`RW_READ_MODES`], so the op stream is the same on every run.
fn phase(
    kind: Kind,
    ctx: &mut Ctx,
    pool: &Pool,
    ops: Range<u64>,
    epoch: Instant,
    traced: bool,
) -> (Vec<ThreadOut>, f64) {
    let share = (ops.end - ops.start) / ctx.clients.len() as u64;
    let units = Units::new(ops);
    let plan = WritePlan::new(&ctx.set);
    let (set, backend, units_ref, plan_ref) = (&ctx.set, &ctx.backend, &units, &plan);
    let start = Instant::now();
    let outs: Vec<ThreadOut> = std::thread::scope(|s| {
        let handles: Vec<_> = ctx
            .clients
            .iter_mut()
            .map(|client| {
                s.spawn(move || {
                    let mut out = ThreadOut {
                        // Headroom for a connection that gets ahead.
                        tally: Tally::with_capacity(2 * share),
                        rec: Recorder::new(epoch, traced, 4 * share as usize),
                        inserts: Vec::new(),
                        deletes: Vec::new(),
                        retries: 0,
                    };
                    let before = client.stats().retries;
                    while let Some(u) = units_ref.take() {
                        let op = out.rec.open("op", u, None);
                        if kind == Kind::Rw && u % WRITE_EVERY == WRITE_EVERY - 1 {
                            let (insert, seg) = plan_ref.write(set, u / WRITE_EVERY);
                            write_op(backend, client, insert, seg, u, &mut out, op);
                        } else if kind == Kind::Rw {
                            // Reads stay inside the bounding box, clear of
                            // the inserts; their answers depend on the
                            // interleaving with deletes, so they are not
                            // oracle-checked.
                            let r = (u - u / WRITE_EVERY) as usize;
                            let (q, mode) = (pool.segments[r % POOL], RW_READ_MODES[r % 3]);
                            read_op(set, client, r % POOL, &q, mode, None, u, &mut out, op);
                        } else {
                            let i = (u % POOL as u64) as usize;
                            let (q, want) = (pool.queries[i], Some(pool.expected[i]));
                            read_op(set, client, i, &q, mode_of(i), want, u, &mut out, op);
                        }
                        out.rec.close(op);
                    }
                    out.retries = client.stats().retries - before;
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    (outs, start.elapsed().as_secs_f64())
}

#[allow(clippy::too_many_arguments)]
fn read_op(
    set: &[Segment],
    client: &mut Client,
    index: usize,
    q: &VerticalQuery,
    mode: QueryMode,
    want: Option<Expected>,
    u: u64,
    out: &mut ThreadOut,
    op: crate::spans::Open,
) {
    let (method, params) = wire_params(q);
    let span = out.rec.open("client.call", u, Some(op));
    let t = Instant::now();
    let reply = client.query_mode(method, &params, mode);
    let ns = t.elapsed().as_nanos() as u64;
    out.rec.close(span);
    out.tally.busy_ns += ns;
    let ok = match (&reply, want) {
        (Ok(r), Some(want)) => reply_is_correct(set, q, mode, want, r.ids.iter().copied(), r.count),
        (Ok(_), None) => true,
        (Err(_), _) => false,
    };
    out.tally.read(index, mode, ns, ok);
}

fn write_op(
    backend: &Backend,
    client: &mut Client,
    insert: bool,
    seg: Segment,
    u: u64,
    out: &mut ThreadOut,
    op: crate::spans::Open,
) {
    let engine = backend
        .engine()
        .expect("writes only run against a writable server");
    let epoch_before = engine.counters().epoch.load(Ordering::SeqCst);
    let span = out.rec.open("client.call", u, Some(op));
    let t = Instant::now();
    let reply = if insert {
        client.insert(&seg)
    } else {
        client.delete(&seg)
    };
    let ns = t.elapsed().as_nanos() as u64;
    out.rec.close(span);
    out.tally.busy_ns += ns;
    out.tally.attempted += 1;
    match reply {
        Ok(ack) if ack.applied => {
            if insert {
                out.inserts.push(seg);
            } else {
                out.deletes.push(seg);
            }
            let folded = engine.counters().epoch.load(Ordering::SeqCst) != epoch_before;
            if folded {
                out.tally.fold_writes.push(ns);
            } else {
                out.tally.writes.push(ns);
            }
        }
        _ => out.tally.failed += 1,
    }
}

/// Ids a Collect of `q` through the engine returns, `None` on error.
fn engine_collect(engine: &WriteEngine, q: &VerticalQuery) -> Option<Vec<u64>> {
    let mode = QueryMode::Collect;
    let (answer, _) = match *q {
        VerticalQuery::Line { x } => engine.query_line_mode((x, 0), mode),
        VerticalQuery::RayUp { x, y0 } => engine.query_ray_up_mode((x, y0), mode),
        VerticalQuery::RayDown { x, y0 } => engine.query_ray_down_mode((x, y0), mode),
        VerticalQuery::Segment { x, lo, hi } => engine.query_segment_mode((x, lo), (x, hi), mode),
    }
    .ok()?;
    Some(answer.segments()?.iter().map(|s| s.id).collect())
}

/// Collect-mode sweep against the scan oracle over `shadow`; returns
/// `(checked, wrong)`. The sweep asks what the stored set is, so it uses
/// the two shapes without a lower bound (lines see every insert, which
/// span the whole width): the bridge defect (see
/// [`crate::inputs::keeps_lower_bound`]) must not be mistaken for a lost
/// write.
fn sweep(
    shadow: &[Segment],
    seed: u64,
    mut ask: impl FnMut(&VerticalQuery) -> Option<Vec<u64>>,
) -> (u64, u64) {
    let queries: Vec<VerticalQuery> =
        shaped_queries(shadow, 2 * SWEEP_QUERIES, seed ^ SWEEP_SEED_SALT)
            .into_iter()
            .filter(|q| q.lo().is_none())
            .take(SWEEP_QUERIES)
            .collect();
    let mut wrong = 0;
    for q in &queries {
        let expect: Vec<u64> = scan_oracle(shadow, q).iter().map(|s| s.id).collect();
        wrong += u64::from(ask(q) != Some(expect));
    }
    (queries.len() as u64, wrong)
}

/// What the wire `stats` method says at one instant.
struct WireStats {
    /// Σ over query modes of (requests, queue µs, exec µs, write µs, pages).
    stage: [f64; 5],
    requests: f64,
    overloaded: f64,
}

fn wire_stats(control: &mut Client) -> WireStats {
    let doc = control.remote_stats().expect("stats");
    let mut stage = [0.0; 5];
    let sum = |v: Option<&Json>| -> (f64, f64) {
        let n = v
            .and_then(|h| h.get("count"))
            .and_then(Json::as_f64)
            .unwrap_or(0.0);
        let mean = v
            .and_then(|h| h.get("mean"))
            .and_then(Json::as_f64)
            .unwrap_or(0.0);
        (n, n * mean)
    };
    if let Some(Json::Obj(modes)) = doc.get("latency") {
        for (mode, m) in modes {
            if !MODES.iter().any(|m| m.name() == mode) {
                continue; // writes and traces keep histograms of their own
            }
            let (n, queue) = sum(m.get("queue_us"));
            stage[0] += n;
            stage[1] += queue;
            stage[2] += sum(m.get("exec_us")).1;
            stage[3] += sum(m.get("write_us")).1;
            stage[4] += sum(doc.get("pages").and_then(|p| p.get(mode))).1;
        }
    }
    let server = |k: &str| {
        doc.get("server")
            .and_then(|s| s.get(k))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    WireStats {
        stage,
        requests: server("requests"),
        overloaded: server("overloaded"),
    }
}

pub fn run(kind: Kind, args: &Args) -> Report {
    let mut report = Report::default();
    let name = match kind {
        Kind::Read => "served_read",
        Kind::Rw => "served_rw",
    };
    let threads = client_threads();
    report.note("n", if kind == Kind::Read { READ_N } else { RW_N });
    report.note("page_size", 4096);
    report.note("cache_pages", CACHE_PAGES);
    report.note("cache_shards", threads);
    report.note("client_connections", threads);
    report.note("server_workers", threads);
    report.note("loop", "closed, each connection blocks on its reply");
    if kind == Kind::Rw {
        report.note("write_every", WRITE_EVERY);
        report.note("delta_limit", WriterConfig::default().delta_limit);
        report.note("group_window", WriterConfig::default().group_window);
    }

    let (mut ctx, setup_times) = setup(kind, args.seed, &args.scratch);
    let t = Instant::now();
    let pool = Pool::new(&ctx.set, args.seed);
    let oracle_s = t.elapsed().as_secs_f64();
    report.note("oracle_s", format!("{oracle_s:.3}"));

    let epoch = Instant::now();
    let absorb = |report: &mut Report, outs: Vec<ThreadOut>| -> (Tally, Vec<Recorder>, u64) {
        let mut tally = Tally::with_capacity(0);
        let (mut recs, mut retries) = (Vec::new(), 0);
        for out in outs {
            tally.absorb(out.tally);
            recs.push(out.rec);
            retries += out.retries;
        }
        report.count(&tally);
        (tally, recs, retries)
    };
    let mut inserts: Vec<Segment> = Vec::new();
    let mut deletes: Vec<Segment> = Vec::new();
    let mut keep_writes = |outs: &mut [ThreadOut]| {
        for out in outs {
            inserts.append(&mut out.inserts);
            deletes.append(&mut out.deletes);
        }
    };

    // Warm-up: one untimed, verified pass of the pool (read-only on both
    // rows, so the write schedule starts with the timed phase).
    let pass = POOL as u64;
    let (outs, _) = phase(Kind::Read, &mut ctx, &pool, 0..pass, epoch, false);
    absorb(&mut report, outs);

    let rate = match kind {
        Kind::Read => READ_OPS_PER_S,
        Kind::Rw => RW_OPS_PER_S,
    };
    let ops = timed_ops(rate, args.seconds);
    report.note("timed_ops", ops);
    let wire_before = wire_stats(&mut ctx.control);
    let (io_before, wal_before, folds_before) = ctx.backend.counters();
    let (mut outs, wall) = phase(kind, &mut ctx, &pool, pass..pass + ops, epoch, false);
    let wire_after = wire_stats(&mut ctx.control);
    let (io_after, wal_after, folds_after) = ctx.backend.counters();
    let (io, wal_written, folds_run) = (
        io_after - io_before,
        wal_after - wal_before,
        folds_after - folds_before,
    );
    keep_writes(&mut outs);
    let (mut tally, _, retries) = absorb(&mut report, outs);

    // Page accounting of the reads comes from the server's own
    // per-request records, bracketing the timed phase.
    let served = wire_after.stage[0] - wire_before.stage[0];
    let stage_mean = |k: usize| (wire_after.stage[k] - wire_before.stage[k]) / served.max(1.0);
    tally.pages = (wire_after.stage[4] - wire_before.stage[4]).round() as u64;
    tally.device_reads = io.reads;
    if served as u64 != tally.read_count() {
        report.violations.push(format!(
            "server recorded {served} queries, clients completed {}",
            tally.read_count()
        ));
    }

    let traced_phase = if args.trace {
        let traced_ops = pass + ops..pass + 2 * ops;
        let (mut outs, traced_wall) = phase(kind, &mut ctx, &pool, traced_ops, epoch, true);
        keep_writes(&mut outs);
        let (traced, recs, _) = absorb(&mut report, outs);
        Some((traced.read_count() as f64 / traced_wall, recs))
    } else {
        None
    };

    let mut ping = Samples::with_capacity(2000);
    if args.trace {
        for _ in 0..2000 {
            let t = Instant::now();
            ctx.control.ping().expect("ping");
            ping.push(t.elapsed().as_nanos() as u64);
        }
    }

    // First write of the schedule that no phase used.
    let next_write = (pass + 2 * ops) / WRITE_EVERY + 1;
    let set = std::mem::take(&mut ctx.set);
    let backend = match kind {
        Kind::Read => ctx.stop(),
        Kind::Rw => {
            let shadow = shadow_model(&set, &inserts, &deletes);
            let acked = (inserts.len() + deletes.len()) as u64;
            Backend::Writable(Arc::new(check_durability(
                ctx,
                &shadow,
                acked,
                args,
                &mut report,
            )))
        }
    };

    // Space after the run: on `rw`, space after churn.
    let (live_pages, page_size, stored) =
        backend.with_db(|db| (db.space_blocks(), db.pager().page_size(), db.len()));
    let space = (live_pages * page_size) as f64 / stored as f64;
    report.note("live_pages", live_pages);
    report.note("timed_s", format!("{wall:.3}"));
    report.note("timed_reads", tally.read_count());
    report.note("timed_writes", tally.writes.len() + tally.fold_writes.len());
    report.note("folds", folds_run);

    if !args.trace {
        crate::fill_end_to_end(&mut report, &mut tally, wall, &setup_times, space);
        return report;
    }

    let (traced_rate, mut recs) = traced_phase.expect("traced phase ran");
    let untraced_rate = tally.read_count() as f64 / wall;
    report.set(
        "trace.overhead_pct",
        100.0 * (untraced_rate - traced_rate) / untraced_rate,
    );
    report.set("server.ping_rtt_us", ping.percentile_us(50.0));
    report.set("server.queue_us", stage_mean(1));
    report.set("server.exec_us", stage_mean(2));
    report.set("server.write_us", stage_mean(3));
    report.set(
        "server.refused_ratio",
        (wire_after.overloaded - wire_before.overloaded)
            / (wire_after.requests - wire_before.requests).max(1.0),
    );
    report.set("server.retries", retries as f64);
    let acked = (tally.writes.len() + tally.fold_writes.len()) as f64;
    if acked > 0.0 {
        report.set("write_ops_per_s", acked / wall);
        report.set("write_p50_us", tally.writes.percentile_us(50.0));
        report.set("write_p99_us", tally.writes.percentile_us(99.0));
        report.set("fold_stall_ms", tally.fold_writes.mean_us() / 1e3);
        report.set(
            "write_bytes_per_write",
            (wal_written + io.writes * page_size as u64) as f64 / acked,
        );
        report.set("pager.device_writes_per_write", io.writes as f64 / acked);
        report.set("core.folds", folds_run as f64);
    }
    let mut main_rec = Recorder::new(epoch, true, 1 << 16);
    let layer = probes::Inputs {
        set: &set,
        queries: &pool.queries,
        scratch: &args.scratch,
    };
    probes::isolated(&mut report, &mut main_rec, &layer);
    backend.with_db(|db| probes::core_on_db(&mut report, &mut main_rec, db, &pool.queries));
    if let Some(engine) = backend.engine() {
        main_rec.within("probe.wal", 0, None, || {
            probes::wal(&mut report, &set, &args.scratch)
        });
        main_rec.within("probe.writer", 0, None, || {
            writer_probe(&mut report, engine, &set, &pool, next_write)
        });
    }
    crate::fill_in_situ(&mut report, &tally, wall, &setup_times, oracle_s);
    // The pager as the whole process used it over the timed phase
    // (the writes' own reads included on `rw`), not just under the reads.
    let accesses = (io.reads + io.cache_hits) as f64;
    report.set("pager.hit_ratio", io.cache_hits as f64 / accesses.max(1.0));
    // What the wire adds to a Count: the caller's median minus the
    // in-process one.
    let count_us = tally.mode_p50_us(QueryMode::Count);
    let core_count = report.metrics.get("core.count_us").copied().unwrap_or(0.0);
    report.set("server.wire_overhead_us", count_us - core_count);
    recs.push(main_rec);
    crate::write_trace(args, name, &mut report, &recs, &tally);
    report
}

/// After the timed phases of `rw`: is the served state the shadow
/// model, and does it survive a restart from the two files alone? Sweeps
/// the live server, asks for a wire `flush`, drops server and engine
/// with no fold, recovers from the files and sweeps again. Every sweep
/// mismatch and every acknowledged write missing after recovery is a
/// failed op. Returns the recovered engine.
fn check_durability(
    mut ctx: Ctx,
    shadow: &[Segment],
    acked_writes: u64,
    args: &Args,
    report: &mut Report,
) -> WriteEngine {
    let control = &mut ctx.control;
    let (checked, wrong) = sweep(shadow, args.seed, |q| {
        let (method, params) = wire_params(q);
        control.query_ids(method, &params).ok()
    });
    report.attempted += checked;
    report.failed += wrong;
    report.note("sweep_live", format!("{checked} checked, {wrong} wrong"));
    ctx.control.flush().expect("wire flush");
    drop(ctx.stop());
    let t = Instant::now();
    let engine = recover(&args.scratch, client_threads());
    report.note(
        "recover_after_run_s",
        format!("{:.3}", t.elapsed().as_secs_f64()),
    );
    let (checked, wrong) = sweep(shadow, args.seed, |q| engine_collect(&engine, q));
    let missing = engine.with_db(|db| db.len()).abs_diff(shadow.len() as u64);
    report.attempted += checked + acked_writes;
    report.failed += wrong + missing;
    report.note(
        "sweep_recovered",
        format!("{checked} checked, {wrong} wrong, {missing} acked writes missing"),
    );
    engine
}

/// `WriteEngine` in process on the run's own (recovered) database:
/// insert, delete, a read through a non-empty overlay, and one fold.
fn writer_probe(
    report: &mut Report,
    engine: &WriteEngine,
    set: &[Segment],
    pool: &Pool,
    next_write: u64,
) {
    const OPS: u64 = 256;
    let plan = WritePlan::new(set);
    // Continue the write schedule where the run left it, on an insert.
    let first = next_write + next_write % 2;
    let (mut ins, mut del, mut reads) = (
        Samples::with_capacity(OPS as usize),
        Samples::with_capacity(OPS as usize),
        Samples::with_capacity(OPS as usize),
    );
    let folds_before = engine.counters().epoch.load(Ordering::SeqCst);
    for k in 0..2 * OPS {
        let (insert, seg) = plan.write(set, first + k);
        let req_id = (1 << 50) + k;
        let t = Instant::now();
        let ack = if insert {
            engine.insert(req_id, seg)
        } else {
            engine.delete(req_id, seg)
        };
        let ns = t.elapsed().as_nanos() as u64;
        ack.expect("probe write");
        if insert {
            ins.push(ns)
        } else {
            del.push(ns)
        }
        if k % 2 == 1 {
            let VerticalQuery::Segment { x, lo, hi } = pool.segments[k as usize % POOL] else {
                unreachable!("the generator yields bounded segments")
            };
            let t = Instant::now();
            engine
                .query_segment_mode((x, lo), (x, hi), QueryMode::Count)
                .expect("overlay read");
            reads.push(t.elapsed().as_nanos() as u64);
        }
    }
    report.set("core.insert_us", ins.percentile_us(50.0));
    report.set("core.delete_us", del.percentile_us(50.0));
    report.set("core.overlay_read_us", reads.percentile_us(50.0));
    if engine.counters().epoch.load(Ordering::SeqCst) == folds_before {
        let t = Instant::now();
        engine.fold().expect("fold");
        report.set("core.fold_ms", t.elapsed().as_secs_f64() * 1e3);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_schedule_commutes_and_the_shadow_model_follows_it() {
        let set = generate_set(500, 11);
        let plan = WritePlan::new(&set);
        let (mut inserts, mut deletes) = (Vec::new(), Vec::new());
        for w in 0..80 {
            let (insert, seg) = plan.write(&set, w);
            assert_eq!(insert, w % 2 == 0);
            if insert {
                inserts.push(seg)
            } else {
                deletes.push(seg)
            }
        }
        // Distinct targets: no two writes touch the same segment.
        let ids: HashSet<u64> = inserts.iter().chain(&deletes).map(|s| s.id).collect();
        assert_eq!(ids.len(), 80);
        // Inserts lie strictly above everything stored, at distinct heights.
        let top = set.iter().map(|s| s.a.y.max(s.b.y)).max().unwrap();
        let heights: HashSet<i64> = inserts.iter().map(|s| s.a.y).collect();
        assert_eq!(heights.len(), inserts.len());
        assert!(inserts.iter().all(|s| s.a.y > top && s.a.y == s.b.y));
        assert!(deletes.iter().all(|s| set.contains(s)));

        let shadow = shadow_model(&set, &inserts, &deletes);
        assert_eq!(shadow.len(), set.len());
        let mut reversed = (inserts.clone(), deletes.clone());
        reversed.0.reverse();
        reversed.1.reverse();
        let mut a: Vec<u64> = shadow.iter().map(|s| s.id).collect();
        let mut b: Vec<u64> = shadow_model(&set, &reversed.0, &reversed.1)
            .iter()
            .map(|s| s.id)
            .collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "order of arrival does not matter");
        assert!(deletes.iter().all(|d| !a.contains(&d.id)));
        assert!(inserts.iter().all(|i| a.contains(&i.id)));

        // The engine agrees with the shadow model after the same writes.
        let db = SegmentDatabase::builder()
            .trust_input()
            .cache_pages(256)
            .build(set.clone())
            .unwrap();
        let (engine, _) = WriteEngine::recover(
            db,
            Box::new(segdb_pager::Disk::new(4096)),
            WriterConfig::default(),
        )
        .unwrap();
        for (i, s) in inserts.iter().enumerate() {
            assert!(engine.insert(i as u64 + 1, *s).unwrap().applied);
        }
        for (i, s) in deletes.iter().enumerate() {
            assert!(engine.delete(1000 + i as u64, *s).unwrap().applied);
        }
        let (_, wrong) = sweep(&shadow, 11, |q| engine_collect(&engine, q));
        assert_eq!(wrong, 0);
    }
}
