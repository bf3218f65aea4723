//! The three in-process workloads: one thread calling the facade.
//!
//! All three replay the same op cycle against the same kind of index;
//! they differ in what the pager has to do (`hot`: every access a cache
//! hit; `cold`: twice the segments on a file behind a cache of ~1 % of
//! the pages) and in which read path runs (`batch`: the shared-walk
//! executor on the cold configuration).

use crate::driver::{timed_ops, Tally};
use crate::inputs::{answer_is_correct, generate_set, mode_of, Pool, POOL};
use crate::probes;
use crate::report::Report;
use crate::spans::Recorder;
use crate::{Args, SetupTimes};
use segdb_core::{DbError, QueryAnswer, QueryMode, QueryTrace, SegmentDatabase};
use segdb_geom::{Segment, VerticalQuery};
use std::ops::Range;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Hot,
    Cold,
    Batch,
}

impl Kind {
    /// Stored segments: the cold rows hold twice the hot row's, so that
    /// the working set dwarfs their cache.
    pub fn n(self) -> usize {
        match self {
            Kind::Hot => 200_000,
            Kind::Cold | Kind::Batch => 400_000,
        }
    }

    /// Hot: room for every live page (≈ 28.8 k). Cold rows: ≈ 1.1 % of
    /// their ≈ 45 k live pages.
    pub fn cache_pages(self) -> usize {
        match self {
            Kind::Hot => 1 << 16,
            Kind::Cold | Kind::Batch => 512,
        }
    }

    /// Frozen ops per second of `--seconds`; with it they fix the op
    /// count. Hot and cold: what the 2-core reference box did when the
    /// benchmark was defined. Batch does 1700 there but times a third
    /// more: a query's latency is its batch's, so its p99 needs ten
    /// *groups* beyond it — 1024 groups, eight passes at `--seconds 15`.
    fn ops_per_s(self) -> u64 {
        match self {
            Kind::Hot => 4100,
            Kind::Cold => 1600,
            Kind::Batch => 2200,
        }
    }
}

/// Buffer pool while the cold file is being built (not measured reads).
const BUILD_CACHE_PAGES: usize = 4096;
/// Queries per shared walk on the batch row.
pub const BATCH: usize = 32;

struct Ctx {
    set: Vec<Segment>,
    db: SegmentDatabase,
}

fn setup(kind: Kind, seed: u64, scratch: &Path) -> (Ctx, SetupTimes) {
    let mut times = SetupTimes::default();
    let total = Instant::now();
    let set = generate_set(kind.n(), seed);
    let builder = SegmentDatabase::builder().trust_input();
    let db = if kind == Kind::Hot {
        let t = Instant::now();
        let db = builder
            .cache_pages(kind.cache_pages())
            .build(set.clone())
            .expect("build in memory");
        times.build_s = t.elapsed().as_secs_f64();
        db
    } else {
        let path = scratch.join("embedded.db");
        let t = Instant::now();
        let db = builder
            .cache_pages(BUILD_CACHE_PAGES)
            .persist_to(&path)
            .build(set.clone())
            .expect("build on a file");
        times.build_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        db.save().expect("save");
        drop(db);
        times.save_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let db = SegmentDatabase::open(&path, kind.cache_pages()).expect("reopen");
        times.open_s = t.elapsed().as_secs_f64();
        db
    };
    times.total_s = total.elapsed().as_secs_f64();
    (Ctx { set, db }, times)
}

/// The op cycle cut into consecutive groups of [`BATCH`].
fn batches(pool: &Pool) -> Vec<Vec<(VerticalQuery, QueryMode)>> {
    (0..POOL)
        .step_by(BATCH)
        .map(|g| {
            (g..g + BATCH)
                .map(|i| (pool.queries[i], mode_of(i)))
                .collect()
        })
        .collect()
}

/// One timed (or warm-up) phase: ops `ops` of the cycle, one after the
/// other. Returns the tally and the wall time.
fn phase(kind: Kind, ctx: &Ctx, pool: &Pool, ops: Range<u64>, rec: &mut Recorder) -> (Tally, f64) {
    let mut tally = Tally::with_capacity(ops.end - ops.start);
    let start = Instant::now();
    if kind == Kind::Batch {
        let groups = batches(pool);
        for u in (ops.start..ops.end).step_by(BATCH) {
            let first = u as usize % POOL;
            let op = rec.open("op", u, None);
            let span = rec.open("core.query_batch", u, Some(op));
            let t = Instant::now();
            let results = ctx.db.query_batch_canonical_mode(&groups[first / BATCH]);
            let ns = t.elapsed().as_nanos() as u64;
            rec.close(span);
            tally.busy_ns += ns;
            for (k, res) in results.iter().enumerate() {
                // A query's latency is its batch's: it waits for the walk.
                record(ctx, pool, first + k, res, ns, &mut tally);
            }
            rec.close(op);
        }
    } else {
        for u in ops {
            let i = u as usize % POOL;
            let op = rec.open("op", u, None);
            let span = rec.open("core.query", u, Some(op));
            let t = Instant::now();
            let res = ctx.db.query_canonical_mode(&pool.queries[i], mode_of(i));
            let ns = t.elapsed().as_nanos() as u64;
            rec.close(span);
            tally.busy_ns += ns;
            record(ctx, pool, i, &res, ns, &mut tally);
            rec.close(op);
        }
    }
    (tally, start.elapsed().as_secs_f64())
}

/// Check the reply to pool entry `index` and book it.
fn record(
    ctx: &Ctx,
    pool: &Pool,
    index: usize,
    res: &Result<(QueryAnswer, QueryTrace), DbError>,
    ns: u64,
    tally: &mut Tally,
) {
    let (q, mode, want) = (&pool.queries[index], mode_of(index), pool.expected[index]);
    let ok = match res {
        Ok((answer, trace)) => {
            tally.count_io(trace.io);
            answer_is_correct(&ctx.set, q, mode, want, answer)
        }
        Err(_) => false,
    };
    tally.read(index, mode, ns, ok);
}

/// Throughput of one pass with the observability layer on against one
/// with it off, as a percentage of the latter.
fn observe_overhead_pct(kind: Kind, ctx: &mut Ctx, pool: &Pool) -> f64 {
    let mut off = Recorder::new(Instant::now(), false, 0);
    let pass = 0..POOL as u64;
    let (_, t_off) = phase(kind, ctx, pool, pass.clone(), &mut off);
    ctx.db.set_observability(true);
    let (_, t_on) = phase(kind, ctx, pool, pass, &mut off);
    ctx.db.set_observability(false);
    100.0 * (t_on - t_off) / t_off
}

pub fn run(kind: Kind, args: &Args) -> Report {
    let mut report = Report::default();
    let name = match kind {
        Kind::Hot => "embedded_hot",
        Kind::Cold => "embedded_cold",
        Kind::Batch => "embedded_batch",
    };
    report.note("n", kind.n());
    report.note("page_size", 4096);
    report.note("cache_pages", kind.cache_pages());
    report.note("client_threads", 1);
    report.note("loop", "closed, one in-process caller");
    if kind != Kind::Hot {
        report.note(
            "device",
            "FileDevice; reads are served by the OS page cache, so latencies are the sandbox's, not a disk's",
        );
    }
    if kind == Kind::Batch {
        report.note("batch", BATCH);
    }

    let (mut ctx, setup_times) = setup(kind, args.seed, &args.scratch);
    let t = Instant::now();
    let pool = Pool::new(&ctx.set, args.seed);
    let oracle_s = t.elapsed().as_secs_f64();
    report.note("oracle_s", format!("{oracle_s:.3}"));

    let epoch = Instant::now();
    let mut quiet = Recorder::new(epoch, false, 0);
    // Warm-up: one untimed, verified pass of the pool.
    let pass = POOL as u64;
    let (warm, _) = phase(kind, &ctx, &pool, 0..pass, &mut quiet);
    report.count(&warm);

    let ops = timed_ops(kind.ops_per_s(), args.seconds);
    report.note("timed_ops", ops);
    let (mut tally, wall) = phase(kind, &ctx, &pool, pass..pass + ops, &mut quiet);
    report.count(&tally);
    if kind == Kind::Hot && tally.device_reads != 0 {
        report.violations.push(format!(
            "{} device reads on the hot row after warm-up",
            tally.device_reads
        ));
    }
    let live_pages = ctx.db.space_blocks();
    let space = (live_pages * ctx.db.pager().page_size()) as f64 / ctx.set.len() as f64;
    report.note("live_pages", live_pages);
    report.note("timed_s", format!("{wall:.3}"));

    if !args.trace {
        crate::fill_end_to_end(&mut report, &mut tally, wall, &setup_times, space);
        return report;
    }

    // Traced pass: the same ops again with the recorder on.
    let mut rec = Recorder::new(epoch, true, 2 * ops as usize);
    let (traced, traced_wall) = phase(kind, &ctx, &pool, pass + ops..pass + 2 * ops, &mut rec);
    report.count(&traced);
    let untraced_rate = tally.read_count() as f64 / wall;
    let traced_rate = traced.read_count() as f64 / traced_wall;
    report.set(
        "trace.overhead_pct",
        100.0 * (untraced_rate - traced_rate) / untraced_rate,
    );

    let layer = probes::Inputs {
        set: &ctx.set,
        queries: &pool.queries,
        scratch: &args.scratch,
    };
    probes::isolated(&mut report, &mut rec, &layer);
    probes::core_on_db(&mut report, &mut rec, &ctx.db, &pool.queries);
    crate::fill_in_situ(&mut report, &tally, wall, &setup_times, oracle_s);
    report.set(
        "obs.observe_overhead_pct",
        observe_overhead_pct(kind, &mut ctx, &pool),
    );
    crate::write_trace(args, name, &mut report, &[rec], &tally);
    report
}
