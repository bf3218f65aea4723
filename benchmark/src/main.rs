//! The segdb benchmark: one workload per process, every answer checked,
//! every metric printed by name with its unit, one JSON result line last.
//!
//! ```text
//! segdb-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--scratch DIR] [--out DIR]
//! segdb-benchmark --compare A.json B.json --bounds BENCHMARK.json
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the
//! workload's ops untraced and again traced, then the
//! per-layer probes, prints the per-layer metrics and writes
//! `<out>/trace-<workload>.json`. See `README.md` beside this crate.

mod compare;
mod driver;
mod embedded;
mod inputs;
mod probes;
mod report;
mod served;
mod spans;
mod stats;

use driver::Tally;
use report::{Report, END_TO_END, PER_LAYER, WORKLOADS};
use segdb_obs::Json;
use spans::Recorder;
use std::path::PathBuf;
use std::process::ExitCode;

/// What the command line asked for.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    /// Sizes the timed phase: its op count is the workload's frozen
    /// rate times this (see [`driver::timed_ops`]).
    pub seconds: f64,
    pub trace: bool,
    /// Directory for database and WAL files (removed by `run.sh`).
    pub scratch: PathBuf,
    /// Directory for the trace documents.
    pub out: PathBuf,
}

/// Where one set-up spent its time.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Generate + build (+ save, open, recover, server start, connect):
    /// everything until the first op can be issued, the oracle excluded.
    pub total_s: f64,
    pub build_s: f64,
    pub save_s: f64,
    pub open_s: f64,
    pub recover_s: f64,
}

/// The end-to-end metrics of one timed phase. Consumes the tally's
/// read samples.
pub fn fill_end_to_end(
    report: &mut Report,
    tally: &mut Tally,
    wall_s: f64,
    setup: &SetupTimes,
    space_bytes_per_segment: f64,
) {
    use segdb_core::QueryMode::{Collect, Count, Exists};
    let reads = tally.read_count();
    report.set("setup_s", setup.total_s);
    report.set("read_ops_per_s", reads as f64 / wall_s);
    report.set("collect_p50_us", tally.mode_p50_us(Collect));
    report.set("count_p50_us", tally.mode_p50_us(Count));
    report.set("exists_p50_us", tally.mode_p50_us(Exists));
    report.set("pages_per_query", tally.pages as f64 / reads.max(1) as f64);
    report.set("space_bytes_per_segment", space_bytes_per_segment);
    let beyond = stats::beyond(reads as usize, 99.0);
    if beyond < stats::MIN_BEYOND {
        report
            .violations
            .push(format!("only {beyond} reads beyond the p99"));
    }
    report.note("reads_beyond_p99", beyond);
    report.set("read_p99_us", tally.p99_us());
    report.set("peak_rss_mb", stats::peak_rss_mb());
}

/// The per-layer figures that come from the untraced timed phase
/// itself rather than from a probe. Run after the probes: the pager's
/// share of the time needs their per-access costs.
pub fn fill_in_situ(
    report: &mut Report,
    tally: &Tally,
    wall_s: f64,
    setup: &SetupTimes,
    oracle_s: f64,
) {
    let reads = tally.read_count().max(1) as f64;
    let hits = tally.pages.saturating_sub(tally.device_reads) as f64;
    let misses = tally.device_reads as f64;
    report.set(
        "failed_ratio",
        report.failed as f64 / report.attempted.max(1) as f64,
    );
    report.set("device_reads_per_query", misses / reads);
    report.set("pager.accesses_per_op", tally.pages as f64 / reads);
    report.set("pager.device_reads_per_op", misses / reads);
    report.set("pager.hit_ratio", hits / (hits + misses).max(1.0));
    let metric = |r: &Report, name: &str| r.metrics.get(name).copied().unwrap_or(0.0);
    let pager_ns = hits * metric(report, "pager.hit_ns") + misses * metric(report, "pager.miss_ns");
    let share = pager_ns / tally.busy_ns.max(1) as f64;
    report.set("pager.time_share", share);
    report.set("core.walk_self_share", 1.0 - share);
    report.set("core.build_s", setup.build_s);
    report.set("core.save_s", setup.save_s);
    report.set("core.open_s", setup.open_s);
    report.set("core.recover_s", setup.recover_s);
    report.set("timed_s", wall_s);
    report.set("oracle_s", oracle_s);
    report.set("read_samples", reads);
}

/// Write `<out>/trace-<workload>.json`: every span of the traced phase
/// and the probes, with the counts taken at the same boundaries.
pub fn write_trace(
    args: &Args,
    workload: &str,
    report: &mut Report,
    threads: &[Recorder],
    tally: &Tally,
) {
    let merged = spans::merge(threads);
    report.set("trace.spans", merged.len() as f64);
    let rows = spans::self_times(&merged);
    if let Some(op) = rows.iter().find(|r| r.0 == "op") {
        // What the harness itself adds to an op: checking the answer.
        report.set("harness.op_self_share", op.3 as f64 / op.2.max(1) as f64);
    }
    let counts = vec![
        ("untraced_reads".to_string(), Json::U64(tally.read_count())),
        ("untraced_pages".to_string(), Json::U64(tally.pages)),
        (
            "untraced_device_reads".to_string(),
            Json::U64(tally.device_reads),
        ),
        ("untraced_busy_ns".to_string(), Json::U64(tally.busy_ns)),
        ("attempted".to_string(), Json::U64(report.attempted)),
        ("failed".to_string(), Json::U64(report.failed)),
    ];
    let doc = spans::trace_json(workload, args.seed, &merged, counts);
    std::fs::create_dir_all(&args.out).expect("create the out directory");
    let path = args.out.join(format!("trace-{workload}.json"));
    std::fs::write(&path, doc.render()).expect("write the trace");
    report.note("trace_file", path.display());
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: segdb-benchmark --workload <{}> [--seed N] [--seconds S] [--trace 0|1] \
         [--scratch DIR] [--out DIR]\n       segdb-benchmark --compare A B --bounds BENCHMARK.json",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn parse_args(argv: &[String]) -> Option<Args> {
    let mut args = Args {
        workload: String::new(),
        seed: 42,
        seconds: 15.0,
        trace: false,
        scratch: PathBuf::new(),
        out: PathBuf::from("benchmark/out"),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next()?;
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().ok()?,
            "--seconds" => args.seconds = value.parse().ok().filter(|s: &f64| *s >= 0.0)?,
            "--trace" => args.trace = matches!(value.as_str(), "1" | "true"),
            "--scratch" => args.scratch = PathBuf::from(value),
            "--out" => args.out = PathBuf::from(value),
            _ => return None,
        }
    }
    WORKLOADS.contains(&args.workload.as_str()).then_some(args)
}

/// Removes the scratch directory it made, also on a panic.
struct OwnScratch(Option<PathBuf>);

impl Drop for OwnScratch {
    fn drop(&mut self) {
        if let Some(dir) = &self.0 {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--compare") {
        return compare::main(&argv[1..]);
    }
    let Some(mut args) = parse_args(&argv) else {
        return usage();
    };
    // `run.sh` hands over a directory it removes itself; run bare, the
    // binary makes and removes its own.
    let mut own = OwnScratch(None);
    if args.scratch.as_os_str().is_empty() {
        args.scratch = args.out.join(format!("scratch-{}", std::process::id()));
        own.0 = Some(args.scratch.clone());
    }
    std::fs::create_dir_all(&args.scratch).expect("create the scratch directory");

    let mut report = match args.workload.as_str() {
        "embedded_hot" => embedded::run(embedded::Kind::Hot, &args),
        "embedded_cold" => embedded::run(embedded::Kind::Cold, &args),
        "embedded_batch" => embedded::run(embedded::Kind::Batch, &args),
        "served_read" => served::run(served::Kind::Read, &args),
        _ => served::run(served::Kind::Rw, &args),
    };
    report.note("seed", args.seed);
    report.note("seconds", args.seconds);
    report.note(
        "nproc",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    report.print(
        &args.workload,
        if args.trace { &PER_LAYER } else { &END_TO_END },
    );
    drop(own);
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
