//! Reusable experiment drivers.
//!
//! The `e*` binaries stay thin wrappers so integration tests can run the
//! same experiment at toy sizes and assert on the machine-readable
//! output instead of scraping stdout.

use crate::{f1, fresh_pager, report, table};
use segdb_core::{FullScan, IndexKind, QueryTrace, StabThenFilter, TwoLevelInterval};
use segdb_geom::gen::{strips, vertical_queries};
use segdb_obs::cost::{CostKind, CostModel, Fitter};
use segdb_obs::metrics::Histogram;
use segdb_obs::Json;

/// Per-index accumulation across the whole grid: the I/O-per-query
/// histogram plus the paper-bound fitter, snapshotted into the
/// `BENCH_e10.json` metrics block.
struct KindStats {
    name: &'static str,
    hist: Histogram,
    fitter: Fitter,
    reads: u64,
    queries: u64,
}

impl KindStats {
    fn new(name: &'static str, kind: CostKind, n: u64, b: u64) -> KindStats {
        KindStats {
            name,
            hist: Histogram::default(),
            fitter: Fitter::new(CostModel::new(kind, n, b)),
            reads: 0,
            queries: 0,
        }
    }

    fn observe(&mut self, trace: &QueryTrace, t_items: u64) {
        self.hist.observe(trace.io.total_io());
        self.fitter.record(t_items, trace.io.total_io());
        self.reads += trace.io.reads;
        self.queries += 1;
    }

    fn to_json(&self) -> (String, Json) {
        (
            self.name.to_string(),
            Json::obj([
                ("io_per_query", self.hist.to_json()),
                ("cost", self.fitter.to_json()),
            ]),
        )
    }
}

/// E10 — the four structures head-to-head across a (long-segment share ×
/// query height) grid. Prints the crossover table, accumulates the
/// per-kind I/O histograms and cost-model fits into the report
/// accumulator (section `"metrics"`), and returns that metrics block.
pub fn run_e10(n_items: usize, queries_per_cell: usize, shares: &[u32], heights: &[u32]) -> Json {
    let page = 4096usize;
    let b = segdb_core::chain::cap(page) as u64;
    let mut stats = [
        KindStats::new("binary", CostKind::TwoLevelBinary, n_items as u64, b),
        KindStats::new("interval", CostKind::TwoLevelInterval, n_items as u64, b),
        KindStats::new("scan", CostKind::FullScan, n_items as u64, b),
        KindStats::new("stab", CostKind::StabThenFilter, n_items as u64, b),
    ];
    let mut rows = Vec::new();
    for &long_share in shares {
        let set = strips(n_items, 1 << 18, 16, long_share, 2024);
        for &height_mille in heights {
            let queries = vertical_queries(&set, queries_per_cell, height_mille, 7);

            let p1 = fresh_pager(page);
            let s1 = TwoLevelInterval::build(&p1, IndexKind::TwoLevelBinary.config(), set.clone())
                .unwrap();
            let p2 = fresh_pager(page);
            let s2 =
                TwoLevelInterval::build(&p2, IndexKind::TwoLevelInterval.config(), set.clone())
                    .unwrap();
            let p3 = fresh_pager(page);
            let s3 = FullScan::build(&p3, &set).unwrap();
            let p4 = fresh_pager(page);
            let s4 = StabThenFilter::build(&p4, &set).unwrap();

            let (mut hits, mut stab_candidates) = (0u64, 0u64);
            let cell_start: Vec<u64> = stats.iter().map(|s| s.reads).collect();
            for q in &queries {
                let t = s1.query_sink(&p1, q, &mut Vec::new()).unwrap();
                stats[0].observe(&t, t.hits as u64);
                hits += t.hits as u64;
                let t = s2.query_sink(&p2, q, &mut Vec::new()).unwrap();
                stats[1].observe(&t, t.hits as u64);
                let (h, t) = s3.query(&p3, q).unwrap();
                stats[2].observe(&t, h.len() as u64);
                let (_, t) = s4.query(&p4, q).unwrap();
                stats[3].observe(&t, t.second_level_probes as u64);
                stab_candidates += t.second_level_probes as u64;
            }
            let nq = queries.len().max(1) as f64;
            let per_q = |i: usize| f1((stats[i].reads - cell_start[i]) as f64 / nq);
            rows.push(vec![
                format!("{}%", long_share / 10),
                format!("{}‰", height_mille),
                f1(hits as f64 / nq),
                f1(stab_candidates as f64 / nq),
                per_q(1),
                per_q(0),
                per_q(3),
                per_q(2),
            ]);
        }
    }
    table(
        &format!(
            "E10 — baselines crossover (N={n_items}): reads/query by long-segment share × query height"
        ),
        &["long", "height", "t/q", "t_stab/q", "Sol2", "Sol1", "stab+filter", "scan"],
        &rows,
    );
    let metrics = Json::Obj(stats.iter().map(KindStats::to_json).collect());
    report::record_section("metrics", metrics.clone());
    metrics
}
