//! E6 + E7 — Lemma 4 vs Theorem 2: the fractional-cascading ablation.
//!
//! Without bridges, every level of the segment tree `G` pays a full
//! B⁺-tree descent: `O(log_B n (log_B n · log₂ B + IL*) + t)` (Lemma 4).
//! With bridges satisfying the `d`-property, all descents below the root
//! of `G` collapse to `O(1)` jumps, giving
//! `O(log_B n (log_B n + log₂ B + IL*) + t)` (Theorem 2). This binary
//! regenerates both rows plus the `d` sweep (space/time trade of the
//! bridge density).

use segdb_bench::{f1, f2, run_batch, table};
use segdb_core::interval2l::{Interval2LConfig, TwoLevelInterval};
use segdb_geom::gen::{fixed_height_queries, strips};
use segdb_pager::{Pager, PagerConfig};

fn main() {
    // Long-segment-heavy workload: G dominates the query cost.
    let n_items = 60_000;
    let set = strips(n_items, 1 << 18, 16, 700, 99);
    let queries = fixed_height_queries(&set, 80, 1200, 13);
    let page = 4096usize;

    // A small first-level fanout concentrates long fragments into few,
    // deep multislab B⁺-trees — the regime where each avoided descent
    // saves multiple reads (the asymptotic log₂ B gap of §4.3).
    let deep = |cfg: Interval2LConfig| Interval2LConfig {
        fanout: Some(4),
        ..cfg
    };

    let mut rows = Vec::new();
    for (label, cfg) in [
        (
            "bridges off (Lemma 4)".to_string(),
            Interval2LConfig {
                bridges: false,
                ..Interval2LConfig::default()
            },
        ),
        (
            "bridges d=2 (Thm 2)".to_string(),
            Interval2LConfig {
                bridge_d: 2,
                ..Interval2LConfig::default()
            },
        ),
        (
            "bridges d=4".to_string(),
            Interval2LConfig {
                bridge_d: 4,
                ..Interval2LConfig::default()
            },
        ),
        (
            "bridges d=8".to_string(),
            Interval2LConfig {
                bridge_d: 8,
                ..Interval2LConfig::default()
            },
        ),
        (
            "deep-G off".to_string(),
            deep(Interval2LConfig {
                bridges: false,
                ..Interval2LConfig::default()
            }),
        ),
        (
            "deep-G d=2".to_string(),
            deep(Interval2LConfig {
                bridge_d: 2,
                ..Interval2LConfig::default()
            }),
        ),
    ] {
        let pager = Pager::new(PagerConfig {
            page_size: page,
            cache_pages: 0,
        });
        let before = pager.live_pages();
        let t = TwoLevelInterval::build(&pager, cfg, set.clone()).unwrap();
        let blocks = pager.live_pages() - before;
        let mut jumps = 0u64;
        let mut probes = 0u64;
        let agg = run_batch(&pager, &queries, |q, out| {
            let trace = t.query_sink(&pager, q, out).unwrap();
            jumps += trace.bridge_jumps as u64;
            probes += trace.second_level_probes as u64;
        });
        let b = page / 40;
        rows.push(vec![
            label,
            blocks.to_string(),
            f1(agg.reads_per_query()),
            f1(agg.search_reads_per_query(b)),
            f1(agg.hits_per_query()),
            f2(jumps as f64 / queries.len() as f64),
            f2(probes as f64 / queries.len() as f64),
        ]);
    }
    table(
        "E6/E7 — fractional cascading ablation (N=60k long-heavy, 4 KiB pages)",
        &[
            "configuration",
            "blocks",
            "reads/q",
            "search/q",
            "t/q",
            "jumps/q",
            "G+PST probes/q",
        ],
        &rows,
    );
    println!("\nTheorem 2 reproduced when the bridged rows beat the Lemma-4 row on search I/O at equal answers.");
    segdb_bench::report::finish("e6_e7").expect("write BENCH_e6_e7.json");
}
