//! E13 — design-choice ablations called out in DESIGN.md:
//!
//! 1. **PST fanout** — the packed PST trades stored segments per node
//!    for routing width; sweep the fanout between the paper's binary
//!    tree and the page maximum.
//! 2. **First-level fanout** — the paper picks `b = B/4` for Solution 2;
//!    sweep `k` from Solution 1's `k = 1` up to it, to show the
//!    `log_k n` height/space trade between the two theorems.
//! 3. **Buffer pool** — how much of each structure's access pattern is
//!    re-use (0 = the paper's pure model).

use segdb_bench::{f1, run_batch, table};
use segdb_core::interval2l::{Interval2LConfig, TwoLevelInterval};
use segdb_geom::gen::{fan, fixed_height_queries, strips};
use segdb_pager::{Pager, PagerConfig};
use segdb_pst::{Pst, PstConfig, Side};

fn main() {
    // 1. PST fanout sweep.
    let set = fan(60_000, 16, 1 << 20, 0xE13);
    let queries = fixed_height_queries(&set, 80, 400, 0xE13);
    let mut rows = Vec::new();
    for fanout in [Some(2usize), Some(4), Some(8), Some(16), None] {
        let pager = Pager::new(PagerConfig {
            page_size: 4096,
            cache_pages: 0,
        });
        let before = pager.live_pages();
        let cfg = PstConfig { fanout };
        let pst = Pst::build(&pager, 0, Side::Right, cfg, set.clone()).unwrap();
        let blocks = pager.live_pages() - before;
        let agg = run_batch(&pager, &queries, |q, out| {
            pst.query_sink(&pager, q.x(), q.lo(), q.hi(), out).unwrap();
        });
        rows.push(vec![
            fanout.map_or("page max".to_string(), |f| f.to_string()),
            blocks.to_string(),
            f1(agg.reads_per_query()),
            f1(agg.search_reads_per_query(4096 / 40)),
        ]);
    }
    table(
        "E13a — packed-PST fanout sweep (N=60k, 4 KiB pages)",
        &["fanout", "blocks", "reads/q", "search/q"],
        &rows,
    );

    // 2. First-level fanout sweep: k = 1 is Solution 1, the page
    // maximum Solution 2.
    let set = strips(40_000, 1 << 18, 16, 300, 0x1313);
    let queries = fixed_height_queries(&set, 60, 800, 0x1313);
    let mut rows = Vec::new();
    for fanout in [Some(1usize), Some(2), Some(4), Some(8), Some(16), None] {
        let pager = Pager::new(PagerConfig {
            page_size: 4096,
            cache_pages: 0,
        });
        let before = pager.live_pages();
        let cfg = Interval2LConfig {
            fanout,
            ..Interval2LConfig::default()
        };
        let t = TwoLevelInterval::build(&pager, cfg, set.clone()).unwrap();
        let blocks = pager.live_pages() - before;
        let mut depth = 0u32;
        let agg = run_batch(&pager, &queries, |q, out| {
            let trace = t.query_sink(&pager, q, out).unwrap();
            depth = depth.max(trace.first_level_nodes);
        });
        rows.push(vec![
            match fanout {
                Some(1) => "1 (Sol1)".to_string(),
                Some(f) => f.to_string(),
                None => "page max (Sol2)".to_string(),
            },
            blocks.to_string(),
            depth.to_string(),
            f1(agg.reads_per_query()),
        ]);
    }
    table(
        "E13b — first-level fanout sweep, Solution 1 (k = 1) to Solution 2 (N=40k, 4 KiB pages; paper picks b = Θ(B))",
        &["k", "blocks", "1st-level depth", "reads/q"],
        &rows,
    );

    // 3. Buffer-pool ablation on Solution 2.
    let mut rows = Vec::new();
    for cache in [0usize, 32, 256, 2048] {
        let pager = Pager::new(PagerConfig {
            page_size: 4096,
            cache_pages: cache,
        });
        let t = TwoLevelInterval::build(&pager, Interval2LConfig::default(), set.clone()).unwrap();
        pager.reset_stats();
        for _ in 0..2 {
            for q in &queries {
                t.query_sink(&pager, q, &mut Vec::new()).unwrap();
            }
        }
        let s = pager.stats();
        rows.push(vec![
            cache.to_string(),
            s.reads.to_string(),
            s.cache_hits.to_string(),
            f1(s.cache_hits as f64 / (s.reads + s.cache_hits).max(1) as f64 * 100.0),
        ]);
    }
    table(
        "E13c — buffer-pool ablation (Solution 2, same probe set twice)",
        &["cache pages", "phys reads", "hits", "hit %"],
        &rows,
    );
    segdb_bench::report::finish("e13").expect("write BENCH_e13.json");
}
