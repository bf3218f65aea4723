//! E1 — Lemma 2: the binary external PST answers horizontal-segment
//! queries on `N` line-based segments in `O(log₂ n + t)` I/Os with
//! `O(n)` blocks of storage.
//!
//! Regenerates: search I/O per query (output term removed) against the
//! predicted `log₂ n` curve, and blocks used against `n`, over an
//! `N × B` sweep on the `fan` workload.

use segdb_bench::{correlation, f1, f2, fresh_pager, lg, ols_slope, run_batch, table};
use segdb_geom::gen::{fan, fixed_height_queries};
use segdb_pst::{Pst, PstConfig, Side};

fn main() {
    let mut rows = Vec::new();
    let mut fits: Vec<(f64, f64)> = Vec::new();
    for page in [512usize, 1024, 4096] {
        for exp in [11u32, 13, 15, 17] {
            let n_items = 1usize << exp;
            let pager = fresh_pager(page);
            let set = fan(n_items, 16, 1 << 20, 42 + exp as u64);
            let before = pager.live_pages();
            let pst = Pst::build(&pager, 0, Side::Right, PstConfig::binary(), set.clone()).unwrap();
            let blocks = pager.live_pages() - before;
            // Thin queries keep t small so the log term dominates.
            let queries = fixed_height_queries(&set, 100, 400, 7 * exp as u64);
            let agg = run_batch(&pager, &queries, |q, out| {
                pst.query_sink(&pager, q.x(), q.lo(), q.hi(), out).unwrap();
            });
            let b = page / 40; // segments per block
            let n_blocks = (n_items / b).max(1);
            let predicted = lg(n_blocks as f64);
            let search = agg.search_reads_per_query(b);
            fits.push((predicted, search));
            rows.push(vec![
                page.to_string(),
                n_items.to_string(),
                blocks.to_string(),
                f2(blocks as f64 / n_blocks as f64),
                f1(agg.hits_per_query()),
                f1(agg.reads_per_query()),
                f1(search),
                f1(predicted),
                f2(search / predicted),
            ]);
        }
    }
    table(
        "E1 — binary PST (Lemma 2): query O(log2 n + t), space O(n)",
        &[
            "page",
            "N",
            "blocks",
            "blocks/(n)",
            "t/q",
            "reads/q",
            "search/q",
            "log2(n)",
            "ratio",
        ],
        &rows,
    );
    println!(
        "\nfit of search-I/O against log2(n): slope={} r={}  (shape holds when r ≈ 1, ratio ≈ const)",
        f2(ols_slope(&fits)),
        f2(correlation(&fits))
    );
    segdb_bench::report::finish("e1").expect("write BENCH_e1.json");
}
