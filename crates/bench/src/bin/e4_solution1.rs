//! E4 — Theorem 1(i–ii): Solution 1 stores `N` NCT segments in `O(n)`
//! blocks and answers VS queries in `O(log₂ n · (log_B n + IL*(B)) + t)`.
//!
//! Regenerates: per-`N` space and search I/O against the predicted
//! `log₂ n · log_B n` curve, on the mixed GIS-like workload.

use segdb_bench::{correlation, f1, f2, fresh_pager, ols_slope, run_batch, table};
use segdb_core::{IndexKind, TwoLevelInterval};
use segdb_geom::gen::{fixed_height_queries, strips};

fn main() {
    let mut rows = Vec::new();
    let mut fits: Vec<(f64, f64)> = Vec::new();
    for page in [1024usize, 4096] {
        for exp in [12u32, 14, 16] {
            let n_items = 1usize << exp;
            let set = strips(n_items, 1 << 18, 16, 250, 5 + exp as u64);
            let pager = fresh_pager(page);
            let before = pager.live_pages();
            let t =
                TwoLevelInterval::build(&pager, IndexKind::TwoLevelBinary.config(), set.clone())
                    .unwrap();
            let blocks = pager.live_pages() - before;
            let queries = fixed_height_queries(&set, 60, 600, 31 + exp as u64);
            let agg = run_batch(&pager, &queries, |q, out| {
                t.query_sink(&pager, q, out).unwrap();
            });
            let b = (page / 40).max(2);
            let n_blocks = (n_items / b).max(2) as f64;
            let predicted = n_blocks.log2() * n_blocks.log(b as f64).max(1.0);
            let search = agg.search_reads_per_query(b);
            fits.push((predicted, search));
            rows.push(vec![
                page.to_string(),
                n_items.to_string(),
                blocks.to_string(),
                f2(blocks as f64 / n_blocks),
                f1(agg.hits_per_query()),
                f1(agg.reads_per_query()),
                f1(search),
                f1(predicted),
                f2(search / predicted),
            ]);
        }
    }
    table(
        "E4 — Solution 1 (Theorem 1): query O(log2 n (log_B n + IL*) + t), space O(n)",
        &[
            "page",
            "N",
            "blocks",
            "blocks/n",
            "t/q",
            "reads/q",
            "search/q",
            "log2n*logBn",
            "ratio",
        ],
        &rows,
    );
    println!(
        "\nfit of search-I/O against log2(n)·log_B(n): slope={} r={}",
        f2(ols_slope(&fits)),
        f2(correlation(&fits))
    );
    segdb_bench::report::finish("e4").expect("write BENCH_e4.json");
}
