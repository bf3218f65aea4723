//! E2 — Lemma 3: applying the P-range-tree technique (here: the packed
//! `Θ(B)`-ary PST, DESIGN.md substitution) reduces the query cost to
//! `O(log_B n + IL*(B) + t)` with updates in `O(log_B n + log_B n / B)`
//! amortized, keeping `O(n)` space.
//!
//! Regenerates: packed-vs-binary search I/O (the paper's `log₂ B`
//! speed-up factor), the `log_B n` fit, and amortized insertion cost.

use segdb_bench::{correlation, f1, f2, fresh_pager, ols_slope, run_batch, table};
use segdb_geom::gen::{fan, fixed_height_queries};
use segdb_pst::{Pst, PstConfig, Side};

fn main() {
    let mut rows = Vec::new();
    let mut fits: Vec<(f64, f64)> = Vec::new();
    for page in [512usize, 1024, 4096] {
        for exp in [11u32, 13, 15, 17] {
            let n_items = 1usize << exp;
            let set = fan(n_items, 16, 1 << 20, 42 + exp as u64);
            let queries = fixed_height_queries(&set, 100, 400, 7 * exp as u64);
            let b = page / 40;

            // Binary reference.
            let p1 = fresh_pager(page);
            let bin = Pst::build(&p1, 0, Side::Right, PstConfig::binary(), set.clone()).unwrap();
            let a1 = run_batch(&p1, &queries, |q, out| {
                bin.query_sink(&p1, q.x(), q.lo(), q.hi(), out).unwrap();
            });

            // Packed structure.
            let p2 = fresh_pager(page);
            let before = p2.live_pages();
            let packed = Pst::build(&p2, 0, Side::Right, PstConfig::packed(), set.clone()).unwrap();
            let blocks = p2.live_pages() - before;
            let a2 = run_batch(&p2, &queries, |q, out| {
                packed.query_sink(&p2, q.x(), q.lo(), q.hi(), out).unwrap();
            });

            // Amortized insertion cost into a packed PST.
            let p3 = fresh_pager(page);
            let mut dyn_pst = Pst::build(&p3, 0, Side::Right, PstConfig::packed(), vec![]).unwrap();
            let io0 = p3.stats().total_io();
            for s in &set {
                dyn_pst.insert(&p3, *s).unwrap();
            }
            let ins_amortized = (p3.stats().total_io() - io0) as f64 / n_items as f64;

            let n_blocks = (n_items / b).max(1) as f64;
            let predicted = n_blocks.log(b.max(2) as f64).max(1.0);
            let search = a2.search_reads_per_query(b);
            fits.push((predicted, search));
            rows.push(vec![
                page.to_string(),
                n_items.to_string(),
                f2(blocks as f64 / n_blocks),
                f1(a1.search_reads_per_query(b)),
                f1(search),
                f2(a1.search_reads_per_query(b) / search.max(0.1)),
                f1(predicted),
                f1(ins_amortized),
            ]);
        }
    }
    table(
        "E2 — packed PST (Lemma 3 substitute): query O(log_B n + t), space O(n), amortized updates",
        &[
            "page",
            "N",
            "blocks/n",
            "bin srch/q",
            "packed srch/q",
            "speedup",
            "log_B n",
            "ins io/op",
        ],
        &rows,
    );
    println!(
        "\nfit of packed search-I/O against log_B(n): slope={} r={}",
        f2(ols_slope(&fits)),
        f2(correlation(&fits))
    );
    for page in [512u64, 1024, 4096] {
        let b = page / 40;
        println!(
            "IL*(B={b}) = {} (the paper's additive constant)",
            segdb_bench::il_star(b)
        );
    }
    segdb_bench::report::finish("e2").expect("write BENCH_e2.json");
}
