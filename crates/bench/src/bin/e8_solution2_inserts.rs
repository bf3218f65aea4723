//! E8 — Theorem 2(iii): Solution 2 performs insertions in
//! `O(log_B n + log₂ B + log n / B)` amortized I/Os (weight-balanced
//! first level, amortized bridge rebuilds).
//!
//! Regenerates: amortized insertion cost per `N` against the predicted
//! `log_B n + log₂ B` curve, with and without bridge maintenance.

use segdb_bench::{correlation, f1, f2, fresh_pager, ols_slope, table};
use segdb_core::interval2l::{Interval2LConfig, TwoLevelInterval};
use segdb_geom::gen::strips;

fn main() {
    let mut rows = Vec::new();
    let mut fits: Vec<(f64, f64)> = Vec::new();
    for exp in [11u32, 13, 15] {
        let n_items = 1usize << exp;
        let set = strips(n_items, 1 << 18, 16, 400, 123 + exp as u64);
        let page = 1024usize;
        for (label, cfg) in [
            ("bridges on", Interval2LConfig::default()),
            (
                "bridges off",
                Interval2LConfig {
                    bridges: false,
                    ..Interval2LConfig::default()
                },
            ),
        ] {
            let pager = fresh_pager(page);
            let mut t = TwoLevelInterval::build(&pager, cfg, vec![]).unwrap();
            let io0 = pager.stats().total_io();
            for s in &set {
                t.insert(&pager, *s).unwrap();
            }
            let ins = (pager.stats().total_io() - io0) as f64 / n_items as f64;
            t.validate(&pager).unwrap();
            let b = (page / 40).max(2) as f64;
            let n_blocks = (n_items as f64 / b).max(2.0);
            let predicted = n_blocks.log(b).max(1.0) + b.log2();
            if label == "bridges on" {
                fits.push((predicted, ins));
            }
            rows.push(vec![
                n_items.to_string(),
                label.to_string(),
                f1(ins),
                f1(predicted),
                f2(ins / predicted),
            ]);
        }
    }
    table(
        "E8 — Solution 2 insertions (Theorem 2 iii): amortized O(log_B n + log2 B + log n / B)",
        &["N", "config", "insert io/op", "logBn+log2B", "ratio"],
        &rows,
    );
    println!(
        "\nfit of bridged insert cost against log_B(n)+log2(B): slope={} r={}",
        f2(ols_slope(&fits)),
        f2(correlation(&fits))
    );
    segdb_bench::report::finish("e8").expect("write BENCH_e8.json");
}
