//! E5 — Theorem 1(iii): Solution 1 performs updates in
//! `O(log₂ n + log_B n / B)` amortized I/Os (BB\[α\] maintenance realized
//! as weight-balanced partial rebuilding).
//!
//! Regenerates: amortized insert, delete and update costs per `N`,
//! against the predicted `log₂ n` curve, plus post-storm validation. An
//! update deletes a live segment and inserts it again under its id:
//! every other one moved up inside its strip, the rest exactly as they
//! were — shown again in place, never by a rebuild.

use segdb_bench::{correlation, f1, f2, fresh_pager, lg, ols_slope, table};
use segdb_core::{IndexKind, TwoLevelInterval};
use segdb_geom::gen::strips;
use segdb_geom::Segment;

fn main() {
    let mut rows = Vec::new();
    let mut fits: Vec<(f64, f64)> = Vec::new();
    for exp in [11u32, 13, 15] {
        let n_items = 1usize << exp;
        let set = strips(n_items, 1 << 18, 16, 250, 77 + exp as u64);
        let page = 1024usize;
        let pager = fresh_pager(page);
        let mut t =
            TwoLevelInterval::build(&pager, IndexKind::TwoLevelBinary.config(), vec![]).unwrap();

        let io0 = pager.stats().total_io();
        for s in &set {
            t.insert(&pager, *s).unwrap();
        }
        let ins = (pager.stats().total_io() - io0) as f64 / n_items as f64;

        let io1 = pager.stats().total_io();
        let mut removed = 0usize;
        for s in set.iter().filter(|s| s.id % 2 == 0) {
            assert!(t.remove(&pager, s).unwrap());
            removed += 1;
        }
        let del = (pager.stats().total_io() - io1) as f64 / removed as f64;
        t.validate(&pager).unwrap();

        let io2 = pager.stats().total_io();
        let mut updated = 0usize;
        for (k, s) in set.iter().filter(|s| s.id % 2 == 1).enumerate() {
            assert!(t.remove(&pager, s).unwrap());
            let back = match k % 2 {
                0 => *s,
                _ => Segment::new(s.id, (s.a.x, s.a.y + 4), (s.b.x, s.b.y + 4)).unwrap(),
            };
            t.insert(&pager, back).unwrap();
            updated += 1;
        }
        let upd = (pager.stats().total_io() - io2) as f64 / updated as f64;
        t.validate(&pager).unwrap();

        let b = page / 40;
        let n_blocks = (n_items / b).max(2) as f64;
        let predicted = lg(n_items as f64); // the paper's log2 n term dominates
        fits.push((predicted, ins));
        rows.push(vec![
            n_items.to_string(),
            f1(ins),
            f1(del),
            f1(upd),
            f1(predicted),
            f2(ins / predicted),
            f1(n_blocks.log(b as f64)),
        ]);
    }
    table(
        "E5 — Solution 1 updates (Theorem 1 iii): amortized O(log2 n + log_B n / B)",
        &[
            "N",
            "insert io/op",
            "delete io/op",
            "update io/op",
            "log2 N",
            "ins ratio",
            "log_B n",
        ],
        &rows,
    );
    println!(
        "\nfit of insert cost against log2(N): slope={} r={}  (amortized: includes all partial rebuilds)",
        f2(ols_slope(&fits)),
        f2(correlation(&fits))
    );
    segdb_bench::report::finish("e5").expect("write BENCH_e5.json");
}
