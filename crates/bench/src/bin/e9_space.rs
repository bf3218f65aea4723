//! E9 — Space claims: Theorem 1 stores `N` segments in `O(n)` blocks,
//! Theorem 2 in `O(n log₂ B)` blocks.
//!
//! Regenerates: blocks per structure across an `N × B` sweep, normalized
//! by `n = N/B` and by `n·log₂ B`, against both baselines.

use segdb_bench::{f2, table};
use segdb_core::{FullScan, IndexKind, StabThenFilter, TwoLevelInterval};
use segdb_geom::gen::strips;
use segdb_pager::{Pager, PagerConfig};

fn main() {
    let mut rows = Vec::new();
    for page in [1024usize, 4096] {
        for exp in [13u32, 15, 17] {
            let n_items = 1usize << exp;
            let set = strips(n_items, 1 << 18, 16, 300, 55 + exp as u64);
            let b = page / 40;
            let n_blocks = (n_items / b).max(1) as f64;
            let log_b = (b as f64).log2();

            let measure = |f: &dyn Fn(&Pager)| -> usize {
                let pager = Pager::new(PagerConfig {
                    page_size: page,
                    cache_pages: 0,
                });
                f(&pager);
                pager.live_pages()
            };
            let s1 = measure(&|p| {
                TwoLevelInterval::build(p, IndexKind::TwoLevelBinary.config(), set.clone())
                    .map(|_| ())
                    .unwrap()
            });
            let s2 = measure(&|p| {
                TwoLevelInterval::build(p, IndexKind::TwoLevelInterval.config(), set.clone())
                    .map(|_| ())
                    .unwrap()
            });
            let fs = measure(&|p| {
                FullScan::build(p, &set).map(|_| ()).unwrap();
            });
            let sf = measure(&|p| {
                StabThenFilter::build(p, &set).map(|_| ()).unwrap();
            });
            rows.push(vec![
                page.to_string(),
                n_items.to_string(),
                fs.to_string(),
                s1.to_string(),
                f2(s1 as f64 / n_blocks),
                s2.to_string(),
                f2(s2 as f64 / n_blocks),
                f2(s2 as f64 / (n_blocks * log_b)),
                sf.to_string(),
            ]);
        }
    }
    table(
        "E9 — space: Thm 1 O(n) vs Thm 2 O(n log2 B)  (blocks; n = N/B)",
        &[
            "page",
            "N",
            "scan",
            "Sol1",
            "Sol1/n",
            "Sol2",
            "Sol2/n",
            "Sol2/(n·log2B)",
            "stab",
        ],
        &rows,
    );
    println!("\nShapes hold when Sol1/n stays bounded as N and B grow, and Sol2/(n·log2 B) stays bounded while Sol2/n grows with B.");
    segdb_bench::report::finish("e9").expect("write BENCH_e9.json");
}
