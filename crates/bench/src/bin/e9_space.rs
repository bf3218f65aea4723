//! E9 — Space claims: Theorem 1 stores `N` segments in `O(n)` blocks,
//! Theorem 2 in `O(n log₂ B)` blocks.
//!
//! Regenerates: blocks per structure across an `N × B` sweep, normalized
//! by `n = N/B` and by `n·log₂ B`, against both baselines — on strips,
//! which put no vertical on a boundary line, and on the Mixed family,
//! whose boundary verticals fill the `C` sets.

use segdb_bench::{f2, fresh_pager, table};
use segdb_core::{FullScan, IndexKind, StabThenFilter, TwoLevelInterval};
use segdb_geom::gen::{strips, Family};
use segdb_geom::Segment;
use segdb_pager::Pager;

/// One table row: blocks per structure for `set` at `page`-byte pages.
fn row(page: usize, set: &[Segment]) -> Vec<String> {
    let b = page / 40;
    let n_blocks = (set.len() / b).max(1) as f64;
    let log_b = (b as f64).log2();
    let measure = |f: &dyn Fn(&Pager)| -> usize {
        let pager = fresh_pager(page);
        f(&pager);
        pager.live_pages()
    };
    let solution = |kind: IndexKind| {
        measure(&|p| drop(TwoLevelInterval::build(p, kind.config(), set.to_vec()).unwrap()))
    };
    let (s1, s2) = (
        solution(IndexKind::TwoLevelBinary),
        solution(IndexKind::TwoLevelInterval),
    );
    let fs = measure(&|p| {
        FullScan::build(p, set).unwrap();
    });
    let sf = measure(&|p| drop(StabThenFilter::build(p, set).unwrap()));
    vec![
        page.to_string(),
        set.len().to_string(),
        fs.to_string(),
        s1.to_string(),
        f2(s1 as f64 / n_blocks),
        s2.to_string(),
        f2(s2 as f64 / n_blocks),
        f2(s2 as f64 / (n_blocks * log_b)),
        sf.to_string(),
    ]
}

fn main() {
    let headers = "page N scan Sol1 Sol1/n Sol2 Sol2/n Sol2/(n·log2B) stab";
    let headers: Vec<&str> = headers.split(' ').collect();
    let strips_rows: Vec<Vec<String>> = [1024usize, 4096]
        .into_iter()
        .flat_map(|page| [13u32, 15, 17].map(|e| (page, e)))
        .map(|(page, e)| row(page, &strips(1usize << e, 1 << 18, 16, 300, 55 + e as u64)))
        .collect();
    let title = "E9 — space: Thm 1 O(n) vs Thm 2 O(n log2 B)  (blocks; n = N/B)";
    table(title, &headers, &strips_rows);
    println!("\nShapes hold when Sol1/n stays bounded as N and B grow, and Sol2/(n·log2 B) stays bounded while Sol2/n grows with B.");
    let mixed_rows: Vec<Vec<String>> = [100_000, 200_000, 400_000]
        .map(|n| row(4096, &Family::Mixed.generate(n, 42)))
        .into();
    let title =
        "E9b — space on the Mixed family, seed 42 (verticals on boundary lines fill the C sets)";
    table(title, &headers, &mixed_rows);
    segdb_bench::report::finish("e9").expect("write BENCH_e9.json");
}
