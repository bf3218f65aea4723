//! E14 — scale: the headline table. Build cost, space and query I/O for
//! both of the paper's structures and both baselines at databases up to
//! a million segments (4 KiB pages, pure I/O model).

use segdb_bench::{f1, run_batch, table};
use segdb_core::{FullScan, IndexKind, StabThenFilter, TwoLevelInterval};
use segdb_geom::gen::{fixed_height_queries, strips};
use segdb_pager::{Pager, PagerConfig};
use std::time::Instant;

fn main() {
    let mut rows = Vec::new();
    for n_items in [100_000usize, 400_000, 1_000_000] {
        let set = strips(n_items, 1 << 22, 16, 250, 0xE14);
        let queries = fixed_height_queries(&set, 40, 2_000, 0x41);
        for (name, which) in [("Sol1", 0u8), ("Sol2", 1), ("stab+filter", 2), ("scan", 3)] {
            let pager = Pager::new(PagerConfig {
                page_size: 4096,
                cache_pages: 0,
            });
            let started = Instant::now();
            enum S {
                A(TwoLevelInterval),
                C(StabThenFilter),
                D(FullScan),
            }
            let s = match which {
                0 | 1 => {
                    let kind =
                        [IndexKind::TwoLevelBinary, IndexKind::TwoLevelInterval][which as usize];
                    S::A(TwoLevelInterval::build(&pager, kind.config(), set.clone()).unwrap())
                }
                2 => S::C(StabThenFilter::build(&pager, &set).unwrap()),
                _ => S::D(FullScan::build(&pager, &set).unwrap()),
            };
            let build_secs = started.elapsed().as_secs_f64();
            let build_io = pager.stats().total_io();
            let blocks = pager.live_pages();
            let agg = run_batch(&pager, &queries, |q, out| match &s {
                S::A(t) => {
                    t.query_sink(&pager, q, out).unwrap();
                }
                S::C(t) => *out = t.query(&pager, q).unwrap().0,
                S::D(t) => *out = t.query(&pager, q).unwrap().0,
            });
            rows.push(vec![
                n_items.to_string(),
                name.to_string(),
                blocks.to_string(),
                format!("{build_io}"),
                format!("{build_secs:.1}s"),
                f1(agg.reads_per_query()),
                f1(agg.hits_per_query()),
            ]);
        }
    }
    table(
        "E14 — scale (4 KiB pages, strips workload, 40 thin probes each)",
        &[
            "N",
            "structure",
            "blocks",
            "build I/O",
            "build time",
            "reads/q",
            "t/q",
        ],
        &rows,
    );
    println!("\nShape: index query I/O grows logarithmically with N while scan grows linearly; stab+filter tracks t_stab.");
    segdb_bench::report::finish("e14").expect("write BENCH_e14.json");
}
