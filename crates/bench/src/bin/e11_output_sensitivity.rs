//! E11 — the `+ t` terms: with `N` fixed, query cost must grow linearly
//! in the output size, with slope ≈ 1/B blocks per reported segment.
//!
//! Regenerates: reads/query against `t` for a fixed nested workload
//! where the query height dials `t` from a handful to nearly `N`.

use segdb_bench::{correlation, f1, f2, fresh_pager, ols_slope, run_batch, table};
use segdb_core::interval2l::{Interval2LConfig, TwoLevelInterval};
use segdb_geom::gen::{nested, vertical_queries};

fn main() {
    let n_items = 30_000;
    let set = nested(n_items);
    let page = 4096usize;
    let pager = fresh_pager(page);
    let t = TwoLevelInterval::build(&pager, Interval2LConfig::default(), set.clone()).unwrap();

    let mut rows = Vec::new();
    let mut pts: Vec<(f64, f64)> = Vec::new();
    for height_mille in [1u32, 5, 25, 100, 400, 990] {
        let queries = vertical_queries(&set, 30, height_mille, 2027);
        let agg = run_batch(&pager, &queries, |q, out| {
            t.query_sink(&pager, q, out).unwrap();
        });
        pts.push((agg.hits_per_query(), agg.reads_per_query()));
        rows.push(vec![
            format!("{height_mille}‰"),
            f1(agg.hits_per_query()),
            f1(agg.reads_per_query()),
            f2(agg.reads_per_query() / agg.hits_per_query().max(1.0)),
        ]);
    }
    table(
        "E11 — output sensitivity (N=30k nested): reads/query vs t",
        &["height", "t/q", "reads/q", "reads per hit"],
        &rows,
    );
    let b = page / 40;
    println!(
        "\nlinear fit reads ~ a·t + c: slope={} (predicted ≈ 1/B = {}), r={}",
        f2(ols_slope(&pts)),
        f2(1.0 / b as f64),
        f2(correlation(&pts))
    );
    segdb_bench::report::finish("e11").expect("write BENCH_e11.json");
}
