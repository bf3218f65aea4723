//! E3 — Lemma 1: the `Find`/`Report` search touches at most ~2 frontier
//! nodes per level beyond output-charged ones (the paper's queue bound),
//! so `Report` costs `O(log n + T/B)` block reads.
//!
//! Regenerates: per-workload frontier statistics of the binary PST —
//! maximum frontier width, fruitless (no-output) node visits per level,
//! and total blocks read against `log₂ n + T/B`.

use segdb_bench::{f1, f2, fresh_pager, table};
use segdb_geom::gen::{comb, fan, fixed_height_queries, vertical_queries};
use segdb_geom::Segment;
use segdb_pst::{Pst, PstConfig, QueryStats, Side};

fn main() {
    let workloads: Vec<(&str, Vec<Segment>)> = vec![
        ("fan", fan(1 << 15, 16, 1 << 20, 3)),
        ("comb", comb(1 << 15)),
        ("tight fan", fan(1 << 15, 4, 1 << 20, 9)),
    ];
    let mut rows = Vec::new();
    for (name, set) in workloads {
        // Keep only segments touching x ≥ 0 half-plane from base 0.
        let set: Vec<Segment> = set
            .into_iter()
            .filter(|s| s.spans_x(0) && !s.is_vertical())
            .collect();
        if set.is_empty() {
            continue;
        }
        let pager = fresh_pager(1024);
        let pst = Pst::build(&pager, 0, Side::Right, PstConfig::binary(), set.clone()).unwrap();
        let mut queries = vertical_queries(&set, 100, 5, 17);
        queries.extend(fixed_height_queries(&set, 100, 50, 19));
        let (mut frontier_max, mut fruitless, mut levels, mut blocks, mut hits) =
            (0u32, 0u64, 0u64, 0u64, 0u64);
        let mut worst_fruitless_per_level = 0.0f64;
        for q in &queries {
            let mut out = Vec::new();
            let st: QueryStats = pst
                .query_sink(&pager, q.x(), q.lo(), q.hi(), &mut out)
                .unwrap();
            frontier_max = frontier_max.max(st.max_frontier);
            fruitless += st.fruitless_nodes as u64;
            levels += st.levels as u64;
            blocks += st.blocks_read as u64;
            hits += st.hits as u64;
            if st.levels > 0 {
                worst_fruitless_per_level =
                    worst_fruitless_per_level.max(st.fruitless_nodes as f64 / st.levels as f64);
            }
        }
        let b = 1024 / 40;
        let nq = queries.len() as f64;
        let predicted = (set.len() as f64 / b as f64).max(2.0).log2() + hits as f64 / nq / b as f64;
        rows.push(vec![
            name.to_string(),
            set.len().to_string(),
            f1(blocks as f64 / nq),
            f1(predicted),
            frontier_max.to_string(),
            f2(fruitless as f64 / levels.max(1) as f64),
            f2(worst_fruitless_per_level),
            f1(hits as f64 / nq),
        ]);
    }
    table(
        "E3 — Find/Report frontier (Lemma 1): ≤ ~2 fruitless nodes per level",
        &[
            "workload",
            "N",
            "blocks/q",
            "log2n+T/B",
            "max frontier",
            "fruitless/level (avg)",
            "(worst)",
            "t/q",
        ],
        &rows,
    );
    println!("\nLemma 1 reproduced when fruitless/level stays a small constant (the paper's queue width 2).");

    // Part 2 — the paper's Find proper (Appendix A): deepest-leftmost /
    // deepest-rightmost lookup must touch O(log n) blocks.
    let mut rows = Vec::new();
    for exp in [12u32, 14, 16] {
        let n_items = 1usize << exp;
        let set = fan(n_items, 16, 1 << 20, 31);
        let pager = fresh_pager(1024);
        let pst = Pst::build(&pager, 0, Side::Right, PstConfig::binary(), set.clone()).unwrap();
        let queries = fixed_height_queries(&set, 100, 200, 41);
        let (mut total_l, mut worst_l, mut total_r) = (0u64, 0u32, 0u64);
        for q in &queries {
            let (_, vl) = pst.find_leftmost(&pager, q.x(), q.lo(), q.hi()).unwrap();
            let (_, vr) = pst.find_rightmost(&pager, q.x(), q.lo(), q.hi()).unwrap();
            total_l += vl as u64;
            total_r += vr as u64;
            worst_l = worst_l.max(vl);
        }
        let b = 1024 / 40;
        let height = ((n_items / b) as f64).log2();
        rows.push(vec![
            n_items.to_string(),
            f1(total_l as f64 / queries.len() as f64),
            f1(total_r as f64 / queries.len() as f64),
            worst_l.to_string(),
            f1(height),
        ]);
    }
    table(
        "E3b — Find (Appendix A): blocks visited per deepest-leftmost/rightmost lookup",
        &["N", "find-left/q", "find-right/q", "worst", "log2(n)"],
        &rows,
    );
    segdb_bench::report::finish("e3").expect("write BENCH_e3.json");
}
