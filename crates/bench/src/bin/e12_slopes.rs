//! E12 — "coordinate axes can be appropriately rotated" (paper footnote
//! 1): a fixed non-vertical query direction, reduced to canonical form
//! by the exact shear, must cost the same as native vertical queries —
//! the reduction is free.
//!
//! For a fair comparison, each direction gets probe segments of the same
//! canonical height (in the sheared frame every direction's query *is* a
//! vertical segment), so the target output size matches across rows.

use segdb_bench::{f1, run_batch, table};
use segdb_core::{IndexKind, QueryMode, SegmentDatabase};
use segdb_geom::gen::fixed_height_queries;
use segdb_geom::transform::Direction;
use segdb_geom::Segment;

fn main() {
    // Terrace workload, NCT under every tested shear (strips are
    // y-separated; shears preserve y).
    let set: Vec<Segment> = (0..30_000)
        .map(|i| {
            let y = 12 * (i as i64);
            let x0 = (i as i64 * 37) % 1000;
            Segment::new(i, (x0, y), (x0 + 200 + (i as i64 % 160), y + 5)).unwrap()
        })
        .collect();

    let mut rows = Vec::new();
    for (name, dx, dy) in [
        ("vertical (0,1)", 0i64, 1i64),
        ("slope 1/1", 1, 1),
        ("slope 2/3", 2, 3),
        ("slope -5/2", -5, 2),
    ] {
        let db = SegmentDatabase::builder()
            .page_size(4096)
            .direction(dx, dy)
            .unwrap()
            .index(IndexKind::TwoLevelInterval)
            .build(set.clone())
            .unwrap();
        // Equal-height probes in the canonical (sheared) frame.
        let dir = Direction::new(dx, dy).unwrap();
        let sheared: Vec<Segment> = set.iter().map(|s| dir.apply_segment(s).unwrap()).collect();
        let queries = fixed_height_queries(&sheared, 60, 600, 0xE12);
        let agg = run_batch(db.pager(), &queries, |q, out| {
            let (answer, _) = db.query_canonical_mode(q, QueryMode::Collect).unwrap();
            out.extend_from_slice(answer.segments().unwrap());
        });
        rows.push(vec![
            name.to_string(),
            db.space_blocks().to_string(),
            f1(agg.reads_per_query()),
            f1(agg.hits_per_query()),
            f1(agg.search_reads_per_query(4096 / 40)),
        ]);
    }
    table(
        "E12 — fixed-direction queries via the exact shear (N=30k, equal canonical probe height)",
        &["direction", "blocks", "reads/q", "hits/q", "search/q"],
        &rows,
    );
    println!("\nThe reduction is free when search/query stays in the same band across directions.");
    segdb_bench::report::finish("e12").expect("write BENCH_e12.json");
}
