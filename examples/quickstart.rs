//! Quickstart: build a segment database, run the three query shapes,
//! inspect the I/O cost model.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use segdb::core::{IndexKind, Query, QueryMode::Collect, SegmentDatabase};
use segdb::geom::Segment;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A tiny map: two horizontal "roads", a vertical "wall", a diagonal
    // "path" touching the wall's top. Non-crossing, touching allowed.
    let segments = vec![
        Segment::new(1, (0, 0), (100, 0))?,   // road
        Segment::new(2, (0, 40), (100, 40))?, // road
        Segment::new(3, (50, 0), (50, 30))?,  // wall (touches road 1)
        Segment::new(4, (50, 30), (60, 40))?, // path (wall top → road 2)
        Segment::new(5, (60, 40), (90, 70))?, // path continues uphill
    ];

    // Build over the paper's improved structure (Theorem 2). The page
    // size sets B, the block capacity in segments.
    let db = SegmentDatabase::builder()
        .page_size(4096)
        .index(IndexKind::TwoLevelInterval)
        .build(segments)?;

    println!(
        "stored {} segments in {} blocks",
        db.len(),
        db.space_blocks()
    );

    // 1. Stabbing query: everything crossing the vertical line x = 50.
    let (answer, trace) = db.query(&Query::Line { x: 50, y: 0 }, Collect)?;
    let hits = answer.segments().unwrap_or_default();
    println!(
        "\nline x=50 hits {} segments with {} read I/Os:",
        hits.len(),
        trace.io.reads
    );
    for s in hits {
        println!("  {s}");
    }
    assert_eq!(hits.len(), 4);

    // 2. VS query (the paper's contribution): a bounded vertical probe.
    let probe = Query::Segment {
        x1: 50,
        y1: 25,
        x2: 50,
        y2: 35,
    };
    let (answer, _) = db.query(&probe, Collect)?;
    let hits = answer.segments().unwrap_or_default();
    println!(
        "\nsegment x=50, 25≤y≤35 hits: {:?}",
        hits.iter().map(|s| s.id).collect::<Vec<_>>()
    );
    assert_eq!(hits.len(), 2); // wall + path touch point

    // 3. Ray query: upwards from (50, 35).
    let (answer, _) = db.query(&Query::RayUp { x: 50, y: 35 }, Collect)?;
    let hits = answer.segments().unwrap_or_default();
    println!(
        "ray up from (50,35) hits: {:?}",
        hits.iter().map(|s| s.id).collect::<Vec<_>>()
    );
    assert_eq!(hits.len(), 1); // road 2 only: the path crosses x=50 at y=30 < 35

    // The same database under a FIXED NON-VERTICAL query direction:
    // probes along direction (1, 2) (for every 1 step right, 2 up).
    let db = SegmentDatabase::builder().direction(1, 2)?.build(vec![
        Segment::new(10, (0, 0), (100, 0))?,
        Segment::new(11, (0, 50), (100, 50))?,
    ])?;
    let (answer, _) = db.query(&Query::Line { x: 10, y: 0 }, Collect)?;
    let hits = answer.segments().unwrap_or_default();
    println!(
        "\nslanted line through (10,0) along (1,2) hits: {:?}",
        hits.iter().map(|s| s.id).collect::<Vec<_>>()
    );
    assert_eq!(hits.len(), 2);

    println!("\nquickstart OK");
    Ok(())
}
