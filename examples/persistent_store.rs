//! Durable storage: build a database into a single file, close it,
//! reopen it, mutate it, and query segments of any direction.
//!
//! ```sh
//! cargo run --release --example persistent_store
//! ```

use segdb::core::{IndexKind, Query, QueryMode::Collect, SegmentDatabase};
use segdb::geom::gen::mixed_map;
use segdb::geom::Segment;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut path = std::env::temp_dir();
    path.push("segdb-example.db");

    let map = mixed_map(20_000, 0xD8);
    let n = map.len();

    // Build → file (saved + fsynced automatically).
    {
        let db = SegmentDatabase::builder()
            .page_size(4096)
            .index(IndexKind::TwoLevelBinary)
            .enable_arbitrary_queries()
            .persist_to(&path)
            .build(map.clone())?;
        println!(
            "built {} segments into {} ({} blocks)",
            db.len(),
            path.display(),
            db.space_blocks()
        );
    } // file closed here

    // Reopen with a warm cache and query.
    let mut db = SegmentDatabase::open(&path, 256)?;
    assert_eq!(db.len(), n as u64);
    let corridor = Query::Segment {
        x1: 300,
        y1: 0,
        x2: 300,
        y2: 400,
    };
    let (hits, trace) = db.query(&corridor, Collect)?;
    println!(
        "reopened: corridor query hits {} segments with {} physical reads",
        hits.count(),
        trace.io.reads
    );

    // Mutate, save, reopen again.
    let new_seg = Segment::new(1_000_000, (1 << 20, 0), ((1 << 20) + 9, 7))?;
    db.insert(new_seg)?;
    db.save()?;
    drop(db);

    let db = SegmentDatabase::open(&path, 0)?;
    assert_eq!(db.len(), n as u64 + 1);
    let (answer, _) = db.query(
        &Query::Line {
            x: (1 << 20) + 4,
            y: 0,
        },
        Collect,
    )?;
    let hits = answer.segments().unwrap_or_default();
    assert_eq!(hits.len(), 1);
    println!("mutation survived the reopen: {}", hits[0]);

    // Arbitrary-direction query (the §5 extension) straight off disk.
    let (diag, trace) = db.query_free_segment((0, 0), (900, 700))?;
    println!(
        "free diagonal probe: {} hits, {} candidates considered",
        diag.len(),
        trace.second_level_probes
    );

    std::fs::remove_file(&path).ok();
    println!("persistent_store OK");
    Ok(())
}
