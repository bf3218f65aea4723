//! Temporal-database scenario (paper §1: "temporal databases [13]").
//!
//! Each record version is alive over a validity interval `[birth,
//! death]`; mapping *time → x* and *record id → y* turns a version into
//! a horizontal segment, and the classic temporal queries become exactly
//! the paper's generalized segment queries:
//!
//! * **timeslice** ("all versions alive at time t") = vertical *line*
//!   query at `x = t`;
//! * **key-range timeslice** ("versions of records 100–200 alive at t")
//!   = vertical *segment* query;
//! * **appends** (new versions as time advances) = insertions into the
//!   semi-dynamic Theorem-2 structure.
//!
//! ```sh
//! cargo run --release --example temporal_versions
//! ```

use segdb::core::{IndexKind, Query, QueryMode::Collect, SegmentDatabase};
use segdb::geom::gen::temporal;
use segdb::geom::Segment;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    const HORIZON: i64 = 1 << 16;
    let history = temporal(50_000, HORIZON, 0x7E4);
    let n = history.len();
    let mut db = SegmentDatabase::builder()
        .page_size(4096)
        .index(IndexKind::TwoLevelInterval)
        .build(history)?;
    println!("{n} record versions in {} blocks", db.space_blocks());

    // Timeslice at mid-horizon.
    let t0 = HORIZON / 2;
    let (alive, trace) = db.query(&Query::Line { x: t0, y: 0 }, Collect)?;
    println!(
        "timeslice t={t0}: {} versions alive ({} read I/Os, {} first-level nodes)",
        alive.count(),
        trace.io.reads,
        trace.first_level_nodes
    );

    // Key-range timeslice: records 1000..=2000 (y = 2·id).
    let key_range = Query::Segment {
        x1: t0,
        y1: 2000,
        x2: t0,
        y2: 4000,
    };
    let (slice, trace) = db.query(&key_range, Collect)?;
    println!(
        "key-range timeslice ids 1000..=2000: {} alive ({} read I/Os)",
        slice.count(),
        trace.io.reads
    );
    let hits = slice.segments().unwrap_or_default();
    assert!(hits.iter().all(|s| (1000..=2000).contains(&(s.a.y / 2))));
    assert!(slice.count() <= alive.count());

    // Append new versions (semi-dynamic insertion, Theorem 2(iii)).
    let before = db.len();
    for i in 0..1000u64 {
        let id = n as u64 + i;
        let birth = HORIZON - 100 + (i as i64 % 100);
        let seg = Segment::new(id, (birth, 2 * id as i64), (HORIZON + 50, 2 * id as i64))?;
        db.insert(seg)?;
    }
    assert_eq!(db.len(), before + 1000);
    db.validate()?;

    // The fresh versions are visible to late timeslices.
    let fresh = Query::RayUp {
        x: HORIZON + 10,
        y: 2 * n as i64,
    };
    let (late, _) = db.query(&fresh, Collect)?;
    println!("late timeslice sees {} appended versions", late.count());
    assert_eq!(late.count(), 1000);

    println!("temporal_versions OK");
    Ok(())
}
