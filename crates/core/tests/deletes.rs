//! One way to delete, in both writable structures: a delete hides
//! exactly the stored segment it names — id and geometry — wherever the
//! structure filed it, and a deleted id can come back.

use segdb_core::binary2l::{Binary2LConfig, TwoLevelBinary};
use segdb_core::interval2l::{Interval2LConfig, TwoLevelInterval};
use segdb_core::report::ids;
use segdb_core::{IndexKind, SegmentDatabase};
use segdb_geom::gen::mixed_map;
use segdb_geom::query::scan_oracle;
use segdb_geom::{Segment, VerticalQuery};
use segdb_pager::{Pager, PagerConfig};

const KINDS: [IndexKind; 2] = [IndexKind::TwoLevelBinary, IndexKind::TwoLevelInterval];
const PAGES: [usize; 2] = [512, 1024];

fn build(kind: IndexKind, page: usize, set: &[Segment]) -> SegmentDatabase {
    SegmentDatabase::builder()
        .page_size(page)
        .index(kind)
        .build(set.to_vec())
        .unwrap()
}

/// Segments in leaves, on base lines (`C`) and crossing them (`L`/`R`)
/// in the structure `build` makes of `set`.
fn placements(kind: IndexKind, page: usize, set: &[Segment]) -> [u64; 3] {
    let p = Pager::new(PagerConfig {
        page_size: page,
        cache_pages: 0,
    });
    if kind == IndexKind::TwoLevelBinary {
        let t = TwoLevelBinary::build(&p, Binary2LConfig::default(), set.to_vec()).unwrap();
        let st = t.describe(&p).unwrap();
        [st.in_leaves, st.on_line, st.crossing]
    } else {
        let t = TwoLevelInterval::build(&p, Interval2LConfig::default(), set.to_vec()).unwrap();
        let st = t.describe(&p).unwrap();
        [st.in_leaves, st.on_line, st.crossing]
    }
}

/// Every line through a segment of `probe`: the database answers what
/// the scan oracle over `live` answers, and validates.
fn assert_lines(db: &SegmentDatabase, live: &[Segment], probe: &[Segment], ctx: &str) {
    for s in probe {
        let q = VerticalQuery::Line { x: s.a.x };
        let (hits, _) = db.query_canonical(&q).unwrap();
        assert_eq!(ids(&hits), ids(&scan_oracle(live, &q)), "{ctx}: {q:?}");
    }
    db.validate().unwrap();
}

/// A segment with a stored segment's geometry and an id nothing carries
/// is not stored: removing it answers `false`, and `len` and the
/// structure stay as they were — tried on every stored segment, so in
/// every placement.
#[test]
fn removing_an_id_that_is_not_stored_changes_nothing() {
    let set = mixed_map(1500, 13);
    for kind in KINDS {
        for page in PAGES {
            let ctx = format!("{kind:?} page {page}");
            let filed = placements(kind, page, &set);
            assert!(filed.iter().all(|&n| n > 0), "{ctx}: {filed:?}");
            let mut db = build(kind, page, &set);
            for s in &set {
                let stranger = Segment::new(s.id + 1_000_000, s.a, s.b).unwrap();
                assert!(!db.remove(&stranger).unwrap(), "{ctx}: {stranger}");
            }
            assert_eq!((db.len(), db.tomb_count()), (set.len() as u64, 0), "{ctx}");
            assert_lines(&db, &set, &set[..40], &ctx);
        }
    }
}

/// Delete, then insert again under the same id: the segment is reported
/// again, with other deletes live and after they are compacted away.
#[test]
fn a_deleted_segment_comes_back_under_its_own_id() {
    let set = mixed_map(1500, 13);
    for kind in KINDS {
        for page in PAGES {
            let ctx = format!("{kind:?} page {page}");
            let mut db = build(kind, page, &set);
            let back: Vec<Segment> = set.iter().step_by(37).copied().collect();
            let gone: Vec<Segment> = set.iter().skip(5).step_by(41).copied().collect();
            for s in &back {
                assert!(db.remove(s).unwrap(), "{ctx}: {s}");
            }
            for s in &back {
                db.insert(*s).unwrap();
            }
            for s in &gone {
                assert!(db.remove(s).unwrap(), "{ctx}: {s}");
            }
            let live: Vec<Segment> = set.iter().filter(|s| !gone.contains(s)).copied().collect();
            assert_eq!(db.len(), live.len() as u64, "{ctx}");
            assert_lines(&db, &live, &back, &ctx);
            assert_eq!(db.tomb_count(), gone.len() as u64, "{ctx}");
            assert!(db.compact().unwrap(), "{ctx}");
            assert_eq!(db.tomb_count(), 0, "{ctx}");
            assert_lines(&db, &live, &back, &ctx);
        }
    }
}
