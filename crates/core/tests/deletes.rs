//! One way to delete, in both writable structures: a delete hides
//! exactly the stored segment it names — id and geometry — wherever the
//! structure filed it, and a deleted id can come back: moved, as an
//! ordinary insert, or exactly as it was, shown again in place. What the
//! pages store stays non-crossing, hidden segments included.

use segdb_core::binary2l::{Binary2LConfig, TwoLevelBinary};
use segdb_core::interval2l::{Interval2LConfig, TwoLevelInterval};
use segdb_core::report::ids;
use segdb_core::{IndexKind, QueryMode, SegmentDatabase};
use segdb_geom::gen::{mixed_map, strips, vertical_queries};
use segdb_geom::query::scan_oracle;
use segdb_geom::{Segment, VerticalQuery};
use segdb_pager::{Pager, PagerConfig};
use std::collections::BTreeMap;

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

/// `s` moved up by `dy`.
fn shifted(s: &Segment, dy: i64) -> Segment {
    Segment::new(s.id, (s.a.x, s.a.y + dy), (s.b.x, s.b.y + dy)).unwrap()
}

/// A segment under `id` that properly crosses `s`: one above it at its
/// left end, one below it at its right end.
fn crossing(s: &Segment, id: u64) -> Segment {
    Segment::new(id, (s.a.x, s.a.y + 1), (s.b.x, s.b.y - 1)).unwrap()
}

/// Every query of `items` answers what the scan oracle over `live`
/// answers, in one shared walk.
fn assert_items(
    db: &SegmentDatabase,
    live: &[Segment],
    items: &[(VerticalQuery, QueryMode)],
    ctx: &str,
) {
    for ((q, mode), res) in items.iter().zip(db.query_batch_canonical_mode(items)) {
        let want = ids(&scan_oracle(live, q));
        let (answer, _) = res.unwrap();
        assert_eq!(answer.count(), want.len() as u64, "{ctx}: {mode:?} {q:?}");
        if let Some(hits) = answer.segments() {
            assert_eq!(ids(hits), want, "{ctx}: {q:?}");
        }
    }
}

/// Collect and Count forms of `queries`.
fn both_modes(queries: impl IntoIterator<Item = VerticalQuery>) -> Vec<(VerticalQuery, QueryMode)> {
    (queries.into_iter())
        .flat_map(|q| [(q, QueryMode::Collect), (q, QueryMode::Count)])
        .collect()
}

/// Hidden segments still sit in the pages, so what the pages store must
/// stay non-crossing. Every 11th strip is deleted and replaced by a
/// segment crossing it, under a fresh id or the deleted one's: every
/// point and short window within ±9 of each crossing answers right.
#[test]
fn an_insert_across_a_tombstone_is_answered_right() {
    let set = strips(600, 1 << 13, 16, 300, 0xC405);
    for kind in KINDS {
        for page in PAGES {
            for fresh_ids in [true, false] {
                let ctx = format!("{kind:?} page {page} fresh ids {fresh_ids}");
                let mut db = build(kind, page, &set);
                let mut live = set.clone();
                let crossed: Vec<Segment> = set.iter().step_by(11).copied().collect();
                for old in &crossed {
                    assert!(db.remove(old).unwrap(), "{ctx}: {old}");
                }
                for k in (0..live.len()).step_by(11) {
                    live[k] = crossing(&set[k], set[k].id + if fresh_ids { 1_000_000 } else { 0 });
                    db.insert(live[k]).unwrap();
                }
                db.validate().unwrap();
                for old in &crossed {
                    let x = (old.a.x + old.b.x) / 2;
                    let near: Vec<Segment> = (live.iter())
                        .filter(|s| s.a.x <= x + 9 && s.b.x >= x - 9)
                        .copied()
                        .collect();
                    // A point and a window at each (x, y), one collected
                    // and one counted, alternating.
                    let (lo, hi) = old.y_span();
                    let items: Vec<(VerticalQuery, QueryMode)> = (x - 9..=x + 9)
                        .flat_map(|x| {
                            (lo - 2..=hi + 2).flat_map(move |y| {
                                let mut modes = [QueryMode::Collect, QueryMode::Count];
                                modes.rotate_left(((x + y) & 1) as usize);
                                [
                                    (VerticalQuery::segment(x, y, y), modes[0]),
                                    (VerticalQuery::segment(x, y, y + 2), modes[1]),
                                ]
                            })
                        })
                        .collect();
                    assert_items(&db, &near, &items, &ctx);
                }
            }
        }
    }
}

/// Update storms. Each round deletes a batch of live segments and puts
/// each back under its own id: exactly as it was, moved clear of the
/// copy it replaces, moved across it, or moved and deleted again — two
/// hidden segments under one id — before the first copy is shown again.
/// After every round and after `compact`, every answer is the scan
/// oracle's over the live copies, and the database validates.
#[test]
fn update_storms_answer_right_and_validate() {
    let base = strips(400, 1 << 13, 16, 300, 0x5709);
    // Four copies of each strip, all inside its band: as built, moved
    // up, and one crossing each of those. Copies `i` and `i ^ 1` never
    // meet; copies `i` and `i ^ 2` cross.
    let copy = |b: &Segment, i: usize| {
        let b = shifted(b, 4 * (i & 1) as i64);
        if i & 2 == 0 {
            b
        } else {
            crossing(&b, b.id)
        }
    };
    for kind in KINDS {
        for page in PAGES {
            let ctx = format!("{kind:?} page {page}");
            let mut db = build(kind, page, &base);
            let mut at: BTreeMap<u64, usize> = base.iter().map(|s| (s.id, 0)).collect();
            let live = |at: &BTreeMap<u64, usize>| -> Vec<Segment> {
                (base.iter()).map(|b| copy(b, at[&b.id])).collect()
            };
            let check = |db: &SegmentDatabase, at: &BTreeMap<u64, usize>, tag: &str| {
                let live = live(at);
                let mut queries = vertical_queries(&live, 24, 120, 0x5709);
                for s in live.iter().step_by(13) {
                    queries.extend([
                        VerticalQuery::Line { x: s.a.x },
                        VerticalQuery::segment(s.b.x, s.b.y - 20, s.b.y + 20),
                    ]);
                }
                assert_items(db, &live, &both_modes(queries), &format!("{ctx} {tag}"));
                db.validate().unwrap();
            };
            for round in 0..8usize {
                for (k, b) in base.iter().skip(round).step_by(7).enumerate() {
                    let i = at[&b.id];
                    let now = copy(b, i);
                    assert!(db.remove(&now).unwrap(), "{ctx}: {now}");
                    let next = match (k + round) % 4 {
                        0 => i,
                        1 => i ^ 1,
                        2 => i ^ 2,
                        _ => {
                            let moved = copy(b, i ^ 1);
                            db.insert(moved).unwrap();
                            assert!(db.remove(&moved).unwrap(), "{ctx}: {moved}");
                            i
                        }
                    };
                    db.insert(copy(b, next)).unwrap();
                    at.insert(b.id, next);
                }
                check(&db, &at, &format!("round {round}"));
            }
            db.compact().unwrap();
            assert_eq!((db.len(), db.tomb_count()), (base.len() as u64, 0), "{ctx}");
            check(&db, &at, "compacted");
        }
    }
}

/// Putting a deleted segment back exactly as it was shows it again in
/// place; it never rebuilds the index. At N = 2¹⁵ strips on 1 KiB pages
/// with no cache, a delete plus an identical re-insert costs at most
/// 4 × the pages of a fresh insert, in both writable structures.
#[test]
fn an_identical_update_costs_pages_like_an_insert() {
    const N: usize = 1 << 15;
    const OPS: usize = 32;
    let mut base = strips(N + OPS, 1 << 18, 16, 250, 0x10B1);
    let fresh = base.split_off(N);
    for kind in KINDS {
        let mut db = SegmentDatabase::builder()
            .page_size(1024)
            .cache_pages(0)
            .index(kind)
            .trust_input()
            .build(base.clone())
            .unwrap();
        let pages = |db: &SegmentDatabase| db.pager().stats().total_io();
        let before = pages(&db);
        for s in &fresh {
            db.insert(*s).unwrap();
        }
        let insert = pages(&db) - before;
        let before = pages(&db);
        for s in base.iter().step_by(N / OPS) {
            assert!(db.remove(s).unwrap(), "{kind:?}: {s}");
            db.insert(*s).unwrap();
        }
        let update = pages(&db) - before;
        assert_eq!((db.len(), db.tomb_count()), ((N + OPS) as u64, 0));
        assert!(
            update <= 4 * insert,
            "{kind:?}: {OPS} updates cost {update} pages, {OPS} inserts {insert}"
        );
    }
}
