//! Durability tests: a database persisted to a single-file store must
//! survive a close/reopen cycle with identical answers, through every
//! index kind, including after post-reopen mutations.

use segdb::core::report::ids;
use segdb::core::testutil::collect;
use segdb::core::{DbError, IndexKind, Query, QueryMode, QueryMode::Collect, SegmentDatabase};
use segdb::geom::gen::{mixed_map, vertical_queries, Family};
use segdb::geom::query::scan_oracle;
use segdb::geom::{Segment, VerticalQuery};
use segdb::pager::PagerError;

fn tmpfile(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("segdb-test-{name}-{}", std::process::id()));
    p
}

#[test]
fn every_kind_survives_reopen() {
    let set = mixed_map(400, 0xD15C);
    let queries = vertical_queries(&set, 20, 100, 0xD15C);
    for kind in [IndexKind::TwoLevelBinary, IndexKind::TwoLevelInterval] {
        let path = tmpfile(&format!("{kind:?}"));
        let expected: Vec<Vec<u64>> = {
            let db = SegmentDatabase::builder()
                .page_size(1024)
                .index(kind)
                .persist_to(&path)
                .build(set.clone())
                .unwrap();
            queries
                .iter()
                .map(|q| ids(&collect(&db, q).unwrap().0))
                .collect()
        }; // db dropped: file closed
        let db = SegmentDatabase::open(&path, 0).unwrap();
        db.validate().unwrap();
        assert_eq!(db.len(), set.len() as u64, "{kind:?}");
        for (q, want) in queries.iter().zip(&expected) {
            assert_eq!(&ids(&collect(&db, q).unwrap().0), want, "{kind:?} {q:?}");
        }
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn mutations_persist_after_save() {
    let path = tmpfile("mutate");
    let set = Family::Grid.generate(300, 0xAB);
    {
        let mut db = SegmentDatabase::builder()
            .page_size(1024)
            .index(IndexKind::TwoLevelBinary)
            .persist_to(&path)
            .build(set.clone())
            .unwrap();
        // Mutate after the initial save.
        db.remove(&set[0]).unwrap();
        db.insert(Segment::new(999_999, (1 << 20, 0), ((1 << 20) + 5, 3)).unwrap())
            .unwrap();
        db.save().unwrap();
    }
    let db = SegmentDatabase::open(&path, 0).unwrap();
    db.validate().unwrap();
    assert_eq!(db.len(), set.len() as u64);
    let (hits, _) = collect(&db, &VerticalQuery::Line { x: (1 << 20) + 2 }).unwrap();
    assert_eq!(ids(&hits), vec![999_999]);
    let line = VerticalQuery::Line { x: set[0].a.x };
    let (hits, _) = collect(&db, &line).unwrap();
    let mut live = set.clone();
    live.remove(0);
    assert_eq!(ids(&hits), ids(&scan_oracle(&live, &line)));
    std::fs::remove_file(&path).ok();
}

#[test]
fn direction_persists() {
    const LINE_50: Query = Query::Line { x: 50, y: 0 };
    let path = tmpfile("direction");
    let raw: Vec<Segment> = (0..100)
        .map(|i| Segment::new(i, (0, 10 * i as i64), (300, 10 * i as i64 + 2)).unwrap())
        .collect();
    let expected = {
        let db = SegmentDatabase::builder()
            .page_size(1024)
            .direction(1, 2)
            .unwrap()
            .persist_to(&path)
            .build(raw.clone())
            .unwrap();
        db.query(&LINE_50, Collect).unwrap().0
    };
    let db = SegmentDatabase::open(&path, 0).unwrap();
    assert_eq!(db.direction().dx(), 1);
    assert_eq!(db.direction().dy(), 2);
    let (answer, _) = db.query(&LINE_50, Collect).unwrap();
    assert_eq!(answer, expected);
    // Answers still come back in original coordinates.
    for h in answer.segments().unwrap() {
        assert_eq!(h, &raw[h.id as usize]);
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn open_missing_or_garbage_fails_cleanly() {
    assert!(SegmentDatabase::open("/nonexistent/segdb-nope", 0).is_err());
    let path = tmpfile("garbage");
    std::fs::write(&path, vec![0u8; 4096]).unwrap();
    assert!(SegmentDatabase::open(&path, 0).is_err());
    std::fs::remove_file(&path).ok();
}

#[test]
fn cache_on_reopen_is_transparent() {
    let path = tmpfile("cache");
    let set = Family::Strips.generate(2000, 0xEE);
    let queries = vertical_queries(&set, 20, 40, 0xEE);
    let expected: Vec<Vec<u64>> = {
        let db = SegmentDatabase::builder()
            .page_size(1024)
            .persist_to(&path)
            .build(set.clone())
            .unwrap();
        queries
            .iter()
            .map(|q| ids(&collect(&db, q).unwrap().0))
            .collect()
    };
    let db = SegmentDatabase::open(&path, 256).unwrap();
    for (q, want) in queries.iter().zip(&expected) {
        assert_eq!(&ids(&collect(&db, q).unwrap().0), want);
    }
    assert!(db.pager().stats().cache_hits > 0 || db.pager().stats().reads > 0);
    std::fs::remove_file(&path).ok();
}

#[test]
fn truncated_file_fails_cleanly_never_panics() {
    let path = tmpfile("truncate");
    {
        SegmentDatabase::builder()
            .page_size(512)
            .persist_to(&path)
            .build(mixed_map(300, 0x77))
            .unwrap();
    }
    let full = std::fs::metadata(&path).unwrap().len();
    // Cut the file at various points: open must fail or queries must
    // return an error — never panic.
    for frac in [4u64, 2] {
        let cut = tmpfile(&format!("cut{frac}"));
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&cut, &bytes[..(full / frac) as usize]).unwrap();
        match SegmentDatabase::open(&cut, 0) {
            Err(_) => {}
            Ok(db) => {
                // Header may have survived; deeper pages are gone.
                let _ = db.query(&Query::Line { x: 0, y: 0 }, Collect);
            }
        }
        std::fs::remove_file(&cut).ok();
    }
    std::fs::remove_file(&path).ok();
}

/// The file device keeps the superblock in its header page: a `u32`
/// length at byte 32, the blob from byte 36.
const META_LEN_AT: usize = 32;
const META_AT: usize = 36;

/// Only the current format opens. A file stamped with a pre-v3 magic —
/// at the current superblock length or 9 bytes shorter, as those
/// versions wrote it — a v3 file (interval-tree `C` sets), a file whose
/// tombstone-format byte says "bare ids", and a file whose index kind
/// tag names a removed layout (the separate Solution-1 structure, or a
/// baseline) are refused with a message naming the format, and `open`
/// leaves the file byte-for-byte alone.
#[test]
fn older_formats_are_refused_by_name_and_left_untouched() {
    let path = tmpfile("old-format");
    let set = mixed_map(300, 0x01D);
    {
        let mut db = SegmentDatabase::builder()
            .page_size(1024)
            .index(IndexKind::TwoLevelInterval)
            .persist_to(&path)
            .build(set.clone())
            .unwrap();
        assert!(db.remove(&set[0]).unwrap());
        db.save().unwrap();
    }
    let saved = std::fs::read(&path).unwrap();
    assert_eq!(&saved[META_AT..META_AT + 8], b"SEGDB004");
    let meta_len = u32::from_le_bytes(saved[META_LEN_AT..META_AT].try_into().unwrap()) as usize;

    let mut cases: Vec<(&str, Vec<u8>)> = Vec::new();
    for magic in [b"SEGDB001", b"SEGDB002"] {
        let mut old = saved.clone();
        old[META_AT..META_AT + 8].copy_from_slice(magic);
        cases.push(("pre-v3", old.clone()));
        old[META_LEN_AT..META_AT].copy_from_slice(&(meta_len as u32 - 9).to_le_bytes());
        cases.push(("pre-v3", old));
    }
    let mut v3 = saved.clone();
    v3[META_AT..META_AT + 8].copy_from_slice(b"SEGDB003");
    cases.push(("SEGDB003", v3));
    let mut id_tombs = saved.clone();
    assert_eq!(id_tombs[META_AT + meta_len - 9], 1);
    id_tombs[META_AT + meta_len - 9] = 0;
    cases.push(("id-format tombstone", id_tombs));
    // The kind tag follows the magic and the direction.
    for (tag, name) in [
        (1u8, "TwoLevelBinary"),
        (3, "FullScan"),
        (4, "StabThenFilter"),
    ] {
        let mut removed = saved.clone();
        assert_eq!(removed[META_AT + 24], 2);
        removed[META_AT + 24] = tag;
        cases.push((name, removed));
    }

    for (names, bytes) in cases {
        std::fs::write(&path, &bytes).unwrap();
        let err = match SegmentDatabase::open(&path, 0) {
            Ok(_) => panic!("an unreadable format ({names}) opened"),
            Err(e) => e.to_string(),
        };
        assert!(err.contains(names) && err.contains("SEGDB004"), "{err}");
        assert!(
            std::fs::read(&path).unwrap() == bytes,
            "open wrote to a refused file"
        );
    }
    std::fs::write(&path, &saved).unwrap();
    SegmentDatabase::open(&path, 0).unwrap().validate().unwrap();
    std::fs::remove_file(&path).ok();
}

/// Lazy deletes ride through a save, in both writable kinds: the
/// tombstone chain is loaded on open and keeps hiding exactly the
/// deleted segments, in every mode, until a compaction folds them away.
#[test]
fn live_tombstones_survive_reopen() {
    let set = mixed_map(400, 0x70B5);
    let queries = vertical_queries(&set, 20, 100, 0x70B5);
    let (deleted, live) = set.split_at(40);
    for kind in [IndexKind::TwoLevelBinary, IndexKind::TwoLevelInterval] {
        let path = tmpfile(&format!("tombstones-{kind:?}"));
        {
            let mut db = SegmentDatabase::builder()
                .page_size(1024)
                .index(kind)
                .persist_to(&path)
                .build(set.clone())
                .unwrap();
            for s in deleted {
                assert!(db.remove(s).unwrap());
            }
            assert_eq!(
                db.tomb_count(),
                40,
                "{kind:?}: deletes stay lazy below the rebuild threshold"
            );
            db.save().unwrap();
        }
        let mut db = SegmentDatabase::open(&path, 0).unwrap();
        db.validate().unwrap();
        assert_eq!((db.len(), db.tomb_count()), (live.len() as u64, 40));
        let answers_live = |db: &SegmentDatabase| {
            for q in &queries {
                let want = ids(&scan_oracle(live, q));
                assert_eq!(ids(&collect(db, q).unwrap().0), want, "{kind:?} {q:?}");
                assert_eq!(
                    db.query_canonical_mode(q, QueryMode::Count)
                        .unwrap()
                        .0
                        .count(),
                    want.len() as u64,
                    "{kind:?} {q:?}: tombstones subtracted from the stored counts"
                );
                let (found, _) = db.query_canonical_mode(q, QueryMode::Exists).unwrap();
                assert_eq!(found.count() > 0, !want.is_empty(), "{kind:?} {q:?} exists");
                let (some, _) = db.query_canonical_mode(q, QueryMode::Limit(3)).unwrap();
                let some = ids(some.segments().unwrap());
                assert_eq!(some.len(), want.len().min(3), "{kind:?} {q:?} limit size");
                assert!(some.iter().all(|id| want.contains(id)), "{kind:?} {q:?}");
            }
        };
        answers_live(&db);
        assert!(
            !db.remove(&deleted[0]).unwrap(),
            "{kind:?}: a tombstoned segment is gone after reopen too"
        );
        assert_eq!(db.tomb_count(), 40);
        assert!(db.compact().unwrap());
        assert_eq!((db.len(), db.tomb_count()), (live.len() as u64, 0));
        db.validate().unwrap();
        answers_live(&db);
        std::fs::remove_file(&path).ok();
    }
}

/// A superblock's tombstone fields are `aux`, a `u32` at byte 37 of the
/// blob, and the count at byte 41. A count of 0 means no chain whatever
/// `aux` says — builds before `TwoLevelBinary` kept tombstones wrote 0
/// there — so a file without tombstones whose `aux` holds anything at
/// all opens and answers as it did.
#[test]
fn a_binary_file_without_tombstones_opens_whatever_aux_says() {
    const AUX_AT: usize = META_AT + 37;
    let path = tmpfile("binary-aux");
    let set = mixed_map(300, 0xA0);
    let queries = vertical_queries(&set, 20, 100, 0xA0);
    SegmentDatabase::builder()
        .page_size(1024)
        .index(IndexKind::TwoLevelBinary)
        .persist_to(&path)
        .build(set.clone())
        .unwrap();
    let saved = std::fs::read(&path).unwrap();
    assert_eq!(saved[AUX_AT + 4..AUX_AT + 12], [0u8; 8], "no tombstones");
    for aux in [0u32, 0x1234_5678] {
        let mut bytes = saved.clone();
        bytes[AUX_AT..AUX_AT + 4].copy_from_slice(&aux.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let db = SegmentDatabase::open(&path, 0).unwrap();
        db.validate().unwrap();
        assert_eq!((db.len(), db.tomb_count()), (set.len() as u64, 0));
        for q in &queries {
            let got = ids(&collect(&db, q).unwrap().0);
            assert_eq!(got, ids(&scan_oracle(&set, q)), "aux {aux:#x} {q:?}");
        }
    }
    std::fs::remove_file(&path).ok();
}

/// The superblock's tombstone count (a `u64` at byte 41 of the blob)
/// must agree with the chain `open` loads: a file where it does not
/// would answer every count off by the difference, so it is refused by
/// name and left byte-for-byte alone — in both writable kinds.
#[test]
fn a_tombstone_count_that_disagrees_with_the_chain_is_refused() {
    const TOMB_COUNT_AT: usize = META_AT + 41;
    let set = mixed_map(300, 0x7C);
    for kind in [IndexKind::TwoLevelBinary, IndexKind::TwoLevelInterval] {
        let path = tmpfile(&format!("tomb-count-{kind:?}"));
        {
            let mut db = SegmentDatabase::builder()
                .page_size(1024)
                .index(kind)
                .persist_to(&path)
                .build(set.clone())
                .unwrap();
            for s in &set[..5] {
                assert!(db.remove(s).unwrap());
            }
            db.save().unwrap();
        }
        let saved = std::fs::read(&path).unwrap();
        assert_eq!(saved[TOMB_COUNT_AT..TOMB_COUNT_AT + 8], 5u64.to_le_bytes());
        for wrong in [4u64, 6] {
            let mut bytes = saved.clone();
            bytes[TOMB_COUNT_AT..TOMB_COUNT_AT + 8].copy_from_slice(&wrong.to_le_bytes());
            std::fs::write(&path, &bytes).unwrap();
            let err = match SegmentDatabase::open(&path, 0) {
                Ok(_) => panic!("{kind:?}: opened with {wrong} tombstones over a chain of 5"),
                Err(e) => e.to_string(),
            };
            assert!(err.contains("tombstone chain"), "{kind:?}: {err}");
            assert!(
                std::fs::read(&path).unwrap() == bytes,
                "{kind:?}: open wrote to a refused file"
            );
        }
        std::fs::write(&path, &saved).unwrap();
        let db = SegmentDatabase::open(&path, 0).unwrap();
        db.validate().unwrap();
        assert_eq!(db.tomb_count(), 5);
        std::fs::remove_file(&path).ok();
    }
}

/// Putting a deleted segment back exactly as it was records it on the
/// tombstone chain once more: a segment recorded an odd number of times
/// is hidden, and the superblock counts records. Such a chain rides
/// through a save in both writable kinds — reopened, it hides exactly
/// the segments still deleted, in Collect and Count, validates, takes
/// more updates across another reopen, and compacts away. A record
/// count the chain does not hold is refused as corrupt.
#[test]
fn shown_again_records_survive_reopen() {
    const TOMB_COUNT_AT: usize = META_AT + 41;
    let set = mixed_map(400, 0x5A0E);
    let queries = vertical_queries(&set, 20, 100, 0x5A0E);
    let (back, gone) = (&set[..30], &set[30..40]);
    let live: Vec<Segment> = set.iter().filter(|s| !gone.contains(s)).copied().collect();
    for kind in [IndexKind::TwoLevelBinary, IndexKind::TwoLevelInterval] {
        let path = tmpfile(&format!("shown-again-{kind:?}"));
        let answers_live = |db: &SegmentDatabase, tag: &str| {
            db.validate().unwrap();
            for q in &queries {
                let want = ids(&scan_oracle(&live, q));
                assert_eq!(
                    ids(&collect(db, q).unwrap().0),
                    want,
                    "{kind:?} {tag} {q:?}"
                );
                let (count, _) = db.query_canonical_mode(q, QueryMode::Count).unwrap();
                assert_eq!(count.count(), want.len() as u64, "{kind:?} {tag} {q:?}");
            }
        };
        {
            let mut db = SegmentDatabase::builder()
                .page_size(1024)
                .index(kind)
                .persist_to(&path)
                .build(set.clone())
                .unwrap();
            for s in &set[..40] {
                assert!(db.remove(s).unwrap());
            }
            for s in back {
                db.insert(*s).unwrap();
            }
            assert_eq!(db.tomb_count(), gone.len() as u64);
            db.save().unwrap();
        }
        let saved = std::fs::read(&path).unwrap();
        assert_eq!(saved[TOMB_COUNT_AT..TOMB_COUNT_AT + 8], 70u64.to_le_bytes());
        for wrong in [69u64, 71] {
            let mut bytes = saved.clone();
            bytes[TOMB_COUNT_AT..TOMB_COUNT_AT + 8].copy_from_slice(&wrong.to_le_bytes());
            std::fs::write(&path, &bytes).unwrap();
            match SegmentDatabase::open(&path, 0) {
                Err(DbError::Pager(PagerError::Corrupt(what))) => {
                    assert!(what.contains("tombstone chain"), "{kind:?}: {what}")
                }
                other => panic!("{kind:?}: {wrong} records over a chain of 70: {other:?}"),
            }
        }
        std::fs::write(&path, &saved).unwrap();
        {
            let mut db = SegmentDatabase::open(&path, 0).unwrap();
            assert_eq!((db.len(), db.tomb_count()), (live.len() as u64, 10));
            answers_live(&db, "reopened");
            assert!(
                !db.remove(&gone[0]).unwrap(),
                "{kind:?}: deleted after reopen too"
            );
            assert!(
                db.remove(&back[0]).unwrap(),
                "{kind:?}: shown again after reopen"
            );
            db.insert(back[0]).unwrap();
            db.save().unwrap();
        }
        let mut db = SegmentDatabase::open(&path, 0).unwrap();
        answers_live(&db, "updated and reopened");
        assert!(db.compact().unwrap());
        assert_eq!((db.len(), db.tomb_count()), (live.len() as u64, 0));
        answers_live(&db, "compacted");
        std::fs::remove_file(&path).ok();
    }
}
