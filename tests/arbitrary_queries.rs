//! The §5 future-work extension through the facade: arbitrary-direction
//! query segments, validated against the brute-force predicate, with
//! shear interplay and persistence.

use segdb::core::report::ids;
use segdb::core::testutil::oracle_intersect as oracle;
use segdb::core::{IndexKind, Query, QueryMode::Count, SegmentDatabase};
use segdb::geom::gen::mixed_map;
use segdb::geom::Segment;

fn free_queries() -> Vec<Segment> {
    vec![
        Segment::new(9000, (0, 0), (700, 900)).unwrap(),
        Segment::new(9001, (50, 1000), (800, 20)).unwrap(),
        Segment::new(9002, (333, -50), (334, 1200)).unwrap(),
        Segment::new(9003, (0, 444), (1000, 450)).unwrap(),
    ]
}

#[test]
fn free_segment_queries_match_brute_force() {
    let set = mixed_map(700, 0xFEE);
    let db = SegmentDatabase::builder()
        .page_size(1024)
        .index(IndexKind::TwoLevelInterval)
        .enable_arbitrary_queries()
        .build(set.clone())
        .unwrap();
    db.validate().unwrap();
    for q in free_queries() {
        let (hits, trace) = db.query_free_segment(q.a, q.b).unwrap();
        assert_eq!(ids(&hits), oracle(&set, &q), "{q}");
        assert!(trace.second_level_probes as usize >= hits.len());
    }
    // Fixed-direction queries still work side by side.
    let (hits, _) = db.query(&Query::Line { x: 100, y: 0 }, Count).unwrap();
    assert!(hits.count() > 0);
}

#[test]
fn disabled_extension_reports_unsupported() {
    let db = SegmentDatabase::builder()
        .page_size(512)
        .build(mixed_map(50, 1))
        .unwrap();
    assert!(db.query_free_segment((0, 0), (10, 10)).is_err());
}

#[test]
fn extension_tracks_mutations() {
    let set = mixed_map(300, 0xFEED);
    let mut db = SegmentDatabase::builder()
        .page_size(1024)
        .index(IndexKind::TwoLevelBinary)
        .enable_arbitrary_queries()
        .build(set.clone())
        .unwrap();
    let probe = free_queries()[0];
    db.remove(&set[3]).unwrap();
    let extra = Segment::new(77_000, (10, 5000), (600, 5700)).unwrap();
    db.insert(extra).unwrap();
    db.validate().unwrap();
    let mut live: Vec<Segment> = set.clone();
    live.remove(3);
    live.push(extra);
    let (hits, _) = db.query_free_segment(probe.a, probe.b).unwrap();
    assert_eq!(ids(&hits), oracle(&live, &probe));
}

#[test]
fn extension_survives_persistence() {
    let mut path = std::env::temp_dir();
    path.push(format!("segdb-any-{}", std::process::id()));
    let set = mixed_map(250, 0xABCD);
    let probe = free_queries()[1];
    let want = {
        let db = SegmentDatabase::builder()
            .page_size(1024)
            .enable_arbitrary_queries()
            .persist_to(&path)
            .build(set.clone())
            .unwrap();
        ids(&db.query_free_segment(probe.a, probe.b).unwrap().0)
    };
    let db = SegmentDatabase::open(&path, 0).unwrap();
    db.validate().unwrap();
    assert_eq!(
        ids(&db.query_free_segment(probe.a, probe.b).unwrap().0),
        want
    );
    assert_eq!(want, oracle(&set, &probe));
    std::fs::remove_file(&path).ok();
}

#[test]
fn works_under_a_fixed_direction_too() {
    // Stored under shear (1,3); free queries of any slope still answer in
    // user coordinates.
    let set: Vec<Segment> = (0..200)
        .map(|i| Segment::new(i, (0, 9 * i as i64), (400, 9 * i as i64 + 4)).unwrap())
        .collect();
    let db = SegmentDatabase::builder()
        .page_size(1024)
        .direction(1, 3)
        .unwrap()
        .enable_arbitrary_queries()
        .build(set.clone())
        .unwrap();
    let q = Segment::new(9000, (10, 0), (350, 1500)).unwrap();
    let (hits, _) = db.query_free_segment(q.a, q.b).unwrap();
    assert_eq!(ids(&hits), oracle(&set, &q));
    for h in &hits {
        assert_eq!(h, &set[h.id as usize], "answers in user coordinates");
    }
}
