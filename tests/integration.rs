//! Workspace-level integration tests: the full stack (facade → 2LDS →
//! PST/interval tree/B⁺-tree → pager) against the brute-force oracle,
//! across index kinds, workload families, page sizes and directions,
//! on fixed inputs and on random NCT sets.

use segdb::core::report::ids;
use segdb::core::{IndexKind, SegmentDatabase};
use segdb::geom::gen::{vertical_queries, Family};
use segdb::geom::query::scan_oracle;
use segdb::geom::{Segment, VerticalQuery};
use segdb_rng::check;

const INDEXES: [IndexKind; 4] = [
    IndexKind::TwoLevelBinary,
    IndexKind::TwoLevelInterval,
    IndexKind::FullScan,
    IndexKind::StabThenFilter,
];

#[test]
fn every_index_matches_oracle_on_every_family() {
    for family in Family::ALL {
        let set = family.generate(800, 0xF00D);
        let mut queries = vertical_queries(&set, 20, 80, 0x51);
        for s in set.iter().take(8) {
            queries.push(VerticalQuery::Line { x: s.a.x });
            queries.push(VerticalQuery::segment(s.b.x, s.b.y, s.b.y + 100));
            queries.push(VerticalQuery::RayDown {
                x: s.a.x,
                y0: s.a.y,
            });
        }
        for kind in INDEXES {
            let db = SegmentDatabase::builder()
                .page_size(1024)
                .index(kind)
                .build(set.clone())
                .unwrap();
            db.validate().unwrap();
            for q in &queries {
                let (hits, _) = db.query_canonical(q).unwrap();
                assert_eq!(
                    ids(&hits),
                    ids(&scan_oracle(&set, q)),
                    "{kind:?} on {} with {q:?}",
                    family.name()
                );
            }
        }
    }
}

#[test]
fn page_size_never_changes_answers() {
    let set = Family::Mixed.generate(600, 0xAA);
    let queries = vertical_queries(&set, 25, 60, 0xBB);
    let reference: Vec<Vec<u64>> = {
        let db = SegmentDatabase::builder()
            .page_size(4096)
            .build(set.clone())
            .unwrap();
        queries
            .iter()
            .map(|q| ids(&db.query_canonical(q).unwrap().0))
            .collect()
    };
    for page in [256usize, 512, 2048, 8192] {
        for kind in [IndexKind::TwoLevelBinary, IndexKind::TwoLevelInterval] {
            let db = SegmentDatabase::builder()
                .page_size(page)
                .index(kind)
                .build(set.clone())
                .unwrap();
            for (q, expect) in queries.iter().zip(&reference) {
                assert_eq!(
                    &ids(&db.query_canonical(q).unwrap().0),
                    expect,
                    "page {page} {kind:?}"
                );
            }
        }
    }
}

#[test]
fn cache_never_changes_answers_only_io() {
    let set = Family::Strips.generate(2000, 0xCC);
    let queries = vertical_queries(&set, 30, 40, 0xDD);
    let cold = SegmentDatabase::builder()
        .page_size(1024)
        .build(set.clone())
        .unwrap();
    let warm = SegmentDatabase::builder()
        .page_size(1024)
        .cache_pages(512)
        .build(set.clone())
        .unwrap();
    let (mut cold_reads, mut warm_reads) = (0u64, 0u64);
    for _ in 0..2 {
        for q in &queries {
            let (h1, t1) = cold.query_canonical(q).unwrap();
            let (h2, t2) = warm.query_canonical(q).unwrap();
            assert_eq!(ids(&h1), ids(&h2));
            cold_reads += t1.io.reads;
            warm_reads += t2.io.reads;
        }
    }
    assert!(
        warm_reads < cold_reads / 2,
        "cache cut physical reads: {warm_reads} vs {cold_reads}"
    );
}

#[test]
fn fixed_slope_queries_match_brute_force_all_indexes() {
    // Terraces that are NCT under shear (2, 5).
    let set: Vec<Segment> = (0..300)
        .map(|i| {
            let y = 10 * i as i64;
            Segment::new(
                i,
                (-(i as i64 % 7) * 11, y),
                (400 + (i as i64 % 5) * 13, y + 4),
            )
            .unwrap()
        })
        .collect();
    // Brute force an original-space line hit: anchor a, direction (2,5).
    let line_hit = |s: &Segment, ax: i64, ay: i64| {
        let f = |x: i64, y: i64| 5 * (x - ax) - 2 * (y - ay);
        let (va, vb) = (f(s.a.x, s.a.y), f(s.b.x, s.b.y));
        va.signum() * vb.signum() <= 0
    };
    for kind in INDEXES {
        let db = SegmentDatabase::builder()
            .page_size(512)
            .direction(2, 5)
            .unwrap()
            .index(kind)
            .build(set.clone())
            .unwrap();
        for ax in [-50i64, 0, 123, 399] {
            let (hits, _) = db.query_line((ax, 0)).unwrap();
            let expect: Vec<u64> = set
                .iter()
                .filter(|s| line_hit(s, ax, 0))
                .map(|s| s.id)
                .collect();
            assert_eq!(ids(&hits), expect, "{kind:?} anchor {ax}");
            // Answers must round-trip to original coordinates.
            for h in &hits {
                assert_eq!(h, &set[h.id as usize]);
            }
        }
    }
}

#[test]
fn mutation_storm_stays_consistent() {
    let set = Family::Grid.generate(600, 0x11);
    let mut db = SegmentDatabase::builder()
        .page_size(512)
        .index(IndexKind::TwoLevelBinary)
        .build(vec![])
        .unwrap();
    let mut live: Vec<Segment> = Vec::new();
    for (i, s) in set.iter().enumerate() {
        db.insert(*s).unwrap();
        live.push(*s);
        if i % 3 == 2 {
            // Remove a pseudo-random live segment.
            let kill = live.remove((i * 7919) % live.len());
            assert!(db.remove(&kill).unwrap(), "remove {kill}");
        }
        if i % 100 == 99 {
            db.validate().unwrap();
            let q = VerticalQuery::Line { x: set[i].a.x };
            let (hits, _) = db.query_canonical(&q).unwrap();
            assert_eq!(ids(&hits), ids(&scan_oracle(&live, &q)), "step {i}");
        }
    }
    db.validate().unwrap();
    assert_eq!(db.len() as usize, live.len());
}

#[test]
fn whole_database_is_recoverable_by_queries() {
    // Sweep line queries across the whole x-range and union the results:
    // every segment must be reported somewhere, none twice per query.
    let set = Family::Temporal.generate(500, 0x77);
    let db = SegmentDatabase::builder()
        .page_size(512)
        .index(IndexKind::TwoLevelInterval)
        .build(set.clone())
        .unwrap();
    let mut seen = std::collections::BTreeSet::new();
    let xmax = set.iter().map(|s| s.b.x).max().unwrap();
    for x in (0..=xmax).step_by(97) {
        let (hits, _) = db.query_canonical(&VerticalQuery::Line { x }).unwrap();
        for h in hits {
            seen.insert(h.id);
        }
    }
    // Also probe each segment's own left endpoint to catch the rest.
    for s in &set {
        let (hits, _) = db
            .query_canonical(&VerticalQuery::Line { x: s.a.x })
            .unwrap();
        for h in hits {
            seen.insert(h.id);
        }
    }
    assert_eq!(seen.len(), set.len());
}

/// Large-scale soak (run with `cargo test --release -- --ignored`):
/// 200k segments through both structures with cross-checked probes.
#[test]
#[ignore = "multi-second soak; run explicitly with --ignored"]
fn soak_200k_both_structures() {
    let set = Family::Strips.generate(200_000, 0x50AC);
    let queries = vertical_queries(&set, 30, 5, 0x50AC);
    let db1 = SegmentDatabase::builder()
        .page_size(4096)
        .index(IndexKind::TwoLevelBinary)
        .trust_input()
        .build(set.clone())
        .unwrap();
    let db2 = SegmentDatabase::builder()
        .page_size(4096)
        .index(IndexKind::TwoLevelInterval)
        .trust_input()
        .build(set.clone())
        .unwrap();
    db1.validate().unwrap();
    db2.validate().unwrap();
    for q in &queries {
        let (h1, _) = db1.query_canonical(q).unwrap();
        let (h2, _) = db2.query_canonical(q).unwrap();
        assert_eq!(ids(&h1), ids(&h2), "{q:?}");
    }
}

/// Graceful failure on absurdly small pages: structures report
/// `PageOverflow`-style errors instead of corrupting or panicking.
#[test]
fn tiny_pages_fail_gracefully() {
    let set = Family::Grid.generate(50, 1);
    for page in [64usize, 96] {
        for kind in INDEXES {
            // Either an explicit error or a working database — never a panic.
            match SegmentDatabase::builder()
                .page_size(page)
                .index(kind)
                .build(set.clone())
            {
                Err(_) => {}
                Ok(db) => {
                    let (hits, _) = db.query_canonical(&VerticalQuery::Line { x: 5 }).unwrap();
                    assert_eq!(
                        ids(&hits),
                        ids(&scan_oracle(&set, &VerticalQuery::Line { x: 5 }))
                    );
                }
            }
        }
    }
}

/// Random NCT sets — row `i` of `(x0, len, dy, vertical, flat)` lives in
/// its own horizontal strip — and random lines, rays and segments: every
/// index kind answers as the oracle does, built or grown by inserts.
#[test]
fn all_indexes_agree_with_oracle() {
    check::run(
        "all_indexes_agree_with_oracle",
        24,
        |rng| {
            let rows: Vec<_> = (0..rng.gen_range(1..120usize))
                .map(|_| {
                    let (x0, len) = (rng.gen_range(0..2000i64), rng.gen_range(1..2000i64));
                    (
                        x0,
                        len,
                        rng.gen_range(0..14i64),
                        (rng.gen_bool(0.5), rng.gen_bool(0.5)),
                    )
                })
                .collect();
            // Two thirds of the probes sit on an endpoint's abscissa, where
            // the slab boundaries and their `C` sets are.
            let queries: Vec<_> = (0..rng.gen_range(1..12usize))
                .map(|_| {
                    let (x0, len, ..) = rows[rng.gen_range(0..rows.len())];
                    let x = [rng.gen_range(0..4200i64), x0, x0 + len][rng.gen_range(0..3usize)];
                    let lo = rng.gen_range(-50..3000i64);
                    (x, lo, rng.gen_range(0..800i64), rng.gen_range(0..4u8))
                })
                .collect();
            (rows, queries)
        },
        |(rows, queries)| {
            let set: Vec<Segment> = (0u64..)
                .zip(rows)
                .map(|(i, &(x0, len, dy, flags))| {
                    let y = 16 * i as i64;
                    let b = match flags {
                        (true, _) => (x0, y + dy + 1),
                        (_, true) => (x0 + len, y),
                        _ => (x0 + len, y + dy + 1),
                    };
                    Segment::new(i, (x0, y), b).unwrap()
                })
                .collect();
            let queries: Vec<VerticalQuery> = queries
                .iter()
                .map(|&(x, lo, h, shape)| match shape {
                    0 => VerticalQuery::Line { x },
                    1 => VerticalQuery::RayUp { x, y0: lo },
                    2 => VerticalQuery::RayDown { x, y0: lo },
                    _ => VerticalQuery::segment(x, lo, lo + h),
                })
                .collect();
            for kind in INDEXES {
                let builder = || SegmentDatabase::builder().page_size(512).index(kind);
                let mut dbs = vec![builder().build(set.clone()).unwrap()];
                if matches!(
                    kind,
                    IndexKind::TwoLevelBinary | IndexKind::TwoLevelInterval
                ) {
                    let mut grown = builder().build(vec![]).unwrap();
                    for s in &set {
                        grown.insert(*s).unwrap();
                    }
                    dbs.push(grown);
                }
                for db in &dbs {
                    db.validate().unwrap();
                    for q in &queries {
                        let (hits, _) = db.query_canonical(q).unwrap();
                        assert_eq!(ids(&hits), ids(&scan_oracle(&set, q)), "{kind:?} {q:?}");
                    }
                }
            }
        },
    );
}
