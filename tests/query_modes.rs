//! Query modes through the facade: `Collect` through the user-frame
//! `query` must stay bit-identical to the canonical path, and `Count` / `Exists` / `Limit(k)`
//! must agree with the brute-force oracle — across both index
//! kinds, all fixed-direction query shapes, and under injected read
//! faults. The final test pins the tentpole's I/O win: counting on
//! `TwoLevelInterval` must read strictly fewer pages than collecting.

use segdb::core::report::ids;
use segdb::core::testutil::{collect, oracle_query};
use segdb::core::{IndexKind, Query, QueryAnswer, QueryMode, SegmentDatabase};
use segdb::geom::gen::mixed_map;
use segdb::geom::{Segment, VerticalQuery};
use segdb::pager::{FaultDevice, FaultPlan};

const KINDS: [IndexKind; 2] = [IndexKind::TwoLevelBinary, IndexKind::TwoLevelInterval];

/// Deflake seeds shared with `tests/faults.rs`.
const SEEDS: [u64; 3] = [2, 5, 11];

fn build(kind: IndexKind, set: Vec<Segment>) -> SegmentDatabase {
    SegmentDatabase::builder()
        .page_size(1024)
        .cache_pages(0)
        .index(kind)
        .build(set)
        .unwrap()
}

/// A deterministic battery of line / ray / segment probes anchored on
/// the stored set, plus misses outside its span.
fn battery(set: &[Segment]) -> Vec<VerticalQuery> {
    let mut qs = Vec::new();
    for s in set.iter().step_by(set.len() / 6 + 1) {
        let x = (s.a.x + s.b.x) / 2;
        let y = (s.a.y + s.b.y) / 2;
        qs.push(VerticalQuery::Line { x });
        qs.push(VerticalQuery::RayUp { x, y0: y });
        qs.push(VerticalQuery::RayDown { x, y0: y });
        qs.push(VerticalQuery::segment(x, y - 40, y + 40));
    }
    let max_x = set.iter().map(|s| s.a.x.max(s.b.x)).max().unwrap();
    let min_x = set.iter().map(|s| s.a.x.min(s.b.x)).min().unwrap();
    qs.push(VerticalQuery::Line { x: max_x + 1000 });
    qs.push(VerticalQuery::segment(min_x - 1000, 0, 1));
    qs
}

fn run_mode(db: &SegmentDatabase, q: &VerticalQuery, mode: QueryMode) -> QueryAnswer {
    try_mode(db, q, mode).unwrap()
}

fn try_mode(
    db: &SegmentDatabase,
    q: &VerticalQuery,
    mode: QueryMode,
) -> Result<QueryAnswer, segdb::core::DbError> {
    Ok(db.query(&(*q).into(), mode)?.0)
}

/// Assert every mode against the oracle answer for one query.
fn check_modes(db: &SegmentDatabase, set: &[Segment], q: &VerticalQuery, ctx: &str) {
    let want = oracle_query(set, q);
    let t = want.len() as u64;

    let collected = run_mode(db, q, QueryMode::Collect);
    assert_eq!(ids(collected.segments().unwrap()), want, "{ctx} {q:?}");

    assert_eq!(run_mode(db, q, QueryMode::Count).count(), t, "{ctx} {q:?}");
    assert_eq!(
        run_mode(db, q, QueryMode::Exists),
        QueryAnswer::Exists(t > 0),
        "{ctx} {q:?}"
    );

    for k in [0u32, 1, 3, u32::MAX] {
        let got = run_mode(db, q, QueryMode::Limit(k));
        let hits = got.segments().unwrap();
        assert_eq!(
            hits.len() as u64,
            t.min(k as u64),
            "{ctx} {q:?} limit {k}: wrong prefix length"
        );
        for h in ids(hits) {
            assert!(
                want.binary_search(&h).is_ok(),
                "{ctx} {q:?} limit {k}: id {h} not in the oracle answer"
            );
        }
    }
}

#[test]
fn modes_agree_with_oracle_across_kinds() {
    for kind in KINDS {
        for seed in SEEDS {
            let set = mixed_map(500, seed);
            let db = build(kind, set.clone());
            for q in battery(&set) {
                check_modes(&db, &set, &q, &format!("{kind:?} seed {seed}"));
            }
        }
    }
}

/// `Collect` answers (segments *and* their order) through the
/// user-frame `query` are exactly the canonical path's.
#[test]
fn collect_is_bit_identical_to_vec_api() {
    for kind in KINDS {
        let set = mixed_map(400, 0xC0DE);
        let db = build(kind, set.clone());
        for q in battery(&set) {
            let (via_vec, _) = collect(&db, &q).unwrap();
            let via_mode = run_mode(&db, &q, QueryMode::Collect);
            assert_eq!(via_mode.segments().unwrap(), &via_vec[..], "{kind:?} {q:?}");
        }
    }
}

/// Under transient read faults every mode either fails cleanly or
/// answers exactly; a successful retry must match the oracle.
#[test]
fn modes_survive_injected_read_faults() {
    for kind in KINDS {
        for seed in SEEDS {
            let set = mixed_map(300, seed);
            let (device, handle) = FaultDevice::over_memory(1024, FaultPlan::none(seed));
            let db = SegmentDatabase::builder()
                .cache_pages(0)
                .index(kind)
                .on_device(Box::new(device))
                .build(set.clone())
                .unwrap();
            handle.arm(FaultPlan {
                read_error: 0.02,
                ..FaultPlan::none(seed)
            });
            let mut failures = 0u64;
            for q in battery(&set) {
                let want = oracle_query(&set, &q);
                for mode in [
                    QueryMode::Collect,
                    QueryMode::Count,
                    QueryMode::Exists,
                    QueryMode::Limit(2),
                ] {
                    // Retry through transient faults; a success must be exact.
                    let answer = loop {
                        match try_mode(&db, &q, mode) {
                            Ok(a) => break a,
                            Err(e) => {
                                failures += 1;
                                assert!(failures < 10_000, "fault storm never clears: {e}");
                            }
                        }
                    };
                    match mode {
                        QueryMode::Collect => {
                            assert_eq!(ids(answer.segments().unwrap()), want, "{kind:?} {q:?}")
                        }
                        QueryMode::Count => {
                            assert_eq!(answer.count(), want.len() as u64, "{kind:?} {q:?}")
                        }
                        QueryMode::Exists => {
                            assert_eq!(answer.count() > 0, !want.is_empty(), "{kind:?} {q:?}")
                        }
                        QueryMode::Limit(k) => {
                            let hits = answer.segments().unwrap();
                            assert_eq!(hits.len(), want.len().min(k as usize), "{kind:?} {q:?}");
                        }
                    }
                }
            }
            handle.disarm();
        }
    }
}

/// Acceptance pin: on `TwoLevelInterval`, `Count` answers a large-T
/// line query from the stored run lengths and rank descents — strictly
/// fewer page reads than streaming the full answer (`cache_pages = 0`,
/// so the per-query I/O delta counts every page touched).
#[test]
fn count_reads_fewer_pages_than_collect_on_interval() {
    let set = mixed_map(4000, 0x5EED);
    let mut db = SegmentDatabase::builder()
        .page_size(512)
        .cache_pages(0)
        .index(IndexKind::TwoLevelInterval)
        .build(set.clone())
        .unwrap();
    db.set_observability(true);
    // A line through the median abscissa crosses many strips: large T.
    let mut xs: Vec<i64> = set.iter().map(|s| (s.a.x + s.b.x) / 2).collect();
    xs.sort_unstable();
    let x = xs[xs.len() / 2];

    let line = Query::Line { x, y: 0 };
    let (collected, collect_trace) = db.query(&line, QueryMode::Collect).unwrap();
    let t = collected.count();
    assert!(t > 50, "query too small to be interesting: T = {t}");

    let (counted, count_trace) = db.query(&line, QueryMode::Count).unwrap();
    assert_eq!(counted.count(), t, "count must agree with collect");

    let collect_reads = collect_trace.io.reads;
    let count_reads = count_trace.io.reads;
    assert!(
        count_reads < collect_reads,
        "Count must read strictly fewer pages: {count_reads} vs {collect_reads} (T = {t})"
    );

    // The obs registry tallies per-mode queries and the saved pages.
    let metrics = db.metrics_json().unwrap();
    let counter = |k: &str| {
        metrics
            .get("metrics")
            .and_then(|m| m.get("counters"))
            .and_then(|c| c.get(k))
            .and_then(|v| v.as_f64())
            .unwrap_or(0.0)
    };
    assert_eq!(counter("queries_collect"), 1.0, "{metrics:?}");
    assert_eq!(counter("queries_count"), 1.0, "{metrics:?}");
}
