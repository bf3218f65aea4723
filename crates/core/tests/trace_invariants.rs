//! Trace invariants: the observability layer's numbers must match the
//! paper's structural guarantees, and attaching it must not change what
//! it measures.

use segdb_core::{FullScan, IndexKind, QueryMode::Collect, SegmentDatabase, StabThenFilter};
use segdb_geom::gen::{mixed_map, vertical_queries};
use segdb_geom::{Segment, VerticalQuery};
use segdb_pager::{Pager, PagerConfig};

const KINDS: [IndexKind; 2] = [IndexKind::TwoLevelBinary, IndexKind::TwoLevelInterval];

fn workload(n: usize, seed: u64) -> (Vec<Segment>, Vec<VerticalQuery>) {
    let set = mixed_map(n, seed);
    let queries = vertical_queries(&set, 60, 120, seed + 1);
    (set, queries)
}

fn build(kind: IndexKind, set: &[Segment], cache_pages: usize) -> SegmentDatabase {
    SegmentDatabase::builder()
        .page_size(1024)
        .cache_pages(cache_pages)
        .index(kind)
        .build(set.to_vec())
        .unwrap()
}

/// Solution 1's first level is a balanced binary tree over the segment
/// endpoints' x-coordinates, so a query touches at most one root-to-leaf
/// path: `first_level_nodes ≤ ⌈log₂(2N)⌉ + c`.
#[test]
fn solution1_first_level_visits_are_logarithmic() {
    let (set, queries) = workload(2000, 41);
    let db = build(IndexKind::TwoLevelBinary, &set, 0);
    let bound = (2.0 * set.len() as f64).log2().ceil() as u32 + 3;
    for q in &queries {
        let (_, trace) = db.query_canonical_mode(q, Collect).unwrap();
        assert!(
            trace.first_level_nodes <= bound,
            "{} first-level nodes > bound {bound} for {q:?}",
            trace.first_level_nodes
        );
    }
}

/// Fractional-cascading bridges link the multislab lists of `G`, which a
/// node with one boundary does not have: Solution 1 must report zero
/// bridge jumps, always.
#[test]
fn bridge_jumps_only_in_two_level_interval() {
    let (set, queries) = workload(1200, 43);
    let db = build(IndexKind::TwoLevelBinary, &set, 0);
    for q in &queries {
        let (_, trace) = db.query_canonical_mode(q, Collect).unwrap();
        assert_eq!(trace.bridge_jumps, 0, "Solution 1 reported a bridge jump");
    }
}

/// `cache_pages = 0` is the paper's pure I/O model: no buffer pool, so a
/// query can never report a cache hit.
#[test]
fn no_cache_hits_without_a_cache() {
    let (set, queries) = workload(1200, 47);
    for kind in KINDS {
        let db = build(kind, &set, 0);
        for q in &queries {
            let (_, trace) = db.query_canonical_mode(q, Collect).unwrap();
            assert_eq!(trace.io.cache_hits, 0, "{kind:?} hit a nonexistent cache");
        }
    }
}

/// Both baselines go through `StatScope`, so their traces carry real I/O
/// numbers (regression guard: `trace.io` must never be left defaulted).
#[test]
fn baseline_traces_carry_io() {
    let (set, queries) = workload(1500, 53);
    let p = Pager::new(PagerConfig {
        page_size: 1024,
        cache_pages: 0,
    });
    let scan = FullScan::build(&p, &set).unwrap();
    let stab = StabThenFilter::build(&p, &set).unwrap();
    let (mut scan_io, mut stab_io) = (0u64, 0u64);
    for q in &queries {
        scan_io += scan.query(&p, q).unwrap().1.io.total_io();
        stab_io += stab.query(&p, q).unwrap().1.io.total_io();
    }
    assert!(scan_io > 0, "FullScan queries reported zero I/O");
    assert!(stab_io > 0, "StabThenFilter queries reported zero I/O");
}

/// Turning tracing and metrics on must not change the measured I/O: the
/// disabled emit path is a branch, the enabled path only copies into a
/// thread-local ring, and neither touches the pager.
#[test]
fn observability_does_not_change_io_counts() {
    let (set, queries) = workload(1500, 59);
    for kind in KINDS {
        let plain = build(kind, &set, 0);
        let mut observed = build(kind, &set, 0);
        observed.set_observability(true);
        for q in &queries {
            let (hits_off, t_off) = plain.query_canonical_mode(q, Collect).unwrap();
            let (hits_on, t_on, summary) = observed.traced_query(&(*q).into()).unwrap();
            assert_eq!(hits_off, hits_on, "{kind:?} answers differ");
            assert_eq!(t_off.io, t_on.io, "{kind:?} I/O differs with obs on");
            assert_eq!(
                summary.page_reads, t_on.io.reads,
                "{kind:?} span events disagree with the I/O counters"
            );
            assert_eq!(
                summary.bridge_jumps,
                u64::from(t_on.bridge_jumps),
                "{kind:?} bridge-jump events disagree with the trace counter"
            );
        }
    }
}

/// With observability on, the cost fitter warms up and judges every
/// query; an honest workload stays inside the fitted envelope.
#[test]
fn cost_verifier_warms_up_and_passes_honest_queries() {
    let (set, queries) = workload(1500, 61);
    for kind in KINDS {
        let mut db = build(kind, &set, 0);
        db.set_observability(true);
        let mut verdicts = 0u32;
        for q in &queries {
            let (_, trace) = db.query_canonical_mode(q, Collect).unwrap();
            if let Some(v) = trace.cost {
                verdicts += 1;
                assert!(
                    v.within,
                    "{kind:?}: honest query flagged (measured {} > bound {:.1})",
                    v.measured, v.bound
                );
            }
        }
        assert!(verdicts > 0, "{kind:?}: fitter never warmed up");
        let snapshot = db.metrics_json().unwrap();
        let violations = snapshot
            .get("cost_model")
            .and_then(|c| c.get("violations"))
            .and_then(|v| v.as_f64());
        assert_eq!(violations, Some(0.0), "{kind:?}");
    }
}
