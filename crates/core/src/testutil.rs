//! Shared brute-force oracles for tests.
//!
//! Every index test in the workspace validates answers against an
//! exhaustive scan; before this module each test file carried its own
//! copy of the same filter-map-sort loop. The helpers here are the one
//! shared implementation. The module is compiled only for this crate's
//! own tests or when the `testutil` feature is enabled (downstream test
//! targets opt in with `segdb-core = { features = ["testutil"] }`).

use crate::{DbError, QueryAnswer, QueryMode, QueryTrace, SegmentDatabase};
use segdb_geom::predicates::{hits_vertical, segments_intersect};
use segdb_geom::{Segment, VerticalQuery};

/// The kernel every oracle shares: keep the items matching `keep`, map
/// them to ids, and sort. Generic so substrate crates (whose unit tests
/// see their own types under `cfg(test)`) can use it on any record type.
pub fn oracle_ids<T>(set: &[T], id: impl Fn(&T) -> u64, keep: impl Fn(&T) -> bool) -> Vec<u64> {
    let mut ids: Vec<u64> = set.iter().filter(|t| keep(t)).map(id).collect();
    ids.sort_unstable();
    ids
}

/// Sorted ids of the segments a canonical vertical probe (`x = qx`,
/// ordinate window `[lo, hi]`, `None` = unbounded) intersects.
pub fn oracle_vertical(set: &[Segment], qx: i64, lo: Option<i64>, hi: Option<i64>) -> Vec<u64> {
    oracle_ids(set, |s| s.id, |s| hits_vertical(s, qx, lo, hi))
}

/// Sorted ids of the segments a [`VerticalQuery`] intersects.
pub fn oracle_query(set: &[Segment], q: &VerticalQuery) -> Vec<u64> {
    oracle_ids(set, |s| s.id, |s| q.hits(s))
}

/// Sorted ids of the segments an arbitrary-direction query segment
/// intersects (closed-set semantics, the §5 extension's oracle).
pub fn oracle_intersect(set: &[Segment], q: &Segment) -> Vec<u64> {
    oracle_ids(set, |s| s.id, |s| segments_intersect(s, q))
}

/// `db`'s collect-mode answer to the canonical query `q` as a plain
/// list, with its trace — the side of an oracle comparison that runs
/// through [`SegmentDatabase::query_canonical_mode`].
pub fn collect(
    db: &SegmentDatabase,
    q: &VerticalQuery,
) -> Result<(Vec<Segment>, QueryTrace), DbError> {
    let (answer, trace) = db.query_canonical_mode(q, QueryMode::Collect)?;
    let QueryAnswer::Segments(hits) = answer else {
        panic!("a collect answer carries segments, got {answer:?}");
    };
    Ok((hits, trace))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(id: u64, a: (i64, i64), b: (i64, i64)) -> Segment {
        Segment::new(id, a, b).unwrap()
    }

    #[test]
    fn oracles_agree_with_each_other() {
        let set = vec![
            seg(3, (0, 0), (10, 0)),
            seg(1, (0, 5), (10, 5)),
            seg(2, (20, 0), (30, 0)),
        ];
        let by_window = oracle_vertical(&set, 5, Some(0), Some(5));
        let by_query = oracle_query(&set, &VerticalQuery::segment(5, 0, 5));
        let by_segment = oracle_intersect(&set, &seg(99, (5, 0), (5, 5)));
        assert_eq!(by_window, vec![1, 3]);
        assert_eq!(by_window, by_query);
        assert_eq!(by_window, by_segment);
    }

    #[test]
    fn generic_kernel_sorts_and_filters() {
        let set = [(7u64, true), (2, false), (5, true)];
        assert_eq!(oracle_ids(&set, |t| t.0, |t| t.1), vec![5, 7]);
    }
}
