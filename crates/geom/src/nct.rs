//! Validation of the paper's input model: *non-crossing but possibly
//! touching* (NCT) segment sets.
//!
//! The checker sweeps segments by `xmin` keeping an active set pruned by
//! `xmax`; only pairs whose x-extents overlap are looked at, and of
//! those only the ones whose y-extents also meet are classified (four
//! exact orientation tests). This is `O(N log N + P + N·A)` where `P` is
//! the number of x-overlapping pairs and `A` the size of the active set
//! — retiring a segment scans it — so for map-like inputs `P, N·A ≪ N²`,
//! and for the adversarial worst case the checker is still correct, just
//! slower (it is a validation tool, not an index-path component).

use crate::error::GeomError;
use crate::predicates::{classify_pair, PairRelation};
use crate::segment::Segment;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Check that `set` is NCT; returns the first violation found.
///
/// Duplicate ids are also rejected (id uniqueness is what makes reporting
/// de-duplication across fragment structures sound), signalled as an
/// [`GeomError::Overlap`] of the id with itself when segments coincide, or
/// a crossing error otherwise.
///
/// ```
/// use segdb_geom::nct::verify_nct;
/// use segdb_geom::{GeomError, Segment};
///
/// let touching = vec![
///     Segment::new(1, (0, 0), (10, 0)).unwrap(),
///     Segment::new(2, (10, 0), (10, 5)).unwrap(), // touches at (10, 0): fine
/// ];
/// assert!(verify_nct(&touching).is_ok());
///
/// let crossing = vec![
///     Segment::new(1, (0, 0), (10, 10)).unwrap(),
///     Segment::new(2, (0, 10), (10, 0)).unwrap(),
/// ];
/// assert!(matches!(verify_nct(&crossing), Err(GeomError::Crossing(1, 2))));
/// ```
pub fn verify_nct(set: &[Segment]) -> Result<(), GeomError> {
    let mut ids: Vec<u64> = set.iter().map(|s| s.id).collect();
    ids.sort_unstable();
    if let Some(w) = ids.windows(2).find(|w| w[0] == w[1]) {
        return Err(GeomError::Overlap(w[0], w[1]));
    }

    // Sort by xmin; sweep with a min-heap over xmax of active segments.
    let mut order: Vec<usize> = (0..set.len()).collect();
    order.sort_by_key(|&i| set[i].a.x);
    let mut active: BinaryHeap<Reverse<(i64, usize)>> = BinaryHeap::new();
    let mut live: Vec<usize> = Vec::new();

    for &i in &order {
        let s = &set[i];
        // Retire segments ending strictly before this one starts. Touching
        // x-extents must still be compared (they can share an endpoint).
        while let Some(&Reverse((xmax, _))) = active.peek() {
            if xmax < s.a.x {
                let Reverse((_, j)) = active.pop().unwrap();
                live.retain(|&k| k != j);
            } else {
                break;
            }
        }
        let (s_lo, s_hi) = s.y_span();
        for &j in &live {
            let t = &set[j];
            // Closed y-extents strictly apart: the two share no point, so
            // they can neither cross nor overlap. Touching extents are
            // still classified.
            let (t_lo, t_hi) = t.y_span();
            if s_hi < t_lo || t_hi < s_lo {
                continue;
            }
            match classify_pair(s, t) {
                PairRelation::Admissible => {}
                PairRelation::ProperCross => return Err(GeomError::Crossing(t.id, s.id)),
                PairRelation::CollinearOverlap => return Err(GeomError::Overlap(t.id, s.id)),
            }
        }
        active.push(Reverse((s.b.x, i)));
        live.push(i);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(id: u64, a: (i64, i64), b: (i64, i64)) -> Segment {
        Segment::new(id, a, b).unwrap()
    }

    #[test]
    fn accepts_touching_network() {
        // A small street grid: horizontal and vertical pieces meeting at
        // junctions, plus a diagonal touching a junction.
        let set = vec![
            seg(1, (0, 0), (10, 0)),
            seg(2, (10, 0), (20, 0)),
            seg(3, (10, 0), (10, 10)),
            seg(4, (10, 10), (20, 10)),
            seg(5, (0, 5), (10, 10)),
        ];
        assert!(verify_nct(&set).is_ok());
    }

    #[test]
    fn rejects_crossing() {
        let set = vec![seg(1, (0, 0), (10, 10)), seg(2, (0, 10), (10, 0))];
        assert_eq!(verify_nct(&set).unwrap_err(), GeomError::Crossing(1, 2));
    }

    #[test]
    fn rejects_collinear_overlap() {
        let set = vec![seg(1, (0, 0), (10, 0)), seg(2, (9, 0), (12, 0))];
        assert_eq!(verify_nct(&set).unwrap_err(), GeomError::Overlap(1, 2));
    }

    #[test]
    fn rejects_duplicate_ids() {
        let set = vec![seg(7, (0, 0), (1, 0)), seg(7, (5, 5), (6, 5))];
        assert!(matches!(
            verify_nct(&set).unwrap_err(),
            GeomError::Overlap(7, 7)
        ));
    }

    #[test]
    fn far_apart_crossing_in_x_overlap_is_caught() {
        // Segments whose xmin order differs a lot but which overlap in x.
        let set = vec![
            seg(1, (0, 0), (100, 100)),
            seg(2, (50, 0), (60, 1)),
            seg(3, (90, 100), (99, 0)), // crosses segment 1
        ];
        assert!(matches!(
            verify_nct(&set).unwrap_err(),
            GeomError::Crossing(1, 3)
        ));
    }

    #[test]
    fn x_disjoint_segments_never_compared() {
        let set: Vec<Segment> = (0..100)
            .map(|i| seg(i, (i as i64 * 10, 0), (i as i64 * 10 + 5, 50)))
            .collect();
        assert!(verify_nct(&set).is_ok());
    }

    /// The sweep's verdict — `Ok`, or the first violating pair in sweep
    /// order — equals classifying every pair in that order with no
    /// x- or y-extent shortcut. Sets on a tiny lattice, so shared
    /// endpoints, T-junctions, collinear overlaps and crossings are all
    /// common.
    #[test]
    fn verdict_equals_the_all_pairs_sweep() {
        use segdb_rng::SmallRng;
        let mut rng = SmallRng::seed_from_u64(0x5EED_4E07);
        let (mut ok, mut crossing, mut overlap, mut touching) = (0, 0, 0, 0);
        for _ in 0..4000 {
            let n = rng.gen_range(2..=9usize);
            let mut set = Vec::with_capacity(n);
            while set.len() < n {
                let a = (rng.gen_range(0..=7i64), rng.gen_range(0..=7i64));
                let b = (rng.gen_range(0..=7i64), rng.gen_range(0..=7i64));
                if let Ok(s) = Segment::new(set.len() as u64, a, b) {
                    set.push(s);
                }
            }
            let mut order: Vec<usize> = (0..n).collect();
            order.sort_by_key(|&i| set[i].a.x);
            let mut expect = Ok(());
            'pairs: for (at, &i) in order.iter().enumerate() {
                for &j in &order[..at] {
                    let (s, t) = (&set[i], &set[j]);
                    match classify_pair(s, t) {
                        PairRelation::Admissible => {
                            let shared = [s.a, s.b].iter().any(|p| *p == t.a || *p == t.b);
                            touching += u32::from(shared);
                        }
                        PairRelation::ProperCross => {
                            expect = Err(GeomError::Crossing(t.id, s.id));
                            break 'pairs;
                        }
                        PairRelation::CollinearOverlap => {
                            expect = Err(GeomError::Overlap(t.id, s.id));
                            break 'pairs;
                        }
                    }
                }
            }
            match expect {
                Ok(()) => ok += 1,
                Err(GeomError::Crossing(..)) => crossing += 1,
                Err(_) => overlap += 1,
            }
            assert_eq!(verify_nct(&set), expect, "set {set:?}");
        }
        assert!(
            ok > 50 && crossing > 50 && overlap > 50 && touching > 50,
            "every verdict and touching pairs exercised: {ok} {crossing} {overlap} {touching}"
        );
    }

    #[test]
    fn empty_and_singleton_ok() {
        assert!(verify_nct(&[]).is_ok());
        assert!(verify_nct(&[seg(1, (0, 0), (1, 1))]).is_ok());
    }
}
