//! Validation of the paper's input model: *non-crossing but possibly
//! touching* (NCT) segment sets.
//!
//! The checker sweeps segments by `xmin`, keeping the ones already swept
//! in a y-index (`ActiveByY`). Each step visits only the indexed
//! segments whose closed y-extent meets the new one's; of those it
//! classifies the ones still active (their x-extent reaches the sweep
//! position; four exact orientation tests each) and drops the rest from
//! the index for good. This is `O(N log N + K log N)`, where `K` is the
//! number of pairs whose bounding boxes meet: for map-like inputs `K` is
//! a small multiple of `N`; long diagonals can make it quadratic, and the
//! checker is then still correct, just slower.

use crate::error::GeomError;
use crate::predicates::{classify_pair, PairRelation};
use crate::segment::Segment;

/// Check that `set` is NCT; returns the first violation found: for the
/// first segment in sweep order (by `xmin`, ties in input order) that
/// crosses or overlaps an earlier one, the earliest such partner.
///
/// Duplicate ids are also rejected (id uniqueness is what makes reporting
/// de-duplication across fragment structures sound), before any geometry
/// is looked at, as an [`GeomError::Overlap`] of the smallest duplicated
/// id with itself.
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
    verify_non_crossing(set)
}

/// The geometry half of [`verify_nct`]: check that no two segments of
/// `set` cross or overlap collinearly, whatever their ids, and return
/// the first violation in the same order. A store whose ids may repeat
/// (two stored copies of one id, one of them deleted) checks what it
/// stores with this.
pub fn verify_non_crossing(set: &[Segment]) -> Result<(), GeomError> {
    // Segments are named by their rank in the sweep order.
    let mut order: Vec<(i64, usize)> = set.iter().enumerate().map(|(i, s)| (s.a.x, i)).collect();
    order.sort_unstable();
    let swept: Vec<Segment> = order.iter().map(|&(_, i)| set[i]).collect();
    let mut index = ActiveByY::new(&swept);

    for (r, s) in swept.iter().enumerate() {
        // Closed y-extents strictly apart share no point, so they can
        // neither cross nor overlap; touching extents are still
        // classified, and so are touching x-extents (they can share an
        // endpoint). Of the violators, report the earliest in sweep order.
        let (lo, hi) = s.y_span();
        let mut first: Option<(usize, PairRelation)> = None;
        index.meeting(lo, hi, &mut |t| {
            let u = &swept[t];
            if u.b.x < s.a.x {
                return false; // ended before the sweep position: retire
            }
            if first.is_none_or(|(f, _)| t < f) {
                match classify_pair(s, u) {
                    PairRelation::Admissible => {}
                    relation => first = Some((t, relation)),
                }
            }
            true
        });
        match first {
            None => {}
            Some((t, PairRelation::ProperCross)) => {
                return Err(GeomError::Crossing(swept[t].id, s.id))
            }
            Some((t, _)) => return Err(GeomError::Overlap(swept[t].id, s.id)),
        }
        index.set(r, hi);
    }
    Ok(())
}

/// A leaf's value while its segment is not in the index.
const ABSENT: i64 = i64::MIN;

/// The sweep's active set, indexed by y: a max-tree (an implicit binary
/// tree in one array) over every segment sorted by lower y. A leaf holds
/// its segment's upper y while the segment is in the index and
/// [`ABSENT`] otherwise, so a stab for `[lo, hi]` descends only into
/// subtrees whose leaves start at or below `hi` and whose maximum
/// reaches `lo`. A segment that has ended stays in the index until a
/// stab first reaches it, so each leaves at most once, in `O(log N)`.
struct ActiveByY {
    /// Lower y and sweep rank of each leaf's segment, ascending.
    leaves: Vec<(i64, usize)>,
    /// Leaf of each sweep rank.
    leaf: Vec<usize>,
    /// Node `v` has children `2v` and `2v + 1`; leaf `k` is node `width + k`.
    max: Vec<i64>,
    width: usize,
}

impl ActiveByY {
    /// Leaves for all of `swept`, none of them in the index yet.
    fn new(swept: &[Segment]) -> Self {
        let mut leaves: Vec<(i64, usize)> = swept
            .iter()
            .enumerate()
            .map(|(r, s)| (s.y_span().0, r))
            .collect();
        leaves.sort_unstable();
        let mut leaf = vec![0; swept.len()];
        for (k, &(_, r)) in leaves.iter().enumerate() {
            leaf[r] = k;
        }
        let width = swept.len().next_power_of_two();
        let max = vec![ABSENT; 2 * width];
        Self {
            leaves,
            leaf,
            max,
            width,
        }
    }

    /// Set the leaf of sweep rank `r` to `y`: its upper y, or [`ABSENT`].
    fn set(&mut self, r: usize, y: i64) {
        let mut v = self.width + self.leaf[r];
        self.max[v] = y;
        // An ancestor whose maximum does not change leaves all above it.
        while v > 1 {
            v /= 2;
            let m = self.max[2 * v].max(self.max[2 * v + 1]);
            if self.max[v] == m {
                break;
            }
            self.max[v] = m;
        }
    }

    /// Call `keep` with the sweep rank of every indexed segment whose
    /// closed y-extent meets `[lo, hi]`; one it returns `false` for
    /// leaves the index.
    fn meeting(&mut self, lo: i64, hi: i64, keep: &mut impl FnMut(usize) -> bool) {
        let end = self.leaves.partition_point(|&(l, _)| l <= hi);
        self.visit(1, 0, self.width, end, lo, keep);
    }

    /// The part of [`Self::meeting`] under node `v`, whose leaves are
    /// `first .. first + span`; only leaves before `end` start at or
    /// below `hi`.
    fn visit(
        &mut self,
        v: usize,
        first: usize,
        span: usize,
        end: usize,
        lo: i64,
        keep: &mut impl FnMut(usize) -> bool,
    ) {
        let m = self.max[v];
        if first >= end || m == ABSENT || m < lo {
            return;
        }
        if span == 1 {
            let r = self.leaves[first].1;
            if !keep(r) {
                self.set(r, ABSENT);
            }
            return;
        }
        let half = span / 2;
        self.visit(2 * v, first, half, end, lo, keep);
        self.visit(2 * v + 1, first + half, half, end, lo, keep);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Family;
    use crate::point::orient;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    fn seg(id: u64, a: (i64, i64), b: (i64, i64)) -> Segment {
        Segment::new(id, a, b).unwrap()
    }

    /// The list-scan sweep the y-index replaced: every step scans the
    /// whole active list, in sweep order, and retiring a segment scans it
    /// again. `O(N·A)` for an active set of size `A`: the reference.
    fn verify_nct_list_scan(set: &[Segment]) -> Result<(), GeomError> {
        let mut ids: Vec<u64> = set.iter().map(|s| s.id).collect();
        ids.sort_unstable();
        if let Some(w) = ids.windows(2).find(|w| w[0] == w[1]) {
            return Err(GeomError::Overlap(w[0], w[1]));
        }
        let mut order: Vec<usize> = (0..set.len()).collect();
        order.sort_by_key(|&i| set[i].a.x);
        let mut active: BinaryHeap<Reverse<(i64, usize)>> = BinaryHeap::new();
        let mut live: Vec<usize> = Vec::new();
        for &i in &order {
            let s = &set[i];
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

    /// The first segment, scanning cyclically from `pick`, that `fits`.
    fn victim(set: &[Segment], pick: u64, fits: impl Fn(&Segment) -> bool) -> Option<Segment> {
        let at = pick as usize % set.len();
        set[at..]
            .iter()
            .chain(&set[..at])
            .copied()
            .find(|v| fits(v))
    }

    /// `v`'s primitive lattice step from `a` toward `b`, and how many of
    /// them make up `v`.
    fn lattice_step(v: &Segment) -> ((i64, i64), i64) {
        fn gcd(a: i64, b: i64) -> i64 {
            if b == 0 {
                a
            } else {
                gcd(b, a % b)
            }
        }
        let (dx, dy) = (v.b.x - v.a.x, v.b.y - v.a.y);
        let g = gcd(dx.abs(), dy.abs());
        ((dx / g, dy / g), g)
    }

    /// Append one defect of `kind` to `set`, near a victim chosen by
    /// `pick`: 0 a steep stinger through a segment's interior, 1 a
    /// collinear extension overlapping a non-vertical segment, 2 a
    /// vertical overlapping a vertical, 3 a far-away duplicate id, 4 a
    /// T-touch at an interior point, which is admissible.
    fn inject(set: &mut Vec<Segment>, kind: u8, pick: u64) {
        let id = set.iter().map(|s| s.id + 1).max().unwrap_or(0);
        let defect = match kind {
            0 => {
                let v = victim(set, pick, |v| v.b.x - v.a.x >= 2).expect("a victim");
                let (mx, (lo, hi)) = ((v.a.x + v.b.x) / 2, v.y_span());
                seg(id, (mx, lo - 100), (mx + 1, hi + 100))
            }
            1 => {
                let v = victim(set, pick, |v| !v.is_vertical()).expect("a victim");
                let ((sx, sy), g) = lattice_step(&v);
                let start = (v.a.x + sx * (g / 2), v.a.y + sy * (g / 2));
                seg(id, start, (v.b.x + sx, v.b.y + sy))
            }
            2 => {
                let tall = |v: &Segment| v.is_vertical() && v.b.y - v.a.y >= 2;
                let v = victim(set, pick, tall).unwrap_or_else(|| {
                    // No vertical to overlap: add one right of everything.
                    let x = set.iter().map(|s| s.b.x).max().unwrap() + 10;
                    set.push(seg(id + 1, (x, 0), (x, 8)));
                    set[set.len() - 1]
                });
                seg(id, (v.a.x, v.a.y + 1), (v.b.x, v.b.y + 5))
            }
            3 => {
                let v = victim(set, pick, |_| true).expect("a victim");
                seg(v.id, (1 << 30, 1 << 30), ((1 << 30) + 5, 1 << 30))
            }
            _ => {
                // An arm out of an interior lattice point that meets no
                // other segment but in a touch; the arm of a span above
                // the whole set when none of the first victims has one.
                let arm = |v: &Segment, set: &[Segment]| {
                    let ((sx, sy), g) = lattice_step(v);
                    let p = (v.a.x + sx * (g / 2), v.a.y + sy * (g / 2));
                    [(0, 1), (0, -1), (1, 0), (-1, 0), (1, 1), (-1, -1)]
                        .into_iter()
                        .map(|(ex, ey)| seg(id, p, (p.0 + ex, p.1 + ey)))
                        .find(|t| {
                            g >= 2
                                && orient(v.a, v.b, t.b) != 0
                                && set
                                    .iter()
                                    .all(|u| classify_pair(t, u) == PairRelation::Admissible)
                        })
                };
                let at = pick as usize % set.len();
                let tried = set[at..].iter().chain(&set[..at]).take(64);
                match tried.copied().find_map(|v| arm(&v, set)) {
                    Some(t) => t,
                    None => {
                        crate::gen::spans_and_star(set);
                        let top = set[set.len() - 9];
                        let id = id + 14;
                        let p = ((top.a.x + top.b.x) / 2, top.a.y);
                        seg(id, p, (p.0, p.1 + 1))
                    }
                }
            }
        };
        set.push(defect);
    }

    /// At scale, on every family, the y-index reports the list scan's
    /// verdict, pair included: sets of 200 to 3 000 segments, so the
    /// tree is 8 to 12 levels deep, each carrying one injected defect.
    #[test]
    fn verdict_equals_the_list_scan_at_scale() {
        const CASES: u32 = 8;
        segdb_rng::check::run(
            "nct_verdict_equals_the_list_scan_at_scale",
            CASES,
            |rng| (rng.next_u64(), rng.gen_range(200..=3000usize)),
            |&(seed, n)| {
                for family in Family::ALL {
                    for kind in 0..5 {
                        let mut set = family.generate(n, seed);
                        inject(&mut set, kind, seed);
                        let got = verify_nct(&set);
                        let name = family.name();
                        assert_eq!(got, verify_nct_list_scan(&set), "{name}, defect {kind}");
                        assert_eq!(got.is_ok(), kind == 4, "{name}, defect {kind}: {got:?}");
                    }
                }
            },
        );
    }

    #[test]
    fn empty_and_singleton_ok() {
        assert!(verify_nct(&[]).is_ok());
        assert!(verify_nct(&[seg(1, (0, 0), (1, 1))]).is_ok());
    }
}
