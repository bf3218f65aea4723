//! Side-of-base-line abstraction: reach keys and base order.

use segdb_geom::predicates::{cmp_slope, cmp_y_at_x};
use segdb_geom::Segment;
use std::cmp::Ordering;

/// Which half-plane (relative to the vertical base line) the line-based
/// set lives in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Side {
    /// Segments extend to `x ≤ base_x`.
    Left,
    /// Segments extend to `x ≥ base_x`.
    Right,
}

impl Side {
    /// Serialized tag.
    pub fn tag(self) -> u8 {
        match self {
            Side::Left => 0,
            Side::Right => 1,
        }
    }

    /// Inverse of [`Side::tag`].
    pub fn from_tag(t: u8) -> Option<Side> {
        match t {
            0 => Some(Side::Left),
            1 => Some(Side::Right),
            _ => None,
        }
    }

    /// Monotone *reach key*: larger ⇔ the clipped segment extends farther
    /// from the base line. The priority of the priority search tree.
    #[inline]
    pub fn reach_key(self, seg: &Segment) -> i64 {
        match self {
            Side::Right => seg.b.x,
            // Canonical order puts the leftmost endpoint in `a`.
            Side::Left => -seg.a.x,
        }
    }

    /// Reach key of a query abscissa: a segment's clip crosses the
    /// vertical line `x = qx` iff `reach_key(seg) ≥ query_key(qx)` (the
    /// base-line side of the clip is implicit — the query must be on this
    /// side of the base line, checked once per query).
    #[inline]
    pub fn query_key(self, qx: i64) -> i64 {
        match self {
            Side::Right => qx,
            Side::Left => -qx,
        }
    }

    /// True when the query abscissa lies on this side of the base line.
    #[inline]
    pub fn on_side(self, base_x: i64, qx: i64) -> bool {
        match self {
            Side::Right => qx >= base_x,
            Side::Left => qx <= base_x,
        }
    }

    /// Base order: the order of intersections with the base line, with
    /// touching ties resolved by the order at `base ± ε` (slope order,
    /// reversed on the left side), then by id and endpoints for
    /// totality — a stored set may hold two segments under one id.
    ///
    /// For an NCT set this order agrees with the order of ordinates at
    /// every abscissa on the side where both segments are present — the
    /// property the sandwich prune rests on.
    pub fn cmp_base(self, base_x: i64, a: &Segment, b: &Segment) -> Ordering {
        if a.id == b.id && a == b {
            return Ordering::Equal;
        }
        cmp_y_at_x(a, b, base_x)
            .then_with(|| match self {
                Side::Right => cmp_slope(a, b),
                Side::Left => cmp_slope(a, b).reverse(),
            })
            .then_with(|| a.id.cmp(&b.id))
            .then_with(|| same_id_order(a, b))
    }
}

/// Two segments under one id, on one line through the base point.
#[cold]
fn same_id_order(a: &Segment, b: &Segment) -> Ordering {
    (a.a, a.b).cmp(&(b.a, b.b))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(id: u64, a: (i64, i64), b: (i64, i64)) -> Segment {
        Segment::new(id, a, b).unwrap()
    }

    #[test]
    fn reach_keys() {
        let s = seg(1, (-5, 0), (9, 3));
        assert_eq!(Side::Right.reach_key(&s), 9);
        assert_eq!(Side::Left.reach_key(&s), 5);
        assert!(Side::Right.reach_key(&s) >= Side::Right.query_key(7));
        assert!(Side::Left.reach_key(&s) >= Side::Left.query_key(-4));
        assert!(Side::Left.reach_key(&s) < Side::Left.query_key(-6));
    }

    #[test]
    fn on_side() {
        assert!(Side::Right.on_side(10, 10));
        assert!(Side::Right.on_side(10, 15));
        assert!(!Side::Right.on_side(10, 9));
        assert!(Side::Left.on_side(10, 10));
        assert!(Side::Left.on_side(10, 5));
        assert!(!Side::Left.on_side(10, 11));
    }

    #[test]
    fn base_order_simple() {
        // Both cross x=0; one at y=0, one at y=10.
        let lo = seg(1, (-5, 0), (5, 0));
        let hi = seg(2, (-5, 10), (5, 10));
        assert_eq!(Side::Right.cmp_base(0, &lo, &hi), Ordering::Less);
        assert_eq!(Side::Left.cmp_base(0, &hi, &lo), Ordering::Greater);
    }

    #[test]
    fn base_order_touching_tiebreak() {
        // Two segments sharing the base point (0,0), different slopes.
        let flat = seg(1, (0, 0), (10, 1));
        let steep = seg(2, (0, 0), (10, 9));
        // Right of the line, steeper is higher.
        assert_eq!(Side::Right.cmp_base(0, &flat, &steep), Ordering::Less);
        // Left-side fan sharing (0,0): order reverses.
        let lflat = seg(3, (-10, 1), (0, 0));
        let lsteep = seg(4, (-10, 9), (0, 0));
        assert_eq!(Side::Left.cmp_base(0, &lflat, &lsteep), Ordering::Less);
        // Check against geometry: at x=-1, lflat has y=0.1, lsteep y=0.9.
        assert_eq!(
            segdb_geom::predicates::cmp_y_at_x(&lflat, &lsteep, -1),
            Ordering::Less
        );
    }

    #[test]
    fn base_order_total_on_identical_geometry() {
        let a = seg(1, (0, 0), (10, 5));
        let b = seg(2, (0, 0), (10, 5));
        assert_eq!(Side::Right.cmp_base(0, &a, &b), Ordering::Less);
        assert_eq!(Side::Right.cmp_base(0, &b, &a), Ordering::Greater);
        assert_eq!(Side::Right.cmp_base(0, &a, &a), Ordering::Equal);
        // One id on two collinear segments touching at the base point.
        let (left, right) = (seg(5, (-10, 0), (0, 0)), seg(5, (0, 0), (10, 0)));
        assert_eq!(Side::Right.cmp_base(0, &left, &right), Ordering::Less);
        assert_eq!(Side::Left.cmp_base(0, &right, &left), Ordering::Greater);
    }

    #[test]
    fn tags_roundtrip() {
        for s in [Side::Left, Side::Right] {
            assert_eq!(Side::from_tag(s.tag()), Some(s));
        }
        assert_eq!(Side::from_tag(9), None);
    }
}
