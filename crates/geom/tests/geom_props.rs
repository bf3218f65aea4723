//! Property tests for the exact geometry kernel.
//!
//! Half the cases draw coordinates from a tiny box, where endpoints,
//! touches and collinear pairs are common; the other half from a box
//! wide enough to leave room for shears.

use segdb_geom::point::Point;
use segdb_geom::predicates::{
    classify_pair, cmp_slope, cmp_y_at_x, hits_vertical, segments_intersect, y_at_x_cmp,
};
use segdb_geom::transform::Direction;
use segdb_geom::{Segment, VerticalQuery};
use segdb_rng::{check, SmallRng};
use std::cmp::Ordering;

const CASES: u32 = 256;

/// A segment's endpoints `(ax, ay, bx, by)`.
type Ends = (i64, i64, i64, i64);

/// The coordinate box of one case: `-c..c`.
fn scale(rng: &mut SmallRng) -> i64 {
    [8, 1 << 20][rng.gen_range(0..2usize)]
}

fn ends(rng: &mut SmallRng, c: i64) -> Ends {
    loop {
        let mut v = || rng.gen_range(-c..c);
        let e = (v(), v(), v(), v());
        if (e.0, e.1) != (e.2, e.3) {
            return e;
        }
    }
}

fn seg(id: u64, e: Ends) -> Segment {
    Segment::new(id, (e.0, e.1), (e.2, e.3)).unwrap()
}

/// `hits_vertical` agrees with the generic closed intersection test when
/// the query is materialized as a vertical segment; widening the window
/// never loses a hit, the line is the upper bound of all windows, and
/// the two rays from a point cover the line.
#[test]
fn hits_vertical_matches_generic_intersection() {
    check::run(
        "hits_vertical_matches_generic_intersection",
        CASES,
        |rng| {
            let c = scale(rng);
            let mut y = || rng.gen_range(-c..c);
            let (x0, y1, y2) = (y(), y(), y());
            (ends(rng, c), x0, y1, y2)
        },
        |&(e, x0, y1, y2)| {
            let s = seg(1, e);
            let (lo, hi) = (y1.min(y2), y1.max(y2));
            let window = hits_vertical(&s, x0, Some(lo), Some(hi));
            if lo < hi {
                assert_eq!(window, segments_intersect(&s, &seg(999, (x0, y1, x0, y2))));
            }
            let wider = hits_vertical(&s, x0, Some(lo - 10), Some(hi + 10));
            let line = hits_vertical(&s, x0, None, None);
            assert!((!window || wider) && (!wider || line));
            let up = VerticalQuery::RayUp { x: x0, y0: y1 }.hits(&s);
            let down = VerticalQuery::RayDown { x: x0, y0: y1 }.hits(&s);
            assert_eq!(up || down, line);
        },
    );
}

/// `classify_pair` is symmetric, and a shear preserves it (non-crossing
/// stays non-crossing) as well as the answer of every generalized query:
/// a segment hits the direction-line through an anchor iff its image
/// hits the image vertical line.
#[test]
fn classify_and_shear_props() {
    check::run(
        "classify_and_shear_props",
        CASES,
        |rng| {
            let c = scale(rng);
            let dir = (rng.gen_range(-8..8i64), rng.gen_range(1..8i64));
            (ends(rng, c), ends(rng, c), dir)
        },
        |&(e, f, (dx, dy))| {
            let (s, t) = (seg(1, e), seg(2, f));
            assert_eq!(classify_pair(&s, &t), classify_pair(&t, &s));
            let d = Direction::new(dx, dy).unwrap();
            let (ts, tt) = (d.apply_segment(&s).unwrap(), d.apply_segment(&t).unwrap());
            assert_eq!(classify_pair(&s, &t), classify_pair(&ts, &tt));
            // The line through `(f.0, f.1)`, cut long enough to act as the whole
            // line inside the coordinate box.
            let r = 1i64 << 24;
            let line = seg(3, (f.0 - dx * r, f.1 - dy * r, f.0 + dx * r, f.1 + dy * r));
            let q = d.make_query(Point::new(f.0, f.1), None, None).unwrap();
            assert_eq!(q.hits(&ts), segments_intersect(&s, &line));
        },
    );
}

/// `cmp_y_at_x` is antisymmetric and consistent with `y_at_x_cmp`.
#[test]
fn cmp_y_at_x_antisymmetric() {
    check::run(
        "cmp_y_at_x_antisymmetric",
        CASES,
        |rng| {
            let c = scale(rng).max(101);
            let mut y = || rng.gen_range(-c..c);
            let ys = (y(), y(), y(), y());
            (ys, rng.gen_range(0..100i64), rng.gen_range(100..c))
        },
        |&((a0, a1, b0, b1), x, w)| {
            let (s, t) = (seg(1, (0, a0, w, a1)), seg(2, (0, b0, w, b1)));
            let st = cmp_y_at_x(&s, &t, x);
            assert_eq!(st, cmp_y_at_x(&t, &s, x).reverse());
            // Consistency with the point-level compare at integer ordinates.
            if st == Ordering::Equal {
                assert_eq!(y_at_x_cmp(&s, x, b0), y_at_x_cmp(&t, x, b0));
            }
        },
    );
}

/// Slope comparison is reflexive and equal on parallel segments.
#[test]
fn slope_props() {
    check::run(
        "slope_props",
        CASES,
        |rng| {
            let c = scale(rng);
            (
                ends(rng, c),
                rng.gen_range(-1000..1000i64),
                rng.gen_range(-1000..1000i64),
            )
        },
        |&(e, dx, dy)| {
            let s = seg(1, e);
            assert_eq!(cmp_slope(&s, &s), Ordering::Equal);
            let shifted = seg(2, (e.0 + dx, e.1 + dy, e.2 + dx, e.3 + dy));
            assert_eq!(cmp_slope(&s, &shifted), Ordering::Equal);
        },
    );
}
