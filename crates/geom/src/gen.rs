//! Deterministic NCT workload generators.
//!
//! The paper motivates segment databases with GIS map layers, temporal
//! databases and constraint databases (§1) but, being a theory paper,
//! ships no data. These generators produce the synthetic equivalents used
//! by every test and benchmark; each output is NCT **by construction**
//! and additionally validated by [`crate::nct::verify_nct`] in tests.
//!
//! All generators take an explicit seed and are fully deterministic.

use crate::query::VerticalQuery;
use crate::segment::Segment;
use segdb_rng::SmallRng;

/// Line-based fan: `n` segments with one endpoint on the vertical base
/// line `x = 0`, extending right, mutually non-crossing.
///
/// Segment `i` starts at `(0, i·pitch)` and ends at a random abscissa in
/// `[1, max_len]` with a vertical drift below `pitch/2`, confining each
/// segment to its own strip. Exercises the Section-2 PST directly.
pub fn fan(n: usize, pitch: i64, max_len: i64, seed: u64) -> Vec<Segment> {
    assert!(pitch >= 4 && max_len >= 2);
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let y0 = i as i64 * pitch;
            let x1 = rng.gen_range(1..=max_len);
            let drift = rng.gen_range(-(pitch / 2 - 1)..=(pitch / 2 - 1));
            Segment::new(i as u64, (0, y0), (x1, y0 + drift)).expect("fan segment valid")
        })
        .collect()
}

/// GIS-like street grid: a `cols × rows` block grid with unit edges
/// between adjacent junctions. Edges touch at junctions (NCT) and a
/// fraction `drop_per_mille`/1000 of edges is removed to make the map
/// irregular. Ids are dense from 0.
pub fn grid_map(
    cols: usize,
    rows: usize,
    spacing: i64,
    drop_per_mille: u32,
    seed: u64,
) -> Vec<Segment> {
    assert!(spacing >= 1);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut out = Vec::new();
    let mut id = 0u64;
    let mut push = |a: (i64, i64), b: (i64, i64), rng: &mut SmallRng, out: &mut Vec<Segment>| {
        if rng.gen_range(0..1000) >= drop_per_mille {
            out.push(Segment::new(id, a, b).expect("grid edge valid"));
            id += 1;
        }
    };
    for r in 0..=rows as i64 {
        for c in 0..cols as i64 {
            push(
                (c * spacing, r * spacing),
                ((c + 1) * spacing, r * spacing),
                &mut rng,
                &mut out,
            );
        }
    }
    for c in 0..=cols as i64 {
        for r in 0..rows as i64 {
            push(
                (c * spacing, r * spacing),
                (c * spacing, (r + 1) * spacing),
                &mut rng,
                &mut out,
            );
        }
    }
    out
}

/// Random slanted segments, each confined to its own horizontal strip of
/// height `strip`: arbitrary slopes and lengths, guaranteed non-crossing.
///
/// `long_per_mille`/1000 of segments are "long" (up to `width`), the rest
/// short (up to `width/64 + 2`) — the mix that makes the §4 short/long
/// fragment split meaningful.
pub fn strips(n: usize, width: i64, strip: i64, long_per_mille: u32, seed: u64) -> Vec<Segment> {
    assert!(strip >= 4 && width >= 128);
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let y_base = i as i64 * strip;
            let long = rng.gen_range(0..1000) < long_per_mille;
            let max_len = if long { width } else { width / 64 + 2 };
            let len = rng.gen_range(1..=max_len);
            let x0 = rng.gen_range(0..=(width - len).max(0));
            let y0 = y_base + rng.gen_range(0..strip / 2);
            let y1 = y_base
                + rng
                    .gen_range(0..strip / 2)
                    .max(if y0 == y_base { 1 } else { 0 });
            let (y0, y1) = if (x0, y0) == (x0 + len, y1) {
                (y0, y0 + 1)
            } else {
                (y0, y1)
            };
            Segment::new(i as u64, (x0, y0), (x0 + len, y1)).expect("strip segment valid")
        })
        .collect()
}

/// Temporal-database layer: object `k` of `n` is alive over a random time
/// interval, represented as the horizontal segment `y = k·2`,
/// `x ∈ [birth, death]`. A vertical line query at `x = t` is the classic
/// *timeslice* query; a vertical segment adds an object-id range.
pub fn temporal(n: usize, horizon: i64, seed: u64) -> Vec<Segment> {
    assert!(horizon >= 4);
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let birth = rng.gen_range(0..horizon - 1);
            let death = rng.gen_range(birth + 1..=horizon);
            Segment::new(i as u64, (birth, i as i64 * 2), (death, i as i64 * 2))
                .expect("temporal segment valid")
        })
        .collect()
}

/// Adversarial comb for PST depth: alternating long shallow segments and
/// short steep teeth sharing base ordinates, producing maximally biased
/// separators (the paper's Figure 3 situation).
pub fn comb(n: usize) -> Vec<Segment> {
    let mut out = Vec::with_capacity(n);
    for i in 0..n as i64 {
        let id = i as u64;
        let y = i * 8;
        let s = if i % 2 == 0 {
            // long, nearly flat
            Segment::new(id, (0, y), (1 << 20, y + 3)).unwrap()
        } else {
            // short, steep
            Segment::new(id, (0, y), (4, y + 3)).unwrap()
        };
        out.push(s);
    }
    out
}

/// Nested tents: segment `i` spans `[i, 2n−i]` at height `i` — every
/// vertical query near the centre hits *all* segments (maximal `t`),
/// queries near the edge hit few. Exercises output sensitivity (E11).
pub fn nested(n: usize) -> Vec<Segment> {
    let w = 2 * n as i64;
    (0..n)
        .map(|i| {
            let i64i = i as i64;
            Segment::new(i as u64, (i64i, 4 * i64i), (w - i64i, 4 * i64i + 1))
                .expect("nested valid")
        })
        .collect()
}

/// Mixed map: a grid (roads) overlaid with strip segments (rivers,
/// contours) vertically offset to a disjoint y-band, producing a workload
/// with verticals, horizontals, slants, touching points and varied
/// lengths — the closest thing to the paper's GIS motivation.
pub fn mixed_map(n: usize, seed: u64) -> Vec<Segment> {
    let side = ((n / 3) as f64).sqrt().max(1.0) as usize;
    let mut out = grid_map(side, side, 64, 150, seed);
    let base = out.len();
    let extra = n.saturating_sub(base);
    let band_offset = (side as i64 + 2) * 64;
    let mut rest = strips(extra, (side as i64) * 64 + 128, 16, 300, seed ^ 0x9E37_79B9);
    for (k, s) in rest.iter_mut().enumerate() {
        *s = Segment::new(
            (base + k) as u64,
            (s.a.x, s.a.y + band_offset),
            (s.b.x, s.b.y + band_offset),
        )
        .expect("offset segment valid");
    }
    out.extend(rest);
    out
}

/// Append to `set`, above everything in it, what the map generators
/// never produce: six horizontals spanning its whole x-extent, and a star
/// of eight segments fanning out of one left endpoint (so a point query
/// there meets all eight). Non-crossing with `set` and with each other.
/// Returns how many segments were appended — they are the last ones.
pub fn spans_and_star(set: &mut Vec<Segment>) -> usize {
    let x_lo = set.iter().map(|s| s.a.x).min().unwrap_or(0).min(0);
    let x_hi = set.iter().map(|s| s.b.x).max().unwrap_or(1);
    let y_top = set.iter().map(|s| s.y_span().1).max().unwrap_or(0);
    let id = set.iter().map(|s| s.id + 1).max().unwrap_or(0);
    for k in 0..6 {
        let y = y_top + 10 + k as i64;
        set.push(Segment::new(id + k, (x_lo, y), (x_hi, y)).expect("span valid"));
    }
    let hub = (x_hi / 2, y_top + 100);
    for k in 0..8 {
        let end = (hub.0 + 500, hub.1 + 40 * k as i64);
        set.push(Segment::new(id + 6 + k, hub, end).expect("ray valid"));
    }
    14
}

/// Generate `count` vertical segment queries over the bounding box of
/// `set`, with query height chosen as `frac_per_mille`/1000 of the y-span
/// (controls expected output size `t`).
pub fn vertical_queries(
    set: &[Segment],
    count: usize,
    frac_per_mille: u32,
    seed: u64,
) -> Vec<VerticalQuery> {
    let (mut xmin, mut xmax, mut ymin, mut ymax) = (i64::MAX, i64::MIN, i64::MAX, i64::MIN);
    for s in set {
        xmin = xmin.min(s.a.x);
        xmax = xmax.max(s.b.x);
        let (l, h) = s.y_span();
        ymin = ymin.min(l);
        ymax = ymax.max(h);
    }
    if set.is_empty() {
        (xmin, xmax, ymin, ymax) = (0, 1, 0, 1);
    }
    let mut rng = SmallRng::seed_from_u64(seed);
    let h = ((ymax - ymin).max(1) as i128 * frac_per_mille as i128 / 1000) as i64;
    (0..count)
        .map(|_| {
            let x = rng.gen_range(xmin..=xmax);
            let lo = rng.gen_range(ymin..=(ymax - h).max(ymin));
            VerticalQuery::segment(x, lo, lo + h)
        })
        .collect()
}

/// Like [`vertical_queries`] but with a **fixed absolute height**, so the
/// expected output size `t` stays constant while `N` sweeps — the query
/// batch complexity experiments need the `log` terms isolated from `t`.
pub fn fixed_height_queries(
    set: &[Segment],
    count: usize,
    height: i64,
    seed: u64,
) -> Vec<VerticalQuery> {
    let (mut xmin, mut xmax, mut ymin, mut ymax) = (i64::MAX, i64::MIN, i64::MAX, i64::MIN);
    for s in set {
        xmin = xmin.min(s.a.x);
        xmax = xmax.max(s.b.x);
        let (l, h) = s.y_span();
        ymin = ymin.min(l);
        ymax = ymax.max(h);
    }
    if set.is_empty() {
        (xmin, xmax, ymin, ymax) = (0, 1, 0, 1);
    }
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let x = rng.gen_range(xmin..=xmax);
            let lo = rng.gen_range(ymin..=(ymax - height).max(ymin));
            VerticalQuery::segment(x, lo, lo + height)
        })
        .collect()
}

/// A named workload, so benches can sweep over families uniformly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// [`fan`]
    Fan,
    /// [`grid_map`]
    Grid,
    /// [`strips`]
    Strips,
    /// [`temporal`]
    Temporal,
    /// [`nested`]
    Nested,
    /// [`mixed_map`]
    Mixed,
}

impl Family {
    /// Generate approximately `n` segments of this family.
    pub fn generate(self, n: usize, seed: u64) -> Vec<Segment> {
        match self {
            Family::Fan => fan(n, 16, 1 << 16, seed),
            Family::Grid => {
                let side = ((n / 2) as f64).sqrt().max(1.0) as usize;
                grid_map(side, side, 32, 100, seed)
            }
            Family::Strips => strips(n, 1 << 16, 16, 250, seed),
            Family::Temporal => temporal(n, 1 << 16, seed),
            Family::Nested => nested(n),
            Family::Mixed => mixed_map(n, seed),
        }
    }

    /// Short name for table output.
    pub fn name(self) -> &'static str {
        match self {
            Family::Fan => "fan",
            Family::Grid => "grid",
            Family::Strips => "strips",
            Family::Temporal => "temporal",
            Family::Nested => "nested",
            Family::Mixed => "mixed",
        }
    }

    /// All families, for sweeps.
    pub const ALL: [Family; 6] = [
        Family::Fan,
        Family::Grid,
        Family::Strips,
        Family::Temporal,
        Family::Nested,
        Family::Mixed,
    ];
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nct::verify_nct;

    #[test]
    fn all_families_are_nct_and_deterministic() {
        segdb_rng::check::run(
            "all_families_are_nct_and_deterministic",
            32,
            |rng| (rng.next_u64(), rng.gen_range(20..=500usize)),
            |&(seed, n)| {
                for f in Family::ALL {
                    let mut a = f.generate(n, seed);
                    let b = f.generate(n, seed);
                    assert_eq!(a, b, "{} not deterministic", f.name());
                    verify_nct(&a).unwrap_or_else(|e| panic!("{} violates NCT: {e}", f.name()));
                    assert!(!a.is_empty());
                    assert_eq!(spans_and_star(&mut a), a.len() - b.len());
                    verify_nct(&a).unwrap_or_else(|e| panic!("{} + spans and star: {e}", f.name()));
                }
            },
        );
    }

    /// The benchmark builds Mixed at 100 k to 400 k segments: one fixed
    /// set per family at 100 k is NCT, with and without spans and star.
    /// A subset of an NCT set is NCT, so one check of the set with them
    /// checks the set without them too.
    #[test]
    fn all_families_are_nct_at_benchmark_scale() {
        for f in Family::ALL {
            let mut set = f.generate(100_000, 42);
            assert_eq!(spans_and_star(&mut set), 14);
            verify_nct(&set).unwrap_or_else(|e| panic!("{} + spans and star: {e}", f.name()));
        }
    }

    #[test]
    fn families_differ_across_seeds() {
        let a = strips(100, 1 << 12, 16, 200, 1);
        let b = strips(100, 1 << 12, 16, 200, 2);
        assert_ne!(a, b);
    }

    #[test]
    fn fan_is_line_based_on_x0() {
        for s in fan(200, 16, 1 << 10, 7) {
            assert_eq!(s.a.x, 0, "one endpoint on the base line");
            assert!(s.b.x > 0, "extends right");
        }
    }

    #[test]
    fn temporal_segments_are_horizontal() {
        for s in temporal(100, 1000, 3) {
            assert!(s.is_horizontal());
        }
    }

    #[test]
    fn grid_map_size_and_dropping() {
        let full = grid_map(4, 4, 10, 0, 1);
        assert_eq!(full.len(), 4 * 5 * 2);
        let dropped = grid_map(4, 4, 10, 500, 1);
        assert!(dropped.len() < full.len());
    }

    #[test]
    fn queries_cover_bbox() {
        let set = temporal(100, 1000, 9);
        let qs = vertical_queries(&set, 50, 100, 11);
        assert_eq!(qs.len(), 50);
        for q in qs {
            match q {
                VerticalQuery::Segment { lo, hi, .. } => assert!(lo <= hi),
                _ => panic!("expected segment queries"),
            }
        }
        // Empty set does not panic.
        let qs = vertical_queries(&[], 3, 100, 11);
        assert_eq!(qs.len(), 3);
    }

    #[test]
    fn nested_center_hits_all() {
        let set = nested(50);
        let q = VerticalQuery::Line { x: 50 };
        let hits = crate::query::scan_oracle(&set, &q);
        assert_eq!(hits.len(), 50);
    }
}
