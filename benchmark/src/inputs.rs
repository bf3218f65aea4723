//! Inputs shared by every workload: the segment set, the query pool,
//! the shape × mode cycle, the oracle and the per-reply check.

use segdb_core::{QueryAnswer, QueryMode};
use segdb_geom::gen::{vertical_queries, Family};
use segdb_geom::{Segment, VerticalQuery};
use segdb_rng::splitmix64;

/// Queries in the pool; also the length of one pass of the op cycle.
pub const POOL: usize = 4096;
/// Query height as a share of the set's y-span, per mille.
const QUERY_FRAC_PER_MILLE: u32 = 120;
const POOL_SEED_SALT: u64 = 0x5EED_0F40_9600;
/// Every `Limit` op asks for this many hits.
pub const LIMIT_K: u32 = 8;

pub const MODES: [QueryMode; 4] = [
    QueryMode::Collect,
    QueryMode::Count,
    QueryMode::Exists,
    QueryMode::Limit(LIMIT_K),
];

/// Index of a mode in [`MODES`] (sample buckets are kept per mode).
pub fn mode_index(mode: QueryMode) -> usize {
    match mode {
        QueryMode::Collect => 0,
        QueryMode::Count => 1,
        QueryMode::Exists => 2,
        QueryMode::Limit(_) => 3,
    }
}

/// Nominal shape of op `i`: line, ray up, ray down, segment.
pub fn shape_of(i: usize) -> usize {
    i % 4
}

/// Mode of op `i`. With the shape on `i mod 4` and the mode on
/// `(i / 4) mod 4`, sixteen consecutive ops pair every shape with every
/// mode, and since 16 divides [`POOL`] each pool entry always runs under
/// the same pair: one pass of the pool is one full, repeatable cycle.
pub fn mode_of(i: usize) -> QueryMode {
    MODES[(i / 4) % 4]
}

/// May op `i` keep its lower bound? Only under Count. On the commit that
/// defined this benchmark `TwoLevelInterval` loses the first record of a
/// `G` run on about one lower-bounded query in 500 when it *walks* the
/// run (Collect, Exists, Limit) after a bridge jump; Count reads subtree
/// counts instead and is exact (see `the_bridge_defect` below and the
/// README). A workload is made of ops that do not fail, so under a
/// walking mode a ray up runs as the line through its abscissa and a
/// segment as the downward ray from its upper end: ten of the sixteen
/// pairs run, every reply is checked, nothing is screened out. Once the
/// defect is fixed this function returns `true` and goes away.
pub fn keeps_lower_bound(i: usize) -> bool {
    mode_of(i) == QueryMode::Count
}

/// The Mixed family: grid roads (short fragments, on-boundary verticals)
/// overlaid with strips of which 30 % are long (multislab lists).
pub fn generate_set(n: usize, seed: u64) -> Vec<Segment> {
    let set = Family::Mixed.generate(n, seed);
    // Limit answers are checked by looking the returned ids up here.
    assert!(
        set.iter().enumerate().all(|(i, s)| s.id == i as u64),
        "generator ids are dense from 0"
    );
    set
}

/// What the oracle keeps per pool entry: enough to check any mode's
/// reply without holding the id lists (which would dwarf the database
/// in this process's peak RSS).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Expected {
    pub count: u64,
    /// Order-independent digest of the hit ids.
    pub digest: u64,
}

impl Expected {
    pub fn add(&mut self, id: u64) {
        self.count += 1;
        // One splitmix64 step: ids differing in one bit land far apart.
        let mut state = id;
        self.digest = self.digest.wrapping_add(splitmix64(&mut state));
    }

    pub fn of(ids: impl IntoIterator<Item = u64>) -> Expected {
        let mut e = Expected::default();
        ids.into_iter().for_each(|id| e.add(id));
        e
    }
}

/// The query pool with its oracle answers.
#[derive(Debug)]
pub struct Pool {
    /// The generated queries, all segment-shaped (`served_rw` reads these).
    pub segments: Vec<VerticalQuery>,
    /// The same reshaped for the op cycle, with their oracle answers.
    pub queries: Vec<VerticalQuery>,
    pub expected: Vec<Expected>,
}

/// Pool entry `i` of the generated segment-shaped queries, reshaped.
fn reshape(i: usize, q: &VerticalQuery) -> VerticalQuery {
    let VerticalQuery::Segment { x, lo, hi } = *q else {
        unreachable!("vertical_queries yields bounded segments")
    };
    match (shape_of(i), keeps_lower_bound(i)) {
        (0, _) | (1, false) => VerticalQuery::Line { x },
        (1, true) => VerticalQuery::RayUp { x, y0: lo },
        (2, _) | (3, false) => VerticalQuery::RayDown { x, y0: hi },
        _ => *q,
    }
}

/// `(xmin, xmax, ymin, ymax)` over every endpoint of `set`.
pub fn bounding_box(set: &[Segment]) -> (i64, i64, i64, i64) {
    let mut b = (i64::MAX, i64::MIN, i64::MAX, i64::MIN);
    for s in set {
        let (y_lo, y_hi) = s.y_span();
        b = (
            b.0.min(s.a.x).min(s.b.x),
            b.1.max(s.a.x).max(s.b.x),
            b.2.min(y_lo),
            b.3.max(y_hi),
        );
    }
    b
}

/// `count` queries shaped like the first `count` ops of the cycle.
pub fn shaped_queries(set: &[Segment], count: usize, seed: u64) -> Vec<VerticalQuery> {
    let segments = vertical_queries(set, count, QUERY_FRAC_PER_MILLE, seed);
    (0..count).map(|i| reshape(i, &segments[i])).collect()
}

/// Exhaustive oracle: every (query, segment) pair whose x-ranges meet
/// is put to [`VerticalQuery::hits`]. Pairs are enumerated per segment
/// over the x-sorted queries, which skips only pairs `hits` would
/// reject on the abscissa alone.
pub fn oracle(set: &[Segment], queries: &[VerticalQuery]) -> Vec<Expected> {
    let mut by_x: Vec<usize> = (0..queries.len()).collect();
    by_x.sort_by_key(|&i| queries[i].x());
    let xs: Vec<i64> = by_x.iter().map(|&i| queries[i].x()).collect();
    let mut out = vec![Expected::default(); queries.len()];
    for s in set {
        let (x_lo, x_hi) = (s.a.x.min(s.b.x), s.a.x.max(s.b.x));
        let from = xs.partition_point(|&x| x < x_lo);
        let to = xs.partition_point(|&x| x <= x_hi);
        for &qi in &by_x[from..to] {
            if queries[qi].hits(s) {
                out[qi].add(s.id);
            }
        }
    }
    out
}

impl Pool {
    pub fn new(set: &[Segment], seed: u64) -> Pool {
        let segments = vertical_queries(set, POOL, QUERY_FRAC_PER_MILLE, seed ^ POOL_SEED_SALT);
        let queries: Vec<VerticalQuery> = (0..POOL).map(|i| reshape(i, &segments[i])).collect();
        let expected = oracle(set, &queries);
        Pool {
            segments,
            queries,
            expected,
        }
    }
}

/// Is a reply right? `ids` are the hit ids the reply carries (none for
/// Count and Exists), `count` what it says it witnessed.
///
/// Collect: count and id digest equal the oracle's. Count: the
/// cardinality. Exists: the bit. Limit: `min(k, t)` distinct stored
/// segments, each of which the query really hits.
pub fn reply_is_correct(
    set: &[Segment],
    query: &VerticalQuery,
    mode: QueryMode,
    want: Expected,
    ids: impl Iterator<Item = u64>,
    count: u64,
) -> bool {
    match mode {
        QueryMode::Collect => count == want.count && Expected::of(ids) == want,
        QueryMode::Count => count == want.count,
        QueryMode::Exists => (count > 0) == (want.count > 0),
        QueryMode::Limit(k) => {
            let mut seen = Vec::with_capacity(k as usize);
            for id in ids {
                let stored = set.get(id as usize).is_some_and(|s| query.hits(s));
                if !stored || seen.contains(&id) {
                    return false;
                }
                seen.push(id);
            }
            seen.len() as u64 == want.count.min(k as u64) && count == seen.len() as u64
        }
    }
}

/// [`reply_is_correct`] for an in-process answer.
pub fn answer_is_correct(
    set: &[Segment],
    query: &VerticalQuery,
    mode: QueryMode,
    want: Expected,
    answer: &QueryAnswer,
) -> bool {
    let ids = answer.segments().unwrap_or(&[]).iter().map(|s| s.id);
    reply_is_correct(set, query, mode, want, ids, answer.count())
}

#[cfg(test)]
mod tests {
    use super::*;
    use segdb_geom::query::scan_oracle;
    use std::collections::HashSet;

    fn shape_index(q: &VerticalQuery) -> usize {
        match q {
            VerticalQuery::Line { .. } => 0,
            VerticalQuery::RayUp { .. } => 1,
            VerticalQuery::RayDown { .. } => 2,
            VerticalQuery::Segment { .. } => 3,
        }
    }

    #[test]
    fn cycle_pairs_shapes_with_modes_and_is_fixed_per_pool_entry() {
        let nominal: HashSet<(usize, usize)> = (0..16)
            .map(|i| (shape_of(i), mode_index(mode_of(i))))
            .collect();
        assert_eq!(nominal.len(), 16, "every shape is paired with every mode");
        for i in 0..POOL {
            let later = i + 3 * POOL;
            assert_eq!(shape_of(i), shape_of(later));
            assert_eq!(mode_of(i), mode_of(later));
        }
        // What runs: all four shapes under Count, and the two shapes
        // without a lower bound under each walking mode, twice each.
        let set = generate_set(600, 2);
        let ran: Vec<(usize, usize)> = shaped_queries(&set, 16, 2)
            .iter()
            .enumerate()
            .map(|(i, q)| (shape_index(q), mode_index(mode_of(i))))
            .collect();
        let distinct: HashSet<(usize, usize)> = ran.iter().copied().collect();
        assert_eq!(distinct.len(), 10);
        for (shape, mode) in ran {
            let count = mode == mode_index(QueryMode::Count);
            assert!(count || shape == 0 || shape == 2, "({shape}, {mode})");
        }
    }

    #[test]
    fn pruned_oracle_equals_the_plain_scan() {
        let set = generate_set(3000, 5);
        let pool = Pool::new(&set, 5);
        assert_eq!(pool.queries.len(), POOL);
        let mut nonempty = 0;
        for (q, want) in pool.queries.iter().zip(&pool.expected).step_by(7) {
            let scan = scan_oracle(&set, q);
            assert_eq!(*want, Expected::of(scan.iter().map(|s| s.id)), "{q:?}");
            nonempty += usize::from(!scan.is_empty());
        }
        assert!(nonempty > 100, "the pool mostly hits something");
        // Ops 4..8 run under Count, where every shape keeps its own form.
        for (i, q) in pool.queries.iter().enumerate().skip(4).take(4) {
            assert_eq!(shape_index(q), shape_of(i));
        }
    }

    /// The defect [`keeps_lower_bound`] steps around, filed here because
    /// this change may add no file outside the benchmark: move it to
    /// `crates/core` with the fix. `interval2l`'s `build_g_lists` points a
    /// bridge carrier at the child leaf of the *marked* element, which
    /// follows the carrier in the merged order, so child records between
    /// the two that open the run can sit in the leaf before the one
    /// `anchor_by_jump` lands on. Fails until that is fixed:
    /// `cargo test --offline --release -- --ignored the_bridge_defect`.
    #[test]
    #[ignore = "known defect in crates/core/src/interval2l (bridge jump anchors a G run late)"]
    fn the_bridge_defect() {
        let set = generate_set(40_000, 42);
        let db = segdb_core::SegmentDatabase::builder()
            .trust_input()
            .cache_pages(1 << 14)
            .build(set.clone())
            .unwrap();
        let mut short = Vec::new();
        for q in vertical_queries(&set, POOL, QUERY_FRAC_PER_MILLE, 42) {
            let (answer, _) = db.query_canonical_mode(&q, QueryMode::Collect).unwrap();
            let want = scan_oracle(&set, &q).len() as u64;
            if answer.count() != want {
                short.push((q, want, answer.count()));
            }
        }
        assert!(short.is_empty(), "(query, oracle, collected): {short:?}");
    }

    #[test]
    fn reply_check_per_mode() {
        let set = generate_set(600, 9);
        let q = VerticalQuery::Line { x: set[0].a.x };
        let hits: Vec<u64> = scan_oracle(&set, &q).iter().map(|s| s.id).collect();
        assert!(hits.len() > LIMIT_K as usize);
        let want = Expected::of(hits.iter().copied());
        let t = hits.len() as u64;
        let ok = |mode, ids: &[u64], count| {
            reply_is_correct(&set, &q, mode, want, ids.iter().copied(), count)
        };
        assert!(ok(QueryMode::Collect, &hits, t));
        assert!(!ok(QueryMode::Collect, &hits[1..], t - 1), "one id missing");
        let mut swapped = hits.clone();
        swapped[0] = (0..set.len() as u64).find(|i| !hits.contains(i)).unwrap();
        assert!(!ok(QueryMode::Collect, &swapped, t), "a wrong id");
        assert!(ok(QueryMode::Count, &[], t));
        assert!(!ok(QueryMode::Count, &[], t + 1));
        assert!(ok(QueryMode::Exists, &[], 1));
        assert!(!ok(QueryMode::Exists, &[], 0));
        let limit = QueryMode::Limit(LIMIT_K);
        assert!(ok(limit, &hits[3..11], 8), "any 8 members");
        assert!(!ok(limit, &hits[..7], 7), "too few");
        assert!(!ok(limit, &swapped[..8], 8), "a non-member");
        let dup = [hits[0]; 8];
        assert!(!ok(limit, &dup, 8), "duplicates");
    }
}
