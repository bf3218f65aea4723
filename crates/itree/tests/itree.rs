//! Oracle-comparison and complexity-shape tests for the external
//! interval tree.

use segdb_itree::{Interval, IntervalSet, IntervalTree, IntervalTreeConfig};
use segdb_pager::{Pager, PagerConfig};
use segdb_rng::check::{self, Shrink};
use segdb_rng::SmallRng;

fn pager(page: usize) -> Pager {
    Pager::new(PagerConfig {
        page_size: page,
        cache_pages: 0,
    })
}

fn random_intervals(n: usize, span: i64, seed: u64) -> Vec<Interval> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let a = rng.gen_range(-span..span);
            let len = rng.gen_range(0..span / 4);
            Interval::new(i as u64, a, a + len)
        })
        .collect()
}

use segdb_core::testutil::oracle_ids;

fn oracle_stab(set: &[Interval], x: i64) -> Vec<u64> {
    oracle_ids(set, |iv| iv.id, |iv| iv.contains(x))
}

/// Push every interval of `set` overlapping `[lo, hi]` onto `out`.
fn overlap(set: &IntervalSet, p: &Pager, lo: i64, hi: i64, out: &mut Vec<Interval>) {
    let _ = (set.overlap_ctl(p, Some(lo), Some(hi), &mut |iv| {
        out.push(*iv);
        std::ops::ControlFlow::Continue(())
    }))
    .unwrap();
}

fn sorted_ids(v: Vec<Interval>) -> Vec<u64> {
    oracle_ids(&v, |iv| iv.id, |_| true)
}

/// `(a, len)` pairs, 0 to `max` of them: interval `i` is
/// `[a, a + len]` with id `i`.
fn spans(rng: &mut SmallRng, max: usize, span: i64) -> Vec<(i64, i64)> {
    (0..rng.gen_range(0..=max))
        .map(|_| (rng.gen_range(-span..span), rng.gen_range(0..span / 4)))
        .collect()
}

fn intervals(spans: &[(i64, i64)]) -> Vec<Interval> {
    (0u64..)
        .zip(spans)
        .map(|(i, &(a, len))| Interval::new(i, a, a + len))
        .collect()
}

fn probes(rng: &mut SmallRng, n: usize, reach: i64) -> Vec<i64> {
    (0..n).map(|_| rng.gen_range(-reach..reach)).collect()
}

#[test]
fn stab_matches_oracle_random() {
    check::run(
        "stab_matches_oracle_random",
        8,
        |rng| (spans(rng, 2000, 10_000), probes(rng, 200, 11_000)),
        |(spans, probes)| {
            let set = intervals(spans);
            for page in [256usize, 1024] {
                let p = pager(page);
                let t =
                    IntervalTree::build(&p, IntervalTreeConfig::default(), set.clone()).unwrap();
                t.validate(&p).unwrap();
                // Boundary-exact probes too: actual endpoints.
                let ends = set.iter().take(100).flat_map(|iv| [iv.lo, iv.hi]);
                for x in probes.iter().copied().chain(ends) {
                    let got = sorted_ids(t.stab(&p, x).unwrap());
                    assert_eq!(got, oracle_stab(&set, x), "x={x} page={page}");
                }
            }
        },
    );
}

#[test]
fn stab_matches_oracle_adversarial() {
    let p = pager(256);
    // Nested intervals all containing 0, plus point intervals, plus
    // identical duplicates (distinct ids).
    let mut set: Vec<Interval> = (0..300)
        .map(|i| Interval::new(i, -(i as i64) - 1, i as i64 + 1))
        .collect();
    set.extend((0..50).map(|i| Interval::new(300 + i, i as i64, i as i64)));
    set.extend((0..50).map(|i| Interval::new(350 + i, 5, 10)));
    let t = IntervalTree::build(&p, IntervalTreeConfig::default(), set.clone()).unwrap();
    t.validate(&p).unwrap();
    for x in [-301, -5, 0, 5, 7, 10, 49, 301] {
        assert_eq!(
            sorted_ids(t.stab(&p, x).unwrap()),
            oracle_stab(&set, x),
            "x={x}"
        );
    }
}

#[test]
fn incremental_insert_matches_bulk() {
    check::run(
        "incremental_insert_matches_bulk",
        16,
        |rng| (spans(rng, 800, 5_000), probes(rng, 100, 6_000)),
        |(spans, probes)| {
            let p = pager(256);
            let set = intervals(spans);
            let bulk = IntervalTree::build(&p, IntervalTreeConfig::default(), set.clone()).unwrap();
            let mut inc =
                IntervalTree::build(&p, IntervalTreeConfig::default(), Vec::new()).unwrap();
            for &iv in &set {
                inc.insert(&p, iv).unwrap();
            }
            inc.validate(&p).unwrap();
            for &x in probes {
                let want = sorted_ids(bulk.stab(&p, x).unwrap());
                assert_eq!(sorted_ids(inc.stab(&p, x).unwrap()), want, "x={x}");
            }
            assert_eq!(inc.len(), bulk.len());
        },
    );
}

#[derive(Debug, Clone, Copy)]
enum Op {
    /// Insert `[a, a + len]`.
    Insert(i64, i64),
    RemoveIdx(usize),
    Stab(i64),
    /// Query `[a, a + len]`.
    Overlap(i64, i64),
}

impl Shrink for Op {}

/// A page size, a start set of up to 500 intervals, and up to 600
/// operations on it.
fn start_and_ops(rng: &mut SmallRng) -> (usize, Vec<(i64, i64)>, Vec<Op>) {
    let page = if rng.gen_bool(0.5) { 256usize } else { 1024 };
    let ops = (0..rng.gen_range(0..=600usize))
        .map(|_| match rng.gen_range(0..4u8) {
            0 => Op::Insert(rng.gen_range(-4_000..4_000), rng.gen_range(0..1_000)),
            1 => Op::RemoveIdx(rng.gen_range(0..1_000usize)),
            2 => Op::Stab(rng.gen_range(-5_000..5_000)),
            _ => Op::Overlap(rng.gen_range(-5_000..5_000), rng.gen_range(0..1_500)),
        })
        .collect();
    (page, spans(rng, 500, 4_000), ops)
}

/// Interleaved inserts, removes, stabs and overlap queries on a tree and
/// on an overlap set, both built from the same start set, against an
/// in-memory model.
#[test]
fn remove_random_subset() {
    check::run(
        "remove_random_subset",
        32,
        start_and_ops,
        |(page, start, ops)| {
            let (p, cfg) = (pager(*page), IntervalTreeConfig::default());
            let mut model = intervals(start);
            let mut t = IntervalTree::build(&p, cfg, model.clone()).unwrap();
            let mut set = IntervalSet::build(&p, cfg, model.clone()).unwrap();
            let mut next_id = model.len() as u64;
            let mut got = Vec::new();
            for op in ops {
                let want = match *op {
                    Op::Insert(a, len) => {
                        let iv = Interval::new(next_id, a, a + len);
                        next_id += 1;
                        t.insert(&p, iv).unwrap();
                        set.insert(&p, iv).unwrap();
                        model.push(iv);
                        continue;
                    }
                    Op::RemoveIdx(i) if !model.is_empty() => {
                        let iv = model.swap_remove(i % model.len());
                        assert!(t.remove(&p, &iv).unwrap(), "missing {iv:?}");
                        assert!(!t.remove(&p, &iv).unwrap(), "double remove {iv:?}");
                        assert!(set.remove(&p, &iv).unwrap(), "missing from the set {iv:?}");
                        continue;
                    }
                    Op::RemoveIdx(_) => continue,
                    Op::Stab(x) => {
                        assert_eq!(sorted_ids(t.stab(&p, x).unwrap()), oracle_stab(&model, x));
                        overlap(&set, &p, x, x, &mut got);
                        oracle_stab(&model, x)
                    }
                    Op::Overlap(a, len) => {
                        overlap(&set, &p, a, a + len, &mut got);
                        oracle_ids(&model, |iv| iv.id, |iv| iv.overlaps(a, a + len))
                    }
                };
                assert_eq!(sorted_ids(std::mem::take(&mut got)), want, "{op:?}");
            }
            t.validate(&p).unwrap();
            set.validate(&p).unwrap();
            assert_eq!(
                (t.len() as usize, set.len() as usize),
                (model.len(), model.len())
            );
        },
    );
}

#[test]
fn scan_all_returns_everything() {
    let p = pager(512);
    let set = random_intervals(1000, 10_000, 11);
    let t = IntervalTree::build(&p, IntervalTreeConfig::default(), set.clone()).unwrap();
    let mut got = sorted_ids(t.scan_all(&p).unwrap());
    got.dedup();
    assert_eq!(got, (0..1000u64).collect::<Vec<_>>());
}

#[test]
fn query_io_scales_sublinearly() {
    // I/O per empty-ish stab should grow ~log N, far below N/B.
    let mut prev_io = 0u64;
    for n in [1_000usize, 8_000, 64_000] {
        let p = pager(1024);
        let set = random_intervals(n, 1_000_000, 13);
        let t = IntervalTree::build(&p, IntervalTreeConfig::default(), set).unwrap();
        p.reset_stats();
        let queries = 50;
        let mut rng = SmallRng::seed_from_u64(29);
        let mut total_t = 0usize;
        for _ in 0..queries {
            let x = rng.gen_range(-1_000_000..1_000_000i64);
            total_t += t.stab(&p, x).unwrap().len();
        }
        let io_per_query = p.stats().reads as f64 / queries as f64;
        let out_per_query = total_t as f64 / queries as f64;
        // Generous cap: levels × (node + 3 small b+tree descents) + output.
        assert!(
            io_per_query < 80.0 + out_per_query,
            "n={n}: io/q={io_per_query:.1} out/q={out_per_query:.1}"
        );
        assert!(p.stats().reads > prev_io / 64, "sanity");
        prev_io = p.stats().reads;
    }
}

#[test]
fn fanout_config_is_respected_and_correct() {
    let p = pager(1024);
    let set = random_intervals(2000, 20_000, 31);
    let t = IntervalTree::build(&p, IntervalTreeConfig { fanout: Some(3) }, set.clone()).unwrap();
    t.validate(&p).unwrap();
    let mut rng = SmallRng::seed_from_u64(41);
    for _ in 0..100 {
        let x = rng.gen_range(-21_000..21_000i64);
        assert_eq!(sorted_ids(t.stab(&p, x).unwrap()), oracle_stab(&set, x));
    }
}

#[test]
fn empty_and_tiny_trees() {
    let p = pager(256);
    let t = IntervalTree::build(&p, IntervalTreeConfig::default(), Vec::new()).unwrap();
    assert!(t.is_empty());
    assert!(t.stab(&p, 0).unwrap().is_empty());
    let one = IntervalTree::build(
        &p,
        IntervalTreeConfig::default(),
        vec![Interval::new(1, 2, 4)],
    )
    .unwrap();
    assert_eq!(one.stab(&p, 3).unwrap().len(), 1);
    assert!(one.stab(&p, 5).unwrap().is_empty());
}
