//! Oracle-comparison and complexity-shape tests for the external
//! interval tree.

use segdb_itree::{Interval, IntervalTree, IntervalTreeConfig};
use segdb_pager::{Pager, PagerConfig};
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

fn sorted_ids(v: Vec<Interval>) -> Vec<u64> {
    oracle_ids(&v, |iv| iv.id, |_| true)
}

#[test]
fn stab_matches_oracle_random() {
    for page in [256usize, 1024] {
        let p = pager(page);
        let set = random_intervals(2000, 10_000, 7);
        let t = IntervalTree::build(&p, IntervalTreeConfig::default(), set.clone()).unwrap();
        t.validate(&p).unwrap();
        let mut rng = SmallRng::seed_from_u64(99);
        for _ in 0..200 {
            let x = rng.gen_range(-11_000..11_000i64);
            assert_eq!(
                sorted_ids(t.stab(&p, x).unwrap()),
                oracle_stab(&set, x),
                "x={x} page={page}"
            );
        }
        // Boundary-exact probes: use actual endpoints.
        for iv in set.iter().take(100) {
            for x in [iv.lo, iv.hi] {
                assert_eq!(
                    sorted_ids(t.stab(&p, x).unwrap()),
                    oracle_stab(&set, x),
                    "endpoint {x}"
                );
            }
        }
    }
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
    let p = pager(256);
    let set = random_intervals(800, 5_000, 21);
    let bulk = IntervalTree::build(&p, IntervalTreeConfig::default(), set.clone()).unwrap();
    let mut inc = IntervalTree::new(&p, IntervalTreeConfig::default()).unwrap();
    for &iv in &set {
        inc.insert(&p, iv).unwrap();
    }
    inc.validate(&p).unwrap();
    let mut rng = SmallRng::seed_from_u64(5);
    for _ in 0..100 {
        let x = rng.gen_range(-6_000..6_000i64);
        assert_eq!(
            sorted_ids(inc.stab(&p, x).unwrap()),
            sorted_ids(bulk.stab(&p, x).unwrap()),
            "x={x}"
        );
    }
    assert_eq!(inc.len(), bulk.len());
}

#[test]
fn remove_random_subset() {
    let p = pager(256);
    let set = random_intervals(500, 4_000, 3);
    let mut t = IntervalTree::build(&p, IntervalTreeConfig::default(), set.clone()).unwrap();
    let (gone, kept): (Vec<_>, Vec<_>) = set.iter().partition(|iv| iv.id % 3 == 0);
    for iv in &gone {
        assert!(t.remove(&p, iv).unwrap(), "missing {iv:?}");
        assert!(!t.remove(&p, iv).unwrap(), "double remove {iv:?}");
    }
    t.validate(&p).unwrap();
    assert_eq!(t.len() as usize, kept.len());
    let kept_set: Vec<Interval> = kept;
    let mut rng = SmallRng::seed_from_u64(17);
    for _ in 0..100 {
        let x = rng.gen_range(-5_000..5_000i64);
        assert_eq!(
            sorted_ids(t.stab(&p, x).unwrap()),
            oracle_stab(&kept_set, x)
        );
    }
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
    let t = IntervalTree::new(&p, IntervalTreeConfig::default()).unwrap();
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
