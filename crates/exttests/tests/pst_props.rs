//! Property tests: the PST answer must equal the brute-force oracle for
//! random NCT line-based sets, random query mixes, both fanout
//! configurations, and arbitrary insert orders, with invariants intact.

use proptest::collection::vec;
use proptest::prelude::*;
use segdb_core::testutil::oracle_ids;
use segdb_geom::predicates::hits_vertical;
use segdb_geom::Segment;
use segdb_pager::{Pager, PagerConfig};
use segdb_pst::{Pst, PstConfig, Side};

/// Strategy: per strip, 1–3 segments sharing the base point `(0, 40·i)`
/// with distinct slopes — non-crossing by strip confinement, touching at
/// the base (exercises the tie-break order).
fn line_based_set(max_strips: usize) -> impl Strategy<Value = Vec<Segment>> {
    vec(
        (1usize..=3, 1i64..4000, -19i64..=19, -18i64..=18),
        1..max_strips,
    )
    .prop_map(|strips| {
        let mut out = Vec::new();
        for (i, (k, len, d1, d2)) in strips.into_iter().enumerate() {
            let y0 = 40 * i as i64;
            let mut drifts = vec![d1];
            if k >= 2 && d2 != d1 {
                drifts.push(d2);
            }
            if k >= 3 {
                let d3 = (d1 + 7).rem_euclid(19);
                if !drifts.contains(&d3) {
                    drifts.push(d3);
                }
            }
            for (j, d) in drifts.into_iter().enumerate() {
                let id = (i * 4 + j) as u64;
                out.push(Segment::new(id, (0, y0), (len + j as i64 + 1, y0 + d)).unwrap());
            }
        }
        out
    })
}

fn oracle(set: &[Segment], qx: i64, lo: Option<i64>, hi: Option<i64>) -> Vec<u64> {
    oracle_ids(set, |s| s.id, |s| {
        qx >= 0 && s.spans_x(0) && hits_vertical(s, qx, lo, hi)
    })
}

fn query(pst: &Pst, p: &Pager, qx: i64, lo: Option<i64>, hi: Option<i64>) -> Vec<u64> {
    let mut out = Vec::new();
    pst.query_into(p, qx, lo, hi, &mut out).unwrap();
    let mut ids: Vec<u64> = out.iter().map(|s| s.id).collect();
    ids.sort_unstable();
    ids
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn bulk_matches_oracle(
        set in line_based_set(60),
        queries in vec((0i64..4200, -100i64..2500, 0i64..600), 1..20),
        binary in any::<bool>(),
        page in prop_oneof![Just(256usize), Just(512)],
    ) {
        let p = Pager::new(PagerConfig { page_size: page, cache_pages: 0 });
        let cfg = if binary { PstConfig::binary() } else { PstConfig::packed() };
        let pst = Pst::build(&p, 0, Side::Right, cfg, set.clone()).unwrap();
        pst.validate(&p).unwrap();
        for (qx, l, h) in queries {
            let (lo, hi) = (Some(l), Some(l + h));
            prop_assert_eq!(query(&pst, &p, qx, lo, hi), oracle(&set, qx, lo, hi));
            // Line query too.
            prop_assert_eq!(query(&pst, &p, qx, None, None), oracle(&set, qx, None, None));
        }
    }

    #[test]
    fn insert_any_order_matches_oracle(
        set in line_based_set(40),
        order_seed in 0u64..1000,
        qx in 0i64..4200,
    ) {
        let p = Pager::new(PagerConfig { page_size: 256, cache_pages: 0 });
        let mut shuffled = set.clone();
        // Deterministic shuffle.
        let mut s = order_seed.wrapping_mul(2654435761).wrapping_add(1);
        for i in (1..shuffled.len()).rev() {
            s ^= s << 13; s ^= s >> 7; s ^= s << 17;
            shuffled.swap(i, (s % (i as u64 + 1)) as usize);
        }
        let mut pst = Pst::build(&p, 0, Side::Right, PstConfig::packed(), vec![]).unwrap();
        for seg in &shuffled {
            pst.insert(&p, *seg).unwrap();
        }
        pst.validate(&p).unwrap();
        prop_assert_eq!(query(&pst, &p, qx, None, None), oracle(&set, qx, None, None));
        prop_assert_eq!(
            query(&pst, &p, qx, Some(100), Some(900)),
            oracle(&set, qx, Some(100), Some(900))
        );
    }
}
