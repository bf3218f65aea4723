//! Property test: on random NCT line-based sets, a PST bulk-built in
//! either fanout configuration, and one grown by inserts in any order,
//! answer random line and window queries as the brute-force oracle does,
//! with invariants intact.

use segdb_core::testutil::oracle_ids;
use segdb_geom::predicates::hits_vertical;
use segdb_geom::Segment;
use segdb_pager::{Pager, PagerConfig};
use segdb_pst::{Pst, PstConfig, Side};
use segdb_rng::{check, SmallRng};

/// Strip `i` holds 1–3 segments from `(0, 40·i)` with distinct drifts
/// (`k, len, d1, d2`) — non-crossing by strip confinement, touching at
/// the base, which exercises the tie-break order.
fn line_based_set(strips: &[(usize, i64, i64, i64)]) -> Vec<Segment> {
    let mut out = Vec::new();
    for (i, &(k, len, d1, d2)) in strips.iter().enumerate() {
        let mut drifts = vec![d1];
        if k >= 2 && d2 != d1 {
            drifts.push(d2);
        }
        let d3 = (d1 + 7).rem_euclid(19);
        if k >= 3 && !drifts.contains(&d3) {
            drifts.push(d3);
        }
        let y0 = 40 * i as i64;
        for (j, d) in drifts.into_iter().enumerate() {
            let b = (len + j as i64 + 1, y0 + d);
            out.push(Segment::new((i * 4 + j) as u64, (0, y0), b).unwrap());
        }
    }
    out
}

fn ids(pst: &Pst, p: &Pager, qx: i64, lo: Option<i64>, hi: Option<i64>) -> Vec<u64> {
    let mut out = Vec::new();
    pst.query_into(p, qx, lo, hi, &mut out).unwrap();
    oracle_ids(&out, |s| s.id, |_| true)
}

#[test]
fn bulk_and_inserted_match_oracle() {
    check::run(
        "bulk_and_inserted_match_oracle",
        48,
        |rng| {
            let strips: Vec<_> = (0..rng.gen_range(1..60usize))
                .map(|_| {
                    let (k, len) = (rng.gen_range(1..=3usize), rng.gen_range(1..4000i64));
                    (
                        k,
                        len,
                        rng.gen_range(-19..=19i64),
                        rng.gen_range(-18..=18i64),
                    )
                })
                .collect();
            let queries: Vec<_> = (0..rng.gen_range(1..20usize))
                .map(|_| {
                    let qx = rng.gen_range(0..4200i64);
                    (qx, rng.gen_range(-100..2500i64), rng.gen_range(0..600i64))
                })
                .collect();
            let page = if rng.gen_bool(0.5) { 256usize } else { 512 };
            (strips, queries, (rng.gen_bool(0.5), page), rng.next_u64())
        },
        |&(ref strips, ref queries, (binary, page), order)| {
            let set = line_based_set(strips);
            let p = Pager::new(PagerConfig {
                page_size: page,
                cache_pages: 0,
            });
            let cfg = if binary {
                PstConfig::binary()
            } else {
                PstConfig::packed()
            };
            let bulk = Pst::build(&p, 0, Side::Right, cfg, set.clone()).unwrap();
            let mut grown = Pst::build(&p, 0, Side::Right, cfg, vec![]).unwrap();
            let mut shuffled = set.clone();
            let mut rng = SmallRng::seed_from_u64(order);
            for i in (1..shuffled.len()).rev() {
                shuffled.swap(i, rng.gen_range(0..=i));
            }
            for s in shuffled {
                grown.insert(&p, s).unwrap();
            }
            for pst in [&bulk, &grown] {
                pst.validate(&p).unwrap();
                for &(qx, l, h) in queries {
                    for (lo, hi) in [(Some(l), Some(l + h)), (None, None)] {
                        let hit = |s: &Segment| s.spans_x(0) && hits_vertical(s, qx, lo, hi);
                        let want = oracle_ids(&set, |s| s.id, hit);
                        assert_eq!(ids(pst, &p, qx, lo, hi), want, "x={qx} {lo:?}..{hi:?}");
                    }
                }
            }
        },
    );
}
