//! NCT validator property: a crossing or a duplicate id injected into a
//! valid generated set is detected. (That every family generates NCT sets
//! is `gen`'s own property test.)

use segdb_geom::gen::Family;
use segdb_geom::nct::verify_nct;
use segdb_geom::{GeomError, Segment};
use segdb_rng::check;

#[test]
fn injected_violations_are_detected() {
    check::run(
        "injected_violations_are_detected",
        32,
        |rng| (rng.next_u64(), rng.gen_range(20..200usize), rng.next_u64()),
        |&(seed, n, victim)| {
            // A far-away segment reusing an id is an overlap with itself.
            let mut set = Family::Temporal.generate(n, seed);
            let far = Segment::new(set[0].id, (1 << 30, 1 << 30), ((1 << 30) + 5, 1 << 30));
            set.push(far.unwrap());
            assert!(matches!(verify_nct(&set), Err(GeomError::Overlap(a, b)) if a == b));
            // A steep stinger through a segment's interior crosses it.
            let mut set = Family::Strips.generate(n, seed);
            let v = set[victim as usize % set.len()];
            let mx = (v.a.x + v.b.x) / 2;
            if v.is_vertical() || mx <= v.a.x || mx >= v.b.x {
                return;
            }
            let (ylo, yhi) = v.y_span();
            set.push(Segment::new(900_000, (mx, ylo - 100), (mx + 1, yhi + 100)).unwrap());
            let got = verify_nct(&set);
            assert!(
                matches!(got, Err(GeomError::Crossing(..) | GeomError::Overlap(..))),
                "crossing not detected: {got:?}"
            );
        },
    );
}
