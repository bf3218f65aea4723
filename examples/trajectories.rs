//! Constraint-database scenario (paper §1: "constraint databases [11]").
//!
//! Linear-constraint tuples `position = entry + speed·(t − t_entry)` over
//! a lifetime interval are exactly plane segments in (time, position)
//! space. One-lane traffic (no overtaking) makes the set non-crossing:
//! a car may close up on its leader and *touch*, never pass — the
//! paper's NCT model, literally.
//!
//! Queries:
//! * "which cars does the radar gantry at mile `m` see during
//!   `[t1, t2]`?" — not a vertical query in (t, pos) space, but its dual
//!   "which cars are between miles `m1` and `m2` at instant `t`" is the
//!   canonical VS query, and a *pursuit query* "which cars does a
//!   patrol car driving plan `p(t) = x0 + v·t` meet?" is a
//!   fixed-direction line query, served by the shear.
//!
//! ```sh
//! cargo run --release --example trajectories
//! ```

use segdb::core::report::ids;
use segdb::core::{IndexKind, Query, QueryMode::Collect, SegmentDatabase};
use segdb::geom::Segment;

const HORIZON: i64 = 10_000;
const LANE_LENGTH: i64 = 1_000_000;

/// One-lane traffic: car `i` enters behind car `i-1` with a speed not
/// exceeding its leader's — lines that never cross (they may converge
/// and touch at the horizon).
fn traffic(n: usize) -> Vec<Segment> {
    let mut out = Vec::with_capacity(n);
    let mut speed = 120i64; // leader's speed in position units / tick
    for i in 0..n {
        // Entry staggered; speeds non-increasing along the queue.
        let t0 = (i as i64) * 3;
        if i % 7 == 6 && speed > 40 {
            speed -= 1; // a slower driver joins; everyone behind is capped
        }
        let entry_pos = -(i as i64) * 30; // staggered starting positions
        let t1 = HORIZON.min(t0 + (LANE_LENGTH - entry_pos) / speed.max(1));
        let p0 = entry_pos; // position at entry time t0
        let p1 = entry_pos + speed * (t1 - t0);
        out.push(Segment::new(i as u64, (t0, p0), (t1, p1)).expect("valid trajectory"));
    }
    out
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cars = traffic(50_000);
    let n = cars.len();

    // Instant-range queries: vertical in (t, pos).
    let db = SegmentDatabase::builder()
        .page_size(4096)
        .index(IndexKind::TwoLevelInterval)
        .build(cars.clone())?;
    println!("{n} car trajectories in {} blocks", db.space_blocks());

    let t = 5_000i64;
    let window = Query::Segment {
        x1: t,
        y1: 100_000,
        x2: t,
        y2: 150_000,
    };
    let (between, trace) = db.query(&window, Collect)?;
    println!(
        "cars between mile-pos 100k and 150k at t={t}: {} ({} read I/Os)",
        between.count(),
        trace.io.reads
    );

    // Pursuit query: a patrol car driving pos(t) = -3000 + 130·t. Which
    // trajectories does it meet? Fixed direction (1, 130).
    let patrol = SegmentDatabase::builder()
        .page_size(4096)
        .direction(1, 130)?
        .index(IndexKind::TwoLevelInterval)
        .build(cars.clone())?;
    let (met, trace) = patrol.query(
        &Query::Line {
            x: 0,
            y: -1_600_000,
        },
        Collect,
    )?;
    println!(
        "patrol car (v=130 from pos -1.6M) meets {} cars ({} read I/Os)",
        met.count(),
        trace.io.reads
    );
    // The patrol gains 10–90 position units per tick, so within the
    // horizon it sweeps up the tail of the queue.
    assert!(
        met.count() > 100,
        "a fast pursuer meets the tail of the queue"
    );

    // Sanity: brute-force one pursuit answer.
    let brute: Vec<u64> = cars
        .iter()
        .filter(|c| {
            let f = |t: i64, p: i64| p - (-1_600_000 + 130 * t);
            let (va, vb) = (f(c.a.x, c.a.y), f(c.b.x, c.b.y));
            va.signum() * vb.signum() <= 0
        })
        .map(|c| c.id)
        .collect();
    assert_eq!(ids(met.segments().unwrap_or_default()), brute);

    println!("trajectories OK");
    Ok(())
}
