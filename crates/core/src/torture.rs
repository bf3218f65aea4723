//! Seeded crash-recovery torture scenarios over the whole storage stack.
//!
//! One scenario ([`run_scenario`]) is fully determined by a
//! [`TortureConfig`] — in particular its `seed`:
//!
//! 1. build a database fault-free on a disarmed
//!    [`segdb_pager::FaultDevice`] (the build ends in a `save`, so the
//!    durable image starts consistent);
//! 2. arm a seed-derived [`FaultPlan`] (pure crash, transient-error, or
//!    torn-heavy mode) and run a seeded workload of inserts / removes,
//!    oracle-verified queries, and occasional
//!    `save`s, keeping an in-memory oracle of the segment set as of the
//!    last *successful* save;
//! 3. at the first storage fault (or the scheduled power cut), stop,
//!    [`recover`](segdb_pager::FaultHandle::recover) the
//!    last-sync-consistent image, reopen it with
//!    [`SegmentDatabase::open_device`], and verify a battery covering
//!    all four query shapes **bit-identically** against the oracle, then
//!    deep-validate the recovered index.
//!
//! Everything — the segment set, the fault schedule, the workload, the
//! query batteries — derives from `seed` through salted
//! [`segdb_rng::SmallRng`] streams, so a scenario replays its exact
//! fault trace ([`TortureOutcome::fault_trace`], compare via
//! [`trace_digest`]). The workspace suite `tests/faults.rs` sweeps this
//! over ≥50 seeds per index kind; `segdb-cli torture` exposes the same
//! harness for the `check.sh` smoke.

use crate::facade::{DbError, IndexKind, SegmentDatabase};
use crate::report::{ids, QueryAnswer, QueryMode};
use segdb_geom::gen::mixed_map;
use segdb_geom::query::scan_oracle;
use segdb_geom::{Segment, VerticalQuery};
use segdb_pager::{FaultDevice, FaultEvent, FaultKind, FaultPlan, PagerError};
use segdb_rng::SmallRng;

/// Salt for the segment-set RNG stream.
const SET_SALT: u64 = 0x5e65_e751_c0ff_ee01;
/// Salt for the fault-plan RNG stream.
const PLAN_SALT: u64 = 0x91a4_7afe_c0ff_ee02;
/// Salt for the workload RNG stream.
const WORK_SALT: u64 = 0x3c3c_10ad_c0ff_ee03;
/// Salt for the query-battery RNG stream.
const QUERY_SALT: u64 = 0x4b1d_9e37_c0ff_ee04;

/// One torture scenario, fully determined by these parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TortureConfig {
    /// Master seed; every random stream of the scenario derives from it.
    pub seed: u64,
    /// Index structure under torture.
    pub kind: IndexKind,
    /// Initial segment count (the set is NCT by construction).
    pub n: usize,
    /// Workload rounds between arming and the (possible) crash.
    pub rounds: usize,
    /// Page (block) size in bytes.
    pub page_size: usize,
    /// Buffer-pool capacity in pages (small, so evictions — and their
    /// writebacks — happen on the query path too).
    pub cache_pages: usize,
}

impl TortureConfig {
    /// The standard small-but-hostile scenario for `kind` and `seed`.
    pub fn new(kind: IndexKind, seed: u64) -> TortureConfig {
        TortureConfig {
            seed,
            kind,
            n: 80,
            rounds: 5,
            page_size: 512,
            cache_pages: 6,
        }
    }
}

/// What one scenario did and proved. Deterministic per config: replaying
/// the same [`TortureConfig`] yields an equal outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct TortureOutcome {
    /// Did the scenario end in a storage fault (power cut or the first
    /// injected error) rather than running its workload to completion?
    pub crashed: bool,
    /// The first storage error observed by the workload, if any.
    pub first_error: Option<String>,
    /// Every injected fault, in order ([`segdb_pager::FaultStats::of`]
    /// counts it by kind).
    pub fault_trace: Vec<FaultEvent>,
    /// Queries answered by the live database and verified against the
    /// oracle before the fault.
    pub live_queries_verified: u64,
    /// Queries answered by the recovered database and verified
    /// bit-identically against the last-save oracle.
    pub recovery_queries_verified: u64,
    /// Successful `save`s during the workload (each advances the
    /// durable oracle).
    pub saves: u64,
    /// Segment count of the recovered database.
    pub recovered_len: u64,
}

/// Derive the scenario's fault schedule from its master seed: one of
/// three modes (pure crash / transient errors plus a late cut /
/// torn-write-heavy plus a cut), all parameters seeded.
pub fn derive_plan(seed: u64) -> FaultPlan {
    let mut rng = SmallRng::seed_from_u64(seed ^ PLAN_SALT);
    match rng.gen_range(0u32..3) {
        0 => FaultPlan::crash_at(seed, rng.gen_range(1u64..400)),
        1 => FaultPlan {
            read_error: 0.01,
            write_error: 0.01,
            sync_error: 0.02,
            power_cut_at: Some(rng.gen_range(200u64..1500)),
            ..FaultPlan::none(seed)
        },
        _ => FaultPlan {
            torn_write: 0.05,
            power_cut_at: Some(rng.gen_range(100u64..800)),
            ..FaultPlan::none(seed)
        },
    }
}

/// A seeded query battery covering all four generalized-segment shapes
/// (line, both rays, bounded segment) over the bounding box of `set`.
pub fn query_battery(set: &[Segment], count: usize, seed: u64) -> Vec<VerticalQuery> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let (mut xmin, mut xmax, mut ymin, mut ymax) = (0i64, 1i64, 0i64, 1i64);
    for (i, s) in set.iter().enumerate() {
        let (l, h) = s.y_span();
        if i == 0 {
            (xmin, xmax, ymin, ymax) = (s.a.x, s.b.x, l, h);
        } else {
            xmin = xmin.min(s.a.x);
            xmax = xmax.max(s.b.x);
            ymin = ymin.min(l);
            ymax = ymax.max(h);
        }
    }
    (0..count)
        .map(|i| {
            let x = rng.gen_range(xmin..=xmax);
            let y1 = rng.gen_range(ymin..=ymax);
            let y2 = rng.gen_range(ymin..=ymax);
            match i % 4 {
                0 => VerticalQuery::Line { x },
                1 => VerticalQuery::RayUp { x, y0: y1 },
                2 => VerticalQuery::RayDown { x, y0: y1 },
                _ => VerticalQuery::segment(x, y1, y2),
            }
        })
        .collect()
}

/// Order-dependent digest of a fault trace ([`segdb_rng::fnv1a`] over
/// each event's op index, 1-based ledger key and torn-write length) — a
/// compact fingerprint for determinism assertions (two replays of one
/// seed must agree).
pub fn trace_digest(trace: &[FaultEvent]) -> u64 {
    let words = trace.iter().flat_map(|ev| {
        let kept = match ev.kind {
            FaultKind::TornWrite { kept } => u64::from(kept),
            _ => 0,
        };
        [ev.op, ev.kind.key() as u64 + 1, kept]
    });
    segdb_rng::fnv1a(words.flat_map(u64::to_le_bytes))
}

/// Check one live/recovered answer against the exhaustive oracle.
fn verify(
    answer: &QueryAnswer,
    oracle_set: &[Segment],
    q: &VerticalQuery,
    what: &'static str,
) -> Result<(), DbError> {
    if answer.segments().map(ids) != Some(ids(&scan_oracle(oracle_set, q))) {
        return Err(DbError::Pager(PagerError::Corrupt(what)));
    }
    Ok(())
}

/// Run one scenario. Returns `Err` only on a **correctness** failure
/// (an answer diverging from the oracle, recovery failing to reopen, or
/// the recovered index failing deep validation) — injected storage
/// faults are the expected mechanism, not an error.
pub fn run_scenario(cfg: &TortureConfig) -> Result<TortureOutcome, DbError> {
    // The whole set is NCT by construction; any subset of an NCT set is
    // NCT, so inserts drawn from `pending` keep the invariant.
    let extra = cfg.rounds * 8;
    let all = mixed_map(cfg.n + extra, cfg.seed ^ SET_SALT);
    let split = all.len().saturating_sub(extra).max(1);
    let mut current: Vec<Segment> = all[..split].to_vec();
    let mut pending: Vec<Segment> = all[split..].to_vec();

    let (device, handle) = FaultDevice::over_memory(cfg.page_size, FaultPlan::none(cfg.seed));
    let mut db = SegmentDatabase::builder()
        .cache_pages(cfg.cache_pages)
        .cache_shards(1)
        .index(cfg.kind)
        .on_device(Box::new(device))
        .build(current.clone())?;
    // `build` on an explicit device ends in save(): the durable image now
    // matches `current`.
    let mut durable_oracle = current.clone();

    let mut outcome = TortureOutcome {
        crashed: false,
        first_error: None,
        fault_trace: Vec::new(),
        live_queries_verified: 0,
        recovery_queries_verified: 0,
        saves: 0,
        recovered_len: 0,
    };

    handle.arm(derive_plan(cfg.seed));
    let mut wrng = SmallRng::seed_from_u64(cfg.seed ^ WORK_SALT);
    let fault = |e: DbError, outcome: &mut TortureOutcome| {
        outcome.crashed = true;
        outcome.first_error = Some(e.to_string());
    };
    'work: for round in 0..cfg.rounds as u64 {
        for _ in 0..4 {
            let insert = wrng.gen_bool(0.7);
            if (insert || current.len() <= cfg.n / 2) && !pending.is_empty() {
                let s = pending[pending.len() - 1];
                match db.insert(s) {
                    Ok(()) => {
                        pending.pop();
                        current.push(s);
                    }
                    Err(e) => {
                        fault(e, &mut outcome);
                        break 'work;
                    }
                }
            } else if current.len() > 1 {
                let i = wrng.gen_range(0..current.len());
                let s = current[i];
                match db.remove(&s) {
                    Ok(_) => {
                        current.swap_remove(i);
                    }
                    Err(e) => {
                        fault(e, &mut outcome);
                        break 'work;
                    }
                }
            }
        }
        for q in query_battery(&current, 3, cfg.seed ^ QUERY_SALT ^ (round + 1)) {
            match db.query_canonical_mode(&q, QueryMode::Collect) {
                Ok((answer, _)) => {
                    verify(
                        &answer,
                        &current,
                        &q,
                        "torture: live query diverged from oracle",
                    )?;
                    outcome.live_queries_verified += 1;
                }
                Err(e) => {
                    fault(e, &mut outcome);
                    break 'work;
                }
            }
        }
        if wrng.gen_bool(0.5) {
            match db.save() {
                Ok(()) => {
                    durable_oracle = current.clone();
                    outcome.saves += 1;
                }
                Err(e) => {
                    fault(e, &mut outcome);
                    break 'work;
                }
            }
        }
    }
    drop(db);

    // Post-crash restart: reopen whatever the last successful sync left.
    let durable = handle.recover()?;
    let rdb = SegmentDatabase::open_device(durable, cfg.cache_pages, 1)?;
    for q in query_battery(&durable_oracle, 20, cfg.seed ^ QUERY_SALT) {
        let (answer, _) = rdb.query_canonical_mode(&q, QueryMode::Collect)?;
        verify(
            &answer,
            &durable_oracle,
            &q,
            "torture: recovered query diverged from oracle",
        )?;
        outcome.recovery_queries_verified += 1;
    }
    rdb.validate()?;

    outcome.fault_trace = handle.trace();
    outcome.recovered_len = rdb.len();
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_scenario_recovers_and_replays() {
        let cfg = TortureConfig::new(IndexKind::TwoLevelBinary, 1);
        let a = run_scenario(&cfg).unwrap();
        let b = run_scenario(&cfg).unwrap();
        assert_eq!(a, b, "same config must replay the identical outcome");
        assert!(a.recovery_queries_verified >= 20);
        assert_eq!(trace_digest(&a.fault_trace), trace_digest(&b.fault_trace));
    }
}
