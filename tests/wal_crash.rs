//! WAL crash-torture: 50 seeded power cuts against the write path.
//!
//! Each scenario puts the WAL on a [`FaultDevice`] armed with a seeded
//! power cut, drives a seeded insert/delete workload until the cut
//! fires, then recovers the **durable** WAL image into a fresh engine
//! over a freshly rebuilt base database. `group_window = 1` makes every
//! acknowledged write durable before its ack, so the recovery oracle is
//! exact: replay must surface precisely the acknowledged operations,
//! and the recovered database must answer bit-identically to the
//! in-memory shadow model (`base − acked deletes + acked inserts`).
//! `delta_limit` is set far above the op budget so no fold runs — the
//! fold/checkpoint crash matrix is covered by the writer's unit tests,
//! and an unfolded tail exercises replay hardest.

use segdb::core::{IndexKind, QueryMode, SegmentDatabase, WriteEngine, WriterConfig};
use segdb::geom::query::scan_oracle;
use segdb::geom::{Segment, VerticalQuery};
use segdb::pager::{FaultDevice, FaultPlan};
use segdb_rng::SmallRng;
use std::collections::BTreeMap;

const SEEDS: u64 = 50;
const BASE_N: u64 = 20;
const OP_BUDGET: u64 = 60;

/// A horizontal segment spanning x ∈ [0, 1000] at height `y`.
fn hseg(id: u64, y: i64) -> Segment {
    Segment::new(id, (0, y), (1000, y)).unwrap()
}

fn base_set() -> Vec<Segment> {
    (0..BASE_N).map(|i| hseg(i, 10 * i as i64)).collect()
}

fn build_db() -> SegmentDatabase {
    SegmentDatabase::builder()
        .page_size(512)
        .cache_pages(0)
        .index(IndexKind::TwoLevelInterval)
        .build(base_set())
        .unwrap()
}

/// Engine config: every ack durable, no folds within the op budget.
fn wcfg() -> WriterConfig {
    WriterConfig {
        group_window: 1,
        delta_limit: 10_000,
        ..WriterConfig::default()
    }
}

/// Sorted live ids according to a segment map (the shadow model).
fn shadow_ids(shadow: &BTreeMap<u64, Segment>) -> Vec<u64> {
    shadow.keys().copied().collect()
}

/// Sorted live ids according to the engine, via a line query every
/// (horizontal) segment crosses.
fn engine_ids(eng: &WriteEngine) -> Vec<u64> {
    let (ans, _) = eng.query_line_mode((500, 0), QueryMode::Collect).unwrap();
    let mut ids: Vec<u64> = ans.segments().unwrap().iter().map(|s| s.id).collect();
    ids.sort_unstable();
    ids
}

/// One scenario; returns (crashed, acked ops, replayed records).
fn scenario(seed: u64) -> (bool, u64, u64) {
    let (wal_dev, handle) = FaultDevice::over_memory(512, FaultPlan::none(seed));
    let (eng, report) = WriteEngine::recover(build_db(), Box::new(wal_dev), wcfg()).unwrap();
    assert_eq!(report.replayed, 0);

    // Arm the cut only after the WAL meta exists, at a seed-dependent
    // device-op index. One logical write is several device ops (page
    // write, forward-link rewrite, sync), so the spread runs past the
    // workload's total device-op count — late seeds never crash, which
    // keeps the no-crash recovery path in the matrix too.
    handle.arm(FaultPlan::crash_at(seed, 4 + seed * 6));

    let mut rng = SmallRng::seed_from_u64(seed ^ 0xD1CE_CAFE);
    let mut shadow: BTreeMap<u64, Segment> = base_set().into_iter().map(|s| (s.id, s)).collect();
    let mut deletable: Vec<u64> = (0..BASE_N).collect();
    let mut acked = 0u64;
    let mut crashed = false;
    for k in 0..OP_BUDGET {
        let req_id = 1 + k;
        let delete = rng.gen_range(0..2) == 0 && !deletable.is_empty();
        let outcome = if delete {
            let victim = deletable[rng.gen_range(0..deletable.len() as u64) as usize];
            let seg = shadow[&victim];
            match eng.delete(req_id, seg) {
                Ok(ack) => {
                    assert!(ack.applied, "seed {seed}: shadow said {victim} is live");
                    deletable.retain(|&v| v != victim);
                    shadow.remove(&victim);
                    Ok(())
                }
                Err(e) => Err(e),
            }
        } else {
            // Between the base heights (multiples of 10), so no insert
            // repeats a base segment under a new id: the stored set stays
            // NCT, which `validate()` checks.
            let seg = hseg(1000 + k, 5 + 10 * k as i64);
            match eng.insert(req_id, seg) {
                Ok(ack) => {
                    assert!(ack.applied);
                    shadow.insert(seg.id, seg);
                    Ok(())
                }
                Err(e) => Err(e),
            }
        };
        match outcome {
            Ok(()) => acked += 1,
            Err(_) => {
                // The cut fired mid-op: nothing after this can ack.
                crashed = true;
                break;
            }
        }
    }
    assert_eq!(crashed, handle.crashed(), "seed {seed}");

    // The live engine (and its in-memory WAL image) dies here; recover
    // the durable image — what a real disk holds after the power cut.
    drop(eng);
    let durable = handle.recover().unwrap();
    let (eng2, report) = WriteEngine::recover(build_db(), durable, wcfg()).unwrap();
    assert_eq!(
        report.replayed, acked,
        "seed {seed}: every acked op is durable, every durable record was acked"
    );
    assert_eq!(report.applied, acked, "seed {seed}");

    // Bit-identical to the shadow model, two ways: the merged line
    // query and the raw scan oracle over the shadow set.
    let want = shadow_ids(&shadow);
    assert_eq!(engine_ids(&eng2), want, "seed {seed}");
    let shadow_set: Vec<Segment> = shadow.values().copied().collect();
    let mut oracle: Vec<u64> = scan_oracle(&shadow_set, &VerticalQuery::Line { x: 500 })
        .iter()
        .map(|s| s.id)
        .collect();
    oracle.sort_unstable();
    assert_eq!(oracle, want, "seed {seed}: oracle cross-check");
    eng2.with_db(|db| db.validate().unwrap());

    // Post-recovery the engine keeps working: one more durable insert.
    let ack = eng2.insert(500_000, hseg(500_000, 1)).unwrap();
    assert!(ack.applied && !ack.duplicate);
    (crashed, acked, report.replayed)
}

#[test]
fn fifty_seeded_power_cuts_recover_oracle_identical() {
    let (mut crashes, mut total_acked, mut total_replayed) = (0u64, 0u64, 0u64);
    for seed in 0..SEEDS {
        let (crashed, acked, replayed) = scenario(seed);
        crashes += crashed as u64;
        total_acked += acked;
        total_replayed += replayed;
    }
    assert!(crashes > 0, "no scenario crashed — the schedule is inert");
    assert!(
        crashes < SEEDS,
        "every scenario crashed instantly — the workload never ran"
    );
    assert!(total_acked > 0 && total_replayed == total_acked);
}

/// Deflake guard: a seed replays bit-identically — same ack count, same
/// fault trace length, same recovered id set.
#[test]
fn a_seed_replays_bit_identically() {
    for seed in [3u64, 17, 31] {
        let a = scenario(seed);
        let b = scenario(seed);
        assert_eq!(a, b, "seed {seed}");
    }
}
