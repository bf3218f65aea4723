//! Crash-recovery torture: ≥50 seeded fault scenarios per index kind.
//!
//! Each scenario (see `segdb::core::torture`) builds a database on a
//! deterministic fault-injecting device, runs a seeded workload under an
//! armed fault plan (power cuts, transient errors, torn writes), then
//! recovers the last-sync-consistent image and verifies a 20-query
//! battery covering all four query shapes **bit-identically** against an
//! in-memory oracle — `run_scenario` returns `Err` on any divergence,
//! so these tests assert `Ok` plus aggregate invariants.

use segdb::core::torture::{run_scenario, trace_digest, TortureConfig};
use segdb::core::IndexKind;
use segdb::geom::gen::mixed_map;
use segdb::pager::{FaultDevice, FaultPlan};

const SEEDS: u64 = 50;

/// Sweep `SEEDS` scenarios of one kind; return (crashed, fault events).
fn sweep(kind: IndexKind) -> (u64, u64) {
    let (mut crashed, mut events) = (0u64, 0u64);
    for seed in 0..SEEDS {
        let out = run_scenario(&TortureConfig::new(kind, seed))
            .unwrap_or_else(|e| panic!("{kind:?} seed {seed}: {e}"));
        assert!(
            out.recovery_queries_verified >= 20,
            "{kind:?} seed {seed}: only {} recovery queries verified",
            out.recovery_queries_verified
        );
        crashed += out.crashed as u64;
        events += out.fault_trace.len() as u64;
    }
    (crashed, events)
}

#[test]
fn torture_two_level_binary() {
    let (crashed, events) = sweep(IndexKind::TwoLevelBinary);
    assert!(crashed > 0, "no scenario crashed — the schedule is inert");
    assert!(events > 0, "no fault was ever injected");
}

#[test]
fn torture_two_level_interval() {
    let (crashed, events) = sweep(IndexKind::TwoLevelInterval);
    assert!(crashed > 0, "no scenario crashed — the schedule is inert");
    assert!(events > 0, "no fault was ever injected");
}

/// The deflake guard: one seed, run twice, must replay the identical
/// fault trace and outcome.
#[test]
fn replaying_a_seed_reproduces_the_identical_fault_trace() {
    for kind in [IndexKind::TwoLevelBinary, IndexKind::TwoLevelInterval] {
        for seed in [2u64, 5, 11] {
            let cfg = TortureConfig::new(kind, seed);
            let a = run_scenario(&cfg).unwrap();
            let b = run_scenario(&cfg).unwrap();
            assert_eq!(a.fault_trace, b.fault_trace, "{kind:?} seed {seed}");
            assert_eq!(
                trace_digest(&a.fault_trace),
                trace_digest(&b.fault_trace),
                "{kind:?} seed {seed}"
            );
            assert_eq!(a, b, "{kind:?} seed {seed}: outcome must replay");
        }
    }
}

/// A power cut during the **build** must surface as a structured error
/// (never a panic), and reopening the never-saved durable image must
/// fail cleanly too.
#[test]
fn crash_during_build_errors_cleanly() {
    let (device, handle) = FaultDevice::over_memory(512, FaultPlan::none(23));
    handle.arm(FaultPlan::crash_at(23, 10));
    let err = segdb::core::SegmentDatabase::builder()
        .cache_pages(4)
        .index(IndexKind::TwoLevelBinary)
        .on_device(Box::new(device))
        .build(mixed_map(100, 23))
        .unwrap_err();
    assert!(
        err.to_string().contains("power cut"),
        "build surfaces the cut: {err}"
    );
    // The durable store was never synced with a superblock; recovery
    // must refuse with an error, not panic.
    let durable = handle.recover().unwrap();
    assert!(segdb::core::SegmentDatabase::open_device(durable, 4, 1).is_err());
}

/// The process-global observability counters move with injections.
/// They are cross-test global, so only monotone *deltas* are asserted.
#[test]
fn fault_counters_surface_in_obs_metrics() {
    let before = segdb::obs::faults::totals().snapshot();
    let mut events = 0u64;
    for seed in 100..110u64 {
        let out = run_scenario(&TortureConfig::new(IndexKind::TwoLevelBinary, seed)).unwrap();
        events += out.fault_trace.len() as u64;
    }
    assert!(events > 0, "ten seeds injected nothing");
    let after = segdb::obs::faults::totals().snapshot();
    assert!(
        after.injected_total() >= before.injected_total() + events,
        "global injected counters track per-device traces"
    );
    assert!(
        after.observed_io_errors > before.observed_io_errors,
        "the pager observed at least one injected fault"
    );
}
