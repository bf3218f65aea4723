//! Deterministic fault injection: [`FaultDevice`], a [`Device`] wrapper
//! that manufactures storage failures from a seeded schedule.
//!
//! # Crash model
//!
//! The wrapper keeps **two** inner devices:
//!
//! * `live` — the volatile state every operation applies to (what a
//!   running process sees);
//! * `durable` — the last `sync`-consistent image (what survives a power
//!   cut).
//!
//! Every mutation (allocate / free / write / set_meta) applies to `live`
//! and is appended to a redo log. A successful `sync` replays the log
//! onto `durable`, syncs it, and clears the log — so `durable` is always
//! exactly the state as of the last successful `sync`. A logged write
//! holds the same `Arc<[u8]>` image `live` holds, and the replay hands
//! that `Arc` on to `durable`, so no page is copied on its way through.
//! `sync` itself is atomic in this model (the replay cannot be
//! interrupted half-way); what *can* be interrupted is the pager's flush
//! *before* the sync, which is precisely the window the torture suite
//! exercises. This is the **sync-consistency guarantee** documented in
//! DESIGN.md §9.
//!
//! # Fault taxonomy
//!
//! Driven by a [`FaultPlan`] and a [`segdb_rng::SmallRng`] seeded from
//! `plan.seed`, the device can inject, per operation:
//!
//! * transient `read` / `write` / `sync` errors — the op fails with
//!   [`PagerError::Io`], no state changes;
//! * **torn writes** — only the first `K` bytes (seeded, `0 < K < page`)
//!   of the new image reach `live`, and the op still fails: the page now
//!   holds a front/back splice of new and old bytes, as after a
//!   partially completed sector write;
//! * a **power cut** at a scheduled operation index — the op fails and
//!   every subsequent operation fails too; the pre-cut `durable` image
//!   is the only thing "recovered" afterwards ([`FaultHandle::recover`]).
//!
//! All draws come from the plan's RNG and every counted operation
//! consumes the same number of draws, so a given `(seed, workload)` pair
//! replays the identical fault trace ([`FaultHandle::trace`]) — the
//! deflake guarantee the torture tests assert.
//!
//! Every injected fault lands in the handle's trace and in the
//! process-wide storage-fault ledger [`FAULTS`]; the per-device
//! [`FaultStats`] are the trace counted by kind.
//!
//! The device starts **disarmed**: a harness builds its database
//! fault-free, then calls [`FaultHandle::arm`] to start the schedule
//! (resetting the op counter and RNG). Injection applies to `read`,
//! `write` and `sync`; `allocate`, `free` and `set_meta` are counted
//! (the power cut can land on them) but never fail transiently —
//! allocation is pure bookkeeping in both in-repo devices.

use crate::device::{Device, Disk};
use crate::error::{PagerError, Result};
use crate::PageId;
use segdb_obs::Json;
use segdb_rng::SmallRng;
use std::sync::{Arc, Mutex, MutexGuard};

segdb_obs::tally! {
    /// The storage-fault ledger's keys, in the order the `faults` block
    /// of a server's `stats` reply and of `segdb-cli torture` lists them.
    pub enum Fault: FaultTally {
        /// Transient read errors manufactured by a fault device.
        ReadError = "injected_read_errors",
        /// Transient write errors manufactured by a fault device.
        WriteError = "injected_write_errors",
        /// Transient sync errors manufactured by a fault device.
        SyncError = "injected_sync_errors",
        /// Torn (partially applied) writes manufactured by a fault device.
        TornWrite = "injected_torn_writes",
        /// Simulated power cuts.
        PowerCut = "injected_power_cuts",
        /// I/O errors that reached a public pager verb and were
        /// propagated (not panicked on) to the caller.
        ObservedIoError = "observed_io_errors",
    }
}

/// The process-wide storage-fault ledger. Injected faults are counted
/// by every [`FaultDevice`], observed ones by the pager's public verbs,
/// so a healthy stack shows `observed_io_errors` tracking the injected
/// total instead of dying on the first fault. The counts accumulate
/// across devices and tests; tests assert monotone deltas.
pub static FAULTS: FaultTally = FaultTally::new();

impl Fault {
    /// The keys of injected faults (every key but the observed one).
    pub const INJECTED: [Fault; 5] = [
        Fault::ReadError,
        Fault::WriteError,
        Fault::SyncError,
        Fault::TornWrite,
        Fault::PowerCut,
    ];
}

/// [`FAULTS`] as the `faults` reply block: the counters in declared
/// order, with the injected sum `injected_total` before
/// `observed_io_errors`.
pub fn faults_json() -> Json {
    let mut fields = FAULTS.fields();
    let total = FAULTS.sum(&Fault::INJECTED);
    fields.insert(Fault::INJECTED.len(), ("injected_total", Json::U64(total)));
    Json::obj(fields)
}

/// The seeded fault schedule of one [`FaultDevice`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed of the device's private RNG (armed via [`FaultHandle::arm`]).
    pub seed: u64,
    /// Probability of a transient error per `read`.
    pub read_error: f64,
    /// Probability of a transient error per `write`.
    pub write_error: f64,
    /// Probability of a transient error per `sync`.
    pub sync_error: f64,
    /// Probability of a torn (partial) write per `write`, drawn after
    /// `write_error`.
    pub torn_write: f64,
    /// Simulated power cut at this counted-operation index (0-based from
    /// arming); `None` never cuts.
    pub power_cut_at: Option<u64>,
}

impl FaultPlan {
    /// A plan that injects nothing (the disarmed baseline).
    pub fn none(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            read_error: 0.0,
            write_error: 0.0,
            sync_error: 0.0,
            torn_write: 0.0,
            power_cut_at: None,
        }
    }

    /// A plan whose only fault is a power cut at operation `op`.
    pub fn crash_at(seed: u64, op: u64) -> FaultPlan {
        FaultPlan {
            power_cut_at: Some(op),
            ..FaultPlan::none(seed)
        }
    }
}

/// What kind of fault was injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Transient read error.
    ReadError,
    /// Transient write error (nothing written).
    WriteError,
    /// Transient sync error (redo log kept).
    SyncError,
    /// Torn write: only the first `kept` bytes of the new image landed.
    TornWrite {
        /// Bytes of the new image that reached the live store.
        kept: u32,
    },
    /// Simulated power cut; the device is offline from here on.
    PowerCut,
}

impl FaultKind {
    /// The ledger key this kind is counted under.
    pub fn key(self) -> Fault {
        match self {
            FaultKind::ReadError => Fault::ReadError,
            FaultKind::WriteError => Fault::WriteError,
            FaultKind::SyncError => Fault::SyncError,
            FaultKind::TornWrite { .. } => Fault::TornWrite,
            FaultKind::PowerCut => Fault::PowerCut,
        }
    }
}

/// One injected fault, for trace comparison across replays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Counted-operation index (0-based from arming) the fault hit.
    pub op: u64,
    /// What was injected.
    pub kind: FaultKind,
}

/// Per-device injection counts: the device's trace counted by kind
/// (deterministic, unlike [`FAULTS`], which accumulates across devices).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultStats {
    /// Transient read errors injected.
    pub read_errors: u64,
    /// Transient write errors injected.
    pub write_errors: u64,
    /// Transient sync errors injected.
    pub sync_errors: u64,
    /// Torn writes injected.
    pub torn_writes: u64,
    /// Power cuts fired (0 or 1).
    pub power_cuts: u64,
}

impl FaultStats {
    /// Count `trace` by kind.
    pub fn of(trace: &[FaultEvent]) -> FaultStats {
        let n = |key| trace.iter().filter(|e| e.kind.key() == key).count() as u64;
        FaultStats {
            read_errors: n(Fault::ReadError),
            write_errors: n(Fault::WriteError),
            sync_errors: n(Fault::SyncError),
            torn_writes: n(Fault::TornWrite),
            power_cuts: n(Fault::PowerCut),
        }
    }

    /// Every injected fault, summed.
    pub fn total(&self) -> u64 {
        self.read_errors + self.write_errors + self.sync_errors + self.torn_writes + self.power_cuts
    }
}

/// One logged mutation, replayed onto `durable` at sync.
enum RedoOp {
    /// `allocate()` returned this id; replay must agree.
    Allocate(PageId),
    Free(PageId),
    /// The image `live` now holds, shared with it; `sync` hands the same
    /// `Arc` on to `durable`.
    Write(PageId, Arc<[u8]>),
    SetMeta(Box<[u8]>),
}

struct FaultCore {
    live: Box<dyn Device>,
    durable: Option<Box<dyn Device>>,
    redo: Vec<RedoOp>,
    plan: FaultPlan,
    rng: SmallRng,
    armed: bool,
    crashed: bool,
    ops: u64,
    trace: Vec<FaultEvent>,
}

impl FaultCore {
    /// Count one fallible operation; fire the scheduled power cut when
    /// its index comes up, and refuse everything after a cut (or after
    /// the durable store was taken by recovery).
    fn begin_op(&mut self) -> Result<u64> {
        if self.crashed {
            return Err(PagerError::Io("simulated power cut: device offline".into()));
        }
        let op = self.ops;
        self.ops += 1;
        if self.armed && self.plan.power_cut_at.is_some_and(|cut| op >= cut) {
            self.crashed = true;
            self.record(op, FaultKind::PowerCut);
            return Err(PagerError::Io("simulated power cut: device offline".into()));
        }
        Ok(op)
    }

    /// Draw one fault coin. Always consumes exactly one RNG draw when
    /// armed so the stream stays aligned across replays.
    fn draw(&mut self, p: f64) -> bool {
        self.armed && self.rng.gen_bool(p)
    }

    fn record(&mut self, op: u64, kind: FaultKind) {
        self.trace.push(FaultEvent { op, kind });
        FAULTS.bump(kind.key());
    }

    fn replay_redo(&mut self) -> Result<()> {
        let durable = self
            .durable
            .as_mut()
            .ok_or_else(|| PagerError::Io("durable store already recovered".into()))?;
        for op in self.redo.drain(..) {
            match op {
                RedoOp::Allocate(expect) => {
                    let got = durable.allocate()?;
                    if got != expect {
                        return Err(PagerError::Corrupt(
                            "fault device: durable replay allocated a diverging page id",
                        ));
                    }
                }
                RedoOp::Free(id) => durable.free(id)?,
                RedoOp::Write(id, img) => durable.write(id, img)?,
                RedoOp::SetMeta(meta) => durable.set_meta(&meta)?,
            }
        }
        durable.sync()
    }
}

/// A [`Device`] wrapper injecting seeded faults. See module docs.
///
/// Constructed together with its controlling [`FaultHandle`]; the device
/// is boxed into a pager while the handle stays with the test harness.
pub struct FaultDevice {
    core: Arc<Mutex<FaultCore>>,
    page_size: usize,
}

impl std::fmt::Debug for FaultDevice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultDevice")
            .field("page_size", &self.page_size)
            .finish()
    }
}

/// The harness-side controller of a [`FaultDevice`]: arms the schedule,
/// reads the trace, and extracts the durable image after a crash.
#[derive(Clone)]
pub struct FaultHandle {
    core: Arc<Mutex<FaultCore>>,
}

impl std::fmt::Debug for FaultHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultHandle").finish()
    }
}

fn lock(core: &Arc<Mutex<FaultCore>>) -> MutexGuard<'_, FaultCore> {
    core.lock().unwrap_or_else(|p| p.into_inner())
}

impl FaultDevice {
    /// A fault device over two fresh in-memory [`Disk`]s — the torture
    /// harness configuration. Starts **disarmed**.
    pub fn over_memory(page_size: usize, plan: FaultPlan) -> (FaultDevice, FaultHandle) {
        Self::wrap(
            Box::new(Disk::new(page_size)),
            Box::new(Disk::new(page_size)),
            plan,
        )
    }

    /// Wrap explicit `live` and `durable` stores (which must agree on
    /// page size and start in identical states). Starts **disarmed**.
    ///
    /// # Panics
    /// Panics if the two stores disagree on page size.
    pub fn wrap(
        live: Box<dyn Device>,
        durable: Box<dyn Device>,
        plan: FaultPlan,
    ) -> (FaultDevice, FaultHandle) {
        assert_eq!(
            live.page_size(),
            durable.page_size(),
            "live and durable stores must share a page size"
        );
        let page_size = live.page_size();
        let core = Arc::new(Mutex::new(FaultCore {
            live,
            durable: Some(durable),
            redo: Vec::new(),
            rng: SmallRng::seed_from_u64(plan.seed),
            plan,
            armed: false,
            crashed: false,
            ops: 0,
            trace: Vec::new(),
        }));
        (
            FaultDevice {
                core: Arc::clone(&core),
                page_size,
            },
            FaultHandle { core },
        )
    }
}

impl FaultHandle {
    /// Install `plan` and start injecting: reseeds the RNG from
    /// `plan.seed` and resets the operation counter (the power-cut index
    /// counts from here). The trace and stats keep accumulating.
    pub fn arm(&self, plan: FaultPlan) {
        let mut c = lock(&self.core);
        c.rng = SmallRng::seed_from_u64(plan.seed);
        c.plan = plan;
        c.ops = 0;
        c.armed = true;
    }

    /// Stop injecting (the device keeps working fault-free).
    pub fn disarm(&self) {
        lock(&self.core).armed = false;
    }

    /// Has the simulated power cut fired?
    pub fn crashed(&self) -> bool {
        lock(&self.core).crashed
    }

    /// Counted operations since the last [`FaultHandle::arm`].
    pub fn ops(&self) -> u64 {
        lock(&self.core).ops
    }

    /// Mutations applied to `live` but not yet replayed onto `durable`
    /// (i.e. lost if the power were cut right now).
    pub fn unsynced_ops(&self) -> usize {
        lock(&self.core).redo.len()
    }

    /// Per-device injection counts: the trace counted by kind.
    pub fn stats(&self) -> FaultStats {
        FaultStats::of(&lock(&self.core).trace)
    }

    /// Every injected fault so far, in order.
    pub fn trace(&self) -> Vec<FaultEvent> {
        lock(&self.core).trace.clone()
    }

    /// Take the durable store — the last `sync`-consistent image — out
    /// of the device, simulating a post-crash restart that reopens
    /// whatever survived. The fault device goes permanently offline
    /// (every further operation fails), so a pager still holding it
    /// cannot diverge from the recovered copy. Errors if recovery
    /// already happened.
    pub fn recover(&self) -> Result<Box<dyn Device>> {
        let mut c = lock(&self.core);
        c.crashed = true;
        c.durable
            .take()
            .ok_or_else(|| PagerError::Io("durable store already recovered".into()))
    }
}

impl Device for FaultDevice {
    fn page_size(&self) -> usize {
        self.page_size
    }

    fn live_pages(&self) -> usize {
        lock(&self.core).live.live_pages()
    }

    fn capacity_pages(&self) -> usize {
        lock(&self.core).live.capacity_pages()
    }

    fn allocate(&mut self) -> Result<PageId> {
        let mut c = lock(&self.core);
        c.begin_op()?;
        let id = c.live.allocate()?;
        c.redo.push(RedoOp::Allocate(id));
        Ok(id)
    }

    fn free(&mut self, id: PageId) -> Result<()> {
        let mut c = lock(&self.core);
        c.begin_op()?;
        c.live.free(id)?;
        c.redo.push(RedoOp::Free(id));
        Ok(())
    }

    fn read(&self, id: PageId) -> Result<Arc<[u8]>> {
        let mut c = lock(&self.core);
        let op = c.begin_op()?;
        let p_read = c.plan.read_error;
        if c.draw(p_read) {
            c.record(op, FaultKind::ReadError);
            return Err(PagerError::Io(format!(
                "injected transient read error (op {op}, page {id})"
            )));
        }
        c.live.read(id)
    }

    fn write(&mut self, id: PageId, img: Arc<[u8]>) -> Result<()> {
        let mut c = lock(&self.core);
        let op = c.begin_op()?;
        let p_write = c.plan.write_error;
        if c.draw(p_write) {
            c.record(op, FaultKind::WriteError);
            return Err(PagerError::Io(format!(
                "injected transient write error (op {op}, page {id})"
            )));
        }
        let p_torn = c.plan.torn_write;
        if c.draw(p_torn) && img.len() > 1 {
            // Splice: the first `kept` new bytes land, the tail keeps the
            // page's previous content — then the write "fails". The torn
            // image is a new `Arc` made from the live one (which stays
            // unchanged for whoever holds it), logged so a later
            // successful sync carries exactly what the live store holds.
            let kept = c.rng.gen_range(1..img.len());
            let mut torn = c.live.read(id)?;
            Arc::make_mut(&mut torn)[..kept].copy_from_slice(&img[..kept]);
            c.live.write(id, Arc::clone(&torn))?;
            c.redo.push(RedoOp::Write(id, torn));
            c.record(op, FaultKind::TornWrite { kept: kept as u32 });
            return Err(PagerError::Io(format!(
                "injected torn write: {kept} of {} bytes applied (op {op}, page {id})",
                img.len()
            )));
        }
        c.live.write(id, Arc::clone(&img))?;
        c.redo.push(RedoOp::Write(id, img));
        Ok(())
    }

    fn check(&self, id: PageId) -> Result<()> {
        lock(&self.core).live.check(id)
    }

    fn sync(&mut self) -> Result<()> {
        let mut c = lock(&self.core);
        let op = c.begin_op()?;
        let p_sync = c.plan.sync_error;
        if c.draw(p_sync) {
            c.record(op, FaultKind::SyncError);
            return Err(PagerError::Io(format!(
                "injected transient sync error (op {op})"
            )));
        }
        c.live.sync()?;
        c.replay_redo()
    }

    fn set_meta(&mut self, meta: &[u8]) -> Result<()> {
        let mut c = lock(&self.core);
        c.begin_op()?;
        c.live.set_meta(meta)?;
        c.redo
            .push(RedoOp::SetMeta(meta.to_vec().into_boxed_slice()));
        Ok(())
    }

    fn get_meta(&self) -> Result<Vec<u8>> {
        lock(&self.core).live.get_meta()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_page(d: &mut FaultDevice, fill: u8) -> PageId {
        let id = d.allocate().unwrap();
        d.write(id, vec![fill; d.page_size()].into()).unwrap();
        id
    }

    #[test]
    fn disarmed_device_is_transparent() {
        let (mut d, h) = FaultDevice::over_memory(16, FaultPlan::crash_at(1, 0));
        let id = write_page(&mut d, 7);
        d.sync().unwrap();
        assert_eq!(d.read(id).unwrap()[0], 7);
        assert_eq!(h.stats().total(), 0, "nothing injected while disarmed");
        assert!(h.trace().is_empty());
    }

    #[test]
    fn power_cut_freezes_the_last_synced_image() {
        let (mut d, h) = FaultDevice::over_memory(8, FaultPlan::none(3));
        let id = write_page(&mut d, 1);
        d.sync().unwrap();
        // Post-sync mutation that will be lost.
        d.write(id, Arc::from([2u8; 8])).unwrap();
        assert_eq!(h.unsynced_ops(), 1);
        h.arm(FaultPlan::crash_at(3, 0));
        let err = d.write(id, Arc::from([3u8; 8])).unwrap_err();
        assert!(matches!(err, PagerError::Io(_)));
        assert!(h.crashed());
        // Everything after the cut fails.
        assert!(d.read(id).is_err());
        assert!(d.sync().is_err());
        // Recovery sees the synced image, not the post-sync write.
        let recovered = h.recover().unwrap();
        assert_eq!(
            *recovered.read(id).unwrap(),
            [1u8; 8],
            "durable froze at the last sync"
        );
        assert_eq!(h.stats().power_cuts, 1);
        assert!(h.recover().is_err(), "second recovery refused");
    }

    #[test]
    fn torn_write_splices_new_front_and_old_tail() {
        let (mut d, h) = FaultDevice::over_memory(8, FaultPlan::none(5));
        let id = write_page(&mut d, 0xAA);
        d.sync().unwrap();
        h.arm(FaultPlan {
            torn_write: 1.0,
            ..FaultPlan::none(5)
        });
        let err = d.write(id, Arc::from([0xBB; 8])).unwrap_err();
        assert!(matches!(err, PagerError::Io(_)));
        let tr = h.trace();
        assert_eq!(tr.len(), 1);
        let FaultKind::TornWrite { kept } = tr[0].kind else {
            panic!("expected a torn write, got {:?}", tr[0].kind);
        };
        assert!(kept >= 1 && (kept as usize) < 8);
        h.disarm();
        let buf = d.read(id).unwrap();
        for (i, b) in buf.iter().enumerate() {
            let want = if i < kept as usize { 0xBB } else { 0xAA };
            assert_eq!(*b, want, "byte {i}");
        }
        // A sync after the tear carries the torn image to durable —
        // the live and recovered stores never diverge.
        d.sync().unwrap();
        let recovered = h.recover().unwrap();
        assert_eq!(recovered.read(id).unwrap(), buf);
    }

    #[test]
    fn live_durable_and_a_torn_write_share_or_keep_images() {
        let (mut d, h) = FaultDevice::over_memory(8, FaultPlan::none(5));
        let id = write_page(&mut d, 0xAA);
        let held = d.read(id).unwrap();
        d.sync().unwrap();
        h.arm(FaultPlan {
            torn_write: 1.0,
            ..FaultPlan::none(5)
        });
        assert!(d.write(id, Arc::from([0xBB; 8])).is_err());
        h.disarm();
        assert_eq!(*held, [0xAA; 8], "a torn write builds a new image");
        let torn = d.read(id).unwrap();
        d.sync().unwrap();
        let recovered = h.recover().unwrap();
        assert!(
            Arc::ptr_eq(&recovered.read(id).unwrap(), &torn),
            "sync hands the live image itself to durable"
        );
    }

    #[test]
    fn transient_errors_leave_state_intact_and_are_retryable() {
        let (mut d, h) = FaultDevice::over_memory(8, FaultPlan::none(9));
        let id = write_page(&mut d, 4);
        d.sync().unwrap();
        h.arm(FaultPlan {
            write_error: 1.0,
            ..FaultPlan::none(9)
        });
        assert!(d.write(id, Arc::from([5u8; 8])).is_err());
        h.disarm();
        assert_eq!(
            *d.read(id).unwrap(),
            [4u8; 8],
            "failed write changed nothing"
        );
        d.write(id, Arc::from([5u8; 8])).unwrap();
        assert_eq!(
            *d.read(id).unwrap(),
            [5u8; 8],
            "retry succeeds after disarm"
        );
        assert_eq!(h.stats().write_errors, 1);
    }

    #[test]
    fn failed_sync_keeps_the_redo_log_for_retry() {
        let (mut d, h) = FaultDevice::over_memory(8, FaultPlan::none(11));
        let id = write_page(&mut d, 1);
        h.arm(FaultPlan {
            sync_error: 1.0,
            ..FaultPlan::none(11)
        });
        assert!(d.sync().is_err());
        assert!(h.unsynced_ops() > 0, "redo survives the failed sync");
        h.disarm();
        d.sync().unwrap();
        assert_eq!(h.unsynced_ops(), 0);
        let recovered = h.recover().unwrap();
        assert_eq!(*recovered.read(id).unwrap(), [1u8; 8]);
    }

    #[test]
    fn same_seed_same_workload_replays_the_identical_trace() {
        let run = || {
            let (mut d, h) = FaultDevice::over_memory(8, FaultPlan::none(0));
            let ids: Vec<PageId> = (0..4).map(|i| write_page(&mut d, i)).collect();
            d.sync().unwrap();
            h.arm(FaultPlan {
                read_error: 0.3,
                write_error: 0.2,
                torn_write: 0.2,
                power_cut_at: Some(40),
                ..FaultPlan::none(77)
            });
            for round in 0..30u8 {
                let id = ids[round as usize % ids.len()];
                let _ = d.read(id);
                let _ = d.write(id, Arc::from([round; 8]));
            }
            (h.trace(), h.stats())
        };
        let (t1, s1) = run();
        let (t2, s2) = run();
        assert_eq!(t1, t2, "fault traces must replay bit-identically");
        assert_eq!(s1, s2);
        assert!(s1.total() > 0, "the schedule actually injected faults");
    }

    #[test]
    fn durable_replay_recycles_page_ids_like_live() {
        let (mut d, h) = FaultDevice::over_memory(8, FaultPlan::none(13));
        let a = d.allocate().unwrap();
        let b = d.allocate().unwrap();
        d.write(a, Arc::from([1u8; 8])).unwrap();
        d.write(b, Arc::from([2u8; 8])).unwrap();
        d.free(a).unwrap();
        let c = d.allocate().unwrap();
        assert_eq!(c, a, "live recycles the freed id");
        d.write(c, Arc::from([3u8; 8])).unwrap();
        d.sync().unwrap();
        let recovered = h.recover().unwrap();
        assert_eq!(*recovered.read(c).unwrap(), [3u8; 8]);
        assert_eq!(*recovered.read(b).unwrap(), [2u8; 8]);
        assert_eq!(recovered.live_pages(), 2);
    }

    #[test]
    fn meta_reaches_durable_only_after_sync() {
        let (mut d, h) = FaultDevice::over_memory(8, FaultPlan::none(17));
        d.set_meta(b"superblock-v1").unwrap();
        d.sync().unwrap();
        d.set_meta(b"superblock-v2").unwrap();
        assert_eq!(d.get_meta().unwrap(), b"superblock-v2", "live sees v2");
        let recovered = h.recover().unwrap();
        assert_eq!(
            recovered.get_meta().unwrap(),
            b"superblock-v1",
            "durable still holds the synced superblock"
        );
    }
}
