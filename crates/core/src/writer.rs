//! The online write path: single-writer / snapshot-reader semantics
//! over a [`SegmentDatabase`].
//!
//! # Architecture
//!
//! The engine layers four pieces over the paper's structures:
//!
//! * **WAL** ([`segdb_wal::Wal`]) — every accepted insert/delete is
//!   appended (group-committed) before it is acknowledged, carrying the
//!   client request id as the idempotence key.
//! * **Delta overlay** — accepted ops land in a bounded memtable-style
//!   [`DeltaSnap`] (copy-on-write behind an `Arc`) that every query
//!   reads through. Its deletes are hidden *inside* the index walk, by
//!   the mechanism that hides an index's own lazy deletes
//!   ([`crate::batch`]): counts stay on the count-from-headers fast
//!   paths, `Exists` still stops at the first visible hit and
//!   `Limit(k)` fetches `k`. Its inserts are merged in *after* the walk
//!   (`+ |inserts ∩ q|` for counts).
//! * **Membership probe** — a delete is logged only if its exact
//!   segment is visible, and a replayed insert only if it is not. Both
//!   ask `batch::holds`: the point query at the segment's left
//!   endpoint through the walk every read takes, with the delta's
//!   deletes hidden — `O(log_B n)`-shaped like the insert's descent, not
//!   a query of the line through the segment. The fold's
//!   [`SegmentDatabase::remove`] asks the same way.
//! * **Fold** — when the delta reaches `delta_limit`, the writer takes
//!   the database write lock and replays the pending ops through the
//!   native [`SegmentDatabase::insert`]/[`SegmentDatabase::remove`]
//!   machinery (the paper's amortized partial rebuilds, Lemma 3 /
//!   BB\[α\]), checkpoints `wal_seq` via [`SegmentDatabase::save`], and
//!   truncates the WAL. Readers never observe a half-applied fold: they
//!   hold the read lock for the whole base-walk *and* delta snapshot.
//!
//! # Crash contract
//!
//! Recovery ([`WriteEngine::recover`]) replays WAL records with
//! `seq > superblock.wal_seq` against the re-opened database, then
//! checkpoints. The device model is sync-atomic (the durable image
//! advances only at `sync`, as [`segdb_pager::FaultDevice`] enforces),
//! so every crash lands in one of three states: before the fold's save
//! (WAL replays onto the old image), after save but before WAL
//! truncation (replay skips everything via the checkpoint), or after
//! truncation (nothing to do). A group-commit window may lose its
//! unsynced tail — exactly the ops never acknowledged.

use crate::batch::{holds, Hidden};
use crate::facade::{DbError, SegmentDatabase};
use crate::report::{Query, QueryAnswer, QueryMode, QueryTrace};
use segdb_geom::transform::Direction;
use segdb_geom::{Point, Segment, VerticalQuery};
use segdb_pager::Device;
use segdb_wal::{Wal, WalOp, WalRecord, WalStats};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};

/// Tuning for the write engine.
#[derive(Debug, Clone, Copy)]
pub struct WriterConfig {
    /// WAL group-commit window (records per sync; 1 = sync every op).
    pub group_window: usize,
    /// Fold the delta into the index once it holds this many ops.
    pub delta_limit: usize,
    /// Request ids remembered for idempotent retry detection.
    pub recent_ids: usize,
    /// Applied WAL records retained in memory for replica catch-up
    /// ([`WriteEngine::records_since`]). The WAL itself is truncated at
    /// every fold, so this ring is the only replay source a lagging
    /// peer can pull from.
    pub sync_history: usize,
}

impl Default for WriterConfig {
    fn default() -> Self {
        WriterConfig {
            group_window: 8,
            delta_limit: 1024,
            recent_ids: 4096,
            sync_history: 4096,
        }
    }
}

/// Acknowledgement for one write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteAck {
    /// WAL sequence number the op was logged under (0 for a no-op
    /// delete that found nothing).
    pub seq: u64,
    /// Whether the op changed the database (a delete of an absent
    /// segment is acknowledged but `applied = false`).
    pub applied: bool,
    /// True when this request id was already processed — the stored
    /// acknowledgement is returned and nothing is re-applied.
    pub duplicate: bool,
}

/// Why a replica catch-up request could not be served from the
/// in-memory history ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HistoryError {
    /// The ring no longer reaches back to the requested cursor: the
    /// oldest retained record follows `floor`, so a peer asking for
    /// records after a smaller sequence number needs a full rebuild.
    Truncated {
        /// Sequence number the retained history starts after.
        floor: u64,
    },
}

impl std::fmt::Display for HistoryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HistoryError::Truncated { floor } => write!(
                f,
                "sync history truncated: records are retained only after seq {floor}; \
                 rebuild the replica from a fresh fragment instead"
            ),
        }
    }
}

/// What recovery found and did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Records found in the log (durable at the crash).
    pub replayed: u64,
    /// Records actually applied (`seq` above the checkpoint).
    pub applied: u64,
    /// The checkpoint the superblock carried before replay.
    pub checkpoint: u64,
    /// Highest sequence number after replay.
    pub last_seq: u64,
}

/// Immutable snapshot of the unfolded ops. Readers clone the `Arc`
/// under the database read lock and keep it for their walk; the writer
/// edits through `Arc::make_mut` under the delta mutex, which copies the
/// snapshot (at most `delta_limit` segments) only when some reader still
/// holds it and edits in place otherwise — either way no reader ever
/// sees its snapshot change.
#[derive(Debug, Default, Clone)]
pub struct DeltaSnap {
    /// Canonical-frame segments inserted since the last fold.
    inserts: Vec<Segment>,
    /// Canonical-frame segments deleted since the last fold: always
    /// segments the base index stores and shows (deletes of delta
    /// inserts cancel in place), which every read hides in its walk.
    deletes: Hidden,
}

impl DeltaSnap {
    /// Ops held (inserts + deletes).
    pub fn len(&self) -> usize {
        self.inserts.len() + self.deletes.len()
    }

    /// True when the overlay is empty (queries take the base-only path).
    pub fn is_empty(&self) -> bool {
        self.inserts.is_empty() && self.deletes.len() == 0
    }
}

/// Bounded FIFO map of recently-seen request ids → their ack.
#[derive(Debug, Default)]
struct RecentIds {
    map: HashMap<u64, WriteAck>,
    order: VecDeque<u64>,
    cap: usize,
}

impl RecentIds {
    fn new(cap: usize) -> Self {
        RecentIds {
            map: HashMap::new(),
            order: VecDeque::new(),
            cap: cap.max(1),
        }
    }

    fn get(&self, id: u64) -> Option<WriteAck> {
        self.map.get(&id).copied()
    }

    fn put(&mut self, id: u64, ack: WriteAck) {
        if self.map.insert(id, ack).is_none() {
            self.order.push_back(id);
            while self.order.len() > self.cap {
                if let Some(old) = self.order.pop_front() {
                    self.map.remove(&old);
                }
            }
        }
    }
}

/// Writer-side state serialized behind one mutex: the WAL handle, the
/// unfolded op list, the idempotence table and the catch-up ring.
struct WriterInner {
    wal: Wal,
    /// Accepted-but-unfolded records in WAL order (user frame — the
    /// fold replays through the facade, which re-applies the shear).
    pending: Vec<WalRecord>,
    recent: RecentIds,
    /// Applied records in seq order, surviving WAL truncation at fold
    /// time so lagging replicas can replay them (bounded ring).
    history: VecDeque<WalRecord>,
    /// Sequence number the retained history starts after: every record
    /// with `seq > history_floor` is still in `history`.
    history_floor: u64,
}

impl WriterInner {
    fn push_history(&mut self, cap: usize, rec: WalRecord) {
        self.history.push_back(rec);
        while self.history.len() > cap.max(1) {
            if let Some(old) = self.history.pop_front() {
                self.history_floor = old.seq;
            }
        }
    }
}

/// Monotonic counters surfaced under `stats.writer`.
#[derive(Debug, Default)]
pub struct WriterCounters {
    /// Inserts accepted (duplicates excluded).
    pub inserts: AtomicU64,
    /// Deletes accepted that found their target.
    pub deletes: AtomicU64,
    /// Deletes acknowledged without a target.
    pub delete_misses: AtomicU64,
    /// Retried request ids answered from the idempotence table.
    pub duplicates: AtomicU64,
    /// Delta folds (each one runs the amortized partial-rebuild path).
    pub rebuilds: AtomicU64,
    /// Tombstone compactions.
    pub compactions: AtomicU64,
    /// Epoch: bumped on every fold or compaction (readers of `stats`
    /// can detect index swaps).
    pub epoch: AtomicU64,
}

/// The write engine: one writer, many snapshot readers.
pub struct WriteEngine {
    db: RwLock<SegmentDatabase>,
    delta: Mutex<Arc<DeltaSnap>>,
    writer: Mutex<WriterInner>,
    direction: Direction,
    cfg: WriterConfig,
    counters: WriterCounters,
}

impl std::fmt::Debug for WriteEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WriteEngine")
            .field("cfg", &self.cfg)
            .finish_non_exhaustive()
    }
}

impl WriteEngine {
    /// Wrap a database with a fresh (already-replayed) WAL device.
    ///
    /// Replays any durable records above the database's checkpoint,
    /// folds them in, re-checkpoints, and truncates the log — after
    /// this returns, the engine serves reads and writes immediately.
    pub fn recover(
        mut db: SegmentDatabase,
        wal_dev: Box<dyn Device>,
        cfg: WriterConfig,
    ) -> Result<(Self, RecoveryReport), DbError> {
        let (mut wal, records) = Wal::open(wal_dev, cfg.group_window)?;
        let checkpoint = db.wal_seq();
        wal.set_seq_floor(checkpoint);
        let mut report = RecoveryReport {
            replayed: records.len() as u64,
            checkpoint,
            ..RecoveryReport::default()
        };
        let mut inner = WriterInner {
            wal,
            pending: Vec::new(),
            recent: RecentIds::new(cfg.recent_ids),
            history: VecDeque::new(),
            history_floor: records.first().map(|r| r.seq - 1).unwrap_or(checkpoint),
        };
        let mut last = checkpoint;
        for rec in &records {
            // Every durable record seeds the catch-up ring: a freshly
            // restarted primary can serve `sync_from` for its whole log.
            inner.push_history(cfg.sync_history, *rec);
            // The idempotence table survives a crash for every durable
            // record, applied or already-checkpointed.
            let applied_slot = WriteAck {
                seq: rec.seq,
                applied: true,
                duplicate: false,
            };
            inner.recent.put(rec.req_id, applied_slot);
            if rec.seq <= checkpoint {
                continue;
            }
            report.applied += 1;
            last = last.max(rec.seq);
            match rec.op {
                WalOp::Insert(seg) => db.insert(seg)?,
                WalOp::Delete(seg) => {
                    // A miss is legal: the delete may race a fold that
                    // already consumed an earlier record for the same id.
                    let _ = db.remove(&seg)?;
                }
            }
        }
        if report.applied > 0 {
            db.set_wal_seq(last);
            db.save()?;
            inner.wal.reset()?;
        }
        report.last_seq = inner.wal.last_seq();
        let direction = db.direction();
        Ok((
            WriteEngine {
                db: RwLock::new(db),
                delta: Mutex::new(Arc::new(DeltaSnap::default())),
                writer: Mutex::new(inner),
                direction,
                cfg,
                counters: WriterCounters::default(),
            },
            report,
        ))
    }

    /// Run `f` against the current database snapshot (read lock held for
    /// the duration — the epoch cannot swap underneath `f`).
    pub fn with_db<R>(&self, f: impl FnOnce(&SegmentDatabase) -> R) -> R {
        f(&self.db.read().expect("db lock poisoned"))
    }

    /// Run `f` with the database write lock (pauses readers; used by
    /// maintenance paths that mutate outside the write protocol).
    pub fn with_db_mut<R>(&self, f: impl FnOnce(&mut SegmentDatabase) -> R) -> R {
        f(&mut self.db.write().expect("db lock poisoned"))
    }

    /// The engine's tuning.
    pub fn config(&self) -> WriterConfig {
        self.cfg
    }

    /// Writer counters (atomics; loadable without any lock).
    pub fn counters(&self) -> &WriterCounters {
        &self.counters
    }

    /// WAL lifetime stats plus the current delta size.
    pub fn wal_stats(&self) -> (WalStats, usize) {
        let inner = self.writer.lock().expect("writer lock poisoned");
        let delta = self.delta.lock().expect("delta lock poisoned");
        (inner.wal.stats(), delta.len())
    }

    /// Snapshot of the delta overlay (tests and diagnostics).
    pub fn delta(&self) -> Arc<DeltaSnap> {
        self.delta.lock().expect("delta lock poisoned").clone()
    }

    // ---- write protocol -------------------------------------------------

    /// The stored acknowledgement of a request id already processed.
    fn replayed_ack(&self, inner: &WriterInner, req_id: u64) -> Option<WriteAck> {
        let prev = inner.recent.get(req_id)?;
        self.counters.duplicates.fetch_add(1, Ordering::Relaxed);
        Some(WriteAck {
            duplicate: true,
            ..prev
        })
    }

    /// Accept one op: log it, queue it for the fold, publish `edit`'s
    /// change to the delta, remember the ack, and fold if the delta is
    /// full. Nothing before the WAL append has side effects, so an op
    /// that cannot be logged is not acknowledged.
    fn accept(
        &self,
        mut inner: MutexGuard<'_, WriterInner>,
        req_id: u64,
        op: WalOp,
        accepted: &AtomicU64,
        edit: impl FnOnce(&mut DeltaSnap),
    ) -> Result<WriteAck, DbError> {
        let seq = inner.wal.append(req_id, op)?;
        let rec = WalRecord { seq, req_id, op };
        inner.pending.push(rec);
        inner.push_history(self.cfg.sync_history, rec);
        edit(Arc::make_mut(
            &mut self.delta.lock().expect("delta lock poisoned"),
        ));
        let ack = WriteAck {
            seq,
            applied: true,
            duplicate: false,
        };
        inner.recent.put(req_id, ack);
        accepted.fetch_add(1, Ordering::Relaxed);
        if inner.pending.len() >= self.cfg.delta_limit {
            self.fold_locked(&mut inner)?;
        }
        Ok(ack)
    }

    /// Insert `seg` (user coordinates). `req_id` deduplicates retries:
    /// a second call with the same id returns the stored ack.
    pub fn insert(&self, req_id: u64, seg: Segment) -> Result<WriteAck, DbError> {
        let inner = self.writer.lock().expect("writer lock poisoned");
        if let Some(ack) = self.replayed_ack(&inner, req_id) {
            return Ok(ack);
        }
        // Validate the transform up front: nothing is logged for a
        // segment the index could never hold.
        let canonical = self.direction.apply_segment(&seg)?;
        let op = WalOp::Insert(seg);
        self.accept(inner, req_id, op, &self.counters.inserts, |delta| {
            delta.inserts.push(canonical)
        })
    }

    /// Delete `seg` (user coordinates, exact geometry + id match).
    /// Returns `applied = false` when no such segment is stored.
    pub fn delete(&self, req_id: u64, seg: Segment) -> Result<WriteAck, DbError> {
        let mut inner = self.writer.lock().expect("writer lock poisoned");
        if let Some(ack) = self.replayed_ack(&inner, req_id) {
            return Ok(ack);
        }
        let canonical = self.direction.apply_segment(&seg)?;
        // Only a delete that hits is logged: the hidden-set arithmetic
        // of the reads depends on every delta delete being a segment the
        // base index stores and still shows.
        if !self.is_visible(&canonical)? {
            let ack = WriteAck {
                seq: 0,
                applied: false,
                duplicate: false,
            };
            inner.recent.put(req_id, ack);
            self.counters.delete_misses.fetch_add(1, Ordering::Relaxed);
            return Ok(ack);
        }
        let op = WalOp::Delete(seg);
        self.accept(inner, req_id, op, &self.counters.deletes, |delta| {
            // A delta insert cancels in place; otherwise the segment is
            // the base's, and gets hidden.
            let held = delta.inserts.len();
            delta.inserts.retain(|s| *s != canonical);
            if delta.inserts.len() == held {
                delta.deletes.insert(canonical);
            }
        })
    }

    /// Durability barrier: group-commit the WAL tail now.
    pub fn flush(&self) -> Result<(), DbError> {
        let mut inner = self.writer.lock().expect("writer lock poisoned");
        inner.wal.flush()?;
        Ok(())
    }

    // ---- replica catch-up ------------------------------------------------

    /// Highest WAL sequence number this engine has assigned (the cursor
    /// a lagging replica hands to a peer's `wal_since`).
    pub fn last_seq(&self) -> u64 {
        let inner = self.writer.lock().expect("writer lock poisoned");
        inner.wal.last_seq()
    }

    /// Applied records with `seq > from`, replayable by a lagging peer.
    ///
    /// The WAL itself truncates at every fold, so this serves from the
    /// bounded in-memory ring (`WriterConfig::sync_history`); once the
    /// ring has evicted past `from` the gap is unservable and the caller
    /// gets [`HistoryError::Truncated`].
    pub fn records_since(&self, from: u64) -> Result<Vec<WalRecord>, HistoryError> {
        let inner = self.writer.lock().expect("writer lock poisoned");
        if from < inner.history_floor {
            return Err(HistoryError::Truncated {
                floor: inner.history_floor,
            });
        }
        Ok(inner
            .history
            .iter()
            .filter(|r| r.seq > from)
            .copied()
            .collect())
    }

    /// Apply one record replayed from a peer, idempotently.
    ///
    /// Safe to call with records this replica already holds (replaying
    /// from `from = 0` converges): the request id hits the dedup window
    /// when it is still remembered, and an insert whose exact segment is
    /// already visible is acknowledged as a duplicate without being
    /// re-applied even after the id has aged out. Deletes of absent
    /// segments are no-ops by construction. Applied records re-enter
    /// this replica's own WAL and history, so a caught-up replica can
    /// itself serve `sync_from`.
    pub fn sync_apply(&self, rec: &WalRecord) -> Result<WriteAck, DbError> {
        match rec.op {
            WalOp::Insert(seg) => {
                if self.is_visible(&self.direction.apply_segment(&seg)?)? {
                    return Ok(WriteAck {
                        seq: 0,
                        applied: false,
                        duplicate: true,
                    });
                }
                self.insert(rec.req_id, seg)
            }
            WalOp::Delete(seg) => self.delete(rec.req_id, seg),
        }
    }

    /// Is this exact canonical-frame segment (id + geometry) visible to a
    /// read right now — a delta insert, or stored by the base and not
    /// deleted since the last fold? One read lock, one delta snapshot,
    /// one point probe ([`holds`]) through the walk every read takes.
    fn is_visible(&self, canonical: &Segment) -> Result<bool, DbError> {
        let db = self.db.read().expect("db lock poisoned");
        let delta = self.delta();
        if delta.inserts.contains(canonical) {
            return Ok(true);
        }
        holds(canonical, |multi| db.walk_group(multi, &delta.deletes))
    }

    /// Fold the delta into the index now, regardless of size.
    pub fn fold(&self) -> Result<(), DbError> {
        let mut inner = self.writer.lock().expect("writer lock poisoned");
        self.fold_locked(&mut inner)
    }

    /// Fold under the writer mutex the caller holds — and keeps, so
    /// nothing is accepted between this and whatever it does next.
    fn fold_locked(&self, inner: &mut WriterInner) -> Result<(), DbError> {
        if inner.pending.is_empty() {
            return Ok(());
        }
        // WAL first: the fold's source of truth must be durable before
        // the index starts moving.
        inner.wal.flush()?;
        let ops = std::mem::take(&mut inner.pending);
        let last = ops.last().map(|o| o.seq).unwrap_or(0);
        {
            // Readers drain, then the index mutates and the delta clears
            // atomically from their point of view (both under the write
            // lock — a reader either sees old base + old delta or new
            // base + empty delta, never a torn pair).
            let mut db = self.db.write().expect("db lock poisoned");
            for rec in &ops {
                match rec.op {
                    WalOp::Insert(seg) => db.insert(seg)?,
                    WalOp::Delete(seg) => {
                        db.remove(&seg)?;
                    }
                }
            }
            db.set_wal_seq(last);
            db.save()?;
            let mut delta = self.delta.lock().expect("delta lock poisoned");
            *delta = Arc::new(DeltaSnap::default());
        }
        inner.wal.reset()?;
        self.counters.rebuilds.fetch_add(1, Ordering::Relaxed);
        self.counters.epoch.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Fold lazy-delete tombstones back into the index (the background
    /// compaction pass). Folds the delta first, and holds the writer
    /// mutex from that fold to the save, so the rebuild sees every
    /// accepted op. Returns whether a rebuild ran.
    pub fn compact(&self) -> Result<bool, DbError> {
        let mut inner = self.writer.lock().expect("writer lock poisoned");
        self.fold_locked(&mut inner)?;
        let mut db = self.db.write().expect("db lock poisoned");
        let ran = db.compact()?;
        if ran {
            db.save()?;
            self.counters.compactions.fetch_add(1, Ordering::Relaxed);
            self.counters.epoch.fetch_add(1, Ordering::Relaxed);
        }
        Ok(ran)
    }

    // ---- snapshot reads -------------------------------------------------

    /// [`SegmentDatabase::query`] merged with the delta overlay: a group
    /// of one through [`WriteEngine::query_batch_canonical_mode`].
    pub fn query(&self, q: &Query, mode: QueryMode) -> Result<(QueryAnswer, QueryTrace), DbError> {
        let q = q.in_frame(self.direction)?;
        let mut results = self.query_batch_canonical_mode(&[(q, mode)]);
        results.pop().expect("one result per item")
    }

    // The four shape calls below are kept only because the benchmark
    // package calls them; each is `query` with the shape spelled out, its
    // hits sorted by id: the benchmark's recovery sweep compares a Collect
    // answer with the oracle's ids as a list.
    fn query_by_id(&self, q: Query, mode: QueryMode) -> Result<(QueryAnswer, QueryTrace), DbError> {
        let (mut answer, trace) = self.query(&q, mode)?;
        if let QueryAnswer::Segments(hits) = &mut answer {
            hits.sort_unstable_by_key(|s| s.id);
        }
        Ok((answer, trace))
    }

    /// [`WriteEngine::query`] of the line through `anchor`.
    pub fn query_line_mode(
        &self,
        anchor: impl Into<Point>,
        mode: QueryMode,
    ) -> Result<(QueryAnswer, QueryTrace), DbError> {
        let Point { x, y } = anchor.into();
        self.query_by_id(Query::Line { x, y }, mode)
    }

    /// [`WriteEngine::query`] of the upward ray from `anchor`.
    pub fn query_ray_up_mode(
        &self,
        anchor: impl Into<Point>,
        mode: QueryMode,
    ) -> Result<(QueryAnswer, QueryTrace), DbError> {
        let Point { x, y } = anchor.into();
        self.query_by_id(Query::RayUp { x, y }, mode)
    }

    /// [`WriteEngine::query`] of the downward ray from `anchor`.
    pub fn query_ray_down_mode(
        &self,
        anchor: impl Into<Point>,
        mode: QueryMode,
    ) -> Result<(QueryAnswer, QueryTrace), DbError> {
        let Point { x, y } = anchor.into();
        self.query_by_id(Query::RayDown { x, y }, mode)
    }

    /// [`WriteEngine::query`] of the segment `p1—p2`.
    pub fn query_segment_mode(
        &self,
        p1: impl Into<Point>,
        p2: impl Into<Point>,
        mode: QueryMode,
    ) -> Result<(QueryAnswer, QueryTrace), DbError> {
        let (Point { x: x1, y: y1 }, Point { x: x2, y: y2 }) = (p1.into(), p2.into());
        self.query_by_id(Query::Segment { x1, y1, x2, y2 }, mode)
    }

    /// Canonical-frame reads through the delta overlay — every engine
    /// read goes through here. One read lock and one delta snapshot
    /// cover the whole group, and the base answers come from a single
    /// shared index walk that hides the delta's deletes
    /// ([`SegmentDatabase::query_batch_canonical_mode`]). An `Exists`
    /// slot a delta insert already satisfies is answered on the spot and
    /// never reaches the index.
    pub fn query_batch_canonical_mode(
        &self,
        items: &[(VerticalQuery, QueryMode)],
    ) -> Vec<Result<(QueryAnswer, QueryTrace), DbError>> {
        let db = self.db.read().expect("db lock poisoned");
        let delta = self.delta.lock().expect("delta lock poisoned").clone();
        if delta.is_empty() {
            return db.query_batch_canonical_mode(items);
        }
        // The delta inserts each item's query hits, as `(item, insert)`
        // in item order — found once, for the shortcut and the merge
        // both. An `Exists` needs to know of one at most.
        let mut added: Vec<(usize, &Segment)> = Vec::new();
        for (i, (q, mode)) in items.iter().enumerate() {
            let most = if *mode == QueryMode::Exists {
                1
            } else {
                usize::MAX
            };
            added.extend((delta.inserts.iter().filter(|s| q.hits(s)).take(most)).map(|s| (i, s)));
        }
        let added_to = |i: usize| {
            let from = added.partition_point(|&(item, _)| item < i);
            &added[from..from + added[from..].partition_point(|&(item, _)| item == i)]
        };
        let settled = |i: usize| items[i].1 == QueryMode::Exists && !added_to(i).is_empty();
        let walked: Vec<(VerticalQuery, QueryMode)> = (0..items.len())
            .filter(|&i| !settled(i))
            .map(|i| items[i])
            .collect();
        let mut base = db.query_batch_hiding(&walked, &delta.deletes).into_iter();
        (0..items.len())
            .map(|i| {
                if settled(i) {
                    return Ok((QueryAnswer::Exists(true), QueryTrace::default()));
                }
                let (ans, trace) = base.next().expect("one base result per walked slot")?;
                Ok((
                    Self::merge_answer(&db, added_to(i), items[i].1, ans)?,
                    trace,
                ))
            })
            .collect()
    }

    /// Add the delta inserts its query hits to an item's base answer,
    /// after the walk's own (an `Exists` they would settle never gets here).
    fn merge_answer(
        db: &SegmentDatabase,
        added: &[(usize, &Segment)],
        mode: QueryMode,
        ans: QueryAnswer,
    ) -> Result<QueryAnswer, DbError> {
        if added.is_empty() {
            return Ok(ans);
        }
        Ok(match ans {
            QueryAnswer::Count(n) => QueryAnswer::Count(n + added.len() as u64),
            QueryAnswer::Exists(_) => QueryAnswer::Exists(true),
            QueryAnswer::Segments(mut hits) => {
                for (_, s) in added {
                    hits.push(db.direction().unapply_segment(s)?);
                }
                if let QueryMode::Limit(k) = mode {
                    hits.truncate(k as usize);
                }
                crate::report::debug_assert_distinct(&hits);
                QueryAnswer::Segments(hits)
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IndexKind;
    use segdb_pager::Disk;

    fn seg(id: u64, y: i64) -> Segment {
        Segment::new(id, (0, y), (1000, y)).unwrap()
    }

    fn engine(n: u64, cfg: WriterConfig) -> WriteEngine {
        let set: Vec<Segment> = (0..n).map(|i| seg(i, 10 * i as i64)).collect();
        let db = SegmentDatabase::builder()
            .page_size(512)
            .cache_pages(0)
            .index(IndexKind::TwoLevelInterval)
            .build(set)
            .unwrap();
        let (eng, rep) = WriteEngine::recover(db, Box::new(Disk::new(512)), cfg).unwrap();
        assert_eq!(rep.replayed, 0);
        eng
    }

    const LINE_500: Query = Query::Line { x: 500, y: 0 };

    fn count(eng: &WriteEngine, x: i64) -> u64 {
        let (ans, _) = eng
            .query(&Query::Line { x, y: 0 }, QueryMode::Count)
            .unwrap();
        ans.count()
    }

    #[test]
    fn overlay_merges_all_modes() {
        let eng = engine(50, WriterConfig::default());
        assert_eq!(count(&eng, 500), 50);
        // Insert two, delete one base segment.
        eng.insert(1, seg(100, 5)).unwrap();
        eng.insert(2, seg(101, 7)).unwrap();
        let ack = eng.delete(3, seg(10, 100)).unwrap();
        assert!(ack.applied);
        assert_eq!(count(&eng, 500), 51);
        let (ans, _) = eng.query(&LINE_500, QueryMode::Collect).unwrap();
        let hits = ans.segments().unwrap();
        assert_eq!(hits.len(), 51);
        assert!(hits.iter().any(|s| s.id == 100));
        assert!(!hits.iter().any(|s| s.id == 10));
        let (ans, _) = eng.query(&LINE_500, QueryMode::Exists).unwrap();
        assert_eq!(ans, QueryAnswer::Exists(true));
        let (ans, _) = eng.query(&LINE_500, QueryMode::Limit(5)).unwrap();
        assert_eq!(ans.segments().unwrap().len(), 5);
        // Deleting a delta insert cancels it without touching base.
        let ack = eng.delete(4, seg(101, 7)).unwrap();
        assert!(ack.applied);
        assert_eq!(count(&eng, 500), 50);
        // Deleting something absent is acknowledged but not applied.
        let ack = eng.delete(5, seg(999, 1)).unwrap();
        assert!(!ack.applied);
    }

    #[test]
    fn duplicate_request_ids_are_idempotent() {
        let eng = engine(10, WriterConfig::default());
        let a1 = eng.insert(42, seg(100, 5)).unwrap();
        let a2 = eng.insert(42, seg(100, 5)).unwrap();
        assert!(!a1.duplicate && a2.duplicate);
        assert_eq!(a1.seq, a2.seq);
        assert_eq!(count(&eng, 500), 11);
        let d1 = eng.delete(43, seg(100, 5)).unwrap();
        let d2 = eng.delete(43, seg(100, 5)).unwrap();
        assert!(d1.applied && d2.duplicate && d2.applied);
        assert_eq!(count(&eng, 500), 10);
        assert_eq!(eng.counters().duplicates.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn fold_applies_and_checkpoints() {
        let cfg = WriterConfig {
            delta_limit: 4,
            ..WriterConfig::default()
        };
        let eng = engine(20, cfg);
        for i in 0..4 {
            eng.insert(100 + i, seg(200 + i, 3 + i as i64)).unwrap();
        }
        // delta_limit reached: the 4th insert folded everything.
        assert!(eng.delta().is_empty());
        assert_eq!(eng.counters().rebuilds.load(Ordering::Relaxed), 1);
        assert_eq!(count(&eng, 500), 24);
        eng.with_db(|db| {
            assert_eq!(db.len(), 24);
            assert_eq!(db.wal_seq(), 4);
            db.validate().unwrap();
        });
    }

    #[test]
    fn catch_up_history_survives_folds_and_replays_idempotently() {
        let cfg = WriterConfig {
            delta_limit: 4,
            group_window: 1,
            ..WriterConfig::default()
        };
        let eng = engine(20, cfg);
        for i in 0..5 {
            eng.insert(100 + i, seg(200 + i, 3 + i as i64)).unwrap();
        }
        eng.delete(106, seg(3, 30)).unwrap();
        // A fold ran (delta_limit 4) and truncated the WAL, but the
        // ring still serves the whole log.
        assert!(eng.counters().rebuilds.load(Ordering::Relaxed) >= 1);
        let recs = eng.records_since(0).unwrap();
        assert_eq!(recs.len(), 6);
        assert_eq!(recs.first().unwrap().seq, 1);
        assert_eq!(eng.last_seq(), 6);
        assert_eq!(eng.records_since(4).unwrap().len(), 2);

        // A peer starting from the same base converges by replaying —
        // and a second replay of the same records applies nothing new.
        let peer = engine(20, cfg);
        for rec in &recs {
            let ack = peer.sync_apply(rec).unwrap();
            assert!(ack.applied && !ack.duplicate);
        }
        assert_eq!(count(&peer, 500), 24); // 20 + 5 − 1
        for rec in &recs {
            let ack = peer.sync_apply(rec).unwrap();
            assert!(ack.duplicate, "replayed record must not re-apply");
        }
        assert_eq!(count(&peer, 500), 24);
    }

    #[test]
    fn history_ring_is_bounded_and_reports_truncation() {
        let cfg = WriterConfig {
            sync_history: 4,
            ..WriterConfig::default()
        };
        let eng = engine(5, cfg);
        for i in 0..10u64 {
            eng.insert(i + 1, seg(300 + i, i as i64)).unwrap();
        }
        assert_eq!(eng.records_since(6).unwrap().len(), 4);
        assert_eq!(eng.records_since(9).unwrap().len(), 1);
        assert!(matches!(
            eng.records_since(5),
            Err(HistoryError::Truncated { floor: 6 })
        ));
    }

    #[test]
    fn recovery_replays_unfolded_tail() {
        let set: Vec<Segment> = (0..10).map(|i| seg(i, 10 * i as i64)).collect();
        let db = SegmentDatabase::builder()
            .page_size(512)
            .cache_pages(0)
            .index(IndexKind::TwoLevelInterval)
            .build(set)
            .unwrap();
        let cfg = WriterConfig {
            group_window: 1,
            ..WriterConfig::default()
        };
        let (eng, _) = WriteEngine::recover(db, Box::new(Disk::new(512)), cfg).unwrap();
        eng.insert(1, seg(100, 5)).unwrap();
        eng.delete(2, seg(3, 30)).unwrap();
        // Simulate a crash that loses the in-memory delta but keeps the
        // synced WAL: rebuild the db from scratch and replay the device.
        let wal_dev = {
            let mut inner = eng.writer.lock().unwrap();
            // Steal the WAL device (test-only surgery).
            let wal = std::mem::replace(
                &mut inner.wal,
                Wal::create(Box::new(Disk::new(512)), 1).unwrap(),
            );
            wal.into_device()
        };
        let set: Vec<Segment> = (0..10).map(|i| seg(i, 10 * i as i64)).collect();
        let db2 = SegmentDatabase::builder()
            .page_size(512)
            .cache_pages(0)
            .index(IndexKind::TwoLevelInterval)
            .build(set)
            .unwrap();
        let (eng2, rep) = WriteEngine::recover(db2, wal_dev, cfg).unwrap();
        assert_eq!(rep.replayed, 2);
        assert_eq!(rep.applied, 2);
        assert_eq!(count(&eng2, 500), 10); // 10 − 1 + 1
        eng2.with_db(|db| {
            assert_eq!(db.wal_seq(), 2);
            db.validate().unwrap();
        });
        // A retry of a pre-crash request id is still recognized.
        let ack = eng2.insert(1, seg(100, 5)).unwrap();
        assert!(ack.duplicate);
    }
}
