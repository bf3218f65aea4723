//! Group execution — the one read path.
//!
//! Every query runs as a *group*: the slots of a [`MultiSink`] pushed
//! down the index together, each page on the shared frontier read
//! **once per group** and hits fanned out to per-slot sinks. A single
//! query is a group of one — [`SegmentDatabase::query_canonical_mode`]
//! and [`SegmentDatabase::query_batch_canonical_mode`] run the same
//! walk, so there is no sequential twin to drift from it. Early-exit
//! modes (`Exists`, `Limit`) retire their slot without disturbing the
//! rest of the group, and a retired slot is dropped from every later
//! probe list before that structure's pages are read; the walk ends
//! once every slot has retired.
//!
//! Per-slot rules, whatever the group size:
//!
//! * `Collect` / `Count` / `Exists` answers do not depend on the group a
//!   query ran in. `Limit(k)` answers have the same *size* and every
//!   element is a true hit; a group of one delivers hits in one fixed
//!   traversal order, a larger group may surface a different `k`.
//! * Count-only slots take the count-from-header fast paths (stored
//!   subtree counts); hidden segments — an index's lazy deletes, the
//!   writer's un-folded ones — are subtracted per slot (see `Slots`),
//!   segment-wanting slots filter them inline.
//! * A group of one reports `batch_id = 0` / `batch_size = 0`.
//!
//! Fault isolation: if the walk of a group of several fails (e.g. a
//! transient device error), each query is re-run as a group of one
//! through the same code, so one poisoned page affects only the queries
//! that actually need it.

use crate::chain;
use crate::facade::{DbError, SegmentDatabase};
use crate::report::{CountingSink, QueryAnswer, QueryMode, QueryTrace};
use segdb_geom::predicates::{classify_pair, PairRelation};
use segdb_geom::{
    CountSink, ExistsSink, LimitSink, MultiSink, Point, ReportSink, Segment, VerticalQuery,
};
use segdb_itree::overlap::IntervalSet;
use segdb_obs::trace::{emit, probe, EventKind};
use segdb_pager::{IoStats, PageId, Pager, PagerError};
use segdb_pst::BatchQuery;
use std::collections::BTreeMap;
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-wide batch id source. Ids are only for correlation (slowlog,
/// traces); 0 is reserved to mean "ran alone".
static NEXT_BATCH_ID: AtomicU64 = AtomicU64::new(1);

/// Draw a fresh nonzero batch id.
pub fn next_batch_id() -> u64 {
    NEXT_BATCH_ID.fetch_add(1, Ordering::Relaxed)
}

/// A whole segment as an ordered key, left abscissa first: what a
/// [`Hidden`] set is indexed by and what [`Slots`] withholds. Two
/// segments that share an id but not their geometry are two keys.
type Key = (i64, u64, [i64; 3]);

fn key(s: &Segment) -> Key {
    (s.a.x, s.id, [s.a.y, s.b.x, s.b.y])
}

/// Segments an index stores but no reader may see: the tombstones of a
/// structure that deletes lazily, or the deletes a writer has accepted
/// and not yet folded. Whoever owns one keeps it in memory and holds in
/// it only segments that are stored and in no other hidden set, which is
/// what makes the arithmetic of [`Slots`] exact. A member is the whole
/// stored segment, so two hidden segments may share an id.
///
/// Indexed by left endpoint, `O(log h)` to maintain. A query at abscissa
/// `x` can only hit segments that start in `[x − reach, x]`, `reach`
/// being the widest x-extent the set has held, so a stab looks at that
/// window and nothing else. One very long segment widens every window —
/// at worst to the whole set, the linear scan this index replaces —
/// until the set is next cleared. `bounds`, the box around every
/// segment the set has held, likewise only grows.
#[derive(Debug, Default, Clone)]
pub(crate) struct Hidden {
    by_left: BTreeMap<Key, Segment>,
    reach: i64,
    bounds: Option<(Point, Point)>,
}

/// The empty hidden set: a read with nothing to hide.
pub(crate) static NO_HIDDEN: Hidden = Hidden::new();

impl Hidden {
    pub(crate) const fn new() -> Hidden {
        Hidden {
            by_left: BTreeMap::new(),
            reach: 0,
            bounds: None,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.by_left.len()
    }

    /// Is exactly `seg` (id and geometry) hidden?
    pub(crate) fn contains(&self, seg: &Segment) -> bool {
        self.by_left.contains_key(&key(seg))
    }

    /// Every hidden segment, in key order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &Segment> {
        self.by_left.values()
    }

    /// Hide `seg`.
    pub(crate) fn insert(&mut self, seg: Segment) {
        self.by_left.insert(key(&seg), seg);
        self.reach = self.reach.max(seg.b.x - seg.a.x);
        let (lo, hi) = seg.y_span();
        let (min, max) =
            (self.bounds).unwrap_or((Point::new(seg.a.x, lo), Point::new(seg.b.x, hi)));
        self.bounds = Some((
            Point::new(min.x.min(seg.a.x), min.y.min(lo)),
            Point::new(max.x.max(seg.b.x), max.y.max(hi)),
        ));
    }

    /// Show `seg` again; whether it was hidden.
    pub(crate) fn remove(&mut self, seg: &Segment) -> bool {
        self.by_left.remove(&key(seg)).is_some()
    }

    /// Every hidden segment that can meet the slab `x0 ≤ x ≤ x1`: those
    /// starting in it or within `reach` to its left.
    fn starting_in(&self, x0: i64, x1: i64) -> impl Iterator<Item = &Segment> {
        let from = (x0.saturating_sub(self.reach), 0, [i64::MIN; 3]);
        let to = (x1, u64::MAX, [i64::MAX; 3]);
        self.by_left.range(from..=to).map(|(_, s)| s)
    }

    /// The hidden segments `q` hits.
    pub(crate) fn stab<'h>(&'h self, q: &'h VerticalQuery) -> impl Iterator<Item = &'h Segment> {
        self.starting_in(q.x(), q.x()).filter(|s| q.hits(s))
    }

    /// Does `seg` cross, or overlap collinearly, a hidden segment? Outside
    /// the box no page or window is looked at.
    pub(crate) fn crossed_by(&self, seg: &Segment) -> bool {
        let (lo, hi) = seg.y_span();
        let in_box = (self.bounds).is_some_and(|(min, max)| {
            seg.a.x <= max.x && seg.b.x >= min.x && lo <= max.y && hi >= min.y
        });
        in_box
            && (self.starting_in(seg.a.x, seg.b.x))
                .any(|s| classify_pair(s, seg) != PairRelation::Admissible)
    }
}

/// The slots of one group walk as the two-level structures address
/// them: delivery by slot index, with the [`Hidden`] segments withheld.
///
/// A walk meets hidden segments in the pages like any other, so each
/// slot starts from the hidden segments its own query hits (a stab of
/// each set, `O(log h + candidates)`). A segment-wanting slot has exactly
/// those filtered out, compared as whole segments — a stored segment
/// that only shares an id with a hidden one is shown. A count-only slot keeps the
/// count-from-header fast paths: their number is its *debt*, and stored
/// hits pay it off before any reaches the sink. The sink therefore sees
/// exactly `stored − hidden`, and an `Exists` slot can still stop at the
/// first visible hit.
pub(crate) struct Slots<'m, 'a> {
    multi: &'m mut MultiSink<'a>,
    /// Per slot, hidden hits still to cancel (empty until some counting
    /// slot's query hits a hidden segment).
    debt: Vec<u64>,
    /// `(slot, segment)` of every hidden segment a segment-wanting
    /// slot's query hits, sorted.
    withheld: Vec<(usize, Key)>,
}

impl<'m, 'a> Slots<'m, 'a> {
    /// Slots that withhold `hidden` — the structure's own set and its
    /// caller's; pass [`NO_HIDDEN`] for a side with nothing to hide.
    pub(crate) fn new(multi: &'m mut MultiSink<'a>, hidden: [&Hidden; 2]) -> Self {
        let (mut debt, mut withheld) = (Vec::new(), Vec::new());
        for i in 0..multi.len() {
            let (q, wants) = (*multi.query(i), multi.want_segments(i));
            for s in hidden.iter().flat_map(|h| h.stab(&q)) {
                if wants {
                    withheld.push((i, key(s)));
                } else {
                    if debt.is_empty() {
                        debt.resize(multi.len(), 0);
                    }
                    debt[i] += 1;
                }
            }
        }
        withheld.sort_unstable();
        Slots {
            multi,
            debt,
            withheld,
        }
    }

    /// The group as index walks carry it: one probe per slot, tagged
    /// with the slot index, in abscissa order — so the slots falling
    /// into one slab, or on one side of a base line, are always a
    /// consecutive range that can be handed to a sub-walk as is.
    pub(crate) fn probes(&self) -> Vec<BatchQuery> {
        let mut group: Vec<BatchQuery> = (0..self.multi.len())
            .map(|tag| {
                let q = self.multi.query(tag);
                BatchQuery {
                    qx: q.x(),
                    lo: q.lo(),
                    hi: q.hi(),
                    tag,
                }
            })
            .collect();
        group.sort_unstable_by_key(|p| (p.qx, p.tag));
        group
    }

    /// Is slot `i` still accepting results?
    pub(crate) fn is_active(&self, i: usize) -> bool {
        self.multi.is_active(i)
    }

    /// May slot `i` be answered from stored counts
    /// ([`Slots::report_count`]) instead of segment by segment?
    pub(crate) fn counts(&self, i: usize) -> bool {
        !self.multi.want_segments(i)
    }

    /// Deliver one stored segment to slot `i`; `Break` means the slot
    /// has retired.
    pub(crate) fn report(&mut self, i: usize, seg: &Segment) -> ControlFlow<()> {
        if !self.debt.is_empty() && self.counts(i) {
            return self.report_count(i, 1);
        }
        if !self.withheld.is_empty() && self.withheld.binary_search(&(i, key(seg))).is_ok() {
            return ControlFlow::Continue(());
        }
        self.multi.report(i, seg)
    }

    /// Deliver `n` stored matches to slot `i` in bulk (only when
    /// [`Slots::counts`] holds for it).
    pub(crate) fn report_count(&mut self, i: usize, n: u64) -> ControlFlow<()> {
        let paid = self.debt.get(i).map_or(0, |owed| n.min(*owed));
        if paid > 0 {
            self.debt[i] -= paid;
        }
        if n == paid && self.multi.is_active(i) {
            return ControlFlow::Continue(());
        }
        self.multi.report_count(i, n - paid)
    }

    /// Probe a `C` set — the verticals lying on the line `x = x0`, kept
    /// as intervals over their ordinate ranges — for each slot of
    /// `group`, all of them queries on that line: from the set's stored
    /// counts where the slot allows, by an overlap walk otherwise.
    pub(crate) fn probe_on_line(
        &mut self,
        pager: &Pager,
        set: &IntervalSet,
        x0: i64,
        group: &[BatchQuery],
        trace: &mut QueryTrace,
    ) -> segdb_pager::Result<()> {
        for p in group {
            emit(EventKind::SecondLevelProbe, probe::C_SET, 0);
            trace.second_level_probes += 1;
            if self.counts(p.tag) {
                let n = set.overlap_count(pager, p.lo, p.hi)?;
                let _ = self.report_count(p.tag, n);
                continue;
            }
            let mut bad = false;
            let _ = set.overlap_ctl(pager, p.lo, p.hi, &mut |iv| match Segment::new(
                iv.id,
                (x0, iv.lo),
                (x0, iv.hi),
            ) {
                Ok(s) => self.report(p.tag, &s),
                Err(_) => {
                    bad = true;
                    ControlFlow::Break(())
                }
            })?;
            if bad {
                return Err(PagerError::Corrupt("bad on-line interval"));
            }
        }
        Ok(())
    }

    /// Drop retired slots from `group`, keeping its order; the live
    /// probes are `group[..n]` for the returned `n`.
    pub(crate) fn retain_live(&self, group: &mut [BatchQuery]) -> usize {
        let mut live = 0;
        for at in 0..group.len() {
            if self.multi.is_active(group[at].tag) {
                group[live] = group[at];
                live += 1;
            }
        }
        live
    }

    /// A first-level leaf: scan its chain once for every slot of
    /// `group`, stopping as soon as none is left.
    pub(crate) fn scan_leaf(
        &mut self,
        pager: &Pager,
        head: PageId,
        group: &[BatchQuery],
    ) -> segdb_pager::Result<()> {
        let _ = chain::scan_ctl(pager, head, |s| {
            let mut live = false;
            for p in group {
                if self.is_active(p.tag) {
                    let hit = segdb_geom::predicates::hits_vertical(&s, p.qx, p.lo, p.hi);
                    live |= !hit || self.report(p.tag, &s).is_continue();
                }
            }
            if live {
                ControlFlow::Continue(())
            } else {
                ControlFlow::Break(())
            }
        })?;
        Ok(())
    }
}

/// A single query is a group of one: run `walk` over a one-slot
/// [`MultiSink`] feeding `sink`, and fill in the slot's hit count.
pub(crate) fn one_slot(
    q: &VerticalQuery,
    sink: &mut dyn ReportSink,
    walk: impl FnOnce(&mut MultiSink<'_>) -> segdb_pager::Result<QueryTrace>,
) -> segdb_pager::Result<QueryTrace> {
    let mut counting = CountingSink::new(sink);
    let mut multi = MultiSink::new();
    multi.push(*q, &mut counting);
    let mut trace = walk(&mut multi)?;
    drop(multi);
    trace.hits = counting.hits.min(u32::MAX as u64) as u32;
    Ok(trace)
}

/// The membership probe — is exactly `seg` (id and geometry) among what
/// `walk` shows? A stored segment passes through its own left endpoint,
/// so the probe is the degenerate query at that point, a group of one
/// through the ordinary walk: it meets the few segments through the
/// point, not the line's worth a stabbing query would, and stops at the
/// match.
pub(crate) fn holds<E>(
    seg: &Segment,
    walk: impl FnOnce(&mut MultiSink<'_>) -> Result<QueryTrace, E>,
) -> Result<bool, E> {
    struct Find<'s>(&'s Segment, bool);
    impl ReportSink for Find<'_> {
        fn report(&mut self, hit: &Segment) -> ControlFlow<()> {
            if hit == self.0 {
                self.1 = true;
                return ControlFlow::Break(());
            }
            ControlFlow::Continue(())
        }
    }
    let mut find = Find(seg, false);
    let mut multi = MultiSink::new();
    multi.push(VerticalQuery::segment(seg.a.x, seg.a.y, seg.a.y), &mut find);
    walk(&mut multi)?;
    drop(multi);
    Ok(find.1)
}

/// Per-slot sink implementing that slot's [`QueryMode`], with the answer
/// extractable afterwards without downcasting.
enum ModeSink {
    Collect(Vec<Segment>),
    Count(CountSink),
    Exists(ExistsSink),
    Limit(LimitSink),
}

impl ModeSink {
    fn new(mode: QueryMode) -> ModeSink {
        match mode {
            QueryMode::Collect => ModeSink::Collect(Vec::new()),
            QueryMode::Count => ModeSink::Count(CountSink::new()),
            QueryMode::Exists => ModeSink::Exists(ExistsSink::new()),
            QueryMode::Limit(k) => ModeSink::Limit(LimitSink::new(k as usize)),
        }
    }

    /// Segment-carrying answers are sheared back to user coordinates
    /// and normalized; count/exists answers never materialize the
    /// segments at all.
    fn into_answer(self, db: &SegmentDatabase) -> Result<QueryAnswer, DbError> {
        Ok(match self {
            ModeSink::Collect(v) => QueryAnswer::Segments(db.unshear(v)?),
            ModeSink::Count(c) => QueryAnswer::Count(c.count),
            ModeSink::Exists(e) => QueryAnswer::Exists(e.found),
            ModeSink::Limit(l) => QueryAnswer::Segments(db.unshear(l.into_vec())?),
        })
    }
}

impl ReportSink for ModeSink {
    fn report(&mut self, seg: &Segment) -> ControlFlow<()> {
        match self {
            ModeSink::Collect(v) => v.report(seg),
            ModeSink::Count(c) => c.report(seg),
            ModeSink::Exists(e) => e.report(seg),
            ModeSink::Limit(l) => l.report(seg),
        }
    }

    fn want_segments(&self) -> bool {
        match self {
            ModeSink::Collect(v) => v.want_segments(),
            ModeSink::Count(c) => c.want_segments(),
            ModeSink::Exists(e) => e.want_segments(),
            ModeSink::Limit(l) => l.want_segments(),
        }
    }

    fn report_count(&mut self, n: u64) -> ControlFlow<()> {
        match self {
            ModeSink::Collect(v) => v.report_count(n),
            ModeSink::Count(c) => c.report_count(n),
            ModeSink::Exists(e) => e.report_count(n),
            ModeSink::Limit(l) => l.report_count(n),
        }
    }
}

/// One query's place in a group: its mode's sink behind a hit tally.
type Slot = CountingSink<ModeSink>;

/// Slot `i`'s share of a walk's I/O split across `n` slots, remainder
/// to the earliest slots, so per-query traces still sum to the total.
fn io_share(total: IoStats, n: usize, i: usize) -> IoStats {
    let part = |v: u64| v / n as u64 + u64::from((i as u64) < v % n as u64);
    IoStats {
        reads: part(total.reads),
        writes: part(total.writes),
        allocations: part(total.allocations),
        frees: part(total.frees),
        cache_hits: part(total.cache_hits),
    }
}

impl SegmentDatabase {
    /// Walk the index once for the whole group, withholding `hidden`;
    /// `slots[i]` receives `items[i]`'s hits. Returns the walk's trace
    /// (I/O included).
    fn run_slots(
        &self,
        items: &[(VerticalQuery, QueryMode)],
        slots: &mut [Slot],
        hidden: &Hidden,
    ) -> Result<QueryTrace, DbError> {
        if items.is_empty() {
            return Ok(QueryTrace::default());
        }
        let mut multi = MultiSink::new();
        for (&(q, _), slot) in items.iter().zip(slots) {
            multi.push(q, slot);
        }
        self.walk_group(&mut multi, hidden)
    }

    /// Turn a walked slot into its answer and its own trace: the walk's
    /// shape, this slot's hits and its share `io` of the pages.
    fn finish_slot(
        &self,
        slot: Slot,
        mode: QueryMode,
        walk: &QueryTrace,
        io: IoStats,
        batch: (u64, u32),
    ) -> Result<(QueryAnswer, QueryTrace), DbError> {
        let mut trace = QueryTrace {
            hits: slot.hits.min(u32::MAX as u64) as u32,
            mode,
            io,
            batch_id: batch.0,
            batch_size: batch.1,
            ..*walk
        };
        let answer = slot.inner.into_answer(self)?;
        self.observe_trace(&mut trace);
        Ok((answer, trace))
    }

    /// Run a canonical-frame query under `mode` — a group of one.
    pub(crate) fn run_mode(
        &self,
        q: &VerticalQuery,
        mode: QueryMode,
    ) -> Result<(QueryAnswer, QueryTrace), DbError> {
        self.run_alone(q, mode, &NO_HIDDEN)
    }

    fn run_alone(
        &self,
        q: &VerticalQuery,
        mode: QueryMode,
        hidden: &Hidden,
    ) -> Result<(QueryAnswer, QueryTrace), DbError> {
        let mut slot = [Slot::new(ModeSink::new(mode))];
        let walk = self.run_slots(&[(*q, mode)], &mut slot, hidden)?;
        let [slot] = slot;
        self.finish_slot(slot, mode, &walk, walk.io, (0, 0))
    }

    /// Execute a group of canonical-frame queries with **one** shared
    /// index walk. Returns one result per item, in order.
    ///
    /// Traces of a group of several carry its `batch_id` and size; a
    /// group of one reports neither. If the walk of a group of several
    /// errors, every query is re-run as a group of one, so batchmates of
    /// a failing query still succeed.
    pub fn query_batch_canonical_mode(
        &self,
        items: &[(VerticalQuery, QueryMode)],
    ) -> Vec<Result<(QueryAnswer, QueryTrace), DbError>> {
        self.query_batch_hiding(items, &NO_HIDDEN)
    }

    /// [`SegmentDatabase::query_batch_canonical_mode`] with the stored
    /// segments in `hidden` withheld from every answer — how the write
    /// engine reads past its un-folded deletes.
    pub(crate) fn query_batch_hiding(
        &self,
        items: &[(VerticalQuery, QueryMode)],
        hidden: &Hidden,
    ) -> Vec<Result<(QueryAnswer, QueryTrace), DbError>> {
        let mut slots: Vec<Slot> = items
            .iter()
            .map(|&(_, mode)| Slot::new(ModeSink::new(mode)))
            .collect();
        match self.run_slots(items, &mut slots, hidden) {
            Ok(walk) => {
                let n = items.len();
                let batch = if n > 1 {
                    (next_batch_id(), n as u32)
                } else {
                    (0, 0)
                };
                (slots.into_iter().zip(items).enumerate())
                    .map(|(i, (slot, &(_, mode)))| {
                        self.finish_slot(slot, mode, &walk, io_share(walk.io, n, i), batch)
                    })
                    .collect()
            }
            Err(e) => match items {
                [_] => vec![Err(e)],
                _ => (items.iter())
                    .map(|(q, mode)| self.run_alone(q, *mode, hidden))
                    .collect(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::facade::IndexKind;
    use crate::report::ids;
    use crate::testutil::collect;
    use segdb_geom::gen::{mixed_map, vertical_queries};

    const KINDS: [IndexKind; 2] = [IndexKind::TwoLevelBinary, IndexKind::TwoLevelInterval];

    fn build(kind: IndexKind, segs: &[Segment]) -> SegmentDatabase {
        SegmentDatabase::builder()
            .page_size(512)
            .index(kind)
            .build(segs.to_vec())
            .unwrap()
    }

    #[test]
    fn batch_matches_sequential_all_kinds() {
        let set = mixed_map(700, 31);
        let queries = vertical_queries(&set, 24, 60, 17);
        for kind in KINDS {
            let db = build(kind, &set);
            let items: Vec<(VerticalQuery, QueryMode)> =
                queries.iter().map(|q| (*q, QueryMode::Collect)).collect();
            let batched = db.query_batch_canonical_mode(&items);
            for ((q, _), res) in items.iter().zip(batched) {
                let (ans, trace) = res.unwrap();
                let (seq, _) = collect(&db, q).unwrap();
                assert_eq!(
                    ids(ans.segments().unwrap()),
                    ids(&seq),
                    "{kind:?} batch/seq mismatch"
                );
                assert_eq!(trace.batch_size as usize, items.len());
                assert_ne!(trace.batch_id, 0);
            }
        }
    }

    #[test]
    fn batch_reads_fewer_pages_than_sequential() {
        let set = mixed_map(1500, 5);
        let queries = vertical_queries(&set, 16, 40, 23);
        for kind in KINDS {
            let db = build(kind, &set);
            let items: Vec<(VerticalQuery, QueryMode)> =
                queries.iter().map(|q| (*q, QueryMode::Collect)).collect();
            let seq_pages: u64 = queries
                .iter()
                .map(|q| {
                    let (_, t) = collect(&db, q).unwrap();
                    t.io.reads + t.io.cache_hits
                })
                .sum();
            let batch_pages: u64 = db
                .query_batch_canonical_mode(&items)
                .into_iter()
                .map(|r| {
                    let (_, t) = r.unwrap();
                    t.io.reads + t.io.cache_hits
                })
                .sum();
            assert!(
                batch_pages < seq_pages,
                "{kind:?}: batch {batch_pages} !< seq {seq_pages}"
            );
        }
    }

    #[test]
    fn mixed_mode_batch_answers_each_mode() {
        let set = mixed_map(400, 9);
        let q = vertical_queries(&set, 1, 50, 3)[0];
        for kind in KINDS {
            let db = build(kind, &set);
            let (seq, _) = collect(&db, &q).unwrap();
            let items = vec![
                (q, QueryMode::Collect),
                (q, QueryMode::Count),
                (q, QueryMode::Exists),
                (q, QueryMode::Limit(2)),
            ];
            let out = db.query_batch_canonical_mode(&items);
            let collect = out[0].as_ref().unwrap().0.segments().unwrap().to_vec();
            assert_eq!(ids(&collect), ids(&seq), "{kind:?} collect");
            assert_eq!(out[1].as_ref().unwrap().0.count(), seq.len() as u64);
            match out[2].as_ref().unwrap().0 {
                QueryAnswer::Exists(b) => assert_eq!(b, !seq.is_empty()),
                _ => panic!("exists answer shape"),
            }
            let limited = out[3].as_ref().unwrap().0.segments().unwrap().to_vec();
            assert_eq!(limited.len(), seq.len().min(2), "{kind:?} limit size");
            let truth: std::collections::HashSet<u64> = ids(&seq).into_iter().collect();
            for s in &limited {
                assert!(truth.contains(&s.id), "{kind:?} limit returned non-hit");
            }
        }
    }

    /// A hidden stored segment is withheld by the walk, in every mode.
    #[test]
    fn hidden_segments_are_withheld() {
        let set = mixed_map(300, 6);
        let gone = set[7];
        let mut hidden = Hidden::new();
        hidden.insert(gone);
        let q = VerticalQuery::Line { x: gone.a.x };
        let seq = segdb_geom::query::scan_oracle(&set, &q);
        assert!(seq.contains(&gone));
        for kind in KINDS {
            let db = build(kind, &set);
            let items = [(q, QueryMode::Count), (q, QueryMode::Collect)];
            let mut out = db.query_batch_hiding(&items, &hidden).into_iter();
            let (count, collect) = (out.next().unwrap(), out.next().unwrap());
            assert_eq!(count.unwrap().0.count(), seq.len() as u64 - 1, "{kind:?}");
            let shown = collect.unwrap().0;
            assert_eq!(shown.count(), seq.len() as u64 - 1, "{kind:?}");
            assert!(!shown.segments().unwrap().contains(&gone), "{kind:?}");
        }
    }

    /// Short random segments (x-extent ≤ 64 over a 16k-wide box), every
    /// fifth vertical; ids from `first_id`.
    fn short_segments(n: u64, first_id: u64, rng: &mut segdb_rng::SmallRng) -> Vec<Segment> {
        (0..n)
            .map(|k| {
                let (x, y) = (rng.gen_range(0..16_000i64), rng.gen_range(0..4_000i64));
                let dx = if k % 5 == 0 {
                    0
                } else {
                    rng.gen_range(1..=64i64)
                };
                Segment::new(first_id + k, (x, y), (x + dx, y + rng.gen_range(1..=40i64))).unwrap()
            })
            .collect()
    }

    fn hidden_of(segs: &[Segment]) -> Hidden {
        let mut hidden = Hidden::new();
        for s in segs {
            hidden.insert(*s);
        }
        hidden
    }

    /// Queries of every shape at abscissas the segments start at, end at
    /// and pass over.
    fn probes_over(
        segs: &[Segment],
        n: usize,
        rng: &mut segdb_rng::SmallRng,
    ) -> Vec<VerticalQuery> {
        (0..n)
            .map(|k| {
                let s = segs[rng.gen_range(0..segs.len())];
                let x = [s.a.x, s.b.x, rng.gen_range(0..16_100i64)][k % 3];
                let y = rng.gen_range(0..4_000i64);
                match k % 4 {
                    0 => VerticalQuery::Line { x },
                    1 => VerticalQuery::RayUp { x, y0: y },
                    2 => VerticalQuery::RayDown { x, y0: y },
                    _ => VerticalQuery::segment(x, y, y + 300),
                }
            })
            .collect()
    }

    #[test]
    fn a_stab_returns_what_the_linear_filter_returns() {
        let mut rng = segdb_rng::SmallRng::seed_from_u64(0x51AB);
        for with_long in [false, true] {
            let mut segs = short_segments(600, 0, &mut rng);
            if with_long {
                // One segment across the whole extent: every window
                // widens to the whole set, and the answers stay right.
                segs.push(Segment::new(9_000, (0, 5_000), (16_100, 5_001)).unwrap());
            }
            // Ids hidden again under new geometry are a second entry
            // beside the old one, and a segment shown again is gone.
            let moved: Vec<Segment> = (segs.iter().step_by(7))
                .map(|s| {
                    Segment::new(s.id, (s.a.x + 1_000, s.a.y), (s.b.x + 1_000, s.b.y)).unwrap()
                })
                .collect();
            let shown = segs.swap_remove(3);
            let mut hidden = hidden_of(&segs);
            for s in &moved {
                hidden.insert(*s);
            }
            hidden.insert(shown);
            assert!(hidden.remove(&shown) && !hidden.remove(&shown));
            segs.extend(&moved);
            assert_eq!(hidden.len(), segs.len());
            assert!(segs.iter().all(|s| hidden.contains(s)) && !hidden.contains(&shown));
            for q in probes_over(&segs, 400, &mut rng) {
                let mut got: Vec<u64> = hidden.stab(&q).map(|s| s.id).collect();
                got.sort_unstable();
                assert_eq!(got, crate::testutil::oracle_query(&segs, &q), "{q:?}");
            }
        }
    }

    #[test]
    fn a_stab_visits_a_window_not_the_set() {
        let mut rng = segdb_rng::SmallRng::seed_from_u64(0xAB5C);
        let segs = short_segments(4096, 0, &mut rng);
        let hidden = hidden_of(&segs);
        for q in probes_over(&segs, 200, &mut rng) {
            let visited = hidden.starting_in(q.x(), q.x()).count();
            assert!(
                visited * 20 <= segs.len(),
                "{visited} of 4096 visited for {q:?}"
            );
        }
    }

    /// `crossed_by` against the pairwise rule over the whole set: random
    /// segments, and ones on a member's line touching or overlapping it.
    #[test]
    fn a_crossing_is_found_as_the_linear_rule_finds_it() {
        let mut rng = segdb_rng::SmallRng::seed_from_u64(0xC805);
        let members = short_segments(500, 0, &mut rng);
        let hidden = hidden_of(&members);
        let mut probes = short_segments(2_000, 10_000, &mut rng);
        for s in members.iter().step_by(11) {
            let (dx, dy) = (s.b.x - s.a.x, s.b.y - s.a.y);
            probes.push(Segment::new(7, s.b, (s.b.x + dx, s.b.y + dy)).unwrap());
            probes.push(Segment::new(7, (s.a.x - dx, s.a.y - dy), s.b).unwrap());
        }
        for p in &probes {
            let linear = (members.iter()).any(|s| classify_pair(s, p) != PairRelation::Admissible);
            assert_eq!(hidden.crossed_by(p), linear, "{p}");
        }
    }

    /// `Slots` against the linear rule, fed every stored hit the way a
    /// walk would: a counting slot ends at `stored − hidden`, a
    /// segment-wanting slot at the stored hits whose id is not hidden.
    #[test]
    fn slots_debt_and_filter_equal_the_linear_ones() {
        let mut rng = segdb_rng::SmallRng::seed_from_u64(0x5107);
        let stored = short_segments(900, 0, &mut rng);
        // Two disjoint hidden sets, as a structure's and its caller's.
        let tombs = hidden_of(&stored[..200]);
        let deletes = hidden_of(&stored[200..300]);
        let shown = &stored[300..];
        for group in [1usize, 8] {
            for round in 0..40 {
                let queries = probes_over(&stored, group, &mut rng);
                // Counting and segment-wanting slots side by side; a
                // group of one is each in turn.
                let counting = |i: usize| (i + round).is_multiple_of(2);
                let mut counts: Vec<CountSink> = queries.iter().map(|_| CountSink::new()).collect();
                let mut lists: Vec<Vec<Segment>> = vec![Vec::new(); group];
                let mut multi = MultiSink::new();
                for (i, (c, l)) in counts.iter_mut().zip(lists.iter_mut()).enumerate() {
                    if counting(i) {
                        multi.push(queries[i], c);
                    } else {
                        multi.push(queries[i], l);
                    }
                }
                let mut slots = Slots::new(&mut multi, [&tombs, &deletes]);
                for s in &stored {
                    for (i, q) in queries.iter().enumerate() {
                        if q.hits(s) {
                            let _ = slots.report(i, s);
                        }
                    }
                }
                drop(multi);
                for (i, q) in queries.iter().enumerate() {
                    let want = crate::testutil::oracle_query(shown, q);
                    if counting(i) {
                        assert_eq!(counts[i].count, want.len() as u64, "{q:?}");
                    } else {
                        assert_eq!(ids(&lists[i]), want, "{q:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn single_item_batch_runs_alone() {
        let set = mixed_map(100, 2);
        let db = build(IndexKind::TwoLevelBinary, &set);
        let q = vertical_queries(&set, 1, 10, 4)[0];
        let out = db.query_batch_canonical_mode(&[(q, QueryMode::Count)]);
        let (_, trace) = out[0].as_ref().unwrap();
        assert_eq!(trace.batch_id, 0);
        assert_eq!(trace.batch_size, 0);
    }
}
