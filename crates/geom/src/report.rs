//! Streaming report sinks — the push-based half of the read path.
//!
//! The paper states every query bound in output-sensitive form
//! (`O(… + t)` I/Os to report `t` results); a read path that buffers the
//! whole answer as a `Vec` at every layer loses that spirit the moment a
//! caller only wants a count, an existence bit, or the first `k` hits.
//! [`ReportSink`] is the streaming contract every index layer pushes
//! into:
//!
//! * [`ReportSink::report`] receives one segment and steers the
//!   traversal with [`ControlFlow`] — `Break` aborts the walk (early
//!   exit for exists/limit queries);
//! * [`ReportSink::want_segments`] hints whether the sink needs the
//!   segments themselves. When it returns `false`, a layer that knows a
//!   whole subtree/run matches may call [`ReportSink::report_count`]
//!   with the stored count instead of reading the pages — the
//!   count-from-headers fast path;
//! * [`ReportSink::report_count`] adds `n` matching segments in bulk.
//!   Layers only call it when `want_segments()` is `false`.
//!
//! The four standard sinks mirror the query modes: [`CollectSink`]
//! (classic `Vec` answer), [`CountSink`], [`ExistsSink`] and
//! [`LimitSink`].

use crate::query::VerticalQuery;
use crate::segment::Segment;
use std::ops::ControlFlow;

/// Streaming receiver for query results. See module docs for the
/// contract between sinks and index layers.
pub trait ReportSink {
    /// Receive one reported segment. Return `ControlFlow::Break(())` to
    /// abort the traversal early (the layer stops reading pages).
    fn report(&mut self, seg: &Segment) -> ControlFlow<()>;

    /// Does this sink need the actual segments? `false` permits layers
    /// to answer from stored subtree counts via
    /// [`ReportSink::report_count`] without reading the pages.
    fn want_segments(&self) -> bool {
        true
    }

    /// Add `n` matching segments in bulk without materializing them.
    /// Called only when [`ReportSink::want_segments`] is `false`; the
    /// default ignores the count and continues (segment-wanting sinks
    /// never see this call).
    fn report_count(&mut self, _n: u64) -> ControlFlow<()> {
        ControlFlow::Continue(())
    }
}

/// Adapter preserving the classic `Vec<Segment>` API: collects every
/// reported segment, never breaks.
#[derive(Debug, Default)]
pub struct CollectSink {
    /// The collected answer.
    pub out: Vec<Segment>,
}

impl CollectSink {
    /// Fresh empty sink.
    pub fn new() -> Self {
        CollectSink::default()
    }

    /// The collected segments.
    pub fn into_vec(self) -> Vec<Segment> {
        self.out
    }
}

impl ReportSink for CollectSink {
    fn report(&mut self, seg: &Segment) -> ControlFlow<()> {
        self.out.push(*seg);
        ControlFlow::Continue(())
    }
}

/// Counts matches; lets layers add whole subtrees from stored counts.
#[derive(Debug, Default)]
pub struct CountSink {
    /// Matching segments seen so far.
    pub count: u64,
}

impl CountSink {
    /// Fresh zeroed sink.
    pub fn new() -> Self {
        CountSink::default()
    }
}

impl ReportSink for CountSink {
    fn report(&mut self, _seg: &Segment) -> ControlFlow<()> {
        self.count += 1;
        ControlFlow::Continue(())
    }

    fn want_segments(&self) -> bool {
        false
    }

    fn report_count(&mut self, n: u64) -> ControlFlow<()> {
        self.count += n;
        ControlFlow::Continue(())
    }
}

/// Stops the traversal at the first match.
#[derive(Debug, Default)]
pub struct ExistsSink {
    /// Whether any segment matched.
    pub found: bool,
}

impl ExistsSink {
    /// Fresh negative sink.
    pub fn new() -> Self {
        ExistsSink::default()
    }
}

impl ReportSink for ExistsSink {
    fn report(&mut self, _seg: &Segment) -> ControlFlow<()> {
        self.found = true;
        ControlFlow::Break(())
    }

    fn want_segments(&self) -> bool {
        false
    }

    fn report_count(&mut self, n: u64) -> ControlFlow<()> {
        if n > 0 {
            self.found = true;
            return ControlFlow::Break(());
        }
        ControlFlow::Continue(())
    }
}

/// Collects up to `k` segments, then breaks. Which `k` of the answer
/// arrive is traversal-order dependent (any `k` matching segments).
#[derive(Debug)]
pub struct LimitSink {
    /// The collected prefix of the answer.
    pub out: Vec<Segment>,
    k: usize,
}

impl LimitSink {
    /// Sink stopping after `k` segments.
    pub fn new(k: usize) -> Self {
        LimitSink {
            out: Vec::with_capacity(k.min(1024)),
            k,
        }
    }

    /// The collected segments.
    pub fn into_vec(self) -> Vec<Segment> {
        self.out
    }
}

impl ReportSink for LimitSink {
    fn report(&mut self, seg: &Segment) -> ControlFlow<()> {
        if self.out.len() >= self.k {
            return ControlFlow::Break(());
        }
        self.out.push(*seg);
        if self.out.len() >= self.k {
            return ControlFlow::Break(());
        }
        ControlFlow::Continue(())
    }
}

/// One query's position inside a [`MultiSink`] batch.
struct MultiSlot<'a> {
    /// The query predicate, in the index's canonical frame.
    query: VerticalQuery,
    /// Where this query's hits go.
    sink: &'a mut dyn ReportSink,
    /// The sink broke (early exit) — stop routing to it.
    done: bool,
}

/// The slots of a group walk — the way every query reads an index, a
/// single query being a group of one: one shared page traversal feeds
/// the per-query sinks. Each reported segment is routed to the subset of
/// *active* slots whose predicate matches; a slot whose sink returns
/// `Break` (exists satisfied, limit reached) is retired individually,
/// and the walk as a whole is told to stop only when **every** slot has
/// retired — so one query's early exit never truncates a batchmate's
/// answer, while a fully satisfied batch stops charging pages at once.
///
/// Layers that already know which query a page serves can address slots
/// directly ([`MultiSink::report`]/[`MultiSink::report_count`]);
/// scan-shaped layers route by predicate with [`MultiSink::offer`].
pub struct MultiSink<'a> {
    slots: Vec<MultiSlot<'a>>,
    active: usize,
}

impl<'a> MultiSink<'a> {
    /// Empty batch.
    pub fn new() -> Self {
        MultiSink {
            slots: Vec::new(),
            active: 0,
        }
    }

    /// Add one query/sink pair; returns its slot index.
    pub fn push(&mut self, query: VerticalQuery, sink: &'a mut dyn ReportSink) -> usize {
        self.slots.push(MultiSlot {
            query,
            sink,
            done: false,
        });
        self.active += 1;
        self.slots.len() - 1
    }

    /// Number of slots in the batch.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when the batch holds no slots at all.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Slot `i`'s query predicate.
    #[inline]
    pub fn query(&self, i: usize) -> &VerticalQuery {
        &self.slots[i].query
    }

    /// Is slot `i` still accepting results?
    #[inline]
    pub fn is_active(&self, i: usize) -> bool {
        !self.slots[i].done
    }

    /// Slots still accepting results.
    pub fn active_count(&self) -> usize {
        self.active
    }

    /// Every slot has retired — the shared walk may stop reading pages.
    pub fn all_done(&self) -> bool {
        self.active == 0
    }

    /// Does slot `i` need actual segments (false ⇒ the layer may answer
    /// it from stored subtree counts)?
    #[inline]
    pub fn want_segments(&self, i: usize) -> bool {
        self.slots[i].sink.want_segments()
    }

    /// Retire slot `i` without reporting (the layer proved it can get
    /// nothing more — e.g. its subtree is exhausted).
    #[inline]
    pub fn retire(&mut self, i: usize) {
        if !self.slots[i].done {
            self.slots[i].done = true;
            self.active -= 1;
        }
    }

    /// Report one segment to slot `i`. `Break` means *this slot* is
    /// done; the shared walk keeps going while other slots are active.
    #[inline]
    pub fn report(&mut self, i: usize, seg: &Segment) -> ControlFlow<()> {
        if self.slots[i].done {
            return ControlFlow::Break(());
        }
        let flow = self.slots[i].sink.report(seg);
        if flow.is_break() {
            self.retire(i);
        }
        flow
    }

    /// Bulk-count `n` matches into slot `i` (only meaningful when
    /// [`MultiSink::want_segments`] is false for it).
    #[inline]
    pub fn report_count(&mut self, i: usize, n: u64) -> ControlFlow<()> {
        if self.slots[i].done {
            return ControlFlow::Break(());
        }
        let flow = self.slots[i].sink.report_count(n);
        if flow.is_break() {
            self.retire(i);
        }
        flow
    }

    /// Route `seg` to every active slot whose predicate matches — the
    /// scan-shaped entry point. Returns `Break` once every slot has
    /// retired (the caller may stop its scan).
    pub fn offer(&mut self, seg: &Segment) -> ControlFlow<()> {
        for i in 0..self.slots.len() {
            if !self.slots[i].done && self.slots[i].query.hits(seg) {
                let _ = self.report(i, seg);
            }
        }
        if self.all_done() {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    }
}

impl Default for MultiSink<'_> {
    fn default() -> Self {
        MultiSink::new()
    }
}

/// A bare `Vec<Segment>` is the minimal collecting sink — lets the
/// classic `*_into(..., out: &mut Vec<Segment>)` APIs delegate to the
/// sink path without an adapter struct.
impl ReportSink for Vec<Segment> {
    fn report(&mut self, seg: &Segment) -> ControlFlow<()> {
        self.push(*seg);
        ControlFlow::Continue(())
    }
}

/// Forward to a sink behind a mutable reference (layers take
/// `&mut dyn ReportSink`, wrappers need to re-lend).
impl ReportSink for &mut dyn ReportSink {
    fn report(&mut self, seg: &Segment) -> ControlFlow<()> {
        (**self).report(seg)
    }
    fn want_segments(&self) -> bool {
        (**self).want_segments()
    }
    fn report_count(&mut self, n: u64) -> ControlFlow<()> {
        (**self).report_count(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(id: u64) -> Segment {
        Segment::new(id, (0, id as i64), (10, id as i64)).unwrap()
    }

    #[test]
    fn collect_gathers_everything() {
        let mut s = CollectSink::new();
        for i in 0..5 {
            assert_eq!(s.report(&seg(i)), ControlFlow::Continue(()));
        }
        assert!(s.want_segments());
        assert_eq!(s.into_vec().len(), 5);
    }

    #[test]
    fn count_accepts_bulk() {
        let mut s = CountSink::new();
        assert!(!s.want_segments());
        let _ = s.report(&seg(0));
        let _ = s.report_count(41);
        assert_eq!(s.count, 42);
    }

    #[test]
    fn exists_breaks_immediately() {
        let mut s = ExistsSink::new();
        assert_eq!(s.report_count(0), ControlFlow::Continue(()));
        assert!(!s.found);
        assert_eq!(s.report(&seg(1)), ControlFlow::Break(()));
        assert!(s.found);
        let mut s2 = ExistsSink::new();
        assert_eq!(s2.report_count(3), ControlFlow::Break(()));
        assert!(s2.found);
    }

    #[test]
    fn limit_stops_at_k() {
        let mut s = LimitSink::new(2);
        assert_eq!(s.report(&seg(0)), ControlFlow::Continue(()));
        assert_eq!(s.report(&seg(1)), ControlFlow::Break(()));
        assert_eq!(s.report(&seg(2)), ControlFlow::Break(()));
        assert_eq!(s.into_vec().len(), 2);
    }

    #[test]
    fn zero_limit_reports_nothing() {
        let mut s = LimitSink::new(0);
        assert_eq!(s.report(&seg(0)), ControlFlow::Break(()));
        assert!(s.out.is_empty());
    }

    #[test]
    fn multi_sink_routes_by_predicate_and_isolates_early_exit() {
        // Horizontal segments at y = id crossing x ∈ [0, 10].
        let mut collect = CollectSink::new();
        let mut exists = ExistsSink::new();
        let mut multi = MultiSink::new();
        let a = multi.push(VerticalQuery::segment(5, 0, 10), &mut collect);
        let b = multi.push(VerticalQuery::segment(5, 2, 3), &mut exists);
        assert_eq!(multi.len(), 2);
        assert_eq!(multi.active_count(), 2);
        // y=1 hits only the tall query.
        assert_eq!(multi.offer(&seg(1)), ControlFlow::Continue(()));
        assert!(multi.is_active(a) && multi.is_active(b));
        // y=2 hits both; the exists sink breaks and retires alone.
        assert_eq!(multi.offer(&seg(2)), ControlFlow::Continue(()));
        assert!(multi.is_active(a));
        assert!(!multi.is_active(b), "exists retired after first hit");
        assert_eq!(multi.active_count(), 1);
        // Further matches keep flowing to the survivor only.
        assert_eq!(multi.offer(&seg(3)), ControlFlow::Continue(()));
        multi.retire(a);
        assert!(multi.all_done());
        assert_eq!(multi.offer(&seg(4)), ControlFlow::Break(()));
        drop(multi);
        assert_eq!(
            collect.out.iter().map(|s| s.id).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        assert!(exists.found);
    }

    #[test]
    fn multi_sink_slot_addressed_reports_and_counts() {
        let mut count = CountSink::new();
        let mut limit = LimitSink::new(1);
        let mut multi = MultiSink::new();
        let c = multi.push(VerticalQuery::Line { x: 5 }, &mut count);
        let l = multi.push(VerticalQuery::Line { x: 5 }, &mut limit);
        assert!(!multi.want_segments(c), "count answers from stored totals");
        assert!(multi.want_segments(l));
        assert_eq!(multi.report_count(c, 7), ControlFlow::Continue(()));
        assert_eq!(multi.report(l, &seg(9)), ControlFlow::Break(()));
        assert!(!multi.is_active(l));
        // A retired slot swallows further reports as Break.
        assert_eq!(multi.report(l, &seg(10)), ControlFlow::Break(()));
        multi.retire(c);
        drop(multi);
        assert_eq!(count.count, 7);
        assert_eq!(limit.out.len(), 1);
    }
}
