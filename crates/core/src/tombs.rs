//! Lazy deletes, the one way both two-level structures delete: [`Lazy`],
//! the one owner of their live count and tombstones.
//!
//! A deleted segment stays in the index pages, hidden from every read:
//! resident in a [`Hidden`] set each group walk hands to [`Slots`],
//! durable in a [`chain`] that only `attach` and `validate` read back. A
//! tombstone names the whole stored segment, so two may share an id.
//! Showing one again records it once more: a segment recorded an odd
//! number of times is hidden, whatever the order of the records, which
//! [`chain::push`] does not keep across pages. The hidden segments stay
//! in the pages, so what the pages store must stay NCT.

use crate::batch::{holds, one_slot, Hidden, Slots, NO_HIDDEN};
use crate::chain;
use crate::report::QueryTrace;
use segdb_geom::{MultiSink, ReportSink, Segment, VerticalQuery};
use segdb_pager::{PageId, Pager, PagerError, Result, StatScope, NULL_PAGE};
use segdb_pst::BatchQuery;

/// What a two-level structure supplies to [`Lazy`]: its pages, which
/// hold every stored segment, hidden ones included.
pub(crate) trait Pages: std::fmt::Debug + Send + Sync {
    fn root(&self) -> PageId;
    /// The group walk every read takes: `group` in abscissa order, hits
    /// delivered through `slots`.
    fn walk_group(
        &self,
        pager: &Pager,
        slots: &mut Slots<'_, '_>,
        group: &mut [BatchQuery],
        trace: &mut QueryTrace,
    ) -> Result<()>;
    /// The insert's descent, partial rebuilds included.
    fn store(&mut self, pager: &Pager, seg: Segment) -> Result<()>;
    /// New pages holding `segs`.
    fn build(&mut self, pager: &Pager, segs: Vec<Segment>) -> Result<()>;
    fn collect(&self, pager: &Pager) -> Result<Vec<Segment>>;
    /// Free every page.
    fn destroy(&mut self, pager: &Pager) -> Result<()>;
    /// Check every invariant of the pages; returns the stored count.
    fn validate(&self, pager: &Pager) -> Result<u64>;
}

/// A two-level structure that deletes lazily: its pages, its live
/// count and its tombstones, every decision about which is made here.
/// [`crate::TwoLevelBinary`] and [`crate::TwoLevelInterval`] are its two
/// instances.
#[derive(Debug)]
pub struct Lazy<P: ?Sized> {
    /// Live (stored, not hidden) segment count.
    len: u64,
    hidden: Hidden,
    /// The tombstone chain, and the records in it.
    head: PageId,
    records: u64,
    pub(crate) pages: P,
}

/// What the chain at `head` hides — every segment recorded an odd
/// number of times — and its record count.
fn replay(pager: &Pager, head: PageId) -> Result<(Hidden, u64)> {
    let (mut hidden, mut records) = (Hidden::new(), 0);
    chain::scan(pager, head, |s| {
        records += 1;
        if !hidden.remove(&s) {
            hidden.insert(s);
        }
    })?;
    Ok((hidden, records))
}

// `Pages` is this crate's own: only its two structures implement it.
#[allow(private_bounds)]
impl<P: Pages> Lazy<P> {
    /// `pages` holding `segs`.
    pub(crate) fn build_over(pager: &Pager, mut pages: P, segs: Vec<Segment>) -> Result<Self> {
        let len = segs.len() as u64;
        pages.build(pager, segs)?;
        Lazy::attach_to(pager, pages, len, NULL_PAGE, 0)
    }

    /// `pages` as a serialized identity ([`Lazy::state`]) left them,
    /// loading the tombstone chain into memory. A record count of 0 means
    /// no chain, whatever `head` says; a chain that does not hold exactly
    /// `records` records is refused, as its parity could be anything.
    pub(crate) fn attach_to(
        pager: &Pager,
        pages: P,
        len: u64,
        head: PageId,
        records: u64,
    ) -> Result<Self> {
        let head = if records == 0 { NULL_PAGE } else { head };
        let (hidden, chained) = replay(pager, head)?;
        if chained != records {
            return Err(PagerError::Corrupt(
                "tombstone chain disagrees with the superblock's tombstone count",
            ));
        }
        Ok(Lazy {
            len,
            hidden,
            head,
            records,
            pages,
        })
    }

    /// Free every page.
    pub fn destroy(mut self, pager: &Pager) -> Result<()> {
        self.pages.destroy(pager)?;
        chain::destroy(pager, self.head)
    }
}

#[allow(private_bounds)]
impl<P: Pages + ?Sized> Lazy<P> {
    /// Serializable identity: `(root page, live count, tombstone chain,
    /// tombstone records)`. The config is context the owner persists
    /// alongside.
    pub fn state(&self) -> (PageId, u64, PageId, u64) {
        (self.pages.root(), self.len, self.head, self.records)
    }

    /// Stored segment count.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Segments currently hidden (live deletes awaiting a rebuild).
    pub fn tomb_count(&self) -> u64 {
        self.hidden.len() as u64
    }

    /// Answer a VS query; returns the hits and the query trace.
    pub fn query(&self, pager: &Pager, q: &VerticalQuery) -> Result<(Vec<Segment>, QueryTrace)> {
        let mut out = Vec::new();
        let trace = self.query_sink(pager, q, &mut out)?;
        Ok((out, trace))
    }

    /// Streaming form of [`Lazy::query`]: a group of one, so every hit is
    /// pushed into `sink` in traversal order and a `Break` stops the walk
    /// where it stands.
    pub fn query_sink(
        &self,
        pager: &Pager,
        q: &VerticalQuery,
        sink: &mut dyn ReportSink,
    ) -> Result<QueryTrace> {
        one_slot(q, sink, |multi| self.query_group(pager, multi, &NO_HIDDEN))
    }

    /// Every slot of `multi` at once, down the structure's group walk,
    /// with the tombstones and the stored segments in `hidden` — a
    /// writer's un-folded deletes — withheld from every slot (see
    /// [`Slots`]).
    pub(crate) fn query_group(
        &self,
        pager: &Pager,
        multi: &mut MultiSink<'_>,
        hidden: &Hidden,
    ) -> Result<QueryTrace> {
        let scope = StatScope::begin(pager);
        let mut trace = QueryTrace::default();
        let mut slots = Slots::new(multi, [&self.hidden, hidden]);
        let mut group = slots.probes();
        (self.pages).walk_group(pager, &mut slots, &mut group, &mut trace)?;
        trace.io = scope.finish();
        Ok(trace)
    }

    /// Insert `seg`; the stored set must stay NCT (caller's contract). A
    /// hidden segment inserted exactly as it was is shown again by one
    /// chain record. One that crosses or collinearly overlaps a hidden
    /// segment purges every tombstone first, by a rebuild from the live
    /// set; that test reads no page. Anything else, whatever its id, takes
    /// the structure's own descent.
    pub fn insert(&mut self, pager: &Pager, seg: Segment) -> Result<()> {
        if self.hidden.contains(&seg) {
            self.record(pager, &seg)?;
        } else {
            if self.hidden.crossed_by(&seg) {
                self.rebuild_live(pager)?;
            }
            self.pages.store(pager, seg)?;
        }
        self.len += 1;
        Ok(())
    }

    /// Delete a stored segment (id and geometry must both match) — one
    /// membership probe ([`holds`]: the point query at its left endpoint,
    /// shaped like the insert's descent) and one chain record. The whole
    /// structure is rebuilt from the live set once the chain's records
    /// reach the live count. Returns whether the segment was present.
    pub fn remove(&mut self, pager: &Pager, seg: &Segment) -> Result<bool> {
        if !holds(seg, |multi| self.query_group(pager, multi, &NO_HIDDEN))? {
            return Ok(false);
        }
        self.record(pager, seg)?;
        self.len -= 1;
        if self.records >= self.len.max(1) {
            self.rebuild_live(pager)?;
        }
        Ok(true)
    }

    /// Flip `seg` between hidden and shown: one chain record.
    fn record(&mut self, pager: &Pager, seg: &Segment) -> Result<()> {
        self.head = chain::push(pager, self.head, seg)?;
        self.records += 1;
        if !self.hidden.remove(seg) {
            self.hidden.insert(*seg);
        }
        Ok(())
    }

    /// Fold every tombstone away now (rebuild from the live set) instead
    /// of waiting for the `records ≥ len` trigger — the background
    /// compaction entry point. Returns whether a rebuild ran.
    pub fn compact(&mut self, pager: &Pager) -> Result<bool> {
        let ran = self.records > 0;
        if ran {
            self.rebuild_live(pager)?;
        }
        Ok(ran)
    }

    /// Rebuild from the live set, dropping every tombstone.
    fn rebuild_live(&mut self, pager: &Pager) -> Result<()> {
        let live = self.scan_all(pager)?;
        self.pages.destroy(pager)?;
        chain::destroy(pager, self.head)?;
        (self.hidden, self.head, self.records) = (Hidden::new(), NULL_PAGE, 0);
        self.pages.build(pager, live)
    }

    /// Every stored live segment.
    pub fn scan_all(&self, pager: &Pager) -> Result<Vec<Segment>> {
        let mut out = self.pages.collect(pager)?;
        out.retain(|s| !self.hidden.contains(s));
        Ok(out)
    }

    /// Deep validation: every invariant of the pages, the stored count
    /// against the live and hidden ones, and the resident tombstones
    /// against their chain.
    pub fn validate(&self, pager: &Pager) -> Result<()> {
        if self.pages.validate(pager)? != self.len + self.tomb_count() {
            return Err(PagerError::Corrupt(
                "stored count is not the live plus the hidden count",
            ));
        }
        let (chained, records) = replay(pager, self.head)?;
        if records != self.records || !chained.iter().eq(self.hidden.iter()) {
            return Err(PagerError::Corrupt(
                "resident tombstones disagree with the tombstone chain",
            ));
        }
        Ok(())
    }
}
