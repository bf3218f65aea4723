//! Thread-local, ring-buffered span/event tracing.
//!
//! Emit sites are free when tracing is off: [`emit`] is `#[inline]` and
//! its first instruction is a load of a thread-local [`Cell<bool>`] —
//! the compiled pager hot path pays one predictable branch and nothing
//! else (verified by the obs-on/off I/O-equality test in
//! `crates/core/tests/trace_invariants.rs`).
//!
//! Events are fixed-size (`kind` plus two `u64` payload words) and land
//! in a bounded ring per thread; when the ring is full the oldest events
//! are overwritten, so tracing a long workload keeps the *tail*, which
//! is what query debugging wants. [`drain`] hands the buffered events
//! over in emission order and clears the ring.

use std::cell::{Cell, RefCell};

crate::tally! {
    /// What the tracer counts process-wide: the server's `stats` reply
    /// renders [`COUNTS`] as its `trace` block.
    pub enum TraceCount: TraceTally {
        /// Events lost to ring overwrite, across all threads, counted
        /// whenever a thread's ring is drained — so a truncated trace is
        /// detectable even though the rings themselves are thread-local
        /// and ephemeral.
        Dropped = "dropped_events",
    }
}

/// The tracer's process-wide tally.
pub static COUNTS: TraceTally = TraceTally::new();

/// Default ring capacity (events). A query against a million-segment
/// index emits a few hundred events, so the default tail holds many
/// queries.
pub const DEFAULT_CAPACITY: usize = 1 << 16;

/// What happened. Payload meaning per kind is documented on the variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum EventKind {
    /// Pager: physical page read. `a` = page id.
    PageRead,
    /// Pager: physical page write. `a` = page id.
    PageWrite,
    /// Pager: read satisfied by the buffer pool. `a` = page id.
    CacheHit,
    /// Pager: page allocated. `a` = page id.
    PageAlloc,
    /// Pager: page freed. `a` = page id.
    PageFree,
    /// A query began. `a` = query abscissa (as u64 bits of the i64).
    QueryStart,
    /// A query finished. `a` = hits reported.
    QueryEnd,
    /// First-level node of a two-level structure visited. `a` = page id,
    /// `b` = depth (root = 0).
    FirstLevelVisit,
    /// A second-level structure probed (PST, interval set, G list…).
    /// `a` = structure discriminant (see const `PROBE_*`), `b` = page id
    /// of its root.
    SecondLevelProbe,
    /// Fractional-cascading bridge jump taken (Solution 2). `a` = leaf
    /// page landed on.
    BridgeJump,
    /// PST node visited during `Find`/`Report`. `a` = page id.
    PstNodeVisit,
    /// Interval-tree node visited during a stab/overlap walk. `a` = page
    /// id.
    ItreeNodeVisit,
    /// B⁺-tree node visited during a descent or cursor walk. `a` = page
    /// id.
    BptreeNodeVisit,
}

/// `SecondLevelProbe` discriminants (`a` payload).
pub mod probe {
    /// Interval set `C(v)` / `C_i` (on-line verticals).
    pub const C_SET: u64 = 1;
    /// Left PST `L(v)` / `L_i`.
    pub const L_PST: u64 = 2;
    /// Right PST `R(v)` / `R_i`.
    pub const R_PST: u64 = 3;
    /// Multislab (G) list B⁺-tree.
    pub const G_LIST: u64 = 4;
    /// Stabbing-baseline interval tree.
    pub const STAB_TREE: u64 = 5;
}

/// One traced event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// What happened.
    pub kind: EventKind,
    /// First payload word (see [`EventKind`]).
    pub a: u64,
    /// Second payload word.
    pub b: u64,
}

struct Ring {
    buf: Vec<Event>,
    head: usize,
    len: usize,
    dropped: u64,
}

impl Ring {
    fn with_capacity(cap: usize) -> Ring {
        Ring {
            buf: Vec::with_capacity(cap),
            head: 0,
            len: 0,
            dropped: 0,
        }
    }

    fn push(&mut self, e: Event) {
        let cap = self.buf.capacity().max(1);
        if self.buf.len() < cap {
            self.buf.push(e);
            self.len = self.buf.len();
        } else {
            self.buf[self.head] = e;
            self.head = (self.head + 1) % cap;
            self.dropped += 1;
        }
    }

    fn drain(&mut self) -> (Vec<Event>, u64) {
        let mut out = Vec::with_capacity(self.len);
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        let dropped = self.dropped;
        self.buf.clear();
        self.head = 0;
        self.len = 0;
        self.dropped = 0;
        (out, dropped)
    }
}

thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static RING: RefCell<Ring> = RefCell::new(Ring::with_capacity(DEFAULT_CAPACITY));
}

/// Is tracing on for this thread?
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.with(|e| e.get())
}

/// Turn tracing on or off for this thread. Off is the default; the ring
/// keeps whatever it already holds.
pub fn set_enabled(on: bool) {
    ENABLED.with(|e| e.set(on));
}

/// Run `f` with tracing enabled, restoring the previous state after.
pub fn with_tracing<R>(f: impl FnOnce() -> R) -> R {
    let prev = enabled();
    set_enabled(true);
    let r = f();
    set_enabled(prev);
    r
}

/// Record an event if tracing is enabled. The disabled path is a single
/// thread-local load and branch.
#[inline(always)]
pub fn emit(kind: EventKind, a: u64, b: u64) {
    if enabled() {
        emit_slow(kind, a, b);
    }
}

#[cold]
fn emit_slow(kind: EventKind, a: u64, b: u64) {
    RING.with(|r| r.borrow_mut().push(Event { kind, a, b }));
}

/// Take every buffered event (oldest first) and clear the ring. Also
/// returns how many events were overwritten since the last drain.
pub fn drain() -> (Vec<Event>, u64) {
    let (events, dropped) = RING.with(|r| r.borrow_mut().drain());
    if dropped > 0 {
        COUNTS.add(TraceCount::Dropped, dropped);
    }
    (events, dropped)
}

/// Discard buffered events.
pub fn clear() {
    let _ = drain();
}

/// Aggregated view of a batch of events — the per-query "span summary"
/// the CLI `trace` subcommand and enriched traces report.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct TraceSummary {
    /// Events aggregated.
    pub events: u64,
    /// Events lost to ring overwrite.
    pub dropped: u64,
    /// Physical page reads.
    pub page_reads: u64,
    /// Physical page writes.
    pub page_writes: u64,
    /// Buffer-pool hits.
    pub cache_hits: u64,
    /// Page allocations.
    pub allocs: u64,
    /// Page frees.
    pub frees: u64,
    /// First-level node visits.
    pub first_level_visits: u64,
    /// Second-level probes.
    pub second_level_probes: u64,
    /// Bridge jumps.
    pub bridge_jumps: u64,
    /// PST node visits.
    pub pst_nodes: u64,
    /// Interval-tree node visits.
    pub itree_nodes: u64,
    /// B⁺-tree node visits.
    pub bptree_nodes: u64,
    /// Maximum first-level depth observed.
    pub max_depth: u64,
}

impl TraceSummary {
    /// Aggregate `events` (with `dropped` overwritten before the drain).
    pub fn from_events(events: &[Event], dropped: u64) -> TraceSummary {
        let mut s = TraceSummary {
            events: events.len() as u64,
            dropped,
            ..TraceSummary::default()
        };
        for e in events {
            match e.kind {
                EventKind::PageRead => s.page_reads += 1,
                EventKind::PageWrite => s.page_writes += 1,
                EventKind::CacheHit => s.cache_hits += 1,
                EventKind::PageAlloc => s.allocs += 1,
                EventKind::PageFree => s.frees += 1,
                EventKind::FirstLevelVisit => {
                    s.first_level_visits += 1;
                    s.max_depth = s.max_depth.max(e.b);
                }
                EventKind::SecondLevelProbe => s.second_level_probes += 1,
                EventKind::BridgeJump => s.bridge_jumps += 1,
                EventKind::PstNodeVisit => s.pst_nodes += 1,
                EventKind::ItreeNodeVisit => s.itree_nodes += 1,
                EventKind::BptreeNodeVisit => s.bptree_nodes += 1,
                EventKind::QueryStart | EventKind::QueryEnd => {}
            }
        }
        s
    }

    /// JSON form (schema documented in README "Observability").
    pub fn to_json(&self) -> crate::Json {
        crate::Json::obj([
            ("events", crate::Json::U64(self.events)),
            ("dropped", crate::Json::U64(self.dropped)),
            ("page_reads", crate::Json::U64(self.page_reads)),
            ("page_writes", crate::Json::U64(self.page_writes)),
            ("cache_hits", crate::Json::U64(self.cache_hits)),
            ("allocs", crate::Json::U64(self.allocs)),
            ("frees", crate::Json::U64(self.frees)),
            (
                "first_level_visits",
                crate::Json::U64(self.first_level_visits),
            ),
            (
                "second_level_probes",
                crate::Json::U64(self.second_level_probes),
            ),
            ("bridge_jumps", crate::Json::U64(self.bridge_jumps)),
            ("pst_nodes", crate::Json::U64(self.pst_nodes)),
            ("itree_nodes", crate::Json::U64(self.itree_nodes)),
            ("bptree_nodes", crate::Json::U64(self.bptree_nodes)),
            ("max_depth", crate::Json::U64(self.max_depth)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_emits_nothing() {
        clear();
        assert!(!enabled());
        emit(EventKind::PageRead, 1, 0);
        let (events, dropped) = drain();
        assert!(events.is_empty());
        assert_eq!(dropped, 0);
    }

    #[test]
    fn enabled_records_in_order() {
        clear();
        with_tracing(|| {
            emit(EventKind::QueryStart, 7, 0);
            emit(EventKind::FirstLevelVisit, 3, 0);
            emit(EventKind::FirstLevelVisit, 9, 1);
            emit(EventKind::BridgeJump, 4, 0);
            emit(EventKind::QueryEnd, 2, 0);
        });
        assert!(!enabled(), "with_tracing restores");
        let (events, dropped) = drain();
        assert_eq!(dropped, 0);
        assert_eq!(events.len(), 5);
        assert_eq!(events[0].kind, EventKind::QueryStart);
        let s = TraceSummary::from_events(&events, dropped);
        assert_eq!(s.first_level_visits, 2);
        assert_eq!(s.bridge_jumps, 1);
        assert_eq!(s.max_depth, 1);
    }

    #[test]
    fn ring_overwrites_oldest() {
        clear();
        let before = COUNTS.get(TraceCount::Dropped);
        with_tracing(|| {
            for i in 0..(DEFAULT_CAPACITY as u64 + 10) {
                emit(EventKind::PageRead, i, 0);
            }
        });
        let (events, dropped) = drain();
        assert_eq!(events.len(), DEFAULT_CAPACITY);
        assert_eq!(dropped, 10);
        assert_eq!(events[0].a, 10, "oldest 10 overwritten");
        assert_eq!(events.last().unwrap().a, DEFAULT_CAPACITY as u64 + 9);
        assert!(
            COUNTS.get(TraceCount::Dropped) >= before + 10,
            "drain feeds the process-wide dropped total"
        );
        // The summary carries the figure through to JSON consumers.
        let s = TraceSummary::from_events(&events, dropped);
        assert_eq!(s.to_json().get("dropped"), Some(&crate::Json::U64(10)));
    }
}
