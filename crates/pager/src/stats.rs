//! I/O accounting.
//!
//! Every complexity claim in the paper is a statement about the number of
//! block transfers, so the counters here are the primary measurement
//! instrument of the whole reproduction. Two banks record every event:
//!
//! * the pager's own `Counters` — relaxed atomics, so totals stay exact
//!   when many threads query one database over a shared reference;
//! * a **per-thread** bank ([`thread_io`]) — plain `Cell`s in a
//!   thread-local, so a [`StatScope`] around one query measures exactly
//!   that thread's I/O even while other worker threads hammer the same
//!   pager. This is what keeps `QueryTrace.io` truthful under the
//!   concurrent serving path (`segdb-server`).
//!
//! On a single thread both banks agree, so all pre-existing
//! deterministic I/O-count experiments are unchanged.

use std::cell::Cell;
use std::fmt;
use std::ops::{Add, Sub};
use std::sync::atomic::{AtomicU64, Ordering};

/// Snapshot of I/O activity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IoStats {
    /// Physical page reads (cache hits are *not* reads).
    pub reads: u64,
    /// Physical page writes.
    pub writes: u64,
    /// Pages newly allocated (an allocation is also counted as a write of
    /// the zeroed page image when it is first materialized by the caller,
    /// not here).
    pub allocations: u64,
    /// Pages returned to the free list.
    pub frees: u64,
    /// Reads satisfied by the buffer pool without touching the disk.
    pub cache_hits: u64,
}

impl IoStats {
    /// Total physical transfers — the paper's "I/O operations".
    #[inline]
    pub fn total_io(&self) -> u64 {
        self.reads + self.writes
    }

    /// Pages currently attributable to the structure (allocs − frees).
    #[inline]
    pub fn live_pages(&self) -> i64 {
        self.allocations as i64 - self.frees as i64
    }
}

impl Add for IoStats {
    type Output = IoStats;
    fn add(self, rhs: IoStats) -> IoStats {
        IoStats {
            reads: self.reads + rhs.reads,
            writes: self.writes + rhs.writes,
            allocations: self.allocations + rhs.allocations,
            frees: self.frees + rhs.frees,
            cache_hits: self.cache_hits + rhs.cache_hits,
        }
    }
}

impl Sub for IoStats {
    type Output = IoStats;
    fn sub(self, rhs: IoStats) -> IoStats {
        IoStats {
            reads: self.reads - rhs.reads,
            writes: self.writes - rhs.writes,
            allocations: self.allocations - rhs.allocations,
            frees: self.frees - rhs.frees,
            cache_hits: self.cache_hits - rhs.cache_hits,
        }
    }
}

impl fmt::Display for IoStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "reads={} writes={} allocs={} frees={} hits={}",
            self.reads, self.writes, self.allocations, self.frees, self.cache_hits
        )
    }
}

#[derive(Default)]
struct ThreadBank {
    reads: Cell<u64>,
    writes: Cell<u64>,
    allocations: Cell<u64>,
    frees: Cell<u64>,
    cache_hits: Cell<u64>,
}

thread_local! {
    static THREAD_IO: ThreadBank = ThreadBank::default();
}

/// Cumulative I/O performed **by the current thread** since it started
/// (across every pager it touched). [`StatScope`] diffs this, so
/// per-query I/O attribution survives concurrent queries on a shared
/// database.
pub fn thread_io() -> IoStats {
    THREAD_IO.with(|t| IoStats {
        reads: t.reads.get(),
        writes: t.writes.get(),
        allocations: t.allocations.get(),
        frees: t.frees.get(),
        cache_hits: t.cache_hits.get(),
    })
}

macro_rules! bump_thread {
    ($field:ident) => {
        THREAD_IO.with(|t| t.$field.set(t.$field.get() + 1))
    };
}

/// Interior-mutable counter bank owned by the pager. Relaxed atomics:
/// exact totals, no ordering guarantees needed (snapshots are advisory
/// aggregates, never synchronization points).
#[derive(Debug, Default)]
pub(crate) struct Counters {
    reads: AtomicU64,
    writes: AtomicU64,
    allocations: AtomicU64,
    frees: AtomicU64,
    cache_hits: AtomicU64,
}

impl Counters {
    #[inline]
    pub fn record_read(&self) {
        self.reads.fetch_add(1, Ordering::Relaxed);
        bump_thread!(reads);
    }
    #[inline]
    pub fn record_write(&self) {
        self.writes.fetch_add(1, Ordering::Relaxed);
        bump_thread!(writes);
    }
    #[inline]
    pub fn record_alloc(&self) {
        self.allocations.fetch_add(1, Ordering::Relaxed);
        bump_thread!(allocations);
    }
    #[inline]
    pub fn record_free(&self) {
        self.frees.fetch_add(1, Ordering::Relaxed);
        bump_thread!(frees);
    }
    #[inline]
    pub fn record_hit(&self) {
        self.cache_hits.fetch_add(1, Ordering::Relaxed);
        bump_thread!(cache_hits);
    }

    pub fn snapshot(&self) -> IoStats {
        IoStats {
            reads: self.reads.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            allocations: self.allocations.load(Ordering::Relaxed),
            frees: self.frees.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
        }
    }

    pub fn reset(&self) {
        self.reads.store(0, Ordering::Relaxed);
        self.writes.store(0, Ordering::Relaxed);
        self.allocations.store(0, Ordering::Relaxed);
        self.frees.store(0, Ordering::Relaxed);
        self.cache_hits.store(0, Ordering::Relaxed);
    }
}

/// Measures the I/O performed between construction and [`StatScope::finish`]
/// **on the current thread**. Single-threaded this equals the pager-level
/// delta; under concurrent queries it isolates the calling thread's I/O
/// from every other worker's.
///
/// ```
/// use segdb_pager::{Pager, PagerConfig, StatScope};
/// let pager = Pager::new(PagerConfig::default());
/// let id = pager.allocate().unwrap();
/// let scope = StatScope::begin(&pager);
/// pager.with_page(id, |_| ()).unwrap();
/// let delta = scope.finish();
/// assert_eq!(delta.reads, 1);
/// ```
#[must_use = "a StatScope measures nothing unless finished"]
pub struct StatScope<'p> {
    _pager: &'p crate::Pager,
    start: IoStats,
}

impl<'p> StatScope<'p> {
    /// Start measuring on `pager`.
    pub fn begin(pager: &'p crate::Pager) -> Self {
        StatScope {
            _pager: pager,
            start: thread_io(),
        }
    }

    /// Stop measuring and return the I/O performed inside the scope.
    pub fn finish(self) -> IoStats {
        thread_io() - self.start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_sub_roundtrip() {
        let a = IoStats {
            reads: 5,
            writes: 3,
            allocations: 2,
            frees: 1,
            cache_hits: 7,
        };
        let b = IoStats {
            reads: 1,
            writes: 1,
            allocations: 1,
            frees: 0,
            cache_hits: 2,
        };
        assert_eq!((a + b) - b, a);
        assert_eq!((a + b).total_io(), 10);
    }

    #[test]
    fn counters_accumulate() {
        let c = Counters::default();
        c.record_read();
        c.record_read();
        c.record_write();
        c.record_alloc();
        c.record_free();
        c.record_hit();
        let s = c.snapshot();
        assert_eq!(s.reads, 2);
        assert_eq!(s.writes, 1);
        assert_eq!(s.allocations, 1);
        assert_eq!(s.frees, 1);
        assert_eq!(s.cache_hits, 1);
        assert_eq!(s.live_pages(), 0);
        c.reset();
        assert_eq!(c.snapshot(), IoStats::default());
    }

    #[test]
    fn thread_bank_is_per_thread() {
        let c = std::sync::Arc::new(Counters::default());
        let before = thread_io();
        let c2 = std::sync::Arc::clone(&c);
        std::thread::spawn(move || {
            for _ in 0..10 {
                c2.record_read();
            }
        })
        .join()
        .unwrap();
        // The other thread's reads land in the shared bank but not ours.
        assert_eq!(c.snapshot().reads, 10);
        assert_eq!(thread_io().reads, before.reads);
    }
}
