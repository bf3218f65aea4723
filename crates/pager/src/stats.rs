//! I/O accounting.
//!
//! Every complexity claim in the paper is a statement about the number of
//! block transfers, so the counters here are the primary measurement
//! instrument of the whole reproduction. Two banks record every event:
//!
//! * the pager's own tally of `Io` events — relaxed atomics, so totals
//!   stay exact when many threads query one database over a shared
//!   reference;
//! * a **per-thread** bank ([`thread_io`]) — plain `Cell`s in a
//!   thread-local, so a [`StatScope`] around one query measures exactly
//!   that thread's I/O even while other worker threads hammer the same
//!   pager. This is what keeps `QueryTrace.io` truthful under the
//!   concurrent serving path (`segdb-server`).
//!
//! On a single thread both banks agree, so all pre-existing
//! deterministic I/O-count experiments are unchanged.

use segdb_obs::tally::Keys;
use segdb_obs::Json;
use std::cell::Cell;
use std::fmt;
use std::ops::{Add, Sub};

segdb_obs::tally! {
    /// The pager events [`IoStats`] counts, in the order the `io` blocks
    /// of a query trace and of a server's `stats` reply list them.
    pub(crate) enum Io: IoTally {
        Read = "reads",
        Write = "writes",
        Hit = "cache_hits",
        Alloc = "allocations",
        Free = "frees",
    }
}

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

    /// One count per [`Io`] event, read through `count`.
    fn read(count: impl Fn(Io) -> u64) -> IoStats {
        IoStats {
            reads: count(Io::Read),
            writes: count(Io::Write),
            allocations: count(Io::Alloc),
            frees: count(Io::Free),
            cache_hits: count(Io::Hit),
        }
    }

    /// `(name, count)` of every count, in the order the `io` blocks of a
    /// query trace and of a server's `stats` reply list them.
    pub fn fields(&self) -> Vec<(&'static str, Json)> {
        let counts = [
            self.reads,
            self.writes,
            self.cache_hits,
            self.allocations,
            self.frees,
        ];
        Io::NAMES
            .iter()
            .zip(counts)
            .map(|(&name, n)| (name, Json::U64(n)))
            .collect()
    }

    /// A snapshot of a pager's tally.
    pub(crate) fn of(tally: &IoTally) -> IoStats {
        IoStats::read(|k| tally.get(k))
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

thread_local! {
    /// The calling thread's bank: one plain cell per [`Io`] event.
    static THREAD_IO: [Cell<u64>; 5] = Default::default();
}

/// Cumulative I/O performed **by the current thread** since it started
/// (across every pager it touched). [`StatScope`] diffs this, so
/// per-query I/O attribution survives concurrent queries on a shared
/// database.
pub fn thread_io() -> IoStats {
    THREAD_IO.with(|t| IoStats::read(|k| t[k as usize].get()))
}

/// Count one pager event in the pager's `tally` and in the calling
/// thread's bank.
#[inline]
pub(crate) fn record(tally: &IoTally, event: Io) {
    tally.bump(event);
    THREAD_IO.with(|t| t[event as usize].set(t[event as usize].get() + 1));
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
        let c = IoTally::new();
        for event in [Io::Read, Io::Read, Io::Write, Io::Alloc, Io::Free, Io::Hit] {
            record(&c, event);
        }
        let s = IoStats::of(&c);
        assert_eq!(s.reads, 2);
        assert_eq!(s.writes, 1);
        assert_eq!(s.allocations, 1);
        assert_eq!(s.frees, 1);
        assert_eq!(s.cache_hits, 1);
        assert_eq!(s.live_pages(), 0);
        c.reset();
        assert_eq!(IoStats::of(&c), IoStats::default());
    }

    #[test]
    fn fields_and_snapshots_follow_the_declared_names() {
        let s = IoStats {
            reads: 1,
            writes: 2,
            allocations: 3,
            frees: 4,
            cache_hits: 5,
        };
        let c = IoTally::new();
        for (event, n) in [
            (Io::Read, 1),
            (Io::Write, 2),
            (Io::Alloc, 3),
            (Io::Free, 4),
            (Io::Hit, 5),
        ] {
            c.add(event, n);
        }
        assert_eq!(IoStats::of(&c), s);
        assert_eq!(Json::obj(s.fields()), c.to_json());
    }

    #[test]
    fn thread_bank_is_per_thread() {
        let c = std::sync::Arc::new(IoTally::new());
        let before = thread_io();
        let c2 = std::sync::Arc::clone(&c);
        std::thread::spawn(move || {
            for _ in 0..10 {
                record(&c2, Io::Read);
            }
        })
        .join()
        .unwrap();
        // The other thread's reads land in the shared bank but not ours.
        assert_eq!(IoStats::of(&c).reads, 10);
        assert_eq!(thread_io().reads, before.reads);
    }
}
