//! The closed loop: a fixed number of ops handed out to the client
//! threads, and what each thread measured.
//!
//! Every client this repo ships blocks on each reply, so the loop is
//! closed: a thread takes its next unit only after the previous one
//! completed. Units are handed out from one shared counter.

use crate::inputs::{mode_index, POOL};
use crate::stats::Samples;
use segdb_core::QueryMode;
use segdb_pager::IoStats;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

/// Client threads / connections: one process, at most four.
pub fn client_threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(4)
}

/// Ops of a timed phase: op counts are fixed, not durations, so every
/// count of a run repeats exactly and a faster program just finishes
/// sooner. `ops_per_s` is the workload's frozen rate (what the 2-core
/// reference box did on the commit that defined the benchmark), so the
/// phase lasts about `seconds` there. Whole passes of the 4096-op cycle,
/// at least one: every pass costs the same pages, so `pages_per_query`
/// does not depend on `seconds` either.
pub fn timed_ops(ops_per_s: u64, seconds: f64) -> u64 {
    let passes = (ops_per_s as f64 * seconds / POOL as f64).round() as u64;
    passes.max(1) * POOL as u64
}

/// Hands out each unit of a range once, to whichever thread asks next.
#[derive(Debug)]
pub struct Units {
    next: AtomicU64,
    end: u64,
}

impl Units {
    pub fn new(range: Range<u64>) -> Units {
        Units {
            next: AtomicU64::new(range.start),
            end: range.end,
        }
    }

    pub fn take(&self) -> Option<u64> {
        let u = self.next.fetch_add(1, Ordering::SeqCst);
        (u < self.end).then_some(u)
    }
}

/// What one client thread measured.
#[derive(Debug)]
pub struct Tally {
    /// Read latencies as the caller saw them, by mode.
    reads: [Samples; 4],
    /// Ack latencies of writes during which no fold ran.
    pub writes: Samples,
    /// Ack latencies of the writes that ran a fold.
    pub fold_writes: Samples,
    pub attempted: u64,
    pub failed: u64,
    /// Logical page accesses and device reads of the reads, where the
    /// reply carries them (embedded rows).
    pub pages: u64,
    pub device_reads: u64,
    /// Time spent inside calls into the system (a batch counts once).
    pub busy_ns: u64,
    /// Pool entries of the first wrong replies, for the report.
    pub wrong: Vec<usize>,
}

impl Tally {
    /// `ops`: how many ops the phase runs, so that the timed loop does
    /// not reallocate.
    pub fn with_capacity(ops: u64) -> Tally {
        let per_mode = ops as usize / 4 + 1;
        Tally {
            reads: std::array::from_fn(|_| Samples::with_capacity(per_mode)),
            writes: Samples::with_capacity(per_mode),
            fold_writes: Samples::with_capacity(64),
            attempted: 0,
            failed: 0,
            pages: 0,
            device_reads: 0,
            busy_ns: 0,
            wrong: Vec::new(),
        }
    }

    /// Add one read's page accounting: logical accesses are device
    /// reads plus buffer-pool hits (pinned-tier hits are a subset of
    /// the hits, and nothing is pinned here).
    pub fn count_io(&mut self, io: IoStats) {
        self.pages += io.reads + io.cache_hits;
        self.device_reads += io.reads;
    }

    /// Record one verified read of pool entry `index`.
    pub fn read(&mut self, index: usize, mode: QueryMode, ns: u64, ok: bool) {
        self.reads[mode_index(mode)].push(ns);
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.wrong.len() < 8 {
                self.wrong.push(index);
            }
        }
    }

    pub fn absorb(&mut self, other: Tally) {
        for (mine, theirs) in self.reads.iter_mut().zip(other.reads) {
            mine.absorb(theirs);
        }
        self.writes.absorb(other.writes);
        self.fold_writes.absorb(other.fold_writes);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.pages += other.pages;
        self.device_reads += other.device_reads;
        self.busy_ns += other.busy_ns;
        self.wrong.extend(other.wrong);
    }

    pub fn read_count(&self) -> u64 {
        self.reads.iter().map(|s| s.len() as u64).sum()
    }

    /// Median latency of `mode`'s reads in µs.
    pub fn mode_p50_us(&mut self, mode: QueryMode) -> f64 {
        self.reads[mode_index(mode)].percentile_us(50.0)
    }

    /// p99 over all reads in µs. Consumes the samples.
    pub fn p99_us(&mut self) -> f64 {
        let mut all = Samples::with_capacity(self.read_count() as usize);
        for s in std::mem::take(&mut self.reads) {
            all.absorb(s);
        }
        all.percentile_us(99.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_counts_are_whole_passes_fixed_by_rate_and_seconds() {
        assert_eq!(timed_ops(5500, 15.0), 20 * 4096);
        assert_eq!(timed_ops(5500, 1.5), 2 * 4096);
        // Never less than one pass, however short the run.
        assert_eq!(timed_ops(2300, 0.5), 4096);
        assert_eq!(timed_ops(2300, 0.0), 4096);
    }

    #[test]
    fn several_threads_take_each_unit_once() {
        let units = Units::new(100..1124);
        let taken: Vec<Vec<u64>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| s.spawn(|| std::iter::from_fn(|| units.take()).collect::<Vec<u64>>()))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let mut all: Vec<u64> = taken.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (100..1124).collect::<Vec<u64>>());
        assert_eq!(units.take(), None);
    }

    #[test]
    fn tallies_merge() {
        let mut a = Tally::with_capacity(4);
        let mut b = Tally::with_capacity(4);
        a.read(0, QueryMode::Count, 10_000, true);
        b.read(5, QueryMode::Count, 30_000, false);
        b.read(8, QueryMode::Collect, 50_000, true);
        a.absorb(b);
        assert_eq!((a.attempted, a.failed, a.read_count()), (3, 1, 3));
        assert_eq!(a.wrong, [5]);
        assert_eq!(a.mode_p50_us(QueryMode::Count), 10.0);
        assert_eq!(a.mode_p50_us(QueryMode::Exists), 0.0);
        assert_eq!(a.p99_us(), 50.0);
    }
}
