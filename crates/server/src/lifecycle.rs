//! Request-lifecycle observability: per-stage timing histograms and the
//! slow-query log (DESIGN.md §12).
//!
//! Every query the server executes is timed through three stages —
//! **queue wait** (admission to worker pickup), **index walk** (the
//! traversal itself) and **reply write** (serializing the response onto
//! the socket) — plus the pages it touched. The samples land in
//! per-mode log-bucketed [`Histogram`]s (same bucket scheme as the load
//! driver's client-side latencies, so server- and client-observed
//! distributions compare directly) and the K worst requests are kept in
//! a bounded [`SlowLog`], each entry tagged with the client's request
//! `id` so a slow server-side record can be correlated with the
//! client's own log line for the same request.
//!
//! Recording is a short mutex hold around plain-data updates, far off
//! the I/O-bound walk itself — the same locking posture as
//! `segdb_obs::metrics::Registry`.

use segdb_obs::{Histogram, Json};
use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard};

/// One finished request, ready to record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestRecord {
    /// Client-chosen correlation id (echoed on the wire too).
    pub id: Option<u64>,
    /// Wire method, e.g. `query_line` or `trace`.
    pub op: &'static str,
    /// Query-mode key the histograms bucket under (`collect`, `count`,
    /// `exists`, `limit`, or `trace` for traced queries).
    pub mode: &'static str,
    /// Admission → worker pickup, microseconds.
    pub queue_us: u64,
    /// Index walk (execution) duration, microseconds.
    pub exec_us: u64,
    /// Reply serialization + socket write, microseconds.
    pub write_us: u64,
    /// Admission → reply written, microseconds.
    pub total_us: u64,
    /// Pages the walk touched (physical reads + buffer-pool hits).
    pub pages: u64,
    /// Hits the answer witnessed.
    pub hits: u64,
    /// Shared-walk batch this request was executed in (0 = ran alone);
    /// correlate slow batchmates through this id.
    pub batch_id: u64,
    /// Number of requests in that batch (0 = ran alone).
    pub batch_size: u32,
}

/// Per-mode stage histograms.
#[derive(Debug)]
struct ModeStats {
    queue_us: Histogram,
    exec_us: Histogram,
    write_us: Histogram,
    total_us: Histogram,
    pages: Histogram,
}

impl ModeStats {
    fn new() -> ModeStats {
        ModeStats {
            queue_us: Histogram::latency_us(),
            exec_us: Histogram::latency_us(),
            write_us: Histogram::latency_us(),
            total_us: Histogram::latency_us(),
            pages: Histogram::default(),
        }
    }

    fn observe_exec(&mut self, queue_us: u64, exec_us: u64, pages: u64) {
        self.queue_us.observe(queue_us);
        self.exec_us.observe(exec_us);
        self.pages.observe(pages);
    }

    fn observe_write(&mut self, r: &RequestRecord) {
        self.write_us.observe(r.write_us);
        self.total_us.observe(r.total_us);
    }

    fn latency_json(&self) -> Json {
        Json::obj([
            ("queue_us", self.queue_us.summary_json()),
            ("exec_us", self.exec_us.summary_json()),
            ("write_us", self.write_us.summary_json()),
            ("total_us", self.total_us.summary_json()),
        ])
    }
}

/// A bounded log of the K worst (slowest-total) requests seen so far.
///
/// Entries below the threshold are never admitted; above it the log
/// keeps the K largest `total_us` values, evicting the mildest entry
/// when full. `seq` is a monotone admission number so two equal
/// durations still order deterministically (newer evicts older only
/// when strictly slower).
#[derive(Debug)]
pub struct SlowLog {
    cap: usize,
    threshold_us: u64,
    seq: u64,
    /// Sorted worst-first (descending `total_us`, ascending `seq` for
    /// ties).
    entries: Vec<(RequestRecord, u64)>,
}

impl SlowLog {
    /// A log keeping the `cap` worst requests at or above
    /// `threshold_us` total latency (`threshold_us == 0` admits every
    /// request; `cap == 0` disables the log).
    pub fn new(cap: usize, threshold_us: u64) -> SlowLog {
        SlowLog {
            cap,
            threshold_us,
            seq: 0,
            entries: Vec::new(),
        }
    }

    /// Offer one finished request; returns whether it was admitted.
    pub fn offer(&mut self, record: RequestRecord) -> bool {
        if self.cap == 0 || record.total_us < self.threshold_us {
            return false;
        }
        let seq = self.seq;
        self.seq += 1;
        if self.entries.len() >= self.cap {
            // Full: admit only strictly-slower requests.
            let mildest = self.entries.last().map(|(r, _)| r.total_us).unwrap_or(0);
            if record.total_us <= mildest {
                return false;
            }
            self.entries.pop();
        }
        let at = self.entries.partition_point(|(r, s)| {
            (r.total_us, u64::MAX - s) >= (record.total_us, u64::MAX - seq)
        });
        self.entries.insert(at, (record, seq));
        true
    }

    /// Entries, worst first.
    pub fn entries(&self) -> impl Iterator<Item = &RequestRecord> {
        self.entries.iter().map(|(r, _)| r)
    }

    /// JSON reply for the `slowlog` wire op.
    pub fn to_json(&self) -> Json {
        let entries = self
            .entries
            .iter()
            .map(|(r, seq)| {
                Json::obj([
                    ("id", r.id.map_or(Json::Null, Json::U64)),
                    ("op", Json::Str(r.op.to_string())),
                    ("mode", Json::Str(r.mode.to_string())),
                    ("queue_us", Json::U64(r.queue_us)),
                    ("exec_us", Json::U64(r.exec_us)),
                    ("write_us", Json::U64(r.write_us)),
                    ("total_us", Json::U64(r.total_us)),
                    ("pages", Json::U64(r.pages)),
                    ("hits", Json::U64(r.hits)),
                    ("batch_id", Json::U64(r.batch_id)),
                    ("batch_size", Json::U64(r.batch_size as u64)),
                    ("seq", Json::U64(*seq)),
                ])
            })
            .collect();
        Json::obj([
            ("max_entries", Json::U64(self.cap as u64)),
            ("threshold_us", Json::U64(self.threshold_us)),
            ("seen", Json::U64(self.seq)),
            ("entries", Json::Arr(entries)),
        ])
    }
}

/// The serving layer's lifecycle sink: per-mode stage histograms plus
/// the slow-query log, recorded together from one [`RequestRecord`].
#[derive(Debug)]
pub struct Lifecycle {
    modes: Mutex<BTreeMap<&'static str, ModeStats>>,
    slowlog: Mutex<SlowLog>,
}

/// Recover from poisoning — lifecycle data is plain and monotone, and a
/// panicked thread must not take observability down with it.
fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

impl Lifecycle {
    /// Fresh sink with a [`SlowLog`] of `slowlog_cap` entries at
    /// `slowlog_threshold_us`.
    pub fn new(slowlog_cap: usize, slowlog_threshold_us: u64) -> Lifecycle {
        Lifecycle {
            modes: Mutex::new(BTreeMap::new()),
            slowlog: Mutex::new(SlowLog::new(slowlog_cap, slowlog_threshold_us)),
        }
    }

    /// Record the stages a request has finished before its reply is
    /// handed to the front-end: it is counted (in `queue_us`), with its
    /// queue wait, walk and pages. Counting it here, not after the write,
    /// means a client that holds its reply finds the request in `stats`.
    pub fn record_exec(&self, mode: &'static str, queue_us: u64, exec_us: u64, pages: u64) {
        relock(&self.modes)
            .entry(mode)
            .or_insert_with(ModeStats::new)
            .observe_exec(queue_us, exec_us, pages);
    }

    /// Record the write lap of a request [`Lifecycle::record_exec`]
    /// counted: its write and total times, and the slowlog's offer.
    pub fn record_write(&self, record: RequestRecord) {
        relock(&self.modes)
            .entry(record.mode)
            .or_insert_with(ModeStats::new)
            .observe_write(&record);
        relock(&self.slowlog).offer(record);
    }

    /// The `latency` block of the `stats` reply: per mode, quantile
    /// summaries of every stage plus the total.
    pub fn latency_json(&self) -> Json {
        Json::Obj(
            relock(&self.modes)
                .iter()
                .map(|(mode, m)| (mode.to_string(), m.latency_json()))
                .collect(),
        )
    }

    /// The `pages` block of the `stats` reply: per mode, a quantile
    /// summary of pages touched per request.
    pub fn pages_json(&self) -> Json {
        Json::Obj(
            relock(&self.modes)
                .iter()
                .map(|(mode, m)| (mode.to_string(), m.pages.summary_json()))
                .collect(),
        )
    }

    /// The `slowlog` wire reply.
    pub fn slowlog_json(&self) -> Json {
        relock(&self.slowlog).to_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, total_us: u64) -> RequestRecord {
        RequestRecord {
            id: Some(id),
            op: "query_line",
            mode: "collect",
            queue_us: 1,
            exec_us: total_us / 2,
            write_us: 1,
            total_us,
            pages: 3,
            hits: 2,
            batch_id: 0,
            batch_size: 0,
        }
    }

    #[test]
    fn slowlog_keeps_the_k_worst_sorted() {
        let mut log = SlowLog::new(3, 0);
        for (id, t) in [(1, 50), (2, 10), (3, 80), (4, 30), (5, 60)] {
            log.offer(rec(id, t));
        }
        let totals: Vec<u64> = log.entries().map(|r| r.total_us).collect();
        assert_eq!(totals, vec![80, 60, 50], "worst three, descending");
        let ids: Vec<Option<u64>> = log.entries().map(|r| r.id).collect();
        assert_eq!(ids, vec![Some(3), Some(5), Some(1)]);
    }

    #[test]
    fn slowlog_threshold_filters_mild_requests() {
        let mut log = SlowLog::new(8, 100);
        assert!(!log.offer(rec(1, 99)));
        assert!(log.offer(rec(2, 100)), "at-threshold is admitted");
        assert!(log.offer(rec(3, 500)));
        assert_eq!(log.entries().count(), 2);
    }

    #[test]
    fn slowlog_equal_durations_keep_the_earlier_entry() {
        let mut log = SlowLog::new(1, 0);
        assert!(log.offer(rec(1, 40)));
        assert!(!log.offer(rec(2, 40)), "a tie does not evict");
        assert!(log.offer(rec(3, 41)), "strictly slower does");
        assert_eq!(log.entries().next().unwrap().id, Some(3));
    }

    #[test]
    fn slowlog_zero_capacity_is_disabled() {
        let mut log = SlowLog::new(0, 0);
        assert!(!log.offer(rec(1, 1000)));
        assert_eq!(
            log.to_json()
                .get("entries")
                .unwrap()
                .as_arr()
                .unwrap()
                .len(),
            0
        );
    }

    #[test]
    fn slowlog_json_carries_stage_timings_and_ids() {
        let mut log = SlowLog::new(4, 0);
        log.offer(rec(7, 123));
        let j = log.to_json();
        assert_eq!(j.get("max_entries"), Some(&Json::U64(4)));
        assert_eq!(j.get("seen"), Some(&Json::U64(1)));
        let e = &j.get("entries").unwrap().as_arr().unwrap()[0];
        assert_eq!(e.get("id"), Some(&Json::U64(7)));
        assert_eq!(e.get("total_us"), Some(&Json::U64(123)));
        assert_eq!(e.get("queue_us"), Some(&Json::U64(1)));
        assert_eq!(e.get("mode"), Some(&Json::Str("collect".into())));
        segdb_obs::json::parse(&j.render()).expect("slowlog reply is valid JSON");
    }

    #[test]
    fn lifecycle_buckets_by_mode_and_feeds_both_sinks() {
        let lc = Lifecycle::new(4, 0);
        for r in [
            rec(1, 30),
            RequestRecord {
                mode: "count",
                ..rec(2, 70)
            },
        ] {
            lc.record_exec(r.mode, r.queue_us, r.exec_us, r.pages);
            lc.record_write(r);
        }
        let lat = lc.latency_json();
        for mode in ["collect", "count"] {
            let total = lat.get(mode).unwrap().get("total_us").unwrap();
            assert_eq!(total.get("count"), Some(&Json::U64(1)), "{mode}");
            assert!(total.get("p50").is_some() && total.get("p99").is_some());
            for stage in ["queue_us", "exec_us", "write_us"] {
                assert!(
                    lat.get(mode).unwrap().get(stage).is_some(),
                    "{mode}.{stage}"
                );
            }
        }
        let pages = lc.pages_json();
        assert_eq!(
            pages.get("collect").unwrap().get("count"),
            Some(&Json::U64(1))
        );
        assert_eq!(
            lc.slowlog_json()
                .get("entries")
                .unwrap()
                .as_arr()
                .unwrap()
                .len(),
            2
        );
    }
}
