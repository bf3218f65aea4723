//! Metric tables and the result a run prints.
//!
//! `BENCHMARK.json` at the repo root lists the same names, units and
//! directions (a unit test holds the two together). Every run prints
//! every metric of the pass it ran — a per-layer metric a workload does
//! not exercise reads 0.

use crate::driver::Tally;
use segdb_obs::Json;
use std::collections::BTreeMap;

pub const WORKLOADS: [&str; 5] = [
    "embedded_hot",
    "embedded_cold",
    "embedded_batch",
    "served_read",
    "served_rw",
];

/// `(name, unit, better)` of the metrics a user of the system sees;
/// printed by the untraced pass (`--trace 0`).
pub const END_TO_END: [(&str, &str, &str); 9] = [
    ("setup_s", "s", "lower"),
    ("read_ops_per_s", "ops/s", "higher"),
    ("collect_p50_us", "us", "lower"),
    ("count_p50_us", "us", "lower"),
    ("exists_p50_us", "us", "lower"),
    ("read_p99_us", "us", "lower"),
    ("pages_per_query", "pages", "lower"),
    ("space_bytes_per_segment", "B", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
];

/// `(name, unit, better)` of the single-layer metrics; printed by the
/// traced pass (`--trace 1`). The first seven are end-to-end figures
/// that only some workloads have or that are 0 when all is well, which
/// the driver's contract does not admit as bounded metrics.
pub const PER_LAYER: [(&str, &str, &str); 75] = [
    ("failed_ratio", "ratio", "lower"),
    ("device_reads_per_query", "pages", "lower"),
    ("write_ops_per_s", "ops/s", "higher"),
    ("write_p50_us", "us", "lower"),
    ("write_p99_us", "us", "lower"),
    ("fold_stall_ms", "ms", "lower"),
    ("write_bytes_per_write", "B", "lower"),
    ("geom.hits_vertical_ns", "ns", "lower"),
    ("geom.collect_sink_ns_per_hit", "ns", "lower"),
    ("geom.multisink_offer_ns", "ns", "lower"),
    ("geom.verify_nct_s", "s", "lower"),
    ("pager.hit_ns", "ns", "lower"),
    ("pager.miss_ns", "ns", "lower"),
    ("pager.contended_hit_ns", "ns", "lower"),
    ("pager.hit_ratio", "ratio", "higher"),
    ("pager.accesses_per_op", "pages", "lower"),
    ("pager.device_reads_per_op", "pages", "lower"),
    ("pager.device_writes_per_write", "pages", "lower"),
    ("pager.time_share", "ratio", "lower"),
    ("core.walk_self_share", "ratio", "lower"),
    ("bptree.decode_ns", "ns", "lower"),
    ("bptree.lower_bound_ns", "ns", "lower"),
    ("bptree.lower_bound_pages", "pages", "lower"),
    ("bptree.scan_ns_per_record", "ns", "lower"),
    ("bptree.insert_ns", "ns", "lower"),
    ("itree.decode_ns", "ns", "lower"),
    ("itree.stab_ns", "ns", "lower"),
    ("itree.stab_pages", "pages", "lower"),
    ("pst.decode_ns", "ns", "lower"),
    ("pst.query_ns", "ns", "lower"),
    ("pst.query_pages", "pages", "lower"),
    ("pst.insert_ns", "ns", "lower"),
    ("core.collect_us", "us", "lower"),
    ("core.count_us", "us", "lower"),
    ("core.exists_us", "us", "lower"),
    ("core.limit_us", "us", "lower"),
    ("core.collect_pages", "pages", "lower"),
    ("core.count_pages", "pages", "lower"),
    ("core.exists_pages", "pages", "lower"),
    ("core.limit_pages", "pages", "lower"),
    ("core.collect_ns_per_hit", "ns", "lower"),
    ("core.pages_per_bound_unit", "ratio", "lower"),
    ("core.batch1_us", "us", "lower"),
    ("core.batch32_us_per_query", "us", "lower"),
    ("core.batch32_pages_per_query", "pages", "lower"),
    ("core.build_s", "s", "lower"),
    ("core.save_s", "s", "lower"),
    ("core.open_s", "s", "lower"),
    ("core.recover_s", "s", "lower"),
    ("core.insert_us", "us", "lower"),
    ("core.delete_us", "us", "lower"),
    ("core.overlay_read_us", "us", "lower"),
    ("core.fold_ms", "ms", "lower"),
    ("core.folds", "count", "lower"),
    ("wal.append_ns", "ns", "lower"),
    ("wal.commit_us", "us", "lower"),
    ("wal.bytes_per_record", "B", "lower"),
    ("wal.syncs_per_record", "ratio", "lower"),
    ("wal.replay_us_per_record", "us", "lower"),
    ("server.parse_ns", "ns", "lower"),
    ("server.encode_ns_per_id", "ns", "lower"),
    ("server.ping_rtt_us", "us", "lower"),
    ("server.queue_us", "us", "lower"),
    ("server.exec_us", "us", "lower"),
    ("server.write_us", "us", "lower"),
    ("server.wire_overhead_us", "us", "lower"),
    ("server.refused_ratio", "ratio", "lower"),
    ("server.retries", "count", "lower"),
    ("obs.observe_overhead_pct", "%", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.spans", "count", "higher"),
    ("harness.op_self_share", "ratio", "lower"),
    ("read_samples", "count", "higher"),
    ("timed_s", "s", "lower"),
    ("oracle_s", "s", "lower"),
];

/// What one run of one workload produced.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Reasons the run is not correct beyond failed ops (an exact count
    /// that moved between passes, device reads on the hot row, …).
    pub violations: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Run conditions, printed but not part of the result line.
    pub info: Vec<(&'static str, String)>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn note(&mut self, key: &'static str, value: impl ToString) {
        self.info.push((key, value.to_string()));
    }

    /// Book a phase's ops, naming the first pool entries answered wrong.
    pub fn count(&mut self, tally: &Tally) {
        self.attempted += tally.attempted;
        self.failed += tally.failed;
        if !tally.wrong.is_empty() {
            self.note("wrong_pool_entries", format!("{:?}", tally.wrong));
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.violations.is_empty()
    }

    /// The result object for `table`: every metric of the table, in
    /// table order, 0 for those this workload does not exercise.
    pub fn result_json(&self, table: &[(&'static str, &'static str, &'static str)]) -> Json {
        let metrics = table
            .iter()
            .map(|&(name, unit, _)| {
                let value = self.metrics.get(name).copied().unwrap_or(0.0);
                (
                    name.to_string(),
                    Json::obj([
                        ("value", Json::F64(value)),
                        ("unit", Json::Str(unit.to_string())),
                    ]),
                )
            })
            .collect();
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::U64(self.attempted)),
            ("failed", Json::U64(self.failed)),
            ("metrics", Json::Obj(metrics)),
        ])
    }

    /// Human-readable listing followed by the one-line result.
    pub fn print(&self, workload: &str, table: &[(&'static str, &'static str, &'static str)]) {
        println!("# workload {workload}");
        for (k, v) in &self.info {
            println!("# {k}: {v}");
        }
        for &(name, unit, _) in table {
            let value = self.metrics.get(name).copied().unwrap_or(0.0);
            println!("{name:<34} {value:>16.4} {unit}");
        }
        for v in &self.violations {
            println!("# VIOLATION: {v}");
        }
        println!(
            "# attempted {} failed {} correct {}",
            self.attempted,
            self.failed,
            self.correct()
        );
        println!("{}", self.result_json(table).render());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn result_line_round_trips_through_the_repo_parser() {
        let mut r = Report {
            attempted: 1000,
            ..Report::default()
        };
        r.set("setup_s", 0.8127);
        r.set("read_ops_per_s", 5500.0);
        let line = r.result_json(&END_TO_END).render();
        let back = segdb_obs::json::parse(&line).unwrap();
        let Json::Obj(top) = &back else {
            panic!("not an object")
        };
        let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(back.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(back.get("attempted"), Some(&Json::U64(1000)));
        let m = back.get("metrics").unwrap();
        let Json::Obj(entries) = m else {
            panic!("metrics not an object")
        };
        assert_eq!(entries.len(), END_TO_END.len(), "every metric is present");
        let setup = m.get("setup_s").unwrap();
        assert_eq!(setup.get("value").and_then(Json::as_f64), Some(0.8127));
        assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
        // An integral float keeps its decimal point, so it parses back as a float.
        assert_eq!(
            m.get("read_ops_per_s").and_then(|v| v.get("value")),
            Some(&Json::F64(5500.0))
        );
    }

    #[test]
    fn failed_ops_and_violations_make_a_run_incorrect() {
        let mut r = Report::default();
        assert!(r.correct());
        r.failed = 1;
        assert!(!r.correct());
        r.failed = 0;
        r.violations.push("device reads on the hot row".into());
        assert!(!r.correct());
        assert_eq!(
            r.result_json(&END_TO_END).get("correct"),
            Some(&Json::Bool(false))
        );
    }

    /// `BENCHMARK.json` must list exactly what the harness prints.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = segdb_obs::json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let listed = |key: &str| -> Vec<(String, String, String)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    let f = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
                    (f("name"), f("unit"), f("better"))
                })
                .collect()
        };
        let own = |t: &[(&str, &str, &str)]| -> Vec<(String, String, String)> {
            t.iter()
                .map(|&(n, u, b)| (n.to_string(), u.to_string(), b.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(&END_TO_END));
        assert_eq!(listed("per_layer"), own(&PER_LAYER));
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect();
        assert_eq!(workloads, WORKLOADS);
        let mut names = HashSet::new();
        for (n, _, _) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(names.insert(*n), "{n} is listed twice");
            assert!(n.len() <= 64);
        }
        for m in doc.get("end_to_end").and_then(Json::as_arr).unwrap() {
            let bound = m.get("bound").and_then(Json::as_f64).unwrap();
            assert!(bound > 0.0 && bound <= 0.25);
        }
    }
}
