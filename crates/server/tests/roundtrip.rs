//! End-to-end serving: a multi-connection closed-loop load against a
//! live server must verify bit-identical to the scan oracle.

use segdb_core::SegmentDatabase;
use segdb_geom::gen::Family;
use segdb_server::load::{self, LoadConfig};
use segdb_server::{Server, ServerConfig};
use std::sync::Arc;

fn served_db(family: Family, n: usize, seed: u64) -> Arc<SegmentDatabase> {
    Arc::new(
        SegmentDatabase::builder()
            .page_size(512)
            .cache_pages(64)
            .cache_shards(4)
            .observe()
            .build(family.generate(n, seed))
            .unwrap(),
    )
}

#[test]
fn multi_connection_load_verifies_against_oracle() {
    let (family, n, seed) = (Family::Mixed, 500, 3);
    let server = Server::start(
        served_db(family, n, seed),
        ServerConfig {
            workers: 4,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let cfg = LoadConfig {
        addr: server.addr().to_string(),
        connections: 3,
        requests: 60,
        family,
        n,
        seed,
        verify: true,
        shutdown_after: false,
        ..LoadConfig::default()
    };
    let report = load::run_load(&cfg).unwrap();
    assert_eq!(report.sent, 60);
    assert_eq!(report.ok, 60, "{report:?}");
    assert_eq!(report.wrong, 0, "{report:?}");
    assert_eq!(report.errors, 0, "{report:?}");
    assert_eq!(report.latency.count(), 60);
    assert!(report.throughput_rps() > 0.0);
    let doc = report.to_json(&cfg);
    assert!(doc.get("latency_us").unwrap().get("p99").is_some());
    server.shutdown();
    server.wait();
}

#[test]
fn load_counts_overload_refusals() {
    let (family, n, seed) = (Family::Strips, 200, 11);
    let server = Server::start(
        served_db(family, n, seed),
        ServerConfig {
            queue_depth: 0,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let cfg = LoadConfig {
        addr: server.addr().to_string(),
        connections: 2,
        requests: 10,
        family,
        n,
        seed,
        verify: false,
        shutdown_after: false,
        // `overloaded` is retryable; a small budget keeps the test
        // quick while still proving refusals are re-attempted.
        max_retries: 2,
        ..LoadConfig::default()
    };
    let report = load::run_load(&cfg).unwrap();
    assert_eq!(report.sent, 10);
    assert_eq!(report.ok, 0);
    assert_eq!(report.overloaded, 10, "every request refused: {report:?}");
    assert_eq!(report.retries, 20, "2 retries per refused request");
    server.shutdown();
    server.wait();
}

#[test]
fn load_driver_shutdown_flag_stops_the_server() {
    let (family, n, seed) = (Family::Grid, 200, 5);
    let server = Server::start(served_db(family, n, seed), ServerConfig::default()).unwrap();
    let cfg = LoadConfig {
        addr: server.addr().to_string(),
        connections: 1,
        requests: 8,
        family,
        n,
        seed,
        verify: true,
        shutdown_after: true,
        ..LoadConfig::default()
    };
    let report = load::run_load(&cfg).unwrap();
    assert_eq!(report.wrong, 0);
    server.wait();
}

/// The batched-vs-plain comparison is gone with the knob it compared:
/// `--batch` is a usage error now, and the usage text does not list it.
#[test]
fn load_binary_rejects_the_removed_batch_flag() {
    use std::process::Command;
    let out = Command::new(env!("CARGO_BIN_EXE_segdb-load"))
        .args(["--batch", "--requests", "1"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    let doc = segdb_obs::json::parse(stderr.lines().next().unwrap())
        .expect("stderr line is structured JSON");
    assert_eq!(doc.get("error").and_then(|v| v.as_str()), Some("usage"));
    let help = Command::new(env!("CARGO_BIN_EXE_segdb-load"))
        .arg("--help")
        .output()
        .unwrap();
    assert!(help.status.success());
    let usage = String::from_utf8_lossy(&help.stdout);
    assert!(usage.contains("--cluster") && !usage.contains("--batch"));
}
