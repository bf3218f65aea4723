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

/// The wire's `ids` are ascending even though the database hands a
/// Collect answer out in walk order: the reply sorts them, and
/// `segdb-load` and the router read them that way.
#[test]
fn collect_reply_ids_ascend_and_equal_the_oracle() {
    use segdb_core::{Query, QueryMode};
    use segdb_geom::gen::vertical_queries;
    use segdb_geom::query::scan_oracle;
    use segdb_server::{proto, Client, ClientConfig};

    let (family, n, seed) = (Family::Mixed, 2_000, 5);
    let set = family.generate(n, seed);
    let db = served_db(family, n, seed);
    let server = Server::start(Arc::clone(&db), ServerConfig::default()).unwrap();
    let mut client = Client::new(ClientConfig {
        addr: server.addr().to_string(),
        ..ClientConfig::default()
    });
    let mut walk_unsorted = 0;
    for (i, q) in vertical_queries(&set, 40, 150, 9).into_iter().enumerate() {
        let q = match i % 2 {
            0 => segdb_geom::VerticalQuery::Line { x: q.x() },
            _ => q,
        };
        let want: Vec<u64> = scan_oracle(&set, &q).iter().map(|s| s.id).collect();
        let (method, params) = proto::query_wire(&Query::from(q));
        let reply = client
            .query_mode(method, &params, QueryMode::Collect)
            .unwrap();
        assert!(
            reply.ids.windows(2).all(|w| w[0] < w[1]),
            "{q:?}: {:?}",
            reply.ids
        );
        assert_eq!(reply.ids, want, "{q:?}");
        let (answer, _) = db.query(&Query::from(q), QueryMode::Collect).unwrap();
        let walked: Vec<u64> = answer.segments().unwrap().iter().map(|s| s.id).collect();
        walk_unsorted += usize::from(!walked.is_sorted());
    }
    assert!(walk_unsorted > 0, "no walk order differed from id order");
    server.shutdown();
    server.wait();
}
