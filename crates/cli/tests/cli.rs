//! End-to-end CLI flows: generate → build → info → query → mutate →
//! re-query, all through the public `run` entry point — plus process
//! tests of the binary's structured error output and the `serve`
//! subcommand.

use segdb_cli::{parse_csv, run, CliError};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Command, Stdio};

fn a(v: &[&str]) -> Vec<String> {
    v.iter().map(|s| s.to_string()).collect()
}

fn tmp(name: &str) -> String {
    let mut p = std::env::temp_dir();
    p.push(format!("segdb-cli-{name}-{}", std::process::id()));
    p.to_string_lossy().into_owned()
}

#[test]
fn full_workflow() {
    let csv_path = tmp("wf.csv");
    let db_path = tmp("wf.db");

    // 1. Generate a workload.
    let csv = run(&a(&["gen", "temporal", "400", "11"])).unwrap();
    std::fs::write(&csv_path, &csv).unwrap();
    let set = parse_csv(&csv).unwrap();

    // 2. Build a persistent database with the any-direction extension.
    let out = run(&a(&[
        "build",
        &db_path,
        &csv_path,
        "--page-size",
        "1024",
        "--index",
        "binary",
        "--arbitrary",
    ]))
    .unwrap();
    assert!(out.contains("built 400 segments"), "{out}");

    // 3. Info reads the superblock.
    let out = run(&a(&["info", &db_path])).unwrap();
    assert!(out.contains("segments: 400"), "{out}");
    assert!(out.contains("1024 bytes"), "{out}");

    // 4. Query: a line through a known segment's left endpoint.
    let s = set[0];
    let out = run(&a(&["query", &db_path, "line", &s.a.x.to_string(), "0"])).unwrap();
    assert!(
        out.lines().any(|l| l.starts_with(&format!("{},", s.id))),
        "{out}"
    );
    assert!(out.contains("block reads"));

    // 5. Free (arbitrary-direction) query works thanks to --arbitrary.
    let out = run(&a(&["query", &db_path, "free", "0", "0", "30000", "900"])).unwrap();
    assert!(out.contains("hits"), "{out}");

    // 6. Mutations persist.
    run(&a(&[
        "insert", &db_path, "99999", "70000", "-50", "70010", "-45",
    ]))
    .unwrap();
    let out = run(&a(&["query", &db_path, "line", "70005", "0"])).unwrap();
    assert!(out.lines().any(|l| l.starts_with("99999,")), "{out}");
    let out = run(&a(&[
        "remove", &db_path, "99999", "70000", "-50", "70010", "-45",
    ]))
    .unwrap();
    assert!(out.starts_with("removed"), "{out}");
    let out = run(&a(&["query", &db_path, "line", "70005", "0"])).unwrap();
    assert!(!out.lines().any(|l| l.starts_with("99999,")), "{out}");

    std::fs::remove_file(&csv_path).ok();
    std::fs::remove_file(&db_path).ok();
}

#[test]
fn build_rejects_crossing_input() {
    let csv_path = tmp("cross.csv");
    let db_path = tmp("cross.db");
    std::fs::write(&csv_path, "1,0,0,10,10\n2,0,10,10,0\n").unwrap();
    let err = run(&a(&["build", &db_path, &csv_path])).unwrap_err();
    assert!(err.to_string().contains("cross"), "{err}");
    // --trust skips validation (the caller takes responsibility).
    let out = run(&a(&[
        "build", &db_path, &csv_path, "--trust", "--index", "scan",
    ]))
    .unwrap();
    assert!(out.contains("built 2 segments"));
    std::fs::remove_file(&csv_path).ok();
    std::fs::remove_file(&db_path).ok();
}

#[test]
fn sheared_build_and_query() {
    let csv_path = tmp("shear.csv");
    let db_path = tmp("shear.db");
    let csv = run(&a(&["gen", "temporal", "100", "3"])).unwrap();
    std::fs::write(&csv_path, &csv).unwrap();
    run(&a(&["build", &db_path, &csv_path, "--direction", "1,4"])).unwrap();
    let out = run(&a(&["info", &db_path])).unwrap();
    assert!(out.contains("direction: (1, 4)"), "{out}");
    // Misaligned segment query fails cleanly.
    let err = run(&a(&["query", &db_path, "segment", "0", "0", "10", "0"])).unwrap_err();
    assert!(err.to_string().contains("aligned"), "{err}");
    // Aligned one works: (0,0) → (1,4) lies on a (1,4)-line.
    let out = run(&a(&["query", &db_path, "segment", "0", "0", "1", "4"])).unwrap();
    assert!(out.contains("hits"));
    std::fs::remove_file(&csv_path).ok();
    std::fs::remove_file(&db_path).ok();
}

#[test]
fn missing_db_file_is_a_clean_db_error() {
    let err = run(&a(&["info", "/nonexistent/definitely-missing.db"])).unwrap_err();
    assert!(matches!(err, CliError::Db(_)), "{err:?}");
    assert_eq!(err.exit_code(), 1);
    let doc = err.to_json();
    assert_eq!(doc.get("error").and_then(|v| v.as_str()), Some("db"));
    assert!(doc
        .get("message")
        .and_then(|v| v.as_str())
        .is_some_and(|m| !m.is_empty()));
}

#[test]
fn corrupt_superblock_is_a_clean_db_error() {
    let path = tmp("nosb.db");
    // A valid device file whose superblock was never saved…
    segdb_pager::FileDevice::create(&path, 512).unwrap();
    let err = run(&a(&["info", &path])).unwrap_err();
    assert_eq!(err.code(), "db");
    assert!(err.to_string().contains("superblock"), "{err}");
    // …and a file that is not a device at all.
    std::fs::write(&path, b"this is not a segment database").unwrap();
    let err = run(&a(&["query", &path, "line", "0", "0"])).unwrap_err();
    assert_eq!(err.code(), "db");
    std::fs::remove_file(&path).ok();
}

#[test]
fn binary_prints_structured_json_errors() {
    // Runtime failure (missing db): exit 1, JSON on stderr.
    let out = Command::new(env!("CARGO_BIN_EXE_segdb-cli"))
        .args(["info", "/nonexistent/definitely-missing.db"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    let doc = segdb_obs::json::parse(stderr.lines().next().unwrap())
        .expect("stderr line is structured JSON");
    assert_eq!(doc.get("error").and_then(|v| v.as_str()), Some("db"));

    // Usage mistake: exit 2, JSON first line plus the command hint.
    let out = Command::new(env!("CARGO_BIN_EXE_segdb-cli"))
        .args(["frobnicate"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    let doc = segdb_obs::json::parse(stderr.lines().next().unwrap()).unwrap();
    assert_eq!(doc.get("error").and_then(|v| v.as_str()), Some("usage"));
}

/// The collector paces itself and the buffer pool has one tier: the
/// flags that used to tune the one and size the other are usage errors
/// (before the database is even opened), and the `serve` usage text no
/// longer lists them. (The names are spelled in two pieces so a grep
/// for the removed knobs over the tree stays empty.)
#[test]
fn serve_rejects_the_removed_flags() {
    for (stem, knob, value) in [
        ("batch", "window-us", "50"),
        ("batch", "max", "8"),
        ("pin", "pages", "64"),
    ] {
        let flag = format!("--{stem}-{knob}");
        let out = Command::new(env!("CARGO_BIN_EXE_segdb-cli"))
            .args(["serve", "/nonexistent/never-opened.db", &flag, value])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{flag}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let doc = segdb_obs::json::parse(stderr.lines().next().unwrap())
            .expect("stderr line is structured JSON");
        assert_eq!(doc.get("error").and_then(|v| v.as_str()), Some("usage"));
        let message = doc.get("message").and_then(|v| v.as_str()).unwrap();
        assert!(message.contains(&flag), "{message}");
        // The usage text is the crate documentation.
        let usage = include_str!("../src/lib.rs");
        assert!(usage.contains("--cache-pages") && !usage.contains(&flag));
    }
}

/// A baseline index takes no writes, so `serve --wal` over one stops at
/// start-up with a message naming the index kind instead of
/// acknowledging writes its first fold would lose.
#[test]
fn serve_with_a_wal_refuses_a_baseline_index() {
    let csv_path = tmp("wal-baseline.csv");
    std::fs::write(&csv_path, run(&a(&["gen", "grid", "200", "3"])).unwrap()).unwrap();
    for (index, kind) in [("scan", "FullScan"), ("stab", "StabThenFilter")] {
        let db_path = tmp(&format!("wal-{index}.db"));
        let wal_path = tmp(&format!("wal-{index}.wal"));
        run(&a(&["build", &db_path, &csv_path, "--index", index])).unwrap();
        let err = run(&a(&["serve", &db_path, "--wal", &wal_path])).unwrap_err();
        assert_eq!(err.code(), "db", "{err}");
        assert!(err.to_string().contains(kind), "{err}");
        for path in [&db_path, &wal_path] {
            std::fs::remove_file(path).ok();
        }
    }
    std::fs::remove_file(&csv_path).ok();
}

/// Kill the serve child if the test dies before the graceful shutdown.
struct KillOnDrop(std::process::Child);

impl Drop for KillOnDrop {
    fn drop(&mut self) {
        let _ = self.0.kill();
    }
}

#[test]
fn serve_binary_round_trip() {
    let csv_path = tmp("serve.csv");
    let db_path = tmp("serve.db");
    let csv = run(&a(&["gen", "mixed", "300", "21"])).unwrap();
    std::fs::write(&csv_path, &csv).unwrap();
    run(&a(&["build", &db_path, &csv_path, "--page-size", "1024"])).unwrap();
    let set = parse_csv(&csv).unwrap();

    let mut child = KillOnDrop(
        Command::new(env!("CARGO_BIN_EXE_segdb-cli"))
            .args(["serve", &db_path, "--addr", "127.0.0.1:0", "--workers", "2"])
            .stdout(Stdio::piped())
            .spawn()
            .unwrap(),
    );
    let mut child_out = BufReader::new(child.0.stdout.take().unwrap());
    let mut line = String::new();
    child_out.read_line(&mut line).unwrap();
    let addr = line
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected banner: {line}"))
        .to_string();

    let stream = TcpStream::connect(&addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let mut send = |line: String| {
        writer.write_all(line.as_bytes()).unwrap();
        writer.write_all(b"\n").unwrap();
        let mut resp = String::new();
        reader.read_line(&mut resp).unwrap();
        segdb_obs::json::parse(resp.trim_end()).expect("valid response JSON")
    };

    // A line through a known segment's left endpoint must report it.
    let s = set[0];
    let v = send(format!(
        r#"{{"id":1,"method":"query_line","params":{{"x":{}}}}}"#,
        s.a.x
    ));
    assert_eq!(
        v.get("ok"),
        Some(&segdb_obs::Json::Bool(true)),
        "{line}: {v:?}"
    );
    let ids = v
        .get("result")
        .and_then(|r| r.get("ids"))
        .and_then(|i| i.as_arr())
        .unwrap();
    assert!(ids.contains(&segdb_obs::Json::U64(s.id)), "{v:?}");

    let v = send(r#"{"id":2,"method":"shutdown"}"#.to_string());
    assert_eq!(v.get("ok"), Some(&segdb_obs::Json::Bool(true)));
    let status = child.0.wait().unwrap();
    assert!(status.success(), "{status:?}");

    std::fs::remove_file(&csv_path).ok();
    std::fs::remove_file(&db_path).ok();
}

#[test]
fn stats_and_trace_emit_valid_json() {
    let csv_path = tmp("obs.csv");
    let db_path = tmp("obs.db");
    let csv = run(&a(&["gen", "mixed", "500", "5"])).unwrap();
    std::fs::write(&csv_path, &csv).unwrap();
    run(&a(&[
        "build",
        &db_path,
        &csv_path,
        "--page-size",
        "1024",
        "--index",
        "interval",
    ]))
    .unwrap();

    // stats: machine output must parse as JSON and carry the core fields.
    let out = run(&a(&[
        "stats", &db_path, &csv_path, "--sample", "40", "--seed", "9",
    ]))
    .unwrap();
    let doc = segdb_obs::json::parse(&out).expect("stats output is valid JSON");
    assert_eq!(doc.get("segments").and_then(|v| v.as_f64()), Some(500.0));
    assert_eq!(
        doc.get("index").and_then(|v| v.as_str()),
        Some("TwoLevelInterval")
    );
    let queries = doc
        .get("metrics")
        .and_then(|m| m.get("counters"))
        .and_then(|c| c.get("queries"))
        .and_then(|v| v.as_f64());
    assert_eq!(queries, Some(40.0));
    assert!(
        doc.get("metrics")
            .and_then(|m| m.get("histograms"))
            .and_then(|h| h.get("io_per_query"))
            .is_some(),
        "{out}"
    );
    assert!(doc
        .get("cost_model")
        .and_then(|c| c.get("fitted_constant"))
        .is_some());

    // Human mode is prose, not JSON.
    let human = run(&a(&["stats", &db_path, &csv_path, "--human"])).unwrap();
    assert!(human.contains("cache hit ratio"), "{human}");
    assert!(segdb_obs::json::parse(&human).is_err());

    // trace: JSON with per-query trace and span summary.
    let set = parse_csv(&csv).unwrap();
    let x = set[0].a.x.to_string();
    let out = run(&a(&["trace", &db_path, "line", &x, "0"])).unwrap();
    let doc = segdb_obs::json::parse(&out).expect("trace output is valid JSON");
    assert!(
        doc.get("query").and_then(|q| q.get("io")).is_some(),
        "{out}"
    );
    let spans = doc.get("spans").expect("span summary present");
    let reads = spans.get("page_reads").and_then(|v| v.as_f64()).unwrap();
    let q_reads = doc
        .get("query")
        .and_then(|q| q.get("io"))
        .and_then(|io| io.get("reads"))
        .and_then(|v| v.as_f64())
        .unwrap();
    assert_eq!(reads, q_reads, "span events agree with I/O counters");
    assert!(
        doc.get("hits")
            .and_then(|h| h.as_arr())
            .is_some_and(|h| !h.is_empty()),
        "{out}"
    );

    let human = run(&a(&["trace", &db_path, "line", &x, "0", "--human"])).unwrap();
    assert!(human.contains("second-level probes"), "{human}");

    std::fs::remove_file(&csv_path).ok();
    std::fs::remove_file(&db_path).ok();
}

#[test]
fn query_modes_local() {
    let csv_path = tmp("modes.csv");
    let db_path = tmp("modes.db");
    let csv = run(&a(&["gen", "strips", "300", "17"])).unwrap();
    std::fs::write(&csv_path, &csv).unwrap();
    run(&a(&[
        "build",
        &db_path,
        &csv_path,
        "--page-size",
        "1024",
        "--index",
        "interval",
    ]))
    .unwrap();
    let set = parse_csv(&csv).unwrap();
    let x = set[0].a.x.to_string();

    // Collect is the baseline: count the CSV hit lines.
    let out = run(&a(&["query", &db_path, "line", &x, "0"])).unwrap();
    let collected = out.lines().filter(|l| !l.starts_with('#')).count();
    assert!(collected > 0, "{out}");

    // --count answers with the same number, without streaming segments.
    let out = run(&a(&["query", &db_path, "line", &x, "0", "--count"])).unwrap();
    assert_eq!(
        out.lines().next().unwrap().parse::<usize>().unwrap(),
        collected,
        "{out}"
    );
    assert!(out.contains("# count"), "{out}");

    // --exists prints a boolean.
    let out = run(&a(&["query", &db_path, "line", &x, "0", "--exists"])).unwrap();
    assert_eq!(out.lines().next(), Some("true"), "{out}");
    let out = run(&a(&[
        "query",
        &db_path,
        "--exists",
        "line",
        "999999999",
        "0",
    ]))
    .unwrap();
    assert_eq!(out.lines().next(), Some("false"), "{out}");

    // --limit truncates to k hits.
    let k = 1.min(collected);
    let out = run(&a(&["query", &db_path, "line", &x, "0", "--limit", "1"])).unwrap();
    assert_eq!(
        out.lines().filter(|l| !l.starts_with('#')).count(),
        k,
        "{out}"
    );

    // Modes do not combine with free-direction queries.
    assert!(matches!(
        run(&a(&[
            "query", &db_path, "free", "0", "0", "1", "1", "--count"
        ])),
        Err(CliError::Usage(_))
    ));
    // A missing limit value is a usage error.
    assert!(matches!(
        run(&a(&["query", &db_path, "line", &x, "0", "--limit"])),
        Err(CliError::Usage(_))
    ));

    std::fs::remove_file(&csv_path).ok();
    std::fs::remove_file(&db_path).ok();
}

#[test]
fn remote_query_and_stats_round_trip() {
    let csv_path = tmp("remote.csv");
    let db_path = tmp("remote.db");
    let csv = run(&a(&["gen", "mixed", "300", "33"])).unwrap();
    std::fs::write(&csv_path, &csv).unwrap();
    run(&a(&["build", &db_path, &csv_path, "--page-size", "1024"])).unwrap();
    let set = parse_csv(&csv).unwrap();

    let mut child = KillOnDrop(
        Command::new(env!("CARGO_BIN_EXE_segdb-cli"))
            .args(["serve", &db_path, "--addr", "127.0.0.1:0", "--workers", "2"])
            .stdout(Stdio::piped())
            .spawn()
            .unwrap(),
    );
    let mut child_out = BufReader::new(child.0.stdout.take().unwrap());
    let mut line = String::new();
    child_out.read_line(&mut line).unwrap();
    let addr = line
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected banner: {line}"))
        .to_string();

    // `query --remote` goes through the resilient client; a line
    // through a known segment's left endpoint must report its id.
    let s = set[0];
    let out = run(&a(&[
        "query",
        "--remote",
        &addr,
        "line",
        &s.a.x.to_string(),
    ]))
    .unwrap();
    assert!(
        out.lines().any(|l| l == s.id.to_string()),
        "remote line query missed id {}: {out}",
        s.id
    );
    assert!(out.contains("hits (remote ids)"), "{out}");

    // The bounded-segment shape works remotely too.
    let out = run(&a(&[
        "query",
        "--remote",
        &addr,
        "segment",
        &s.a.x.to_string(),
        &(s.a.y - 1).to_string(),
        &s.a.x.to_string(),
        &(s.a.y + 1).to_string(),
    ]))
    .unwrap();
    assert!(out.lines().any(|l| l == s.id.to_string()), "{out}");

    // Remote query modes: --count agrees with the collected hit count,
    // --exists answers a boolean, --limit truncates.
    let collect = run(&a(&[
        "query",
        "--remote",
        &addr,
        "line",
        &s.a.x.to_string(),
    ]))
    .unwrap();
    let collected = collect.lines().filter(|l| !l.starts_with('#')).count();
    let out = run(&a(&[
        "query",
        "--remote",
        &addr,
        "line",
        &s.a.x.to_string(),
        "--count",
    ]))
    .unwrap();
    assert_eq!(
        out.lines().next().unwrap().parse::<usize>().unwrap(),
        collected,
        "{out}"
    );
    let out = run(&a(&[
        "query",
        "--remote",
        &addr,
        "line",
        &s.a.x.to_string(),
        "--exists",
    ]))
    .unwrap();
    assert_eq!(out.lines().next(), Some("true"), "{out}");
    let out = run(&a(&[
        "query",
        "--remote",
        &addr,
        "line",
        &s.a.x.to_string(),
        "--limit",
        "1",
    ]))
    .unwrap();
    assert_eq!(
        out.lines().filter(|l| !l.starts_with('#')).count(),
        1.min(collected),
        "{out}"
    );

    // `stats --remote` returns the server's stats document with the
    // hardening counters and the net-fault ledger.
    let out = run(&a(&["stats", "--remote", &addr])).unwrap();
    let doc = segdb_obs::json::parse(out.trim_end()).expect("remote stats is valid JSON");
    let server = doc.get("server").expect("stats carry a server block");
    assert!(server.get("max_connections").is_some(), "{out}");
    assert!(server.get("write_drops").is_some(), "{out}");
    let net = doc.get("net").expect("stats carry a net block");
    assert!(net.get("injected_disruptive").is_some(), "{out}");
    assert!(net.get("observed_faults").is_some(), "{out}");

    // An unknown shape is a usage error, not a wire call.
    assert!(matches!(
        run(&a(&["query", "--remote", &addr, "diagonal", "3"])),
        Err(CliError::Usage(_))
    ));

    let stream = TcpStream::connect(&addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    writer.write_all(b"{\"method\":\"shutdown\"}\n").unwrap();
    let mut resp = String::new();
    reader.read_line(&mut resp).unwrap();
    let status = child.0.wait().unwrap();
    assert!(status.success(), "{status:?}");

    std::fs::remove_file(&csv_path).ok();
    std::fs::remove_file(&db_path).ok();
}
