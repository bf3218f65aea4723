//! Golden replies: the key paths, their order and every deterministic
//! value of the counter-bearing replies — `stats` from a read-only
//! server, a writable server and a 2-shard router after a fixed request
//! script, and the JSON lines of `segdb-cli stats` and `segdb-cli
//! torture`.
//!
//! Each reply is flattened to one `path = value` line per leaf, in the
//! reply's own key order (`a.b.0.c` addresses array element 0). A value
//! that depends on the clock or on a hash of implementation details is
//! masked to `<num>` / `<str>` / `<arr>`; its path is still pinned. The
//! expected flattenings live in `tests/golden/*.txt`. On a mismatch the
//! test prints the whole actual flattening so a deliberate change to a
//! reply can be reviewed line by line against the file.
//!
//! The counters of the `faults` and `net` blocks are process-wide, so
//! every server scenario runs inside one test function, and the CLI runs
//! as a child process of its own.

use segdb_core::{IndexKind, SegmentDatabase, WriteEngine, WriterConfig, XCuts};
use segdb_geom::gen::mixed_map;
use segdb_geom::Segment;
use segdb_obs::json::{self, Json};
use segdb_pager::Disk;
use segdb_server::{Router, RouterConfig, Server, ServerConfig, ShardMap};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::process::Command;
use std::sync::Arc;
use std::time::Duration;

/// Keys whose values are wall-clock times wherever a latency summary or
/// a latency histogram carries them.
const TIMING_KEYS: [&str; 5] = ["p50", "p95", "p99", "mean", "max"];

/// Is the value at `path` not a function of the request script?
fn masked(path: &[String]) -> bool {
    let last = path.last().map(String::as_str).unwrap_or("");
    let under = |k: &str| path.iter().any(|p| p == k);
    // Per-stage and per-shard round-trip latencies.
    if (under("latency") || under("latency_us")) && TIMING_KEYS.contains(&last) {
        return true;
    }
    // The router's per-shard latency histogram: its sum, extremes and
    // occupied buckets are times; only its count is not.
    if under("histogram") && ["sum", "min", "max", "mean", "buckets"].contains(&last) {
        return true;
    }
    // Ports picked by the OS, and a replay fingerprint: stable run to
    // run, but its value is a hash.
    last == "addr" || last == "trace_digest"
}

fn flatten(v: &Json, path: &mut Vec<String>, out: &mut String) {
    if masked(path) {
        let token = match v {
            Json::U64(_) | Json::I64(_) | Json::F64(_) => "<num>",
            Json::Str(_) => "<str>",
            Json::Arr(_) => "<arr>",
            _ => "<other>",
        };
        out.push_str(&format!("{} = {token}\n", path.join(".")));
        return;
    }
    match v {
        Json::Obj(pairs) if !pairs.is_empty() => {
            for (k, child) in pairs {
                path.push(k.clone());
                flatten(child, path, out);
                path.pop();
            }
        }
        Json::Arr(items) if !items.is_empty() => {
            for (i, child) in items.iter().enumerate() {
                path.push(i.to_string());
                flatten(child, path, out);
                path.pop();
            }
        }
        leaf => out.push_str(&format!("{} = {}\n", path.join("."), leaf.render())),
    }
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join(format!("{name}.txt"))
}

/// Compare the flattening of `doc` against `tests/golden/<name>.txt`.
fn check(name: &str, doc: &Json) {
    let mut actual = String::new();
    flatten(doc, &mut Vec::new(), &mut actual);
    let path = golden_path(name);
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{}: {e}\nactual:\n{actual}", path.display()));
    if expected != actual {
        let first = expected
            .lines()
            .zip(actual.lines())
            .position(|(e, a)| e != a)
            .unwrap_or(expected.lines().count().min(actual.lines().count()));
        panic!(
            "{name}: reply differs from {} at line {}\n  expected: {:?}\n  actual:   {:?}\nfull actual flattening:\n{actual}",
            path.display(),
            first + 1,
            expected.lines().nth(first),
            actual.lines().nth(first),
        );
    }
}

/// One raw NDJSON connection: each request line gets exactly one reply.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn open(addr: SocketAddr) -> Conn {
        let stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        Conn {
            reader: BufReader::new(stream.try_clone().unwrap()),
            writer: stream,
        }
    }

    fn send(&mut self, line: &str) -> Json {
        self.writer.write_all(line.as_bytes()).unwrap();
        self.writer.write_all(b"\n").unwrap();
        let mut reply = String::new();
        assert!(self.reader.read_line(&mut reply).unwrap() > 0, "{line}");
        json::parse(reply.trim_end()).unwrap()
    }

    /// Send every line of `script`; the reply to the last is returned
    /// with its envelope stripped.
    fn run(&mut self, script: &[String]) -> Json {
        let mut last = Json::Null;
        for line in script {
            last = self.send(line);
        }
        last.get("result")
            .cloned()
            .expect("the last request succeeds")
    }
}

fn db(set: Vec<Segment>) -> SegmentDatabase {
    SegmentDatabase::builder()
        .page_size(512)
        .cache_pages(64)
        .cache_shards(4)
        .index(IndexKind::TwoLevelInterval)
        .observe()
        .build(set)
        .unwrap()
}

/// A query on every shape and in every mode, anchored on `set`'s own
/// segments so each one has hits, a `trace`, a `ping`, one request the
/// server refuses and one it cannot parse, then `stats`.
fn read_script(set: &[Segment]) -> Vec<String> {
    let mid = |s: &Segment| ((s.a.x + s.b.x) / 2, (s.a.y + s.b.y) / 2);
    let (x0, y0) = mid(&set[3]);
    let (x1, y1) = mid(&set[40]);
    let (x2, y2) = mid(&set[90]);
    vec![
        r#"{"id":1,"method":"ping"}"#.to_string(),
        format!(r#"{{"id":2,"method":"query_line","params":{{"x":{x0},"y":{y0}}}}}"#),
        format!(r#"{{"id":3,"method":"query_line","params":{{"x":{x1},"y":0,"mode":"count"}}}}"#),
        format!(
            r#"{{"id":4,"method":"query_ray_up","params":{{"x":{x1},"y":{y1},"mode":"exists"}}}}"#
        ),
        format!(
            r#"{{"id":5,"method":"query_ray_down","params":{{"x":{x2},"y":{y2},"mode":"limit","limit":2}}}}"#
        ),
        format!(
            r#"{{"id":6,"method":"query_segment","params":{{"x1":{x2},"y1":{},"x2":{x2},"y2":{}}}}}"#,
            y2 - 500,
            y2 + 500
        ),
        format!(
            r#"{{"id":7,"method":"trace","params":{{"shape":"query_line","x":{x0},"y":{y0}}}}}"#
        ),
        r#"{"id":8,"method":"no_such_method"}"#.to_string(),
        "not json".to_string(),
        r#"{"id":9,"method":"stats"}"#.to_string(),
    ]
}

fn read_only_server() -> Json {
    let set = mixed_map(300, 7);
    let server = Server::start(Arc::new(db(set.clone())), ServerConfig::default()).unwrap();
    let mut script = read_script(&set);
    // A write to a read-only server is refused.
    script.insert(
        1,
        r#"{"id":10,"method":"insert","params":{"seg":9000,"x1":0,"y1":0,"x2":1,"y2":0}}"#
            .to_string(),
    );
    let stats = Conn::open(server.addr()).run(&script);
    server.shutdown();
    server.wait();
    stats
}

fn writable_server() -> Json {
    let set = mixed_map(300, 11);
    let top = set.iter().map(|s| s.a.y.max(s.b.y)).max().unwrap();
    let left = set.iter().map(|s| s.a.x.min(s.b.x)).min().unwrap();
    let (engine, _) = WriteEngine::recover(
        db(set.clone()),
        Box::new(Disk::new(512)),
        WriterConfig::default(),
    )
    .unwrap();
    let server = Server::start_writable(Arc::new(engine), ServerConfig::default()).unwrap();
    // Two new segments far above the set, so the set stays non-crossing.
    let seg = |id: u64, y: i64| {
        format!(
            r#""params":{{"seg":{id},"x1":{left},"y1":{y},"x2":{},"y2":{y}}}"#,
            left + 50
        )
    };
    let mut script = vec![
        format!(r#"{{"id":20,"method":"insert",{}}}"#, seg(9001, top + 100)),
        format!(r#"{{"id":21,"method":"insert",{}}}"#, seg(9002, top + 200)),
        format!(r#"{{"id":22,"method":"insert",{}}}"#, seg(9002, top + 200)),
        format!(r#"{{"id":23,"method":"delete",{}}}"#, seg(9001, top + 100)),
        format!(r#"{{"id":24,"method":"delete",{}}}"#, seg(9003, top + 300)),
        r#"{"id":25,"method":"flush"}"#.to_string(),
    ];
    script.extend(read_script(&set));
    let stats = Conn::open(server.addr()).run(&script);
    server.shutdown();
    server.wait();
    stats
}

fn router() -> Json {
    let set = mixed_map(400, 13);
    let cuts = XCuts::median_cuts(&set, 2).unwrap();
    let servers: Vec<Server> = cuts
        .fragments(&set)
        .into_iter()
        .map(|frag| Server::start(Arc::new(db(frag)), ServerConfig::default()).unwrap())
        .collect();
    let addrs = servers.iter().map(|s| s.addr().to_string()).collect();
    let router =
        Router::start(ShardMap::new(addrs, cuts).unwrap(), RouterConfig::default()).unwrap();
    let stats = Conn::open(router.addr()).run(&read_script(&set));
    router.shutdown();
    router.wait();
    for s in servers {
        s.shutdown();
        s.wait();
    }
    stats
}

#[test]
fn server_and_router_stats_replies_keep_their_shape() {
    check("server_read_only", &read_only_server());
    check("server_writable", &writable_server());
    check("router", &router());
}

fn cli(args: &[&str]) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_segdb-cli"))
        .args(args)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "segdb-cli {args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    json::parse(String::from_utf8(out.stdout).unwrap().trim_end()).unwrap()
}

#[test]
fn cli_stats_line_keeps_its_shape() {
    let dir = std::env::temp_dir().join(format!("segdb-golden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (csv, db) = (dir.join("map.csv"), dir.join("map.db"));
    let gen = Command::new(env!("CARGO_BIN_EXE_segdb-cli"))
        .args(["gen", "grid", "600", "7"])
        .output()
        .unwrap();
    std::fs::write(&csv, gen.stdout).unwrap();
    let (csv, db) = (csv.to_str().unwrap(), db.to_str().unwrap());
    let built = Command::new(env!("CARGO_BIN_EXE_segdb-cli"))
        .args([
            "build",
            db,
            csv,
            "--index",
            "interval",
            "--page-size",
            "512",
        ])
        .output()
        .unwrap();
    assert!(built.status.success());
    let doc = cli(&["stats", db, csv, "--sample", "40", "--seed", "3"]);
    let _ = std::fs::remove_dir_all(&dir);
    check("cli_stats", &doc);
}

#[test]
fn cli_torture_line_keeps_its_shape() {
    let args = ["torture", "--scenarios", "4", "--n", "60", "--rounds", "10"];
    let doc = cli(&args);
    check("cli_torture", &doc);
    // The masked digest is still a replay fingerprint: a second run of
    // the same invocation prints the same line.
    assert_eq!(
        cli(&args),
        doc,
        "torture output is a function of its arguments"
    );
    let digest = doc.get("trace_digest").and_then(Json::as_str).unwrap();
    assert_eq!(digest.len(), 16, "{digest}");
    assert!(digest.chars().all(|c| c.is_ascii_hexdigit()), "{digest}");
}
