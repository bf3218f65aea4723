//! Connection hardening: admission-gate shedding, write-deadline drops,
//! idle/slow-loris reaping, and the bounded graceful drain. Every
//! scenario must resolve within its deadline — no hung joins, no pinned
//! workers. The gate, reap and drain scenarios run against a `Server`
//! and against a `Router` over one shard: both sit behind the same
//! front-end.

use segdb_core::partition::XCuts;
use segdb_core::SegmentDatabase;
use segdb_geom::gen::mixed_map;
use segdb_obs::json::{self, Json};
use segdb_server::{Router, RouterConfig, Server, ServerConfig, ShardMap};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

fn test_db() -> Arc<SegmentDatabase> {
    Arc::new(
        SegmentDatabase::builder()
            .page_size(512)
            .cache_pages(64)
            .cache_shards(4)
            .observe()
            .build(mixed_map(200, 7))
            .unwrap(),
    )
}

/// Which listener a scenario connects to.
#[derive(Debug, Clone, Copy)]
enum Kind {
    Server,
    Router,
}

/// The listener under test: a server, or a router in front of a default
/// server as its only shard.
struct Front {
    server: Server,
    router: Option<Router>,
}

impl Front {
    /// Start a `kind` listener with the given connection-level bounds.
    /// Returns it with its connection limit: `max_connections` on a
    /// server, the fixed 256 on a router.
    fn start(
        kind: Kind,
        max_connections: usize,
        idle_timeout: Duration,
        drain_timeout: Duration,
    ) -> (Front, usize) {
        match kind {
            Kind::Server => {
                let cfg = ServerConfig {
                    max_connections,
                    idle_timeout,
                    drain_timeout,
                    ..ServerConfig::default()
                };
                let server = Server::start(test_db(), cfg).unwrap();
                let front = Front {
                    server,
                    router: None,
                };
                (front, max_connections)
            }
            Kind::Router => {
                let server = Server::start(test_db(), ServerConfig::default()).unwrap();
                let map = ShardMap::new(
                    vec![server.addr().to_string()],
                    XCuts::new(Vec::new()).unwrap(),
                )
                .unwrap();
                let cfg = RouterConfig {
                    idle_timeout,
                    drain_timeout,
                    ..RouterConfig::default()
                };
                let router = Some(Router::start(map, cfg).unwrap());
                (Front { server, router }, 256)
            }
        }
    }

    fn addr(&self) -> SocketAddr {
        self.router
            .as_ref()
            .map_or_else(|| self.server.addr(), Router::addr)
    }

    /// Stop the listener under test and wait out its drain; returns how
    /// long that took. A router's backing shard is reaped afterwards,
    /// off that clock.
    fn stop(self) -> Duration {
        let t0 = Instant::now();
        let mut took = None;
        if let Some(router) = self.router {
            router.shutdown();
            router.wait();
            took = Some(t0.elapsed());
        }
        self.server.shutdown();
        self.server.wait();
        took.unwrap_or_else(|| t0.elapsed())
    }
}

fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
}

fn roundtrip(stream: &mut TcpStream, line: &str) -> Json {
    stream.write_all(line.as_bytes()).unwrap();
    stream.write_all(b"\n").unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut response = String::new();
    assert!(reader.read_line(&mut response).unwrap() > 0);
    json::parse(response.trim_end()).expect("valid JSON response")
}

fn error_code(v: &Json) -> &str {
    assert_eq!(v.get("ok"), Some(&Json::Bool(false)), "{v:?}");
    v.get("error")
        .and_then(|e| e.get("code"))
        .and_then(Json::as_str)
        .expect("error carries a code")
}

fn server_stat(v: &Json, key: &str) -> u64 {
    v.get("result")
        .and_then(|r| r.get("server"))
        .and_then(|s| s.get(key))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("stats carry server.{key}")) as u64
}

const DEFAULT_IDLE: Duration = Duration::from_secs(30);
const DEFAULT_DRAIN: Duration = Duration::from_secs(5);

#[test]
fn admission_gate_sheds_with_overloaded() {
    for kind in [Kind::Server, Kind::Router] {
        let (front, limit) = Front::start(kind, 1, DEFAULT_IDLE, DEFAULT_DRAIN);
        // Occupy every slot (a served ping proves admission).
        let mut occupants: Vec<TcpStream> = (0..limit)
            .map(|_| {
                let mut c = connect(front.addr());
                let v = roundtrip(&mut c, r#"{"id":1,"method":"ping"}"#);
                assert_eq!(v.get("ok"), Some(&Json::Bool(true)), "{kind:?}");
                c
            })
            .collect();
        // One more is shed at the gate: one `overloaded` line, then EOF.
        let shed = connect(front.addr());
        let mut reader = BufReader::new(shed);
        let mut line = String::new();
        assert!(reader.read_line(&mut line).unwrap() > 0);
        let v = json::parse(line.trim_end()).unwrap();
        assert_eq!(error_code(&v), "overloaded", "{kind:?}");
        line.clear();
        assert_eq!(reader.read_line(&mut line).unwrap(), 0, "gate closes it");
        // The occupants still work, and stats record the shed.
        let v = roundtrip(&mut occupants[0], r#"{"id":2,"method":"stats"}"#);
        assert_eq!(server_stat(&v, "shed"), 1, "{kind:?}");
        assert_eq!(server_stat(&v, "max_connections"), limit as u64);
        // Dropping the occupants frees a slot for a newcomer.
        drop(occupants);
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let mut again = connect(front.addr());
            let v = roundtrip(&mut again, r#"{"id":3,"method":"ping"}"#);
            if v.get("ok") == Some(&Json::Bool(true)) {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "{kind:?}: slot never freed after occupant exit"
            );
            thread::sleep(Duration::from_millis(50));
        }
        front.stop();
    }
}

#[test]
fn slow_loris_connection_is_reaped() {
    for kind in [Kind::Server, Kind::Router] {
        let (front, _) = Front::start(kind, 256, Duration::from_millis(400), DEFAULT_DRAIN);
        let mut loris = connect(front.addr());
        // Trickle a request prefix and never finish the line.
        loris.write_all(b"{\"method\":").unwrap();
        loris.flush().unwrap();
        // The listener must reap the connection: our next read sees EOF.
        let mut reader = BufReader::new(loris.try_clone().unwrap());
        let mut line = String::new();
        assert_eq!(
            reader.read_line(&mut line).unwrap(),
            0,
            "{kind:?}: reaped connection reads EOF, got {line:?}"
        );
        // A well-behaved client still gets served, and the reap is counted.
        let mut ok = connect(front.addr());
        let v = roundtrip(&mut ok, r#"{"id":1,"method":"stats"}"#);
        assert_eq!(server_stat(&v, "reaped"), 1, "{kind:?}");
        assert_eq!(server_stat(&v, "write_drops"), 0, "{kind:?}");
        front.stop();
    }
}

#[test]
fn stalled_reader_costs_the_connection_not_a_worker() {
    // A peer that pipelines many queries with fat replies and never
    // reads fills the kernel buffers; the write deadline must fire and
    // drop the connection instead of pinning the reader thread forever.
    let server = Server::start(
        test_db(),
        ServerConfig {
            write_timeout: Duration::from_millis(300),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let stall = connect(server.addr());
    let mut w = stall.try_clone().unwrap();
    // Small SO_RCVBUF on our side makes the server's send queue fill
    // fast; `trace` replies (spans included) are the fattest available.
    let request =
        b"{\"id\":1,\"method\":\"trace\",\"params\":{\"shape\":\"query_line\",\"x\":70}}\n";
    let t0 = Instant::now();
    let mut write_failed = false;
    for _ in 0..5000 {
        if w.write_all(request).is_err() {
            // The server dropped us; that is the success condition.
            write_failed = true;
            break;
        }
        if t0.elapsed() > Duration::from_secs(20) {
            break;
        }
    }
    // Never reading, we either saw our own writes fail (connection
    // dropped) or the server is still within its write deadline window;
    // in both cases a fresh client must get served promptly — the pool
    // was not consumed by the stalled peer.
    let mut ok = connect(server.addr());
    let t1 = Instant::now();
    let v = roundtrip(&mut ok, r#"{"id":2,"method":"ping"}"#);
    assert_eq!(v.get("ok"), Some(&Json::Bool(true)));
    assert!(
        t1.elapsed() < Duration::from_secs(5),
        "healthy client starved by a stalled peer"
    );
    drop(w);
    drop(stall);
    // Give the server a moment to notice, then check the counter.
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut drops = 0;
    while Instant::now() < deadline {
        let v = roundtrip(&mut ok, r#"{"id":3,"method":"stats"}"#);
        drops = server_stat(&v, "write_drops");
        if drops > 0 {
            break;
        }
        thread::sleep(Duration::from_millis(100));
    }
    assert!(
        drops > 0 || !write_failed,
        "connection was dropped but no write_drop was counted"
    );
    server.shutdown();
    server.wait();
}

#[test]
fn graceful_drain_completes_in_flight_and_refuses_new_connects() {
    let server = Server::start(
        test_db(),
        ServerConfig {
            drain_timeout: Duration::from_secs(5),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.addr();
    // An in-flight request racing the shutdown: it must resolve — an
    // answer or `shutting_down` — never a hang.
    let racer = thread::spawn(move || {
        let mut c = TcpStream::connect(addr).unwrap();
        c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        roundtrip(
            &mut c,
            r#"{"id":1,"method":"query_line","params":{"x":70}}"#,
        )
    });
    thread::sleep(Duration::from_millis(30));
    server.shutdown();
    let t0 = Instant::now();
    server.wait();
    assert!(
        t0.elapsed() < Duration::from_secs(8),
        "wait() must be bounded by the drain deadline"
    );
    let v = racer.join().expect("in-flight request must not hang");
    if v.get("ok") != Some(&Json::Bool(true)) {
        assert_eq!(error_code(&v), "shutting_down", "{v:?}");
    }
    // After the drain, new connects are refused or go unanswered —
    // never served.
    match TcpStream::connect(addr) {
        Err(_) => {}
        Ok(stream) => {
            stream
                .set_read_timeout(Some(Duration::from_secs(2)))
                .unwrap();
            let mut w = stream.try_clone().unwrap();
            let _ = w.write_all(b"{\"method\":\"ping\"}\n");
            let mut reader = BufReader::new(stream);
            let mut line = String::new();
            // EOF or a timeout both prove nothing is serving.
            match reader.read_line(&mut line) {
                Ok(0) | Err(_) => {}
                Ok(_) => panic!("a stopped server answered: {line:?}"),
            }
        }
    }
}

#[test]
fn shutdown_under_many_live_connections_never_hangs() {
    for kind in [Kind::Server, Kind::Router] {
        let (front, _) = Front::start(kind, 256, DEFAULT_IDLE, Duration::from_secs(3));
        // A handful of idle keep-alive connections (no traffic at all).
        let idlers: Vec<TcpStream> = (0..8).map(|_| connect(front.addr())).collect();
        // Readers poll the stop flag every 250 ms; the drain must finish
        // well inside its bound without waiting on the idlers' timeouts.
        assert!(
            front.stop() < Duration::from_secs(6),
            "{kind:?}: drain exceeded its bound with idle connections open"
        );
        drop(idlers);
    }
}
