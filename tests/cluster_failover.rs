//! Replicated-cluster failover end-to-end: every shard of the x-range
//! cluster carries an R-way replica set, and the router must survive
//! the death of any single replica per shard — for every topology and
//! every query mode — without a single `degraded` reply, answering
//! bit-identically to the single-node oracle the whole time.
//!
//! Also under test: writes fanned to every replica staying exactly-once
//! under replays keyed by the client request id while one replica is
//! down (the dead replica is reported `lagging`, never fatal); the
//! health fan-out turning red on a kill and green again after the
//! replica restarts and catches up over `sync_from`; and the restarted
//! replica serving oracle-matching reads once its twin dies in turn.

use segdb::core::{
    IndexKind, Query, QueryAnswer, QueryMode, SegmentDatabase, WriteEngine, WriterConfig, XCuts,
};
use segdb::geom::gen::mixed_map;
use segdb::geom::Segment;
use segdb::obs::Json;
use segdb::pager::Disk;
use segdb_server::client::{Client, ClientConfig};
use segdb_server::load::{self, LoadConfig};
use segdb_server::{proto, Router, RouterConfig, Server, ServerConfig, ShardMap};
use std::sync::Arc;

/// One writable replica: the shard's fragment behind a fresh in-memory
/// WAL, bound to `addr` (`127.0.0.1:0` for an ephemeral port, or a
/// previously-used address when restarting a killed replica in place).
fn writable_replica(frag: Vec<Segment>, kind: IndexKind, addr: &str) -> Server {
    let db = SegmentDatabase::builder()
        .page_size(512)
        .cache_pages(64)
        .cache_shards(4)
        .index(kind)
        .build(frag)
        .unwrap();
    let (engine, _report) =
        WriteEngine::recover(db, Box::new(Disk::new(512)), WriterConfig::default()).unwrap();
    Server::start_writable(
        Arc::new(engine),
        ServerConfig {
            addr: addr.to_string(),
            ..ServerConfig::default()
        },
    )
    .unwrap()
}

/// K shards × R replicas plus the router in front; replicas are killed
/// and restarted in place by (shard, replica) index. Every test stops
/// the harness explicitly.
struct ReplicatedCluster {
    /// `servers[s][r]`; `None` marks a killed replica.
    servers: Vec<Vec<Option<Server>>>,
    addrs: Vec<Vec<String>>,
    fragments: Vec<Vec<Segment>>,
    kind: IndexKind,
    router: Option<Router>,
}

impl ReplicatedCluster {
    fn start(
        set: &[Segment],
        cuts: XCuts,
        kind: IndexKind,
        r: usize,
        rcfg: RouterConfig,
    ) -> ReplicatedCluster {
        let fragments = cuts.fragments(set);
        let mut servers = Vec::new();
        let mut addrs = Vec::new();
        for frag in &fragments {
            let mut row = Vec::new();
            let mut row_addrs = Vec::new();
            for _ in 0..r {
                let server = writable_replica(frag.clone(), kind, "127.0.0.1:0");
                row_addrs.push(server.addr().to_string());
                row.push(Some(server));
            }
            servers.push(row);
            addrs.push(row_addrs);
        }
        let map = ShardMap::new_replicated(addrs.clone(), cuts).unwrap();
        let router = Router::start(map, rcfg).unwrap();
        ReplicatedCluster {
            servers,
            addrs,
            fragments,
            kind,
            router: Some(router),
        }
    }

    fn router_addr(&self) -> String {
        self.router.as_ref().unwrap().addr().to_string()
    }

    fn client(&self) -> Client {
        Client::new(ClientConfig {
            addr: self.router_addr(),
            ..ClientConfig::default()
        })
    }

    /// A client talking to one replica directly — the path replica
    /// catch-up (`sync_from`) is driven over.
    fn replica_client(&self, s: usize, r: usize) -> Client {
        Client::new(ClientConfig {
            addr: self.addrs[s][r].clone(),
            ..ClientConfig::default()
        })
    }

    /// Kill replica `(s, r)` outright — no drain visible to the router.
    fn kill(&mut self, s: usize, r: usize) {
        let server = self.servers[s][r].take().expect("replica already dead");
        server.shutdown();
        server.wait();
    }

    /// Restart a killed replica at its old address from the *pristine*
    /// shard fragment and an empty WAL — it has missed every write since
    /// the cluster started and must catch up over `sync_from`.
    fn restart_pristine(&mut self, s: usize, r: usize) {
        assert!(self.servers[s][r].is_none(), "replica ({s},{r}) is alive");
        let server = writable_replica(self.fragments[s].clone(), self.kind, &self.addrs[s][r]);
        self.servers[s][r] = Some(server);
    }

    fn stop(mut self) {
        if let Some(router) = self.router.take() {
            router.shutdown();
            router.wait();
        }
        for row in self.servers.drain(..) {
            for server in row.into_iter().flatten() {
                server.shutdown();
                server.wait();
            }
        }
    }
}

/// Shape `i % 4` at abscissa `x`, spanning y ∈ [lo, hi].
fn shape(i: usize, x: i64, lo: i64, hi: i64) -> Query {
    match i % 4 {
        0 => Query::Line { x, y: 0 },
        1 => Query::RayUp { x, y: lo },
        2 => Query::RayDown { x, y: hi },
        _ => Query::Segment {
            x1: x,
            y1: lo,
            x2: x,
            y2: hi,
        },
    }
}

/// Sorted ids of a collect answer.
fn collect_ids(answer: QueryAnswer) -> Vec<u64> {
    let QueryAnswer::Segments(hits) = answer else {
        panic!("collect answers materialize segments")
    };
    let mut ids: Vec<u64> = hits.iter().map(|s| s.id).collect();
    ids.sort_unstable();
    ids
}

/// Replay every (shape, mode) combination at the given abscissae
/// through `client` and hold each answer against the single-node
/// oracle. Any error reply — `degraded` included — panics: a replicated
/// cluster down one replica per shard must not even *report* trouble.
fn verify_against_oracle(
    client: &mut Client,
    oracle: &SegmentDatabase,
    probes: &[(i64, i64, i64)],
    context: &str,
) {
    let modes = [
        QueryMode::Collect,
        QueryMode::Count,
        QueryMode::Exists,
        QueryMode::Limit(3),
    ];
    for (i, &(x, lo, hi)) in probes.iter().enumerate() {
        let q = shape(i, x, lo, hi);
        let (method, params) = proto::query_wire(&q);
        let expected = collect_ids(oracle.query(&q, QueryMode::Collect).unwrap().0);
        for mode in modes {
            let reply = client
                .query_mode(method, &params, mode)
                .unwrap_or_else(|e| panic!("{context}: {method} #{i} {mode:?} failed: {e}"));
            assert!(
                load::verify_reply(mode, &reply.ids, reply.count, &expected),
                "{context}: {method} #{i} {mode:?} diverged: \
                 got ids {:?} count {} vs expected {expected:?}",
                reply.ids,
                reply.count,
            );
        }
    }
}

#[test]
fn killing_one_replica_per_shard_keeps_every_mode_oracle_exact() {
    for k in [2usize, 4] {
        let set = mixed_map(200, 0xFA11 + k as u64);
        let oracle = SegmentDatabase::builder()
            .page_size(512)
            .index(IndexKind::TwoLevelInterval)
            .build(set.clone())
            .unwrap();
        let cuts = XCuts::median_cuts(&set, k).unwrap();
        assert_eq!(cuts.shard_count(), k);
        let mut cluster = ReplicatedCluster::start(
            &set,
            cuts.clone(),
            IndexKind::TwoLevelInterval,
            2,
            RouterConfig::default(),
        );
        let mut client = cluster.client();
        // Probe every cut abscissa (where the touch set is widest) plus
        // a spread of interior x's.
        let mut probes: Vec<(i64, i64, i64)> = cuts.cuts().iter().map(|&c| (c, -60, 60)).collect();
        let xs: Vec<i64> = set.iter().flat_map(|s| [s.a.x, s.b.x]).collect();
        let (min_x, max_x) = (*xs.iter().min().unwrap(), *xs.iter().max().unwrap());
        for f in 0..6 {
            probes.push((min_x + (max_x - min_x) * f / 5, -60, 60));
        }
        verify_against_oracle(&mut client, &oracle, &probes, &format!("k={k} baseline"));
        // Kill the *preferred* replica of every shard at once — the
        // strongest single-replica-per-shard outage — and re-verify the
        // full shape × mode matrix. Any `degraded` reply panics.
        for s in 0..k {
            cluster.kill(s, 0);
        }
        verify_against_oracle(
            &mut client,
            &oracle,
            &probes,
            &format!("k={k} preferred replicas dead"),
        );
        // The stats fan-out stays partial-tolerant and records that the
        // survival was failover, not luck.
        let stats = client.remote_stats().unwrap();
        let failover = stats
            .get("router")
            .and_then(|r| r.get("failover"))
            .unwrap_or_else(|| panic!("stats carry router.failover: {}", stats.render()));
        let failovers = failover
            .get("failovers")
            .and_then(Json::as_f64)
            .unwrap_or(0.0);
        assert!(
            failovers > 0.0,
            "k={k}: no failovers recorded: {failover:?}"
        );
        cluster.stop();
    }
}

#[test]
fn mixed_write_load_survives_replica_death_with_zero_degraded_errors() {
    let cfg = LoadConfig {
        connections: 2,
        requests: 160,
        n: 300,
        seed: 11,
        write_pct: 30,
        cluster: true,
        ..LoadConfig::default()
    };
    let set = cfg.family.generate(cfg.n, cfg.seed);
    let cuts = XCuts::median_cuts(&set, 2).unwrap();
    let mut cluster = ReplicatedCluster::start(
        &set,
        cuts,
        IndexKind::TwoLevelInterval,
        2,
        RouterConfig::default(),
    );
    // One replica per shard is dead for the whole run (the harshest
    // variant of a mid-run kill: every single request sees the outage),
    // on different sides so neither preferred-replica bias hides it.
    cluster.kill(0, 0);
    cluster.kill(1, 1);
    let cfg = LoadConfig {
        addr: cluster.router_addr(),
        ..cfg
    };
    let report = load::run_load(&cfg).unwrap();
    assert_eq!(report.sent, 160);
    assert_eq!(report.errors, 0, "no request may surface the outage");
    assert_eq!(report.degraded, 0, "zero degraded replies");
    assert_eq!(report.wrong, 0);
    assert!(report.write_acked > 0, "the mix actually wrote");
    assert_eq!(report.write_failed, 0);
    assert!(report.sweep_checked > 0, "the shadow sweep ran");
    assert_eq!(report.sweep_wrong, 0, "post-run sweep oracle-exact");
    let doc = report.to_json(&cfg);
    assert_eq!(
        doc.get("degraded"),
        Some(&Json::U64(0)),
        "the report surfaces the degraded tally: {}",
        doc.render()
    );
    let failover = doc
        .get("cluster")
        .and_then(|c| c.get("failover"))
        .unwrap_or_else(|| panic!("report carries cluster.failover: {}", doc.render()));
    let failovers = failover
        .get("failovers")
        .and_then(Json::as_f64)
        .unwrap_or(0.0);
    assert!(failovers > 0.0, "reads failed over: {failover:?}");
    cluster.stop();
}

/// A horizontal segment — distinct heights keep a hand-built set
/// trivially non-crossing.
fn hseg(id: u64, x1: i64, x2: i64, y: i64) -> Segment {
    Segment::new(id, (x1, y), (x2, y)).unwrap()
}

/// Raw insert request line with a caller-chosen id — the idempotence
/// key the replay assertions reuse verbatim.
fn insert_line(id: u64, seg: &Segment) -> String {
    Json::obj([
        ("id", Json::U64(id)),
        ("method", Json::Str("insert".to_string())),
        (
            "params",
            Json::obj([
                ("seg", Json::U64(seg.id)),
                ("x1", Json::I64(seg.a.x)),
                ("y1", Json::I64(seg.a.y)),
                ("x2", Json::I64(seg.b.x)),
                ("y2", Json::I64(seg.b.y)),
            ]),
        ),
    ])
    .render()
}

#[test]
fn a_restarted_replica_catches_up_over_the_wire_and_serves_exactly_once() {
    // Two shards (cut at 0) × two replicas; every segment spans the cut
    // so every write fans to all four replicas.
    let set: Vec<Segment> = (0..40).map(|i| hseg(i, -200, 200, 10 * i as i64)).collect();
    let cuts = XCuts::new(vec![0]).unwrap();
    let mut cluster = ReplicatedCluster::start(
        &set,
        cuts,
        IndexKind::TwoLevelInterval,
        2,
        RouterConfig::default(),
    );
    let mut client = cluster.client();

    // While every replica is live, a fanned write is acked by all four.
    for i in 0..10u64 {
        let seg = hseg(1000 + i, -150, 150, 401 + 10 * i as i64);
        let ack = client.call_line(&insert_line(0xAB00 + i, &seg)).unwrap();
        assert_eq!(ack.get("applied"), Some(&Json::Bool(true)), "{ack:?}");
        assert_eq!(ack.get("replicas"), Some(&Json::U64(4)), "{ack:?}");
        assert_eq!(ack.get("acked"), Some(&Json::U64(4)), "{ack:?}");
        assert_eq!(ack.get("lagging"), None, "{ack:?}");
    }

    // Shard 0 loses its preferred replica. Writes keep landing on the
    // three survivors; the dead replica is reported lagging, not fatal.
    cluster.kill(0, 0);
    let dead_addr = cluster.addrs[0][0].clone();
    for i in 10..20u64 {
        let seg = hseg(1000 + i, -150, 150, 401 + 10 * i as i64);
        let ack = client.call_line(&insert_line(0xAB00 + i, &seg)).unwrap();
        assert_eq!(ack.get("applied"), Some(&Json::Bool(true)), "{ack:?}");
        assert_eq!(ack.get("replicas"), Some(&Json::U64(4)), "{ack:?}");
        assert_eq!(ack.get("acked"), Some(&Json::U64(3)), "{ack:?}");
        let lagging = ack.get("lagging").and_then(Json::as_arr).unwrap();
        assert_eq!(lagging, &[Json::Str(dead_addr.clone())], "{ack:?}");
    }

    // Exactly-once across the outage: replaying the identical request
    // line (same id) is answered from the survivors' dedup windows.
    let wide = hseg(9001, -150, 150, 999);
    let line = insert_line(0x1DEA, &wide);
    let ack = client.call_line(&line).unwrap();
    assert_eq!(ack.get("applied"), Some(&Json::Bool(true)), "{ack:?}");
    let replay = client.call_line(&line).unwrap();
    assert_eq!(
        replay.get("duplicate"),
        Some(&Json::Bool(true)),
        "the replayed id must be answered from the dedup window: {replay:?}"
    );

    // Health turns red while the replica is down...
    let health = client.remote_health().unwrap();
    assert_eq!(health.get("ok"), Some(&Json::Bool(false)), "{health:?}");
    let shards = health.get("shards").and_then(Json::as_arr).unwrap();
    // ...but the shard itself is still ok: its twin is serving.
    assert_eq!(shards[0].get("ok"), Some(&Json::Bool(true)), "{health:?}");
    let reps = shards[0].get("replicas").and_then(Json::as_arr).unwrap();
    assert_eq!(reps[0].get("ok"), Some(&Json::Bool(false)), "{health:?}");
    assert_eq!(reps[1].get("ok"), Some(&Json::Bool(true)), "{health:?}");

    // Restart the dead replica in place — pristine fragment, empty WAL —
    // and pull everything it missed from its live twin.
    cluster.restart_pristine(0, 0);
    let mut replica = cluster.replica_client(0, 0);
    let peer = cluster.addrs[0][1].clone();
    let sync = replica.sync_from(&peer, Some(0)).unwrap();
    // 21 inserts touched shard 0 (20 numbered + the exactly-once one);
    // the replay was deduplicated at the peer, so exactly 21 records.
    assert_eq!(sync.get("received"), Some(&Json::U64(21)), "{sync:?}");
    assert_eq!(sync.get("applied"), Some(&Json::U64(21)), "{sync:?}");
    assert_eq!(sync.get("skipped"), Some(&Json::U64(0)), "{sync:?}");

    // The health fan-out goes green again — its successful ping is also
    // what closes the restarted replica's breaker for reads.
    let health = client.remote_health().unwrap();
    assert_eq!(
        health.get("ok"),
        Some(&Json::Bool(true)),
        "red → green after restart + catch-up: {health:?}"
    );

    // Now the *other* replica dies: shard 0 is served exclusively by
    // the restarted one, and it must answer oracle-exact.
    cluster.kill(0, 1);
    let reply = client
        .query_mode("query_line", &[("x", -5)], QueryMode::Collect)
        .unwrap();
    let mut expected: Vec<u64> = (0..40).collect();
    expected.extend(1000..1020);
    expected.push(9001);
    assert_eq!(
        reply.ids, expected,
        "restarted replica serves the catch-up set"
    );
    assert_eq!(
        reply.ids.iter().filter(|&&id| id == 9001).count(),
        1,
        "the replayed insert is visible exactly once"
    );
    let count = client
        .query_mode("query_line", &[("x", -5)], QueryMode::Count)
        .unwrap()
        .count;
    assert_eq!(count, expected.len() as u64);
    cluster.stop();
}
