//! Cluster end-to-end: a scatter-gather router in front of K x-range
//! shards must be observationally identical to one `SegmentDatabase`
//! holding the whole set — for every topology (K ∈ {1, 2, 4}), every
//! index kind, every query shape and every query mode — while segments
//! crossing a shard cut are *replicated* into each side (the per-node
//! short/long split of Theorem 2 applied across machines) and must
//! never be double-reported or dropped at the merge.
//!
//! Also under test: the router's failure semantics (a dead shard turns
//! into a structured `degraded` error; live shards keep answering),
//! upstream wire chaos (the router's resilient clients retry through
//! it), exactly-once writes across router-level replays (the client's
//! request id is the shard-side idempotence key), and the
//! `segdb-load --cluster` report carrying per-shard latency histograms.

use segdb::core::{
    IndexKind, QueryAnswer, QueryMode, SegmentDatabase, WriteEngine, WriterConfig, XCuts,
};
use segdb::geom::gen::mixed_map;
use segdb::geom::Segment;
use segdb::obs::Json;
use segdb::pager::Disk;
use segdb_server::chaos::{NetFaultHandle, NetFaultPlan};
use segdb_server::client::{CallError, Client, ClientConfig};
use segdb_server::load::{self, LoadConfig};
use segdb_server::{Router, RouterConfig, Server, ServerConfig, ShardMap};
use std::sync::Arc;

const INDEXES: [IndexKind; 4] = [
    IndexKind::TwoLevelBinary,
    IndexKind::TwoLevelInterval,
    IndexKind::FullScan,
    IndexKind::StabThenFilter,
];

fn build_db(kind: IndexKind, set: Vec<Segment>) -> Arc<SegmentDatabase> {
    Arc::new(
        SegmentDatabase::builder()
            .page_size(512)
            .cache_pages(64)
            .cache_shards(4)
            .index(kind)
            .build(set)
            .unwrap(),
    )
}

/// K shard servers plus the router in front of them; dropping the
/// harness without [`Cluster::stop`] leaks threads, so every test stops
/// it explicitly.
struct Cluster {
    servers: Vec<Server>,
    router: Option<Router>,
}

impl Cluster {
    /// Read-only shards: fragment `set` at the given cuts, one server
    /// per shard, router in front.
    fn start(set: &[Segment], cuts: XCuts, kind: IndexKind, rcfg: RouterConfig) -> Cluster {
        let servers: Vec<Server> = cuts
            .fragments(set)
            .into_iter()
            .map(|frag| Server::start(build_db(kind, frag), ServerConfig::default()).unwrap())
            .collect();
        Cluster::front(servers, cuts, rcfg)
    }

    /// Writable shards: same fragmentation, each behind a fresh
    /// in-memory WAL.
    fn start_writable(
        set: &[Segment],
        cuts: XCuts,
        kind: IndexKind,
        rcfg: RouterConfig,
    ) -> Cluster {
        let servers: Vec<Server> = cuts
            .fragments(set)
            .into_iter()
            .map(|frag| {
                let db = SegmentDatabase::builder()
                    .page_size(512)
                    .cache_pages(64)
                    .cache_shards(4)
                    .index(kind)
                    .build(frag)
                    .unwrap();
                let (engine, _report) =
                    WriteEngine::recover(db, Box::new(Disk::new(512)), WriterConfig::default())
                        .unwrap();
                Server::start_writable(Arc::new(engine), ServerConfig::default()).unwrap()
            })
            .collect();
        Cluster::front(servers, cuts, rcfg)
    }

    fn front(servers: Vec<Server>, cuts: XCuts, rcfg: RouterConfig) -> Cluster {
        let addrs = servers.iter().map(|s| s.addr().to_string()).collect();
        let map = ShardMap::new(addrs, cuts).unwrap();
        let router = Router::start(map, rcfg).unwrap();
        Cluster {
            servers,
            router: Some(router),
        }
    }

    fn client(&self) -> Client {
        Client::new(ClientConfig {
            addr: self.router.as_ref().unwrap().addr().to_string(),
            ..ClientConfig::default()
        })
    }

    /// Kill shard `i` outright (no drain visible to the router).
    fn kill_shard(&mut self, i: usize) {
        let s = self.servers.remove(i);
        s.shutdown();
        s.wait();
    }

    fn stop(mut self) {
        if let Some(router) = self.router.take() {
            router.shutdown();
            router.wait();
        }
        for s in self.servers.drain(..) {
            s.shutdown();
            s.wait();
        }
    }
}

/// The single-node call answering the same question a wire method asks.
type LocalQuery = Box<dyn Fn(&SegmentDatabase, QueryMode) -> QueryAnswer>;

/// The wire method + params of shape `i % 4` at abscissa `x`, spanning
/// y ∈ [lo, hi], with the single-node call answering the same question.
fn shape(
    i: usize,
    x: i64,
    lo: i64,
    hi: i64,
) -> (&'static str, Vec<(&'static str, i64)>, LocalQuery) {
    match i % 4 {
        0 => (
            "query_line",
            vec![("x", x)],
            Box::new(move |db, m| db.query_line_mode((x, 0), m).unwrap().0),
        ),
        1 => (
            "query_ray_up",
            vec![("x", x), ("y", lo)],
            Box::new(move |db, m| db.query_ray_up_mode((x, lo), m).unwrap().0),
        ),
        2 => (
            "query_ray_down",
            vec![("x", x), ("y", hi)],
            Box::new(move |db, m| db.query_ray_down_mode((x, hi), m).unwrap().0),
        ),
        _ => (
            "query_segment",
            vec![("x1", x), ("y1", lo), ("x2", x), ("y2", hi)],
            Box::new(move |db, m| db.query_segment_mode((x, lo), (x, hi), m).unwrap().0),
        ),
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
/// oracle database.
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
        let (method, params, local) = shape(i, x, lo, hi);
        let expected = collect_ids(local(oracle, QueryMode::Collect));
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
            // The single node must agree mode by mode, not just on the
            // collect set it was sampled from.
            match local(oracle, mode) {
                QueryAnswer::Segments(hits) if mode == QueryMode::Collect => {
                    assert_eq!(reply.ids.len(), hits.len(), "{context}: collect width")
                }
                QueryAnswer::Segments(hits) => {
                    assert_eq!(reply.ids.len(), hits.len(), "{context}: limit width")
                }
                QueryAnswer::Count(c) => assert_eq!(reply.count, c, "{context}: count"),
                QueryAnswer::Exists(b) => assert_eq!(reply.count > 0, b, "{context}: exists"),
            }
        }
    }
}

#[test]
fn router_matches_the_single_node_oracle_for_every_topology() {
    for kind in INDEXES {
        for k in [1usize, 2, 4] {
            let seed = 0xC1A5 + k as u64;
            let set = mixed_map(240, seed);
            let oracle = SegmentDatabase::builder()
                .page_size(512)
                .index(kind)
                .build(set.clone())
                .unwrap();
            let cuts = XCuts::median_cuts(&set, k).unwrap();
            assert_eq!(cuts.shard_count(), k);
            let cluster = Cluster::start(&set, cuts.clone(), kind, RouterConfig::default());
            let mut client = cluster.client();
            // Probe the whole x-range: every cut abscissa (where the
            // touch set is widest), plus interior and out-of-range x's.
            let mut probes: Vec<(i64, i64, i64)> =
                cuts.cuts().iter().map(|&c| (c, -40, 40)).collect();
            let xs: Vec<i64> = set.iter().flat_map(|s| [s.a.x, s.b.x]).collect();
            let (min_x, max_x) = (*xs.iter().min().unwrap(), *xs.iter().max().unwrap());
            for f in 0..8 {
                probes.push((min_x + (max_x - min_x) * f / 7, -60, 60));
            }
            probes.push((min_x - 10, -60, 60));
            probes.push((max_x + 10, -60, 60));
            verify_against_oracle(&mut client, &oracle, &probes, &format!("{kind:?} k={k}"));
            cluster.stop();
        }
    }
}

/// A horizontal segment — distinct heights keep a hand-built set
/// trivially non-crossing.
fn hseg(id: u64, x1: i64, x2: i64, y: i64) -> Segment {
    Segment::new(id, (x1, y), (x2, y)).unwrap()
}

#[test]
fn boundary_replicated_segments_merge_exactly_once() {
    // Cuts at 0 and 100; a seeded generator biased to land endpoints
    // *exactly* on the cuts, so the replication rule and the merge-time
    // dedup are exercised constantly rather than incidentally.
    let cuts = XCuts::new(vec![0, 100]).unwrap();
    let mut rng = segdb_rng::SmallRng::seed_from_u64(0xB0DA);
    let palette: [i64; 8] = [-90, -30, 0, 0, 40, 100, 100, 170];
    let mut set = Vec::new();
    for id in 0..160u64 {
        let x1 = palette[rng.gen_range(0..palette.len())] + rng.gen_range(0..3) - 1;
        let mut x2 = palette[rng.gen_range(0..palette.len())] + rng.gen_range(0..3) - 1;
        if x1 == x2 {
            x2 += 7;
        }
        set.push(hseg(id, x1, x2, id as i64));
    }
    // The bias must actually produce cross-cut segments: replication
    // means the shard fragments sum to more than the set.
    let replicated: usize = cuts.fragments(&set).iter().map(Vec::len).sum();
    assert!(
        replicated > set.len() + 20,
        "generator bias too weak: {replicated} fragments for {} segments",
        set.len()
    );

    let oracle = SegmentDatabase::builder()
        .page_size(512)
        .index(IndexKind::TwoLevelInterval)
        .build(set.clone())
        .unwrap();
    let cluster = Cluster::start(
        &set,
        cuts.clone(),
        IndexKind::TwoLevelInterval,
        RouterConfig::default(),
    );
    let mut client = cluster.client();
    for &x in &[-91, -1, 0, 1, 50, 99, 100, 101, 171] {
        let reply = client
            .query_mode("query_line", &[("x", x)], QueryMode::Collect)
            .unwrap();
        // No duplicates: strictly increasing ids off the wire.
        assert!(
            reply.ids.windows(2).all(|w| w[0] < w[1]),
            "x={x}: duplicate or unsorted ids {:?}",
            reply.ids
        );
        let expected = collect_ids(
            oracle
                .query_line_mode((x, 0), QueryMode::Collect)
                .unwrap()
                .0,
        );
        assert_eq!(reply.ids, expected, "x={x}: collect diverged");
        // Count routes to the owner alone and must agree despite the
        // boundary replication.
        let count = client
            .query_mode("query_line", &[("x", x)], QueryMode::Count)
            .unwrap()
            .count;
        assert_eq!(count, expected.len() as u64, "x={x}: count diverged");
    }
    cluster.stop();
}

/// Raw insert request line with a caller-chosen id — the idempotence
/// key the replay tests reuse verbatim.
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
fn router_survives_upstream_chaos_and_replays_stay_exactly_once() {
    // Three writable shards behind a router whose *upstream*
    // connections pass through a seeded wire-fault schedule.
    let set: Vec<Segment> = (0..60).map(|i| hseg(i, -200, 200, 10 * i as i64)).collect();
    let cuts = XCuts::new(vec![-50, 50]).unwrap();
    let chaos = NetFaultHandle::new(NetFaultPlan::none(0));
    chaos.arm(NetFaultPlan::chaotic(0xFA117));
    let cluster = Cluster::start_writable(
        &set,
        cuts.clone(),
        IndexKind::TwoLevelInterval,
        RouterConfig {
            chaos: Some(chaos.clone()),
            ..RouterConfig::default()
        },
    );
    let mut client = cluster.client();

    // Queries through the chaos: a reply is either correct or the
    // structured `degraded` error (the router's retry budget drowned) —
    // in which case replaying is documented safe, so replay.
    let mut degraded = 0u32;
    for round in 0..30 {
        let x = -220 + round * 15;
        let expected = set.iter().filter(|s| s.a.x <= x && x <= s.b.x).count() as u64;
        let mut attempts = 0;
        loop {
            attempts += 1;
            match client.query_mode("query_line", &[("x", x)], QueryMode::Count) {
                Ok(reply) => {
                    assert_eq!(reply.count, expected, "x={x} count under chaos");
                    break;
                }
                Err(CallError::Terminal { code, .. }) if code == "degraded" => {
                    degraded += 1;
                    assert!(
                        attempts < 50,
                        "x={x}: no convergence after {attempts} tries"
                    );
                }
                Err(e) => panic!("x={x}: unexpected error under chaos: {e}"),
            }
        }
    }
    assert!(
        chaos.stats().total() > 0,
        "the upstream torture mix never fired: {:?}",
        chaos.stats()
    );

    // An insert whose span crosses both cuts fans out to all three
    // shards; replaying the identical line (same request id) after any
    // outcome must stay exactly-once via shard-side dedup.
    let wide = hseg(9001, -150, 150, -7);
    let line = insert_line(0x1DE0_0001, &wide);
    let ack = loop {
        match client.call_line(&line) {
            Ok(result) => break result,
            Err(CallError::Terminal { code, .. }) if code == "degraded" => continue,
            Err(e) => panic!("insert under chaos: unexpected error {e}"),
        }
    };
    assert_eq!(
        ack.get("applied"),
        Some(&Json::Bool(true)),
        "first ack: {ack:?}"
    );
    assert_eq!(
        ack.get("replicas"),
        Some(&Json::U64(3)),
        "a cut-crossing insert replicates to every touched shard: {ack:?}"
    );
    // Deliberate replay of the very same request line.
    let replay = loop {
        match client.call_line(&line) {
            Ok(result) => break result,
            Err(CallError::Terminal { code, .. }) if code == "degraded" => continue,
            Err(e) => panic!("insert replay: unexpected error {e}"),
        }
    };
    assert_eq!(
        replay.get("duplicate"),
        Some(&Json::Bool(true)),
        "the replayed id must be answered from the dedup window: {replay:?}"
    );
    // Exactly-once: the segment is visible exactly once on both sides
    // of each cut it crosses.
    for x in [-100i64, 0, 100] {
        let reply = loop {
            match client.query_mode("query_line", &[("x", x)], QueryMode::Collect) {
                Ok(r) => break r,
                Err(CallError::Terminal { code, .. }) if code == "degraded" => continue,
                Err(e) => panic!("post-insert collect: {e}"),
            }
        };
        assert_eq!(
            reply.ids.iter().filter(|&&id| id == 9001).count(),
            1,
            "x={x}: replicated insert must merge to one hit"
        );
    }
    let _ = degraded; // either outcome is legal; the loop above proved convergence
    cluster.stop();
}

#[test]
fn a_dead_shard_degrades_structuredly_and_the_rest_keep_serving() {
    let set: Vec<Segment> = (0..40).map(|i| hseg(i, -20, 20, i as i64)).collect();
    // Shard 2 exclusively owns x ≥ 100 — killing it must not disturb
    // queries over the live shards' ranges.
    let cuts = XCuts::new(vec![0, 100]).unwrap();
    let mut cluster = Cluster::start(
        &set,
        cuts,
        IndexKind::TwoLevelBinary,
        RouterConfig::default(),
    );
    let mut client = cluster.client();
    assert_eq!(
        client
            .query_mode("query_line", &[("x", 5)], QueryMode::Count)
            .unwrap()
            .count,
        40
    );
    cluster.kill_shard(2);
    // A query the dead shard owns: the structured partial-failure, not
    // a hang and not a silent wrong answer.
    match client.query_mode("query_line", &[("x", 500)], QueryMode::Count) {
        Err(CallError::Terminal { code, message }) => {
            assert_eq!(code, "degraded", "unexpected code: {message}");
            assert!(
                message.contains("shard 2"),
                "the degraded reply names the failed shard: {message}"
            );
        }
        other => panic!("expected the degraded error, got {other:?}"),
    }
    // Queries owned by live shards are untouched.
    assert_eq!(
        client
            .query_mode("query_line", &[("x", -5)], QueryMode::Count)
            .unwrap()
            .count,
        40
    );
    // The health fan-out reports the dead member.
    let health = client.remote_health().unwrap();
    assert_eq!(health.get("ok"), Some(&Json::Bool(false)), "{health:?}");
    assert_eq!(
        health.get("role").and_then(Json::as_str),
        Some("router"),
        "{health:?}"
    );
    let shards = health.get("shards").and_then(Json::as_arr).unwrap();
    assert_eq!(shards.len(), 3);
    assert_eq!(shards[2].get("ok"), Some(&Json::Bool(false)), "{health:?}");
    assert_eq!(shards[0].get("ok"), Some(&Json::Bool(true)), "{health:?}");
    cluster.stop();
}

#[test]
fn load_driver_lifts_per_shard_histograms_into_the_cluster_block() {
    let cfg = LoadConfig {
        connections: 2,
        requests: 80,
        n: 400,
        seed: 7,
        cluster: true,
        ..LoadConfig::default()
    };
    let set = cfg.family.generate(cfg.n, cfg.seed);
    let cuts = XCuts::median_cuts(&set, 3).unwrap();
    let cluster = Cluster::start(
        &set,
        cuts,
        IndexKind::TwoLevelInterval,
        RouterConfig::default(),
    );
    let cfg = LoadConfig {
        addr: cluster.router.as_ref().unwrap().addr().to_string(),
        ..cfg
    };
    let report = load::run_load(&cfg).unwrap();
    assert_eq!(report.wrong, 0, "verified answers through the router");
    assert_eq!(report.sent, 80);
    let doc = report.to_json(&cfg);
    let shards = doc
        .get("cluster")
        .and_then(|c| c.get("shards"))
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("report carries cluster.shards: {}", doc.render()));
    assert_eq!(shards.len(), 3, "one entry per shard");
    let mut upstream_requests = 0.0;
    for shard in shards {
        assert!(shard.get("addr").is_some());
        assert!(
            shard.get("latency_us").and_then(|l| l.get("p99")).is_some(),
            "per-shard latency summary: {}",
            shard.render()
        );
        assert!(
            shard
                .get("histogram")
                .and_then(|h| h.get("buckets"))
                .is_some(),
            "per-shard latency buckets: {}",
            shard.render()
        );
        upstream_requests += shard.get("requests").and_then(Json::as_f64).unwrap_or(0.0);
    }
    assert!(
        upstream_requests >= report.ok as f64,
        "the shards saw at least one upstream call per routed request"
    );
    // The router stats also carry the failover block — informational
    // here (R=1, nothing to fail over to), but it must be present so
    // replicated runs can read it.
    let failover = doc
        .get("cluster")
        .and_then(|c| c.get("failover"))
        .unwrap_or_else(|| panic!("report carries cluster.failover: {}", doc.render()));
    for key in ["failovers", "hedges", "breaker_opens"] {
        assert!(
            failover.get(key).is_some(),
            "failover block carries {key}: {}",
            failover.render()
        );
    }
    cluster.stop();
}
