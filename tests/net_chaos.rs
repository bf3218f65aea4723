//! Network-chaos torture: a resilient client talking to a live server
//! through a seeded wire-fault schedule must still answer every query
//! bit-identically to the in-memory scan oracle — for both index
//! kinds, across 16 seeded runs — and the whole exercise must be
//! replayable: the same seed reproduces the same fault trace, and the
//! process-wide accounting balances (every disruptive injection is
//! observed by the client exactly once).
//!
//! The wire-fault ledger `segdb_server::chaos::NET` is process-global,
//! so every test in this binary serialises behind one mutex and asserts
//! monotone *deltas* inside the guard, never absolute values.

use segdb::core::{IndexKind, QueryMode, SegmentDatabase};
use segdb::geom::gen::{mixed_map, vertical_queries};
use segdb::geom::query::scan_oracle;
use segdb::geom::{Segment, VerticalQuery};
use segdb_server::chaos::{Net, NetFaultHandle, NetFaultPlan, NET};
use segdb_server::client::{Client, ClientConfig};
use segdb_server::{load, proto, Server, ServerConfig};
use std::sync::{Arc, Mutex, MutexGuard};

const INDEXES: [IndexKind; 2] = [IndexKind::TwoLevelBinary, IndexKind::TwoLevelInterval];

/// One gate for the whole binary: the net-fault counters are shared by
/// every armed handle in the process.
static GATE: Mutex<()> = Mutex::new(());

/// The wire-fault ledger's `(observed faults, disruptive injections)`.
fn ledger() -> (u64, u64) {
    (NET.get(Net::ObservedFault), NET.sum(&Net::DISRUPTIVE))
}

fn gate() -> MutexGuard<'static, ()> {
    GATE.lock().unwrap_or_else(|p| p.into_inner())
}

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

fn client_for(server: &Server, chaos: Option<NetFaultHandle>) -> Client {
    let cfg = ClientConfig {
        addr: server.addr().to_string(),
        ..ClientConfig::default()
    };
    match chaos {
        Some(h) => Client::with_chaos(cfg, h),
        None => Client::new(cfg),
    }
}

/// The wire method + params for query `i` of the stream, cycling the
/// four generalized-segment shapes, with the matching oracle query.
fn shape(i: usize, q: &VerticalQuery) -> (&'static str, Vec<(&'static str, i64)>, VerticalQuery) {
    let oracle = load::cycle_shape(i, q);
    let (method, params) = proto::query_wire(&oracle.into());
    (method, params, oracle)
}

/// Replay `queries` through `client` and check every answer against the
/// oracle over `set`. Panics with the run's context on any mismatch.
fn verify_stream(client: &mut Client, set: &[Segment], queries: &[VerticalQuery], context: &str) {
    for (i, q) in queries.iter().enumerate() {
        let (method, params, oracle_q) = shape(i, q);
        let got = client
            .query_mode(method, &params, QueryMode::Collect)
            .unwrap_or_else(|e| panic!("{context}: {method} #{i} failed: {e}"))
            .ids;
        let expected: Vec<u64> = scan_oracle(set, &oracle_q).iter().map(|s| s.id).collect();
        assert_eq!(got, expected, "{context}: {method} #{i} diverged");
    }
}

#[test]
fn chaotic_client_matches_the_oracle_for_every_kind_across_seeds() {
    let _g = gate();
    let before = ledger();
    let mut runs = 0u32;
    let mut injected_total = 0u64;
    for kind in INDEXES {
        for seed in 0..8u64 {
            let run_seed = seed * 4 + 1; // distinct streams per (kind, seed)
            let set = mixed_map(300, run_seed);
            let queries = vertical_queries(&set, 20, 120, run_seed ^ 0xBEEF);
            let server =
                Server::start(build_db(kind, set.clone()), ServerConfig::default()).unwrap();
            let chaos = NetFaultHandle::new(NetFaultPlan::none(0));
            chaos.arm(NetFaultPlan::chaotic(run_seed));
            let mut client = client_for(&server, Some(chaos.clone()));
            verify_stream(
                &mut client,
                &set,
                &queries,
                &format!("{kind:?} seed {run_seed}"),
            );
            // Per-run balance: the client saw each disruptive injection
            // exactly once — no double counts, nothing slipped through.
            let injected = chaos.stats();
            let observed = client.stats();
            assert_eq!(
                observed.observed_faults,
                injected.disruptive(),
                "{kind:?} seed {run_seed}: injected {injected:?} vs observed {observed:?}"
            );
            injected_total += injected.total();
            runs += 1;
            server.shutdown();
            server.wait();
        }
    }
    assert_eq!(runs, 16, "2 kinds x 8 seeds");
    assert!(
        injected_total > 0,
        "the torture mix never fired across 16 runs"
    );
    // Process-wide balance over the whole sweep, as the server's
    // `stats` method reports it.
    let after = ledger();
    assert_eq!(
        after.0 - before.0,
        after.1 - before.1,
        "global injected/observed ledger diverged: {before:?} -> {after:?}"
    );
}

/// One chaotic run: fresh database, server, and client, all derived
/// from `seed`. Returns the fault-trace digest, the logical-op count,
/// and every answer.
fn chaotic_run(seed: u64) -> (u64, u64, Vec<Vec<u64>>) {
    let set = mixed_map(250, seed);
    let queries = vertical_queries(&set, 16, 120, seed ^ 0xBEEF);
    let server = Server::start(
        build_db(IndexKind::TwoLevelBinary, set),
        ServerConfig::default(),
    )
    .unwrap();
    let chaos = NetFaultHandle::new(NetFaultPlan::none(0));
    chaos.arm(NetFaultPlan::chaotic(seed));
    let mut client = client_for(&server, Some(chaos.clone()));
    let answers = queries
        .iter()
        .enumerate()
        .map(|(i, q)| {
            let (method, params, _) = shape(i, q);
            client
                .query_mode(method, &params, QueryMode::Collect)
                .unwrap_or_else(|e| panic!("seed {seed}: {method} #{i} failed: {e}"))
                .ids
        })
        .collect();
    let digest = chaos.digest();
    let ops = chaos.ops();
    server.shutdown();
    server.wait();
    (digest, ops, answers)
}

#[test]
fn same_seed_replays_the_identical_fault_trace() {
    let _g = gate();
    let mut digests = Vec::new();
    for seed in [0xA11CE, 0xB0B, 0xCAFE] {
        let (d1, ops1, a1) = chaotic_run(seed);
        let (d2, ops2, a2) = chaotic_run(seed);
        assert_eq!(d1, d2, "seed {seed}: trace digest not replay-stable");
        assert_eq!(ops1, ops2, "seed {seed}: logical op streams diverged");
        assert_eq!(a1, a2, "seed {seed}: answers diverged between replays");
        digests.push(d1);
    }
    digests.sort_unstable();
    digests.dedup();
    assert_eq!(digests.len(), 3, "different seeds must trace differently");
}

#[test]
fn server_side_accept_chaos_is_survived_and_reported() {
    let _g = gate();
    let before = ledger();
    let seed = 0xD00F;
    let set = mixed_map(300, seed);
    let queries = vertical_queries(&set, 30, 120, seed ^ 0xBEEF);
    // Accept-time resets only, drawn once per connection — so force one
    // connect per request by dropping the client's connection between
    // calls. p = 0.4 over ≥ 30 accepts makes a zero-reset run
    // vanishingly unlikely (0.6^30 ≈ 2e-7).
    let chaos = NetFaultHandle::new(NetFaultPlan::none(0));
    chaos.arm(NetFaultPlan {
        accept_reset: 0.4,
        ..NetFaultPlan::none(seed)
    });
    let server = Server::start(
        build_db(IndexKind::TwoLevelInterval, set.clone()),
        ServerConfig {
            chaos: Some(chaos.clone()),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut client = client_for(&server, None);
    for (i, q) in queries.iter().enumerate() {
        let (method, params, oracle_q) = shape(i, q);
        client.disconnect();
        let got = client
            .query_mode(method, &params, QueryMode::Collect)
            .unwrap_or_else(|e| panic!("{method} #{i} failed: {e}"))
            .ids;
        let expected: Vec<u64> = scan_oracle(&set, &oracle_q).iter().map(|s| s.id).collect();
        assert_eq!(got, expected, "{method} #{i} diverged under accept chaos");
    }
    assert!(
        chaos.stats().accept_resets > 0,
        "the accept gauntlet never fired: {:?}",
        chaos.stats()
    );
    // The server's own stats must carry the ledger, and it must
    // balance: every dropped accept cost the client exactly one
    // observed wire fault.
    let doc = client.remote_stats().expect("stats over the wire");
    let net = doc.get("net").expect("stats carry a net block");
    let wire = |key: &str| {
        net.get(key)
            .and_then(segdb::obs::Json::as_f64)
            .unwrap_or_else(|| panic!("net block carries {key}")) as u64
    };
    let after = ledger();
    assert_eq!(wire("injected_accept_resets"), NET.get(Net::AcceptReset));
    assert_eq!(wire("observed_faults"), after.0);
    assert_eq!(
        after.0 - before.0,
        after.1 - before.1,
        "accept-reset ledger diverged: {before:?} -> {after:?}"
    );
    server.shutdown();
    server.wait();
}

#[test]
fn chaos_on_both_sides_still_verifies() {
    // Client-side wire faults and server-side accept resets at once.
    // The injected/observed ledger is not 1:1 here (a client-side fault
    // can kill an attempt before the server's dropped accept is ever
    // noticed), so this only asserts the property that matters:
    // answers stay bit-identical to the oracle and every call
    // terminates.
    let _g = gate();
    for seed in [3u64, 17, 99] {
        let set = mixed_map(250, seed);
        let queries = vertical_queries(&set, 12, 120, seed ^ 0xBEEF);
        let server_chaos = NetFaultHandle::new(NetFaultPlan::none(0));
        server_chaos.arm(NetFaultPlan {
            accept_reset: 0.2,
            ..NetFaultPlan::none(seed ^ 0x5EED)
        });
        let server = Server::start(
            build_db(IndexKind::TwoLevelBinary, set.clone()),
            ServerConfig {
                chaos: Some(server_chaos),
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let client_chaos = NetFaultHandle::new(NetFaultPlan::none(0));
        client_chaos.arm(NetFaultPlan::chaotic(seed));
        let mut client = client_for(&server, Some(client_chaos));
        verify_stream(
            &mut client,
            &set,
            &queries,
            &format!("both-sides seed {seed}"),
        );
        server.shutdown();
        server.wait();
    }
}
