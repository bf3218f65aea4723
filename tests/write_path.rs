//! Write-path end-to-end: `insert` / `delete` / `flush` over the wire
//! through the resilient client, read-only refusals, idempotent retry
//! semantics under injected wire faults, writer metrics in the `stats`
//! reply, and background tombstone compaction. Below the wire: the
//! membership probe behind `delete` and `sync_apply` is exact, and a
//! delete is priced in pages beside an insert.
//!
//! The chaos test shares the process-global wire-fault ledger
//! `segdb_server::chaos::NET` with nothing else in this binary, so no
//! cross-test gate is needed — each test asserts only state it created
//! itself.

use segdb::core::testutil::oracle_query;
use segdb::core::{IndexKind, QueryMode, SegmentDatabase, WriteEngine, WriterConfig};
use segdb::geom::gen::{mixed_map, spans_and_star, strips, vertical_queries};
use segdb::geom::transform::Direction;
use segdb::geom::{Segment, VerticalQuery};
use segdb::obs::Json;
use segdb::pager::{Disk, FaultDevice, FaultPlan};
use segdb::wal::{WalOp, WalRecord};
use segdb_server::chaos::{NetFaultHandle, NetFaultPlan};
use segdb_server::client::{Client, ClientConfig};
use segdb_server::{Server, ServerConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A horizontal segment spanning x ∈ [0, 1000] at height `y`.
fn hseg(id: u64, y: i64) -> Segment {
    Segment::new(id, (0, y), (1000, y)).unwrap()
}

/// A writable server over `n` stacked horizontal segments (ids `0..n`
/// at y = 10·id), plus the engine handle the server shares.
fn writable_server(n: u64, cfg: ServerConfig, wcfg: WriterConfig) -> (Server, Arc<WriteEngine>) {
    let set: Vec<Segment> = (0..n).map(|i| hseg(i, 10 * i as i64)).collect();
    let db = SegmentDatabase::builder()
        .page_size(512)
        .cache_pages(64)
        .cache_shards(4)
        .observe()
        .index(IndexKind::TwoLevelInterval)
        .build(set)
        .unwrap();
    let (engine, report) = WriteEngine::recover(db, Box::new(Disk::new(512)), wcfg).unwrap();
    assert_eq!(report.replayed, 0, "a fresh WAL has nothing to replay");
    let engine = Arc::new(engine);
    let server = Server::start_writable(Arc::clone(&engine), cfg).unwrap();
    (server, engine)
}

fn client_for(server: &Server) -> Client {
    Client::new(ClientConfig {
        addr: server.addr().to_string(),
        ..ClientConfig::default()
    })
}

/// Count of stored segments stabbed by the vertical line at `x`.
fn line_count(client: &mut Client, x: i64) -> u64 {
    client
        .query_mode("query_line", &[("x", x)], segdb::core::QueryMode::Count)
        .unwrap()
        .count
}

#[test]
fn insert_delete_flush_round_trip() {
    let (server, _engine) = writable_server(20, ServerConfig::default(), WriterConfig::default());
    let mut client = client_for(&server);
    assert_eq!(line_count(&mut client, 500), 20);

    // Insert two fresh segments; both answer applied, non-duplicate.
    let a = client.insert(&hseg(100, 5)).unwrap();
    assert!(a.applied && !a.duplicate && a.seq > 0);
    let b = client.insert(&hseg(101, 7)).unwrap();
    assert!(b.applied && b.seq > a.seq);
    assert_eq!(line_count(&mut client, 500), 22);
    let ids = client
        .query_mode("query_line", &[("x", 500)], QueryMode::Collect)
        .unwrap()
        .ids;
    assert!(ids.contains(&100) && ids.contains(&101));

    // Delete one base segment and one delta insert.
    let d = client.delete(&hseg(3, 30)).unwrap();
    assert!(d.applied);
    let d2 = client.delete(&hseg(101, 7)).unwrap();
    assert!(d2.applied);
    assert_eq!(line_count(&mut client, 500), 20);
    let ids = client
        .query_mode("query_line", &[("x", 500)], QueryMode::Collect)
        .unwrap()
        .ids;
    assert!(!ids.contains(&3) && !ids.contains(&101));

    // Deleting something absent is acknowledged but not applied.
    let miss = client.delete(&hseg(999, 999)).unwrap();
    assert!(!miss.applied && miss.seq == 0);

    // Flush succeeds and makes everything durable.
    client.flush().unwrap();
    server.shutdown();
    server.wait();
}

#[test]
fn read_only_servers_refuse_writes() {
    let db = Arc::new(
        SegmentDatabase::builder()
            .page_size(512)
            .cache_pages(16)
            .cache_shards(2)
            .build(vec![hseg(1, 10), hseg(2, 20)])
            .unwrap(),
    );
    let server = Server::start(db, ServerConfig::default()).unwrap();
    let mut client = client_for(&server);
    for attempt in [client.insert(&hseg(50, 5)), client.delete(&hseg(1, 10))] {
        let err = attempt.unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("read_only"), "refusal names the code: {msg}");
        assert!(msg.contains("WAL"), "refusal says how to fix it: {msg}");
    }
    assert!(client.flush().is_err());
    // Queries still work.
    assert_eq!(line_count(&mut client, 500), 2);
    server.shutdown();
    server.wait();
}

#[test]
fn duplicate_request_ids_replay_the_stored_ack() {
    let (server, _engine) = writable_server(5, ServerConfig::default(), WriterConfig::default());
    let mut client = client_for(&server);
    // Hand-build one insert line and send it twice: same id, so the
    // second send must be answered from the idempotence window without
    // re-applying.
    let line =
        r#"{"id":7001,"method":"insert","params":{"seg":300,"x1":0,"y1":5,"x2":1000,"y2":5}}"#;
    let first = client.call_line(line).unwrap();
    let second = client.call_line(line).unwrap();
    assert_eq!(first.get("applied"), Some(&Json::Bool(true)));
    assert_eq!(first.get("duplicate"), Some(&Json::Bool(false)));
    assert_eq!(second.get("applied"), Some(&Json::Bool(true)));
    assert_eq!(second.get("duplicate"), Some(&Json::Bool(true)));
    assert_eq!(first.get("seq"), second.get("seq"));
    assert_eq!(line_count(&mut client, 500), 6, "applied exactly once");
    server.shutdown();
    server.wait();
}

/// The dedup window is keyed by the bare request id, so a second client
/// session must stamp from a disjoint `id_base` or its first write
/// would replay the first session's stored ack (the CLI derives a
/// per-invocation base for exactly this reason).
#[test]
fn distinct_id_bases_keep_sessions_apart() {
    let (server, _engine) = writable_server(5, ServerConfig::default(), WriterConfig::default());
    let mut a = client_for(&server);
    let first = a.insert(&hseg(300, 5)).unwrap();
    assert!(first.applied && !first.duplicate);

    // Same base (a fresh default client restarts at id 1): the delete's
    // id collides with the insert's and the stored ack is replayed —
    // nothing is deleted.
    let mut clash = client_for(&server);
    let replayed = clash.delete(&hseg(300, 5)).unwrap();
    assert!(
        replayed.duplicate,
        "colliding id must replay the stored ack"
    );
    assert_eq!(line_count(&mut clash, 500), 6);

    // Disjoint base: the delete is live.
    let mut b = Client::new(ClientConfig {
        addr: server.addr().to_string(),
        id_base: 1 << 32,
        ..ClientConfig::default()
    });
    let second = b.delete(&hseg(300, 5)).unwrap();
    assert!(second.applied && !second.duplicate);
    assert_eq!(line_count(&mut b, 500), 5);
    server.shutdown();
    server.wait();
}

/// Net-chaos idempotence: retried inserts through a faulty wire must
/// each land exactly once — the request id doubles as the server-side
/// dedup key, so a replayed line whose first ack was lost is answered
/// from the window instead of re-applied.
#[test]
fn chaotic_retried_inserts_apply_exactly_once() {
    let mut total_retries = 0u64;
    for seed in 0..6u64 {
        let (server, engine) =
            writable_server(10, ServerConfig::default(), WriterConfig::default());
        let handle = NetFaultHandle::new(NetFaultPlan::none(seed));
        handle.arm(NetFaultPlan::chaotic(seed));
        let mut client = Client::with_chaos(
            ClientConfig {
                addr: server.addr().to_string(),
                max_retries: 32,
                jitter_seed: seed,
                backoff_base: Duration::from_micros(200),
                backoff_cap: Duration::from_millis(5),
                ..ClientConfig::default()
            },
            handle.clone(),
        );
        let inserts = 25u64;
        for k in 0..inserts {
            let ack = client
                .insert(&hseg(1000 + k, 5 + k as i64))
                .unwrap_or_else(|e| panic!("seed {seed} insert {k}: {e}"));
            assert!(ack.applied, "seed {seed} insert {k}");
        }
        total_retries += client.stats().retries;
        handle.disarm();
        // A clean client sees base + exactly `inserts` segments.
        let mut probe = client_for(&server);
        assert_eq!(
            line_count(&mut probe, 500),
            10 + inserts,
            "seed {seed}: every insert applied exactly once"
        );
        // Server-side duplicate count must equal replays that reached it
        // after an applied-but-unacked first attempt — at most one per
        // retry, and never negative (the counter exists and is sane).
        let dups = engine
            .counters()
            .duplicates
            .load(std::sync::atomic::Ordering::Relaxed);
        assert!(dups <= client.stats().retries, "seed {seed}");
        server.shutdown();
        server.wait();
    }
    assert!(
        total_retries > 0,
        "six chaotic seeds never disrupted a write — the schedule is inert"
    );
}

/// Satellite: the `stats` reply's `writer` block exists on a writable
/// server, is `null` on a read-only one, and its counters move across
/// the write lifecycle (insert → group commit → fold → delete →
/// compact).
#[test]
fn writer_metrics_move_across_the_lifecycle() {
    let wcfg = WriterConfig {
        group_window: 2,
        delta_limit: 4,
        ..WriterConfig::default()
    };
    let (server, engine) = writable_server(10, ServerConfig::default(), wcfg);
    let mut client = client_for(&server);

    let writer = |c: &mut Client| c.remote_stats().unwrap().get("writer").cloned().unwrap();
    let field = |w: &Json, k: &str| match w.get(k) {
        Some(&Json::U64(v)) => v,
        other => panic!("writer.{k} missing or non-numeric: {other:?}"),
    };

    let w0 = writer(&mut client);
    assert_eq!(field(&w0, "inserts"), 0);
    assert_eq!(field(&w0, "epoch"), 0);
    assert_eq!(field(&w0, "wal_bytes"), 0);

    // Two inserts fill one group-commit window.
    client.insert(&hseg(200, 5)).unwrap();
    client.insert(&hseg(201, 7)).unwrap();
    let w1 = writer(&mut client);
    assert_eq!(field(&w1, "inserts"), 2);
    assert!(field(&w1, "wal_bytes") > 0, "{w1:?}");
    assert!(field(&w1, "wal_records") >= 2, "{w1:?}");
    assert!(field(&w1, "group_commits") >= 1, "{w1:?}");
    assert_eq!(field(&w1, "delta_size"), 2);

    // Two more writes reach delta_limit = 4: a fold swaps the epoch and
    // checkpoints the WAL away.
    client.insert(&hseg(202, 9)).unwrap();
    client.delete(&hseg(3, 30)).unwrap();
    let w2 = writer(&mut client);
    assert_eq!(field(&w2, "rebuilds"), 1);
    assert_eq!(field(&w2, "epoch"), 1);
    assert_eq!(field(&w2, "delta_size"), 0);
    assert_eq!(field(&w2, "wal_seq"), 4, "checkpoint advanced");
    assert_eq!(field(&w2, "deletes"), 1);

    // The folded delete left a tombstone; compacting folds it away.
    assert!(field(&w2, "tombstones") > 0, "{w2:?}");
    assert!(engine.compact().unwrap());
    let w3 = writer(&mut client);
    assert_eq!(field(&w3, "compactions"), 1);
    assert_eq!(field(&w3, "tombstones"), 0);

    // Duplicate + miss counters.
    let miss = client.delete(&hseg(888, 888)).unwrap();
    assert!(!miss.applied);
    let w4 = writer(&mut client);
    assert_eq!(field(&w4, "delete_misses"), 1);

    assert_eq!(line_count(&mut client, 500), 12); // 10 + 3 − 1
    server.shutdown();
    server.wait();
}

/// The background compactor folds tombstones without any client nudge.
#[test]
fn background_compactor_reclaims_tombstones() {
    let cfg = ServerConfig {
        compact_min_tombs: 1,
        compact_interval: Duration::from_millis(20),
        ..ServerConfig::default()
    };
    let wcfg = WriterConfig {
        delta_limit: 1, // every write folds immediately → real tombstones
        ..WriterConfig::default()
    };
    let (server, engine) = writable_server(10, cfg, wcfg);
    let mut client = client_for(&server);
    client.delete(&hseg(2, 20)).unwrap();
    client.delete(&hseg(5, 50)).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (tombs, compactions) = (
            engine.with_db(|db| db.tomb_count()),
            engine
                .counters()
                .compactions
                .load(std::sync::atomic::Ordering::Relaxed),
        );
        if tombs == 0 && compactions > 0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "compactor never ran: tombs={tombs} compactions={compactions}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(line_count(&mut client, 500), 8);
    server.shutdown();
    server.wait();
}

/// Every engine answer to `queries` (canonical frame), Collect and
/// Count, equals the scan oracle over `live` (canonical frame too), and
/// the index validates.
fn assert_engine_matches(
    engine: &WriteEngine,
    live: &[Segment],
    queries: &[VerticalQuery],
    tag: &str,
) {
    for mode in [QueryMode::Collect, QueryMode::Count] {
        let items: Vec<(VerticalQuery, QueryMode)> = queries.iter().map(|q| (*q, mode)).collect();
        for (q, res) in queries
            .iter()
            .zip(engine.query_batch_canonical_mode(&items))
        {
            let (answer, _) = res.unwrap();
            let want = oracle_query(live, q);
            assert_eq!(answer.count(), want.len() as u64, "{tag} {mode:?} {q:?}");
            if let Some(hits) = answer.segments() {
                assert_eq!(segdb::core::report::ids(hits), want, "{tag} {q:?}");
            }
        }
    }
    engine.with_db(|db| db.validate().unwrap());
}

/// `delete` and `sync_apply` decide "is this exact segment visible?" by
/// a point probe at its left endpoint. For both writable kinds, plain
/// and sheared, small pages and large: a stored segment is deleted
/// exactly once wherever the index filed it, near-misses in id or in
/// geometry are misses, a delta insert cancels in place, and a replayed
/// insert of something visible is a duplicate.
#[test]
fn the_membership_probe_is_exact_through_the_engine() {
    let sheared = Direction::new(1, 1).unwrap();
    let mut req = 0u64;
    let mut next_req = move || {
        req += 1;
        req
    };
    for kind in [IndexKind::TwoLevelBinary, IndexKind::TwoLevelInterval] {
        for direction in [Direction::VERTICAL, sheared] {
            for page in [512usize, 4096] {
                let tag = format!("{kind:?} {direction:?} page {page}");
                // Generated in the canonical frame, handed over in the
                // user's: the (1, 1) shear inverts exactly.
                // A map plus what it lacks: full-width horizontals (a `G`
                // multislab list each in the interval index) and a star
                // through one left endpoint.
                let mut canonical = mixed_map(900, 0xE9);
                let extras = spans_and_star(&mut canonical);
                let user = |s: &Segment| direction.unapply_segment(s).unwrap();
                let db = SegmentDatabase::builder()
                    .page_size(page)
                    .cache_pages(64)
                    .direction(direction.dx(), direction.dy())
                    .unwrap()
                    .index(kind)
                    .build(canonical.iter().map(user).collect())
                    .unwrap();
                let cfg = WriterConfig {
                    delta_limit: usize::MAX,
                    ..WriterConfig::default()
                };
                let (engine, _) = WriteEngine::recover(db, Box::new(Disk::new(512)), cfg).unwrap();
                let mut queries = vertical_queries(&canonical, 16, 150, 0xE9);

                // Victims of every placement: a sample of the map, every
                // long segment, the whole star.
                let body = canonical.len() - extras;
                let (victims, mut live): (Vec<Segment>, Vec<Segment>) = canonical
                    .iter()
                    .partition(|s| s.id % 7 == 3 || s.id as usize >= body);
                queries.extend(
                    victims
                        .iter()
                        .step_by(9)
                        .map(|s| VerticalQuery::Line { x: s.a.x }),
                );
                for s in &victims {
                    let other_id = Segment::new(s.id + 1_000_000, s.a, s.b).unwrap();
                    let other_geometry = Segment::new(s.id, s.a, (s.b.x, s.b.y + 1)).unwrap();
                    for miss in [other_id, other_geometry] {
                        let ack = engine.delete(next_req(), user(&miss)).unwrap();
                        assert!(!ack.applied && ack.seq == 0, "{tag}: {miss}");
                    }
                    let ack = engine.delete(next_req(), user(s)).unwrap();
                    assert!(ack.applied && ack.seq > 0 && !ack.duplicate, "{tag}: {s}");
                    let again = engine.delete(next_req(), user(s)).unwrap();
                    assert!(!again.applied && again.seq == 0, "{tag}: {s} deleted twice");
                }
                assert_eq!(engine.delta().len(), victims.len());
                assert_engine_matches(&engine, &live, &queries, &tag);
                // Deleted this epoch: a miss after the fold as before it.
                engine.fold().unwrap();
                for s in victims.iter().step_by(5) {
                    assert!(
                        !engine.delete(next_req(), user(s)).unwrap().applied,
                        "{tag}: {s}"
                    );
                }
                assert_engine_matches(&engine, &live, &queries, &tag);

                // A segment that is only a delta insert cancels in place.
                let y_top = canonical.iter().map(|s| s.y_span().1).max().unwrap();
                let fresh = Segment::new(5_000, (0, y_top + 50), (700, y_top + 60)).unwrap();
                assert!(engine.insert(next_req(), user(&fresh)).unwrap().applied);
                assert_eq!(engine.delta().len(), 1);
                assert!(engine.delete(next_req(), user(&fresh)).unwrap().applied);
                assert!(
                    engine.delta().is_empty(),
                    "{tag}: the insert was not cancelled"
                );
                assert!(!engine.delete(next_req(), user(&fresh)).unwrap().applied);

                // Replayed inserts: of a base segment, a duplicate; of a
                // folded delete, under its own id, applied — and from then
                // on a duplicate too.
                let replay = |s: &Segment, req_id: u64| {
                    let rec = WalRecord {
                        seq: 0,
                        req_id,
                        op: WalOp::Insert(user(s)),
                    };
                    engine.sync_apply(&rec).unwrap()
                };
                let ack = replay(&live[0], next_req());
                assert!(
                    ack.duplicate && !ack.applied,
                    "{tag}: base segment replayed"
                );
                let back = victims[0];
                let ack = replay(&back, next_req());
                assert!(ack.applied && !ack.duplicate, "{tag}: {back} re-inserted");
                let ack = replay(&back, next_req());
                assert!(
                    ack.duplicate && !ack.applied,
                    "{tag}: delta insert replayed"
                );
                live.push(back);
                assert_engine_matches(&engine, &live, &queries, &tag);
                engine.fold().unwrap();
                assert_engine_matches(&engine, &live, &queries, &tag);
            }
        }
    }
}

/// What a delete costs in pages, beside an insert: cache 0, so every
/// page touched is a device read. A delete is two point probes (accept,
/// fold) plus a chain append, each probe shaped like the insert's own
/// descent — so it stays within 3× the insert and grows with `log n`,
/// not with what the line through the segment stabs. In both writable
/// structures.
#[test]
fn a_delete_costs_pages_like_an_insert() {
    const OPS: usize = 256;
    let mut per_size = Vec::new();
    for (kind, n, want_insert, want_delete) in [
        (IndexKind::TwoLevelInterval, 4096usize, 2724u64, 6139u64),
        (IndexKind::TwoLevelInterval, 16_384, 3683, 8093),
        (IndexKind::TwoLevelBinary, 4096, 3893, 7157),
        (IndexKind::TwoLevelBinary, 16_384, 4745, 8897),
    ] {
        let mut base = strips(n + OPS, 1 << 18, 16, 400, 0xC057);
        let fresh = base.split_off(n);
        let db = SegmentDatabase::builder()
            .page_size(1024)
            .cache_pages(0)
            .index(kind)
            .build(base.clone())
            .unwrap();
        let cfg = WriterConfig {
            delta_limit: 64,
            ..WriterConfig::default()
        };
        let (engine, _) = WriteEngine::recover(db, Box::new(Disk::new(1024)), cfg).unwrap();
        // Device reads of the index across `ops`, tail fold included.
        let reads_of = |ops: &mut dyn FnMut()| {
            let before = engine.with_db(|db| db.pager().stats().reads);
            ops();
            engine.fold().unwrap();
            engine.with_db(|db| db.pager().stats().reads) - before
        };
        let insert = reads_of(&mut || {
            for (k, s) in fresh.iter().enumerate() {
                assert!(engine.insert(1 + k as u64, *s).unwrap().applied);
            }
        });
        let delete = reads_of(&mut || {
            for (k, s) in base[..OPS].iter().enumerate() {
                assert!(engine.delete(1 + (OPS + k) as u64, *s).unwrap().applied);
            }
        });
        engine.with_db(|db| db.validate().unwrap());
        assert_eq!(
            (insert, delete),
            (want_insert, want_delete),
            "{kind:?} N = {n}, {OPS} ops each"
        );
        assert!(
            delete <= 3 * insert,
            "{kind:?} N = {n}: delete {delete} reads, insert {insert}"
        );
        per_size.push(delete);
    }
    for pair in per_size.chunks(2) {
        assert!(
            2 * pair[1] < 3 * pair[0],
            "delete reads grow faster than ×1.5 from N = 4 096 to 16 384: {pair:?}"
        );
    }
}

/// Updates through the engine, in both writable kinds: a stream deletes
/// strips and puts them back under their own ids — exactly as they
/// were, moved clear of the old copy, or moved across it — some within
/// one epoch, some in the next one, after the fold has turned the
/// delete into a tombstone. Answers equal the shadow model after every
/// fold, and again after a restart that replays an unfolded tail of the
/// log onto the image the last fold saved.
#[test]
fn updates_of_one_id_fold_and_replay_right() {
    let base = strips(300, 1 << 13, 16, 300, 0x0D17);
    // Copies of a strip inside its band: as built, moved up, and one
    // crossing each of those. Copies `i` and `i ^ 1` never meet; copies
    // `i` and `i ^ 2` cross.
    let copy = |i: usize, b: &Segment| {
        let dy = 4 * (i & 1) as i64;
        let (ya, yb) = if i & 2 == 0 { (0, 0) } else { (1, -1) };
        Segment::new(b.id, (b.a.x, b.a.y + dy + ya), (b.b.x, b.b.y + dy + yb)).unwrap()
    };
    let cfg = WriterConfig {
        group_window: 1,
        delta_limit: usize::MAX,
        ..WriterConfig::default()
    };
    for kind in [IndexKind::TwoLevelBinary, IndexKind::TwoLevelInterval] {
        let (db_dev, db_handle) = FaultDevice::over_memory(512, FaultPlan::none(1));
        let db = SegmentDatabase::builder()
            .page_size(512)
            .index(kind)
            .on_device(Box::new(db_dev))
            .build(base.clone())
            .unwrap();
        let (wal_dev, wal_handle) = FaultDevice::over_memory(512, FaultPlan::none(2));
        let (engine, _) = WriteEngine::recover(db, Box::new(wal_dev), cfg).unwrap();
        // Per strip, the copy now live; `None` between a delete and the
        // insert that puts it back.
        let mut at: Vec<Option<usize>> = vec![Some(0); base.len()];
        let live = |at: &[Option<usize>]| -> Vec<Segment> {
            (base.iter().zip(at))
                .filter_map(|(b, i)| i.map(|i| copy(i, b)))
                .collect()
        };
        let mut queries = vertical_queries(&base, 24, 120, 0x0D17);
        queries.extend(
            base.iter()
                .step_by(9)
                .map(|s| VerticalQuery::Line { x: s.a.x }),
        );
        let mut req = 0u64;
        let mut send = |op: WalOp| {
            req += 1;
            let ack = match op {
                WalOp::Insert(s) => engine.insert(req, s),
                WalOp::Delete(s) => engine.delete(req, s),
            };
            assert!(ack.unwrap().applied, "{kind:?}: {op:?}");
        };
        // Deleted this epoch, to come back in the next: (strip, copy).
        let mut pending: Vec<(usize, usize)> = Vec::new();
        for epoch in 0..7usize {
            for (j, next) in pending.drain(..) {
                send(WalOp::Insert(copy(next, &base[j])));
                at[j] = Some(next);
            }
            for (k, j) in (epoch..base.len()).step_by(10).enumerate() {
                let i = at[j].unwrap();
                send(WalOp::Delete(copy(i, &base[j])));
                at[j] = None;
                let next = [i, i ^ 1, i ^ 2][(k + epoch) % 3];
                if k % 2 == 0 {
                    send(WalOp::Insert(copy(next, &base[j])));
                    at[j] = Some(next);
                } else {
                    pending.push((j, next));
                }
            }
            let tag = format!("{kind:?} epoch {epoch}");
            if epoch < 6 {
                engine.fold().unwrap();
            }
            // The last epoch stays unfolded: the restart replays it.
            assert_engine_matches(&engine, &live(&at), &queries, &tag);
        }
        drop(engine);
        let db = SegmentDatabase::open_device(db_handle.recover().unwrap(), 0, 1).unwrap();
        let (engine, report) =
            WriteEngine::recover(db, wal_handle.recover().unwrap(), cfg).unwrap();
        assert!(report.applied > 0, "{kind:?}: nothing replayed");
        assert_engine_matches(
            &engine,
            &live(&at),
            &queries,
            &format!("{kind:?} recovered"),
        );
    }
}
