//! Batched execution end-to-end: the shared-walk executor must be
//! oracle-bit-identical to sequential execution across all four index
//! kinds × four query shapes × every `QueryMode` — in batches that mix
//! modes freely — and a transient device fault hitting one query of a
//! batch must not poison its batchmates. The final tests drive the
//! server's collector over the wire: groups form from backlog alone
//! (one worker, eight clients), demultiplex correctly and land in the
//! slowlog with their shared `batch_id`; with no more requests in
//! flight than workers every query runs alone; and a worker held
//! mid-group never keeps a write from the idle worker beside it.

use segdb::core::report::ids;
use segdb::core::testutil::oracle_query;
use segdb::core::{IndexKind, QueryAnswer, QueryMode, SegmentDatabase, WriteEngine, WriterConfig};
use segdb::geom::gen::{mixed_map, vertical_queries, Family};
use segdb::geom::{Segment, VerticalQuery};
use segdb::obs::Json;
use segdb::pager::{Device, Disk, FaultDevice, FaultPlan, PageId, PagerError};
use segdb_server::client::{Client, ClientConfig};
use segdb_server::load::{run_load, LoadConfig, ModeSpec};
use segdb_server::{Server, ServerConfig};
use std::collections::BTreeMap;
use std::net::TcpListener;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, ThreadId};
use std::time::{Duration, Instant};

const KINDS: [IndexKind; 4] = [
    IndexKind::TwoLevelBinary,
    IndexKind::TwoLevelInterval,
    IndexKind::FullScan,
    IndexKind::StabThenFilter,
];

const MODES: [QueryMode; 6] = [
    QueryMode::Collect,
    QueryMode::Count,
    QueryMode::Exists,
    QueryMode::Limit(0),
    QueryMode::Limit(3),
    QueryMode::Limit(u32::MAX),
];

fn build(kind: IndexKind, set: Vec<Segment>) -> SegmentDatabase {
    SegmentDatabase::builder()
        .page_size(1024)
        .cache_pages(0)
        .index(kind)
        .build(set)
        .unwrap()
}

/// All four query shapes anchored on the stored set, plus misses.
fn battery(set: &[Segment]) -> Vec<VerticalQuery> {
    let mut qs = Vec::new();
    for s in set.iter().step_by(set.len() / 6 + 1) {
        let x = (s.a.x + s.b.x) / 2;
        let y = (s.a.y + s.b.y) / 2;
        qs.push(VerticalQuery::Line { x });
        qs.push(VerticalQuery::RayUp { x, y0: y });
        qs.push(VerticalQuery::RayDown { x, y0: y });
        qs.push(VerticalQuery::segment(x, y - 40, y + 40));
    }
    let max_x = set.iter().map(|s| s.a.x.max(s.b.x)).max().unwrap();
    qs.push(VerticalQuery::Line { x: max_x + 1000 });
    qs
}

/// Every shape × every mode as one mixed-mode batch.
fn batch_items(set: &[Segment]) -> Vec<(VerticalQuery, QueryMode)> {
    battery(set)
        .into_iter()
        .flat_map(|q| MODES.iter().map(move |&m| (q, m)))
        .collect()
}

/// Batched and sequential answers for the same (query, mode) must
/// agree — exactly for Collect/Count/Exists, and in size + oracle
/// membership for Limit (a shared walk may surface a different, equally
/// valid prefix).
fn assert_equivalent(
    set: &[Segment],
    q: &VerticalQuery,
    mode: QueryMode,
    batched: &QueryAnswer,
    sequential: &QueryAnswer,
    ctx: &str,
) {
    let want = oracle_query(set, q);
    match mode {
        QueryMode::Collect => {
            assert_eq!(batched, sequential, "{ctx} {q:?} collect");
            assert_eq!(ids(batched.segments().unwrap()), want, "{ctx} {q:?} oracle");
        }
        QueryMode::Count => {
            assert_eq!(batched, sequential, "{ctx} {q:?} count");
            assert_eq!(batched.count(), want.len() as u64, "{ctx} {q:?} oracle");
        }
        QueryMode::Exists => {
            assert_eq!(batched, sequential, "{ctx} {q:?} exists");
            assert_eq!(batched.count() > 0, !want.is_empty(), "{ctx} {q:?} oracle");
        }
        QueryMode::Limit(k) => {
            let hits = batched.segments().unwrap();
            assert_eq!(
                hits.len(),
                sequential.segments().unwrap().len(),
                "{ctx} {q:?} limit {k} prefix length"
            );
            assert_eq!(hits.len() as u64, (k as u64).min(want.len() as u64));
            for id in ids(hits) {
                assert!(
                    want.binary_search(&id).is_ok(),
                    "{ctx} {q:?} limit {k}: id {id} not in the oracle answer"
                );
            }
        }
    }
}

#[test]
fn batched_matches_sequential_across_kinds_shapes_modes() {
    for kind in KINDS {
        for seed in [2u64, 5, 11] {
            let set = mixed_map(500, seed);
            let db = build(kind, set.clone());
            let items = batch_items(&set);
            let results = db.query_batch_canonical_mode(&items);
            assert_eq!(results.len(), items.len());
            for ((q, mode), result) in items.iter().zip(results) {
                let (batched, _) = result.unwrap();
                let (sequential, _) = db.query_canonical_mode(q, *mode).unwrap();
                assert_equivalent(
                    &set,
                    q,
                    *mode,
                    &batched,
                    &sequential,
                    &format!("{kind:?} seed {seed}"),
                );
            }
        }
    }
}

/// Every trace of a shared walk carries the same nonzero batch id and
/// the batch's size; a singleton runs alone and reports neither.
#[test]
fn batch_traces_carry_shared_batch_id() {
    let set = mixed_map(300, 9);
    let db = build(IndexKind::TwoLevelInterval, set.clone());
    let items = batch_items(&set);
    let results = db.query_batch_canonical_mode(&items);
    let mut batch_ids = Vec::new();
    for result in results {
        let (_, trace) = result.unwrap();
        assert_eq!(trace.batch_size, items.len() as u32);
        batch_ids.push(trace.batch_id);
    }
    assert!(batch_ids[0] > 0, "shared walks get a nonzero batch id");
    assert!(batch_ids.iter().all(|&id| id == batch_ids[0]));

    let single = db.query_batch_canonical_mode(&items[..1]);
    let (_, trace) = single.into_iter().next().unwrap().unwrap();
    assert_eq!(
        (trace.batch_id, trace.batch_size),
        (0, 0),
        "singletons run alone"
    );
}

/// A transient read fault during the shared walk must not poison
/// batchmates: the executor re-runs each query as a group of one, every
/// query that succeeds is exact, and once the device heals the whole
/// batch succeeds again. The retry is the first attempt's own walk at
/// size one — there is no second read path for it to diverge into — so
/// a retried slot reports `batch_id = 0` and reads exactly the pages
/// the same query reads alone on a healthy device.
#[test]
fn transient_fault_does_not_poison_batchmates() {
    for kind in KINDS {
        let seed = 7u64;
        let set = mixed_map(300, seed);
        let (device, handle) = FaultDevice::over_memory(1024, FaultPlan::none(seed));
        let db = SegmentDatabase::builder()
            .cache_pages(0)
            .index(kind)
            .on_device(Box::new(device))
            .build(set.clone())
            .unwrap();
        let items = batch_items(&set);
        let alone_pages: Vec<u64> = items
            .iter()
            .map(|item| {
                let alone = db.query_batch_canonical_mode(std::slice::from_ref(item));
                pages(&alone[0].as_ref().unwrap().1)
            })
            .collect();
        handle.arm(FaultPlan {
            read_error: 0.05,
            ..FaultPlan::none(seed)
        });
        let mut saw_mixed_outcome = false;
        for _ in 0..50 {
            let results = db.query_batch_canonical_mode(&items);
            let oks = results.iter().filter(|r| r.is_ok()).count();
            if oks > 0 && oks < results.len() {
                saw_mixed_outcome = true;
            }
            for (((q, mode), result), alone) in items.iter().zip(results).zip(&alone_pages) {
                if let Ok((answer, trace)) = result {
                    if trace.batch_id == 0 {
                        assert_eq!(trace.batch_size, 0, "{kind:?}: retried alone");
                        assert_eq!(
                            pages(&trace),
                            *alone,
                            "{kind:?} {q:?} {mode:?}: retry pages"
                        );
                    }
                    let (sequential_ok, _) = loop {
                        // Retry the sequential reference through the
                        // same fault schedule until it succeeds.
                        if let Ok(pair) = db.query_canonical_mode(q, *mode) {
                            break pair;
                        }
                    };
                    assert_equivalent(
                        &set,
                        q,
                        *mode,
                        &answer,
                        &sequential_ok,
                        &format!("{kind:?}"),
                    );
                }
            }
            if saw_mixed_outcome {
                break;
            }
        }
        assert!(saw_mixed_outcome, "{kind:?}: the retry path never ran");
        handle.disarm();
        assert!(
            db.query_batch_canonical_mode(&items)
                .into_iter()
                .all(|r| r.is_ok()),
            "{kind:?}: batch must fully succeed once the device heals"
        );
    }
}

/// The four query shapes over one set of 32 abscissae and windows.
fn shapes(set: &[Segment]) -> [Vec<VerticalQuery>; 4] {
    let mut out: [Vec<VerticalQuery>; 4] = Default::default();
    for q in vertical_queries(set, 32, 60, 77) {
        let VerticalQuery::Segment { x, lo, hi } = q else {
            unreachable!("vertical_queries yields bounded segments")
        };
        out[0].push(VerticalQuery::Line { x });
        out[1].push(VerticalQuery::RayUp { x, y0: lo });
        out[2].push(VerticalQuery::RayDown { x, y0: hi });
        out[3].push(q);
    }
    out
}

const PARITY_MODES: [QueryMode; 4] = [
    QueryMode::Collect,
    QueryMode::Count,
    QueryMode::Exists,
    QueryMode::Limit(3),
];

/// Pages per (shape, mode) cell, summed over the cell's 32 queries.
type PageTable = [[u64; 4]; 4];

fn pages(trace: &segdb::core::QueryTrace) -> u64 {
    trace.io.reads + trace.io.cache_hits
}

/// Every cell, run two ways through `run` (which takes a group and
/// returns its answers and traces): 32 groups of one must read exactly
/// `pinned` pages — the figures of the sequential walk this code
/// replaced, recorded at its last commit — and one group of 32 must
/// give the same answers for no more pages than that. (Solution 2's
/// lower-bounded walks — ray up and segment under Collect and Limit —
/// are pinned one page above the old figure in a few cells: the bridge
/// fix lands a jump one leaf earlier, on the record the old walk lost.)
fn assert_page_parity(
    ctx: &str,
    shapes: &[Vec<VerticalQuery>; 4],
    pinned: &PageTable,
    run: impl Fn(&[(VerticalQuery, QueryMode)]) -> Vec<(QueryAnswer, segdb::core::QueryTrace)>,
) {
    for (shape, queries) in shapes.iter().enumerate() {
        for (m, &mode) in PARITY_MODES.iter().enumerate() {
            let items: Vec<(VerticalQuery, QueryMode)> =
                queries.iter().map(|&q| (q, mode)).collect();
            let alone: Vec<_> = items
                .iter()
                .map(|item| run(std::slice::from_ref(item)).pop().unwrap())
                .collect();
            let alone_pages: u64 = alone.iter().map(|(_, t)| pages(t)).sum();
            assert_eq!(
                alone_pages, pinned[shape][m],
                "{ctx}: shape {shape} {mode:?}: one-slot pages moved"
            );
            let together = run(&items);
            let group_pages: u64 = together.iter().map(|(_, t)| pages(t)).sum();
            assert!(
                group_pages <= alone_pages,
                "{ctx}: shape {shape} {mode:?}: group of 32 read {group_pages} > {alone_pages}"
            );
            for ((a, _), (g, _)) in alone.iter().zip(&together) {
                match mode {
                    QueryMode::Limit(_) => assert_eq!(a.count(), g.count(), "{ctx} limit size"),
                    _ => assert_eq!(a, g, "{ctx}: shape {shape} {mode:?}"),
                }
            }
        }
    }
}

fn db_runner(
    db: &SegmentDatabase,
) -> impl Fn(&[(VerticalQuery, QueryMode)]) -> Vec<(QueryAnswer, segdb::core::QueryTrace)> + '_ {
    |items| {
        db.query_batch_canonical_mode(items)
            .into_iter()
            .map(|r| r.unwrap())
            .collect()
    }
}

/// One-slot pages are pinned to the sequential walk's, and a group of
/// 32 never reads more than its slots would alone — on freshly built
/// indexes of every kind.
#[test]
fn one_slot_pages_match_the_sequential_walk_and_groups_read_no_more() {
    let set = mixed_map(1500, 13);
    let shapes = shapes(&set);
    let pinned: [PageTable; 4] = [
        [
            [691, 691, 64, 64],
            [622, 622, 64, 64],
            [579, 579, 71, 93],
            [510, 510, 105, 167],
        ],
        [
            [527, 322, 66, 69],
            [452, 431, 68, 78],
            [476, 461, 77, 91],
            [401, 570, 140, 189],
        ],
        [
            [1920, 1920, 137, 188],
            [1920, 1920, 1342, 1368],
            [1920, 1920, 137, 188],
            [1920, 1920, 1357, 1408],
        ],
        [
            [3268, 320, 320, 137],
            [3268, 3268, 133, 207],
            [3268, 3268, 142, 204],
            [3268, 3268, 299, 802],
        ],
    ];
    for (kind, pinned) in KINDS.into_iter().zip(&pinned) {
        let db = build(kind, set.clone());
        assert_page_parity(&format!("{kind:?}"), &shapes, pinned, db_runner(&db));
    }
}

/// The same after `remove` without `compact`: both structures keep their
/// tombstones resident and every walk subtracts or filters them without
/// reading a page for it: Collect and Count cost what they cost on the
/// fresh index, Exists and Limit a few pages more where a walk steps
/// over hidden hits.
#[test]
fn page_parity_holds_with_live_tombstones() {
    let set = mixed_map(1500, 13);
    let shapes = shapes(&set);
    let pinned: [PageTable; 2] = [
        [
            [691, 691, 87, 64],
            [622, 622, 85, 64],
            [579, 579, 110, 97],
            [510, 510, 129, 173],
        ],
        [
            [527, 322, 97, 69],
            [452, 431, 124, 81],
            [476, 461, 126, 100],
            [401, 570, 180, 194],
        ],
    ];
    let kinds = [IndexKind::TwoLevelBinary, IndexKind::TwoLevelInterval];
    for (kind, pinned) in kinds.into_iter().zip(&pinned) {
        let mut db = build(kind, set.clone());
        // Lazy deletes leave the index pages alone, so a Count costs
        // after them what it costs now; anything more would be a read
        // of the tombstone chain.
        let count_pages = |db: &SegmentDatabase| -> Vec<u64> {
            let pages_of = |q| pages(&db.query_canonical_mode(q, QueryMode::Count).unwrap().1);
            (shapes.iter())
                .map(|queries| queries.iter().map(pages_of).sum())
                .collect()
        };
        let fresh = count_pages(&db);
        for s in set.iter().step_by(7) {
            assert!(db.remove(s).unwrap());
        }
        assert_eq!(db.tomb_count(), 215, "{kind:?}: tombstones stay live");
        assert_eq!(count_pages(&db), fresh, "{kind:?}: a Count read the chain");
        let live: Vec<Segment> = set.iter().filter(|s| s.id % 7 != 0).copied().collect();
        for q in shapes.iter().flatten() {
            let (n, _) = db.query_canonical_mode(q, QueryMode::Count).unwrap();
            assert_eq!(
                n.count(),
                oracle_query(&live, q).len() as u64,
                "{kind:?} {q:?}"
            );
        }
        assert_page_parity(
            &format!("{kind:?} tombstoned"),
            &shapes,
            pinned,
            db_runner(&db),
        );
        db.validate().unwrap();
    }
}

/// And through a `WriteEngine` holding un-folded inserts and deletes:
/// the walk hides the deletes, so Collect and Count cost what they cost
/// on the bare index and Exists / Limit stop as early as the hidden
/// hits allow; an `Exists` slot a delta insert already satisfies is
/// answered without reading a page.
#[test]
fn page_parity_holds_through_the_write_overlay() {
    let set = mixed_map(1500, 13);
    let shapes = shapes(&set);
    let pinned: [PageTable; 2] = [
        [
            [691, 691, 30, 64],
            [622, 622, 64, 64],
            [579, 579, 36, 93],
            [510, 510, 106, 167],
        ],
        [
            [527, 322, 30, 69],
            [452, 431, 75, 78],
            [476, 461, 32, 92],
            [401, 570, 140, 189],
        ],
    ];
    let kinds = [IndexKind::TwoLevelBinary, IndexKind::TwoLevelInterval];
    for (kind, pinned) in kinds.into_iter().zip(&pinned) {
        let (engine, _) = WriteEngine::recover(
            build(kind, set.clone()),
            Box::new(Disk::new(1024)),
            WriterConfig::default(),
        )
        .unwrap();
        let x_lo = set.iter().map(|s| s.a.x).min().unwrap();
        let x_hi = set.iter().map(|s| s.b.x).max().unwrap();
        for s in set.iter().step_by(40) {
            engine.delete(1_000_000 + s.id, *s).unwrap();
        }
        for i in 0..8u64 {
            // Horizontals across the left half of the map.
            let y = 10 + i as i64;
            let seg = Segment::new(2_000_000 + i, (x_lo, y), ((x_lo + x_hi) / 2, y)).unwrap();
            engine.insert(3_000_000 + i, seg).unwrap();
        }
        assert_eq!(engine.delta().len(), 8 + set.len().div_ceil(40));
        assert_page_parity(&format!("{kind:?} overlay"), &shapes, pinned, |items| {
            engine
                .query_batch_canonical_mode(items)
                .into_iter()
                .map(|r| r.unwrap())
                .collect()
        });
        // The line through the inserted horizontals' left end certainly
        // meets one: answered from the delta, in a group as well as alone.
        let hit = (VerticalQuery::Line { x: x_lo }, QueryMode::Exists);
        let miss = (VerticalQuery::Line { x: x_hi + 1000 }, QueryMode::Exists);
        let out = engine.query_batch_canonical_mode(&[miss, hit, miss]);
        let (answer, trace) = out[1].as_ref().unwrap();
        assert_eq!(answer, &QueryAnswer::Exists(true));
        assert_eq!(
            trace.io.total_io() + pages(trace),
            0,
            "delta hit reads nothing"
        );
        assert_eq!(out[0].as_ref().unwrap().0, QueryAnswer::Exists(false));
        let (alone, trace) = engine
            .query_line_mode((x_lo, 0), QueryMode::Exists)
            .unwrap();
        assert_eq!((alone, pages(&trace)), (QueryAnswer::Exists(true), 0));
    }
}

/// Un-folded deletes are hidden inside the walk, not repaired after
/// it: `Limit(k)` returns exactly `min(k, live)` hits and every one is
/// live, and an `Exists` whose only stored hits are deleted answers
/// `false` — alone and in a group of eight, for both writable kinds.
#[test]
fn unfolded_deletes_never_surface_in_limit_or_exists() {
    let set = mixed_map(600, 19);
    // Eight windows, each around a stored segment.
    let queries: Vec<VerticalQuery> = (set.iter().step_by(set.len() / 8).take(8))
        .map(|s| {
            let (x, y) = ((s.a.x + s.b.x) / 2, (s.a.y + s.b.y) / 2);
            VerticalQuery::segment(x, y - 60, y + 60)
        })
        .collect();
    for kind in [IndexKind::TwoLevelBinary, IndexKind::TwoLevelInterval] {
        let (engine, _) = WriteEngine::recover(
            build(kind, set.clone()),
            Box::new(Disk::new(1024)),
            WriterConfig::default(),
        )
        .unwrap();
        // Delete every hit of the first window and every other hit of
        // the rest.
        let mut live = set.clone();
        for (i, q) in queries.iter().enumerate() {
            for (j, id) in oracle_query(&live, q).into_iter().enumerate() {
                if i == 0 || j % 2 == 0 {
                    let at = live.iter().position(|s| s.id == id).unwrap();
                    let ack = engine.delete(1_000_000 + id, live.swap_remove(at)).unwrap();
                    assert!(ack.applied, "{kind:?}: delete of stored #{id}");
                }
            }
        }
        assert_eq!(
            engine.delta().len(),
            set.len() - live.len(),
            "nothing folded"
        );
        assert!(!oracle_query(&set, &queries[0]).is_empty());
        assert!(oracle_query(&live, &queries[0]).is_empty());

        for mode in [
            QueryMode::Exists,
            QueryMode::Limit(1),
            QueryMode::Limit(3),
            QueryMode::Limit(u32::MAX),
        ] {
            let items: Vec<(VerticalQuery, QueryMode)> =
                queries.iter().map(|&q| (q, mode)).collect();
            let together = engine.query_batch_canonical_mode(&items);
            let alone = (items.iter())
                .flat_map(|item| engine.query_batch_canonical_mode(std::slice::from_ref(item)));
            for (at, result) in together.into_iter().chain(alone).enumerate() {
                let q = &queries[at % queries.len()];
                let (answer, _) = result.unwrap();
                let want = oracle_query(&live, q);
                let ctx = format!("{kind:?} {q:?} {mode:?} (result {at})");
                match mode {
                    QueryMode::Limit(k) => {
                        let hits = ids(answer.segments().unwrap());
                        assert_eq!(
                            hits.len() as u64,
                            (k as u64).min(want.len() as u64),
                            "{ctx}"
                        );
                        assert!(
                            hits.iter().all(|id| want.binary_search(id).is_ok()),
                            "{ctx}"
                        );
                    }
                    _ => assert_eq!(answer, QueryAnswer::Exists(!want.is_empty()), "{ctx}"),
                }
            }
        }
        let (gone, _) = engine
            .query_batch_canonical_mode(&[(queries[0], QueryMode::Exists)])
            .pop()
            .unwrap()
            .unwrap();
        assert_eq!(
            gone,
            QueryAnswer::Exists(false),
            "{kind:?}: only deleted hits"
        );
    }
}

/// Batched reads through the writer's delta overlay (un-folded inserts
/// and lazy deletes in play) must match the sequential overlay path.
#[test]
fn writer_overlay_batches_match_sequential() {
    let set = mixed_map(400, 3);
    let db = SegmentDatabase::builder()
        .page_size(1024)
        .cache_pages(64)
        .index(IndexKind::TwoLevelInterval)
        .build(set.clone())
        .unwrap();
    let (engine, _) =
        WriteEngine::recover(db, Box::new(Disk::new(1024)), WriterConfig::default()).unwrap();
    // Grow a live delta: delete every 40th stored segment, insert fresh
    // horizontals through the set's middle.
    let (mut x_lo, mut x_hi) = (i64::MAX, i64::MIN);
    for s in &set {
        x_lo = x_lo.min(s.a.x);
        x_hi = x_hi.max(s.b.x);
    }
    for s in set.iter().step_by(40) {
        engine.delete(1_000_000 + s.id, *s).unwrap();
    }
    for i in 0..8u64 {
        let seg =
            Segment::new(2_000_000 + i, (x_lo, 10 + i as i64), (x_hi, 10 + i as i64)).unwrap();
        engine.insert(3_000_000 + i, seg).unwrap();
    }
    let items = batch_items(&set);
    let results = engine.query_batch_canonical_mode(&items);
    for ((q, mode), result) in items.iter().zip(results) {
        let (batched, _) = result.unwrap();
        let (sequential, _) = match *q {
            VerticalQuery::Line { x } => engine.query_line_mode((x, 0), *mode).unwrap(),
            VerticalQuery::RayUp { x, y0 } => engine.query_ray_up_mode((x, y0), *mode).unwrap(),
            VerticalQuery::RayDown { x, y0 } => engine.query_ray_down_mode((x, y0), *mode).unwrap(),
            VerticalQuery::Segment { x, lo, hi } => {
                engine.query_segment_mode((x, lo), (x, hi), *mode).unwrap()
            }
        };
        match mode {
            QueryMode::Limit(_) => {
                assert_eq!(
                    batched.segments().unwrap().len(),
                    sequential.segments().unwrap().len(),
                    "{q:?} {mode:?}"
                );
            }
            _ => assert_eq!(batched, sequential, "{q:?} {mode:?}"),
        }
    }
}

/// `(batch_id, batch_size)` of every slowlog entry, keyed by request id.
fn slowlog_batches(addr: &str) -> BTreeMap<u64, (u64, u64)> {
    let mut client = Client::new(ClientConfig {
        addr: addr.to_string(),
        ..ClientConfig::default()
    });
    let slowlog = client.remote_slowlog().unwrap();
    let entries = slowlog
        .get("entries")
        .and_then(Json::as_arr)
        .expect("slowlog has entries");
    let field = |e: &Json, key: &str| match e.get(key) {
        Some(&Json::U64(v)) => v,
        other => panic!("slowlog entry lacks {key}: {other:?}"),
    };
    entries
        .iter()
        .map(|e| {
            (
                field(e, "id"),
                (field(e, "batch_id"), field(e, "batch_size")),
            )
        })
        .collect()
}

/// A read-only server over the mixed set the load driver's oracle
/// regenerates from `(n, seed)`, every request kept in the slowlog.
/// The pool is smaller than the index, so the load both hits and misses.
fn served_mixed(n: usize, seed: u64, workers: usize) -> Server {
    let mut db = SegmentDatabase::builder()
        .page_size(1024)
        .cache_pages(16)
        .index(IndexKind::TwoLevelInterval)
        .build(Family::Mixed.generate(n, seed))
        .unwrap();
    db.set_observability(true);
    Server::start(
        Arc::new(db),
        ServerConfig {
            workers,
            slowlog_entries: 1024,
            ..ServerConfig::default()
        },
    )
    .unwrap()
}

/// Closed-loop, oracle-verified mixed-mode load: every reply must be
/// exact.
fn verified_load(server: &Server, n: usize, seed: u64, connections: usize, requests: usize) {
    let report = run_load(&LoadConfig {
        addr: server.addr().to_string(),
        connections,
        requests,
        family: Family::Mixed,
        n,
        seed,
        mode: ModeSpec::Mix,
        ..LoadConfig::default()
    })
    .unwrap();
    assert_eq!(
        (report.ok, report.wrong, report.errors),
        (requests as u64, 0, 0),
        "every served answer oracle-exact"
    );
}

/// One worker behind eight closed-loop clients: while it walks, the
/// other clients' queries queue, and the next pop takes them as one
/// group — no window, no wait. Every reply must demultiplex to its own
/// request (the load driver checks each against the oracle), and the
/// slowlog must show requests sharing a `batch_id`.
#[test]
fn served_groups_form_from_backlog_and_hit_slowlog() {
    let server = served_mixed(300, 21, 1);
    verified_load(&server, 300, 21, 8, 320);
    let addr = server.addr().to_string();
    let mut groups: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    for (batch_id, size) in slowlog_batches(&addr).into_values() {
        if batch_id != 0 {
            groups.entry(batch_id).or_default().push(size);
        }
    }
    assert!(
        groups
            .values()
            .any(|sizes| sizes.len() >= 2 && sizes.iter().all(|&s| s as usize == sizes.len())),
        "some group's members all report its id and size: {groups:?}"
    );
    // The stats reply describes the one buffer pool, and its hit rate is
    // the ratio of the same reply's `io` counters.
    let mut client = Client::new(ClientConfig {
        addr,
        ..ClientConfig::default()
    });
    let stats = client.remote_stats().unwrap();
    let cache = stats.get("cache").expect("stats carries a cache block");
    let num = |block: &Json, key: &str| {
        block
            .get(key)
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("stats block lacks {key}: {block:?}"))
    };
    assert!(num(cache, "resident_pages") <= num(cache, "capacity"));
    let io = stats.get("io").expect("stats carries an io block");
    let (reads, hits) = (num(io, "reads"), num(io, "cache_hits"));
    assert!(reads > 0.0 && hits > 0.0, "the load hit and missed");
    let rate = num(cache, "hit_rate");
    assert!(
        (rate - hits / (reads + hits)).abs() < 1e-12,
        "hit_rate {rate} is not {hits} / ({reads} + {hits})"
    );
    server.shutdown();
    server.wait();
}

/// Two workers, two closed-loop clients: never more jobs queued than
/// workers, so the share is one and every query runs alone — the
/// traffic shape of the benchmark's served workloads.
#[test]
fn no_backlog_means_every_query_runs_alone() {
    let server = served_mixed(300, 21, 2);
    verified_load(&server, 300, 21, 2, 160);
    let batches = slowlog_batches(&server.addr().to_string());
    assert!(batches.len() >= 160, "slowlog kept every request");
    assert!(
        batches.values().all(|&batch| batch == (0, 0)),
        "a group formed without backlog: {batches:?}"
    );
    server.shutdown();
    server.wait();
}

/// The reads of one thread — the first to read while the gate is shut —
/// are held until it opens; every other thread passes.
#[derive(Default)]
struct Gate {
    state: Mutex<(bool, Option<ThreadId>)>,
    changed: Condvar,
}

impl Gate {
    fn set_shut(&self, shut: bool) {
        self.state.lock().unwrap().0 = shut;
        self.changed.notify_all();
    }

    /// Called by every device read.
    fn pass(&self) {
        let me = thread::current().id();
        let mut state = self.state.lock().unwrap();
        if state.0 && state.1.is_none() {
            state.1 = Some(me);
            self.changed.notify_all();
        }
        while state.0 && state.1 == Some(me) {
            state = self.changed.wait(state).unwrap();
        }
    }

    /// Block until some thread is held at the gate.
    fn wait_held(&self) {
        let deadline = Instant::now() + Duration::from_secs(20);
        let mut state = self.state.lock().unwrap();
        while state.1.is_none() {
            let left = deadline.saturating_duration_since(Instant::now());
            assert!(!left.is_zero(), "no reader reached the gate");
            state = self.changed.wait_timeout(state, left).unwrap().0;
        }
    }
}

/// A [`Disk`] whose reads pass through a [`Gate`].
struct GatedDisk(Disk, Arc<Gate>);

impl Device for GatedDisk {
    fn page_size(&self) -> usize {
        self.0.page_size()
    }
    fn live_pages(&self) -> usize {
        self.0.live_pages()
    }
    fn capacity_pages(&self) -> usize {
        self.0.capacity_pages()
    }
    fn allocate(&mut self) -> Result<PageId, PagerError> {
        self.0.allocate()
    }
    fn free(&mut self, id: PageId) -> Result<(), PagerError> {
        self.0.free(id)
    }
    fn read(&self, id: PageId) -> Result<Arc<[u8]>, PagerError> {
        self.1.pass();
        self.0.read(id)
    }
    fn write(&mut self, id: PageId, img: Arc<[u8]>) -> Result<(), PagerError> {
        self.0.write(id, img)
    }
    fn check(&self, id: PageId) -> Result<(), PagerError> {
        self.0.check(id)
    }
    fn sync(&mut self) -> Result<(), PagerError> {
        self.0.sync()
    }
    fn set_meta(&mut self, meta: &[u8]) -> Result<(), PagerError> {
        self.0.set_meta(meta)
    }
    fn get_meta(&self) -> Result<Vec<u8>, PagerError> {
        self.0.get_meta()
    }
}

/// Occupy one worker: a `sync_from` whose peer accepts and then says
/// nothing. Returns once the worker has connected; dropping the
/// returned sockets fails the call and frees the worker.
fn plug_a_worker(addr: &str) -> (TcpListener, std::net::TcpStream) {
    let hole = TcpListener::bind("127.0.0.1:0").unwrap();
    let peer = hole.local_addr().unwrap().to_string();
    let addr = addr.to_string();
    thread::spawn(move || {
        let mut client = Client::new(ClientConfig {
            addr,
            attempt_timeout: Duration::from_secs(60),
            max_retries: 0,
            ..ClientConfig::default()
        });
        assert!(client.sync_from(&peer, None).is_err());
    });
    let (stream, _) = hole.accept().unwrap();
    (hole, stream)
}

/// Two workers. One is held mid-walk with a group of two; the other is
/// idle. A write submitted now must be answered by the idle worker at
/// once — no worker ever sleeps on the queue's condvar while holding
/// jobs, so the wake-up for the write cannot land on the busy one.
#[test]
fn a_write_is_served_while_the_other_worker_is_mid_group() {
    let set = mixed_map(300, 21);
    let gate = Arc::new(Gate::default());
    let db = SegmentDatabase::builder()
        .page_size(1024)
        .cache_pages(0)
        .index(IndexKind::TwoLevelInterval)
        .on_device(Box::new(GatedDisk(Disk::new(1024), Arc::clone(&gate))))
        .build(set.clone())
        .unwrap();
    let (engine, _) =
        WriteEngine::recover(db, Box::new(Disk::new(1024)), WriterConfig::default()).unwrap();
    let server = Server::start_writable(
        Arc::new(engine),
        ServerConfig {
            workers: 2,
            request_timeout: Duration::from_secs(60),
            slowlog_entries: 64,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.addr().to_string();

    // Both workers plugged; four queries queue up behind them.
    let plug_a = plug_a_worker(&addr);
    let plug_b = plug_a_worker(&addr);
    let queries: Vec<_> = set
        .iter()
        .step_by(60)
        .take(4)
        .enumerate()
        .map(|(i, s)| {
            let x = (s.a.x + s.b.x) / 2;
            let addr = addr.clone();
            thread::spawn(move || {
                let mut client = Client::new(ClientConfig {
                    addr,
                    attempt_timeout: Duration::from_secs(60),
                    max_retries: 0,
                    id_base: 1000 * (i as u64 + 1),
                    ..ClientConfig::default()
                });
                (x, client.query_ids("query_line", &[("x", x)]).unwrap())
            })
        })
        .collect();
    thread::sleep(Duration::from_millis(400));

    // Free one worker: it takes ceil(4 / 2) = 2 queries as one group and
    // is held at its first page read.
    gate.set_shut(true);
    drop(plug_a);
    gate.wait_held();
    // Free the other: it serves the two remaining queries one by one
    // (ceil(2 / 2) = 1) and goes idle.
    drop(plug_b);
    let deadline = Instant::now() + Duration::from_secs(20);
    while queries.iter().filter(|q| q.is_finished()).count() < 2 {
        assert!(Instant::now() < deadline, "the free worker never drained");
        thread::sleep(Duration::from_millis(10));
    }
    let held = || queries.iter().filter(|q| !q.is_finished()).count();
    assert_eq!(held(), 2, "one worker holds a group of two");

    // The write goes through while the group is still held. It lies to
    // the right of every stored segment, so no query answer sees it.
    let max_x = set.iter().map(|s| s.a.x.max(s.b.x)).max().unwrap();
    let fresh = Segment::new(9_000_001, (max_x + 100, 0), (max_x + 200, 0)).unwrap();
    let mut writer = Client::new(ClientConfig {
        addr: addr.clone(),
        attempt_timeout: Duration::from_secs(10),
        max_retries: 0,
        id_base: 9000,
        ..ClientConfig::default()
    });
    let ack = writer.insert(&fresh).unwrap();
    assert!(ack.applied && !ack.duplicate);
    assert_eq!(
        held(),
        2,
        "the group was still mid-walk when the write acked"
    );

    gate.set_shut(false);
    let mut group_ids = Vec::new();
    for q in queries {
        let (x, got) = q.join().unwrap();
        assert_eq!(got, oracle_query(&set, &VerticalQuery::Line { x }), "x={x}");
    }
    // A request enters the slowlog after its reply is written, so the
    // group's two entries may trail the replies by a moment.
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut batches = slowlog_batches(&addr);
    while batches.len() < 5 && Instant::now() < deadline {
        thread::sleep(Duration::from_millis(10));
        batches = slowlog_batches(&addr);
    }
    for (id, &(batch_id, size)) in &batches {
        match size {
            0 => assert_eq!(batch_id, 0, "request {id}"),
            2 => group_ids.push(batch_id),
            other => panic!("request {id} ran in a group of {other}: {batches:?}"),
        }
    }
    assert_eq!(group_ids.len(), 2, "{batches:?}");
    assert!(group_ids[0] != 0 && group_ids[0] == group_ids[1]);
    assert_eq!(batches[&9001], (0, 0), "the write ran alone");
    server.shutdown();
    server.wait();
}
