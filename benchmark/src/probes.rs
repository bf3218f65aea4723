//! Per-layer probes: each layer's public functions timed from outside,
//! on the workload's own segments and queries.
//!
//! The isolated probes give a layer its own pager so nothing else is in
//! the measurement; [`core_on_db`] runs against the workload's database
//! in whatever cache state the run left it.

use crate::inputs::{mode_index, mode_of, MODES, POOL};
use crate::report::Report;
use crate::spans::Recorder;
use crate::stats::{slope, Samples};
use segdb_bptree::node::Node;
use segdb_bptree::record::{KeyOrder, KeyValue};
use segdb_bptree::BPlusTree;
use segdb_core::{QueryMode, SegmentDatabase};
use segdb_geom::nct::verify_nct;
use segdb_geom::predicates::hits_vertical;
use segdb_geom::{CollectSink, CountSink, MultiSink, ReportSink, Segment, VerticalQuery};
use segdb_itree::node::ItNode;
use segdb_itree::{Interval, IntervalTree, IntervalTreeConfig};
use segdb_obs::cost::CostModel;
use segdb_obs::Json;
use segdb_pager::{thread_io, FileDevice, Pager, PagerConfig};
use segdb_pst::node::PstNode;
use segdb_pst::{Pst, PstConfig, Side};
use segdb_server::proto;
use segdb_wal::{Wal, WalOp};
use std::hint::black_box;
use std::path::Path;
use std::sync::Barrier;
use std::time::Instant;

/// Segments the isolated probes replay: every k-th of the workload's
/// set, so roads and strips keep their shares (any subset of a
/// non-crossing set is non-crossing).
const PROBE_SEGMENTS: usize = 20_000;
/// Segments `verify_nct` is timed on: what `served_read`'s set-up validates.
const NCT_SEGMENTS: usize = 100_000;
/// Queries the isolated probes replay.
const PROBE_QUERIES: usize = 1024;
const PAGE: usize = 4096;

pub struct Inputs<'a> {
    pub set: &'a [Segment],
    pub queries: &'a [VerticalQuery],
    pub scratch: &'a Path,
}

/// Mean nanoseconds per call of `f` over `iters` calls.
fn ns_per_call(iters: usize, mut f: impl FnMut(usize)) -> f64 {
    let t = Instant::now();
    for i in 0..iters {
        f(i);
    }
    t.elapsed().as_nanos() as f64 / iters.max(1) as f64
}

/// Logical page accesses (device reads + cache hits) of this thread.
fn accesses() -> u64 {
    let io = thread_io();
    io.reads + io.cache_hits
}

fn page_image(pager: &Pager, id: segdb_pager::PageId) -> Vec<u8> {
    pager
        .with_page(id, |b| b.to_vec())
        .expect("probe page is live")
}

fn memory_pager(cache_pages: usize) -> Pager {
    Pager::new(PagerConfig {
        page_size: PAGE,
        cache_pages,
    })
}

/// Run every isolated probe, each inside a `probe.*` span.
pub fn isolated(report: &mut Report, rec: &mut Recorder, inp: &Inputs<'_>) {
    let every = |k: usize| -> Vec<Segment> {
        let stride = inp.set.len().div_ceil(k).max(1);
        inp.set.iter().step_by(stride).copied().collect()
    };
    let sample = every(PROBE_SEGMENTS);
    let set = &sample[..];
    let queries = &inp.queries[..inp.queries.len().min(PROBE_QUERIES)];
    rec.within("probe.geom", 0, None, || geom(report, set, queries));
    rec.within("probe.nct", 0, None, || {
        let t = Instant::now();
        verify_nct(&every(NCT_SEGMENTS)).expect("a subset of a non-crossing set");
        report.set("geom.verify_nct_s", t.elapsed().as_secs_f64());
    });
    rec.within("probe.pager", 0, None, || pager(report, inp.scratch));
    rec.within("probe.bptree", 0, None, || bptree(report, set, queries));
    rec.within("probe.itree", 0, None, || itree(report, set, queries));
    rec.within("probe.pst", 0, None, || pst(report, set, queries));
    rec.within("probe.server", 0, None, || wire_codec(report, queries));
}

fn geom(report: &mut Report, set: &[Segment], queries: &[VerticalQuery]) {
    let mut hit = 0u64;
    let calls = 2_000_000;
    let ns = ns_per_call(calls, |i| {
        let q = &queries[i % queries.len()];
        let s = &set[(i * 7919) % set.len()];
        hit += u64::from(hits_vertical(black_box(s), q.x(), q.lo(), q.hi()));
    });
    black_box(hit);
    report.set("geom.hits_vertical_ns", ns);

    let mut sink = CollectSink::new();
    let ns = ns_per_call(set.len(), |i| {
        let _ = sink.report(black_box(&set[i]));
    });
    black_box(sink.into_vec().len());
    report.set("geom.collect_sink_ns_per_hit", ns);

    // A 32-slot fan-out in the benchmark's mode mix, offered segments
    // the way a scan-shaped layer offers them.
    let mut sinks: Vec<Box<dyn ReportSink>> = (0..32).map(|i| mode_of(i).make_sink()).collect();
    let mut multi = MultiSink::new();
    for (i, s) in sinks.iter_mut().enumerate() {
        multi.push(queries[i % queries.len()], s.as_mut());
    }
    let ns = ns_per_call(set.len(), |i| {
        let _ = multi.offer(black_box(&set[i]));
    });
    report.set("geom.multisink_offer_ns", ns);
}

fn pager(report: &mut Report, scratch: &Path) {
    const RESIDENT: usize = 2048;
    const STRIDE: usize = 1031; // prime, so a walk visits every page
    let fill = |p: &Pager, pages: usize| -> Vec<segdb_pager::PageId> {
        (0..pages)
            .map(|i| {
                let id = p.allocate().expect("allocate");
                p.overwrite_page(id, |b| b[0] = i as u8).expect("fill");
                id
            })
            .collect()
    };

    let hot = memory_pager(RESIDENT);
    let ids = fill(&hot, RESIDENT);
    hot.clean_pool().expect("clean");
    let mut sum = 0u64;
    let ns = ns_per_call(400_000, |i| {
        sum += hot
            .with_page(ids[(i * STRIDE) % RESIDENT], |b| b[0] as u64)
            .expect("resident page");
    });
    black_box(sum);
    assert_eq!(
        hot.stats().reads,
        0,
        "the hit probe never touches the device"
    );
    report.set("pager.hit_ns", ns);

    // Misses: a file of 8192 pages behind a 64-page pool, walked with a
    // stride, so every access evicts, preads and admits.
    const FILE_PAGES: usize = 8192;
    let path = scratch.join("probe-pager.db");
    let dev = FileDevice::create(&path, PAGE).expect("create probe file");
    let writer = Pager::with_device(Box::new(dev), 0);
    let ids = fill(&writer, FILE_PAGES);
    writer.sync().expect("sync probe file");
    drop(writer);
    let cold = Pager::with_device(Box::new(FileDevice::open(&path).expect("reopen")), 64);
    let calls = 40_000;
    let ns = ns_per_call(calls, |i| {
        sum += cold
            .with_page(ids[(i * STRIDE) % FILE_PAGES], |b| b[0] as u64)
            .expect("file page");
    });
    black_box(sum);
    assert_eq!(cold.stats().reads, calls as u64, "every access was a miss");
    report.set("pager.miss_ns", ns);
    drop(cold);
    let _ = std::fs::remove_file(&path);

    // Contended hits: the serving configuration (one shard per thread)
    // read by every client thread at once.
    let threads = crate::driver::client_threads();
    let shared = Pager::with_device_sharded(
        Box::new(segdb_pager::Disk::new(PAGE)),
        RESIDENT * 2,
        threads,
    );
    let ids = fill(&shared, RESIDENT);
    shared.clean_pool().expect("clean");
    let barrier = Barrier::new(threads);
    let per_thread = 200_000;
    let total_ns: f64 = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let (shared, ids, barrier) = (&shared, &ids, &barrier);
                s.spawn(move || {
                    barrier.wait();
                    let mut sum = 0u64;
                    let ns = ns_per_call(per_thread, |i| {
                        sum += shared
                            .with_page(ids[(t * 97 + i * STRIDE) % RESIDENT], |b| b[0] as u64)
                            .expect("resident page");
                    });
                    black_box(sum);
                    ns
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("probe thread"))
            .sum()
    });
    report.set("pager.contended_hit_ns", total_ns / threads as f64);
}

fn bptree(report: &mut Report, set: &[Segment], queries: &[VerticalQuery]) {
    let pager = memory_pager(1 << 14);
    let mut records: Vec<KeyValue> = set
        .iter()
        .map(|s| KeyValue {
            key: s.a.y,
            value: s.id,
        })
        .collect();
    records.sort_by_key(|r| (r.key, r.value));
    let mut tree = BPlusTree::bulk_load(&pager, KeyOrder, &records).expect("bulk load");
    let keys: Vec<i64> = queries.iter().map(|q| q.lo().unwrap_or(q.x())).collect();

    let before = accesses();
    let ns = ns_per_call(keys.len() * 8, |i| {
        let key = keys[i % keys.len()];
        let cursor = tree
            .lower_bound(&pager, &|r: &KeyValue| key.cmp(&r.key))
            .expect("lower bound");
        black_box(cursor.peek().map(|r| r.value));
    });
    report.set("bptree.lower_bound_ns", ns);
    report.set(
        "bptree.lower_bound_pages",
        (accesses() - before) as f64 / (keys.len() * 8) as f64,
    );

    let t = Instant::now();
    let mut cursor = tree.cursor_first(&pager).expect("first leaf");
    let mut seen = 0u64;
    while let Some(r) = cursor.next(&pager).expect("scan") {
        seen += 1;
        black_box(r.value);
    }
    assert_eq!(seen, records.len() as u64);
    report.set(
        "bptree.scan_ns_per_record",
        t.elapsed().as_nanos() as f64 / seen as f64,
    );

    // Decode one leaf image and the root (internal at this size).
    let leaf = tree
        .leaf_page_of(&pager, &|r: &KeyValue| keys[0].cmp(&r.key))
        .expect("leaf");
    let images = [
        page_image(&pager, leaf),
        page_image(&pager, tree.root_page()),
    ];
    let ns = ns_per_call(20_000, |i| {
        black_box(Node::<KeyValue>::decode(black_box(&images[i % 2])).expect("decode"));
    });
    report.set("bptree.decode_ns", ns);

    let fresh = set.len() as u64;
    let ns = ns_per_call(4096, |i| {
        let rec = KeyValue {
            key: keys[i % keys.len()],
            value: fresh + i as u64,
        };
        tree.insert(&pager, rec).expect("insert");
    });
    report.set("bptree.insert_ns", ns);
}

fn itree(report: &mut Report, set: &[Segment], queries: &[VerticalQuery]) {
    let pager = memory_pager(1 << 14);
    let intervals = set
        .iter()
        .map(|s| Interval::new(s.id, s.a.x, s.b.x))
        .collect();
    let tree = IntervalTree::build(&pager, IntervalTreeConfig::default(), intervals)
        .expect("build interval tree");
    let before = accesses();
    let ns = ns_per_call(queries.len() * 4, |i| {
        let x = queries[i % queries.len()].x();
        black_box(tree.stab_count(&pager, x).expect("stab"));
    });
    report.set("itree.stab_ns", ns);
    report.set(
        "itree.stab_pages",
        (accesses() - before) as f64 / (queries.len() * 4) as f64,
    );
    let root = page_image(&pager, tree.state().root);
    let ns = ns_per_call(20_000, |_| {
        black_box(ItNode::decode(black_box(&root)).expect("decode"));
    });
    report.set("itree.decode_ns", ns);
}

fn pst(report: &mut Report, set: &[Segment], queries: &[VerticalQuery]) {
    // The line-based subset: segments spanning the median query
    // abscissa. Half is bulk-built, the other half inserted.
    let mut xs: Vec<i64> = queries.iter().map(VerticalQuery::x).collect();
    xs.sort_unstable();
    let base_x = xs[xs.len() / 2];
    let spanning: Vec<Segment> = set
        .iter()
        .filter(|s| !s.is_vertical() && s.spans_x(base_x))
        .copied()
        .collect();
    if spanning.len() < 64 {
        return; // nothing line-based at this abscissa to measure
    }
    let (built, inserted): (Vec<_>, Vec<_>) =
        spanning.iter().enumerate().partition(|(i, _)| i % 2 == 0);
    let built: Vec<Segment> = built.into_iter().map(|(_, s)| *s).collect();
    let pager = memory_pager(1 << 14);
    let mut tree =
        Pst::build(&pager, base_x, Side::Right, PstConfig::default(), built).expect("build pst");
    let right: Vec<&VerticalQuery> = queries.iter().filter(|q| q.x() >= base_x).collect();
    let before = accesses();
    let calls = right.len() * 4;
    let ns = ns_per_call(calls, |i| {
        let q = right[i % right.len()];
        let mut sink = CountSink::new();
        tree.query_sink(&pager, q.x(), q.lo(), q.hi(), &mut sink)
            .expect("pst query");
        black_box(sink.count);
    });
    report.set("pst.query_ns", ns);
    report.set(
        "pst.query_pages",
        (accesses() - before) as f64 / calls as f64,
    );
    let root = page_image(&pager, tree.state().root);
    let ns = ns_per_call(20_000, |_| {
        black_box(PstNode::decode(black_box(&root)).expect("decode"));
    });
    report.set("pst.decode_ns", ns);
    let ns = ns_per_call(inserted.len(), |i| {
        tree.insert(&pager, *inserted[i].1).expect("pst insert");
    });
    report.set("pst.insert_ns", ns);
}

/// A wire request line for one query (what `Client::query_mode` sends).
pub fn request_line(id: u64, q: &VerticalQuery, mode: QueryMode) -> String {
    let (method, params) = wire_params(q);
    let mut fields: Vec<(String, Json)> = params
        .iter()
        .map(|(k, v)| (k.to_string(), Json::I64(*v)))
        .collect();
    if mode != QueryMode::Collect {
        fields.push(("mode".into(), Json::Str(mode.name().into())));
        if let QueryMode::Limit(k) = mode {
            fields.push(("limit".into(), Json::U64(k as u64)));
        }
    }
    Json::obj([
        ("id", Json::U64(id)),
        ("method", Json::Str(method.into())),
        ("params", Json::Obj(fields)),
    ])
    .render()
}

/// Wire method and parameters of a canonical query (vertical direction:
/// user and canonical coordinates coincide).
pub fn wire_params(q: &VerticalQuery) -> (&'static str, Vec<(&'static str, i64)>) {
    match *q {
        VerticalQuery::Line { x } => ("query_line", vec![("x", x)]),
        VerticalQuery::RayUp { x, y0 } => ("query_ray_up", vec![("x", x), ("y", y0)]),
        VerticalQuery::RayDown { x, y0 } => ("query_ray_down", vec![("x", x), ("y", y0)]),
        VerticalQuery::Segment { x, lo, hi } => (
            "query_segment",
            vec![("x1", x), ("y1", lo), ("x2", x), ("y2", hi)],
        ),
    }
}

fn wire_codec(report: &mut Report, queries: &[VerticalQuery]) {
    let lines: Vec<String> = queries
        .iter()
        .enumerate()
        .map(|(i, q)| request_line(i as u64, q, mode_of(i)))
        .collect();
    let ns = ns_per_call(lines.len() * 8, |i| {
        black_box(proto::parse_request(black_box(&lines[i % lines.len()])).expect("parse"));
    });
    report.set("server.parse_ns", ns);

    // Reply encoding at 8, 512 and 4096 ids; the slope is the per-id cost.
    let points: Vec<(f64, f64)> = [8usize, 512, 4096]
        .iter()
        .map(|&n| {
            let ns = ns_per_call(200, |_| {
                let ids = (0..n as u64).map(|i| Json::U64(i * 31)).collect();
                let result = Json::obj([
                    ("ids", Json::Arr(ids)),
                    ("count", Json::U64(n as u64)),
                    ("mode", Json::Str("collect".into())),
                ]);
                black_box(proto::ok_line(Some(7), result));
            });
            (n as f64, ns)
        })
        .collect();
    report.set("server.encode_ns_per_id", slope(&points));
}

/// The facade timed in process against the workload's own database:
/// per-mode latency and pages over one pass of the cycle, the output
/// term against the paper's bound, and the batch executor at 1 and 32.
pub fn core_on_db(
    report: &mut Report,
    rec: &mut Recorder,
    db: &SegmentDatabase,
    queries: &[VerticalQuery],
) {
    let probe = rec.open("probe.core", 0, None);
    let mut lat: [Samples; 4] = std::array::from_fn(|_| Samples::with_capacity(POOL / 4));
    let mut pages = [0u64; 4];
    let mut collect_points = Vec::with_capacity(POOL / 4);
    let model = CostModel::new(db.kind().cost_kind(), db.len(), db.block_segments());
    let mut bound_ratio = 0.0;
    for (i, q) in queries.iter().enumerate() {
        let mode = mode_of(i);
        let span = rec.open("core.query", i as u64, Some(probe));
        let t = Instant::now();
        let (answer, trace) = db.query_canonical_mode(q, mode).expect("probe query");
        let ns = t.elapsed().as_nanos() as u64;
        rec.close(span);
        black_box(answer);
        let m = mode_index(mode);
        lat[m].push(ns);
        let touched = trace.io.reads + trace.io.cache_hits;
        pages[m] += touched;
        bound_ratio += touched as f64 / model.shape(trace.hits as u64);
        if mode == QueryMode::Collect {
            collect_points.push((trace.hits as f64, ns as f64));
        }
    }
    const NAMES: [(&str, &str); 4] = [
        ("core.collect_us", "core.collect_pages"),
        ("core.count_us", "core.count_pages"),
        ("core.exists_us", "core.exists_pages"),
        ("core.limit_us", "core.limit_pages"),
    ];
    for (m, (us, pg)) in NAMES.into_iter().enumerate() {
        report.set(us, lat[m].percentile_us(50.0));
        report.set(pg, pages[m] as f64 / lat[m].len().max(1) as f64);
    }
    report.set("core.collect_ns_per_hit", slope(&collect_points));
    report.set(
        "core.pages_per_bound_unit",
        bound_ratio / queries.len() as f64,
    );

    // A batch of one is meant to be the sequential path: compare
    // `core.batch1_us` with `core.count_us`.
    let counts: Vec<VerticalQuery> = (0..queries.len())
        .filter(|&i| mode_of(i) == QueryMode::Count)
        .map(|i| queries[i])
        .collect();
    let mut one = Samples::with_capacity(counts.len());
    for q in &counts {
        let t = Instant::now();
        black_box(db.query_batch_canonical_mode(&[(*q, QueryMode::Count)]));
        one.push(t.elapsed().as_nanos() as u64);
    }
    report.set("core.batch1_us", one.percentile_us(50.0));

    let (mut ns, mut touched, mut served) = (0u64, 0u64, 0usize);
    for group in (0..queries.len()).step_by(32).take(32) {
        let items: Vec<(VerticalQuery, QueryMode)> = (group..(group + 32).min(queries.len()))
            .map(|i| (queries[i], mode_of(i)))
            .collect();
        let span = rec.open("core.query_batch", group as u64, Some(probe));
        let t = Instant::now();
        let results = db.query_batch_canonical_mode(&items);
        ns += t.elapsed().as_nanos() as u64;
        rec.close(span);
        served += results.len();
        touched += results
            .iter()
            .flatten()
            .map(|(_, trace)| trace.io.reads + trace.io.cache_hits)
            .sum::<u64>();
    }
    report.set(
        "core.batch32_us_per_query",
        ns as f64 / 1e3 / served.max(1) as f64,
    );
    report.set(
        "core.batch32_pages_per_query",
        touched as f64 / served.max(1) as f64,
    );
    rec.close(probe);
    debug_assert_eq!(MODES.len(), NAMES.len());
}

/// The WAL alone on a file: append, group commit, replay.
pub fn wal(report: &mut Report, set: &[Segment], scratch: &Path) {
    const RECORDS: usize = 4096;
    const WINDOW: usize = 8; // WriterConfig::default().group_window
    let path = scratch.join("probe-wal.log");
    let dev = FileDevice::create(&path, PAGE).expect("create wal file");
    let mut log = Wal::create(Box::new(dev), WINDOW).expect("create wal");
    let (mut appends, mut commits) = (
        Samples::with_capacity(RECORDS),
        Samples::with_capacity(RECORDS / WINDOW),
    );
    for i in 0..RECORDS {
        let op = WalOp::Insert(set[i % set.len()]);
        let syncs = log.stats().group_commits;
        let t = Instant::now();
        log.append(i as u64, op).expect("append");
        let ns = t.elapsed().as_nanos() as u64;
        if log.stats().group_commits > syncs {
            commits.push(ns);
        } else {
            appends.push(ns);
        }
    }
    log.flush().expect("flush");
    let stats = log.stats();
    report.set("wal.append_ns", appends.percentile_us(50.0) * 1e3);
    report.set("wal.commit_us", commits.percentile_us(50.0));
    report.set(
        "wal.bytes_per_record",
        stats.bytes as f64 / stats.records as f64,
    );
    report.set(
        "wal.syncs_per_record",
        stats.group_commits as f64 / stats.records as f64,
    );
    drop(log);
    let t = Instant::now();
    let (_, replayed) = Wal::open(
        Box::new(FileDevice::open(&path).expect("reopen wal")),
        WINDOW,
    )
    .expect("replay");
    assert_eq!(replayed.len(), RECORDS);
    report.set(
        "wal.replay_us_per_record",
        t.elapsed().as_nanos() as f64 / 1e3 / RECORDS as f64,
    );
    let _ = std::fs::remove_file(&path);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{generate_set, shaped_queries};

    #[test]
    fn request_lines_parse_as_the_query_they_came_from() {
        let set = generate_set(400, 3);
        for (i, q) in shaped_queries(&set, 16, 1).iter().enumerate() {
            let line = request_line(i as u64, q, mode_of(i));
            let req = proto::parse_request(&line).unwrap();
            assert_eq!(req.id, Some(i as u64));
            let proto::Method::Query(_, mode) = req.method else {
                panic!("not a query: {line}")
            };
            assert_eq!(mode, mode_of(i));
        }
    }

    #[test]
    fn isolated_probes_fill_their_metrics() {
        let set = generate_set(3000, 3);
        let queries = shaped_queries(&set, 64, 1);
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("out/test-probes-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut report = Report::default();
        let mut rec = Recorder::new(Instant::now(), true, 16);
        let inp = Inputs {
            set: &set,
            queries: &queries,
            scratch: &dir,
        };
        isolated(&mut report, &mut rec, &inp);
        wal(&mut report, &set, &dir);
        let db = SegmentDatabase::builder()
            .cache_pages(64)
            .build(set.clone())
            .unwrap();
        core_on_db(&mut report, &mut rec, &db, &queries);
        std::fs::remove_dir_all(&dir).unwrap();
        for name in [
            "geom.hits_vertical_ns",
            "pager.hit_ns",
            "pager.miss_ns",
            "pager.contended_hit_ns",
            "bptree.lower_bound_pages",
            "itree.stab_ns",
            "pst.query_ns",
            "server.parse_ns",
            "server.encode_ns_per_id",
            "wal.commit_us",
            "core.count_us",
            "core.batch32_pages_per_query",
        ] {
            assert!(report.metrics[name] > 0.0, "{name} not measured");
        }
        assert!(rec.spans().iter().any(|s| s.name == "probe.pager"));
    }
}
