//! E16 — end-to-end write-path cost through the [`WriteEngine`]:
//! per-op I/O = WAL append (group-commit batched syncs) + an amortized
//! share of each delta fold's index maintenance.
//!
//! The paper's Theorem 2(iii) bounds amortized inserts by
//! `O(log_B n + log₂ B)` I/Os; deletes go through the lazy-tombstone
//! extension, whose cost is a membership probe — the point query at the
//! segment's left endpoint, `O(log_B n)`-shaped and independent of how
//! much the line through that point stabs — plus an `O(1)` chain
//! append. An update deletes a live segment and inserts it again under
//! its id, half of them moved up inside their strips and half exactly
//! as they were: a delete plus an insert, or a delete plus one more
//! chain record — never a rebuild. The write engine adds a constant WAL term per op and an
//! `O(1)/d` checkpoint term (superblock save every `delta_limit = d`
//! ops). The tables check the *shape*: insert I/O per op tracks the
//! Theorem-2 curve as `n` grows, delete I/O is explained by its measured
//! membership-probe cost plus a small flat overhead, and the
//! deterministic batching counters (folds, group commits) scale as
//! `K/d` and `K/w` exactly.

use segdb_bench::{correlation, f1, f2, ols_slope, table};
use segdb_core::{IndexKind, QueryMode, SegmentDatabase, WriteEngine, WriterConfig};
use segdb_geom::gen::strips;
use segdb_geom::query::scan_oracle;
use segdb_geom::{Segment, VerticalQuery};
use segdb_obs::Json;
use segdb_pager::Disk;
use segdb_wal::{WalOp, WalRecord};

const PAGE: usize = 1024;
const OPS: u64 = 2048;

/// Base set plus a reserve of future inserts, all from one strips
/// family: every segment sits in its own horizontal band, so any subset
/// is non-crossing and insert order never violates NCT.
fn families(n: usize, seed: u64) -> (Vec<Segment>, Vec<Segment>) {
    let full = strips(n + (OPS / 2) as usize, 1 << 18, 16, 400, seed);
    let fresh = full[n..].to_vec();
    let base = {
        let mut v = full;
        v.truncate(n);
        v
    };
    (base, fresh)
}

fn build_engine(base: Vec<Segment>, cfg: WriterConfig) -> WriteEngine {
    let db = SegmentDatabase::builder()
        .page_size(PAGE)
        .cache_pages(0)
        .index(IndexKind::TwoLevelInterval)
        .build(base)
        .unwrap();
    let (engine, report) = WriteEngine::recover(db, Box::new(Disk::new(PAGE)), cfg).unwrap();
    assert_eq!(report.replayed, 0);
    engine
}

/// Database I/O spent inside `f`, tail-folded so every op's index cost
/// lands in the window.
fn db_io_for(eng: &WriteEngine, f: impl FnOnce()) -> u64 {
    let io0 = eng.with_db(|db| db.pager().stats().total_io());
    f();
    eng.fold().unwrap();
    eng.with_db(|db| db.pager().stats().total_io()) - io0
}

/// What [`run_workload`] measured: I/O per insert, delete and update,
/// the bare probe cost, WAL bytes per logged op, folds and WAL syncs.
struct Costs {
    ins: f64,
    del: f64,
    upd: f64,
    probe: f64,
    wal_bytes: f64,
    folds: u64,
    commits: u64,
}

/// Drive `OPS/2` inserts, `OPS/2` deletes, then `OPS/2` updates (a
/// delete and an insert each) through the engine, measuring each phase
/// separately (plus the bare probe cost for the victims between the
/// first two).
fn run_workload(base: &[Segment], fresh: &[Segment], eng: &WriteEngine) -> Costs {
    let half = (OPS / 2) as usize;
    let ins_io = db_io_for(eng, || {
        for (k, s) in fresh.iter().enumerate() {
            let ack = eng.insert(1 + k as u64, *s).unwrap();
            assert!(ack.applied && !ack.duplicate);
        }
    });
    let probe_io = mean_probe_reads(eng, &base[..half]);
    let del_io = db_io_for(eng, || {
        for (k, s) in base[..half].iter().enumerate() {
            let ack = eng.delete(1 + (half + k) as u64, *s).unwrap();
            assert!(ack.applied && !ack.duplicate);
        }
    });
    // Every other update moves its segment up inside its strip.
    let updated: Vec<Segment> = (base[half..2 * half].iter().enumerate())
        .map(|(k, s)| match k % 2 {
            0 => *s,
            _ => Segment::new(s.id, (s.a.x, s.a.y + 4), (s.b.x, s.b.y + 4)).unwrap(),
        })
        .collect();
    let upd_io = db_io_for(eng, || {
        let req = 1 + OPS;
        for (k, (s, back)) in base[half..].iter().zip(&updated).enumerate() {
            let ack = eng.delete(req + 2 * k as u64, *s).unwrap();
            assert!(ack.applied && !ack.duplicate);
            let ack = eng.insert(req + 2 * k as u64 + 1, *back).unwrap();
            assert!(ack.applied && !ack.duplicate);
        }
    });
    let (wal, delta) = eng.wal_stats();
    assert_eq!(delta, 0, "tail fold left the delta empty");

    // Every op applied exactly once: the live set is the base minus its
    // first half-K segments, updated, plus the reserve. Spot-check
    // stabbing lines against the scan oracle.
    let live: Vec<Segment> = (updated.iter())
        .chain(&base[2 * half..])
        .chain(fresh)
        .copied()
        .collect();
    for x in [100i64, 1 << 12, 1 << 17] {
        let q = VerticalQuery::Line { x };
        let (ans, _) = eng.query_line_mode((x, 0), QueryMode::Count).unwrap();
        assert_eq!(
            ans.count(),
            scan_oracle(&live, &q).len() as u64,
            "line x={x} after the storm"
        );
    }
    eng.with_db(|db| db.validate().unwrap());

    let rebuilds = eng
        .counters()
        .rebuilds
        .load(std::sync::atomic::Ordering::Relaxed);
    Costs {
        ins: ins_io as f64 / half as f64,
        del: del_io as f64 / half as f64,
        upd: upd_io as f64 / half as f64,
        probe: probe_io,
        wal_bytes: wal.bytes as f64 / (2 * OPS) as f64,
        folds: rebuilds,
        commits: wal.group_commits,
    }
}

/// Mean measured cost of the membership probe itself — the point query
/// through a stored segment's left endpoint that the engine runs when it
/// accepts a delete, and the index runs again when the fold applies it.
/// Replaying an insert of a segment already visible runs exactly that
/// probe and, finding the segment, changes nothing.
fn mean_probe_reads(eng: &WriteEngine, victims: &[Segment]) -> f64 {
    let reads = || eng.with_db(|db| db.pager().stats().reads);
    let before = reads();
    for s in victims {
        let replayed = WalRecord {
            seq: 0,
            req_id: u64::MAX,
            op: WalOp::Insert(*s),
        };
        assert!(eng.sync_apply(&replayed).unwrap().duplicate);
    }
    (reads() - before) as f64 / victims.len() as f64
}

fn main() {
    let b = PAGE / 40; // segments per page, the paper's B

    // Scale: fixed batching, growing n — insert I/O per op must track
    // the Theorem-2 amortized curve log_B n + log₂ B, not n; delete I/O
    // is two probes of that same shape plus a flat remainder.
    let cfg = WriterConfig {
        group_window: 8,
        delta_limit: 256,
        ..WriterConfig::default()
    };
    let mut rows = Vec::new();
    let mut sections = Vec::new();
    let mut fits: Vec<(f64, f64)> = Vec::new();
    for exp in [12u32, 14, 16] {
        let n = 1usize << exp;
        let (base, fresh) = families(n, 500 + exp as u64);
        let eng = build_engine(base.clone(), cfg);
        let c = run_workload(&base, &fresh, &eng);
        // A delete pays the membership probe twice — once at ack time
        // against the merged view (the miss bit), once when the fold
        // applies the tombstone to the index — plus a flat append/fold
        // share. The residual must not scale with n.
        let del_over_probe = c.del - 2.0 * c.probe;
        let n_blocks = (n as f64 / b as f64).max(2.0);
        let predicted = n_blocks.log(b as f64).max(1.0) + (b as f64).log2();
        fits.push((predicted, c.ins));
        rows.push(vec![
            n.to_string(),
            f1(c.ins),
            f1(c.del),
            f1(c.upd),
            f1(c.probe),
            f1(del_over_probe),
            f1(predicted),
            f2(c.ins / predicted),
        ]);
        sections.push((
            format!("n={n}"),
            Json::obj([
                ("insert_io_per_op", Json::F64(c.ins)),
                ("delete_io_per_op", Json::F64(c.del)),
                ("update_io_per_op", Json::F64(c.upd)),
                ("probe_io", Json::F64(c.probe)),
                ("delete_residual_io", Json::F64(del_over_probe)),
                ("wal_bytes_per_op", Json::F64(c.wal_bytes)),
                ("folds", Json::U64(c.folds)),
                ("group_commits", Json::U64(c.commits)),
                ("predicted", Json::F64(predicted)),
            ]),
        ));
    }
    table(
        "E16 — write engine updates (Theorem 2 iii): insert io/op vs log_B n + log2 B; \
         delete = membership probe + O(1) append; update = delete + re-insert",
        &[
            "N",
            "ins io/op",
            "del io/op",
            "upd io/op",
            "probe io",
            "del - 2*probe",
            "logBn+log2B",
            "ins ratio",
        ],
        &rows,
    );
    println!(
        "\nfit of insert io/op against log_B N + log2 B: slope={} r={}",
        f2(ols_slope(&fits)),
        f2(correlation(&fits))
    );
    assert!(
        correlation(&fits) > 0.9,
        "insert cost does not track the Theorem-2 curve"
    );
    let residuals: Vec<f64> = sections
        .iter()
        .map(|(_, s)| match s.get("delete_residual_io") {
            Some(&Json::F64(v)) => v,
            other => panic!("missing residual: {other:?}"),
        })
        .collect();
    let (lo, hi) = residuals
        .iter()
        .fold((f64::MAX, f64::MIN), |(l, h), &v| (l.min(v), h.max(v)));
    assert!(
        hi <= 2.0 * lo.max(1.0),
        "delete residual scales with n: {residuals:?}"
    );
    segdb_bench::report::record_section("scale", Json::Obj(sections));

    // Amortization knobs: fixed n, varying delta_limit `d` and
    // group_window `w`. Folds and WAL syncs are deterministic batching
    // counters — at most ⌈K/d⌉ folds plus the three explicit tail folds
    // and ~K/w syncs, over K = 2·OPS logged ops — so doubling a knob
    // halves its counter.
    let n = 1usize << 14;
    let (base, fresh) = families(n, 900);
    let mut rows = Vec::new();
    let mut sections = Vec::new();
    let mut last_folds = u64::MAX;
    for d in [64usize, 256, 1024] {
        let w = d / 32; // scale the sync window with the fold window
        let eng = build_engine(
            base.clone(),
            WriterConfig {
                group_window: w,
                delta_limit: d,
                ..WriterConfig::default()
            },
        );
        let c = run_workload(&base, &fresh, &eng);
        let ops = 2 * OPS;
        assert!(
            c.folds <= ops / d as u64 + 3,
            "folds are batched: {} > {} + tails",
            c.folds,
            ops / d as u64
        );
        assert!(
            c.folds < last_folds,
            "a larger delta window folds less often"
        );
        last_folds = c.folds;
        assert!(
            c.commits <= ops / w as u64 + c.folds + 3,
            "syncs are batched: {} for window {w}",
            c.commits
        );
        rows.push(vec![
            d.to_string(),
            w.to_string(),
            f1(c.ins),
            f1(c.del),
            f1(c.upd),
            f1(c.wal_bytes),
            c.folds.to_string(),
            c.commits.to_string(),
        ]);
        sections.push((
            format!("d={d}"),
            Json::obj([
                ("group_window", Json::U64(w as u64)),
                ("insert_io_per_op", Json::F64(c.ins)),
                ("delete_io_per_op", Json::F64(c.del)),
                ("update_io_per_op", Json::F64(c.upd)),
                ("wal_bytes_per_op", Json::F64(c.wal_bytes)),
                ("folds", Json::U64(c.folds)),
                ("group_commits", Json::U64(c.commits)),
            ]),
        ));
    }
    table(
        "E16b — amortization knobs at N=16384: folds ~ K/d, WAL syncs ~ K/w",
        &[
            "delta_limit",
            "group_window",
            "ins io/op",
            "del io/op",
            "upd io/op",
            "wal B/op",
            "folds",
            "syncs",
        ],
        &rows,
    );
    segdb_bench::report::record_section("amortization", Json::Obj(sections));
    segdb_bench::report::finish("updates").expect("write BENCH_updates.json");
}
