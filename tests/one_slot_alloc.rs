//! A query is a group of one through the shared walk, reading its nodes
//! in place; this pins what that costs in heap allocations and pages,
//! per query mode, and what hiding deleted segments adds to it. Alone in
//! its binary, and one test function: the counting allocator is global.
//! `examples/one_slot_cost.rs` prints the same figures, with wall time,
//! at the benchmark's N = 200k.

use segdb::core::testutil::oracle_query;
use segdb::core::{QueryMode, SegmentDatabase, WriteEngine, WriterConfig};
use segdb::geom::gen::{vertical_queries, Family};
use segdb::geom::{Segment, VerticalQuery};
use segdb::pager::Disk;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;
static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: forwards every call to the system allocator unchanged; the
// counter is a relaxed statistic that publishes no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn one_slot_exists_allocates_and_reads_like_the_sequential_walk() {
    let set = Family::Mixed.generate(20_000, 42);
    let db = SegmentDatabase::builder()
        .trust_input()
        .cache_pages(1 << 14)
        .build(set.clone())
        .unwrap();
    // Lines and downward rays, the shapes the benchmark walks.
    let pool: Vec<VerticalQuery> = vertical_queries(&set, 1024, 120, 42)
        .into_iter()
        .enumerate()
        .map(|(i, q)| match q {
            VerticalQuery::Segment { x, hi, .. } if i % 2 == 1 => {
                VerticalQuery::RayDown { x, y0: hi }
            }
            q => VerticalQuery::Line { x: q.x() },
        })
        .collect();
    // The walk reads its nodes in place, so what is left to allocate is
    // the group's own bookkeeping — slot table, probe list, a frontier
    // per PST walked and a router list per PST that descends — and
    // Collect's answer vector, which leaves the walk as it is. Measured
    // here: 3.13 / 8.83 / 19.12 allocations per query (Collect 18.12 in a
    // release build: the debug distinctness check copies the ids once);
    // a second copy of the answer and a stable sort by id took it to
    // 28.40, the walk that decoded an owned node per page took 15.26 /
    // 46.48 / 85.96 for the same pages, and the sequential walk before
    // it 13.26 per Exists.
    for (mode, want_pages, allocs_per_query) in [
        (QueryMode::Exists, 2117, 3.5),
        (QueryMode::Count, 16_812, 9.5),
        (QueryMode::Collect, 32_968, 19.62),
    ] {
        let (mut allocs, mut pages, mut found) = (0u64, 0u64, 0u64);
        for q in &pool {
            let before = ALLOCS.load(Ordering::Relaxed);
            let (answer, trace) = db.query_canonical_mode(q, mode).unwrap();
            allocs += ALLOCS.load(Ordering::Relaxed) - before;
            pages += trace.io.reads + trace.io.cache_hits;
            found += u64::from(answer.count() > 0);
        }
        assert_eq!(found, pool.len() as u64, "every probe meets a segment");
        assert_eq!(pages, want_pages, "{mode:?} pages");
        let per_query = allocs as f64 / pool.len() as f64;
        assert!(
            per_query <= allocs_per_query,
            "{per_query:.2} allocations per one-slot {mode:?} query"
        );
    }

    // Through the write overlay. Deleted segments — the index's live
    // tombstones, the engine's un-folded deletes — are hidden inside the
    // walk from sets already in memory, so all a Count pays for them is
    // its debt vector, and that only when its query hits one: no chain
    // page, no set built per query.
    let (engine, _) =
        WriteEngine::recover(db, Box::new(Disk::new(4096)), WriterConfig::default()).unwrap();
    let count_all = |live: &[Segment]| -> u64 {
        let mut allocs = 0;
        for q in &pool {
            let before = ALLOCS.load(Ordering::Relaxed);
            let mut out = engine.query_batch_canonical_mode(&[(*q, QueryMode::Count)]);
            allocs += ALLOCS.load(Ordering::Relaxed) - before;
            let (answer, _) = out.pop().unwrap().unwrap();
            assert_eq!(answer.count(), oracle_query(live, q).len() as u64, "{q:?}");
        }
        allocs
    };
    let per_query = pool.len() as u64;
    // An empty delta: the database's own group of one.
    let untouched = count_all(&set);
    // A delta that hides nothing (one insert, right of every probe)
    // costs the overlay's two vectors: the slots it walks, its answers.
    let max_x = set.iter().map(|s| s.b.x).max().unwrap();
    let far = Segment::new(9_000_000, (max_x + 100, 0), (max_x + 200, 0)).unwrap();
    engine.insert(1, far).unwrap();
    let overlay = count_all(&set);
    assert!(
        overlay <= untouched + 2 * per_query,
        "{overlay} allocations through an overlay hiding nothing, {untouched} without"
    );
    // Neither path has anything to hide, so neither may pay for the
    // hidden sets' indexes: exactly what they allocated before those
    // existed.
    assert_eq!((untouched, overlay), (11_086, 13_134));
    // 207 live tombstones and 68 un-folded deletes.
    let mut live = set.clone();
    live.retain(|s| s.id % 97 != 0 && s.id % 293 != 1);
    engine.with_db_mut(|db| {
        for s in set.iter().filter(|s| s.id % 97 == 0) {
            assert!(db.remove(s).unwrap());
        }
        assert_eq!(db.tomb_count(), 207);
    });
    for s in set.iter().filter(|s| s.id % 97 != 0 && s.id % 293 == 1) {
        assert!(engine.delete(100 + s.id, *s).unwrap().applied);
    }
    assert_eq!(engine.delta().len(), 1 + 68);
    let hiding = count_all(&live);
    assert!(
        hiding <= overlay + per_query,
        "{hiding} allocations hiding 275 segments, {overlay} hiding none: \
         more than a debt vector per query"
    );
}
