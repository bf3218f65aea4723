//! A query is a group of one through the shared walk; this pins what
//! that costs in heap allocations and pages against the sequential walk
//! it replaced. Alone in its binary: the counting allocator is global.
//! `examples/one_slot_cost.rs` prints the same figures, with wall time,
//! at the benchmark's N = 200k.

use segdb::core::{QueryAnswer, QueryMode, SegmentDatabase};
use segdb::geom::gen::{vertical_queries, Family};
use segdb::geom::VerticalQuery;
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
    let (mut allocs, mut pages, mut found) = (0u64, 0u64, 0u64);
    for q in &pool {
        let before = ALLOCS.load(Ordering::Relaxed);
        let (answer, trace) = db.query_canonical_mode(q, QueryMode::Exists).unwrap();
        allocs += ALLOCS.load(Ordering::Relaxed) - before;
        pages += trace.io.reads + trace.io.cache_hits;
        found += u64::from(answer == QueryAnswer::Exists(true));
    }
    assert_eq!(found, pool.len() as u64, "every probe meets a segment");
    // The sequential walk read 2117 pages for these 1024 probes (2.067
    // each) in 13 578 allocations (13.26 each): the first-level node's
    // seven vectors and box, one PST node, its frontier. The group walk
    // adds the slot table and the probe list.
    assert_eq!(pages, 2117);
    let per_query = allocs as f64 / pool.len() as f64;
    assert!(
        per_query <= 13.26 + 3.0,
        "{per_query:.2} allocations per one-slot Exists query"
    );
}
