//! What one query costs as a group of one: heap allocations, pages and
//! wall time per query mode, on the benchmark's `embedded_hot`
//! configuration (N = 200k Mixed, 4 KiB pages, every page cached).
//!
//! The read path has a single walk, reading its nodes in place; this
//! prints the figures DESIGN.md's "What one slot costs" table quotes —
//! µs/page is what a visited page costs the walk, ns/hit what a
//! reported segment costs the whole query — and `tests/batch_exec.rs`
//! and `tests/one_slot_alloc.rs` pin the page and allocation counts on
//! a smaller set.
//!
//! ```sh
//! cargo run --release --example one_slot_cost
//! ```

use segdb::core::{QueryMode, SegmentDatabase};
use segdb::geom::gen::{vertical_queries, Family};
use segdb::geom::VerticalQuery;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

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

const MODES: [QueryMode; 4] = [
    QueryMode::Collect,
    QueryMode::Count,
    QueryMode::Exists,
    QueryMode::Limit(8),
];

fn main() {
    let set = Family::Mixed.generate(200_000, 42);
    let db = SegmentDatabase::builder()
        .trust_input()
        .cache_pages(1 << 16)
        .build(set.clone())
        .unwrap();
    // Lines and downward rays, as the benchmark's walking modes run them.
    let pool: Vec<VerticalQuery> = vertical_queries(&set, 4096, 120, 42)
        .into_iter()
        .enumerate()
        .map(|(i, q)| match q {
            VerticalQuery::Segment { x, hi, .. } if i % 2 == 1 => {
                VerticalQuery::RayDown { x, y0: hi }
            }
            q => VerticalQuery::Line { x: q.x() },
        })
        .collect();
    println!(
        "{:>8} {:>12} {:>12} {:>10} {:>10} {:>10} {:>10}",
        "mode", "allocs/q", "pages/q", "p50 us", "mean us", "us/page", "ns/hit"
    );
    for mode in MODES {
        for q in &pool {
            db.query_canonical_mode(q, mode).unwrap(); // warm the cache
        }
        let (mut pages, mut allocs, mut hits) = (0u64, 0u64, 0u64);
        let mut us: Vec<f64> = Vec::with_capacity(pool.len());
        for q in &pool {
            let a0 = ALLOCS.load(Ordering::Relaxed);
            let t = Instant::now();
            let (answer, trace) = db.query_canonical_mode(q, mode).unwrap();
            us.push(t.elapsed().as_nanos() as f64 / 1e3);
            allocs += ALLOCS.load(Ordering::Relaxed) - a0;
            pages += trace.io.reads + trace.io.cache_hits;
            hits += answer.count();
        }
        us.sort_by(f64::total_cmp);
        let n = pool.len() as f64;
        let total_us: f64 = us.iter().sum();
        println!(
            "{:>8} {:>12.2} {:>12.2} {:>10.2} {:>10.2} {:>10.3} {:>10.1}",
            mode.name(),
            allocs as f64 / n,
            pages as f64 / n,
            us[us.len() / 2],
            total_us / n,
            total_us / pages as f64,
            total_us * 1e3 / hits as f64
        );
    }
}
