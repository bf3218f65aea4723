//! The I/O cost model, visible: how block size `B`, caching, and the
//! index choice change the number of I/Os per query — the quantity every
//! bound in the paper is stated in.
//!
//! ```sh
//! cargo run --release --example cost_model
//! ```

use segdb::core::{IndexKind, Query, QueryMode::Collect, SegmentDatabase};
use segdb::geom::gen::{strips, vertical_queries};

fn main() {
    let set = strips(20_000, 1 << 16, 16, 250, 0xAB);
    let probes = vertical_queries(&set, 40, 20, 0xCD);

    // 1. Page-size sweep: bigger blocks, fewer I/Os (log_B n shrinks).
    println!("page-size sweep (TwoLevelInterval, cache off):");
    println!("{:>8} {:>10} {:>14}", "page", "blocks", "reads/query");
    for page in [512usize, 1024, 2048, 4096, 8192] {
        let db = SegmentDatabase::builder()
            .page_size(page)
            .index(IndexKind::TwoLevelInterval)
            .build(set.clone())
            .unwrap();
        let mut reads = 0u64;
        for q in &probes {
            let (_, t) = db.query(&Query::from(*q), Collect).unwrap();
            reads += t.io.reads;
        }
        println!(
            "{:>8} {:>10} {:>14.1}",
            page,
            db.space_blocks(),
            reads as f64 / probes.len() as f64
        );
    }

    // 2. Buffer pool: repeated probes become cache hits; the physical
    // I/O count drops while the answers stay identical.
    println!("\nbuffer-pool sweep (4 KiB pages, same 40 probes twice):");
    println!("{:>8} {:>14} {:>14}", "cache", "phys reads", "cache hits");
    for cache in [0usize, 64, 1024] {
        let db = SegmentDatabase::builder()
            .page_size(4096)
            .cache_pages(cache)
            .index(IndexKind::TwoLevelInterval)
            .build(set.clone())
            .unwrap();
        db.pager().reset_stats();
        for _ in 0..2 {
            for q in &probes {
                db.query(&Query::from(*q), Collect).unwrap();
            }
        }
        let s = db.pager().stats();
        println!("{:>8} {:>14} {:>14}", cache, s.reads, s.cache_hits);
    }

    println!("\ncost_model OK");
}
