//! Concurrency stress, loom-free: plain `std::thread` workers replaying
//! a fixed-seed query batch over one shared `Arc<SegmentDatabase>` must
//! produce answers bit-identical to the single-threaded run — for
//! both index kinds, with a sharded buffer pool under real contention.
//!
//! The read path holds no state across queries besides the page cache,
//! and cache hits return `Arc`-shared immutable page images, so
//! concurrent readers can only disagree with the serial run if the
//! sharded cache ever served a torn or stale image. This test is the
//! workspace's standing witness that it does not.

use segdb::core::report::ids;
use segdb::core::testutil::collect;
use segdb::core::{IndexKind, SegmentDatabase};
use segdb::geom::gen::{mixed_map, vertical_queries};
use std::sync::Arc;
use std::thread;

const INDEXES: [IndexKind; 2] = [IndexKind::TwoLevelBinary, IndexKind::TwoLevelInterval];

const THREADS: usize = 4;
const ROUNDS: usize = 2;

#[test]
fn concurrent_queries_are_bit_identical_for_every_kind() {
    let set = mixed_map(600, 0xC0FFEE);
    let queries = vertical_queries(&set, 32, 100, 0xBEEF);
    for kind in INDEXES {
        let db = Arc::new(
            SegmentDatabase::builder()
                .page_size(1024)
                .cache_pages(64)
                .cache_shards(4)
                .index(kind)
                .build(set.clone())
                .unwrap(),
        );
        // Ground truth from the serial run.
        let expected: Arc<Vec<Vec<u64>>> = Arc::new(
            queries
                .iter()
                .map(|q| ids(&collect(&db, q).unwrap().0))
                .collect(),
        );
        let queries = Arc::new(queries.clone());
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let db = Arc::clone(&db);
                let queries = Arc::clone(&queries);
                let expected = Arc::clone(&expected);
                thread::spawn(move || {
                    // Each thread starts at a different offset so the
                    // shards see genuinely interleaved access patterns.
                    let n = queries.len();
                    for step in 0..n * ROUNDS {
                        let j = (t * n / THREADS + step) % n;
                        let (hits, _) = collect(&db, &queries[j]).unwrap();
                        assert_eq!(ids(&hits), expected[j], "{kind:?} query {j}");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // Every physical read the threads did is accounted for.
        let stats = db.pager().stats();
        assert!(
            stats.reads + stats.cache_hits > 0,
            "{kind:?} exercised the cache"
        );
    }
}
