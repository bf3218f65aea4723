#![warn(missing_docs)]

//! # segdb — external-memory indexing for segment databases
//!
//! Umbrella crate re-exporting the whole workspace: a reproduction of
//! *Bertino, Catania & Shidlovsky, "Towards Optimal Indexing for Segment
//! Databases" (EDBT 1998)*.
//!
//! A *segment database* stores `N` non-crossing but possibly touching (NCT)
//! plane segments in secondary storage. This library answers **VS queries**
//! — report every stored segment intersected by a query *line, ray or
//! segment of a fixed direction* — in external memory, with two index
//! structures matching the paper's Theorem 1 and Theorem 2, plus all the
//! substrates they stand on (paged storage with I/O accounting, an external
//! priority search tree for line-based segments, an external interval tree,
//! an external B⁺-tree, and exact integer geometry).
//!
//! Start with [`SegmentDatabase`](segdb_core::SegmentDatabase) or the
//! `examples/` directory.
//!
//! ```
//! use segdb::core::{IndexKind, Query, QueryMode, SegmentDatabase};
//! use segdb::geom::Segment;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let db = SegmentDatabase::builder()
//!     .page_size(4096)
//!     .index(IndexKind::TwoLevelInterval)
//!     .build(vec![
//!         Segment::new(1, (0, 0), (100, 40))?,
//!         Segment::new(2, (20, 60), (80, 60))?,
//!     ])?;
//! let q = Query::Segment { x1: 50, y1: 0, x2: 50, y2: 100 };
//! let (hits, trace) = db.query(&q, QueryMode::Collect)?;
//! assert_eq!(hits.count(), 2);
//! println!("answered in {} block reads", trace.io.reads);
//! # Ok(())
//! # }
//! ```

pub use segdb_bptree as bptree;
pub use segdb_core as core;
pub use segdb_geom as geom;
pub use segdb_itree as itree;
pub use segdb_obs as obs;
pub use segdb_pager as pager;
pub use segdb_pst as pst;
pub use segdb_wal as wal;

pub use segdb_pager::{IoStats, Pager, PagerConfig};
