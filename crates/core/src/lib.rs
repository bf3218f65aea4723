#![warn(missing_docs)]

//! # segdb-core — the paper's two-level VS-query index structures
//!
//! This crate is the paper's primary contribution: secondary-storage
//! structures over `N` non-crossing, possibly touching (NCT) plane
//! segments that report every segment intersected by a *generalized
//! query segment* (line / ray / segment) of a fixed direction.
//!
//! Two index structures, as in the paper:
//!
//! * [`TwoLevelBinary`] — Section 3 / **Theorem 1**: a binary first-level
//!   tree over x-median vertical base lines; per node an interval set
//!   `C(v)` for segments lying *on* the line plus two line-based PSTs
//!   `L(v)`, `R(v)` for the halves of segments crossing it. `O(n)`
//!   blocks, `O(log₂ n · (log_B n + IL*(B)) + t)` query, amortized
//!   `O(log₂ n + log_B n / B)` updates via weight-balanced partial
//!   rebuilding (the BB\[α\] substitute).
//! * [`TwoLevelInterval`] — Section 4 / **Theorem 2**: an interval-tree
//!   first level with `Θ(B)`-ary slab decomposition; per node, short
//!   fragments in per-boundary PSTs `Lᵢ`/`Rᵢ`, on-line segments in
//!   `Cᵢ`, and long fragments in a segment tree `G` of multislab lists
//!   (B⁺-trees) linked by **fractional-cascading bridges** with the
//!   `d`-property (§4.3). `O(n log₂ B)` blocks, query
//!   `O(log_B n · (log_B n + log₂ B + IL*(B)) + t)`, semi-dynamic
//!   insertions.
//!
//! Plus the baselines every benchmark compares against ([`FullScan`],
//! [`StabThenFilter`]) and the user-facing [`SegmentDatabase`] facade
//! that handles fixed-direction queries through the exact shear of
//! `segdb-geom`.

pub mod anyquery;
pub mod baseline;
pub mod batch;
pub mod binary2l;
pub mod chain;
pub mod facade;
pub mod interval2l;
pub mod partition;
pub mod persist;
pub mod report;
#[cfg(any(test, feature = "testutil"))]
pub mod testutil;
mod tombs;
pub mod torture;
pub mod writer;

pub use baseline::{FullScan, StabThenFilter};
pub use binary2l::{Binary2LConfig, TwoLevelBinary};
pub use facade::{DbError, IndexKind, SegmentDatabase, SegmentDatabaseBuilder};
pub use interval2l::{Interval2LConfig, TwoLevelInterval};
pub use partition::{PartitionError, XCuts};
pub use report::{QueryAnswer, QueryMode, QueryTrace};
pub use writer::{HistoryError, RecoveryReport, WriteAck, WriteEngine, WriterConfig};
