#![warn(missing_docs)]

//! # segdb-core — the paper's two-level VS-query index structures
//!
//! This crate is the paper's primary contribution: secondary-storage
//! structures over `N` non-crossing, possibly touching (NCT) plane
//! segments that report every segment intersected by a *generalized
//! query segment* (line / ray / segment) of a fixed direction.
//!
//! One index structure, [`TwoLevelInterval`], in the paper's two
//! configurations ([`IndexKind`]):
//!
//! * Section 4 / **Theorem 2** (the default): an interval-tree first
//!   level with `Θ(B)`-ary slab decomposition; per node, short
//!   fragments in per-boundary PSTs `Lᵢ`/`Rᵢ`, on-line segments in
//!   `Cᵢ`, and long fragments in a segment tree `G` of multislab lists
//!   (B⁺-trees) linked by **fractional-cascading bridges** with the
//!   `d`-property (§4.3). `O(n log₂ B)` blocks, query
//!   `O(log_B n · (log_B n + log₂ B + IL*(B)) + t)`, semi-dynamic
//!   insertions.
//! * Section 3 / **Theorem 1** ([`IndexKind::TwoLevelBinary`]): the same
//!   structure with one boundary per node, the x-median base line — its
//!   `C(v)` set, its line-based PSTs `L(v)`, `R(v)`, two children and no
//!   `G`. `O(n)` blocks, `O(log₂ n · (log_B n + IL*(B)) + t)` query.
//!
//! Both configurations insert by weight-balanced partial rebuilding
//! (the BB\[α\] substitute) and delete lazily ([`Lazy`]). The
//! baselines the experiments compare against ([`FullScan`],
//! [`StabThenFilter`]) are built directly from [`baseline`].
//!
//! ## The read surface
//!
//! A query of the fixed direction is one [`Query`] value in user
//! coordinates: a line, a ray up, a ray down or a segment.
//! [`Query::in_frame`] translates it through the exact shear
//! of `segdb-geom`. The user-facing [`SegmentDatabase`] and the
//! [`WriteEngine`] over it read through
//! [`query(&Query, QueryMode)`](SegmentDatabase::query), plus the
//! canonical-frame [`SegmentDatabase::query_canonical_mode`] and the
//! shared-walk group call [`SegmentDatabase::query_batch_canonical_mode`].
//! Below them each structure keeps one verb that takes a
//! [`segdb_geom::ReportSink`] (a `Vec<Segment>` collects):
//! [`Lazy::query_sink`] and [`anyquery::AnyQueryIndex::query_sink`].

pub mod anyquery;
pub mod baseline;
pub mod batch;
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
pub use facade::{DbError, IndexKind, SegmentDatabase, SegmentDatabaseBuilder};
pub use interval2l::{Interval2LConfig, TwoLevelInterval};
pub use partition::{PartitionError, XCuts};
pub use report::{Query, QueryAnswer, QueryMode, QueryTrace};
pub use tombs::Lazy;
pub use writer::{HistoryError, RecoveryReport, WriteAck, WriteEngine, WriterConfig};
