#![warn(missing_docs)]

//! # segdb-geom — exact integer geometry for segment databases
//!
//! Every geometric decision in the index path is made with exact integer
//! arithmetic (`i64` coordinates, `i128` cross products): no floats, no
//! epsilons, so query answers are *exactly* the set a brute-force oracle
//! reports and all oracle-comparison tests demand set equality.
//!
//! Contents:
//!
//! * [`Point`], [`Segment`] — primitives with canonical endpoint order.
//! * [`predicates`] — the exact comparisons the index structures run on:
//!   segment × vertical-query intersection, `y`-at-`x` ordering of
//!   non-crossing segments, orientation tests.
//! * [`VerticalQuery`] — the paper's generalized query segment (line, ray
//!   or segment) in the canonical vertical direction.
//! * [`transform`] — the exact shear that maps a fixed query direction to
//!   vertical, implementing the paper's "coordinate axes can be
//!   appropriately rotated" footnote without leaving ℤ².
//! * [`report`] — the streaming [`ReportSink`] contract every index
//!   layer pushes query results into (collect / count / exists / limit
//!   modes with early exit).
//! * [`nct`] — validation that a set is *non-crossing but possibly
//!   touching* (NCT), the paper's input model.
//! * [`gen`] — deterministic NCT workload generators (GIS-like maps,
//!   temporal layers, fans, combs) used by tests and every benchmark.
//!
//! ## Coordinate limits
//!
//! Inputs must satisfy `|x|, |y| ≤ COORD_LIMIT` (2³⁸). This keeps every
//! predicate's worst-case product below 2¹²⁷ (see `predicates` docs) and
//! leaves room for the shear transform, which multiplies coordinates by a
//! direction component bounded by [`transform::DIR_LIMIT`].

pub mod error;
pub mod gen;
pub mod nct;
pub mod point;
pub mod predicates;
pub mod query;
pub mod report;
pub mod segment;
pub mod transform;

pub use error::GeomError;
pub use point::Point;
pub use query::VerticalQuery;
pub use report::{CollectSink, CountSink, ExistsSink, LimitSink, MultiSink, ReportSink};
pub use segment::{Segment, SegmentId};
pub use transform::Direction;

/// Maximum absolute coordinate accepted anywhere in the library.
///
/// With `|coord| ≤ 2³⁸`, the deepest predicate (`cmp_y_at_x`, a
/// three-factor product) is bounded by `2·2³⁸·2³⁹·2³⁹ < 2¹¹⁸ < i128::MAX`.
pub const COORD_LIMIT: i64 = 1 << 38;
