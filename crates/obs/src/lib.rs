#![warn(missing_docs)]

//! # segdb-obs — the measurement layer of the reproduction
//!
//! Every claim in Bertino–Catania–Shidlovsky (EDBT 1998) is an I/O
//! bound, so *measuring* is how this repo judges itself. This crate is
//! the zero-dependency observability substrate every other crate emits
//! into:
//!
//! * [`trace`] — a thread-local, ring-buffered span/event tracer. The
//!   pager emits `PageRead`/`PageWrite`/`CacheHit`/… events; the index
//!   crates emit structural events (`FirstLevelVisit`,
//!   `SecondLevelProbe`, `BridgeJump`, per-crate node visits). Disabled
//!   by default; when disabled every emit site is a single branch on a
//!   thread-local [`std::cell::Cell`] — a no-op in the pager hot path.
//! * [`mod@tally`] — [`Tally`], the one event-counter type: its owner
//!   declares a fixed list of names once ([`tally!`]), each name is one
//!   relaxed atomic, and the JSON lists them in declared order. The
//!   storage-fault ledger (`segdb_pager::fault::FAULTS`), the wire-fault
//!   ledger (`segdb_server::chaos::NET`), the serving front-end's,
//!   worker pool's and router's tallies and the query observer's
//!   counters are all declared instances of it.
//! * [`metrics`] — fixed-bucket [`Histogram`]s (I/O per query, hits per
//!   query, per-stage latencies…), snapshotable as JSON.
//! * [`json`] — a minimal in-repo JSON value type, serializer and
//!   parser, so machine-readable output needs no external crates.
//! * [`stage`] — a microsecond lap timer partitioning one request's
//!   lifetime into stages (queue wait, index walk, reply write); the
//!   serving layer feeds its laps into per-stage [`Histogram`]s (see
//!   DESIGN.md §12 "Request lifecycle").
//! * [`cost`] — the paper-bound cost model: given `(N, B)` and the
//!   index kind it computes the analytic I/O bound shape, fits the
//!   constant from observed queries, and flags queries whose measured
//!   I/O exceeds the fitted bound.
//!
//! The span taxonomy, metric names and JSON schemas are documented in
//! the repo-level README ("Observability") and DESIGN.md.

pub mod cost;
pub mod json;
pub mod metrics;
pub mod stage;
pub mod tally;
pub mod trace;

pub use cost::{CostKind, CostModel, CostVerdict, Fitter};
pub use json::Json;
pub use metrics::Histogram;
pub use stage::StageTimer;
pub use tally::Tally;
pub use trace::{Event, EventKind, TraceSummary};
