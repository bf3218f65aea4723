#![warn(missing_docs)]

//! # segdb-itree — an external-memory interval tree (stabbing queries)
//!
//! The paper leans on the external interval tree of Arge & Vitter \[3\] in
//! two places:
//!
//! * the structures `C(v)` / `Cᵢ` storing segments that *lie on* a base
//!   line (§3, §4.2) — 1-dimensional intervals on that line, queried for
//!   overlap with the query segment's ordinate range. On one line the
//!   segments of an NCT set are disjoint, so `segdb-core` keeps each as
//!   one B⁺-tree instead (`interval2l::cset`);
//! * as the **first-level structure** of the improved solution (§4.1),
//!   whose slab decomposition `segdb-core` re-implements directly on its
//!   own nodes.
//!
//! What uses this crate is the stabbing baseline and the §5 extension's
//! candidate set, whose x-projections nest.
//!
//! This crate provides the 1-D structure: a balanced `k`-ary tree over
//! endpoint quantiles. Each internal node owns `k` boundary abscissae
//! partitioning its range into `k+1` slabs; an interval is stored at the
//! *topmost* node where it touches a boundary, split into
//!
//! * a **left stub** (left list of the slab holding its left endpoint,
//!   sorted ascending by left endpoint),
//! * a **right stub** (right list of the slab holding its right endpoint,
//!   sorted descending by right endpoint),
//! * a **middle part** spanning complete slabs, recorded in a multislab
//!   list.
//!
//! A stabbing query at `x` descends one root-to-leaf path; at each node it
//! prefix-scans two stub lists (output-sensitive by sort order) and drains
//! every multislab list spanning `x`'s slab, guided by an in-page
//! occupancy directory.
//!
//! ## Deviations from \[3\] (documented per DESIGN.md)
//!
//! * Fanout is `k ≈ √(page bytes / 8)` rather than `Θ(B)`, so the node's
//!   `O(k²)` multislab directory shares the node page — `O(log_B n)`
//!   height is preserved up to a constant factor of 2.
//! * The "corner structure" for under-full multislab lists is omitted: a
//!   stab query pays ≥ 1 I/O per *non-empty* multislab list it drains,
//!   each of which contributes ≥ 1 output, so the reporting term is
//!   `O(t + #lists)` instead of a pure `O(t)`. The benchmark suite
//!   measures this slack directly (E10).
//! * All three per-node lists live in one B⁺-tree each, keyed by
//!   `(slab/multislab, endpoint, id)`.
//!
//! Insertions locate the owning node (`O(log_B n)`) and update the node's
//! B⁺-trees; leaves that overflow are split in place by rebuilding the
//! leaf into a subtree. Deletions update lists and leave the skeleton
//! untouched (weight rebalance happens at rebuild, as in the paper's
//! amortized arguments).

pub mod interval;
pub mod node;
pub mod overlap;
pub mod tree;

pub use interval::Interval;
pub use overlap::IntervalSet;
pub use tree::{IntervalTree, IntervalTreeConfig};
