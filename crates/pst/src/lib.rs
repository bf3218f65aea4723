#![warn(missing_docs)]

//! # segdb-pst — external priority search trees for line-based segments
//!
//! Implements Section 2 of the paper: a secondary-storage structure over a
//! set of **line-based segments** — segments with (at least) one endpoint
//! on a common *base line*, all extending into the same half-plane —
//! answering *"report every segment intersected by a query segment
//! parallel to the base line"*.
//!
//! ## Orientation
//!
//! The paper draws base lines horizontally "to make the description
//! coherent with the traditional way of drawing data structures" (§2); in
//! the two-level structures of §3–4 every base line is **vertical**
//! (`x = base_x`), so this crate uses the vertical orientation natively:
//!
//! * base line `x = base_x`, segments extend to one [`Side`] of it;
//! * a stored segment is the *clip* of an original NCT segment to that
//!   side — represented as the original segment plus the implicit clip
//!   window, so cut points with non-integer ordinates never materialize;
//! * **priority** = *reach*: how far the segment extends from the base
//!   line (`b.x` on the right side, `−a.x` on the left);
//! * **base order** = the order of intersections with the base line,
//!   touching ties broken by slope (the order at `base ± ε`), then id.
//!
//! ## Structure
//!
//! One node = one page holding the `cap` farthest-reaching segments of
//! its subtree (in base order) plus, per child, a *router*: a copy of the
//! child subtree's farthest-reaching segment — the paper's `v.left` /
//! `v.right` copies — and the child's subtree size. The fanout `F` is a
//! parameter:
//!
//! * `F = 2` reproduces the paper's binary tree: `O(n)` blocks and
//!   `O(log₂ n + t)` query I/Os (Lemma 2);
//! * `F = Θ(B)` packs the routing decision into the node page, giving
//!   `O(log_B n + t)` query I/Os — the role the **P-range tree** \[19\]
//!   plays in Lemma 3 (see DESIGN.md for why this substitution preserves
//!   the claimed behaviour; the `IL*(B)` additive term is a constant ≤ 3
//!   for every feasible `B`).
//!
//! ## Query
//!
//! A level-by-level frontier walk reproducing the paper's `Find`/`Report`
//! cost argument: per level, the frontier holds (a) nodes whose sandwich
//! window straddles a query endpoint — at most ~2, the paper's queue —
//! and (b) nodes entirely inside the window, each of which contributes
//! its router as a hit and, if it descends, a full block of hits. Two
//! prunes make this work:
//!
//! * **priority prune**: skip a child whose router does not reach the
//!   query line (the router is the subtree's reach maximum);
//! * **sandwich prune**: by non-crossingness, a subtree's segments that
//!   reach the query line are ordered consistently with base order, so
//!   the ordinates of the flanking sibling routers (or, after
//!   insertions, the tightest inherited bound) bracket the subtree's
//!   ordinates at the query line; skip when the bracket misses the query
//!   range.
//!
//! ## Updates
//!
//! Insertion displaces downward like a heap (`O(height)` I/Os), updating
//! routers on the path; balance is restored by weight-balanced *partial
//! rebuilding* (the BB\[α\]-rotation substitute, DESIGN.md) with amortized
//! `O(log n)` cost. A PST has no delete of its own: the two-level
//! structures that own PSTs delete lazily, withholding a deleted segment
//! from every read of their own and rebuilding from the live set
//! (`segdb-core`, DESIGN.md §13).

pub mod node;
pub mod side;
pub mod tree;

pub use side::Side;
pub use tree::{BatchQuery, Pst, PstConfig, PstState, QueryStats};
