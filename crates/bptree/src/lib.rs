#![warn(missing_docs)]

//! # segdb-bptree — an external-memory B⁺-tree over the pager
//!
//! The paper's improved structure (§4.2) keeps each *multislab list* of
//! long fragments in "a B⁺-tree … for fast retrieval and update"; the
//! fractional-cascading search (§4.3) then walks the leaf level. Slab
//! lists inside the external interval tree use the same machinery.
//!
//! This B⁺-tree is generic over:
//!
//! * the stored record type ([`Record`]): fixed-width, codec-serialized —
//!   here, segment fragments — and
//! * the ordering ([`RecordOrd`]): a *stateful comparator* owned by the
//!   tree wrapper. Fragments are ordered by their exact intersection with
//!   a boundary line `x = x_m`; that line is context the records
//!   themselves don't carry, hence comparator state rather than `Ord`.
//!
//! Every node occupies exactly one page. Features: bulk load from sorted
//! input, point insert with splits, delete with rebalancing
//! (borrow/merge), lower-bound search by arbitrary [`Probe`], leaf-linked
//! forward cursors, and deep [`BPlusTree::validate`] used by tests.
//!
//! Searches and cursors read nodes in place in the pager's page image
//! ([`node::NodeView`], binary search over fixed-width records read by
//! [`Record::read`]); the owned [`node::Node`] is what inserts, removes
//! and `validate` decode, edit and write back.

pub mod cursor;
pub mod node;
pub mod record;
pub mod tree;

pub use cursor::Cursor;
pub use record::{Probe, Record, RecordOrd};
pub use tree::{BPlusTree, TreeState};
