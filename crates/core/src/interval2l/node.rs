//! First-level node layout.
//!
//! ```text
//! leaf:     [tag=1:u8][head:u32][count:u64]
//! internal: [tag=2:u8][k:u16][total:u64][g_total:u64]
//!           [bridges_dirty:u8][g_inserts:u32]
//!           [boundaries: k × i64]
//!           [children: (k+1) × u32][child_sizes: (k+1) × u64]
//!           [c: k × TreeState:16]
//!           [l: k × PstState:20][r: k × PstState:20]
//!           [g: skeleton_len(k) × TreeState:16]
//! ```
//!
//! [`Node`] is the owned form the write path edits and writes back;
//! [`NodeView`] is what a query reads: the same fields, at their
//! offsets in the page image.

use super::gtree::skeleton_len;
use segdb_bptree::TreeState;
use segdb_pager::codec::{u32_at, u64_at};
use segdb_pager::{ByteReader, ByteWriter, PageId, PagerError, Result};
use segdb_pst::PstState;

const TAG_LEAF: u8 = 1;
const TAG_INTERNAL: u8 = 2;

/// Decoded first-level node.
#[derive(Debug, Clone, PartialEq)]
pub enum Node {
    /// Page-chained raw segments.
    Leaf {
        /// Chain head.
        head: PageId,
        /// Segments in the chain.
        count: u64,
    },
    /// Slab node.
    Internal(Box<Internal>),
}

/// Decoded slab node.
#[derive(Debug, Clone, PartialEq)]
pub struct Internal {
    /// `k` strictly increasing boundary abscissae.
    pub boundaries: Vec<i64>,
    /// `k+1` slab children ([`segdb_pager::NULL_PAGE`] = empty).
    pub children: Vec<PageId>,
    /// Per-child subtree segment counts.
    pub child_sizes: Vec<u64>,
    /// Total segments in this subtree (own included).
    pub total: u64,
    /// Per-boundary `C` sets ([`super::cset`]; absent-sentinel aware).
    pub c: Vec<TreeState>,
    /// Per-boundary left-side short-fragment PSTs.
    pub l: Vec<PstState>,
    /// Per-boundary right-side short-fragment PSTs.
    pub r: Vec<PstState>,
    /// Multislab list per `G` skeleton node (absent-sentinel aware).
    pub g: Vec<TreeState>,
    /// Real (non-augmented) fragments across all of `g`.
    pub g_total: u64,
    /// Bridges unusable until rebuilt.
    pub bridges_dirty: bool,
    /// Inserts into `g` since the last bridge rebuild.
    pub g_inserts: u32,
}

impl Node {
    /// Serialize into a zeroed page image.
    pub fn encode(&self, buf: &mut [u8]) -> Result<()> {
        let mut w = ByteWriter::new(buf);
        match self {
            Node::Leaf { head, count } => {
                w.u8(TAG_LEAF)?;
                w.u32(*head)?;
                w.u64(*count)
            }
            Node::Internal(n) => {
                let k = n.boundaries.len();
                if n.children.len() != k + 1
                    || n.child_sizes.len() != k + 1
                    || n.c.len() != k
                    || n.l.len() != k
                    || n.r.len() != k
                    || n.g.len() != skeleton_len(k)
                {
                    return Err(PagerError::Corrupt("interval2l node arity"));
                }
                w.u8(TAG_INTERNAL)?;
                w.u16(k as u16)?;
                w.u64(n.total)?;
                w.u64(n.g_total)?;
                w.u8(u8::from(n.bridges_dirty))?;
                w.u32(n.g_inserts)?;
                for &b in &n.boundaries {
                    w.i64(b)?;
                }
                for &c in &n.children {
                    w.u32(c)?;
                }
                for &s in &n.child_sizes {
                    w.u64(s)?;
                }
                for s in &n.c {
                    s.encode(&mut w)?;
                }
                for s in &n.l {
                    s.encode(&mut w)?;
                }
                for s in &n.r {
                    s.encode(&mut w)?;
                }
                for s in &n.g {
                    s.encode(&mut w)?;
                }
                Ok(())
            }
        }
    }

    /// Deserialize from a page image: every field of its [`NodeView`],
    /// collected.
    pub fn decode(buf: &[u8]) -> Result<Node> {
        Ok(match NodeView::new(buf)? {
            NodeView::Leaf { head, count } => Node::Leaf { head, count },
            NodeView::Internal(v) => {
                let k = v.k();
                Node::Internal(Box::new(Internal {
                    boundaries: (0..k).map(|i| v.boundary(i)).collect(),
                    children: (0..=k).map(|j| v.child(j)).collect(),
                    child_sizes: (0..=k).map(|j| v.child_size(j)).collect(),
                    total: v.total(),
                    c: (0..k).map(|i| v.c(i)).collect(),
                    l: (0..k).map(|i| v.l(i)).collect(),
                    r: (0..k).map(|i| v.r(i)).collect(),
                    g: (0..skeleton_len(k)).map(|gi| v.g(gi)).collect(),
                    g_total: v.g_total(),
                    bridges_dirty: v.bridges_dirty(),
                    g_inserts: v.g_inserts(),
                }))
            }
        })
    }
}

/// A node read in place: the read path's form of [`Node`], borrowed
/// from the page image, and the one parser of the layout
/// ([`Node::decode`] collects from it).
///
/// [`NodeView::new`] checks once the tag, and that the seven sections
/// `k` implies fit the image (`Corrupt` / `CodecOverflow` otherwise);
/// the fields are plain integers with no validity rule of their own.
/// Accessors read one
/// field at its offset, so a query pays for the handful of states on
/// its slab's path, not for seven vectors.
#[derive(Debug, Clone, Copy)]
pub enum NodeView<'a> {
    /// Page-chained raw segments.
    Leaf {
        /// Chain head.
        head: PageId,
        /// Segments in the chain.
        count: u64,
    },
    /// Slab node.
    Internal(InternalView<'a>),
}

/// A slab node read in place; see [`NodeView`].
#[derive(Debug, Clone, Copy)]
pub struct InternalView<'a> {
    /// `[total:u64][g_total:u64][bridges_dirty:u8][g_inserts:u32]`.
    header: &'a [u8; 21],
    boundaries: &'a [[u8; 8]],
    children: &'a [[u8; 4]],
    child_sizes: &'a [[u8; 8]],
    c: &'a [[u8; TreeState::ENCODED_SIZE]],
    l: &'a [[u8; PstState::ENCODED_SIZE]],
    r: &'a [[u8; PstState::ENCODED_SIZE]],
    g: &'a [[u8; TreeState::ENCODED_SIZE]],
}

impl<'a> NodeView<'a> {
    /// View the node in a page image.
    pub fn new(buf: &'a [u8]) -> Result<Self> {
        let mut rd = ByteReader::new(buf);
        match rd.u8()? {
            TAG_LEAF => Ok(NodeView::Leaf {
                head: rd.u32()?,
                count: rd.u64()?,
            }),
            TAG_INTERNAL => {
                let k = rd.u16()? as usize;
                Ok(NodeView::Internal(InternalView {
                    header: rd.array()?,
                    boundaries: rd.arrays(k)?,
                    children: rd.arrays(k + 1)?,
                    child_sizes: rd.arrays(k + 1)?,
                    c: rd.arrays(k)?,
                    l: rd.arrays(k)?,
                    r: rd.arrays(k)?,
                    g: rd.arrays(skeleton_len(k))?,
                }))
            }
            _ => Err(PagerError::Corrupt("unknown interval2l node tag")),
        }
    }
}

impl InternalView<'_> {
    /// Boundary count `k`.
    pub fn k(&self) -> usize {
        self.boundaries.len()
    }

    /// Boundary `i` (`i < k`).
    pub fn boundary(&self, i: usize) -> i64 {
        i64::from_le_bytes(self.boundaries[i])
    }

    /// The slab `x` falls in: the number of boundaries strictly left of
    /// it (binary search; an abscissa on boundary `j` gets `j`).
    pub fn slab_of(&self, x: i64) -> usize {
        self.boundaries
            .partition_point(|b| i64::from_le_bytes(*b) < x)
    }

    /// Child page of slab `j` (`j ≤ k`).
    pub fn child(&self, j: usize) -> PageId {
        u32::from_le_bytes(self.children[j])
    }

    /// Segments in slab `j`'s subtree.
    pub fn child_size(&self, j: usize) -> u64 {
        u64::from_le_bytes(self.child_sizes[j])
    }

    /// Total segments in this subtree (own included).
    pub fn total(&self) -> u64 {
        u64_at(self.header, 0)
    }

    /// `C` set of boundary `i`.
    pub fn c(&self, i: usize) -> TreeState {
        TreeState::read(&self.c[i])
    }

    /// Left-side short-fragment PST of boundary `i`.
    pub fn l(&self, i: usize) -> PstState {
        PstState::read(&self.l[i])
    }

    /// Right-side short-fragment PST of boundary `i`.
    pub fn r(&self, i: usize) -> PstState {
        PstState::read(&self.r[i])
    }

    /// Multislab list of `G` skeleton node `gi`.
    pub fn g(&self, gi: usize) -> TreeState {
        TreeState::read(&self.g[gi])
    }

    /// Real fragments across all multislab lists.
    pub fn g_total(&self) -> u64 {
        u64_at(self.header, 8)
    }

    /// Bridges unusable until rebuilt.
    pub fn bridges_dirty(&self) -> bool {
        self.header[16] != 0
    }

    /// Inserts into `G` since the last bridge rebuild.
    pub fn g_inserts(&self) -> u32 {
        u32_at(self.header, 17)
    }
}
