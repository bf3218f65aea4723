//! Interval-tree node layout.
//!
//! ```text
//! leaf:     [tag=1:u8][count:u16][intervals: count × 24]
//! internal: [tag=2:u8][k:u16]
//!           [boundaries: k × i64]
//!           [children: (k+1) × u32]
//!           [left TreeState:16][right TreeState:16][mslab TreeState:16]
//!           [mslab counts: k(k−1)/2 × u16]
//! ```
//!
//! The multislab occupancy directory (`mslab counts`) lives inside the
//! node page, so deciding *which* multislab lists to drain costs no I/O —
//! the property that keeps stabbing output-sensitive (§ lib docs).

use crate::interval::Interval;
use segdb_bptree::{Record, TreeState};
use segdb_pager::{ByteReader, ByteWriter, PageId, PagerError, Result};

const TAG_LEAF: u8 = 1;
const TAG_INTERNAL: u8 = 2;

/// Decoded interval-tree node.
#[derive(Debug, Clone, PartialEq)]
pub enum ItNode {
    /// A bucket of at most [`leaf_capacity`] intervals.
    Leaf {
        /// Unordered intervals.
        intervals: Vec<Interval>,
    },
    /// A slab node.
    Internal(Box<InternalNode>),
}

/// Internal node payload.
#[derive(Debug, Clone, PartialEq)]
pub struct InternalNode {
    /// `k` strictly increasing boundary abscissae.
    pub boundaries: Vec<i64>,
    /// `k + 1` child pages (one per slab).
    pub children: Vec<PageId>,
    /// Left-stub lists, keyed `(slab, lo, id)`.
    pub left: TreeState,
    /// Right-stub lists, keyed `(slab, −hi, id)`.
    pub right: TreeState,
    /// Multislab lists, keyed `(mslab, id)`.
    pub mslab: TreeState,
    /// Occupancy count per linearized multislab.
    pub mslab_counts: Vec<u16>,
}

/// Max intervals in a leaf page.
pub fn leaf_capacity(page_size: usize) -> usize {
    page_size.saturating_sub(3) / Interval::ENCODED_SIZE
}

/// Max boundary count `k` whose internal node fits one page.
pub fn max_fanout(page_size: usize) -> usize {
    // bytes(k) = 3 + 8k + 4(k+1) + 48 + k(k−1)  (counts: k(k−1)/2 × 2)
    let mut k = 1usize;
    while internal_bytes(k + 1) <= page_size {
        k += 1;
    }
    k
}

fn internal_bytes(k: usize) -> usize {
    3 + 8 * k + 4 * (k + 1) + 3 * TreeState::ENCODED_SIZE + k * (k - 1)
}

/// Number of multislab pairs `(a, b)`, `1 ≤ a ≤ b ≤ k−1`.
pub fn mslab_count(k: usize) -> usize {
    if k < 2 {
        0
    } else {
        (k - 1) * k / 2
    }
}

/// Linearized index of multislab `(a, b)` (middle spans slabs `a..=b`),
/// with `1 ≤ a ≤ b ≤ k−1`.
pub fn mslab_index(k: usize, a: usize, b: usize) -> usize {
    debug_assert!(1 <= a && a <= b && b < k, "mslab ({a},{b}) of k={k}");
    // Row a−1 starts after rows of lengths (k−1), (k−2), …
    let row = a - 1;
    let before = row * (k - 1) - row * (row.saturating_sub(1)) / 2;
    before + (b - a)
}

/// A node read in place: the read path's form of [`ItNode`], borrowed
/// from the page image, and the one parser of the layout
/// ([`ItNode::decode`] collects from it).
///
/// [`ItNodeView::new`] checks once the tag, and that every section the
/// header count implies fits the image (`Corrupt` / `CodecOverflow`
/// otherwise); no field of an interval-tree node has a validity rule
/// beyond that. Accessors then
/// read single fields at their offsets, so a stab touches a few bytes of
/// the `O(k²)` multislab directory instead of materializing it.
#[derive(Debug, Clone, Copy)]
pub enum ItNodeView<'a> {
    /// A bucket of intervals.
    Leaf(ItLeafView<'a>),
    /// A slab node.
    Internal(ItInternalView<'a>),
}

/// A leaf read in place; see [`ItNodeView`].
#[derive(Debug, Clone, Copy)]
pub struct ItLeafView<'a> {
    intervals: &'a [[u8; Interval::ENCODED_SIZE]],
}

/// An internal node read in place; see [`ItNodeView`].
#[derive(Debug, Clone, Copy)]
pub struct ItInternalView<'a> {
    boundaries: &'a [[u8; 8]],
    children: &'a [[u8; 4]],
    /// Left, right and multislab list states, in that order.
    lists: &'a [[u8; TreeState::ENCODED_SIZE]],
    mslab_counts: &'a [[u8; 2]],
}

impl<'a> ItNodeView<'a> {
    /// View the node in a page image.
    pub fn new(buf: &'a [u8]) -> Result<Self> {
        let mut r = ByteReader::new(buf);
        match r.u8()? {
            TAG_LEAF => {
                let count = r.u16()? as usize;
                Ok(ItNodeView::Leaf(ItLeafView {
                    intervals: r.arrays(count)?,
                }))
            }
            TAG_INTERNAL => {
                let k = r.u16()? as usize;
                Ok(ItNodeView::Internal(ItInternalView {
                    boundaries: r.arrays(k)?,
                    children: r.arrays(k + 1)?,
                    lists: r.arrays(3)?,
                    mslab_counts: r.arrays(mslab_count(k))?,
                }))
            }
            _ => Err(PagerError::Corrupt("unknown interval node tag")),
        }
    }
}

impl<'a> ItLeafView<'a> {
    /// The leaf's intervals, in stored order.
    pub fn intervals(&self) -> impl Iterator<Item = Interval> + 'a {
        self.intervals.iter().map(|b| Interval::from_le_bytes(b))
    }
}

impl ItInternalView<'_> {
    /// Boundary count `k`.
    pub fn k(&self) -> usize {
        self.boundaries.len()
    }

    /// Boundary `i` (`i < k`).
    pub fn boundary(&self, i: usize) -> i64 {
        i64::from_le_bytes(self.boundaries[i])
    }

    /// The slab `x` falls in: the number of boundaries strictly left of
    /// it (binary search; a stab exactly on boundary `j` gets `j`).
    pub fn slab_of(&self, x: i64) -> usize {
        self.boundaries
            .partition_point(|b| i64::from_le_bytes(*b) < x)
    }

    /// Child page of slab `j` (`j ≤ k`).
    pub fn child(&self, j: usize) -> PageId {
        u32::from_le_bytes(self.children[j])
    }

    /// Left-stub lists, keyed `(slab, lo, id)`.
    pub fn left(&self) -> TreeState {
        TreeState::read(&self.lists[0])
    }

    /// Right-stub lists, keyed `(slab, −hi, id)`.
    pub fn right(&self) -> TreeState {
        TreeState::read(&self.lists[1])
    }

    /// Multislab lists, keyed `(mslab, id)`.
    pub fn mslab(&self) -> TreeState {
        TreeState::read(&self.lists[2])
    }

    /// Occupancy count of multislab `(a, b)`, `1 ≤ a ≤ b ≤ k−1`.
    pub fn mslab_count(&self, a: usize, b: usize) -> u16 {
        u16::from_le_bytes(self.mslab_counts[mslab_index(self.k(), a, b)])
    }
}

impl ItNode {
    /// Serialize into a zeroed page image.
    pub fn encode(&self, buf: &mut [u8]) -> Result<()> {
        let mut w = ByteWriter::new(buf);
        match self {
            ItNode::Leaf { intervals } => {
                w.u8(TAG_LEAF)?;
                w.u16(intervals.len() as u16)?;
                for iv in intervals {
                    iv.encode(&mut w)?;
                }
            }
            ItNode::Internal(n) => {
                let k = n.boundaries.len();
                if n.children.len() != k + 1 || n.mslab_counts.len() != mslab_count(k) {
                    return Err(PagerError::Corrupt("interval node arity"));
                }
                w.u8(TAG_INTERNAL)?;
                w.u16(k as u16)?;
                for &b in &n.boundaries {
                    w.i64(b)?;
                }
                for &c in &n.children {
                    w.u32(c)?;
                }
                n.left.encode(&mut w)?;
                n.right.encode(&mut w)?;
                n.mslab.encode(&mut w)?;
                for &c in &n.mslab_counts {
                    w.u16(c)?;
                }
            }
        }
        Ok(())
    }

    /// Deserialize from a page image: every field of its
    /// [`ItNodeView`], collected.
    pub fn decode(buf: &[u8]) -> Result<Self> {
        Ok(match ItNodeView::new(buf)? {
            ItNodeView::Leaf(v) => ItNode::Leaf {
                intervals: v.intervals().collect(),
            },
            ItNodeView::Internal(v) => ItNode::Internal(Box::new(InternalNode {
                boundaries: (0..v.k()).map(|i| v.boundary(i)).collect(),
                children: (0..=v.k()).map(|j| v.child(j)).collect(),
                left: v.left(),
                right: v.right(),
                mslab: v.mslab(),
                mslab_counts: v
                    .mslab_counts
                    .iter()
                    .map(|c| u16::from_le_bytes(*c))
                    .collect(),
            })),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mslab_index_is_a_bijection() {
        for k in 2..20usize {
            let mut seen = vec![false; mslab_count(k)];
            for a in 1..k {
                for b in a..k {
                    let i = mslab_index(k, a, b);
                    assert!(!seen[i], "collision at k={k} ({a},{b})");
                    seen[i] = true;
                }
            }
            assert!(seen.iter().all(|&s| s), "holes at k={k}");
        }
    }

    #[test]
    fn fanout_fits_page() {
        for page in [256usize, 512, 1024, 4096] {
            let k = max_fanout(page);
            assert!(internal_bytes(k) <= page, "page {page}");
            assert!(internal_bytes(k + 1) > page);
            assert!(k >= 2, "page {page} too small for an internal node");
        }
    }

    #[test]
    fn leaf_roundtrip() {
        let n = ItNode::Leaf {
            intervals: vec![Interval::new(1, 0, 5), Interval::new(2, -3, 3)],
        };
        let mut buf = vec![0u8; 256];
        n.encode(&mut buf).unwrap();
        assert_eq!(ItNode::decode(&buf).unwrap(), n);
    }

    #[test]
    fn internal_roundtrip() {
        let k = 3;
        let n = ItNode::Internal(Box::new(InternalNode {
            boundaries: vec![10, 20, 30],
            children: vec![1, 2, 3, 4],
            left: TreeState {
                root: 9,
                height: 1,
                len: 4,
            },
            right: TreeState {
                root: 10,
                height: 0,
                len: 4,
            },
            mslab: TreeState {
                root: 11,
                height: 0,
                len: 1,
            },
            mslab_counts: vec![0; mslab_count(k)],
        }));
        let mut buf = vec![0u8; 256];
        n.encode(&mut buf).unwrap();
        assert_eq!(ItNode::decode(&buf).unwrap(), n);
    }

    #[test]
    fn arity_mismatch_rejected() {
        let n = ItNode::Internal(Box::new(InternalNode {
            boundaries: vec![10],
            children: vec![1], // should be 2
            left: TreeState {
                root: 0,
                height: 0,
                len: 0,
            },
            right: TreeState {
                root: 0,
                height: 0,
                len: 0,
            },
            mslab: TreeState {
                root: 0,
                height: 0,
                len: 0,
            },
            mslab_counts: vec![],
        }));
        let mut buf = vec![0u8; 128];
        assert!(n.encode(&mut buf).is_err());
    }
}
