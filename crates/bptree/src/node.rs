//! Node layout and codec.
//!
//! One node = one page. Layout (little-endian):
//!
//! ```text
//! leaf:        [tag=1:u8][count:u16][next:u32][records: count × R]
//! internal v1: [tag=2:u8][count:u16][children: (count+1) × u32][seps: count × R]
//! internal v2: [tag=3:u8][count:u16][children: (count+1) × u32]
//!              [child_counts: (count+1) × u64][seps: count × R]
//! ```
//!
//! `count` for an internal node is the number of separators; it routes
//! `count + 1` children. Separator `i` satisfies
//! `max(subtree i) < sep[i] ≤ min(subtree i+1)`.
//!
//! v2 internal nodes additionally store the record count of each child's
//! subtree, letting aggregate (count-mode) queries add whole subtrees
//! without reading their pages. v1 nodes decode with an empty `counts`
//! vector ("unknown"); readers fall back to recursing into the subtree.
//! [`Node::internal_capacity`] reserves space for the counts so a v1
//! node rewritten with counts always fits.

use crate::record::{Probe, Record};
use segdb_pager::{ByteReader, ByteWriter, PageId, PagerError, Result, NULL_PAGE};
use std::cmp::Ordering;
use std::marker::PhantomData;

const TAG_LEAF: u8 = 1;
const TAG_INTERNAL: u8 = 2;
const TAG_INTERNAL_V2: u8 = 3;
const LEAF_HEADER: usize = 1 + 2 + 4;
const INT_HEADER: usize = 1 + 2 + 4; // tag + count + first child

/// Decoded node.
#[derive(Debug, Clone, PartialEq)]
pub enum Node<R> {
    /// Leaf: sorted records plus the forward sibling link.
    Leaf {
        /// Sorted records.
        records: Vec<R>,
        /// Next leaf in key order, or [`NULL_PAGE`].
        next: PageId,
    },
    /// Internal router node.
    Internal {
        /// `seps.len() + 1` children.
        children: Vec<PageId>,
        /// Separators; see module docs for the invariant.
        seps: Vec<R>,
        /// Per-child subtree record counts. Either empty ("unknown",
        /// decoded from a v1 page or degraded by a structural rebalance)
        /// or exactly `children.len()` entries.
        counts: Vec<u64>,
    },
}

impl<R: Record> Node<R> {
    /// Maximum records in a leaf for the given page size.
    pub fn leaf_capacity(page_size: usize) -> usize {
        page_size.saturating_sub(LEAF_HEADER) / R::ENCODED_SIZE
    }

    /// Maximum separators in an internal node for the given page size.
    /// Each separator budgets one child pointer (u32) and one subtree
    /// count (u64) so the v2 encoding always fits.
    pub fn internal_capacity(page_size: usize) -> usize {
        page_size.saturating_sub(INT_HEADER + 8) / (R::ENCODED_SIZE + 4 + 8)
    }

    /// Serialize into a zeroed page image.
    pub fn encode(&self, buf: &mut [u8]) -> Result<()> {
        let mut w = ByteWriter::new(buf);
        match self {
            Node::Leaf { records, next } => {
                w.u8(TAG_LEAF)?;
                w.u16(records.len() as u16)?;
                w.u32(*next)?;
                for r in records {
                    r.encode(&mut w)?;
                }
            }
            Node::Internal {
                children,
                seps,
                counts,
            } => {
                if children.len() != seps.len() + 1 {
                    return Err(PagerError::Corrupt("internal child/sep arity"));
                }
                if !counts.is_empty() && counts.len() != children.len() {
                    return Err(PagerError::Corrupt("internal count arity"));
                }
                w.u8(if counts.is_empty() {
                    TAG_INTERNAL
                } else {
                    TAG_INTERNAL_V2
                })?;
                w.u16(seps.len() as u16)?;
                for c in children {
                    w.u32(*c)?;
                }
                for n in counts {
                    w.u64(*n)?;
                }
                for s in seps {
                    s.encode(&mut w)?;
                }
            }
        }
        Ok(())
    }

    /// Deserialize from a page image: every field of its [`NodeView`],
    /// collected.
    pub fn decode(buf: &[u8]) -> Result<Self> {
        Ok(match NodeView::new(buf)? {
            NodeView::Leaf(v) => Node::Leaf {
                records: (0..v.len()).map(|i| v.record(i)).collect::<Result<_>>()?,
                next: v.next(),
            },
            NodeView::Internal(v) => Node::Internal {
                children: (0..=v.len()).map(|j| v.child(j)).collect(),
                seps: (0..v.len()).map(|i| v.sep(i)).collect::<Result<_>>()?,
                counts: (0..=v.len()).filter_map(|j| v.count(j)).collect(),
            },
        })
    }

    /// True for leaf nodes.
    pub fn is_leaf(&self) -> bool {
        matches!(self, Node::Leaf { .. })
    }

    /// Number of records (leaf) or separators (internal).
    pub fn count(&self) -> usize {
        match self {
            Node::Leaf { records, .. } => records.len(),
            Node::Internal { seps, .. } => seps.len(),
        }
    }
}

/// A node read in place: the read path's form of [`Node`], borrowed
/// from the page image instead of decoded into vectors, and the one
/// parser of the layout ([`Node::decode`] collects from it).
///
/// [`NodeView::new`] checks the node itself — the tag, and that the
/// sections its header counts imply fit the image. A record is read,
/// and validated by its own [`Record::read`], when an accessor touches
/// it.
#[derive(Debug, Clone, Copy)]
pub enum NodeView<'a, R> {
    /// Leaf.
    Leaf(LeafView<'a, R>),
    /// Internal router node.
    Internal(InternalView<'a, R>),
}

/// A leaf read in place; see [`NodeView`].
#[derive(Debug, Clone, Copy)]
pub struct LeafView<'a, R> {
    next: PageId,
    records: &'a [u8],
    _r: PhantomData<R>,
}

/// An internal node read in place; see [`NodeView`].
#[derive(Debug, Clone, Copy)]
pub struct InternalView<'a, R> {
    children: &'a [[u8; 4]],
    /// Empty for the count-free v1 layout.
    counts: &'a [[u8; 8]],
    seps: &'a [u8],
    _r: PhantomData<R>,
}

/// Record `i` of a section of back-to-back records.
fn record_at<R: Record>(records: &[u8], i: usize) -> Result<R> {
    R::read(&records[i * R::ENCODED_SIZE..])
}

/// Record `i` of the leaf in page image `img`, for a holder of the image
/// that has already viewed it ([`NodeView::new`]) and kept its count.
pub(crate) fn leaf_record<R: Record>(img: &[u8], i: usize) -> Result<R> {
    record_at(&img[LEAF_HEADER..], i)
}

/// Binary search: the first index in `0..n` where `before` turns false.
/// `before` must be monotone (true, then false) — the B⁺-tree order
/// guarantees it for every probe the tree accepts.
pub(crate) fn partition_point(
    n: usize,
    mut before: impl FnMut(usize) -> Result<bool>,
) -> Result<usize> {
    let (mut lo, mut hi) = (0, n);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if before(mid)? {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    Ok(lo)
}

impl<'a, R: Record> NodeView<'a, R> {
    /// View the node in a page image.
    pub fn new(buf: &'a [u8]) -> Result<Self> {
        let mut r = ByteReader::new(buf);
        match r.u8()? {
            TAG_LEAF => {
                let count = r.u16()? as usize;
                let next = r.u32()?;
                Ok(NodeView::Leaf(LeafView {
                    next,
                    records: r.bytes(count * R::ENCODED_SIZE)?,
                    _r: PhantomData,
                }))
            }
            tag @ (TAG_INTERNAL | TAG_INTERNAL_V2) => {
                let count = r.u16()? as usize;
                let children = r.arrays(count + 1)?;
                let counts = if tag == TAG_INTERNAL_V2 {
                    r.arrays(count + 1)?
                } else {
                    &[]
                };
                Ok(NodeView::Internal(InternalView {
                    children,
                    counts,
                    seps: r.bytes(count * R::ENCODED_SIZE)?,
                    _r: PhantomData,
                }))
            }
            _ => Err(PagerError::Corrupt("unknown b+tree node tag")),
        }
    }
}

impl<R: Record> LeafView<'_, R> {
    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len() / R::ENCODED_SIZE
    }

    /// True when the leaf holds no record.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Next leaf in key order, or [`NULL_PAGE`].
    pub fn next(&self) -> PageId {
        self.next
    }

    /// Record `i` (`i < len()`).
    pub fn record(&self, i: usize) -> Result<R> {
        record_at(self.records, i)
    }

    /// Index of the first record `r` with `probe ≤ r` (`len()` if none).
    pub fn lower_bound(&self, probe: &impl Probe<R>) -> Result<usize> {
        partition_point(self.len(), |i| {
            Ok(probe.cmp_record(&self.record(i)?) == Ordering::Greater)
        })
    }
}

impl<R: Record> InternalView<'_, R> {
    /// Number of separators; the node routes `len() + 1` children.
    pub fn len(&self) -> usize {
        self.children.len() - 1
    }

    /// True when the node has no separator (a lone child).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Separator `i` (`i < len()`).
    pub fn sep(&self, i: usize) -> Result<R> {
        record_at(self.seps, i)
    }

    /// Child page `j` (`j ≤ len()`).
    pub fn child(&self, j: usize) -> PageId {
        u32::from_le_bytes(self.children[j])
    }

    /// Stored record count of child `j`'s subtree; `None` in the
    /// count-free v1 layout.
    pub fn count(&self, j: usize) -> Option<u64> {
        self.counts.get(j).map(|c| u64::from_le_bytes(*c))
    }

    /// Index of the child a lower-bound descent for `probe` enters.
    /// `sep[i]` is the minimum of child `i + 1`, so on `probe ≥ sep[i]`
    /// the lower bound cannot be in children `0..=i`.
    pub fn route(&self, probe: &impl Probe<R>) -> Result<usize> {
        partition_point(self.len(), |i| {
            Ok(probe.cmp_record(&self.sep(i)?) != Ordering::Less)
        })
    }
}

/// An empty leaf (the initial root).
pub fn empty_leaf<R: Record>() -> Node<R> {
    Node::Leaf {
        records: Vec::new(),
        next: NULL_PAGE,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::KeyValue;

    fn kv(k: i64) -> KeyValue {
        KeyValue {
            key: k,
            value: k as u64,
        }
    }

    #[test]
    fn leaf_roundtrip() {
        let n = Node::Leaf {
            records: vec![kv(1), kv(5), kv(9)],
            next: 77,
        };
        let mut buf = vec![0u8; 128];
        n.encode(&mut buf).unwrap();
        assert_eq!(Node::<KeyValue>::decode(&buf).unwrap(), n);
    }

    #[test]
    fn internal_roundtrip() {
        let n = Node::Internal {
            children: vec![3, 4, 5],
            seps: vec![kv(10), kv(20)],
            counts: Vec::new(),
        };
        let mut buf = vec![0u8; 128];
        n.encode(&mut buf).unwrap();
        let d = Node::<KeyValue>::decode(&buf).unwrap();
        assert_eq!(d, n);
        assert!(!d.is_leaf());
        assert_eq!(d.count(), 2);
    }

    #[test]
    fn internal_v2_roundtrip_keeps_counts() {
        let n = Node::Internal {
            children: vec![3, 4, 5],
            seps: vec![kv(10), kv(20)],
            counts: vec![7, 9, 4],
        };
        let mut buf = vec![0u8; 128];
        n.encode(&mut buf).unwrap();
        assert_eq!(buf[0], TAG_INTERNAL_V2);
        let d = Node::<KeyValue>::decode(&buf).unwrap();
        assert_eq!(d, n);
    }

    #[test]
    fn v1_image_decodes_with_unknown_counts() {
        // Hand-build a v1 page image (tag 2, no counts section) and check
        // it decodes to `counts: []` — the read-compat path for trees
        // persisted before the count field existed.
        let mut buf = vec![0u8; 128];
        {
            let mut w = ByteWriter::new(&mut buf);
            w.u8(TAG_INTERNAL).unwrap();
            w.u16(1).unwrap();
            w.u32(3).unwrap();
            w.u32(4).unwrap();
            kv(10).encode(&mut w).unwrap();
        }
        let d = Node::<KeyValue>::decode(&buf).unwrap();
        assert_eq!(
            d,
            Node::Internal {
                children: vec![3, 4],
                seps: vec![kv(10)],
                counts: Vec::new(),
            }
        );
    }

    #[test]
    fn capacities() {
        // 16-byte records: leaf gets (128-7)/16 = 7; internal budgets a
        // child pointer and a subtree count per separator (plus one extra
        // of each for the first child): (128-15)/28 = 4.
        assert_eq!(Node::<KeyValue>::leaf_capacity(128), 7);
        assert_eq!(Node::<KeyValue>::internal_capacity(128), 4);
        assert_eq!(Node::<KeyValue>::leaf_capacity(4), 0);
    }

    #[test]
    fn full_v2_node_fits_its_page() {
        let cap = Node::<KeyValue>::internal_capacity(128);
        let n = Node::Internal {
            children: (0..=cap as u32).collect(),
            seps: (0..cap).map(|i| kv(i as i64)).collect(),
            counts: vec![1; cap + 1],
        };
        let mut buf = vec![0u8; 128];
        n.encode(&mut buf).unwrap();
        assert_eq!(Node::<KeyValue>::decode(&buf).unwrap(), n);
    }

    #[test]
    fn arity_mismatch_rejected() {
        let n: Node<KeyValue> = Node::Internal {
            children: vec![1],
            seps: vec![kv(1)],
            counts: Vec::new(),
        };
        let mut buf = vec![0u8; 64];
        assert!(n.encode(&mut buf).is_err());
        let n: Node<KeyValue> = Node::Internal {
            children: vec![1, 2],
            seps: vec![kv(1)],
            counts: vec![5],
        };
        assert!(n.encode(&mut buf).is_err());
    }

    #[test]
    fn bad_tag_rejected() {
        let buf = vec![9u8; 32];
        assert!(Node::<KeyValue>::decode(&buf).is_err());
    }
}
