//! PST node layout.
//!
//! ```text
//! [count: u16][nchildren: u16]
//! [segments: count × 40]                     (base order)
//! [children: nchildren × (router: 40, page: u32, size: u64)]
//! [seps: (nchildren − 1) × 40]
//! ```
//!
//! * `segments` — the subtree's `count` farthest-reaching segments.
//! * `router` of child `i` — copy of subtree `i`'s farthest-reaching
//!   segment (the paper's `v.left` / `v.right`, generalized to fanout
//!   `F`); updated when insertions push a new maximum into the subtree —
//!   it drives the *priority prune*.
//! * `seps` — **static separator witnesses**: `sep[i]` is a copy of the
//!   base-order-smallest segment of subtree `i+1` *at build time*.
//!   Invariant, preserved forever by routing insertions with the same
//!   comparisons: `subtree i < sep[i] ≤ subtree i+1` in base order. They
//!   drive the *sandwich prune*; being static, their reach keys never
//!   drift, which is what keeps the prune sound under insertions (see
//!   crate docs).
//!
//! A node with `nchildren = 0` is a leaf.

use segdb_geom::{GeomError, Point, Segment};
use segdb_pager::codec::{i64_at, u32_at, u64_at};
use segdb_pager::{ByteReader, ByteWriter, PageId, PagerError, Result};

/// Encoded size of one segment record.
pub const SEG_BYTES: usize = 8 + 4 * 8;
/// Encoded size of one child entry (router + page + size).
pub const CHILD_BYTES: usize = SEG_BYTES + 4 + 8;
/// Node header bytes.
pub const HEADER_BYTES: usize = 4;

/// Serialize a segment into a node page.
pub fn encode_segment(s: &Segment, w: &mut ByteWriter<'_>) -> Result<()> {
    w.u64(s.id)?;
    w.i64(s.a.x)?;
    w.i64(s.a.y)?;
    w.i64(s.b.x)?;
    w.i64(s.b.y)
}

/// The segment record `[id][a.x][a.y][b.x][b.y]` at the head of a
/// length-checked image, rebuilt through [`Segment::new`]. Every layout
/// in the workspace that stores a segment stores it this way and parses
/// it here.
pub fn segment_from(b: &[u8]) -> std::result::Result<Segment, GeomError> {
    Segment::new(
        u64_at(b, 0),
        Point::new(i64_at(b, 8), i64_at(b, 16)),
        Point::new(i64_at(b, 24), i64_at(b, 32)),
    )
}

fn read_segment(b: &[u8]) -> Result<Segment> {
    segment_from(b).map_err(|_| PagerError::Corrupt("invalid segment in PST node"))
}

/// One child edge of a PST node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChildEntry {
    /// Copy of the child subtree's farthest-reaching segment.
    pub router: Segment,
    /// Child page.
    pub page: PageId,
    /// Number of segments stored in the child's subtree.
    pub size: u64,
}

/// Decoded PST node.
#[derive(Debug, Clone, PartialEq)]
pub struct PstNode {
    /// The subtree's `count` farthest-reaching segments, in base order.
    pub segments: Vec<Segment>,
    /// Children, in base-range order.
    pub children: Vec<ChildEntry>,
    /// Static separator witnesses (`children.len().saturating_sub(1)`).
    pub seps: Vec<Segment>,
}

impl PstNode {
    /// True when the node has no children.
    pub fn is_leaf(&self) -> bool {
        self.children.is_empty()
    }

    /// Total segments in the subtree rooted here.
    pub fn subtree_size(&self) -> u64 {
        self.segments.len() as u64 + self.children.iter().map(|c| c.size).sum::<u64>()
    }

    /// Serialize into a zeroed page image.
    pub fn encode(&self, buf: &mut [u8]) -> Result<()> {
        if !self.children.is_empty() && self.seps.len() != self.children.len() - 1 {
            return Err(PagerError::Corrupt("pst sep/child arity"));
        }
        let mut w = ByteWriter::new(buf);
        w.u16(self.segments.len() as u16)?;
        w.u16(self.children.len() as u16)?;
        for s in &self.segments {
            encode_segment(s, &mut w)?;
        }
        for c in &self.children {
            encode_segment(&c.router, &mut w)?;
            w.u32(c.page)?;
            w.u64(c.size)?;
        }
        for s in &self.seps {
            encode_segment(s, &mut w)?;
        }
        Ok(())
    }

    /// Deserialize from a page image: every field of its
    /// [`PstNodeView`], collected.
    pub fn decode(buf: &[u8]) -> Result<Self> {
        let v = PstNodeView::new(buf)?;
        let child = |i| {
            Ok(ChildEntry {
                router: v.router(i)?,
                page: v.child_page(i),
                size: v.child_size(i),
            })
        };
        Ok(PstNode {
            segments: (0..v.len()).map(|i| v.segment(i)).collect::<Result<_>>()?,
            children: (0..v.nchildren()).map(child).collect::<Result<_>>()?,
            seps: (1..v.nchildren())
                .map(|i| v.sep(i - 1))
                .collect::<Result<_>>()?,
        })
    }
}

/// A node read in place: the read path's form of [`PstNode`], borrowed
/// from the page image, and the one parser of the layout
/// ([`PstNode::decode`] collects from it).
///
/// [`PstNodeView::new`] checks once that the three sections the header
/// counts imply fit the image (`CodecOverflow` otherwise). A segment —
/// stored, router or separator — is rebuilt and validated through
/// [`Segment::new`] when its accessor is called, so a walk validates
/// exactly the segments it looks at.
#[derive(Debug, Clone, Copy)]
pub struct PstNodeView<'a> {
    segments: &'a [[u8; SEG_BYTES]],
    children: &'a [[u8; CHILD_BYTES]],
    seps: &'a [[u8; SEG_BYTES]],
}

impl<'a> PstNodeView<'a> {
    /// View the node in a page image.
    pub fn new(buf: &'a [u8]) -> Result<Self> {
        let mut r = ByteReader::new(buf);
        let count = r.u16()? as usize;
        let nchildren = r.u16()? as usize;
        Ok(PstNodeView {
            segments: r.arrays(count)?,
            children: r.arrays(nchildren)?,
            seps: r.arrays(nchildren.saturating_sub(1))?,
        })
    }

    /// Number of stored segments.
    pub fn len(&self) -> usize {
        self.segments.len()
    }

    /// True when the node stores no segment.
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// Number of children (0 = leaf).
    pub fn nchildren(&self) -> usize {
        self.children.len()
    }

    /// Stored segment `i`, in base order.
    pub fn segment(&self, i: usize) -> Result<Segment> {
        read_segment(&self.segments[i])
    }

    /// Router of child `i`: a copy of its subtree's farthest-reaching
    /// segment.
    pub fn router(&self, i: usize) -> Result<Segment> {
        read_segment(&self.children[i])
    }

    /// Page of child `i`.
    pub fn child_page(&self, i: usize) -> PageId {
        u32_at(&self.children[i], SEG_BYTES)
    }

    /// Number of segments stored in child `i`'s subtree.
    pub fn child_size(&self, i: usize) -> u64 {
        u64_at(&self.children[i], SEG_BYTES + 4)
    }

    /// Static separator witness `i` (`i < nchildren() − 1`).
    pub fn sep(&self, i: usize) -> Result<Segment> {
        read_segment(&self.seps[i])
    }
}

/// Default capacities for a page size: `(seg_cap, fanout_max)`, splitting
/// the page budget evenly between stored segments and routing machinery
/// (each child beyond the first costs a child entry plus a separator).
pub fn default_caps(page_size: usize) -> (usize, usize) {
    let budget = page_size.saturating_sub(HEADER_BYTES);
    let fanout = (budget / (2 * (CHILD_BYTES + SEG_BYTES))).max(2);
    let routing = fanout * CHILD_BYTES + (fanout - 1) * SEG_BYTES;
    let seg_cap = budget.saturating_sub(routing) / SEG_BYTES;
    (seg_cap.max(1), fanout)
}

/// Segment capacity when the fanout is fixed (2 = the paper's binary
/// tree): all remaining space stores segments.
pub fn seg_cap_for_fanout(page_size: usize, fanout: usize) -> usize {
    let routing = fanout * CHILD_BYTES + fanout.saturating_sub(1) * SEG_BYTES;
    let budget = page_size
        .saturating_sub(HEADER_BYTES)
        .saturating_sub(routing);
    (budget / SEG_BYTES).max(1)
}

/// Bytes needed by a node with the given shape (for capacity checks).
pub fn node_bytes(seg_count: usize, nchildren: usize) -> usize {
    HEADER_BYTES
        + seg_count * SEG_BYTES
        + nchildren * CHILD_BYTES
        + nchildren.saturating_sub(1) * SEG_BYTES
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(id: u64) -> Segment {
        Segment::new(id, (0, id as i64), (10 + id as i64, id as i64)).unwrap()
    }

    #[test]
    fn roundtrip() {
        let n = PstNode {
            segments: vec![seg(1), seg(2), seg(3)],
            children: vec![
                ChildEntry {
                    router: seg(4),
                    page: 9,
                    size: 17,
                },
                ChildEntry {
                    router: seg(5),
                    page: 11,
                    size: 20,
                },
            ],
            seps: vec![seg(6)],
        };
        let mut buf = vec![0u8; 512];
        n.encode(&mut buf).unwrap();
        let d = PstNode::decode(&buf).unwrap();
        assert_eq!(d, n);
        assert!(!d.is_leaf());
        assert_eq!(d.subtree_size(), 3 + 17 + 20);
    }

    #[test]
    fn leaf_roundtrip() {
        let n = PstNode {
            segments: vec![seg(1)],
            children: vec![],
            seps: vec![],
        };
        let mut buf = vec![0u8; 128];
        n.encode(&mut buf).unwrap();
        assert_eq!(PstNode::decode(&buf).unwrap(), n);
    }

    #[test]
    fn caps_fit_page() {
        for page in [256usize, 512, 1024, 4096] {
            let (cap, fan) = default_caps(page);
            assert!(
                node_bytes(cap, fan) <= page,
                "page {page}: {}",
                node_bytes(cap, fan)
            );
            assert!(fan >= 2);
            let bcap = seg_cap_for_fanout(page, 2);
            assert!(node_bytes(bcap, 2) <= page);
            assert!(bcap >= cap, "binary nodes hold more segments");
        }
    }

    #[test]
    fn arity_mismatch_rejected() {
        let n = PstNode {
            segments: vec![],
            children: vec![
                ChildEntry {
                    router: seg(4),
                    page: 9,
                    size: 1,
                },
                ChildEntry {
                    router: seg(5),
                    page: 10,
                    size: 1,
                },
            ],
            seps: vec![], // should be 1
        };
        let mut buf = vec![0u8; 256];
        assert!(n.encode(&mut buf).is_err());
    }

    #[test]
    fn corrupt_segment_rejected() {
        let mut buf = vec![0u8; 128];
        {
            let mut w = ByteWriter::new(&mut buf);
            w.u16(1).unwrap();
            w.u16(0).unwrap();
            w.u64(7).unwrap();
            for _ in 0..4 {
                w.i64(5).unwrap();
            }
        }
        assert!(PstNode::decode(&buf).is_err());
    }
}
