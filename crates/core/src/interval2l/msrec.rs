//! Multislab list records and their geometric order.

use segdb_bptree::{Record, RecordOrd};
use segdb_geom::Segment;
use segdb_pager::codec::{fixed, u32_at};
use segdb_pager::{ByteWriter, PageId, PagerError, Result, NULL_PAGE};
use segdb_pst::node::segment_from;
use segdb_pst::Side;
use std::cmp::Ordering;

/// One entry of a multislab list: a long fragment (represented by its
/// original segment — the clip to the multislab is implicit) plus the
/// fractional-cascading bridge pointers of §4.3.
///
/// This implementation keeps multislab lists **pure**: only real
/// fragments, every one of which spans the whole multislab, so every
/// pair is exactly comparable at every line of the multislab. The
/// paper's *augmented bridge fragments* are replaced by pointer fields
/// on the nearest preceding real element (see
/// `build_g_lists` in the parent module); DESIGN.md records why this keeps
/// the landing guarantee, and the `d`-property on the parent side only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MsRec {
    /// The original segment (fragment clip implied by the list's range).
    pub seg: Segment,
    /// Leaf page in the *left* child list where a downward search for
    /// this element's position lands ([`NULL_PAGE`] = no bridge here).
    pub bridge_left: PageId,
    /// Same, for the right child list.
    pub bridge_right: PageId,
}

impl MsRec {
    /// A fragment with no bridge pointers.
    pub fn real(seg: Segment) -> Self {
        MsRec {
            seg,
            bridge_left: NULL_PAGE,
            bridge_right: NULL_PAGE,
        }
    }
}

impl Record for MsRec {
    const ENCODED_SIZE: usize = 40 + 4 + 4;

    fn encode(&self, w: &mut ByteWriter<'_>) -> Result<()> {
        w.u64(self.seg.id)?;
        w.i64(self.seg.a.x)?;
        w.i64(self.seg.a.y)?;
        w.i64(self.seg.b.x)?;
        w.i64(self.seg.b.y)?;
        w.u32(self.bridge_left)?;
        w.u32(self.bridge_right)
    }

    fn read(bytes: &[u8]) -> Result<Self> {
        let b = fixed::<{ Self::ENCODED_SIZE }>(bytes)?;
        let seg = segment_from(b).map_err(|_| PagerError::Corrupt("invalid multislab segment"))?;
        Ok(MsRec {
            seg,
            bridge_left: u32_at(b, 40),
            bridge_right: u32_at(b, 44),
        })
    }
}

/// The list order: exact ordinate at the list's *reference line* (the
/// left outer boundary of the multislab), touching ties by slope (the
/// order just right of the line), then id.
///
/// For non-crossing fragments that all span the multislab, this order is
/// consistent with the ordinate order at **every** line of the multislab
/// (strictly at interior lines — two full-spanning fragments touching at
/// an interior point would have to cross), which is what makes the
/// intersected run contiguous and the §4.3 bridge merges line up across
/// levels.
#[derive(Debug, Clone, Copy)]
pub struct MsOrder {
    /// Reference line (left outer boundary of the multislab).
    pub line: i64,
}

impl MsOrder {
    /// Compare two fragments at an arbitrary line both span — bridge
    /// merges compare parent and child lists at the parent's split line.
    pub fn cmp_at(line: i64, a: &MsRec, b: &MsRec) -> Ordering {
        Side::Right.cmp_base(line, &a.seg, &b.seg)
    }
}

impl RecordOrd<MsRec> for MsOrder {
    fn cmp_records(&self, a: &MsRec, b: &MsRec) -> Ordering {
        MsOrder::cmp_at(self.line, a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, a: (i64, i64), b: (i64, i64)) -> MsRec {
        MsRec::real(Segment::new(id, a, b).unwrap())
    }

    #[test]
    fn roundtrip() {
        let mut r = rec(9, (0, 5), (100, 7));
        r.bridge_left = 42;
        r.bridge_right = 77;
        let mut buf = vec![0u8; MsRec::ENCODED_SIZE];
        r.encode(&mut ByteWriter::new(&mut buf)).unwrap();
        assert_eq!(MsRec::read(&buf).unwrap(), r);
        assert!(MsRec::read(&buf[..47]).is_err());
    }

    #[test]
    fn order_by_line_then_slope() {
        let o = MsOrder { line: 0 };
        let lo = rec(1, (0, 0), (100, 10));
        let hi = rec(2, (0, 5), (100, 6));
        assert_eq!(o.cmp_records(&lo, &hi), Ordering::Less);
        // Touching at the line: flatter first (order just right of it).
        let flat = rec(3, (0, 0), (100, 1));
        let steep = rec(4, (0, 0), (100, 50));
        assert_eq!(o.cmp_records(&flat, &steep), Ordering::Less);
    }

    #[test]
    fn order_consistent_across_lines() {
        // Non-crossing fragments spanning [0, 100]: order at 0 matches
        // order at 50 and 100.
        let a = rec(1, (-10, 0), (110, 20));
        let b = rec(2, (0, 5), (100, 30));
        for line in [0, 50, 100] {
            assert_eq!(MsOrder::cmp_at(line, &a, &b), Ordering::Less, "line {line}");
        }
    }

    #[test]
    fn bridge_fields_do_not_affect_order() {
        let o = MsOrder { line: 0 };
        let a = rec(1, (0, 0), (100, 10));
        let mut b = a;
        b.bridge_left = 99;
        assert_eq!(o.cmp_records(&a, &b), Ordering::Equal);
    }
}
