//! Interval records and the orders their lists are kept in.

use segdb_bptree::{Record, RecordOrd};
use segdb_pager::codec::{fixed, i64_at, u16_at, u64_at};
use segdb_pager::{ByteWriter, Result};
use std::cmp::Ordering;

/// A closed 1-D interval `[lo, hi]` with a payload id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Interval {
    /// Left endpoint (inclusive). `lo ≤ hi`.
    pub lo: i64,
    /// Right endpoint (inclusive).
    pub hi: i64,
    /// Payload (segment id).
    pub id: u64,
}

impl Interval {
    /// Construct, normalizing endpoint order.
    pub fn new(id: u64, a: i64, b: i64) -> Self {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        Interval { lo, hi, id }
    }

    /// The stored form `[lo][hi][id]` read back from the first 24 bytes
    /// of a length-checked record image, as is — like the decoder, no
    /// normalization.
    pub(crate) fn from_le_bytes(b: &[u8]) -> Self {
        Interval {
            lo: i64_at(b, 0),
            hi: i64_at(b, 8),
            id: u64_at(b, 16),
        }
    }

    /// Closed stabbing test.
    #[inline]
    pub fn contains(&self, x: i64) -> bool {
        self.lo <= x && x <= self.hi
    }

    /// Closed overlap test.
    #[inline]
    pub fn overlaps(&self, lo: i64, hi: i64) -> bool {
        self.lo <= hi && lo <= self.hi
    }
}

/// An interval tagged with the slab (or linearized multislab) index it is
/// filed under inside one interval-tree node. The tag is the B⁺-tree's
/// primary sort dimension, so one tree holds all slabs' lists with each
/// list contiguous at the leaf level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaggedInterval {
    /// Slab index (stub lists) or linearized multislab index.
    pub tag: u16,
    /// The interval.
    pub iv: Interval,
}

impl Record for TaggedInterval {
    const ENCODED_SIZE: usize = 2 + 8 + 8 + 8;
    fn encode(&self, w: &mut ByteWriter<'_>) -> Result<()> {
        w.u16(self.tag)?;
        w.i64(self.iv.lo)?;
        w.i64(self.iv.hi)?;
        w.u64(self.iv.id)
    }
    fn read(bytes: &[u8]) -> Result<Self> {
        let b = fixed::<{ Self::ENCODED_SIZE }>(bytes)?;
        Ok(TaggedInterval {
            tag: u16_at(b, 0),
            iv: Interval::from_le_bytes(&b[2..]),
        })
    }
}

impl Record for Interval {
    const ENCODED_SIZE: usize = 24;
    fn encode(&self, w: &mut ByteWriter<'_>) -> Result<()> {
        w.i64(self.lo)?;
        w.i64(self.hi)?;
        w.u64(self.id)
    }
    fn read(bytes: &[u8]) -> Result<Self> {
        Ok(Interval::from_le_bytes(fixed::<24>(bytes)?))
    }
}

/// Left-list order: `(tag, lo, id)` ascending — a stab at `x` scans the
/// slab's prefix while `lo ≤ x`.
#[derive(Debug, Default, Clone, Copy)]
pub struct LeftOrder;

impl RecordOrd<TaggedInterval> for LeftOrder {
    fn cmp_records(&self, a: &TaggedInterval, b: &TaggedInterval) -> Ordering {
        (a.tag, a.iv.lo, a.iv.id).cmp(&(b.tag, b.iv.lo, b.iv.id))
    }
}

/// Right-list order: `(tag, −hi, id)` — a stab at `x` scans the slab's
/// prefix while `hi ≥ x`.
#[derive(Debug, Default, Clone, Copy)]
pub struct RightOrder;

impl RecordOrd<TaggedInterval> for RightOrder {
    fn cmp_records(&self, a: &TaggedInterval, b: &TaggedInterval) -> Ordering {
        (a.tag, std::cmp::Reverse(a.iv.hi), a.iv.id).cmp(&(
            b.tag,
            std::cmp::Reverse(b.iv.hi),
            b.iv.id,
        ))
    }
}

/// Multislab order: `(tag, id)` — every record of a spanning multislab is
/// reported, so only contiguity matters.
#[derive(Debug, Default, Clone, Copy)]
pub struct MslabOrder;

impl RecordOrd<TaggedInterval> for MslabOrder {
    fn cmp_records(&self, a: &TaggedInterval, b: &TaggedInterval) -> Ordering {
        (a.tag, a.iv.id).cmp(&(b.tag, b.iv.id))
    }
}

/// Plain `(lo, id)` order for the [`crate::overlap::IntervalSet`] start
/// index.
#[derive(Debug, Default, Clone, Copy)]
pub struct StartOrder;

impl RecordOrd<Interval> for StartOrder {
    fn cmp_records(&self, a: &Interval, b: &Interval) -> Ordering {
        (a.lo, a.id).cmp(&(b.lo, b.id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_normalizes_and_tests() {
        let iv = Interval::new(5, 9, 2);
        assert_eq!((iv.lo, iv.hi), (2, 9));
        assert!(iv.contains(2) && iv.contains(9) && iv.contains(5));
        assert!(!iv.contains(1) && !iv.contains(10));
        assert!(iv.overlaps(9, 20) && iv.overlaps(-5, 2) && iv.overlaps(4, 5));
        assert!(!iv.overlaps(10, 20) && !iv.overlaps(-5, 1));
    }

    #[test]
    fn tagged_roundtrip() {
        let t = TaggedInterval {
            tag: 300,
            iv: Interval::new(1, -5, 5),
        };
        let mut buf = vec![0u8; TaggedInterval::ENCODED_SIZE];
        t.encode(&mut ByteWriter::new(&mut buf)).unwrap();
        assert_eq!(TaggedInterval::read(&buf).unwrap(), t);
        assert_eq!(Interval::read(&buf[2..]).unwrap(), t.iv);
        assert!(TaggedInterval::read(&buf[1..]).is_err());
    }

    #[test]
    fn orders() {
        let a = TaggedInterval {
            tag: 1,
            iv: Interval::new(1, 0, 10),
        };
        let b = TaggedInterval {
            tag: 1,
            iv: Interval::new(2, 3, 8),
        };
        assert_eq!(LeftOrder.cmp_records(&a, &b), Ordering::Less); // lo 0 < 3
        assert_eq!(RightOrder.cmp_records(&a, &b), Ordering::Less); // hi 10 > 8 → first
        let c = TaggedInterval {
            tag: 0,
            iv: Interval::new(9, 100, 200),
        };
        assert_eq!(LeftOrder.cmp_records(&c, &a), Ordering::Less); // tag dominates
        assert_eq!(MslabOrder.cmp_records(&a, &b), Ordering::Less); // id 1 < 2
    }
}
