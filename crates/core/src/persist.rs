//! Database persistence: the superblock.
//!
//! A [`crate::SegmentDatabase`] saved to a persistent device writes its
//! identity — format version, fixed direction, index kind, index config
//! and root state — into the device's metadata area (the header page of
//! a [`segdb_pager::FileDevice`]). [`crate::SegmentDatabase::open`]
//! reads it back and re-attaches every structure without touching the
//! data pages.

use crate::anyquery::AnyQueryState;
use crate::binary2l::Binary2LConfig;
use crate::interval2l::Interval2LConfig;
use crate::IndexKind;
use segdb_geom::transform::Direction;
use segdb_pager::{ByteReader, ByteWriter, PageId, PagerError, Result};
use segdb_pst::PstConfig;

/// The on-disk format magic, and the only one `decode` reads: the
/// superblock carries the WAL checkpoint (`wal_seq`) and a two-level
/// index's tombstone chain stores full segments (geometry included),
/// which is what lets Count-mode queries subtract overlapping
/// tombstones without materializing. The `001`/`002` formats (bare-id
/// tombstone chains, no checkpoint) were last written before the write
/// path existed and are refused by name rather than misread.
const MAGIC: &[u8; 8] = b"SEGDB003";
const PRE_V3: &str =
    "database format SEGDB001/SEGDB002 (pre-v3) is not supported: this build reads SEGDB003 only";
const V3_ID_TOMBS: &str =
    "SEGDB003 superblock claims a pre-v3 id-format tombstone chain, which this build cannot read";
/// Superblock buffer size (well under any page's metadata area). The
/// trailing 9 bytes are the tombstone-format byte (always 1: full
/// segments) and `wal_seq`.
pub const SUPERBLOCK_SIZE: usize = 88 + 1 + AnyQueryState::ENCODED_SIZE + 9;
/// Offset of the tombstone-format byte.
const TOMB_FORMAT_AT: usize = SUPERBLOCK_SIZE - 9;

/// Everything needed to re-open a database.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Superblock {
    /// Fixed query direction.
    pub direction: (i64, i64),
    /// Which index backs the database.
    pub kind: IndexKind,
    /// Root page of the index (interpretation depends on `kind`).
    pub root: PageId,
    /// Stored segment count.
    pub len: u64,
    /// Extra root (StabThenFilter: segment chain; either two-level
    /// structure: tombstone chain head, meaningless when `aux2` is 0).
    pub aux: PageId,
    /// Extra counter (either two-level structure: records in the
    /// tombstone chain, where a segment recorded an odd number of times
    /// is hidden; 0 means no chain, whatever `aux` says).
    pub aux2: u64,
    /// PST fanout (0 = packed default).
    pub pst_fanout: u32,
    /// First-level fanout for Solution 2 (0 = page default).
    pub fanout: u32,
    /// Bridge density `d`.
    pub bridge_d: u32,
    /// Bridges enabled.
    pub bridges: bool,
    /// Weight-rebuild threshold.
    pub rebuild_min: u64,
    /// Optional arbitrary-direction query extension (§5 future work).
    pub any: Option<AnyQueryState>,
    /// Highest WAL sequence number folded into the index (the write
    /// path's checkpoint; replay skips records at or below it).
    pub wal_seq: u64,
}

fn kind_tag(kind: IndexKind) -> u8 {
    match kind {
        IndexKind::TwoLevelBinary => 1,
        IndexKind::TwoLevelInterval => 2,
        IndexKind::FullScan => 3,
        IndexKind::StabThenFilter => 4,
    }
}

fn kind_from(tag: u8) -> Result<IndexKind> {
    Ok(match tag {
        1 => IndexKind::TwoLevelBinary,
        2 => IndexKind::TwoLevelInterval,
        3 => IndexKind::FullScan,
        4 => IndexKind::StabThenFilter,
        _ => return Err(PagerError::Corrupt("unknown index kind in superblock")),
    })
}

impl Superblock {
    /// Serialize into a metadata blob.
    pub fn encode(&self) -> Result<Vec<u8>> {
        let mut buf = vec![0u8; SUPERBLOCK_SIZE];
        let mut w = ByteWriter::new(&mut buf);
        w.skip(8)?; // magic, written below
        w.i64(self.direction.0)?;
        w.i64(self.direction.1)?;
        w.u8(kind_tag(self.kind))?;
        w.u32(self.root)?;
        w.u64(self.len)?;
        w.u32(self.aux)?;
        w.u64(self.aux2)?;
        w.u32(self.pst_fanout)?;
        w.u32(self.fanout)?;
        w.u32(self.bridge_d)?;
        w.u8(u8::from(self.bridges))?;
        w.u64(self.rebuild_min)?;
        match &self.any {
            None => w.u8(0)?,
            Some(a) => {
                w.u8(1)?;
                a.encode(&mut w)?;
            }
        }
        // The tail fields live at fixed offsets (the `any` encoding is
        // variable-length, so positional writing would move them).
        buf[TOMB_FORMAT_AT] = 1;
        buf[TOMB_FORMAT_AT + 1..].copy_from_slice(&self.wal_seq.to_le_bytes());
        buf[..8].copy_from_slice(MAGIC);
        Ok(buf)
    }

    /// Deserialize from a metadata blob. Anything but the current
    /// format is refused — a pre-v3 magic with a message that names it.
    pub fn decode(buf: &[u8]) -> Result<Superblock> {
        match buf.get(..8) {
            Some(magic) if magic == MAGIC => {}
            Some(b"SEGDB001" | b"SEGDB002") => return Err(PagerError::Corrupt(PRE_V3)),
            _ => return Err(PagerError::Corrupt("bad database superblock")),
        }
        if buf.len() < SUPERBLOCK_SIZE {
            return Err(PagerError::Corrupt("bad database superblock"));
        }
        if buf[TOMB_FORMAT_AT] != 1 {
            return Err(PagerError::Corrupt(V3_ID_TOMBS));
        }
        let mut r = ByteReader::new(buf);
        r.skip(8)?;
        Ok(Superblock {
            direction: (r.i64()?, r.i64()?),
            kind: kind_from(r.u8()?)?,
            root: r.u32()?,
            len: r.u64()?,
            aux: r.u32()?,
            aux2: r.u64()?,
            pst_fanout: r.u32()?,
            fanout: r.u32()?,
            bridge_d: r.u32()?,
            bridges: r.u8()? != 0,
            rebuild_min: r.u64()?,
            any: if r.u8()? == 1 {
                Some(AnyQueryState::decode(&mut r)?)
            } else {
                None
            },
            wal_seq: u64::from_le_bytes(
                buf[TOMB_FORMAT_AT + 1..SUPERBLOCK_SIZE].try_into().unwrap(),
            ),
        })
    }

    /// The direction object (validated).
    pub fn direction_obj(&self) -> Result<Direction> {
        Direction::new(self.direction.0, self.direction.1)
            .map_err(|_| PagerError::Corrupt("bad direction in superblock"))
    }

    /// The PST config this superblock records.
    pub fn pst_config(&self) -> PstConfig {
        if self.pst_fanout == 0 {
            PstConfig::packed()
        } else {
            PstConfig {
                fanout: Some(self.pst_fanout as usize),
            }
        }
    }

    /// The Solution-1 config this superblock records.
    pub fn binary_config(&self) -> Binary2LConfig {
        Binary2LConfig {
            pst: self.pst_config(),
            rebuild_min: self.rebuild_min,
        }
    }

    /// The Solution-2 config this superblock records.
    pub fn interval_config(&self) -> Interval2LConfig {
        Interval2LConfig {
            pst: self.pst_config(),
            fanout: if self.fanout == 0 {
                None
            } else {
                Some(self.fanout as usize)
            },
            bridge_d: self.bridge_d as usize,
            bridges: self.bridges,
            rebuild_min: self.rebuild_min,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let sb = Superblock {
            direction: (-3, 7),
            kind: IndexKind::TwoLevelInterval,
            root: 42,
            len: 1000,
            aux: 7,
            aux2: 9,
            pst_fanout: 0,
            fanout: 16,
            bridge_d: 4,
            bridges: true,
            rebuild_min: 32,
            any: None,
            wal_seq: 777,
        };
        let buf = sb.encode().unwrap();
        assert_eq!(Superblock::decode(&buf).unwrap(), sb);
        assert!(sb.direction_obj().is_ok());
        assert_eq!(sb.interval_config().bridge_d, 4);
    }

    #[test]
    fn bad_magic_rejected() {
        assert!(Superblock::decode(&[0u8; SUPERBLOCK_SIZE]).is_err());
        assert!(Superblock::decode(b"short").is_err());
    }

    #[test]
    fn older_formats_are_refused_by_name() {
        let sb = Superblock {
            direction: (0, 1),
            kind: IndexKind::TwoLevelInterval,
            root: 5,
            len: 10,
            aux: 3,
            aux2: 2,
            pst_fanout: 0,
            fanout: 0,
            bridge_d: 2,
            bridges: true,
            rebuild_min: 32,
            any: None,
            wal_seq: 123,
        };
        let good = sb.encode().unwrap();
        assert_eq!(&good[..8], MAGIC);
        assert_eq!(good[TOMB_FORMAT_AT], 1);
        for magic in [b"SEGDB001", b"SEGDB002"] {
            let mut old = good.clone();
            old[..8].copy_from_slice(magic);
            // Pre-v3 saves were 9 bytes shorter; either length is refused
            // for its version, not as garbage.
            for blob in [&old[..], &old[..SUPERBLOCK_SIZE - 9]] {
                assert_eq!(Superblock::decode(blob), Err(PagerError::Corrupt(PRE_V3)));
            }
        }
        // A v3 blob saved over a still-attached id-format chain, as the
        // builds that read those chains wrote it (flag byte 0).
        let mut ids = good.clone();
        ids[TOMB_FORMAT_AT] = 0;
        assert_eq!(
            Superblock::decode(&ids),
            Err(PagerError::Corrupt(V3_ID_TOMBS))
        );
        assert_eq!(Superblock::decode(&good).unwrap(), sb);
    }

    #[test]
    fn all_kinds_roundtrip() {
        for kind in [
            IndexKind::TwoLevelBinary,
            IndexKind::TwoLevelInterval,
            IndexKind::FullScan,
            IndexKind::StabThenFilter,
        ] {
            let sb = Superblock {
                direction: (0, 1),
                kind,
                root: 1,
                len: 2,
                aux: 3,
                aux2: 0,
                pst_fanout: 2,
                fanout: 0,
                bridge_d: 2,
                bridges: false,
                rebuild_min: 8,
                any: None,
                wal_seq: 0,
            };
            assert_eq!(
                Superblock::decode(&sb.encode().unwrap()).unwrap().kind,
                kind
            );
        }
    }
}
