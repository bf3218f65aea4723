//! Database persistence: the superblock.
//!
//! A [`crate::SegmentDatabase`] saved to a persistent device writes its
//! identity — format version, fixed direction, index kind, index config
//! and root state — into the device's metadata area (the header page of
//! a [`segdb_pager::FileDevice`]). [`crate::SegmentDatabase::open`]
//! reads it back and re-attaches every structure without touching the
//! data pages.

use crate::anyquery::AnyQueryState;
use crate::interval2l::Interval2LConfig;
use segdb_geom::transform::Direction;
use segdb_pager::{ByteReader, ByteWriter, PageId, PagerError, Result};
use segdb_pst::PstConfig;

/// The on-disk format magic, and the only one `decode` reads: a
/// two-level index's `C` sets are counted B⁺-trees (a 16-byte state per
/// boundary), the superblock carries the WAL checkpoint (`wal_seq`) and
/// the tombstone chain stores full segments (geometry included), which
/// is what lets Count-mode queries subtract overlapping tombstones
/// without materializing. Older formats are refused by name rather than
/// misread: `003` kept each `C` set as an interval tree plus a B⁺-tree
/// of starts (a 28-byte state), and `001`/`002` (bare-id tombstone
/// chains, no checkpoint) were last written before the write path
/// existed.
const MAGIC: &[u8; 8] = b"SEGDB004";
const OLDER: &str = "database format SEGDB001/SEGDB002 (pre-v3) or SEGDB003 (interval-tree C \
     sets) is not supported: this build reads SEGDB004 only; rebuild the file from its segments";
const V3_ID_TOMBS: &str =
    "SEGDB004 superblock claims a pre-v3 id-format tombstone chain, which this build cannot read";
/// The index kind tag every superblock carries: the two-level interval
/// structure, whose stored `fanout` says which configuration it is.
const KIND_TWO_LEVEL: u8 = 2;
/// Kind tags of layouts this build no longer reads, each refused by
/// name: rebuild such a file from its segments.
const REMOVED_BINARY: &str = "SEGDB004 superblock holds the removed TwoLevelBinary layout \
     (kind tag 1): this build stores Solution 1 as the two-level interval index at fanout 1; \
     rebuild the file";
const REMOVED_FULL_SCAN: &str = "SEGDB004 superblock holds a FullScan baseline index \
     (kind tag 3), which databases no longer store; rebuild the file";
const REMOVED_STAB: &str = "SEGDB004 superblock holds a StabThenFilter baseline index \
     (kind tag 4), which databases no longer store; rebuild the file";
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
    /// The index config; `fanout: Some(1)` is Solution 1.
    pub cfg: Interval2LConfig,
    /// Root page of the index.
    pub root: PageId,
    /// Stored segment count.
    pub len: u64,
    /// Tombstone chain head, meaningless when `aux2` is 0.
    pub aux: PageId,
    /// Records in the tombstone chain, where a segment recorded an odd
    /// number of times is hidden; 0 means no chain, whatever `aux` says.
    pub aux2: u64,
    /// Optional arbitrary-direction query extension (§5 future work).
    pub any: Option<AnyQueryState>,
    /// Highest WAL sequence number folded into the index (the write
    /// path's checkpoint; replay skips records at or below it).
    pub wal_seq: u64,
}

/// A config value as stored; a page-size default (`None`) is 0.
fn stored(v: usize) -> Result<u32> {
    u32::try_from(v).map_err(|_| PagerError::Corrupt("config value out of range"))
}

fn zero_none(v: u32) -> Option<usize> {
    (v != 0).then_some(v as usize)
}

impl Superblock {
    /// Serialize into a metadata blob.
    pub fn encode(&self) -> Result<Vec<u8>> {
        let mut buf = vec![0u8; SUPERBLOCK_SIZE];
        let mut w = ByteWriter::new(&mut buf);
        w.skip(8)?; // magic, written below
        w.i64(self.direction.0)?;
        w.i64(self.direction.1)?;
        w.u8(KIND_TWO_LEVEL)?;
        w.u32(self.root)?;
        w.u64(self.len)?;
        w.u32(self.aux)?;
        w.u64(self.aux2)?;
        w.u32(stored(self.cfg.pst.fanout.unwrap_or(0))?)?;
        w.u32(stored(self.cfg.fanout.unwrap_or(0))?)?;
        w.u32(stored(self.cfg.bridge_d)?)?;
        w.u8(u8::from(self.cfg.bridges))?;
        w.u64(self.cfg.rebuild_min)?;
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
    /// format is refused — an older magic or a removed index layout with
    /// a message that names it.
    pub fn decode(buf: &[u8]) -> Result<Superblock> {
        match buf.get(..8) {
            Some(magic) if magic == MAGIC => {}
            Some(b"SEGDB001" | b"SEGDB002" | b"SEGDB003") => {
                return Err(PagerError::Corrupt(OLDER))
            }
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
        let direction = (r.i64()?, r.i64()?);
        match r.u8()? {
            KIND_TWO_LEVEL => {}
            1 => return Err(PagerError::Corrupt(REMOVED_BINARY)),
            3 => return Err(PagerError::Corrupt(REMOVED_FULL_SCAN)),
            4 => return Err(PagerError::Corrupt(REMOVED_STAB)),
            _ => return Err(PagerError::Corrupt("unknown index kind in superblock")),
        }
        let (root, len, aux, aux2) = (r.u32()?, r.u64()?, r.u32()?, r.u64()?);
        Ok(Superblock {
            direction,
            root,
            len,
            aux,
            aux2,
            cfg: Interval2LConfig {
                pst: PstConfig {
                    fanout: zero_none(r.u32()?),
                },
                fanout: zero_none(r.u32()?),
                bridge_d: r.u32()? as usize,
                bridges: r.u8()? != 0,
                rebuild_min: r.u64()?,
            },
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
}

#[cfg(test)]
mod tests {
    use super::*;

    fn superblock(cfg: Interval2LConfig) -> Superblock {
        Superblock {
            direction: (-3, 7),
            cfg,
            root: 42,
            len: 1000,
            aux: 7,
            aux2: 9,
            any: None,
            wal_seq: 777,
        }
    }

    /// Offset of the index kind tag: after the magic and the direction.
    const KIND_AT: usize = 8 + 16;

    #[test]
    fn roundtrip() {
        for cfg in [
            Interval2LConfig::default(),
            Interval2LConfig {
                pst: PstConfig::binary(),
                fanout: Some(16),
                bridge_d: 4,
                bridges: false,
                rebuild_min: 8,
            },
            crate::IndexKind::TwoLevelBinary.config(),
        ] {
            let sb = superblock(cfg);
            let buf = sb.encode().unwrap();
            assert_eq!(buf[KIND_AT], KIND_TWO_LEVEL);
            assert_eq!(Superblock::decode(&buf).unwrap(), sb);
            assert!(sb.direction_obj().is_ok());
        }
    }

    #[test]
    fn bad_magic_rejected() {
        assert!(Superblock::decode(&[0u8; SUPERBLOCK_SIZE]).is_err());
        assert!(Superblock::decode(b"short").is_err());
    }

    #[test]
    fn older_formats_are_refused_by_name() {
        let sb = superblock(Interval2LConfig::default());
        let good = sb.encode().unwrap();
        assert_eq!(&good[..8], MAGIC);
        assert_eq!(good[TOMB_FORMAT_AT], 1);
        for magic in [b"SEGDB001", b"SEGDB002"] {
            let mut old = good.clone();
            old[..8].copy_from_slice(magic);
            // Pre-v3 saves were 9 bytes shorter; either length is refused
            // for its version, not as garbage.
            for blob in [&old[..], &old[..SUPERBLOCK_SIZE - 9]] {
                assert_eq!(Superblock::decode(blob), Err(PagerError::Corrupt(OLDER)));
            }
        }
        // A v3 blob: the same superblock over `C` sets of the old layout.
        let mut v3 = good.clone();
        v3[..8].copy_from_slice(b"SEGDB003");
        assert_eq!(Superblock::decode(&v3), Err(PagerError::Corrupt(OLDER)));
        // A blob saved over a still-attached id-format chain, as the
        // builds that read those chains wrote it (flag byte 0).
        let mut ids = good.clone();
        ids[TOMB_FORMAT_AT] = 0;
        assert_eq!(
            Superblock::decode(&ids),
            Err(PagerError::Corrupt(V3_ID_TOMBS))
        );
        assert_eq!(Superblock::decode(&good).unwrap(), sb);
    }

    /// The separate Solution-1 layout and the two baselines were stored
    /// under kind tags 1, 3 and 4: each is refused with a message that
    /// names it, never read as the two-level layout.
    #[test]
    fn removed_layouts_are_refused_by_name() {
        let good = superblock(Interval2LConfig::default()).encode().unwrap();
        for (tag, name) in [
            (1u8, "TwoLevelBinary"),
            (3, "FullScan"),
            (4, "StabThenFilter"),
        ] {
            let mut old = good.clone();
            old[KIND_AT] = tag;
            match Superblock::decode(&old) {
                Err(PagerError::Corrupt(why)) => {
                    assert!(why.contains(name), "tag {tag}: {why}");
                    assert!(why.contains(&format!("kind tag {tag}")), "tag {tag}: {why}");
                }
                other => panic!("tag {tag}: {other:?}"),
            }
        }
        let mut unknown = good.clone();
        unknown[KIND_AT] = 9;
        assert!(Superblock::decode(&unknown).is_err());
    }
}
