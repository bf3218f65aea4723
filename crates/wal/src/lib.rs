//! Append-only write-ahead log for the segdb write path.
//!
//! The log owns a whole [`Device`] and arranges it as a forward-linked
//! page chain: `[next+1: u32][frames...]` per page, where each frame is
//! `[len: u16][crc32: u32][payload: len]`. A payload carries one logical
//! write — `[seq: u64][req_id: u64][kind: u8][segment: 40 bytes]` — so a
//! record is self-describing and the log needs no external length
//! metadata. The device meta block stores `[b"SEGWAL01"][head+1: u32]`.
//!
//! Durability follows the classic group-commit protocol: appends are
//! written to the device immediately but `sync` is deferred until either
//! `group_window` records accumulate or the caller forces a [`Wal::flush`].
//! A crash can therefore lose at most the unsynced tail of the window —
//! exactly the records the server has not yet acknowledged.
//!
//! Crash safety relies on two invariants rather than on atomic page
//! writes:
//!
//! 1. **Append-only page images.** A page rewrite only ever extends the
//!    previous image (same byte prefix), so a torn write — which keeps a
//!    prefix of the new image and leaves the rest of the sector as it
//!    was — can corrupt only bytes past the last durable frame.
//! 2. **Self-verifying replay.** [`Wal::open`] walks the chain and stops
//!    at the first frame that fails its CRC, decodes to garbage, or
//!    breaks strict `seq` monotonicity (a recycled page full of stale
//!    frames always trips the latter). Everything before the stop point
//!    is returned in order; everything after is discarded and will be
//!    overwritten by subsequent appends.

use segdb_geom::{Point, Segment};
use segdb_pager::{ByteReader, ByteWriter, Device, PageId, PagerError, Result, NULL_PAGE};
use std::sync::Arc;

/// Device meta magic for a WAL device.
pub const WAL_MAGIC: &[u8; 8] = b"SEGWAL01";

/// Per-page header: `next+1` (0 = no next page).
const PAGE_HEADER: usize = 4;
/// Frame header: `len: u16` + `crc32: u32`.
const FRAME_HEADER: usize = 6;
/// Payload: seq + req_id + kind + encoded segment.
const PAYLOAD: usize = 8 + 8 + 1 + 40;
/// Full frame size for one record.
const FRAME: usize = FRAME_HEADER + PAYLOAD;

const KIND_INSERT: u8 = 1;
const KIND_DELETE: u8 = 2;

/// One logical write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalOp {
    /// Add a segment to the database.
    Insert(Segment),
    /// Remove a segment (full geometry kept so recovery and tombstone
    /// accounting never need to consult the index for the victim).
    Delete(Segment),
}

impl WalOp {
    /// The segment this op applies to.
    pub fn segment(&self) -> &Segment {
        match self {
            WalOp::Insert(s) | WalOp::Delete(s) => s,
        }
    }
}

/// A replayed (or appended) record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalRecord {
    /// Strictly-increasing log sequence number.
    pub seq: u64,
    /// Client request id — the idempotence key for retried writes.
    pub req_id: u64,
    /// The logical write.
    pub op: WalOp,
}

/// Monotonic counters the server surfaces under `stats.writer`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Frame bytes appended over the log's lifetime (not reset by
    /// truncation).
    pub bytes: u64,
    /// Records appended.
    pub records: u64,
    /// Device syncs issued (each one retires a group-commit window).
    pub group_commits: u64,
    /// Times the log was truncated after a checkpoint.
    pub resets: u64,
}

/// The CRC-32 (IEEE 802.3, reflected) polynomial.
const CRC_POLY: u32 = 0xEDB8_8320;

/// `CRC_TABLE[b]` is the CRC register after shifting the byte `b` through
/// eight rounds of the bitwise algorithm, computed at compile time.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut round = 0;
        while round < 8 {
            crc = (crc >> 1) ^ (CRC_POLY & (crc & 1).wrapping_neg());
            round += 1;
        }
        table[b] = crc;
        b += 1;
    }
    table
};

/// CRC-32 (IEEE 802.3, reflected) — the frame checksum, one table
/// lookup per byte.
pub fn crc32(data: &[u8]) -> u32 {
    !data.iter().fold(!0u32, |crc, &b| {
        (crc >> 8) ^ CRC_TABLE[((crc ^ u32::from(b)) & 0xFF) as usize]
    })
}

/// The append-only log. Single-writer: callers serialize access (the
/// write engine holds it behind its writer mutex).
pub struct Wal {
    dev: Box<dyn Device>,
    /// Records per group-commit window (1 = sync every append).
    window: usize,
    head: PageId,
    tail: PageId,
    /// Image of the tail page (prefix-stable append target), shared with
    /// the device after each write; an append edits it through
    /// `Arc::make_mut`, which copies only while the device still holds it.
    tail_buf: Arc<[u8]>,
    /// Offset of the next free byte in `tail_buf`.
    tail_used: usize,
    last_seq: u64,
    /// Appends since the last sync.
    pending: usize,
    dirty: bool,
    stats: WalStats,
}

fn encode_payload(rec: &WalRecord, buf: &mut [u8]) -> Result<()> {
    let mut w = ByteWriter::new(buf);
    w.u64(rec.seq)?;
    w.u64(rec.req_id)?;
    let (kind, s) = match &rec.op {
        WalOp::Insert(s) => (KIND_INSERT, s),
        WalOp::Delete(s) => (KIND_DELETE, s),
    };
    w.u8(kind)?;
    w.u64(s.id)?;
    w.i64(s.a.x)?;
    w.i64(s.a.y)?;
    w.i64(s.b.x)?;
    w.i64(s.b.y)?;
    Ok(())
}

fn decode_payload(buf: &[u8]) -> Result<WalRecord> {
    let mut r = ByteReader::new(buf);
    let seq = r.u64()?;
    let req_id = r.u64()?;
    let kind = r.u8()?;
    let id = r.u64()?;
    let a = Point::new(r.i64()?, r.i64()?);
    let b = Point::new(r.i64()?, r.i64()?);
    let seg = Segment::new(id, a, b).map_err(|_| PagerError::Corrupt("wal: invalid segment"))?;
    let op = match kind {
        KIND_INSERT => WalOp::Insert(seg),
        KIND_DELETE => WalOp::Delete(seg),
        _ => return Err(PagerError::Corrupt("wal: unknown record kind")),
    };
    Ok(WalRecord { seq, req_id, op })
}

impl Wal {
    /// Start a fresh, empty log on `dev` (overwrites any meta already
    /// there). `group_window` is clamped to at least 1.
    pub fn create(dev: Box<dyn Device>, group_window: usize) -> Result<Self> {
        let mut wal = Wal {
            dev,
            window: group_window.max(1),
            head: NULL_PAGE,
            tail: NULL_PAGE,
            tail_buf: Arc::from([]),
            tail_used: 0,
            last_seq: 0,
            pending: 0,
            dirty: false,
            stats: WalStats::default(),
        };
        if wal.dev.page_size() < PAGE_HEADER + FRAME {
            return Err(PagerError::Corrupt("wal: page size too small"));
        }
        wal.write_meta()?;
        wal.dev.sync()?;
        Ok(wal)
    }

    /// Open a log, replaying every durable record in append order.
    ///
    /// Replay is total: a torn tail, an unreadable page, or stale frames
    /// on a recycled page end the replay at the last verified record
    /// instead of erroring — that is the crash contract.
    pub fn open(dev: Box<dyn Device>, group_window: usize) -> Result<(Self, Vec<WalRecord>)> {
        let page_size = dev.page_size();
        if page_size < PAGE_HEADER + FRAME {
            return Err(PagerError::Corrupt("wal: page size too small"));
        }
        let head = match dev.get_meta() {
            Ok(meta) if meta.len() >= 12 && &meta[..8] == WAL_MAGIC => {
                let plus_one = u32::from_le_bytes([meta[8], meta[9], meta[10], meta[11]]);
                if plus_one == 0 {
                    NULL_PAGE
                } else {
                    plus_one - 1
                }
            }
            // No (or foreign) meta: treat as a fresh log.
            _ => NULL_PAGE,
        };
        let mut wal = Wal {
            dev,
            window: group_window.max(1),
            head,
            tail: NULL_PAGE,
            tail_buf: Arc::from([]),
            tail_used: 0,
            last_seq: 0,
            pending: 0,
            dirty: false,
            stats: WalStats::default(),
        };
        let mut records = Vec::new();
        let mut page = head;
        let mut stopped = false;
        // A chain longer than the device holds pages loops back on
        // itself: a torn link, so the walk ends there.
        let mut budget = wal.dev.capacity_pages();
        while page != NULL_PAGE && !stopped {
            if budget == 0 {
                stopped = true;
                break;
            }
            budget -= 1;
            let Ok(buf) = wal.dev.read(page) else {
                // The link was written but the page never became durable.
                break;
            };
            let next_plus_one = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]);
            let mut off = PAGE_HEADER;
            let mut valid_end = PAGE_HEADER;
            loop {
                if page_size - off < FRAME_HEADER {
                    break;
                }
                let len = u16::from_le_bytes([buf[off], buf[off + 1]]) as usize;
                if len == 0 {
                    break; // zero marker: no more frames on this page
                }
                if len > page_size - off - FRAME_HEADER {
                    stopped = true; // torn frame header
                    break;
                }
                let crc =
                    u32::from_le_bytes([buf[off + 2], buf[off + 3], buf[off + 4], buf[off + 5]]);
                let payload = &buf[off + FRAME_HEADER..off + FRAME_HEADER + len];
                if crc32(payload) != crc {
                    stopped = true; // torn payload
                    break;
                }
                let rec = match decode_payload(payload) {
                    Ok(r) => r,
                    Err(_) => {
                        stopped = true;
                        break;
                    }
                };
                if rec.seq <= wal.last_seq {
                    stopped = true; // stale frame from a recycled page
                    break;
                }
                wal.last_seq = rec.seq;
                records.push(rec);
                off += FRAME_HEADER + len;
                valid_end = off;
            }
            // Remember the furthest verified position: appends resume here.
            wal.tail = page;
            wal.tail_buf = buf;
            // Scrub unverified bytes so they are never re-persisted.
            Arc::make_mut(&mut wal.tail_buf)[valid_end..].fill(0);
            wal.tail_used = valid_end;
            page = if next_plus_one == 0 {
                NULL_PAGE
            } else {
                next_plus_one - 1
            };
        }
        if stopped && wal.tail != NULL_PAGE {
            // Drop the forward link past the torn point: the chain now
            // ends at the verified tail and appends overwrite from here.
            Arc::make_mut(&mut wal.tail_buf)[..PAGE_HEADER].fill(0);
        }
        wal.stats.records = records.len() as u64;
        Ok((wal, records))
    }

    fn write_meta(&mut self) -> Result<()> {
        let mut meta = [0u8; 12];
        meta[..8].copy_from_slice(WAL_MAGIC);
        let plus_one = if self.head == NULL_PAGE {
            0
        } else {
            self.head + 1
        };
        meta[8..12].copy_from_slice(&plus_one.to_le_bytes());
        self.dev.set_meta(&meta)
    }

    /// Append one record; returns its sequence number. The record is
    /// durable once the group-commit window closes (or [`Wal::flush`]).
    pub fn append(&mut self, req_id: u64, op: WalOp) -> Result<u64> {
        let seq = self.last_seq + 1;
        let rec = WalRecord { seq, req_id, op };
        let page_size = self.dev.page_size();
        if self.tail == NULL_PAGE || self.tail_used + FRAME > page_size {
            // Grow the chain: fresh page becomes the new tail.
            let page = self.dev.allocate()?;
            let fresh: Arc<[u8]> = vec![0u8; page_size].into();
            // Write the zeroed image first so a recycled page can never
            // replay stale frames ahead of the link update.
            self.dev.write(page, Arc::clone(&fresh))?;
            if self.tail == NULL_PAGE {
                self.head = page;
                self.write_meta()?;
            } else {
                Arc::make_mut(&mut self.tail_buf)[..PAGE_HEADER]
                    .copy_from_slice(&(page + 1).to_le_bytes());
                let old = self.tail;
                self.dev.write(old, Arc::clone(&self.tail_buf))?;
            }
            self.tail = page;
            self.tail_buf = fresh;
            self.tail_used = PAGE_HEADER;
        }
        let off = self.tail_used;
        let buf = Arc::make_mut(&mut self.tail_buf);
        buf[off..off + 2].copy_from_slice(&(PAYLOAD as u16).to_le_bytes());
        let payload = &mut buf[off + FRAME_HEADER..off + FRAME_HEADER + PAYLOAD];
        encode_payload(&rec, payload)?;
        let crc = crc32(payload);
        buf[off + 2..off + 6].copy_from_slice(&crc.to_le_bytes());
        self.tail_used = off + FRAME;
        self.dev.write(self.tail, Arc::clone(&self.tail_buf))?;
        self.last_seq = seq;
        self.stats.bytes += FRAME as u64;
        self.stats.records += 1;
        self.pending += 1;
        self.dirty = true;
        if self.pending >= self.window {
            self.sync_now()?;
        }
        Ok(seq)
    }

    fn sync_now(&mut self) -> Result<()> {
        self.dev.sync()?;
        self.pending = 0;
        self.dirty = false;
        self.stats.group_commits += 1;
        Ok(())
    }

    /// Force-sync any unsynced appends (no-op when clean).
    pub fn flush(&mut self) -> Result<()> {
        if self.dirty {
            self.sync_now()?;
        }
        Ok(())
    }

    /// Truncate the log after its contents were folded into the index
    /// and the fold was checkpointed. Sequence numbers keep counting —
    /// monotonicity across resets is what lets replay reject stale
    /// frames on recycled pages.
    pub fn reset(&mut self) -> Result<()> {
        let mut page = self.head;
        // Bounded as in `open`: a looping chain is torn, not endless.
        for _ in 0..self.dev.capacity_pages() {
            if page == NULL_PAGE {
                break;
            }
            let next = if let Ok(buf) = self.dev.read(page) {
                let plus_one = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]);
                if plus_one == 0 {
                    NULL_PAGE
                } else {
                    plus_one - 1
                }
            } else {
                NULL_PAGE
            };
            // Best-effort: after a crash the allocator may already
            // consider the page free.
            let _ = self.dev.free(page);
            page = next;
        }
        self.head = NULL_PAGE;
        self.tail = NULL_PAGE;
        self.tail_buf = Arc::from([]);
        self.tail_used = 0;
        self.pending = 0;
        self.dirty = false;
        self.write_meta()?;
        self.dev.sync()?;
        self.stats.resets += 1;
        Ok(())
    }

    /// Highest sequence number ever assigned (or replayed).
    pub fn last_seq(&self) -> u64 {
        self.last_seq
    }

    /// Raise the sequence floor (e.g. to the checkpointed `wal_seq` from
    /// the database superblock) so fresh appends stay above every
    /// previously-issued number.
    pub fn set_seq_floor(&mut self, seq: u64) {
        self.last_seq = self.last_seq.max(seq);
    }

    /// Lifetime counters.
    pub fn stats(&self) -> WalStats {
        self.stats
    }

    /// Live pages currently held by the log chain's device.
    pub fn live_pages(&self) -> usize {
        self.dev.live_pages()
    }

    /// Records appended but not yet synced.
    pub fn unsynced(&self) -> usize {
        self.pending
    }

    /// Give the device back (tests use this to inspect or corrupt the
    /// raw pages between sessions).
    pub fn into_device(self) -> Box<dyn Device> {
        self.dev
    }
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal")
            .field("head", &self.head)
            .field("tail", &self.tail)
            .field("last_seq", &self.last_seq)
            .field("pending", &self.pending)
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use segdb_pager::Disk;
    use segdb_rng::check;
    use segdb_rng::SmallRng;

    fn seg(id: u64) -> Segment {
        Segment::new(id, (0, id as i64), (10, id as i64 + 1)).unwrap()
    }

    fn ops(n: u64) -> Vec<(u64, WalOp)> {
        (0..n)
            .map(|i| {
                let op = if i % 3 == 2 {
                    WalOp::Delete(seg(i))
                } else {
                    WalOp::Insert(seg(i))
                };
                (1000 + i, op)
            })
            .collect()
    }

    #[test]
    fn crc32_vector() {
        // The classic check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    /// The bitwise CRC-32 the table is derived from: the reference.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in data {
            crc ^= b as u32;
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (CRC_POLY & mask);
            }
        }
        !crc
    }

    #[test]
    fn crc32_table_matches_the_bitwise_reference() {
        check::run(
            "wal_crc32_table_matches_the_bitwise_reference",
            200,
            |rng| {
                let len = rng.gen_range(0..8193usize);
                (0..len).map(|_| rng.next_u64() as u8).collect::<Vec<u8>>()
            },
            |data| assert_eq!(crc32(data), crc32_bitwise(data)),
        );
    }

    #[test]
    fn empty_log_reopen() {
        let wal = Wal::create(Box::new(Disk::new(256)), 4).unwrap();
        let dev = wal.into_device();
        let (mut wal, recs) = Wal::open(dev, 4).unwrap();
        assert!(recs.is_empty());
        assert_eq!(wal.last_seq(), 0);
        // The reopened log accepts appends.
        assert_eq!(wal.append(1, WalOp::Insert(seg(1))).unwrap(), 1);
        wal.flush().unwrap();
        let (_, recs) = Wal::open(wal.into_device(), 4).unwrap();
        assert_eq!(recs.len(), 1);
    }

    #[test]
    fn foreign_meta_reads_as_empty() {
        let mut dev: Box<dyn Device> = Box::new(Disk::new(256));
        dev.set_meta(b"NOTAWAL!").unwrap();
        let (_, recs) = Wal::open(dev, 1).unwrap();
        assert!(recs.is_empty());
    }

    #[test]
    fn roundtrip_across_pages() {
        // 128-byte pages hold one 63-byte frame each after the header,
        // so 20 records force a many-page chain.
        let mut wal = Wal::create(Box::new(Disk::new(128)), 1).unwrap();
        let want = ops(20);
        for (rid, op) in &want {
            wal.append(*rid, *op).unwrap();
        }
        assert_eq!(wal.last_seq(), 20);
        let (wal, recs) = Wal::open(wal.into_device(), 1).unwrap();
        assert_eq!(recs.len(), 20);
        for (i, r) in recs.iter().enumerate() {
            assert_eq!(r.seq, i as u64 + 1);
            assert_eq!(r.req_id, want[i].0);
            assert_eq!(r.op, want[i].1);
        }
        assert_eq!(wal.last_seq(), 20);
    }

    #[test]
    fn group_commit_window_boundary() {
        let mut wal = Wal::create(Box::new(Disk::new(4096)), 4).unwrap();
        for (rid, op) in ops(3) {
            wal.append(rid, op).unwrap();
        }
        assert_eq!(wal.stats().group_commits, 0);
        assert_eq!(wal.unsynced(), 3);
        // The 4th append closes the window: exactly one sync.
        wal.append(9, WalOp::Insert(seg(99))).unwrap();
        assert_eq!(wal.stats().group_commits, 1);
        assert_eq!(wal.unsynced(), 0);
        // A clean flush is a no-op; a dirty one syncs.
        wal.flush().unwrap();
        assert_eq!(wal.stats().group_commits, 1);
        wal.append(10, WalOp::Insert(seg(100))).unwrap();
        wal.flush().unwrap();
        assert_eq!(wal.stats().group_commits, 2);
    }

    #[test]
    fn torn_tail_stops_replay() {
        let mut wal = Wal::create(Box::new(Disk::new(4096)), 1).unwrap();
        for (rid, op) in ops(5) {
            wal.append(rid, op).unwrap();
        }
        // Corrupt the last frame's payload on the raw device: replay
        // must surface records 1..=4 and drop the torn 5th.
        let mut dev = wal.into_device();
        let meta = dev.get_meta().unwrap();
        let head = u32::from_le_bytes([meta[8], meta[9], meta[10], meta[11]]) - 1;
        let mut buf = dev.read(head).unwrap().to_vec();
        let last = PAGE_HEADER + 4 * FRAME + FRAME_HEADER;
        buf[last] ^= 0xFF;
        dev.write(head, buf.into()).unwrap();
        let (mut wal, recs) = Wal::open(dev, 1).unwrap();
        assert_eq!(recs.len(), 4);
        assert_eq!(wal.last_seq(), 4);
        // Appending after a torn tail overwrites the garbage.
        wal.append(77, WalOp::Insert(seg(7))).unwrap();
        let (_, recs) = Wal::open(wal.into_device(), 1).unwrap();
        assert_eq!(recs.len(), 5);
        assert_eq!(recs[4].seq, 5);
        assert_eq!(recs[4].req_id, 77);
    }

    #[test]
    fn torn_frame_header_stops_replay() {
        // A frame whose length field survives but whose payload was
        // never written (remaining bytes zero) must fail the CRC.
        let mut wal = Wal::create(Box::new(Disk::new(4096)), 1).unwrap();
        for (rid, op) in ops(2) {
            wal.append(rid, op).unwrap();
        }
        let mut dev = wal.into_device();
        let meta = dev.get_meta().unwrap();
        let head = u32::from_le_bytes([meta[8], meta[9], meta[10], meta[11]]) - 1;
        let mut buf = dev.read(head).unwrap().to_vec();
        // Fake a torn third frame: length written, payload zeroed.
        let off = PAGE_HEADER + 2 * FRAME;
        buf[off..off + 2].copy_from_slice(&(PAYLOAD as u16).to_le_bytes());
        dev.write(head, buf.into()).unwrap();
        let (_, recs) = Wal::open(dev, 1).unwrap();
        assert_eq!(recs.len(), 2);
    }

    #[test]
    fn reset_truncates_and_keeps_seq_monotone() {
        let mut wal = Wal::create(Box::new(Disk::new(128)), 1).unwrap();
        for (rid, op) in ops(10) {
            wal.append(rid, op).unwrap();
        }
        let pages_before = wal.live_pages();
        assert!(pages_before >= 10);
        wal.reset().unwrap();
        assert_eq!(wal.live_pages(), 0);
        assert_eq!(wal.last_seq(), 10, "seq survives truncation");
        // New appends land on recycled pages with higher seqs.
        wal.append(50, WalOp::Insert(seg(50))).unwrap();
        let (_, recs) = Wal::open(wal.into_device(), 1).unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].seq, 11);
    }

    #[test]
    fn seq_floor_raises_next_seq() {
        let mut wal = Wal::create(Box::new(Disk::new(4096)), 1).unwrap();
        wal.set_seq_floor(100);
        assert_eq!(wal.append(1, WalOp::Insert(seg(1))).unwrap(), 101);
    }

    #[test]
    fn a_self_linked_empty_page_ends_the_walk() {
        let mut dev: Box<dyn Device> = Box::new(Disk::new(256));
        let page = dev.allocate().unwrap();
        let mut image = vec![0u8; 256];
        image[..PAGE_HEADER].copy_from_slice(&(page + 1).to_le_bytes());
        dev.write(page, image.into()).unwrap();
        dev.set_meta(&[&WAL_MAGIC[..], &(page + 1).to_le_bytes()].concat())
            .unwrap();
        // On a thread of its own, so that a walk that never ends fails the
        // test instead of hanging the suite.
        let (tx, rx) = std::sync::mpsc::channel();
        let walk = std::thread::spawn(move || {
            let (mut wal, recs) = Wal::open(dev, 1).unwrap();
            wal.reset().unwrap();
            tx.send(()).unwrap();
            (wal, recs.len())
        });
        rx.recv_timeout(std::time::Duration::from_secs(5))
            .expect("open or reset hung (or panicked)");
        let (mut wal, replayed) = walk.join().unwrap();
        assert_eq!(replayed, 0);
        wal.append(1, WalOp::Insert(seg(1))).unwrap();
        let (_, recs) = Wal::open(wal.into_device(), 1).unwrap();
        assert_eq!(recs.len(), 1);
    }

    #[test]
    fn open_survives_any_page_images_and_links() {
        // 128-byte pages hold one frame each: record `seq` sits on page
        // `seq - 1`. An edit `(page, kind, v)` fills the page with noise
        // seeded by `v`, links it to itself or an earlier page, flips one
        // of its bits, or clears its frames.
        check::run(
            "wal_open_survives_any_page_images_and_links",
            300,
            |rng| {
                let edits: Vec<(u32, u8, u64)> = (0..rng.gen_range(0..6usize))
                    .map(|_| {
                        (
                            rng.gen_range(0..10u32),
                            rng.gen_range(0..4u8),
                            rng.next_u64(),
                        )
                    })
                    .collect();
                (rng.gen_range(0..12u64), edits)
            },
            |(n, edits)| {
                let want = ops(*n);
                let mut wal = Wal::create(Box::new(Disk::new(128)), 1).unwrap();
                for (rid, op) in &want {
                    wal.append(*rid, *op).unwrap();
                }
                let mut dev = wal.into_device();
                for &(page, kind, v) in edits {
                    let Ok(image) = dev.read(page) else {
                        continue;
                    };
                    let mut image = image.to_vec();
                    match kind {
                        0 => {
                            let mut rng = SmallRng::seed_from_u64(v);
                            image.fill_with(|| rng.next_u64() as u8);
                        }
                        1 => {
                            let to = v as u32 % (page + 1) + 1;
                            image[..PAGE_HEADER].copy_from_slice(&to.to_le_bytes());
                        }
                        2 => image[v as usize / 8 % 128] ^= 1 << (v % 8),
                        _ => image[PAGE_HEADER..].fill(0),
                    }
                    dev.write(page, image.into()).unwrap();
                }
                let (_, recs) = Wal::open(dev, 1).unwrap();
                assert!(recs.windows(2).all(|w| w[0].seq < w[1].seq), "{recs:?}");
                for r in &recs {
                    let appended = want.get((r.seq as usize).wrapping_sub(1));
                    assert_eq!(appended, Some(&(r.req_id, r.op)), "never appended: {r:?}");
                }
            },
        );
    }
}
