//! Bounds-checked little-endian page codecs.
//!
//! Every node type in the workspace serializes through these helpers, so a
//! node image is a deterministic byte layout and "fits in one page" is a
//! checked property, not an assumption.

use crate::error::{PagerError, Result};

/// Sequential reader over a page image.
#[derive(Debug, Clone)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Read from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Current offset.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes remaining.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Skip `n` bytes.
    pub fn skip(&mut self, n: usize) -> Result<()> {
        self.take(n).map(|_| ())
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(PagerError::CodecOverflow {
                offset: self.pos,
                requested: n,
                available: self.buf.len(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Cut the next `N` bytes as a fixed-width record image: the one
    /// length check a [`u64_at`]-style field read relies on.
    pub fn array<const N: usize>(&mut self) -> Result<&'a [u8; N]> {
        Ok(&self.arrays::<N>(1)?[0])
    }

    /// Cut the next `count` fixed-width records of `N` bytes each — one
    /// section of a node view, checked once here and indexed without a
    /// reader afterwards.
    pub fn arrays<const N: usize>(&mut self, count: usize) -> Result<&'a [[u8; N]]> {
        Ok(self.take(count.saturating_mul(N))?.as_chunks().0)
    }

    /// Cut the next `n` bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8]> {
        self.take(n)
    }

    /// Read a `u8`.
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    /// Read a little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64> {
        Ok(self.u64()? as i64)
    }
}

/// The first `N` bytes of `bytes` as a fixed-width record image — the
/// single length check of a [`ByteReader`]-free record read.
pub fn fixed<const N: usize>(bytes: &[u8]) -> Result<&[u8; N]> {
    bytes.first_chunk().ok_or(PagerError::CodecOverflow {
        offset: 0,
        requested: N,
        available: bytes.len(),
    })
}

#[inline]
fn le<const N: usize>(b: &[u8], at: usize) -> [u8; N] {
    let mut a = [0u8; N];
    a.copy_from_slice(&b[at..at + N]);
    a
}

/// Little-endian `u16` at byte `at` of a record image whose length the
/// caller has already checked ([`fixed`], [`ByteReader::array`]); like
/// slice indexing, an offset past the end is a bug and panics.
#[inline]
pub fn u16_at(b: &[u8], at: usize) -> u16 {
    u16::from_le_bytes(le(b, at))
}

/// Little-endian `u32`; see [`u16_at`].
#[inline]
pub fn u32_at(b: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(le(b, at))
}

/// Little-endian `u64`; see [`u16_at`].
#[inline]
pub fn u64_at(b: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(le(b, at))
}

/// Little-endian `i64`; see [`u16_at`].
#[inline]
pub fn i64_at(b: &[u8], at: usize) -> i64 {
    i64::from_le_bytes(le(b, at))
}

/// Sequential writer over a page image.
#[derive(Debug)]
pub struct ByteWriter<'a> {
    buf: &'a mut [u8],
    pos: usize,
}

impl<'a> ByteWriter<'a> {
    /// Write from the start of `buf`.
    pub fn new(buf: &'a mut [u8]) -> Self {
        ByteWriter { buf, pos: 0 }
    }

    /// Current offset.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes remaining.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Advance `n` bytes without writing (existing bytes are preserved —
    /// for in-place page edits that only touch some fields).
    pub fn skip(&mut self, n: usize) -> Result<()> {
        self.slot(n).map(|_| ())
    }

    fn slot(&mut self, n: usize) -> Result<&mut [u8]> {
        if self.remaining() < n {
            return Err(PagerError::CodecOverflow {
                offset: self.pos,
                requested: n,
                available: self.buf.len(),
            });
        }
        let s = &mut self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Write a `u8`.
    pub fn u8(&mut self, v: u8) -> Result<()> {
        self.slot(1)?[0] = v;
        Ok(())
    }

    /// Write a little-endian `u16`.
    pub fn u16(&mut self, v: u16) -> Result<()> {
        self.slot(2)?.copy_from_slice(&v.to_le_bytes());
        Ok(())
    }

    /// Write a little-endian `u32`.
    pub fn u32(&mut self, v: u32) -> Result<()> {
        self.slot(4)?.copy_from_slice(&v.to_le_bytes());
        Ok(())
    }

    /// Write a little-endian `u64`.
    pub fn u64(&mut self, v: u64) -> Result<()> {
        self.slot(8)?.copy_from_slice(&v.to_le_bytes());
        Ok(())
    }

    /// Write a little-endian `i64`.
    pub fn i64(&mut self, v: i64) -> Result<()> {
        self.u64(v as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_widths() {
        let mut page = vec![0u8; 32];
        {
            let mut w = ByteWriter::new(&mut page);
            w.u8(0xAB).unwrap();
            w.u16(0xCDEF).unwrap();
            w.u32(0xDEADBEEF).unwrap();
            w.u64(0x0123_4567_89AB_CDEF).unwrap();
            w.i64(-42).unwrap();
            assert_eq!(w.position(), 1 + 2 + 4 + 8 + 8);
        }
        let mut r = ByteReader::new(&page);
        assert_eq!(r.u8().unwrap(), 0xAB);
        assert_eq!(r.u16().unwrap(), 0xCDEF);
        assert_eq!(r.u32().unwrap(), 0xDEADBEEF);
        assert_eq!(r.u64().unwrap(), 0x0123_4567_89AB_CDEF);
        assert_eq!(r.i64().unwrap(), -42);
        assert_eq!(r.remaining(), 32 - 23);
    }

    #[test]
    fn overflow_is_reported_not_panicked() {
        let mut page = vec![0u8; 3];
        let mut w = ByteWriter::new(&mut page);
        w.u16(1).unwrap();
        let err = w.u32(2).unwrap_err();
        assert!(matches!(
            err,
            PagerError::CodecOverflow { requested: 4, .. }
        ));
        let mut r = ByteReader::new(&page);
        r.skip(2).unwrap();
        assert!(r.u64().is_err());
        assert!(r.u8().is_ok(), "failed read must not consume");
    }

    #[test]
    fn fixed_width_reads_agree_with_the_reader() {
        let mut page = vec![0u8; 40];
        {
            let mut w = ByteWriter::new(&mut page);
            w.u16(0xBEEF).unwrap();
            w.u32(7).unwrap();
            w.u64(u64::MAX - 1).unwrap();
            w.i64(-9).unwrap();
        }
        let rec = fixed::<22>(&page).unwrap();
        assert_eq!(u16_at(rec, 0), 0xBEEF);
        assert_eq!(u32_at(rec, 2), 7);
        assert_eq!(u64_at(rec, 6), u64::MAX - 1);
        assert_eq!(i64_at(rec, 14), -9);
        assert!(matches!(
            fixed::<41>(&page),
            Err(PagerError::CodecOverflow { requested: 41, .. })
        ));
        // Sections: 2 bytes of header, then three 8-byte records.
        let mut r = ByteReader::new(&page);
        assert_eq!(r.array::<2>().unwrap(), &[0xEF, 0xBE]);
        let recs = r.arrays::<8>(3).unwrap();
        assert_eq!(recs.len(), 3);
        assert_eq!(r.position(), 26);
        assert!(r.arrays::<8>(2).is_err(), "extent past the page");
        assert_eq!(r.position(), 26, "failed cut must not consume");
        assert_eq!(r.bytes(14).unwrap().len(), 14);
    }

    #[test]
    fn skip_and_position() {
        let page = [1u8, 2, 3, 4];
        let mut r = ByteReader::new(&page);
        r.skip(3).unwrap();
        assert_eq!(r.position(), 3);
        assert_eq!(r.u8().unwrap(), 4);
        assert!(r.skip(1).is_err());
    }
}
