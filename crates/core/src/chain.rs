//! Raw segment page chains: leaf storage for the first-level trees and
//! the [`crate::FullScan`] baseline.
//!
//! Layout per page: `[count: u16][next: u32][segments: count × 40]`.

use segdb_geom::Segment;
use segdb_pager::{ByteReader, ByteWriter, PageId, Pager, PagerError, Result, NULL_PAGE};
use segdb_pst::node::segment_from;
use std::ops::ControlFlow;

const HEADER: usize = 6;
/// Encoded segment size.
pub const SEG_BYTES: usize = 40;

/// Segments per chain page.
pub fn cap(page_size: usize) -> usize {
    (page_size - HEADER) / SEG_BYTES
}

fn encode_seg(s: &Segment, w: &mut ByteWriter<'_>) -> Result<()> {
    w.u64(s.id)?;
    w.i64(s.a.x)?;
    w.i64(s.a.y)?;
    w.i64(s.b.x)?;
    w.i64(s.b.y)
}

fn read_seg(b: &[u8; SEG_BYTES]) -> Result<Segment> {
    segment_from(b).map_err(|_| PagerError::Corrupt("invalid chain segment"))
}

/// Write `segs` as a fresh chain; returns the head ([`NULL_PAGE`] when
/// empty).
pub fn write(pager: &Pager, segs: &[Segment]) -> Result<PageId> {
    let cap = cap(pager.page_size());
    let mut head = NULL_PAGE;
    for chunk in segs.chunks(cap).rev() {
        let page = pager.allocate()?;
        let next = head;
        pager.overwrite_page(page, |buf| {
            let mut w = ByteWriter::new(buf);
            w.u16(chunk.len() as u16)?;
            w.u32(next)?;
            for s in chunk {
                encode_seg(s, &mut w)?;
            }
            Ok::<(), PagerError>(())
        })??;
        head = page;
    }
    Ok(head)
}

/// Visit every segment of the chain.
pub fn scan(pager: &Pager, head: PageId, mut f: impl FnMut(Segment)) -> Result<()> {
    let _ = scan_ctl(pager, head, |s| {
        f(s);
        ControlFlow::Continue(())
    })?;
    Ok(())
}

/// Visit segments until `f` breaks; unread tail pages are never fetched
/// (the early-exit half of the streaming read path). Returns how the
/// walk ended.
pub fn scan_ctl(
    pager: &Pager,
    head: PageId,
    mut f: impl FnMut(Segment) -> ControlFlow<()>,
) -> Result<ControlFlow<()>> {
    let mut page = head;
    while page != NULL_PAGE {
        let (next, flow) = pager.with_page(page, |buf| {
            let mut r = ByteReader::new(buf);
            let count = r.u16()? as usize;
            let next = r.u32()?;
            // One extent check for the page's segments, then each is
            // read at its offset as the scan reaches it.
            for b in r.arrays::<SEG_BYTES>(count)? {
                if f(read_seg(b)?).is_break() {
                    return Ok((next, ControlFlow::Break(())));
                }
            }
            Ok::<(PageId, ControlFlow<()>), PagerError>((next, ControlFlow::Continue(())))
        })??;
        if flow.is_break() {
            return Ok(ControlFlow::Break(()));
        }
        page = next;
    }
    Ok(ControlFlow::Continue(()))
}

/// Collect the chain into a vector.
pub fn collect(pager: &Pager, head: PageId) -> Result<Vec<Segment>> {
    let mut out = Vec::new();
    scan(pager, head, |s| out.push(s))?;
    Ok(out)
}

/// Prepend one segment, filling the head page or growing a new head.
/// Returns the (possibly new) head.
pub fn push(pager: &Pager, head: PageId, seg: &Segment) -> Result<PageId> {
    if head != NULL_PAGE {
        let appended = pager.with_page_mut(head, |buf| {
            let capn = cap(buf.len());
            let mut r = ByteReader::new(buf);
            let count = r.u16()? as usize;
            if count >= capn {
                return Ok(false);
            }
            let mut w = ByteWriter::new(buf);
            w.u16(count as u16 + 1)?;
            w.skip(4 + count * SEG_BYTES)?;
            encode_seg(seg, &mut w)?;
            Ok(true)
        })??;
        if appended {
            return Ok(head);
        }
    }
    let page = pager.allocate()?;
    pager.overwrite_page(page, |buf| {
        let mut w = ByteWriter::new(buf);
        w.u16(1)?;
        w.u32(head)?;
        encode_seg(seg, &mut w)
    })??;
    Ok(page)
}

/// Number of segments in the chain.
pub fn count(pager: &Pager, head: PageId) -> Result<u64> {
    let mut n = 0u64;
    scan(pager, head, |_| n += 1)?;
    Ok(n)
}

/// Free every page of the chain.
pub fn destroy(pager: &Pager, head: PageId) -> Result<()> {
    let mut page = head;
    while page != NULL_PAGE {
        let next = pager.with_page(page, |buf| {
            let mut r = ByteReader::new(buf);
            r.u16()?;
            r.u32()
        })??;
        pager.free(page)?;
        page = next;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use segdb_pager::PagerConfig;

    fn pager() -> Pager {
        Pager::new(PagerConfig {
            page_size: 128,
            cache_pages: 0,
        })
    }

    fn seg(id: u64) -> Segment {
        Segment::new(id, (0, id as i64), (10, id as i64 + 1)).unwrap()
    }

    #[test]
    fn write_scan_roundtrip() {
        let p = pager();
        let segs: Vec<Segment> = (0..10).map(seg).collect();
        let head = write(&p, &segs).unwrap();
        assert_eq!(collect(&p, head).unwrap(), segs);
        assert_eq!(count(&p, head).unwrap(), 10);
        destroy(&p, head).unwrap();
        assert_eq!(p.live_pages(), 0);
    }

    #[test]
    fn empty_chain() {
        let p = pager();
        let head = write(&p, &[]).unwrap();
        assert_eq!(head, NULL_PAGE);
        assert!(collect(&p, head).unwrap().is_empty());
    }

    #[test]
    fn push_grows() {
        let p = pager();
        let mut head = NULL_PAGE;
        for i in 0..8 {
            head = push(&p, head, &seg(i)).unwrap();
        }
        assert_eq!(count(&p, head).unwrap(), 8);
        let mut got: Vec<u64> = collect(&p, head).unwrap().iter().map(|s| s.id).collect();
        got.sort_unstable();
        assert_eq!(got, (0..8).collect::<Vec<_>>());
    }
}
