//! A persistent, single-file page store.
//!
//! Layout (`P` = page size):
//!
//! ```text
//! offset 0        header: "SEGDBPG1" ∥ page_size:u32 ∥ capacity:u64 ∥
//!                         free_head:u32 ∥ free_count:u64 ∥
//!                         meta_len:u32 ∥ meta bytes
//! offset (i+1)·P  page i
//! ```
//!
//! Freed pages are chained *in place*: a freed page's image starts with
//! the marker `"FREEPAGE"` followed by the next free id, so the free
//! pool needs no external bitmap and reopening costs one walk of the
//! chain. The `meta` area is the **superblock**: an opaque blob the
//! database layer uses to persist its root states
//! ([`crate::Pager::set_meta`]).
//!
//! The header is kept in memory and written on [`Device::sync`] (and on
//! drop); page writes go straight to the file. Callers needing
//! durability points call `sync`, which also `fsync`s.

use crate::device::{zeroed_image, Device};
use crate::error::{PagerError, Result};
use crate::{PageId, NULL_PAGE};
use std::collections::HashSet;
use std::fs::{File, OpenOptions};
use std::io;
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::Arc;

const MAGIC: &[u8; 8] = b"SEGDBPG1";
const FREE_MARK: &[u8; 8] = b"FREEPAGE";
const HEADER_FIXED: usize = 8 + 4 + 8 + 4 + 8 + 4;

fn io_err(e: io::Error) -> PagerError {
    PagerError::Io(e.to_string())
}

/// Persistent page store. See module docs.
#[derive(Debug)]
pub struct FileDevice {
    file: File,
    page_size: usize,
    capacity: u64,
    free_head: PageId,
    free_set: HashSet<PageId>,
    meta: Vec<u8>,
    header_dirty: bool,
}

impl FileDevice {
    /// Create a new store at `path` (truncating any existing file).
    ///
    /// `page_size` must be at least 128 bytes (so the header's fixed
    /// fields plus a small superblock fit in the header page).
    pub fn create(path: impl AsRef<Path>, page_size: usize) -> Result<Self> {
        if page_size < 128 {
            return Err(PagerError::PageOverflow {
                what: "file device header",
                requested: 128,
                capacity: page_size,
            });
        }
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)
            .map_err(io_err)?;
        let mut dev = FileDevice {
            file,
            page_size,
            capacity: 0,
            free_head: NULL_PAGE,
            free_set: HashSet::new(),
            meta: Vec::new(),
            header_dirty: true,
        };
        dev.write_header()?;
        Ok(dev)
    }

    /// Open an existing store, rebuilding the free pool from its chain.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .map_err(io_err)?;
        // Read the fixed header prefix first to learn the page size.
        let mut fixed = [0u8; HEADER_FIXED];
        file.read_exact_at(&mut fixed, 0).map_err(io_err)?;
        if &fixed[..8] != MAGIC {
            return Err(PagerError::Corrupt("bad file-device magic"));
        }
        let page_size = u32::from_le_bytes(fixed[8..12].try_into().unwrap()) as usize;
        let capacity = u64::from_le_bytes(fixed[12..20].try_into().unwrap());
        let free_head = u32::from_le_bytes(fixed[20..24].try_into().unwrap());
        let free_count = u64::from_le_bytes(fixed[24..32].try_into().unwrap());
        let meta_len = u32::from_le_bytes(fixed[32..36].try_into().unwrap()) as usize;
        if meta_len > page_size - HEADER_FIXED {
            return Err(PagerError::Corrupt("file-device meta length"));
        }
        let mut meta = vec![0u8; meta_len];
        file.read_exact_at(&mut meta, HEADER_FIXED as u64)
            .map_err(io_err)?;

        let mut dev = FileDevice {
            file,
            page_size,
            capacity,
            free_head,
            free_set: HashSet::new(),
            meta,
            header_dirty: false,
        };
        // Walk the free chain.
        let mut cur = free_head;
        let mut buf = vec![0u8; page_size];
        while cur != NULL_PAGE {
            if dev.free_set.len() as u64 > free_count {
                return Err(PagerError::Corrupt("free chain longer than recorded"));
            }
            dev.read_raw(cur, &mut buf)?;
            if &buf[..8] != FREE_MARK {
                return Err(PagerError::Corrupt("free chain hits a live page"));
            }
            dev.free_set.insert(cur);
            cur = u32::from_le_bytes(buf[8..12].try_into().unwrap());
        }
        if dev.free_set.len() as u64 != free_count {
            return Err(PagerError::Corrupt("free count mismatch"));
        }
        Ok(dev)
    }

    fn offset(&self, id: PageId) -> u64 {
        (id as u64 + 1) * self.page_size as u64
    }

    fn read_raw(&self, id: PageId, buf: &mut [u8]) -> Result<()> {
        self.file
            .read_exact_at(buf, self.offset(id))
            .map_err(io_err)
    }

    fn write_raw(&self, id: PageId, buf: &[u8]) -> Result<()> {
        self.file.write_all_at(buf, self.offset(id)).map_err(io_err)
    }

    fn check(&self, id: PageId) -> Result<()> {
        if (id as u64) >= self.capacity {
            return Err(PagerError::OutOfBounds(id));
        }
        if self.free_set.contains(&id) {
            return Err(PagerError::Freed(id));
        }
        Ok(())
    }

    fn write_header(&mut self) -> Result<()> {
        let mut page = vec![0u8; self.page_size];
        page[..8].copy_from_slice(MAGIC);
        page[8..12].copy_from_slice(&(self.page_size as u32).to_le_bytes());
        page[12..20].copy_from_slice(&self.capacity.to_le_bytes());
        page[20..24].copy_from_slice(&self.free_head.to_le_bytes());
        page[24..32].copy_from_slice(&(self.free_set.len() as u64).to_le_bytes());
        page[32..36].copy_from_slice(&(self.meta.len() as u32).to_le_bytes());
        page[36..36 + self.meta.len()].copy_from_slice(&self.meta);
        self.file.write_all_at(&page, 0).map_err(io_err)?;
        self.header_dirty = false;
        Ok(())
    }
}

impl Device for FileDevice {
    fn page_size(&self) -> usize {
        self.page_size
    }

    fn check(&self, id: PageId) -> Result<()> {
        FileDevice::check(self, id)
    }

    fn live_pages(&self) -> usize {
        self.capacity as usize - self.free_set.len()
    }

    fn capacity_pages(&self) -> usize {
        self.capacity as usize
    }

    fn allocate(&mut self) -> Result<PageId> {
        let zero = vec![0u8; self.page_size];
        let id = if self.free_head != NULL_PAGE {
            let id = self.free_head;
            let mut buf = vec![0u8; self.page_size];
            self.read_raw(id, &mut buf)?;
            self.free_head = u32::from_le_bytes(buf[8..12].try_into().unwrap());
            self.free_set.remove(&id);
            id
        } else {
            let id = self.capacity as PageId;
            self.capacity += 1;
            id
        };
        self.write_raw(id, &zero)?;
        self.header_dirty = true;
        Ok(id)
    }

    fn free(&mut self, id: PageId) -> Result<()> {
        self.check(id)?;
        let mut buf = vec![0u8; self.page_size];
        buf[..8].copy_from_slice(FREE_MARK);
        buf[8..12].copy_from_slice(&self.free_head.to_le_bytes());
        self.write_raw(id, &buf)?;
        self.free_set.insert(id);
        self.free_head = id;
        self.header_dirty = true;
        Ok(())
    }

    fn read(&self, id: PageId) -> Result<Arc<[u8]>> {
        self.check(id)?;
        let mut img = zeroed_image(self.page_size);
        self.read_raw(
            id,
            Arc::get_mut(&mut img).expect("a fresh image is unshared"),
        )?;
        Ok(img)
    }

    fn write(&mut self, id: PageId, img: Arc<[u8]>) -> Result<()> {
        self.check(id)?;
        assert_eq!(img.len(), self.page_size, "page image size");
        self.write_raw(id, &img)
    }

    fn sync(&mut self) -> Result<()> {
        if self.header_dirty {
            self.write_header()?;
        }
        self.file.sync_all().map_err(io_err)
    }

    fn set_meta(&mut self, meta: &[u8]) -> Result<()> {
        if meta.len() > self.page_size - HEADER_FIXED {
            return Err(PagerError::PageOverflow {
                what: "file device metadata",
                requested: meta.len(),
                capacity: self.page_size - HEADER_FIXED,
            });
        }
        self.meta = meta.to_vec();
        self.header_dirty = true;
        Ok(())
    }

    fn get_meta(&self) -> Result<Vec<u8>> {
        Ok(self.meta.clone())
    }
}

impl Drop for FileDevice {
    fn drop(&mut self) {
        if self.header_dirty {
            let _ = self.write_header();
            let _ = self.file.sync_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("segdb-filedev-{name}-{}", std::process::id()));
        p
    }

    #[test]
    fn create_write_reopen_read() {
        let path = tmp("roundtrip");
        {
            let mut d = FileDevice::create(&path, 256).unwrap();
            let a = d.allocate().unwrap();
            let b = d.allocate().unwrap();
            let mut img = vec![0u8; 256];
            img[0] = 0xAA;
            d.write(a, img.as_slice().into()).unwrap();
            img[0] = 0xBB;
            d.write(b, img.into()).unwrap();
            d.set_meta(b"superblock!").unwrap();
            d.sync().unwrap();
        }
        {
            let d = FileDevice::open(&path).unwrap();
            assert_eq!(d.page_size(), 256);
            assert_eq!(d.live_pages(), 2);
            assert_eq!(d.get_meta().unwrap(), b"superblock!");
            assert_eq!(d.read(0).unwrap()[0], 0xAA);
            assert_eq!(d.read(1).unwrap()[0], 0xBB);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn free_chain_survives_reopen() {
        let path = tmp("freechain");
        {
            let mut d = FileDevice::create(&path, 128).unwrap();
            let ids: Vec<PageId> = (0..5).map(|_| d.allocate().unwrap()).collect();
            d.free(ids[1]).unwrap();
            d.free(ids[3]).unwrap();
            d.sync().unwrap();
        }
        {
            let mut d = FileDevice::open(&path).unwrap();
            assert_eq!(d.live_pages(), 3);
            assert_eq!(d.capacity_pages(), 5);
            assert_eq!(d.read(1).unwrap_err(), PagerError::Freed(1));
            assert_eq!(d.read(3).unwrap_err(), PagerError::Freed(3));
            assert_eq!(d.read(99).unwrap_err(), PagerError::OutOfBounds(99));
            // Recycling pops the most recently freed first.
            assert_eq!(d.allocate().unwrap(), 3);
            assert_eq!(d.allocate().unwrap(), 1);
            assert_eq!(d.allocate().unwrap(), 5);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_magic_rejected() {
        let path = tmp("badmagic");
        std::fs::write(&path, vec![7u8; 512]).unwrap();
        assert!(matches!(
            FileDevice::open(&path),
            Err(PagerError::Corrupt(_))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn oversized_meta_rejected() {
        let path = tmp("bigmeta");
        let mut d = FileDevice::create(&path, 128).unwrap();
        assert!(d.set_meta(&vec![0u8; 1000]).is_err());
        std::fs::remove_file(&path).ok();
    }

    /// Mass-free every page, reopen, and verify the whole chain recycles
    /// LIFO before the capacity grows again.
    #[test]
    fn mass_free_recycles_the_whole_chain_after_reopen() {
        let path = tmp("massfree");
        const N: usize = 50;
        {
            let mut d = FileDevice::create(&path, 128).unwrap();
            let ids: Vec<PageId> = (0..N).map(|_| d.allocate().unwrap()).collect();
            for id in &ids {
                d.free(*id).unwrap();
            }
            d.sync().unwrap();
        }
        {
            let mut d = FileDevice::open(&path).unwrap();
            assert_eq!(d.live_pages(), 0);
            assert_eq!(d.capacity_pages(), N);
            // The chain pops most-recently-freed first: N-1, N-2, …, 0.
            for want in (0..N as PageId).rev() {
                assert_eq!(d.allocate().unwrap(), want);
            }
            // Chain exhausted: the next allocation grows the file.
            assert_eq!(d.allocate().unwrap(), N as PageId);
            assert_eq!(d.live_pages(), N + 1);
        }
        std::fs::remove_file(&path).ok();
    }

    /// A meta blob of exactly the maximum size must round-trip through
    /// sync + reopen; one byte more is refused.
    #[test]
    fn meta_at_maximum_size_roundtrips() {
        let path = tmp("maxmeta");
        let max = 256 - HEADER_FIXED;
        let blob: Vec<u8> = (0..max).map(|i| (i % 251) as u8).collect();
        {
            let mut d = FileDevice::create(&path, 256).unwrap();
            assert!(
                d.set_meta(&vec![0u8; max + 1]).is_err(),
                "one byte over the limit is refused"
            );
            d.set_meta(&blob).unwrap();
            d.sync().unwrap();
        }
        let d = FileDevice::open(&path).unwrap();
        assert_eq!(d.get_meta().unwrap(), blob);
        std::fs::remove_file(&path).ok();
    }

    /// An empty-but-synced store (no pages, no meta) reopens cleanly.
    #[test]
    fn reopen_of_empty_but_synced_store() {
        let path = tmp("emptysync");
        {
            let mut d = FileDevice::create(&path, 128).unwrap();
            d.sync().unwrap();
        }
        {
            let mut d = FileDevice::open(&path).unwrap();
            assert_eq!(d.live_pages(), 0);
            assert_eq!(d.capacity_pages(), 0);
            assert!(d.get_meta().unwrap().is_empty());
            // And the store is fully usable after the empty reopen.
            let id = d.allocate().unwrap();
            assert_eq!(id, 0);
            d.sync().unwrap();
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn drop_persists_header() {
        let path = tmp("dropsync");
        {
            let mut d = FileDevice::create(&path, 128).unwrap();
            d.allocate().unwrap();
            d.set_meta(b"x").unwrap();
            // no explicit sync: Drop must flush the header
        }
        let d = FileDevice::open(&path).unwrap();
        assert_eq!(d.capacity_pages(), 1);
        assert_eq!(d.get_meta().unwrap(), b"x");
        std::fs::remove_file(&path).ok();
    }
}

#[cfg(test)]
mod pager_integration {
    use super::*;
    use crate::{Pager, PagerConfig};

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("segdb-fd-pager-{name}-{}", std::process::id()));
        p
    }

    /// The pager's cache over a file device: dirty pages only reach the
    /// file at eviction/flush, and content survives close/reopen.
    #[test]
    fn cached_file_pager_roundtrip() {
        let path = tmp("cached");
        let mut ids = Vec::new();
        {
            let dev = FileDevice::create(&path, 256).unwrap();
            let pager = Pager::with_device(Box::new(dev), 4);
            for i in 0..10u8 {
                let id = pager.allocate().unwrap();
                pager.overwrite_page(id, |b| b[0] = i + 1).unwrap();
                ids.push(id);
            }
            // More pages than cache slots: some writes already landed.
            pager.sync().unwrap(); // flush the rest + header
            let s = pager.stats();
            assert_eq!(s.allocations, 10);
            assert_eq!(s.writes, 10, "each dirty page written exactly once");
        }
        {
            let dev = FileDevice::open(&path).unwrap();
            let pager = Pager::with_device(Box::new(dev), 0);
            for (i, &id) in ids.iter().enumerate() {
                pager
                    .with_page(id, |b| assert_eq!(b[0], i as u8 + 1))
                    .unwrap();
            }
        }
        std::fs::remove_file(&path).ok();
    }

    /// Equivalence: the same operation sequence on a memory disk and a
    /// file device produces identical logical content and identical
    /// uncached I/O counts.
    #[test]
    fn file_and_memory_devices_are_equivalent() {
        let path = tmp("equiv");
        let mem = Pager::new(PagerConfig {
            page_size: 128,
            cache_pages: 0,
        });
        let file = Pager::with_device(Box::new(FileDevice::create(&path, 128).unwrap()), 0);
        let mut xs = 0x9E3779B97F4A7C15u64;
        let mut live: Vec<crate::PageId> = Vec::new();
        for _ in 0..300 {
            xs ^= xs << 13;
            xs ^= xs >> 7;
            xs ^= xs << 17;
            match xs % 4 {
                0 => {
                    let a = mem.allocate().unwrap();
                    let b = file.allocate().unwrap();
                    assert_eq!(a, b, "allocation sequences agree");
                    live.push(a);
                }
                1 if !live.is_empty() => {
                    let id = live[(xs >> 8) as usize % live.len()];
                    let v = (xs >> 16) as u8;
                    mem.overwrite_page(id, |x| x[0] = v).unwrap();
                    file.overwrite_page(id, |x| x[0] = v).unwrap();
                }
                2 if !live.is_empty() => {
                    let id = live.swap_remove((xs >> 8) as usize % live.len());
                    mem.free(id).unwrap();
                    file.free(id).unwrap();
                }
                _ if !live.is_empty() => {
                    let id = live[(xs >> 8) as usize % live.len()];
                    let a = mem.with_page(id, |x| x[0]).unwrap();
                    let b = file.with_page(id, |x| x[0]).unwrap();
                    assert_eq!(a, b);
                }
                _ => {}
            }
        }
        assert_eq!(mem.live_pages(), file.live_pages());
        assert_eq!(mem.stats(), file.stats());
        std::fs::remove_file(&path).ok();
    }
}
