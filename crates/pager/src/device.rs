//! Storage devices: the raw page store beneath the [`crate::Pager`].
//!
//! Two implementations share the [`Device`] trait:
//!
//! * [`Disk`] — in-memory, the default: deterministic, noise-free I/O
//!   counting (the paper's cost model);
//! * [`crate::file_device::FileDevice`] — a single-file persistent store
//!   with a header page, an on-page free-list chain and a user metadata
//!   area (the superblock databases persist their root states into).
//!
//! Devices are deliberately dumb — all policy (caching, counting) lives
//! in the pager.
//!
//! A page image crosses the trait as an immutable `Arc<[u8]>`: `read`
//! hands one out and `write` takes one over, so no verb copies a page.
//! [`Disk`] keeps the very `Arc`s it is given, which makes a buffer pool
//! over it hold clones of the device's images rather than copies of
//! them: every page is held once. An image once handed out never
//! changes — a store swaps in a new `Arc`.

use crate::error::{PagerError, Result};
use crate::PageId;
use std::sync::Arc;

/// A raw page store.
///
/// `Send + Sync` is a supertrait: devices sit behind the pager's
/// `RwLock` and are read concurrently by server worker threads. Both
/// in-repo devices are plain data (or an `std::fs::File`) and qualify
/// automatically.
pub trait Device: Send + Sync {
    /// Size of every page in bytes.
    fn page_size(&self) -> usize;
    /// Currently allocated pages.
    fn live_pages(&self) -> usize;
    /// High-water mark of the page space.
    fn capacity_pages(&self) -> usize;
    /// Allocate a zeroed page, recycling freed ids first.
    fn allocate(&mut self) -> Result<PageId>;
    /// Return a page to the free pool.
    fn free(&mut self, id: PageId) -> Result<()>;
    /// The image of a live page (exactly `page_size` bytes).
    fn read(&self, id: PageId) -> Result<Arc<[u8]>>;
    /// Replace the image of a live page with `img`.
    ///
    /// # Panics
    /// Panics if `img` is not exactly `page_size` bytes.
    fn write(&mut self, id: PageId, img: Arc<[u8]>) -> Result<()>;
    /// Validate that `id` is live without transferring data.
    fn check(&self, id: PageId) -> Result<()>;
    /// Durably persist all state (no-op for memory devices).
    fn sync(&mut self) -> Result<()>;
    /// Store an opaque metadata blob (the database superblock).
    fn set_meta(&mut self, meta: &[u8]) -> Result<()>;
    /// Fetch the metadata blob (empty if never set).
    fn get_meta(&self) -> Result<Vec<u8>>;
}

/// A fresh, unshared, zeroed image of `len` bytes, allocated once and
/// filled in place through `Arc::get_mut`.
pub(crate) fn zeroed_image(len: usize) -> Arc<[u8]> {
    std::iter::repeat_n(0u8, len).collect()
}

/// Allocation state of one slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotState {
    Live,
    Free,
}

/// In-memory stand-in for secondary storage.
#[derive(Debug)]
pub struct Disk {
    page_size: usize,
    /// Page images, indexed by `PageId`. Freed pages keep their slot (ids
    /// are recycled through `free_list`) so dangling references are caught.
    /// A page that is free, or allocated but never written, points at
    /// `zero` and owns no bytes of its own.
    pages: Vec<Arc<[u8]>>,
    states: Vec<SlotState>,
    free_list: Vec<PageId>,
    zero: Arc<[u8]>,
    meta: Vec<u8>,
}

impl Disk {
    /// Create an empty disk producing pages of `page_size` bytes.
    ///
    /// # Panics
    /// Panics if `page_size == 0`.
    pub fn new(page_size: usize) -> Self {
        assert!(page_size > 0, "page size must be positive");
        Disk {
            page_size,
            pages: Vec::new(),
            states: Vec::new(),
            free_list: Vec::new(),
            zero: zeroed_image(page_size),
            meta: Vec::new(),
        }
    }

    fn check(&self, id: PageId) -> Result<()> {
        match self.states.get(id as usize) {
            None => Err(PagerError::OutOfBounds(id)),
            Some(SlotState::Free) => Err(PagerError::Freed(id)),
            Some(SlotState::Live) => Ok(()),
        }
    }

    /// Immutable view of a live page image (tests).
    pub fn page(&self, id: PageId) -> Result<&[u8]> {
        self.check(id)?;
        Ok(&self.pages[id as usize])
    }

    /// Mutable view of a live page image (tests). Copies on write: an
    /// image already handed out by [`Device::read`] keeps its bytes.
    pub fn page_mut(&mut self, id: PageId) -> Result<&mut [u8]> {
        self.check(id)?;
        Ok(Arc::make_mut(&mut self.pages[id as usize]))
    }
}

impl Device for Disk {
    fn page_size(&self) -> usize {
        self.page_size
    }

    fn check(&self, id: PageId) -> Result<()> {
        Disk::check(self, id)
    }

    fn live_pages(&self) -> usize {
        self.pages.len() - self.free_list.len()
    }

    fn capacity_pages(&self) -> usize {
        self.pages.len()
    }

    fn allocate(&mut self) -> Result<PageId> {
        if let Some(id) = self.free_list.pop() {
            self.states[id as usize] = SlotState::Live;
            return Ok(id);
        }
        let id = self.pages.len() as PageId;
        self.pages.push(Arc::clone(&self.zero));
        self.states.push(SlotState::Live);
        Ok(id)
    }

    fn free(&mut self, id: PageId) -> Result<()> {
        self.check(id)?;
        self.pages[id as usize] = Arc::clone(&self.zero);
        self.states[id as usize] = SlotState::Free;
        self.free_list.push(id);
        Ok(())
    }

    fn read(&self, id: PageId) -> Result<Arc<[u8]>> {
        self.check(id)?;
        Ok(Arc::clone(&self.pages[id as usize]))
    }

    fn write(&mut self, id: PageId, img: Arc<[u8]>) -> Result<()> {
        self.check(id)?;
        assert_eq!(img.len(), self.page_size, "page image size");
        self.pages[id as usize] = img;
        Ok(())
    }

    fn sync(&mut self) -> Result<()> {
        Ok(())
    }

    fn set_meta(&mut self, meta: &[u8]) -> Result<()> {
        self.meta = meta.to_vec();
        Ok(())
    }

    fn get_meta(&self) -> Result<Vec<u8>> {
        Ok(self.meta.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_zeroes_and_recycles() {
        let mut d = Disk::new(8);
        let a = d.allocate().unwrap();
        let b = d.allocate().unwrap();
        assert_ne!(a, b);
        d.page_mut(a).unwrap()[3] = 9;
        d.free(a).unwrap();
        assert_eq!(d.live_pages(), 1);
        let c = d.allocate().unwrap();
        assert_eq!(c, a, "freed id is recycled");
        assert!(
            d.page(c).unwrap().iter().all(|&b| b == 0),
            "recycled page is zeroed"
        );
        assert_eq!(d.capacity_pages(), 2);
    }

    #[test]
    fn access_errors() {
        let mut d = Disk::new(4);
        assert_eq!(d.page(0).unwrap_err(), PagerError::OutOfBounds(0));
        let a = d.allocate().unwrap();
        d.free(a).unwrap();
        assert_eq!(d.page(a).unwrap_err(), PagerError::Freed(a));
        assert_eq!(d.free(a).unwrap_err(), PagerError::Freed(a));
        assert_eq!(d.page_mut(99).unwrap_err(), PagerError::OutOfBounds(99));
        assert!(d.read(a).is_err());
    }

    #[test]
    fn freed_and_fresh_pages_share_the_zero_image() {
        let mut d = Disk::new(8);
        let a = d.allocate().unwrap();
        let b = d.allocate().unwrap();
        d.write(a, Arc::from([7u8; 8])).unwrap();
        d.free(a).unwrap();
        assert!(Arc::ptr_eq(&d.pages[a as usize], &d.zero), "freed page");
        assert!(Arc::ptr_eq(&d.read(b).unwrap(), &d.zero), "fresh page");
        let c = d.allocate().unwrap();
        assert_eq!(c, a, "freed id is recycled");
        let img = d.read(c).unwrap();
        assert!(Arc::ptr_eq(&img, &d.zero), "recycled page owns no bytes");
        assert_eq!(*img, [0u8; 8], "recycled page reads all zeros");
    }

    #[test]
    fn a_held_image_never_changes() {
        let mut d = Disk::new(4);
        let a = d.allocate().unwrap();
        let written: Arc<[u8]> = Arc::from([1u8; 4]);
        d.write(a, Arc::clone(&written)).unwrap();
        let held = d.read(a).unwrap();
        assert!(Arc::ptr_eq(&held, &written), "write keeps the given image");
        d.write(a, Arc::from([2u8; 4])).unwrap();
        assert_eq!(*held, [1u8; 4], "write swaps the image");
        let held = d.read(a).unwrap();
        d.page_mut(a).unwrap()[0] = 9;
        assert_eq!(*held, [2u8; 4], "page_mut copies on write");
        assert_eq!(d.page(a).unwrap(), [9, 2, 2, 2]);
        // The shared zero image is copied, never written through.
        let b = d.allocate().unwrap();
        d.page_mut(b).unwrap()[0] = 5;
        assert_eq!(*d.zero, [0u8; 4]);
    }

    #[test]
    #[should_panic(expected = "page image size")]
    fn a_short_image_is_refused() {
        let mut d = Disk::new(4);
        let a = d.allocate().unwrap();
        let _ = d.write(a, Arc::from([1u8; 3]));
    }

    #[test]
    fn meta_roundtrip() {
        let mut d = Disk::new(16);
        assert!(d.get_meta().unwrap().is_empty());
        d.set_meta(b"hello").unwrap();
        assert_eq!(d.get_meta().unwrap(), b"hello");
    }

    #[test]
    #[should_panic(expected = "page size")]
    fn zero_page_size_panics() {
        let _ = Disk::new(0);
    }
}
