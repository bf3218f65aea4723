//! A strict-LRU buffer pool.
//!
//! With capacity 0 (the default) the pager bypasses the pool entirely and
//! every access is a physical I/O — exactly the cost model the paper's
//! bounds are stated in. Non-zero capacities are used by the buffer-pool
//! ablation experiment (E9/E10 in DESIGN.md) to show how much of each
//! structure's access pattern is re-use, and by the serving layer
//! (`segdb-server`), which wraps many of these in the sharded pool of
//! [`crate::shard::ShardedCache`].
//!
//! Page images are stored as `Arc<[u8]>`: a cache hit hands the caller a
//! reference-counted clone instead of a copy, so a concurrent reader can
//! release the shard lock *before* decoding the node image
//! ([`LruCache::get_cloned`]). Mutation replaces the whole image (the
//! pager always produces fully rebuilt page images), so no `&mut [u8]`
//! access into the cache is needed and shared images are never written
//! through.
//!
//! The pool decides what counts as a hit; it does not own the bytes. An
//! entry is a clone of the same `Arc` the device hands out on a read and
//! is given on a write-back, so a pool in front of an in-memory
//! [`crate::Disk`] adds no second copy of a page.
//!
//! The implementation is an intrusive doubly-linked list over an arena of
//! entries plus a `HashMap` index: O(1) hit, O(1) eviction, no per-access
//! allocation once warm.

use crate::PageId;
use std::collections::HashMap;
use std::sync::Arc;

const NIL: usize = usize::MAX;

#[derive(Debug)]
struct Entry {
    page: PageId,
    data: Arc<[u8]>,
    dirty: bool,
    prev: usize,
    next: usize,
}

/// Write-back LRU cache of page images.
#[derive(Debug)]
pub struct LruCache {
    capacity: usize,
    map: HashMap<PageId, usize>,
    arena: Vec<Entry>,
    free: Vec<usize>,
    head: usize, // most recently used
    tail: usize, // least recently used
}

/// A page evicted from the cache; `dirty` pages must be written back.
#[derive(Debug)]
pub struct Evicted {
    /// Which page was evicted.
    pub page: PageId,
    /// Its (possibly modified) image.
    pub data: Arc<[u8]>,
    /// Whether the image differs from the disk copy.
    pub dirty: bool,
}

fn empty_image() -> Arc<[u8]> {
    Arc::from(Vec::new().into_boxed_slice())
}

impl LruCache {
    /// Create a cache holding at most `capacity` pages.
    pub fn new(capacity: usize) -> Self {
        LruCache {
            capacity,
            map: HashMap::with_capacity(capacity.min(1 << 16)),
            arena: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }

    /// Maximum number of resident pages.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of resident pages.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no pages are resident.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.arena[idx].prev, self.arena[idx].next);
        if prev != NIL {
            self.arena[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.arena[next].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, idx: usize) {
        self.arena[idx].prev = NIL;
        self.arena[idx].next = self.head;
        if self.head != NIL {
            self.arena[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    fn touch(&mut self, idx: usize) {
        if idx != self.head {
            self.unlink(idx);
            self.push_front(idx);
        }
    }

    /// Look up `page`, marking it most-recently-used. Returns its image.
    pub fn get(&mut self, page: PageId) -> Option<&Arc<[u8]>> {
        let idx = *self.map.get(&page)?;
        self.touch(idx);
        Some(&self.arena[idx].data)
    }

    /// Look up `page`, marking it MRU, and return a reference-counted
    /// clone of its image. The clone is O(1) — callers use this to copy
    /// *the handle*, release whatever lock guards the cache, and decode
    /// the bytes outside the critical section.
    pub fn get_cloned(&mut self, page: PageId) -> Option<Arc<[u8]>> {
        self.get(page).cloned()
    }

    /// Insert a page image (clean unless `dirty`), evicting the LRU entry
    /// if the pool is full. Returns the eviction victim, if any.
    ///
    /// # Panics
    /// Panics if the page is already resident (use [`LruCache::upsert`]
    /// when residency is unknown) or if capacity is zero.
    pub fn insert(&mut self, page: PageId, data: Arc<[u8]>, dirty: bool) -> Option<Evicted> {
        assert!(self.capacity > 0, "insert into zero-capacity cache");
        assert!(!self.map.contains_key(&page), "page already cached");
        let victim = if self.map.len() >= self.capacity {
            let idx = self.tail;
            let victim_page = self.arena[idx].page;
            self.unlink(idx);
            self.map.remove(&victim_page);
            let data = std::mem::replace(&mut self.arena[idx].data, empty_image());
            let dirty = self.arena[idx].dirty;
            self.free.push(idx);
            Some(Evicted {
                page: victim_page,
                data,
                dirty,
            })
        } else {
            None
        };
        let idx = match self.free.pop() {
            Some(i) => {
                self.arena[i] = Entry {
                    page,
                    data,
                    dirty,
                    prev: NIL,
                    next: NIL,
                };
                i
            }
            None => {
                self.arena.push(Entry {
                    page,
                    data,
                    dirty,
                    prev: NIL,
                    next: NIL,
                });
                self.arena.len() - 1
            }
        };
        self.map.insert(page, idx);
        self.push_front(idx);
        victim
    }

    /// Insert or replace `page` with a new image, marking it MRU. The
    /// dirty bit is OR-ed in: replacing a dirty image with a clean one
    /// keeps the entry dirty (the disk copy is still stale). Returns the
    /// eviction victim if an insert displaced the LRU entry.
    pub fn upsert(&mut self, page: PageId, data: Arc<[u8]>, dirty: bool) -> Option<Evicted> {
        if let Some(&idx) = self.map.get(&page) {
            self.touch(idx);
            self.arena[idx].data = data;
            self.arena[idx].dirty |= dirty;
            return None;
        }
        self.insert(page, data, dirty)
    }

    /// Insert `page` only if absent (readers admitting a freshly fetched
    /// image must not clobber a concurrently admitted — possibly dirty —
    /// copy). When the page is already resident it is only touched MRU.
    pub fn insert_if_absent(
        &mut self,
        page: PageId,
        data: Arc<[u8]>,
        dirty: bool,
    ) -> Option<Evicted> {
        if let Some(&idx) = self.map.get(&page) {
            self.touch(idx);
            return None;
        }
        self.insert(page, data, dirty)
    }

    /// Write every dirty resident page back through `writeback` (LRU
    /// first) and mark it clean, keeping all pages resident. Unlike
    /// [`LruCache::drain`] the pool stays warm — this is how a freshly
    /// built database cleans its pool before entering concurrent
    /// serving. A `writeback` error aborts the sweep; already-cleaned
    /// entries stay clean (their images were written).
    pub fn clean_all<E>(
        &mut self,
        writeback: &mut impl FnMut(PageId, &Arc<[u8]>) -> Result<(), E>,
    ) -> Result<(), E> {
        let mut idx = self.tail;
        while idx != NIL {
            if self.arena[idx].dirty {
                writeback(self.arena[idx].page, &self.arena[idx].data)?;
                self.arena[idx].dirty = false;
            }
            idx = self.arena[idx].prev;
        }
        Ok(())
    }

    /// Remove a page (used when the page is freed). Returns its image if it
    /// was resident.
    pub fn remove(&mut self, page: PageId) -> Option<Evicted> {
        let idx = self.map.remove(&page)?;
        self.unlink(idx);
        let data = std::mem::replace(&mut self.arena[idx].data, empty_image());
        let dirty = self.arena[idx].dirty;
        self.free.push(idx);
        Some(Evicted { page, data, dirty })
    }

    /// Drain every resident page (for flushing), LRU first.
    pub fn drain(&mut self) -> Vec<Evicted> {
        let mut out = Vec::with_capacity(self.map.len());
        let mut idx = self.tail;
        while idx != NIL {
            let prev = self.arena[idx].prev;
            let page = self.arena[idx].page;
            let data = std::mem::replace(&mut self.arena[idx].data, empty_image());
            out.push(Evicted {
                page,
                data,
                dirty: self.arena[idx].dirty,
            });
            self.free.push(idx);
            idx = prev;
        }
        self.map.clear();
        self.head = NIL;
        self.tail = NIL;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn img(b: u8) -> Arc<[u8]> {
        Arc::from(vec![b; 4].into_boxed_slice())
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c = LruCache::new(2);
        assert!(c.insert(1, img(1), false).is_none());
        assert!(c.insert(2, img(2), false).is_none());
        // touch 1 so 2 becomes LRU
        assert_eq!(c.get(1).unwrap()[0], 1);
        let ev = c.insert(3, img(3), false).unwrap();
        assert_eq!(ev.page, 2);
        assert!(!ev.dirty);
        assert!(c.get(2).is_none());
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn upsert_marks_dirty_and_eviction_reports_it() {
        let mut c = LruCache::new(1);
        c.insert(5, img(5), false);
        c.upsert(5, img(9), true);
        let ev = c.insert(6, img(6), false).unwrap();
        assert_eq!(ev.page, 5);
        assert!(ev.dirty);
        assert_eq!(ev.data[0], 9);
    }

    #[test]
    fn upsert_keeps_dirty_bit_sticky() {
        let mut c = LruCache::new(1);
        c.insert(5, img(5), true);
        c.upsert(5, img(7), false);
        let ev = c.insert(6, img(6), false).unwrap();
        assert!(ev.dirty, "dirty image replaced by clean one stays dirty");
        assert_eq!(ev.data[0], 7);
    }

    #[test]
    fn insert_if_absent_preserves_existing_image() {
        let mut c = LruCache::new(2);
        c.insert(1, img(1), true);
        assert!(c.insert_if_absent(1, img(9), false).is_none());
        assert_eq!(c.get(1).unwrap()[0], 1, "existing image kept");
        assert!(c.insert_if_absent(2, img(2), false).is_none());
        assert_eq!(c.get(2).unwrap()[0], 2, "absent page admitted");
    }

    #[test]
    fn get_cloned_shares_the_image() {
        let mut c = LruCache::new(1);
        c.insert(3, img(3), false);
        let a = c.get_cloned(3).unwrap();
        let b = c.get_cloned(3).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "clones share one allocation");
        assert_eq!(a[0], 3);
    }

    #[test]
    fn remove_and_drain() {
        let mut c = LruCache::new(3);
        c.insert(1, img(1), false);
        c.insert(2, img(2), true);
        c.insert(3, img(3), false);
        let r = c.remove(2).unwrap();
        assert!(r.dirty);
        assert!(c.remove(2).is_none());
        let drained = c.drain();
        assert_eq!(drained.len(), 2);
        assert!(c.is_empty());
        // LRU-first drain order: 1 then 3
        assert_eq!(drained[0].page, 1);
        assert_eq!(drained[1].page, 3);
    }

    #[test]
    fn clean_all_writes_dirty_pages_and_keeps_them_resident() {
        let mut c = LruCache::new(3);
        c.insert(1, img(1), true);
        c.insert(2, img(2), false);
        c.insert(3, img(3), true);
        let mut written = Vec::new();
        c.clean_all::<()>(&mut |page, data| {
            written.push((page, data[0]));
            Ok(())
        })
        .unwrap();
        // LRU-first, dirty pages only.
        assert_eq!(written, vec![(1, 1), (3, 3)]);
        assert_eq!(c.len(), 3, "pages stay resident");
        // Everything is clean now: a second sweep writes nothing.
        c.clean_all::<()>(&mut |_, _| panic!("no dirty pages left"))
            .unwrap();
        let ev = c.remove(1).unwrap();
        assert!(!ev.dirty);
    }

    #[test]
    fn slot_reuse_after_eviction() {
        let mut c = LruCache::new(2);
        for i in 0..20u32 {
            c.insert(i, img(i as u8), false);
        }
        assert_eq!(c.len(), 2);
        assert!(c.arena.len() <= 3, "arena must recycle slots");
        assert_eq!(c.get(19).unwrap()[0], 19);
        assert_eq!(c.get(18).unwrap()[0], 18);
    }
}
