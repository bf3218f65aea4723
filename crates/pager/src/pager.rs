//! The [`Pager`]: counted, optionally cached access to the simulated disk.
//!
//! Design notes:
//!
//! * All methods take `&self`, and the pager is `Send + Sync`: queries
//!   over an index must be expressible through a shared reference — and,
//!   since the serving layer (`segdb-server`), from many threads over one
//!   `Arc` — while still counting I/O and updating the LRU. The device
//!   lives behind an `RwLock` (concurrent page reads, exclusive writes),
//!   the buffer pool is a sharded [`ShardedCache`] of per-shard
//!   `Mutex<LruCache>`s, and the counters are relaxed atomics plus a
//!   per-thread bank (see [`crate::stats`]).
//! * Every page image is one immutable `Arc<[u8]>`, owned by nobody in
//!   particular: the device, the buffer pool and every reader hold
//!   clones of it. A miss admits the device's own image, and a
//!   write-back or uncached store hands the pool's image to the device,
//!   so no verb copies a page between the two and a pool covering an
//!   in-memory [`Disk`] holds each page once. A store never writes into
//!   an image; it swaps in a new one.
//! * Read closures receive the page image as `&[u8]` backed by that
//!   `Arc<[u8]>`: a cache hit clones the handle and releases the shard
//!   lock *before* the closure decodes the node, so no lock is held
//!   across index-node decoding and no memcpy happens on the hot path.
//!   The API stays fully re-entrant: tree traversals may read a child
//!   page from inside a parent-page closure.
//! * Three access verbs mirror the external-memory cost model:
//!   [`Pager::page`] / [`Pager::with_page`] (1 read), [`Pager::with_page_mut`]
//!   (read-modify-write: 1 read + 1 write), and [`Pager::overwrite_page`]
//!   (blind write of a freshly built node image: 1 write, no read).
//! * Concurrency contract: any number of concurrent **readers** are safe
//!   (`with_page`, `get_meta`, `stats`, …) — including when dirty pages
//!   are resident, because a dirty eviction victim is written back to
//!   the device *inside* the shard lock (lock order shard → device;
//!   device guards are never held across a cache call). The mutating
//!   verbs are also data-race-free, but interleaving them with readers
//!   gives no atomicity across pages — multi-page structural updates
//!   require external exclusive access (`&mut SegmentDatabase` at the
//!   facade). See DESIGN.md "Concurrent serving".

use crate::device::{zeroed_image, Device, Disk};
use crate::error::Result;
use crate::shard::ShardedCache;
use crate::stats::{self, Io, IoStats, IoTally};
use crate::PageId;
use segdb_obs::trace::{emit, EventKind};
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Construction parameters for a [`Pager`].
#[derive(Debug, Clone, Copy)]
pub struct PagerConfig {
    /// Bytes per page (block).
    pub page_size: usize,
    /// Buffer-pool capacity in pages. `0` disables caching, making every
    /// access a physical I/O — the paper's pure cost model.
    pub cache_pages: usize,
}

impl Default for PagerConfig {
    fn default() -> Self {
        PagerConfig {
            page_size: 4096,
            cache_pages: 0,
        }
    }
}

/// Counted, optionally cached page-access layer. See module docs.
pub struct Pager {
    device: RwLock<Box<dyn Device>>,
    cache: ShardedCache,
    counters: IoTally,
    page_size: usize,
}

impl std::fmt::Debug for Pager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pager")
            .field("page_size", &self.page_size)
            .field("cache_shards", &self.cache.shard_count())
            .field("live_pages", &self.live_pages())
            .finish()
    }
}

impl Pager {
    /// Create a pager over a fresh in-memory disk.
    pub fn new(config: PagerConfig) -> Self {
        Self::with_device(Box::new(Disk::new(config.page_size)), config.cache_pages)
    }

    /// Create a pager over any [`Device`] — e.g. a persistent
    /// [`crate::file_device::FileDevice`] — with a single-shard (exact
    /// global-LRU) buffer pool.
    pub fn with_device(device: Box<dyn Device>, cache_pages: usize) -> Self {
        Self::with_device_sharded(device, cache_pages, 1)
    }

    /// Like [`Pager::with_device`], but splitting the buffer pool over
    /// `shards` independently locked LRU shards so concurrent readers
    /// contend per shard instead of on one pool lock. `shards = 1`
    /// reproduces the exact single-LRU eviction order of the cost-model
    /// experiments; the serving layer uses more.
    pub fn with_device_sharded(device: Box<dyn Device>, cache_pages: usize, shards: usize) -> Self {
        let page_size = device.page_size();
        Pager {
            device: RwLock::new(device),
            cache: ShardedCache::new(cache_pages, shards),
            counters: IoTally::new(),
            page_size,
        }
    }

    fn device_read(&self) -> RwLockReadGuard<'_, Box<dyn Device>> {
        self.device.read().unwrap_or_else(|p| p.into_inner())
    }

    fn device_write(&self) -> RwLockWriteGuard<'_, Box<dyn Device>> {
        self.device.write().unwrap_or_else(|p| p.into_inner())
    }

    /// Store the database superblock blob on the device.
    pub fn set_meta(&self, meta: &[u8]) -> Result<()> {
        observe_io(self.device_write().set_meta(meta))
    }

    /// Fetch the database superblock blob.
    pub fn get_meta(&self) -> Result<Vec<u8>> {
        observe_io(self.device_read().get_meta())
    }

    /// Flush the buffer pool and durably sync the device.
    pub fn sync(&self) -> Result<()> {
        observe_io(self.flush_inner().and_then(|()| self.device_write().sync()))
    }

    /// Bytes per page.
    #[inline]
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Number of buffer-pool shards (1 = exact global LRU).
    pub fn cache_shards(&self) -> usize {
        self.cache.shard_count()
    }

    /// Buffer-pool capacity in pages (`0` = uncached).
    pub fn cache_capacity(&self) -> usize {
        self.cache.capacity()
    }

    /// Pages currently resident in the buffer pool.
    pub fn cached_pages(&self) -> usize {
        self.cache.len()
    }

    /// Snapshot of I/O counters.
    pub fn stats(&self) -> IoStats {
        IoStats::of(&self.counters)
    }

    /// Zero all I/O counters (space counters included).
    pub fn reset_stats(&self) {
        self.counters.reset();
    }

    /// Pages currently allocated on the disk (live, cache included).
    pub fn live_pages(&self) -> usize {
        self.device_read().live_pages()
    }

    /// High-water mark of the disk image in pages.
    pub fn capacity_pages(&self) -> usize {
        self.device_read().capacity_pages()
    }

    /// Allocate a zeroed page. Counts one allocation (not a write; the
    /// caller will `overwrite_page` it with real content).
    pub fn allocate(&self) -> Result<PageId> {
        let id = observe_io(self.device_write().allocate())?;
        stats::record(&self.counters, Io::Alloc);
        emit(EventKind::PageAlloc, u64::from(id), 0);
        Ok(id)
    }

    /// Free a page, dropping any cached copy.
    pub fn free(&self, id: PageId) -> Result<()> {
        self.cache.remove(id);
        observe_io(self.device_write().free(id))?;
        stats::record(&self.counters, Io::Free);
        emit(EventKind::PageFree, u64::from(id), 0);
        Ok(())
    }

    /// Fetch the current image of `id` through the cache. Counts a read
    /// on miss, a hit otherwise. No lock is held when this returns.
    fn fetch(&self, id: PageId) -> Result<Arc<[u8]>> {
        if let Some(img) = self.cache.get_cloned(id) {
            stats::record(&self.counters, Io::Hit);
            emit(EventKind::CacheHit, u64::from(id), 0);
            return Ok(img);
        }
        let img = self.device_read().read(id)?;
        stats::record(&self.counters, Io::Read);
        emit(EventKind::PageRead, u64::from(id), 0);
        // insert_if_absent semantics: if another thread admitted (or a
        // writer dirtied) this page meanwhile, keep the resident image.
        // The dirty victim (if any) is written back while the shard lock
        // is still held — releasing first would let a concurrent reader
        // miss on the just-evicted page and read its stale device image.
        self.cache
            .admit_clean(id, Arc::clone(&img), |ev| self.writeback(ev))?;
        Ok(img)
    }

    /// Write one eviction victim back to the device if it was dirty.
    /// Called from inside the shard lock (lock order: shard → device).
    fn writeback(&self, ev: &crate::cache::Evicted) -> Result<()> {
        if ev.dirty {
            self.device_write().write(ev.page, Arc::clone(&ev.data))?;
            stats::record(&self.counters, Io::Write);
            emit(EventKind::PageWrite, u64::from(ev.page), 0);
        }
        Ok(())
    }

    /// Store a modified image, through the cache when enabled.
    fn store(&self, id: PageId, img: Arc<[u8]>) -> Result<()> {
        if self.cache.capacity() > 0 {
            // Validate the id first so dangling writes still error even
            // when the cache absorbs the store.
            self.device_read().check(id)?;
            self.cache.admit_dirty(id, img, |ev| self.writeback(ev))?;
        } else {
            self.device_write().write(id, img)?;
            stats::record(&self.counters, Io::Write);
            emit(EventKind::PageWrite, u64::from(id), 0);
        }
        Ok(())
    }

    /// Read page `id` and hand out its immutable image. Counts 1 read (or
    /// a cache hit). The image stays valid for as long as the caller
    /// holds it — a later store to the page installs a new image, it
    /// never changes this one — so a cursor can keep its leaf across
    /// calls and a node view can borrow from it.
    pub fn page(&self, id: PageId) -> Result<Arc<[u8]>> {
        observe_io(self.fetch(id))
    }

    /// Read page `id` and run `f` on its bytes: [`Pager::page`] for
    /// callers that are done with the image when `f` returns.
    /// Re-entrant: `f` may call back into the pager.
    pub fn with_page<R>(&self, id: PageId, f: impl FnOnce(&[u8]) -> R) -> Result<R> {
        Ok(f(&self.page(id)?))
    }

    /// Read-modify-write page `id`. Counts 1 read + 1 write in uncached
    /// mode; with a cache, the write is deferred to eviction or flush.
    /// `f` edits a private copy of the image (one copy, and none when
    /// nobody else holds it), so a reader holding the old image keeps it.
    pub fn with_page_mut<R>(&self, id: PageId, f: impl FnOnce(&mut [u8]) -> R) -> Result<R> {
        let mut img = observe_io(self.fetch(id))?;
        let r = f(Arc::make_mut(&mut img));
        observe_io(self.store(id, img))?;
        Ok(r)
    }

    /// Overwrite page `id` with a freshly built image: `f` receives a
    /// zeroed buffer and must fill it. Counts 1 write and **no read** —
    /// this is how builders emit nodes.
    pub fn overwrite_page<R>(&self, id: PageId, f: impl FnOnce(&mut [u8]) -> R) -> Result<R> {
        let mut img = zeroed_image(self.page_size);
        let r = f(Arc::get_mut(&mut img).expect("a fresh image is unshared"));
        // Validate the id even when the cache would absorb the store.
        self.device_read().check(id)?;
        observe_io(self.store(id, img))?;
        Ok(r)
    }

    /// Write every dirty cached page back to disk (counting the writes)
    /// while keeping all pages resident — the pool stays warm, now clean.
    /// A freshly built database calls this before being shared with
    /// concurrent readers so no dirty page is ever resident on the
    /// serving path (see DESIGN.md "Concurrent serving").
    pub fn clean_pool(&self) -> Result<()> {
        observe_io(self.clean_pool_inner())
    }

    fn clean_pool_inner(&self) -> Result<()> {
        self.cache.clean_all(|page, data| {
            self.device_write().write(page, Arc::clone(data))?;
            stats::record(&self.counters, Io::Write);
            emit(EventKind::PageWrite, u64::from(page), 0);
            Ok(())
        })
    }

    /// Write every dirty cached page back to disk (counting the writes) and
    /// empty the pool.
    ///
    /// Clean-then-drain, not drain-then-write: a failed writeback midway
    /// through a drained pool would have already discarded the remaining
    /// dirty pages. Cleaning first means an I/O error leaves every page
    /// resident — the failed one still dirty — so the flush is retryable
    /// with nothing lost; only a fully clean pool is dropped.
    pub fn flush(&self) -> Result<()> {
        observe_io(self.flush_inner())
    }

    fn flush_inner(&self) -> Result<()> {
        self.clean_pool_inner()?;
        self.cache.drain();
        Ok(())
    }
}

/// Count an I/O failure in the process-wide storage-fault ledger
/// ([`crate::fault::FAULTS`]) on its way to the caller. Applied once per
/// public verb, so one failed operation counts once even when it spans
/// several internal device calls.
fn observe_io<T>(r: Result<T>) -> Result<T> {
    if let Err(crate::error::PagerError::Io(_)) = &r {
        crate::fault::FAULTS.bump(crate::fault::Fault::ObservedIoError);
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::PagerError;

    fn uncached() -> Pager {
        Pager::new(PagerConfig {
            page_size: 16,
            cache_pages: 0,
        })
    }

    #[test]
    fn pager_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Pager>();
    }

    #[test]
    fn uncached_counts_every_access() {
        let p = uncached();
        let id = p.allocate().unwrap();
        p.overwrite_page(id, |b| b[0] = 1).unwrap();
        p.with_page(id, |b| assert_eq!(b[0], 1)).unwrap();
        p.with_page_mut(id, |b| b[1] = 2).unwrap();
        p.with_page(id, |b| assert_eq!((b[0], b[1]), (1, 2)))
            .unwrap();
        let s = p.stats();
        assert_eq!(s.allocations, 1);
        assert_eq!(s.writes, 2); // overwrite + modify
        assert_eq!(s.reads, 3); // read + modify-read + read
        assert_eq!(s.cache_hits, 0);
    }

    #[test]
    fn page_counts_like_with_page_and_outlives_a_store() {
        let p = Pager::new(PagerConfig {
            page_size: 16,
            cache_pages: 2,
        });
        let id = p.allocate().unwrap();
        p.overwrite_page(id, |b| b[0] = 1).unwrap();
        let before = p.stats();
        let held = p.page(id).unwrap();
        p.with_page(id, |b| assert_eq!(b[0], 1)).unwrap();
        let d = p.stats() - before;
        assert_eq!((d.cache_hits, d.reads), (2, 0), "one hit per verb");
        // A store installs a new image; the held one is immutable.
        p.with_page_mut(id, |b| b[0] = 2).unwrap();
        assert_eq!(held[0], 1);
        assert_eq!(p.page(id).unwrap()[0], 2);
        assert_eq!(p.page(99).unwrap_err(), PagerError::OutOfBounds(99));
    }

    #[test]
    fn overwrite_sees_zeroed_buffer() {
        let p = uncached();
        let id = p.allocate().unwrap();
        p.overwrite_page(id, |b| b.fill(7)).unwrap();
        p.overwrite_page(id, |b| {
            assert!(b.iter().all(|&x| x == 0), "overwrite must start zeroed");
            b[0] = 9;
        })
        .unwrap();
        p.with_page(id, |b| {
            assert_eq!(b[0], 9);
            assert!(b[1..].iter().all(|&x| x == 0));
        })
        .unwrap();
    }

    #[test]
    fn reentrant_access_is_allowed() {
        let p = uncached();
        let a = p.allocate().unwrap();
        let b = p.allocate().unwrap();
        p.overwrite_page(b, |buf| buf[0] = 42).unwrap();
        let v = p
            .with_page(a, |_outer| p.with_page(b, |inner| inner[0]).unwrap())
            .unwrap();
        assert_eq!(v, 42);
    }

    #[test]
    fn cache_hits_and_writeback() {
        let p = Pager::new(PagerConfig {
            page_size: 8,
            cache_pages: 1,
        });
        let a = p.allocate().unwrap();
        let b = p.allocate().unwrap();
        p.overwrite_page(a, |buf| buf[0] = 1).unwrap(); // dirty in cache, no write yet
        assert_eq!(p.stats().writes, 0);
        p.with_page(a, |_| ()).unwrap(); // hit
        assert_eq!(p.stats().cache_hits, 1);
        p.with_page(b, |_| ()).unwrap(); // miss: evicts dirty a => 1 write, 1 read
        let s = p.stats();
        assert_eq!(s.writes, 1);
        assert_eq!(s.reads, 1);
        // a's content survived the round trip
        p.flush().unwrap();
        p.with_page(a, |buf| assert_eq!(buf[0], 1)).unwrap();
    }

    #[test]
    fn flush_writes_dirty_pages() {
        let p = Pager::new(PagerConfig {
            page_size: 8,
            cache_pages: 4,
        });
        let ids: Vec<_> = (0..3).map(|_| p.allocate().unwrap()).collect();
        for (i, &id) in ids.iter().enumerate() {
            p.overwrite_page(id, |b| b[0] = i as u8 + 1).unwrap();
        }
        assert_eq!(p.stats().writes, 0);
        p.flush().unwrap();
        assert_eq!(p.stats().writes, 3);
        for (i, &id) in ids.iter().enumerate() {
            p.with_page(id, |b| assert_eq!(b[0], i as u8 + 1)).unwrap();
        }
    }

    #[test]
    fn free_removes_cached_copy_and_errors_after() {
        let p = Pager::new(PagerConfig {
            page_size: 8,
            cache_pages: 2,
        });
        let id = p.allocate().unwrap();
        p.overwrite_page(id, |b| b[0] = 5).unwrap();
        p.free(id).unwrap();
        assert_eq!(p.with_page(id, |_| ()).unwrap_err(), PagerError::Freed(id));
        assert_eq!(p.stats().frees, 1);
        // recycled page must not leak the old cached image
        let id2 = p.allocate().unwrap();
        assert_eq!(id2, id);
        p.with_page(id2, |b| assert!(b.iter().all(|&x| x == 0)))
            .unwrap();
    }

    #[test]
    fn modify_through_cache_defers_write() {
        let p = Pager::new(PagerConfig {
            page_size: 8,
            cache_pages: 2,
        });
        let id = p.allocate().unwrap();
        p.overwrite_page(id, |b| b[0] = 1).unwrap();
        p.with_page_mut(id, |b| b[0] += 1).unwrap();
        assert_eq!(p.stats().writes, 0, "writes deferred while cached");
        p.flush().unwrap();
        assert_eq!(p.stats().writes, 1, "coalesced into one write");
        p.with_page(id, |b| assert_eq!(b[0], 2)).unwrap();
    }

    #[test]
    fn store_to_unallocated_page_errors() {
        let p = uncached();
        assert!(p.with_page_mut(3, |_| ()).is_err());
        assert!(p.overwrite_page(3, |_| ()).is_err());
    }

    #[test]
    fn clean_pool_writes_dirty_pages_but_keeps_them_resident() {
        let p = Pager::new(PagerConfig {
            page_size: 8,
            cache_pages: 4,
        });
        let ids: Vec<_> = (0..3).map(|_| p.allocate().unwrap()).collect();
        for (i, &id) in ids.iter().enumerate() {
            p.overwrite_page(id, |b| b[0] = i as u8 + 1).unwrap();
        }
        assert_eq!(p.stats().writes, 0);
        p.clean_pool().unwrap();
        assert_eq!(p.stats().writes, 3, "each dirty page written once");
        p.clean_pool().unwrap();
        assert_eq!(p.stats().writes, 3, "second sweep finds nothing dirty");
        // The pool stayed warm: re-reading every page is a pure hit.
        let before = p.stats();
        for (i, &id) in ids.iter().enumerate() {
            p.with_page(id, |b| assert_eq!(b[0], i as u8 + 1)).unwrap();
        }
        let after = p.stats();
        assert_eq!(after.reads, before.reads, "no physical re-reads");
        assert_eq!(after.cache_hits, before.cache_hits + 3);
    }

    /// Regression test for the dirty-eviction stale-read race: dirty
    /// pages left resident (as after an in-memory build without
    /// `clean_pool`) are evicted by concurrent readers; if the victim
    /// were written back after the shard lock is released, a reader
    /// missing on the just-evicted page would see the stale (zeroed)
    /// device image. With writeback under the shard lock every reader
    /// must observe the written value.
    #[test]
    fn concurrent_readers_never_see_stale_dirty_evictions() {
        let p = std::sync::Arc::new(Pager::with_device_sharded(Box::new(Disk::new(16)), 8, 2));
        let ids: Vec<PageId> = (0..64)
            .map(|i| {
                let id = p.allocate().unwrap();
                p.overwrite_page(id, |b| b[0] = i as u8 + 1).unwrap();
                id
            })
            .collect();
        // Deliberately NO flush/clean: up to 8 dirty pages stay resident.
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let p = std::sync::Arc::clone(&p);
                let ids = ids.clone();
                std::thread::spawn(move || {
                    for round in 0..500usize {
                        let i = (round * 17 + t * 7) % ids.len();
                        p.with_page(ids[i], |b| {
                            assert_eq!(b[0], i as u8 + 1, "stale page image observed")
                        })
                        .unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    /// A failed dirty-victim writeback on the read path must not lose
    /// the dirty page: the error propagates, the victim stays resident
    /// (still dirty), and a later fault-free flush persists it.
    #[test]
    fn failed_writeback_keeps_the_dirty_page_recoverable() {
        use crate::fault::{FaultDevice, FaultPlan};
        let (dev, handle) = FaultDevice::over_memory(8, FaultPlan::none(1));
        let p = Pager::with_device(Box::new(dev), 1);
        let a = p.allocate().unwrap();
        let b = p.allocate().unwrap();
        p.overwrite_page(a, |buf| buf[0] = 7).unwrap(); // dirty, cached
        handle.arm(FaultPlan {
            write_error: 1.0,
            ..FaultPlan::none(1)
        });
        // Reading b evicts dirty a; the writeback fails and propagates.
        let err = p.with_page(b, |_| ()).unwrap_err();
        assert!(matches!(err, PagerError::Io(_)), "got {err:?}");
        handle.disarm();
        // Nothing was lost: a is still resident and dirty, so a flush
        // writes it and the value survives.
        p.flush().unwrap();
        p.with_page(a, |buf| assert_eq!(buf[0], 7)).unwrap();
        assert_eq!(handle.stats().write_errors, 1);
    }

    /// A flush interrupted by an I/O error must keep every not-yet-written
    /// dirty page in the pool for retry instead of draining (and thereby
    /// discarding) them.
    #[test]
    fn interrupted_flush_loses_no_dirty_pages() {
        use crate::fault::{FaultDevice, FaultPlan};
        let (dev, handle) = FaultDevice::over_memory(8, FaultPlan::none(2));
        let p = Pager::with_device(Box::new(dev), 4);
        let ids: Vec<_> = (0..3).map(|_| p.allocate().unwrap()).collect();
        for (i, &id) in ids.iter().enumerate() {
            p.overwrite_page(id, |buf| buf[0] = i as u8 + 1).unwrap();
        }
        handle.arm(FaultPlan {
            write_error: 1.0,
            ..FaultPlan::none(2)
        });
        assert!(p.flush().is_err(), "first dirty write fails");
        handle.disarm();
        p.flush().unwrap();
        for (i, &id) in ids.iter().enumerate() {
            p.with_page(id, |buf| assert_eq!(buf[0], i as u8 + 1))
                .unwrap();
        }
    }

    /// End-to-end power-cut drill at the pager level: what was synced is
    /// exactly what a recovered pager sees.
    #[test]
    fn recovery_after_power_cut_sees_the_synced_state() {
        use crate::fault::{FaultDevice, FaultPlan};
        let (dev, handle) = FaultDevice::over_memory(8, FaultPlan::none(4));
        let p = Pager::with_device(Box::new(dev), 2);
        let a = p.allocate().unwrap();
        p.overwrite_page(a, |buf| buf[0] = 1).unwrap();
        p.set_meta(b"sb1").unwrap();
        p.sync().unwrap();
        p.overwrite_page(a, |buf| buf[0] = 2).unwrap(); // never synced
        handle.arm(FaultPlan::crash_at(4, 0));
        assert!(p.sync().is_err(), "the cut interrupts the sync");
        let recovered = Pager::with_device(handle.recover().unwrap(), 0);
        recovered.with_page(a, |buf| assert_eq!(buf[0], 1)).unwrap();
        assert_eq!(recovered.get_meta().unwrap(), b"sb1");
    }

    /// The device's own image, bypassing the pool and the counters.
    fn device_image(p: &Pager, id: PageId) -> Arc<[u8]> {
        p.device_read().read(id).unwrap()
    }

    #[test]
    fn a_clean_pool_over_a_disk_holds_the_devices_images() {
        let p = Pager::new(PagerConfig {
            page_size: 16,
            cache_pages: 8,
        });
        let ids: Vec<_> = (0..5).map(|_| p.allocate().unwrap()).collect();
        for (i, &id) in ids.iter().enumerate() {
            p.overwrite_page(id, |b| b[0] = i as u8 + 1).unwrap();
        }
        p.with_page_mut(ids[0], |b| b[1] = 9).unwrap();
        p.clean_pool().unwrap();
        for &id in &ids {
            assert!(
                Arc::ptr_eq(&p.page(id).unwrap(), &device_image(&p, id)),
                "page {id} is held twice"
            );
        }
    }

    #[test]
    fn an_uncached_pager_returns_the_devices_image() {
        let p = uncached();
        let id = p.allocate().unwrap();
        p.overwrite_page(id, |b| b[0] = 3).unwrap();
        assert!(Arc::ptr_eq(&p.page(id).unwrap(), &device_image(&p, id)));
        let s = p.stats();
        assert_eq!((s.reads, s.writes), (1, 1), "the peek is not counted");
    }

    #[test]
    fn a_held_image_survives_every_store() {
        for cache_pages in [0, 4] {
            let p = Pager::new(PagerConfig {
                page_size: 8,
                cache_pages,
            });
            let id = p.allocate().unwrap();
            p.overwrite_page(id, |b| b.fill(1)).unwrap();
            let held = p.page(id).unwrap();
            p.with_page_mut(id, |b| b[0] = 2).unwrap();
            p.overwrite_page(id, |b| b[1] = 3).unwrap();
            p.flush().unwrap();
            assert_eq!(*held, [1u8; 8], "cache_pages {cache_pages}");
            assert_eq!(*p.page(id).unwrap(), [0, 3, 0, 0, 0, 0, 0, 0]);
        }
    }

    #[test]
    fn sharded_pager_serves_concurrent_readers() {
        let p = std::sync::Arc::new(Pager::with_device_sharded(Box::new(Disk::new(32)), 16, 4));
        let ids: Vec<PageId> = (0..32)
            .map(|i| {
                let id = p.allocate().unwrap();
                p.overwrite_page(id, |b| b[0] = i as u8).unwrap();
                id
            })
            .collect();
        p.flush().unwrap();
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let p = std::sync::Arc::clone(&p);
                let ids = ids.clone();
                std::thread::spawn(move || {
                    for round in 0..200usize {
                        let i = (round * 13 + t) % ids.len();
                        p.with_page(ids[i], |b| assert_eq!(b[0], i as u8)).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let s = p.stats();
        assert_eq!(s.reads + s.cache_hits, 8 * 200, "every access counted");
    }
}
