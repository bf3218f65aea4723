#![warn(missing_docs)]

//! # segdb-pager — paged block storage with an exact I/O cost model
//!
//! The EDBT'98 paper measures every operation in *I/O operations*: the
//! transfer of one block of `B` items between disk and memory. This crate
//! provides the substrate that makes those costs observable and
//! deterministic:
//!
//! * [`Disk`] — an in-memory array of fixed-size pages standing in for
//!   secondary storage, with a free list for page recycling.
//! * [`Pager`] — the access path every index structure goes through. It
//!   counts physical reads/writes/allocations ([`IoStats`]) and optionally
//!   interposes an LRU [`cache`] (capacity 0 by default, so every access is
//!   a physical I/O — the pure model of the paper).
//! * [`codec`] — bounds-checked little-endian readers/writers used by all
//!   node serializers, so every structure genuinely lives in page images
//!   rather than in native pointers.
//! * [`fault`] — a deterministic fault-injection [`Device`] wrapper
//!   (transient errors, torn writes, simulated power cuts) driving the
//!   workspace crash-recovery torture suite (`tests/faults.rs`), and
//!   the process-wide storage-fault ledger [`fault::FAULTS`].
//!
//! All structures in the workspace store each logical node in exactly one
//! page, mirroring the paper's "each node is contained in exactly one
//! block" construction (Section 2, footnote 4).
//!
//! ```
//! use segdb_pager::{Pager, PagerConfig};
//!
//! let pager = Pager::new(PagerConfig { page_size: 128, cache_pages: 0 });
//! let id = pager.allocate().unwrap();
//! pager.overwrite_page(id, |bytes| bytes[0] = 42).unwrap();
//! let v = pager.with_page(id, |bytes| bytes[0]).unwrap();
//! assert_eq!(v, 42);
//! let s = pager.stats();
//! assert_eq!((s.reads, s.writes, s.allocations), (1, 1, 1));
//! ```

pub mod cache;
pub mod codec;
pub mod device;
pub mod error;
pub mod fault;
pub mod file_device;
pub mod pager;
pub mod shard;
pub mod stats;

pub use codec::{ByteReader, ByteWriter};
pub use device::{Device, Disk};
pub use error::{PagerError, Result};
pub use fault::{FaultDevice, FaultEvent, FaultHandle, FaultKind, FaultPlan, FaultStats};
pub use file_device::FileDevice;
pub use pager::{Pager, PagerConfig};
pub use shard::ShardedCache;
pub use stats::{thread_io, IoStats, StatScope};

/// Identifier of one page (block) of secondary storage.
///
/// `u32` keeps node headers compact; 2³² pages × 4 KiB ≫ any workload here.
pub type PageId = u32;

/// Sentinel used in serialized node layouts for "no page".
pub const NULL_PAGE: PageId = u32::MAX;
