//! The user-facing segment database.
//!
//! [`SegmentDatabase`] owns the pager, the chosen index structure and the
//! fixed query [`Direction`]. Segments are sheared into the canonical
//! frame at ingestion; query answers are sheared back, so callers only
//! ever see their own coordinates. The inverse shear is exact (integer
//! division that provably divides), so round-tripping is lossless.

use crate::anyquery::AnyQueryIndex;
use crate::baseline::{FullScan, StabThenFilter};
use crate::batch::Hidden;
use crate::binary2l::{Binary2LConfig, TwoLevelBinary};
use crate::interval2l::{Interval2LConfig, TwoLevelInterval};
use crate::persist::Superblock;
use crate::report::{normalize, QueryAnswer, QueryMode, QueryTrace};
use crate::tombs::{Lazy, Pages};
use segdb_geom::nct::verify_nct;
use segdb_geom::transform::Direction;
use segdb_geom::{GeomError, MultiSink, Point, Segment, VerticalQuery};
use segdb_itree::tree::ItState;
use segdb_obs::cost::{CostKind, CostModel, Fitter};
use segdb_obs::trace::TraceSummary;
use segdb_obs::{Json, Registry};
use segdb_pager::{Device, FileDevice, Pager, PagerError};
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Which index backs the database.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexKind {
    /// Solution 1 (§3, Theorem 1): `O(n)` space, supports insert+delete.
    TwoLevelBinary,
    /// Solution 2 (§4, Theorem 2): `O(n log B)` space, fastest queries,
    /// semi-dynamic (insert only).
    TwoLevelInterval,
    /// Exhaustive scan baseline.
    FullScan,
    /// Stabbing-index + filter baseline.
    StabThenFilter,
}

impl IndexKind {
    /// The paper bound that applies to this structure's queries.
    pub fn cost_kind(self) -> CostKind {
        match self {
            IndexKind::TwoLevelBinary => CostKind::TwoLevelBinary,
            IndexKind::TwoLevelInterval => CostKind::TwoLevelInterval,
            IndexKind::FullScan => CostKind::FullScan,
            IndexKind::StabThenFilter => CostKind::StabThenFilter,
        }
    }
}

/// Database-level errors.
#[derive(Debug)]
pub enum DbError {
    /// Invalid geometry (crossings, coordinate range, bad direction…).
    Geom(GeomError),
    /// Storage-layer failure.
    Pager(PagerError),
    /// Operation the chosen index does not support.
    Unsupported(&'static str),
    /// Query segment endpoints do not lie on a common line of the fixed
    /// direction.
    NotAligned,
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::Geom(e) => write!(f, "geometry: {e}"),
            DbError::Pager(e) => write!(f, "storage: {e}"),
            DbError::Unsupported(w) => write!(f, "unsupported operation: {w}"),
            DbError::NotAligned => {
                write!(f, "query endpoints not aligned with the fixed direction")
            }
        }
    }
}

impl std::error::Error for DbError {}

impl DbError {
    /// True for failures a retry may cure: storage-level I/O errors
    /// (including injected device faults), which pass and the query
    /// succeeds once the fault clears. Geometry errors, unsupported
    /// operations and misaligned queries are deterministic rejections —
    /// retrying them re-earns the same answer.
    pub fn is_transient(&self) -> bool {
        matches!(self, DbError::Pager(PagerError::Io(_)))
    }
}

impl From<GeomError> for DbError {
    fn from(e: GeomError) -> Self {
        DbError::Geom(e)
    }
}

impl From<PagerError> for DbError {
    fn from(e: PagerError) -> Self {
        DbError::Pager(e)
    }
}

#[derive(Debug)]
enum Index {
    /// Either two-level structure: only the pages differ, and every
    /// delete is decided by the one [`Lazy`] owner.
    TwoLevel(IndexKind, Box<Lazy<dyn Pages>>),
    Scan(FullScan),
    Stab(StabThenFilter),
}

impl Index {
    fn kind(&self) -> IndexKind {
        match self {
            Index::TwoLevel(kind, _) => *kind,
            Index::Scan(_) => IndexKind::FullScan,
            Index::Stab(_) => IndexKind::StabThenFilter,
        }
    }
}

/// Per-database observability state: a metric registry plus the cost
/// fitter judging each query against the paper's bound. Both are
/// thread-safe so observed queries can run concurrently (the registry
/// locks internally; the fitter sits behind its own mutex).
#[derive(Debug)]
struct DbObserver {
    registry: Registry,
    fitter: Mutex<Fitter>,
}

impl DbObserver {
    fn new(kind: IndexKind, len: u64, block_segments: u64) -> DbObserver {
        DbObserver {
            registry: Registry::new(),
            fitter: Mutex::new(Fitter::new(CostModel::new(
                kind.cost_kind(),
                len,
                block_segments,
            ))),
        }
    }

    fn fitter(&self) -> std::sync::MutexGuard<'_, Fitter> {
        self.fitter.lock().unwrap_or_else(|p| p.into_inner())
    }
}

/// Builder for [`SegmentDatabase`].
pub struct SegmentDatabaseBuilder {
    page_size: usize,
    cache_pages: usize,
    cache_shards: usize,
    direction: Direction,
    kind: IndexKind,
    validate_nct: bool,
    persist: Option<PathBuf>,
    device: Option<Box<dyn Device>>,
    arbitrary: bool,
    observe: bool,
}

impl fmt::Debug for SegmentDatabaseBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SegmentDatabaseBuilder")
            .field("page_size", &self.page_size)
            .field("cache_pages", &self.cache_pages)
            .field("cache_shards", &self.cache_shards)
            .field("kind", &self.kind)
            .field("persist", &self.persist)
            .field("device", &self.device.is_some())
            .field("arbitrary", &self.arbitrary)
            .field("observe", &self.observe)
            .finish()
    }
}

impl Default for SegmentDatabaseBuilder {
    fn default() -> Self {
        SegmentDatabaseBuilder {
            page_size: 4096,
            cache_pages: 0,
            cache_shards: 1,
            direction: Direction::VERTICAL,
            kind: IndexKind::TwoLevelInterval,
            validate_nct: true,
            persist: None,
            device: None,
            arbitrary: false,
            observe: false,
        }
    }
}

impl SegmentDatabaseBuilder {
    /// Page (block) size in bytes.
    pub fn page_size(mut self, bytes: usize) -> Self {
        self.page_size = bytes;
        self
    }

    /// Buffer-pool capacity in pages (0 = pure I/O model).
    pub fn cache_pages(mut self, pages: usize) -> Self {
        self.cache_pages = pages;
        self
    }

    /// Split the buffer pool over `shards` independently locked LRU
    /// shards (default 1 = exact global LRU, the deterministic
    /// experiment configuration). Concurrent query serving uses more so
    /// reader threads contend per shard instead of on one pool lock.
    pub fn cache_shards(mut self, shards: usize) -> Self {
        self.cache_shards = shards.max(1);
        self
    }

    /// Fixed query direction (default vertical).
    pub fn direction(mut self, dx: i64, dy: i64) -> Result<Self, DbError> {
        self.direction = Direction::new(dx, dy)?;
        Ok(self)
    }

    /// Index structure (default [`IndexKind::TwoLevelInterval`]).
    pub fn index(mut self, kind: IndexKind) -> Self {
        self.kind = kind;
        self
    }

    /// Skip the NCT validation sweep (for very large trusted inputs).
    pub fn trust_input(mut self) -> Self {
        self.validate_nct = false;
        self
    }

    /// Additionally build the §5 future-work extension: an auxiliary
    /// candidate-filter index enabling
    /// [`SegmentDatabase::query_free_segment`] — intersection queries by
    /// segments of **any** direction (at non-optimal, candidate-bounded
    /// cost; see [`crate::anyquery`]).
    pub fn enable_arbitrary_queries(mut self) -> Self {
        self.arbitrary = true;
        self
    }

    /// Attach the observability layer: a per-database metric registry
    /// (I/O per query, hits per query, cache hit ratio, …) and the
    /// cost-model verifier that judges every query against the paper's
    /// fitted bound (see [`SegmentDatabase::metrics_json`]). Queries then
    /// carry [`QueryTrace::cost`] once the fitter has warmed up.
    pub fn observe(mut self) -> Self {
        self.observe = true;
        self
    }

    /// Build on a persistent single-file store at `path` (created or
    /// truncated) instead of the in-memory disk. The database is saved
    /// and synced after the build; call [`SegmentDatabase::save`] after
    /// later mutations and [`SegmentDatabase::open`] to reload.
    pub fn persist_to(mut self, path: impl Into<PathBuf>) -> Self {
        self.persist = Some(path.into());
        self
    }

    /// Build on an explicit [`Device`] (e.g. a
    /// [`segdb_pager::FaultDevice`] for crash-recovery torture). Takes
    /// precedence over [`SegmentDatabaseBuilder::persist_to`]; the
    /// device's own page size wins over
    /// [`SegmentDatabaseBuilder::page_size`]. Like the persistent path,
    /// the database is saved and synced after the build so the device
    /// holds a reopenable image.
    pub fn on_device(mut self, device: Box<dyn Device>) -> Self {
        self.device = Some(device);
        self
    }

    /// Build the database over `segments` (given in user coordinates).
    pub fn build(self, segments: Vec<Segment>) -> Result<SegmentDatabase, DbError> {
        let explicit_device = self.device.is_some();
        let device: Box<dyn Device> = match self.device {
            Some(d) => d,
            None => match &self.persist {
                None => Box::new(segdb_pager::Disk::new(self.page_size)),
                Some(path) => Box::new(FileDevice::create(path, self.page_size)?),
            },
        };
        let pager = Pager::with_device_sharded(device, self.cache_pages, self.cache_shards);
        let transformed: Vec<Segment> = segments
            .iter()
            .map(|s| self.direction.apply_segment(s))
            .collect::<Result<_, _>>()?;
        if self.validate_nct {
            verify_nct(&transformed)?;
        }
        let index = match self.kind {
            IndexKind::TwoLevelBinary => {
                let t = TwoLevelBinary::build(&pager, Binary2LConfig::default(), transformed)?;
                Index::TwoLevel(self.kind, Box::new(t))
            }
            IndexKind::TwoLevelInterval => {
                let t = TwoLevelInterval::build(&pager, Interval2LConfig::default(), transformed)?;
                Index::TwoLevel(self.kind, Box::new(t))
            }
            IndexKind::FullScan => Index::Scan(FullScan::build(&pager, &transformed)?),
            IndexKind::StabThenFilter => Index::Stab(StabThenFilter::build(&pager, &transformed)?),
        };
        let any = if self.arbitrary {
            // Rebuild the transformed set (moved into the index above).
            let transformed: Vec<Segment> = segments
                .iter()
                .map(|s| self.direction.apply_segment(s))
                .collect::<Result<_, _>>()?;
            Some(AnyQueryIndex::build(&pager, &transformed)?)
        } else {
            None
        };
        let mut db = SegmentDatabase {
            pager,
            direction: self.direction,
            index,
            any,
            obs: None,
            wal_seq: 0,
        };
        if self.observe {
            db.set_observability(true);
        }
        if self.persist.is_some() || explicit_device {
            db.save()?;
        } else {
            // An in-memory build leaves up to cache_pages dirty pages
            // resident. Write them back (keeping the pool warm) so the
            // database enters concurrent serving with a clean pool — a
            // dirty page evicted mid-serving would otherwise have to be
            // written back on the read path. The writes are counted as
            // part of the build cost, mirroring the persistent path's
            // save(); per-query I/O is StatScope-diffed, so query
            // experiments are unaffected.
            db.pager.clean_pool()?;
        }
        Ok(db)
    }
}

/// A segment database answering generalized-segment intersection queries
/// of a fixed direction, per the paper. See crate docs.
#[derive(Debug)]
pub struct SegmentDatabase {
    pager: Pager,
    direction: Direction,
    index: Index,
    any: Option<AnyQueryIndex>,
    obs: Option<DbObserver>,
    /// WAL checkpoint persisted with the superblock: every log record
    /// with `seq <= wal_seq` is already folded into the index, so
    /// recovery replays only the tail (see `segdb_core::writer`).
    wal_seq: u64,
}

impl SegmentDatabase {
    /// Start building a database.
    pub fn builder() -> SegmentDatabaseBuilder {
        SegmentDatabaseBuilder::default()
    }

    /// Re-open a database previously built with
    /// [`SegmentDatabaseBuilder::persist_to`] and saved.
    pub fn open(path: impl AsRef<Path>, cache_pages: usize) -> Result<Self, DbError> {
        Self::open_sharded(path, cache_pages, 1)
    }

    /// Like [`SegmentDatabase::open`], but splitting the buffer pool
    /// over `cache_shards` locked LRU shards — the configuration the
    /// serving layer uses so concurrent readers scale. `cache_shards = 1`
    /// is the deterministic single-LRU of the experiments.
    pub fn open_sharded(
        path: impl AsRef<Path>,
        cache_pages: usize,
        cache_shards: usize,
    ) -> Result<Self, DbError> {
        Self::open_device(Box::new(FileDevice::open(path)?), cache_pages, cache_shards)
    }

    /// Re-open a database from an explicit [`Device`] already holding a
    /// saved image — the recovery path of the crash torture harness,
    /// which hands the last-sync-consistent store back after a simulated
    /// power cut (see [`segdb_pager::FaultHandle::recover`]).
    pub fn open_device(
        device: Box<dyn Device>,
        cache_pages: usize,
        cache_shards: usize,
    ) -> Result<Self, DbError> {
        let pager = Pager::with_device_sharded(device, cache_pages, cache_shards);
        let sb = Superblock::decode(&pager.get_meta()?)?;
        let direction = sb.direction_obj()?;
        let index = match sb.kind {
            IndexKind::TwoLevelBinary => {
                let cfg = sb.binary_config();
                let t = TwoLevelBinary::attach(&pager, cfg, sb.root, sb.len, sb.aux, sb.aux2)?;
                Index::TwoLevel(sb.kind, Box::new(t))
            }
            IndexKind::TwoLevelInterval => {
                let cfg = sb.interval_config();
                let t = TwoLevelInterval::attach(&pager, cfg, sb.root, sb.len, sb.aux, sb.aux2)?;
                Index::TwoLevel(sb.kind, Box::new(t))
            }
            IndexKind::FullScan => Index::Scan(FullScan::attach(sb.root, sb.len)),
            IndexKind::StabThenFilter => Index::Stab(StabThenFilter::attach(
                &pager,
                ItState {
                    root: sb.root,
                    len: sb.len,
                },
                sb.aux,
            )?),
        };
        let any = match sb.any {
            None => None,
            Some(st) => Some(AnyQueryIndex::attach(&pager, st)?),
        };
        Ok(SegmentDatabase {
            pager,
            direction,
            index,
            any,
            obs: None,
            wal_seq: sb.wal_seq,
        })
    }

    /// Persist the database identity into the device's superblock and
    /// durably sync. Required after mutations on a persistent database
    /// (a crash before `save` loses the index roots, not the pages).
    pub fn save(&self) -> Result<(), DbError> {
        let (kind, root, len, aux, aux2) = match &self.index {
            Index::TwoLevel(kind, t) => {
                let (root, len, tomb_head, tomb_records) = t.state();
                // A binary file without tombstones keeps the aux = 0
                // every older build wrote.
                let tomb_head = match (kind, tomb_records) {
                    (IndexKind::TwoLevelBinary, 0) => 0,
                    _ => tomb_head,
                };
                (*kind, root, len, tomb_head, tomb_records)
            }
            Index::Scan(t) => {
                let (root, len) = t.state();
                (IndexKind::FullScan, root, len, 0, 0)
            }
            Index::Stab(t) => {
                let (it, chain) = t.state();
                (IndexKind::StabThenFilter, it.root, it.len, chain, 0)
            }
        };
        let sb = Superblock {
            direction: (self.direction.dx(), self.direction.dy()),
            kind,
            root,
            len,
            aux,
            aux2,
            // The facade builds with default configs; record them so
            // attach reconstructs identically.
            pst_fanout: 0,
            fanout: 0,
            bridge_d: Interval2LConfig::default().bridge_d as u32,
            bridges: true,
            rebuild_min: Binary2LConfig::default().rebuild_min,
            any: self.any.as_ref().map(|a| a.state()),
            wal_seq: self.wal_seq,
        };
        self.pager.set_meta(&sb.encode()?)?;
        self.pager.sync()?;
        Ok(())
    }

    /// Number of stored segments.
    pub fn len(&self) -> u64 {
        match &self.index {
            Index::TwoLevel(_, t) => t.len(),
            Index::Scan(t) => t.len(),
            Index::Stab(t) => t.len(),
        }
    }

    /// True when no segments are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The fixed query direction.
    pub fn direction(&self) -> Direction {
        self.direction
    }

    /// The underlying pager (I/O statistics, space accounting).
    pub fn pager(&self) -> &Pager {
        &self.pager
    }

    /// Which index structure backs this database.
    pub fn kind(&self) -> IndexKind {
        self.index.kind()
    }

    /// Segments per block `B` — the external-memory model's block
    /// capacity for this page size.
    pub fn block_segments(&self) -> u64 {
        crate::chain::cap(self.pager.page_size()) as u64
    }

    /// Turn the observability layer on or off after construction (the
    /// builder's [`SegmentDatabaseBuilder::observe`] does this at build
    /// time; re-opened databases use this). Turning it on resets any
    /// previous metrics and cost-fit state.
    pub fn set_observability(&mut self, on: bool) {
        self.obs = if on {
            Some(DbObserver::new(
                self.index.kind(),
                self.len(),
                self.block_segments(),
            ))
        } else {
            None
        };
    }

    /// Is the observability layer attached?
    pub fn observability(&self) -> bool {
        self.obs.is_some()
    }

    /// Snapshot the observability metrics as JSON:
    /// `{index, segments, block_segments, space_blocks, cache_hit_ratio,
    /// fanout_utilization_pct, cost_model, metrics: {counters, histograms}}`.
    /// `None` when observability is off.
    pub fn metrics_json(&self) -> Option<Json> {
        let obs = self.obs.as_ref()?;
        let reads = obs.registry.counter("page_reads");
        let hits = obs.registry.counter("cache_hits");
        let ratio = if reads + hits == 0 {
            0.0
        } else {
            hits as f64 / (reads + hits) as f64
        };
        let blocks = self.space_blocks() as f64;
        let util = if blocks == 0.0 {
            0.0
        } else {
            100.0 * self.len() as f64 / (blocks * self.block_segments() as f64)
        };
        Some(Json::obj([
            ("index", Json::Str(format!("{:?}", self.index.kind()))),
            ("segments", Json::U64(self.len())),
            ("block_segments", Json::U64(self.block_segments())),
            ("space_blocks", Json::U64(self.space_blocks() as u64)),
            ("cache_hit_ratio", Json::F64(ratio)),
            ("fanout_utilization_pct", Json::F64(util)),
            ("cost_model", obs.fitter().to_json()),
            ("metrics", obs.registry.to_json()),
        ]))
    }

    /// Run a canonical-frame query with event tracing enabled and return
    /// the enriched trace plus the aggregated span summary (first-level
    /// visits, second-level probes, bridge jumps, per-crate node visits,
    /// pager events). Powering the CLI `trace` subcommand.
    pub fn traced_query(
        &self,
        q: &VerticalQuery,
    ) -> Result<(Vec<Segment>, QueryTrace, TraceSummary), DbError> {
        segdb_obs::trace::clear();
        let res = segdb_obs::trace::with_tracing(|| self.run(q));
        let (events, dropped) = segdb_obs::trace::drain();
        let (hits, trace) = res?;
        Ok((hits, trace, TraceSummary::from_events(&events, dropped)))
    }

    /// Blocks of secondary storage currently allocated.
    pub fn space_blocks(&self) -> usize {
        self.pager.live_pages()
    }

    /// Report every segment intersected by the **full line** of the
    /// fixed direction through `anchor`.
    pub fn query_line(
        &self,
        anchor: impl Into<Point>,
    ) -> Result<(Vec<Segment>, QueryTrace), DbError> {
        let q = self.direction.make_query(anchor.into(), None, None)?;
        self.run(&q)
    }

    /// Mode-shaped form of [`SegmentDatabase::query_line`].
    pub fn query_line_mode(
        &self,
        anchor: impl Into<Point>,
        mode: QueryMode,
    ) -> Result<(QueryAnswer, QueryTrace), DbError> {
        let q = self.direction.make_query(anchor.into(), None, None)?;
        self.run_mode(&q, mode)
    }

    /// Report every segment intersected by the ray from `anchor` in the
    /// fixed direction (increasing ordinate).
    pub fn query_ray_up(
        &self,
        anchor: impl Into<Point>,
    ) -> Result<(Vec<Segment>, QueryTrace), DbError> {
        let a = anchor.into();
        let q = self.direction.make_query(a, Some(a.y), None)?;
        self.run(&q)
    }

    /// Mode-shaped form of [`SegmentDatabase::query_ray_up`].
    pub fn query_ray_up_mode(
        &self,
        anchor: impl Into<Point>,
        mode: QueryMode,
    ) -> Result<(QueryAnswer, QueryTrace), DbError> {
        let a = anchor.into();
        let q = self.direction.make_query(a, Some(a.y), None)?;
        self.run_mode(&q, mode)
    }

    /// Report every segment intersected by the ray from `anchor` against
    /// the fixed direction (decreasing ordinate).
    pub fn query_ray_down(
        &self,
        anchor: impl Into<Point>,
    ) -> Result<(Vec<Segment>, QueryTrace), DbError> {
        let a = anchor.into();
        let q = self.direction.make_query(a, None, Some(a.y))?;
        self.run(&q)
    }

    /// Mode-shaped form of [`SegmentDatabase::query_ray_down`].
    pub fn query_ray_down_mode(
        &self,
        anchor: impl Into<Point>,
        mode: QueryMode,
    ) -> Result<(QueryAnswer, QueryTrace), DbError> {
        let a = anchor.into();
        let q = self.direction.make_query(a, None, Some(a.y))?;
        self.run_mode(&q, mode)
    }

    /// Translate user-coordinate segment-query endpoints into the
    /// canonical-frame query, rejecting misaligned endpoints. The
    /// serving layer's batch collector uses this (plus
    /// [`Direction::make_query`] for the anchor shapes) to express a
    /// whole request group in the canonical frame before the shared
    /// walk.
    pub fn segment_query(&self, p1: Point, p2: Point) -> Result<VerticalQuery, DbError> {
        let (t1, t2) = (
            self.direction.apply_point(p1)?,
            self.direction.apply_point(p2)?,
        );
        if t1.x != t2.x {
            return Err(DbError::NotAligned);
        }
        let (lo, hi) = if t1.y <= t2.y {
            (t1.y, t2.y)
        } else {
            (t2.y, t1.y)
        };
        Ok(self.direction.make_query(p1, Some(lo), Some(hi))?)
    }

    /// Report every segment intersected by the query segment `p1—p2`,
    /// whose endpoints must lie on a common line of the fixed direction.
    pub fn query_segment(
        &self,
        p1: impl Into<Point>,
        p2: impl Into<Point>,
    ) -> Result<(Vec<Segment>, QueryTrace), DbError> {
        let q = self.segment_query(p1.into(), p2.into())?;
        self.run(&q)
    }

    /// Mode-shaped form of [`SegmentDatabase::query_segment`].
    pub fn query_segment_mode(
        &self,
        p1: impl Into<Point>,
        p2: impl Into<Point>,
        mode: QueryMode,
    ) -> Result<(QueryAnswer, QueryTrace), DbError> {
        let q = self.segment_query(p1.into(), p2.into())?;
        self.run_mode(&q, mode)
    }

    /// Run a canonical-frame query directly (benchmarks use this to sweep
    /// parameters without the anchor arithmetic).
    pub fn query_canonical(
        &self,
        q: &VerticalQuery,
    ) -> Result<(Vec<Segment>, QueryTrace), DbError> {
        self.run(q)
    }

    /// Mode-shaped form of [`SegmentDatabase::query_canonical`]: the
    /// same traversal feeds the mode's sink, so `Count` queries ride the
    /// count-from-headers fast paths and `Exists`/`Limit` queries stop
    /// reading pages as soon as the answer is decided.
    pub fn query_canonical_mode(
        &self,
        q: &VerticalQuery,
        mode: QueryMode,
    ) -> Result<(QueryAnswer, QueryTrace), DbError> {
        self.run_mode(q, mode)
    }

    /// Insert a segment (user coordinates). The set must stay NCT —
    /// violations are the caller's responsibility (checked lazily by
    /// [`SegmentDatabase::validate`]). A deleted segment inserted again
    /// exactly as it was is shown again in place; anything else is
    /// stored, whatever its id (see [`Lazy::insert`]).
    pub fn insert(&mut self, seg: Segment) -> Result<(), DbError> {
        let t = self.direction.apply_segment(&seg)?;
        match &mut self.index {
            Index::TwoLevel(_, x) => x.insert(&self.pager, t)?,
            Index::Scan(_) | Index::Stab(_) => {
                return Err(DbError::Unsupported("insert into baseline"))
            }
        }
        if let Some(any) = &mut self.any {
            any.insert(&self.pager, t)?;
        }
        Ok(())
    }

    /// Report every stored segment intersected by the query segment
    /// `p1—p2` of **arbitrary** direction — the paper's §5 future work,
    /// served by the candidate-filter extension (requires
    /// [`SegmentDatabaseBuilder::enable_arbitrary_queries`]). The trace's
    /// `second_level_probes` records the candidate count.
    pub fn query_free_segment(
        &self,
        p1: impl Into<Point>,
        p2: impl Into<Point>,
    ) -> Result<(Vec<Segment>, QueryTrace), DbError> {
        let any = self.any.as_ref().ok_or(DbError::Unsupported(
            "arbitrary queries not enabled at build time",
        ))?;
        let (p1, p2) = (p1.into(), p2.into());
        let q = Segment::new(
            u64::MAX,
            self.direction.apply_point(p1)?,
            self.direction.apply_point(p2)?,
        )?;
        let scope = segdb_pager::StatScope::begin(&self.pager);
        let (hits, candidates) = any.query(&self.pager, &q)?;
        let hits = hits
            .iter()
            .map(|s| self.direction.unapply_segment(s))
            .collect::<Result<Vec<_>, _>>()?;
        let hits = normalize(hits);
        let trace = QueryTrace {
            second_level_probes: candidates,
            hits: hits.len() as u32,
            io: scope.finish(),
            ..QueryTrace::default()
        };
        Ok((hits, trace))
    }

    /// Delete a stored segment (id and geometry must both match; returns
    /// whether it was stored). Both two-level structures delete the same
    /// way — a membership probe, then a lazy tombstone naming the whole
    /// segment, so a moved copy under the same id stays visible (see
    /// [`Lazy::remove`]).
    pub fn remove(&mut self, seg: &Segment) -> Result<bool, DbError> {
        let t = self.direction.apply_segment(seg)?;
        if let Some(any) = &mut self.any {
            any.remove(&self.pager, &t)?;
        }
        match &mut self.index {
            Index::TwoLevel(_, x) => Ok(x.remove(&self.pager, &t)?),
            Index::Scan(_) | Index::Stab(_) => Err(DbError::Unsupported("delete from baseline")),
        }
    }

    /// Segments the index currently hides (always 0 for the baselines,
    /// which take no deletes).
    pub fn tomb_count(&self) -> u64 {
        match &self.index {
            Index::TwoLevel(_, x) => x.tomb_count(),
            Index::Scan(_) | Index::Stab(_) => 0,
        }
    }

    /// Fold lazy-delete tombstones back into the index ahead of the
    /// automatic trigger — the background compaction entry point; frees
    /// the pages the deleted segments still occupy. Returns whether any
    /// work was done.
    pub fn compact(&mut self) -> Result<bool, DbError> {
        match &mut self.index {
            Index::TwoLevel(_, x) => Ok(x.compact(&self.pager)?),
            Index::Scan(_) | Index::Stab(_) => Ok(false),
        }
    }

    /// The WAL checkpoint recorded at the last save (see
    /// [`crate::writer`]).
    pub fn wal_seq(&self) -> u64 {
        self.wal_seq
    }

    /// Update the WAL checkpoint; the next [`SegmentDatabase::save`]
    /// persists it with the superblock.
    pub fn set_wal_seq(&mut self, seq: u64) {
        self.wal_seq = seq;
    }

    /// Deep structural validation of the whole index.
    pub fn validate(&self) -> Result<(), DbError> {
        match &self.index {
            Index::TwoLevel(_, x) => x.validate(&self.pager)?,
            Index::Scan(_) | Index::Stab(_) => {}
        }
        if let Some(any) = &self.any {
            any.validate(&self.pager)?;
        }
        Ok(())
    }

    fn run(&self, q: &VerticalQuery) -> Result<(Vec<Segment>, QueryTrace), DbError> {
        match self.run_mode(q, QueryMode::Collect)? {
            (QueryAnswer::Segments(hits), trace) => Ok((hits, trace)),
            _ => unreachable!("Collect always answers with segments"),
        }
    }

    /// One shared traversal of the index answering every slot of
    /// `multi` with `hidden` withheld — the only way a query reads index
    /// pages (see [`crate::batch`]). The baselines take no writes
    /// ([`crate::WriteEngine::recover`] refuses them), so they are never
    /// asked to hide anything.
    pub(crate) fn walk_group(
        &self,
        multi: &mut MultiSink<'_>,
        hidden: &Hidden,
    ) -> Result<QueryTrace, DbError> {
        Ok(match &self.index {
            Index::TwoLevel(_, x) => x.query_group(&self.pager, multi, hidden)?,
            Index::Scan(_) | Index::Stab(_) if hidden.len() > 0 => {
                return Err(DbError::Unsupported(
                    "hidden segments under a baseline index",
                ))
            }
            Index::Scan(x) => x.query_group(&self.pager, multi)?,
            Index::Stab(x) => x.query_group(&self.pager, multi)?,
        })
    }

    /// Feed one finished query into the observer, when one is on.
    pub(crate) fn observe_trace(&self, trace: &mut QueryTrace) {
        if let Some(obs) = &self.obs {
            self.observe_query(obs, trace);
        }
    }

    /// Back to user coordinates, sorted by id.
    pub(crate) fn unshear(&self, hits: Vec<Segment>) -> Result<Vec<Segment>, DbError> {
        let hits = hits
            .iter()
            .map(|s| self.direction.unapply_segment(s))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(normalize(hits))
    }

    /// Feed one finished query into the registry and the cost fitter.
    fn observe_query(&self, obs: &DbObserver, trace: &mut QueryTrace) {
        let r = &obs.registry;
        r.incr("queries", 1);
        r.incr(&format!("queries_{}", trace.mode.name()), 1);
        r.incr("pages_saved", trace.pages_saved);
        r.incr("page_reads", trace.io.reads);
        r.incr("page_writes", trace.io.writes);
        r.incr("cache_hits", trace.io.cache_hits);
        r.observe("io_per_query", trace.io.total_io());
        r.observe("hits_per_query", trace.hits as u64);
        r.observe("first_level_nodes", trace.first_level_nodes as u64);
        r.observe("second_level_probes", trace.second_level_probes as u64);
        // The stab baseline's output term is its candidate count, not the
        // filtered hits — that is exactly the `t_stab ≥ t` the paper
        // holds against it.
        let t_items = match self.index.kind() {
            IndexKind::StabThenFilter => trace.second_level_probes as u64,
            _ => trace.hits as u64,
        };
        let mut fitter = obs.fitter();
        fitter.set_n(self.len());
        trace.cost = fitter.record(t_items, trace.io.total_io());
        if trace.cost.is_some_and(|c| !c.within) {
            r.incr("cost_violations", 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::ids;
    use segdb_geom::gen::{mixed_map, vertical_queries};
    use segdb_geom::query::scan_oracle;

    const KINDS: [IndexKind; 4] = [
        IndexKind::TwoLevelBinary,
        IndexKind::TwoLevelInterval,
        IndexKind::FullScan,
        IndexKind::StabThenFilter,
    ];

    /// The serving layer shares one database across worker threads; this
    /// is the compile-time contract it stands on.
    #[test]
    fn database_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SegmentDatabase>();
    }

    #[test]
    fn concurrent_queries_share_one_database() {
        let set = mixed_map(300, 41);
        let queries = vertical_queries(&set, 16, 100, 7);
        let db = std::sync::Arc::new(
            SegmentDatabase::builder()
                .page_size(512)
                .cache_pages(32)
                .cache_shards(4)
                .observe()
                .build(set.clone())
                .unwrap(),
        );
        let expected: Vec<Vec<u64>> = queries
            .iter()
            .map(|q| ids(&db.query_canonical(q).unwrap().0))
            .collect();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let db = std::sync::Arc::clone(&db);
                let queries = queries.clone();
                let expected = expected.clone();
                std::thread::spawn(move || {
                    for (q, want) in queries.iter().zip(&expected) {
                        let (hits, _) = db.query_canonical(q).unwrap();
                        assert_eq!(&ids(&hits), want);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let snap = db.metrics_json().unwrap();
        let n = snap
            .get("metrics")
            .and_then(|m| m.get("counters"))
            .and_then(|c| c.get("queries"))
            .and_then(Json::as_f64)
            .unwrap();
        assert_eq!(n as u64, 16 + 4 * 16, "every observed query counted");
    }

    #[test]
    fn all_kinds_agree_on_vertical_queries() {
        let set = mixed_map(400, 17);
        let queries = vertical_queries(&set, 20, 120, 23);
        for kind in KINDS {
            let db = SegmentDatabase::builder()
                .page_size(512)
                .index(kind)
                .build(set.clone())
                .unwrap();
            db.validate().unwrap();
            assert_eq!(db.len(), set.len() as u64);
            for q in &queries {
                let (hits, _) = db.query_canonical(q).unwrap();
                assert_eq!(ids(&hits), ids(&scan_oracle(&set, q)), "{kind:?} {q:?}");
            }
        }
    }

    #[test]
    fn sheared_direction_roundtrips() {
        // A set that is NCT after shearing along (1, 2).
        let raw: Vec<Segment> = (0..200)
            .map(|i| {
                let y = 8 * i as i64;
                Segment::new(i, (0, y), (500, y + 3)).unwrap()
            })
            .collect();
        let db = SegmentDatabase::builder()
            .page_size(512)
            .direction(1, 2)
            .unwrap()
            .build(raw.clone())
            .unwrap();
        let (hits, _) = db.query_line((10, 0)).unwrap();
        // Answers come back in original coordinates.
        for h in &hits {
            assert_eq!(h, &raw[h.id as usize]);
        }
        // Brute-force check in original space: the query line through
        // (10, 0) along (1, 2) is y = 2(x − 10); a segment is hit iff it
        // straddles that line within its span.
        let oracle: Vec<u64> = raw
            .iter()
            .filter(|s| {
                let f = |x: i64| 2 * (x - 10);
                let (ya, yb) = (s.a.y - f(s.a.x), s.b.y - f(s.b.x));
                ya.signum() * yb.signum() <= 0
            })
            .map(|s| s.id)
            .collect();
        assert_eq!(ids(&hits), oracle);
    }

    #[test]
    fn misaligned_segment_query_rejected() {
        let db = SegmentDatabase::builder()
            .page_size(512)
            .build(vec![Segment::new(0, (0, 0), (10, 0)).unwrap()])
            .unwrap();
        assert!(matches!(
            db.query_segment((0, 0), (5, 3)),
            Err(DbError::NotAligned)
        ));
        let (hits, _) = db.query_segment((5, -1), (5, 1)).unwrap();
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn crossing_input_rejected() {
        let set = vec![
            Segment::new(0, (0, 0), (10, 10)).unwrap(),
            Segment::new(1, (0, 10), (10, 0)).unwrap(),
        ];
        let err = SegmentDatabase::builder().build(set).unwrap_err();
        assert!(matches!(err, DbError::Geom(GeomError::Crossing(0, 1))));
    }

    #[test]
    fn insert_and_remove_through_facade() {
        let set = mixed_map(200, 29);
        let mut db = SegmentDatabase::builder()
            .page_size(512)
            .index(IndexKind::TwoLevelBinary)
            .build(vec![])
            .unwrap();
        for s in &set {
            db.insert(*s).unwrap();
        }
        db.validate().unwrap();
        assert_eq!(db.len(), set.len() as u64);
        assert!(db.remove(&set[0]).unwrap());
        assert_eq!(db.len(), set.len() as u64 - 1);
        // The Theorem-2 structure is semi-dynamic in the paper; our
        // lazy-tombstone extension makes removal work there too.
        let mut db2 = SegmentDatabase::builder()
            .page_size(512)
            .index(IndexKind::TwoLevelInterval)
            .build(set.clone())
            .unwrap();
        db2.insert(Segment::new(9999, (1 << 20, 0), (1 << 20, 5)).unwrap())
            .unwrap();
        assert!(db2.remove(&set[0]).unwrap());
        assert!(
            !db2.remove(&set[0]).unwrap(),
            "second removal finds nothing"
        );
        db2.validate().unwrap();
        assert_eq!(db2.len(), set.len() as u64);
    }

    #[test]
    fn rays_and_lines_through_facade() {
        let set = vec![
            Segment::new(0, (0, 0), (10, 0)).unwrap(),
            Segment::new(1, (0, 10), (10, 10)).unwrap(),
        ];
        let db = SegmentDatabase::builder()
            .page_size(512)
            .build(set)
            .unwrap();
        let (hits, _) = db.query_line((5, 0)).unwrap();
        assert_eq!(hits.len(), 2);
        let (hits, _) = db.query_ray_up((5, 5)).unwrap();
        assert_eq!(ids(&hits), vec![1]);
        let (hits, _) = db.query_ray_down((5, 5)).unwrap();
        assert_eq!(ids(&hits), vec![0]);
    }
}
