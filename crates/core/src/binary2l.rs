//! Solution 1 (paper §3, Theorem 1): the binary two-level data structure.
//!
//! **First level** — a binary tree over vertical *base lines*. Each node
//! `v` carries the line `bl(v): x = x_v`, chosen as the x-median of the
//! endpoints of the segments reaching `v`; segments intersecting `bl(v)`
//! stay at `v`, the rest pass to the left/right subtree (each receives at
//! most half the endpoints, so the height is `O(log₂ n)`). Recursion
//! stops at a page worth of segments — the paper's "until each leaf node
//! contains `B` segments".
//!
//! **Second level**, per internal node:
//!
//! * `C(v)` — vertical segments *lying on* `bl(v)`, as an
//!   [`IntervalSet`] over their ordinate ranges (the paper's external
//!   interval tree, `O(log_B n + t)` per overlap query);
//! * `L(v)`, `R(v)` — the left and right halves of segments *crossing*
//!   `bl(v)`, as external PSTs for line-based segments (§2). Each
//!   segment appears in both, so the structure stores every segment at
//!   most twice plus once in `C` — `O(n)` blocks total.
//!
//! **Search** for `x = x₀, lo ≤ y ≤ hi` walks one root-to-leaf path. At a
//! node: if `x₀ = x_v`, query `C(v)` and `L(v)` and stop (`L(v)` holds
//! *all* crossing segments, each of which meets the query line exactly at
//! its base point — querying `R(v)` too would double-report); if
//! `x₀ < x_v`, query `L(v)` and go left; symmetrically right. Each
//! segment is reported exactly once.
//!
//! **Updates** (Theorem 1(iii)) — the paper uses a BB\[α\] tree; this
//! implementation uses the standard equivalent, weight-balanced *partial
//! rebuilding*: subtree sizes are maintained on the insert path and the
//! highest α-unbalanced subtree (α = ¾) is rebuilt from scratch, giving
//! the same amortized `O(log₂ n + log_B n / B)` bound. A delete is lazy,
//! exactly as in [`crate::interval2l`]: a membership probe shaped like
//! the insert's descent, a tombstone every read withholds, and a rebuild
//! from the live set once tombstones reach the live count, its cost
//! spread over the deletes that triggered it.

use crate::batch::{holds, one_slot, Hidden, Slots, NO_HIDDEN};
use crate::chain;
use crate::report::QueryTrace;
use crate::tombs::Tombstones;
use segdb_geom::{MultiSink, ReportSink, Segment, VerticalQuery};
use segdb_itree::overlap::{IntervalSet, IntervalSetState};
use segdb_itree::{Interval, IntervalTreeConfig};
use segdb_obs::trace::{emit as obs_emit, probe, EventKind};
use segdb_pager::codec::{i64_at, u32_at, u64_at};
use segdb_pager::{
    ByteReader, ByteWriter, PageId, Pager, PagerError, Result, StatScope, NULL_PAGE,
};
use segdb_pst::{BatchQuery, Pst, PstConfig, PstState, Side};

const TAG_LEAF: u8 = 1;
const TAG_INTERNAL: u8 = 2;

/// Construction knobs for [`TwoLevelBinary`].
#[derive(Debug, Clone, Copy)]
pub struct Binary2LConfig {
    /// PST flavour for `L(v)` / `R(v)`: binary (pure Lemma 2 costs) or
    /// packed (Lemma 3 substitute). Default packed.
    pub pst: PstConfig,
    /// Rebuild a subtree when a child holds more than ¾ of its weight
    /// and the weight exceeds this many segments.
    pub rebuild_min: u64,
}

impl Default for Binary2LConfig {
    fn default() -> Self {
        Binary2LConfig {
            pst: PstConfig::packed(),
            rebuild_min: 32,
        }
    }
}

/// Decoded first-level node. Layout:
///
/// ```text
/// leaf:     [tag=1:u8][head:u32][count:u64]
/// internal: [tag=2:u8][xv:i64][left:u32][right:u32]
///           [total:u64][left_size:u64][right_size:u64]
///           [c: IntervalSetState:28][l: PstState:20][r: PstState:20]
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Node {
    /// Page-chained raw segments.
    Leaf {
        /// Chain head.
        head: PageId,
        /// Segments in the chain.
        count: u64,
    },
    /// Base-line node.
    Internal(Box<Internal>),
}

/// Decoded base-line node.
#[derive(Debug, Clone, PartialEq)]
pub struct Internal {
    /// Base line abscissa `x_v`.
    pub xv: i64,
    /// Left subtree ([`NULL_PAGE`] = empty).
    pub left: PageId,
    /// Right subtree.
    pub right: PageId,
    /// Subtree segment count, this node's own segments included.
    pub total: u64,
    /// Segments in the left subtree.
    pub left_size: u64,
    /// Segments in the right subtree.
    pub right_size: u64,
    /// Segments lying on `bl(v)`.
    pub c: IntervalSetState,
    /// Left halves of segments crossing `bl(v)`.
    pub l: PstState,
    /// Right halves.
    pub r: PstState,
}

/// Bytes of an internal node after its tag.
const INTERNAL_BYTES: usize =
    8 + 4 + 4 + 3 * 8 + IntervalSetState::ENCODED_SIZE + 2 * PstState::ENCODED_SIZE;

/// A node read in place: the read path's form of [`Node`], borrowed
/// from the page image, and the one parser of the layout
/// ([`Node::decode`] collects from it). [`NodeView::new`] checks the tag
/// and the node's fixed length; the fields are plain integers read at
/// their offsets.
#[derive(Debug, Clone, Copy)]
pub enum NodeView<'a> {
    /// Page-chained raw segments.
    Leaf {
        /// Chain head.
        head: PageId,
        /// Segments in the chain.
        count: u64,
    },
    /// Base-line node.
    Internal(InternalView<'a>),
}

/// A base-line node read in place; see [`NodeView`].
#[derive(Debug, Clone, Copy)]
pub struct InternalView<'a>(&'a [u8; INTERNAL_BYTES]);

impl<'a> NodeView<'a> {
    /// View the node in a page image.
    pub fn new(buf: &'a [u8]) -> Result<Self> {
        let mut r = ByteReader::new(buf);
        match r.u8()? {
            TAG_LEAF => Ok(NodeView::Leaf {
                head: r.u32()?,
                count: r.u64()?,
            }),
            TAG_INTERNAL => Ok(NodeView::Internal(InternalView(r.array()?))),
            _ => Err(PagerError::Corrupt("unknown binary2l node tag")),
        }
    }
}

impl InternalView<'_> {
    /// Base line abscissa `x_v`.
    pub fn xv(&self) -> i64 {
        i64_at(self.0, 0)
    }

    /// Left subtree ([`NULL_PAGE`] = empty).
    pub fn left(&self) -> PageId {
        u32_at(self.0, 8)
    }

    /// Right subtree.
    pub fn right(&self) -> PageId {
        u32_at(self.0, 12)
    }

    /// Subtree segment count, this node's own segments included.
    pub fn total(&self) -> u64 {
        u64_at(self.0, 16)
    }

    /// Segments in the left subtree.
    pub fn left_size(&self) -> u64 {
        u64_at(self.0, 24)
    }

    /// Segments in the right subtree.
    pub fn right_size(&self) -> u64 {
        u64_at(self.0, 32)
    }

    /// Segments lying on `bl(v)`.
    pub fn c(&self) -> IntervalSetState {
        IntervalSetState::read(&self.0[40..])
    }

    /// Left halves of segments crossing `bl(v)`.
    pub fn l(&self) -> PstState {
        PstState::read(&self.0[40 + IntervalSetState::ENCODED_SIZE..])
    }

    /// Right halves.
    pub fn r(&self) -> PstState {
        PstState::read(&self.0[40 + IntervalSetState::ENCODED_SIZE + PstState::ENCODED_SIZE..])
    }
}

impl Node {
    /// Serialize into a zeroed page image.
    pub fn encode(&self, buf: &mut [u8]) -> Result<()> {
        let mut w = ByteWriter::new(buf);
        match self {
            Node::Leaf { head, count } => {
                w.u8(TAG_LEAF)?;
                w.u32(*head)?;
                w.u64(*count)
            }
            Node::Internal(n) => {
                w.u8(TAG_INTERNAL)?;
                w.i64(n.xv)?;
                w.u32(n.left)?;
                w.u32(n.right)?;
                w.u64(n.total)?;
                w.u64(n.left_size)?;
                w.u64(n.right_size)?;
                n.c.encode(&mut w)?;
                n.l.encode(&mut w)?;
                n.r.encode(&mut w)
            }
        }
    }

    /// Deserialize from a page image: every field of its [`NodeView`],
    /// collected.
    pub fn decode(buf: &[u8]) -> Result<Node> {
        Ok(match NodeView::new(buf)? {
            NodeView::Leaf { head, count } => Node::Leaf { head, count },
            NodeView::Internal(v) => Node::Internal(Box::new(Internal {
                xv: v.xv(),
                left: v.left(),
                right: v.right(),
                total: v.total(),
                left_size: v.left_size(),
                right_size: v.right_size(),
                c: v.c(),
                l: v.l(),
                r: v.r(),
            })),
        })
    }
}

/// The Section-3 two-level structure. See module docs.
///
/// ```
/// use segdb_pager::{Pager, PagerConfig};
/// use segdb_core::binary2l::{Binary2LConfig, TwoLevelBinary};
/// use segdb_geom::{Segment, VerticalQuery};
///
/// let pager = Pager::new(PagerConfig::default());
/// let set = vec![
///     Segment::new(1, (0, 0), (100, 0)).unwrap(),
///     Segment::new(2, (50, 0), (50, 30)).unwrap(), // touches segment 1
/// ];
/// let mut t = TwoLevelBinary::build(&pager, Binary2LConfig::default(), set).unwrap();
/// let (hits, trace) = t.query(&pager, &VerticalQuery::segment(50, 10, 40)).unwrap();
/// assert_eq!(hits.len(), 1);
/// assert!(trace.io.reads > 0);
/// t.insert(&pager, Segment::new(3, (40, 20), (60, 20)).unwrap()).unwrap();
/// let (hits, _) = t.query(&pager, &VerticalQuery::segment(50, 10, 40)).unwrap();
/// assert_eq!(hits.len(), 2);
/// ```
#[derive(Debug)]
pub struct TwoLevelBinary {
    root: PageId,
    /// Live (non-tombstoned) segment count.
    len: u64,
    /// Lazily-deleted segments: still in the index pages, hidden from
    /// every read.
    tombs: Tombstones,
    cfg: Binary2LConfig,
}

impl TwoLevelBinary {
    /// Build from an NCT segment set (NCT-ness is the caller's contract;
    /// [`segdb_geom::nct::verify_nct`] checks it).
    pub fn build(pager: &Pager, cfg: Binary2LConfig, segs: Vec<Segment>) -> Result<Self> {
        let mut this = Self::attach(pager, cfg, NULL_PAGE, segs.len() as u64, NULL_PAGE, 0)?;
        this.root = build_rec(pager, &cfg, segs)?;
        Ok(this)
    }

    /// Serializable identity: `(root page, live count, tombstone chain,
    /// tombstone count)`. The config is context the owner persists
    /// alongside.
    pub fn state(&self) -> (PageId, u64, PageId, u64) {
        let (tomb_head, tomb_count) = self.tombs.state();
        (self.root, self.len, tomb_head, tomb_count)
    }

    /// Reconstruct from a serialized identity, loading the tombstone
    /// chain into memory (refused unless it holds exactly `tomb_count`
    /// segments).
    pub fn attach(
        pager: &Pager,
        cfg: Binary2LConfig,
        root: PageId,
        len: u64,
        tomb_head: PageId,
        tomb_count: u64,
    ) -> Result<Self> {
        Ok(TwoLevelBinary {
            root,
            len,
            tombs: Tombstones::attach(pager, tomb_head, tomb_count)?,
            cfg,
        })
    }

    /// Tombstones currently recorded (live deletes awaiting rebuild).
    pub fn tomb_count(&self) -> u64 {
        self.tombs.len()
    }

    /// Fold every tombstone away now (rebuild from the live set) instead
    /// of waiting for the `tomb_count >= len` trigger. Returns whether a
    /// rebuild ran.
    pub fn compact(&mut self, pager: &Pager) -> Result<bool> {
        if self.tomb_count() == 0 {
            return Ok(false);
        }
        self.rebuild_live(pager)?;
        Ok(true)
    }

    /// Stored segment count.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Answer a VS query; returns the hits and the query trace.
    pub fn query(&self, pager: &Pager, q: &VerticalQuery) -> Result<(Vec<Segment>, QueryTrace)> {
        let mut out = Vec::new();
        let trace = self.query_sink(pager, q, &mut out)?;
        Ok((out, trace))
    }

    /// Streaming form of [`TwoLevelBinary::query`]: a group of one
    /// through [`TwoLevelBinary::query_group`], so every hit is pushed
    /// into `sink` in traversal order (C(v) verticals, then the PST,
    /// walking root to leaf) and a `Break` stops the walk where it
    /// stands.
    pub fn query_sink(
        &self,
        pager: &Pager,
        q: &VerticalQuery,
        sink: &mut dyn ReportSink,
    ) -> Result<QueryTrace> {
        one_slot(q, sink, |multi| self.query_group(pager, multi, &NO_HIDDEN))
    }

    /// The §3 search for every slot of `multi` at once: the group
    /// descends the base-line tree together, so each first-level node is
    /// read once per group and each node's `L(v)`/`R(v)` PST is walked
    /// once for all the slots that probe it (see [`Pst::query_group`]).
    /// A slot's `Break` retires that slot alone — it is dropped from the
    /// next probe list before that structure's pages are read — and the
    /// walk ends when no slot is left. A count-only slot gets `C(v)`
    /// answered from the interval set's stored counts without reading
    /// its lists. Live tombstones and the stored segments in `hidden` —
    /// a writer's un-folded deletes — are withheld from every slot (see
    /// [`Slots`]).
    pub(crate) fn query_group(
        &self,
        pager: &Pager,
        multi: &mut MultiSink<'_>,
        hidden: &Hidden,
    ) -> Result<QueryTrace> {
        let scope = StatScope::begin(pager);
        let mut trace = QueryTrace::default();
        let mut slots = Slots::new(multi, [self.tombs.hidden(), hidden]);
        let mut group = slots.probes();
        self.walk(pager, &mut slots, self.root, &mut group, &mut trace)?;
        trace.io = scope.finish();
        Ok(trace)
    }

    /// Visit `page` for `group` — live slots in abscissa order, so the
    /// slots left of, on and right of the base line are three
    /// consecutive ranges.
    fn walk(
        &self,
        pager: &Pager,
        slots: &mut Slots<'_, '_>,
        page: PageId,
        group: &mut [BatchQuery],
        trace: &mut QueryTrace,
    ) -> Result<()> {
        if page == NULL_PAGE || group.is_empty() {
            return Ok(());
        }
        obs_emit(
            EventKind::FirstLevelVisit,
            u64::from(page),
            trace.first_level_nodes as u64,
        );
        trace.first_level_nodes += 1;
        let img = pager.page(page)?;
        let n = match NodeView::new(&img)? {
            NodeView::Leaf { head, .. } => return slots.scan_leaf(pager, head, group),
            NodeView::Internal(n) => n,
        };
        let xv = n.xv();
        let on_line = group.partition_point(|p| p.qx < xv);
        let right = group.partition_point(|p| p.qx <= xv);
        let (group, right) = group.split_at_mut(right);
        if on_line < group.len() {
            let c = IntervalSet::attach(pager, IntervalTreeConfig::default(), n.c())?;
            slots.probe_on_line(pager, &c, xv, &group[on_line..], trace)?;
        }
        // L(v) serves the slots left of the line and, since it holds
        // every crossing segment at its base point, the ones on it —
        // those stop here; querying R(v) too would double-report.
        let live = slots.retain_live(group);
        let group = &mut group[..live];
        if !group.is_empty() {
            let l = Pst::attach(pager, xv, Side::Left, self.cfg.pst, n.l())?;
            obs_emit(EventKind::SecondLevelProbe, probe::L_PST, 0);
            trace.second_level_probes += 1;
            l.query_group(pager, group, &mut |i, s| slots.report(i, s))?;
        }
        if !right.is_empty() {
            let r = Pst::attach(pager, xv, Side::Right, self.cfg.pst, n.r())?;
            obs_emit(EventKind::SecondLevelProbe, probe::R_PST, 0);
            trace.second_level_probes += 1;
            r.query_group(pager, right, &mut |i, s| slots.report(i, s))?;
        }
        let (left_page, right_page) = (n.left(), n.right());
        drop(img);
        let live = slots.retain_live(group);
        let left = group[..live].partition_point(|p| p.qx < xv);
        self.walk(pager, slots, left_page, &mut group[..left], trace)?;
        let live = slots.retain_live(right);
        self.walk(pager, slots, right_page, &mut right[..live], trace)
    }

    /// Insert a segment (must keep the set NCT — caller's contract).
    /// Amortized `O(log₂ n + log_B n)` I/Os including rebuilds.
    pub fn insert(&mut self, pager: &Pager, seg: Segment) -> Result<()> {
        if self.tombs.hides(seg.id) {
            // Re-inserting a tombstoned id would stay hidden: purge first.
            self.rebuild_live(pager)?;
        }
        self.len += 1;
        if self.root == NULL_PAGE {
            self.root = leaf_from(pager, &[seg])?;
            return Ok(());
        }
        // Path of internal pages for the balance check.
        let mut path: Vec<PageId> = Vec::new();
        let mut page = self.root;
        loop {
            let node = read_node(pager, page)?;
            match node {
                Node::Leaf { head, count } => {
                    let new_head = chain::push(pager, head, &seg)?;
                    let count = count + 1;
                    if count as usize > 2 * chain::cap(pager.page_size()) {
                        // Leaf outgrew its page budget: rebuild it as a
                        // proper subtree in place.
                        let mut segs = chain::collect(pager, new_head)?;
                        chain::destroy(pager, new_head)?;
                        segs.shrink_to_fit();
                        build_rec_at(pager, &self.cfg, segs, page)?;
                    } else {
                        write_node(
                            pager,
                            page,
                            &Node::Leaf {
                                head: new_head,
                                count,
                            },
                        )?;
                    }
                    break;
                }
                Node::Internal(mut n) => {
                    n.total += 1;
                    path.push(page);
                    if seg.is_vertical() && seg.a.x == n.xv {
                        let mut c = IntervalSet::attach(pager, IntervalTreeConfig::default(), n.c)?;
                        c.insert(pager, Interval::new(seg.id, seg.a.y, seg.b.y))?;
                        n.c = c.state();
                        write_node(pager, page, &Node::Internal(n))?;
                        break;
                    } else if seg.spans_x(n.xv) {
                        let mut l = Pst::attach(pager, n.xv, Side::Left, self.cfg.pst, n.l)?;
                        l.insert(pager, seg)?;
                        n.l = l.state();
                        let mut r = Pst::attach(pager, n.xv, Side::Right, self.cfg.pst, n.r)?;
                        r.insert(pager, seg)?;
                        n.r = r.state();
                        write_node(pager, page, &Node::Internal(n))?;
                        break;
                    } else if seg.b.x < n.xv {
                        n.left_size += 1;
                        if n.left == NULL_PAGE {
                            n.left = leaf_from(pager, &[seg])?;
                            write_node(pager, page, &Node::Internal(n))?;
                            break;
                        }
                        let next = n.left;
                        write_node(pager, page, &Node::Internal(n))?;
                        page = next;
                    } else {
                        n.right_size += 1;
                        if n.right == NULL_PAGE {
                            n.right = leaf_from(pager, &[seg])?;
                            write_node(pager, page, &Node::Internal(n))?;
                            break;
                        }
                        let next = n.right;
                        write_node(pager, page, &Node::Internal(n))?;
                        page = next;
                    }
                }
            }
        }
        self.rebalance_path(pager, &path)
    }

    /// Delete a stored segment (id and geometry must both match) — lazily,
    /// as [`crate::interval2l::TwoLevelInterval::remove`] does: one
    /// membership probe ([`holds`], the point query at the segment's left
    /// endpoint), one chain append, and the segment is withheld from every
    /// answer; the whole structure is rebuilt from the live set once
    /// tombstones reach the live count. Returns whether it was present.
    pub fn remove(&mut self, pager: &Pager, seg: &Segment) -> Result<bool> {
        if !holds(seg, |multi| self.query_group(pager, multi, &NO_HIDDEN))? {
            return Ok(false);
        }
        self.tombs.push(pager, seg)?;
        self.len -= 1;
        if self.tomb_count() >= self.len.max(1) {
            self.rebuild_live(pager)?;
        }
        Ok(true)
    }

    /// Rebuild from the live set, dropping tombstones.
    fn rebuild_live(&mut self, pager: &Pager) -> Result<()> {
        let live = self.scan_all(pager)?;
        if self.root != NULL_PAGE {
            destroy_rec(pager, &self.cfg, self.root)?;
        }
        self.tombs.clear(pager)?;
        self.len = live.len() as u64;
        self.root = build_rec(pager, &self.cfg, live)?;
        Ok(())
    }

    /// Structural summary — how the §3 construction distributed the
    /// segments (teaching/debugging aid, used by the paper-figure
    /// fidelity tests).
    pub fn describe(&self, pager: &Pager) -> Result<StructureStats> {
        let mut st = StructureStats::default();
        if self.root != NULL_PAGE {
            describe_rec(pager, &self.cfg, self.root, 1, &mut st)?;
        }
        Ok(st)
    }

    /// Every stored (live) segment.
    pub fn scan_all(&self, pager: &Pager) -> Result<Vec<Segment>> {
        let mut out = Vec::with_capacity(self.len as usize);
        if self.root != NULL_PAGE {
            collect_rec(pager, &self.cfg, self.root, &mut out)?;
        }
        out.retain(|s| !self.tombs.hides(s.id));
        Ok(out)
    }

    /// Free every page.
    pub fn destroy(mut self, pager: &Pager) -> Result<()> {
        if self.root != NULL_PAGE {
            destroy_rec(pager, &self.cfg, self.root)?;
        }
        self.tombs.clear(pager)
    }

    /// Deep validation of the first-level invariants and every
    /// second-level structure.
    pub fn validate(&self, pager: &Pager) -> Result<()> {
        if self.root == NULL_PAGE {
            if self.len != 0 {
                return Err(PagerError::Corrupt("binary2l empty root, nonzero len"));
            }
            return Ok(());
        }
        let total = validate_rec(pager, &self.cfg, self.root, None, None)?;
        if total != self.len + self.tomb_count() {
            return Err(PagerError::Corrupt("binary2l len mismatch"));
        }
        self.tombs.validate(pager)
    }

    fn rebalance_path(&mut self, pager: &Pager, path: &[PageId]) -> Result<()> {
        for &page in path {
            if let Node::Internal(n) = read_node(pager, page)? {
                if n.total < self.cfg.rebuild_min {
                    break;
                }
                let threshold = n.total * 3 / 4;
                if n.left_size > threshold || n.right_size > threshold {
                    let mut segs = Vec::with_capacity(n.total as usize);
                    collect_rec(pager, &self.cfg, page, &mut segs)?;
                    destroy_children_of(pager, &self.cfg, page)?;
                    build_rec_at(pager, &self.cfg, segs, page)?;
                    return Ok(());
                }
            }
        }
        Ok(())
    }
}

/// What [`TwoLevelBinary::describe`] reports.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StructureStats {
    /// First-level internal (base-line) nodes.
    pub internal_nodes: u64,
    /// First-level leaves.
    pub leaves: u64,
    /// Tree height (levels).
    pub height: u32,
    /// Segments lying on base lines (Σ |C(v)|).
    pub on_line: u64,
    /// Segments crossing base lines (Σ |L(v)| = Σ |R(v)|).
    pub crossing: u64,
    /// Segments stored in leaves.
    pub in_leaves: u64,
}

fn describe_rec(
    pager: &Pager,
    cfg: &Binary2LConfig,
    page: PageId,
    depth: u32,
    st: &mut StructureStats,
) -> Result<()> {
    st.height = st.height.max(depth);
    match read_node(pager, page)? {
        Node::Leaf { count, .. } => {
            st.leaves += 1;
            st.in_leaves += count;
        }
        Node::Internal(n) => {
            st.internal_nodes += 1;
            let c = IntervalSet::attach(pager, IntervalTreeConfig::default(), n.c)?;
            st.on_line += c.len();
            let l = Pst::attach(pager, n.xv, Side::Left, cfg.pst, n.l)?;
            st.crossing += l.len();
            if n.left != NULL_PAGE {
                describe_rec(pager, cfg, n.left, depth + 1, st)?;
            }
            if n.right != NULL_PAGE {
                describe_rec(pager, cfg, n.right, depth + 1, st)?;
            }
        }
    }
    Ok(())
}

/// An owned node, for the write path, `validate` and `describe`;
/// queries read theirs in place ([`NodeView`]).
fn read_node(pager: &Pager, id: PageId) -> Result<Node> {
    pager.with_page(id, Node::decode)?
}

fn write_node(pager: &Pager, id: PageId, node: &Node) -> Result<()> {
    pager.overwrite_page(id, |buf| node.encode(buf))?
}

fn leaf_from(pager: &Pager, segs: &[Segment]) -> Result<PageId> {
    let page = pager.allocate()?;
    let head = chain::write(pager, segs)?;
    write_node(
        pager,
        page,
        &Node::Leaf {
            head,
            count: segs.len() as u64,
        },
    )?;
    Ok(page)
}

fn build_rec(pager: &Pager, cfg: &Binary2LConfig, segs: Vec<Segment>) -> Result<PageId> {
    let page = pager.allocate()?;
    build_rec_at(pager, cfg, segs, page)?;
    Ok(page)
}

fn build_rec_at(
    pager: &Pager,
    cfg: &Binary2LConfig,
    segs: Vec<Segment>,
    page: PageId,
) -> Result<()> {
    if segs.len() <= chain::cap(pager.page_size()) {
        let head = chain::write(pager, &segs)?;
        return write_node(
            pager,
            page,
            &Node::Leaf {
                head,
                count: segs.len() as u64,
            },
        );
    }
    // Median endpoint abscissa.
    let mut xs: Vec<i64> = segs.iter().flat_map(|s| [s.a.x, s.b.x]).collect();
    xs.sort_unstable();
    let xv = xs[xs.len() / 2];

    let total = segs.len() as u64;
    let mut on_line = Vec::new();
    let mut crossing = Vec::new();
    let (mut lefts, mut rights) = (Vec::new(), Vec::new());
    for s in segs {
        if s.is_vertical() && s.a.x == xv {
            on_line.push(Interval::new(s.id, s.a.y, s.b.y));
        } else if s.spans_x(xv) {
            crossing.push(s);
        } else if s.b.x < xv {
            lefts.push(s);
        } else {
            rights.push(s);
        }
    }
    let c = IntervalSet::build(pager, IntervalTreeConfig::default(), on_line)?.state();
    let l = Pst::build(pager, xv, Side::Left, cfg.pst, crossing.clone())?.state();
    let r = Pst::build(pager, xv, Side::Right, cfg.pst, crossing)?.state();
    let (left_size, right_size) = (lefts.len() as u64, rights.len() as u64);
    let left = if lefts.is_empty() {
        NULL_PAGE
    } else {
        build_rec(pager, cfg, lefts)?
    };
    let right = if rights.is_empty() {
        NULL_PAGE
    } else {
        build_rec(pager, cfg, rights)?
    };
    write_node(
        pager,
        page,
        &Node::Internal(Box::new(Internal {
            xv,
            left,
            right,
            total,
            left_size,
            right_size,
            c,
            l,
            r,
        })),
    )
}

fn collect_rec(
    pager: &Pager,
    cfg: &Binary2LConfig,
    page: PageId,
    out: &mut Vec<Segment>,
) -> Result<()> {
    match read_node(pager, page)? {
        Node::Leaf { head, .. } => chain::scan(pager, head, |s| out.push(s))?,
        Node::Internal(n) => {
            let c = IntervalSet::attach(pager, IntervalTreeConfig::default(), n.c)?;
            for iv in c.scan_all(pager)? {
                out.push(
                    Segment::new(iv.id, (n.xv, iv.lo), (n.xv, iv.hi))
                        .map_err(|_| PagerError::Corrupt("bad C(v) interval"))?,
                );
            }
            // L(v) alone holds every crossing segment once.
            let l = Pst::attach(pager, n.xv, Side::Left, cfg.pst, n.l)?;
            out.extend(l.scan_all(pager)?);
            if n.left != NULL_PAGE {
                collect_rec(pager, cfg, n.left, out)?;
            }
            if n.right != NULL_PAGE {
                collect_rec(pager, cfg, n.right, out)?;
            }
        }
    }
    Ok(())
}

fn destroy_children_of(pager: &Pager, cfg: &Binary2LConfig, page: PageId) -> Result<()> {
    if let Node::Internal(n) = read_node(pager, page)? {
        IntervalSet::attach(pager, IntervalTreeConfig::default(), n.c)?.destroy(pager)?;
        Pst::attach(pager, n.xv, Side::Left, cfg.pst, n.l)?.destroy(pager)?;
        Pst::attach(pager, n.xv, Side::Right, cfg.pst, n.r)?.destroy(pager)?;
        if n.left != NULL_PAGE {
            destroy_rec(pager, cfg, n.left)?;
        }
        if n.right != NULL_PAGE {
            destroy_rec(pager, cfg, n.right)?;
        }
    } else if let Node::Leaf { head, .. } = read_node(pager, page)? {
        chain::destroy(pager, head)?;
    }
    Ok(())
}

fn destroy_rec(pager: &Pager, cfg: &Binary2LConfig, page: PageId) -> Result<()> {
    destroy_children_of(pager, cfg, page)?;
    pager.free(page)
}

/// Validates the subtree and returns its segment count.
fn validate_rec(
    pager: &Pager,
    cfg: &Binary2LConfig,
    page: PageId,
    lo: Option<i64>,
    hi: Option<i64>,
) -> Result<u64> {
    match read_node(pager, page)? {
        Node::Leaf { head, count } => {
            let mut n = 0u64;
            let mut ok = true;
            chain::scan(pager, head, |s| {
                n += 1;
                // Every leaf segment lies strictly inside the ancestor
                // slab.
                ok &= lo.is_none_or(|l| s.a.x > l) && hi.is_none_or(|h| s.b.x < h);
            })?;
            if !ok {
                return Err(PagerError::Corrupt("leaf segment escapes slab"));
            }
            if n != count {
                return Err(PagerError::Corrupt("leaf count stale"));
            }
            Ok(n)
        }
        Node::Internal(n) => {
            if lo.is_some_and(|l| n.xv <= l) || hi.is_some_and(|h| n.xv >= h) {
                return Err(PagerError::Corrupt("base line escapes ancestor slab"));
            }
            let c = IntervalSet::attach(pager, IntervalTreeConfig::default(), n.c)?;
            c.validate(pager)?;
            let l = Pst::attach(pager, n.xv, Side::Left, cfg.pst, n.l)?;
            l.validate(pager)?;
            let r = Pst::attach(pager, n.xv, Side::Right, cfg.pst, n.r)?;
            r.validate(pager)?;
            if l.len() != r.len() {
                return Err(PagerError::Corrupt("L(v)/R(v) length mismatch"));
            }
            let here = c.len() + l.len();
            let left = if n.left == NULL_PAGE {
                0
            } else {
                validate_rec(pager, cfg, n.left, lo, Some(n.xv))?
            };
            let right = if n.right == NULL_PAGE {
                0
            } else {
                validate_rec(pager, cfg, n.right, Some(n.xv), hi)?
            };
            if left != n.left_size || right != n.right_size {
                return Err(PagerError::Corrupt("subtree sizes stale"));
            }
            if here + left + right != n.total {
                return Err(PagerError::Corrupt("subtree total stale"));
            }
            Ok(n.total)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::ids;
    use segdb_geom::gen::{grid_map, mixed_map, nested, strips, temporal, vertical_queries};
    use segdb_geom::query::scan_oracle;
    use segdb_pager::PagerConfig;

    fn pager(page: usize) -> Pager {
        Pager::new(PagerConfig {
            page_size: page,
            cache_pages: 0,
        })
    }

    fn check_queries(set: &[Segment], t: &TwoLevelBinary, p: &Pager, queries: &[VerticalQuery]) {
        for q in queries {
            let (hits, trace) = t.query(p, q).unwrap();
            let expect = ids(&scan_oracle(set, q));
            assert_eq!(ids(&crate::report::normalize(hits)), expect, "q={q:?}");
            assert_eq!(trace.hits as usize, expect.len());
        }
    }

    #[test]
    fn matches_oracle_on_all_families() {
        for (name, set) in [
            ("mixed", mixed_map(700, 5)),
            ("grid", grid_map(12, 12, 32, 100, 9)),
            ("strips", strips(500, 1 << 14, 16, 300, 2)),
            ("temporal", temporal(400, 4096, 8)),
            ("nested", nested(300)),
        ] {
            let p = pager(512);
            let t = TwoLevelBinary::build(&p, Binary2LConfig::default(), set.clone()).unwrap();
            t.validate(&p).unwrap();
            assert_eq!(t.len(), set.len() as u64, "{name}");
            let mut queries = vertical_queries(&set, 25, 100, 77);
            // Boundary-exact: hit actual endpoints and base lines.
            for s in set.iter().take(10) {
                queries.push(VerticalQuery::Line { x: s.a.x });
                queries.push(VerticalQuery::segment(s.b.x, s.b.y - 5, s.b.y + 5));
            }
            check_queries(&set, &t, &p, &queries);
        }
    }

    #[test]
    fn binary_pst_config_works_too() {
        let p = pager(512);
        let set = mixed_map(400, 21);
        let cfg = Binary2LConfig {
            pst: PstConfig::binary(),
            ..Binary2LConfig::default()
        };
        let t = TwoLevelBinary::build(&p, cfg, set.clone()).unwrap();
        t.validate(&p).unwrap();
        check_queries(&set, &t, &p, &vertical_queries(&set, 20, 150, 3));
    }

    #[test]
    fn incremental_insert_matches_oracle() {
        let p = pager(512);
        let set = mixed_map(400, 33);
        let mut t = TwoLevelBinary::build(&p, Binary2LConfig::default(), vec![]).unwrap();
        for (i, s) in set.iter().enumerate() {
            t.insert(&p, *s).unwrap();
            if i % 97 == 0 {
                t.validate(&p).unwrap();
            }
        }
        t.validate(&p).unwrap();
        check_queries(&set, &t, &p, &vertical_queries(&set, 25, 120, 5));
        let mut all = ids(&t.scan_all(&p).unwrap());
        all.dedup();
        assert_eq!(all.len(), set.len());
    }

    #[test]
    fn delete_then_query() {
        let p = pager(512);
        let set = temporal(300, 2048, 4);
        let mut t = TwoLevelBinary::build(&p, Binary2LConfig::default(), set.clone()).unwrap();
        let (gone, kept): (Vec<Segment>, Vec<Segment>) = set.iter().partition(|s| s.id % 3 == 0);
        for s in &gone {
            assert!(t.remove(&p, s).unwrap(), "missing {s}");
        }
        t.validate(&p).unwrap();
        assert_eq!(t.len() as usize, kept.len());
        let kept: Vec<Segment> = kept;
        check_queries(&kept, &t, &p, &vertical_queries(&kept, 25, 150, 6));
    }

    #[test]
    fn query_io_beats_full_scan() {
        let p = pager(1024);
        let set = strips(20_000, 1 << 16, 16, 200, 5);
        let t = TwoLevelBinary::build(&p, Binary2LConfig::default(), set.clone()).unwrap();
        let fs = crate::FullScan::build(&p, &set).unwrap();
        let queries = vertical_queries(&set, 20, 20, 9);
        let (mut t_io, mut fs_io) = (0u64, 0u64);
        for q in &queries {
            let (h1, tr1) = t.query(&p, q).unwrap();
            let (h2, tr2) = fs.query(&p, q).unwrap();
            assert_eq!(ids(&h1), ids(&h2));
            t_io += tr1.io.reads;
            fs_io += tr2.io.reads;
        }
        assert!(t_io * 10 < fs_io, "index {t_io} vs scan {fs_io}");
    }

    #[test]
    fn space_is_linear_in_n() {
        let p = pager(1024);
        let set = strips(10_000, 1 << 16, 16, 250, 6);
        let before = p.live_pages();
        let t = TwoLevelBinary::build(&p, Binary2LConfig::default(), set.clone()).unwrap();
        let used = p.live_pages() - before;
        let b = chain::cap(1024); // segments per block
        let n_blocks = set.len() / b + 1;
        assert!(used < 12 * n_blocks, "used {used} blocks, n/B = {n_blocks}");
        t.destroy(&p).unwrap();
        assert_eq!(p.live_pages(), before);
    }

    #[test]
    fn empty_and_single() {
        let p = pager(512);
        let t = TwoLevelBinary::build(&p, Binary2LConfig::default(), vec![]).unwrap();
        t.validate(&p).unwrap();
        let (hits, _) = t.query(&p, &VerticalQuery::Line { x: 0 }).unwrap();
        assert!(hits.is_empty());
        let one = vec![Segment::new(1, (0, 0), (5, 5)).unwrap()];
        let t = TwoLevelBinary::build(&p, Binary2LConfig::default(), one.clone()).unwrap();
        let (hits, _) = t.query(&p, &VerticalQuery::segment(3, 0, 5)).unwrap();
        assert_eq!(ids(&hits), vec![1]);
    }
}
