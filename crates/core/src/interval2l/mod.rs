//! Solution 2 (paper §4, Theorem 2): the interval-tree two-level
//! structure with fractional cascading.
//!
//! **First level** (§4.1) — an external-interval-tree decomposition: each
//! node carries `k` boundary lines (endpoint quantiles) cutting its range
//! into `k+1` slabs; a segment stays at the topmost node where it meets a
//! boundary, everything else drops into the slab child. `k = Θ(B)`
//! (page-size bounded), so the height is `O(log_B n)`.
//!
//! **Second level** (§4.2), per node — each assigned segment is split:
//!
//! * lies on boundary `sᵢ` → interval set `Cᵢ`;
//! * **short fragments**: the part before the first crossed boundary
//!   `s_f` goes to the left-side PST `L_f`, the part after the last
//!   crossed boundary `s_l` to the right-side PST `R_l`;
//! * **long (central) fragment**: the part spanning complete slabs
//!   `f+1 … l` is filed, segment-tree style, at its `O(log₂ B)`
//!   *allocation nodes* in `G` (see [`gtree`]), each node's *multislab
//!   list* being a B⁺-tree ordered by the exact ordinate at the
//!   multislab's reference line ([`msrec::MsOrder`]).
//!
//! **Fractional cascading** (§4.3) — parent and child multislab lists
//! are merged at the parent's split line and every `(d+1)`-th merged
//! element is selected, satisfying the paper's `d`-property. Where the
//! paper inserts *augmented bridge fragments* into the neighbouring
//! list, this implementation materializes each selection as a **pointer
//! on the nearest preceding real parent element**, aimed at the child
//! leaf a position search for the selected element lands on (cut
//! fragments are not exactly comparable at every query line; pointers
//! on pure lists are — DESIGN.md discusses the substitution). Density
//! and landing direction are preserved: pointer gaps in the parent are
//! ≤ `d+2` elements, and a pointer taken from *before* the reported
//! run's start lands at or before the child's run start. A query walks
//! `G` root→leaf paying one full B⁺-tree descent only at the root;
//! below it jumps through the bridge found just before the run start
//! and re-anchors with a short forward scan. If a bridge is missing or
//! stale (inserts mark the node dirty until the amortized rebuild), the
//! query falls back to a full descent — correctness never depends on
//! bridge freshness, only speed does (measured by experiment E7).
//!
//! **Insertions** (Theorem 2(iii)) — route to the owning node, insert
//! into the three structures, maintain weights, partially rebuild
//! α-unbalanced subtrees, and rebuild a node's bridges once enough
//! inserts accumulate.
//!
//! **Deletes** — an extension beyond the paper's semi-dynamic Theorem 2:
//! lazy tombstones, [`Lazy`]'s: a membership probe shaped like the
//! insert's descent, a tombstone every read withholds, and a rebuild
//! from the live set once the tombstone chain reaches the live count.
//!
//! **Solution 1** (§3, Theorem 1) is this structure at `fanout: Some(1)`:
//! one base line per node at the x-median of the endpoints reaching it,
//! its `C` set and `L`/`R` PST pair, two children, and no `G` (a segment
//! crossing the node's only boundary has no central fragment). Its
//! height is `O(log₂ n)` and its space `O(n)` blocks, the bounds of
//! Theorem 1; the same walk answers the §3 search.

pub mod gtree;
pub mod msrec;
pub mod node;

use crate::batch::Slots;
use crate::chain;
use crate::report::QueryTrace;
use crate::tombs::Lazy;
use gtree::{allocation, path as g_path, skeleton, GNode};
use msrec::{MsOrder, MsRec};
use node::{Internal, InternalView, Node, NodeView};
use segdb_bptree::{BPlusTree, Cursor, LoadedLeaves, TreeState};
use segdb_geom::predicates::y_at_x_cmp;
use segdb_geom::Segment;
use segdb_itree::overlap::{IntervalSet, IntervalSetState};
use segdb_itree::{Interval, IntervalTreeConfig};
use segdb_obs::trace::{emit as obs_emit, probe, EventKind};
use segdb_pager::{PageId, Pager, PagerError, Result, NULL_PAGE};
use segdb_pst::{BatchQuery, Pst, PstConfig, Side};
use std::cmp::Ordering;

/// Bridge-navigation forward-scan cap before falling back to a descent.
const JUMP_SCAN_CAP: usize = 64;

/// Construction knobs for [`TwoLevelInterval`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval2LConfig {
    /// PST flavour for the short-fragment structures.
    pub pst: PstConfig,
    /// Boundaries per first-level node (`None` = page-size maximum, the
    /// paper's `b = Θ(B)`).
    pub fanout: Option<usize>,
    /// The `d` of the `d`-property (`≥ 2`); bridges every `d+1` merged
    /// elements. Larger `d` = fewer augmented copies, longer re-anchor
    /// scans (ablation E7).
    pub bridge_d: usize,
    /// Disable bridges entirely (the Lemma 4 configuration, for the
    /// ablation).
    pub bridges: bool,
    /// Weight-rebuild threshold, as in Solution 1.
    pub rebuild_min: u64,
}

impl Default for Interval2LConfig {
    fn default() -> Self {
        Interval2LConfig {
            pst: PstConfig::packed(),
            fanout: None,
            bridge_d: 2,
            bridges: true,
            rebuild_min: 32,
        }
    }
}

/// Max boundary count for a page size.
fn max_fanout(page_size: usize) -> usize {
    // bytes(k) ≈ fixed 40 + k·(8 sizes + 8 bnd + 4 child + 28 C + 40 LR
    // + 32 G states)
    ((page_size.saturating_sub(48)) / 120).max(1)
}

/// Sentinel-aware interval-set state ("absent" = root NULL, no pages).
fn absent_set() -> IntervalSetState {
    IntervalSetState {
        tree: segdb_itree::tree::ItState {
            root: NULL_PAGE,
            len: 0,
        },
        starts: TreeState {
            root: NULL_PAGE,
            height: 0,
            len: 0,
        },
    }
}

fn set_is_absent(s: &IntervalSetState) -> bool {
    s.tree.root == NULL_PAGE
}

fn list_is_absent(s: &TreeState) -> bool {
    s.root == NULL_PAGE
}

fn absent_list() -> TreeState {
    TreeState {
        root: NULL_PAGE,
        height: 0,
        len: 0,
    }
}

/// Where a segment lands relative to a node's boundaries.
enum Placement {
    /// Vertical, lying on boundary `i`.
    OnLine(usize),
    /// Crosses boundaries `f..=l`.
    Crossing { f: usize, l: usize },
    /// Strictly inside slab `j`.
    Child(usize),
}

fn place(boundaries: &[i64], s: &Segment) -> Placement {
    let k = boundaries.len();
    if s.is_vertical() {
        let f = boundaries.partition_point(|&b| b < s.a.x);
        if f < k && boundaries[f] == s.a.x {
            return Placement::OnLine(f);
        }
        return Placement::Child(f);
    }
    let f = boundaries.partition_point(|&b| b < s.a.x);
    if f < k && boundaries[f] <= s.b.x {
        let l = boundaries.partition_point(|&b| b <= s.b.x) - 1;
        Placement::Crossing { f, l }
    } else {
        Placement::Child(f)
    }
}

/// The Section-4 two-level structure. See module docs; its live count,
/// deletes and tombstones are [`Lazy`]'s.
///
/// ```
/// use segdb_pager::{Pager, PagerConfig};
/// use segdb_core::interval2l::{Interval2LConfig, TwoLevelInterval};
/// use segdb_geom::{Segment, VerticalQuery};
///
/// let pager = Pager::new(PagerConfig::default());
/// let set: Vec<Segment> = (0..100)
///     .map(|i| Segment::new(i, (0, 10 * i as i64), (1000, 10 * i as i64 + 1)).unwrap())
///     .collect();
/// let t = TwoLevelInterval::build(&pager, Interval2LConfig::default(), set).unwrap();
/// let mut hits = Vec::new();
/// t.query_sink(&pager, &VerticalQuery::segment(500, 0, 95), &mut hits).unwrap();
/// assert_eq!(hits.len(), 10);
/// ```
pub type TwoLevelInterval = Lazy;

/// The pages of a [`TwoLevelInterval`]: the slab tree and its
/// second-level structures, hidden segments included.
#[derive(Debug)]
pub(crate) struct IntervalPages {
    root: PageId,
    cfg: Interval2LConfig,
    k_max: usize,
}

impl TwoLevelInterval {
    /// Build from an NCT segment set.
    pub fn build(pager: &Pager, cfg: Interval2LConfig, segs: Vec<Segment>) -> Result<Self> {
        Lazy::build_over(pager, IntervalPages::new(pager, cfg, NULL_PAGE), segs)
    }

    /// Reconstruct from a serialized identity ([`Lazy::state`]), loading
    /// the tombstone chain into memory (refused unless it holds exactly
    /// `tomb_records` records).
    pub fn attach(
        pager: &Pager,
        cfg: Interval2LConfig,
        root: PageId,
        len: u64,
        tomb_head: PageId,
        tomb_records: u64,
    ) -> Result<Self> {
        let pages = IntervalPages::new(pager, cfg, root);
        Lazy::attach_to(pager, pages, len, tomb_head, tomb_records)
    }

    /// The config the structure was built or attached with.
    pub fn config(&self) -> Interval2LConfig {
        self.pages.cfg
    }

    /// Structural summary — how the §4 construction split the segments
    /// (used by the paper-figure fidelity tests and examples).
    pub fn describe(&self, pager: &Pager) -> Result<GStats> {
        let mut st = GStats::default();
        (self.pages).describe_rec(pager, self.pages.root, 1, &mut st)?;
        Ok(st)
    }
}

impl IntervalPages {
    pub(crate) fn root(&self) -> PageId {
        self.root
    }

    /// The §4 search for every slot at once: the group descends the
    /// first level together (each node page read once per group), each
    /// boundary PST is walked once for all the slots probing it (see
    /// [`Pst::query_group`]), and `C_j` sets are attached once per node.
    /// `G` runs stay per-slot (their anchor depends on each query's
    /// ordinate window) but reuse the shared node read. A slot's `Break`
    /// retires that slot alone, and it is dropped from the next probe
    /// list before that structure's pages are read. A slot's hits arrive
    /// in traversal order: per level, C_j, the boundary PSTs, then the G
    /// runs.
    ///
    /// A count-only slot flips the structure into count mode: C_j
    /// answers from the interval set's stored counts and each G run is
    /// measured by two B⁺-tree rank descents over the stored subtree
    /// counts — the run's pages are never read.
    pub(crate) fn walk_group(
        &self,
        pager: &Pager,
        slots: &mut Slots<'_, '_>,
        group: &mut [BatchQuery],
        trace: &mut QueryTrace,
    ) -> Result<()> {
        self.walk(pager, slots, self.root, group, trace)
    }

    /// Semi-dynamic, Theorem 2(iii): route to the owning node, insert
    /// into the three structures, partially rebuild α-unbalanced
    /// subtrees.
    pub(crate) fn store(&mut self, pager: &Pager, seg: Segment) -> Result<()> {
        let mut path: Vec<PageId> = Vec::new();
        let mut page = self.root;
        loop {
            match read_node(pager, page)? {
                Node::Leaf { head, count } => {
                    let new_head = chain::push(pager, head, &seg)?;
                    let count = count + 1;
                    if count as usize > 2 * chain::cap(pager.page_size()) {
                        let segs = chain::collect(pager, new_head)?;
                        chain::destroy(pager, new_head)?;
                        self.build_rec_at(pager, segs, page)?;
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
                    match place(&n.boundaries, &seg) {
                        Placement::OnLine(i) => {
                            let mut c = if set_is_absent(&n.c[i]) {
                                IntervalSet::new(pager, IntervalTreeConfig::default())?
                            } else {
                                IntervalSet::attach(pager, IntervalTreeConfig::default(), n.c[i])?
                            };
                            c.insert(pager, Interval::new(seg.id, seg.a.y, seg.b.y))?;
                            n.c[i] = c.state();
                            write_node(pager, page, &Node::Internal(n))?;
                            break;
                        }
                        Placement::Crossing { f, l } => {
                            let mut lp = Pst::attach(
                                pager,
                                n.boundaries[f],
                                Side::Left,
                                self.cfg.pst,
                                n.l[f],
                            )?;
                            lp.insert(pager, seg)?;
                            n.l[f] = lp.state();
                            let mut rp = Pst::attach(
                                pager,
                                n.boundaries[l],
                                Side::Right,
                                self.cfg.pst,
                                n.r[l],
                            )?;
                            rp.insert(pager, seg)?;
                            n.r[l] = rp.state();
                            if l > f {
                                self.g_insert(pager, &mut n, f + 1, l, seg)?;
                            }
                            write_node(pager, page, &Node::Internal(n))?;
                            break;
                        }
                        Placement::Child(j) => {
                            n.child_sizes[j] += 1;
                            if n.children[j] == NULL_PAGE {
                                n.children[j] = self.leaf_from(pager, &[seg])?;
                                write_node(pager, page, &Node::Internal(n))?;
                                break;
                            }
                            let next = n.children[j];
                            write_node(pager, page, &Node::Internal(n))?;
                            page = next;
                        }
                    }
                }
            }
        }
        self.rebalance_path(pager, &path)
    }

    pub(crate) fn build(&mut self, pager: &Pager, segs: Vec<Segment>) -> Result<()> {
        self.root = self.build_rec(pager, segs)?;
        Ok(())
    }

    pub(crate) fn collect(&self, pager: &Pager) -> Result<Vec<Segment>> {
        let mut out = Vec::new();
        self.collect_rec(pager, self.root, &mut out)?;
        Ok(out)
    }

    pub(crate) fn destroy(&mut self, pager: &Pager) -> Result<()> {
        self.destroy_rec(pager, self.root)
    }

    pub(crate) fn validate(&self, pager: &Pager) -> Result<u64> {
        self.validate_rec(pager, self.root, None, None)
    }

    fn new(pager: &Pager, cfg: Interval2LConfig, root: PageId) -> Self {
        let k_max = cfg
            .fanout
            .map_or(max_fanout(pager.page_size()), |f| {
                f.min(max_fanout(pager.page_size()))
            })
            .max(1);
        IntervalPages { root, cfg, k_max }
    }

    /// Visit `page` for `group` — live slots in abscissa order, so the
    /// slots of one slab are a consecutive run: those strictly inside
    /// it, then those on its right boundary `s_j`.
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
        let mut rest = group;
        while let Some(first) = rest.first() {
            let j = n.slab_of(first.qx);
            let end = if j < n.k() {
                let s_j = n.boundary(j);
                rest.partition_point(|p| p.qx <= s_j)
            } else {
                rest.len()
            };
            let (run, tail) = rest.split_at_mut(end);
            rest = tail;
            self.visit_slab(pager, slots, &n, j, run, trace)?;
        }
        Ok(())
    }

    /// One node's work for the slots of slab `j`: `C_j` for the slots on
    /// `s_j`; `R_{j−1}` for those strictly inside the slab; `L_j` and the
    /// `G` path for both; then the slab child for the inside ones.
    fn visit_slab(
        &self,
        pager: &Pager,
        slots: &mut Slots<'_, '_>,
        n: &InternalView<'_>,
        j: usize,
        run: &mut [BatchQuery],
        trace: &mut QueryTrace,
    ) -> Result<()> {
        let s_j = (j < n.k()).then(|| n.boundary(j));
        // How many of `run`'s leading probes lie strictly inside the slab.
        let inside =
            |run: &[BatchQuery]| s_j.map_or(run.len(), |b| run.partition_point(|p| p.qx < b));
        let on_line = &run[inside(run)..];
        if let Some(x0) = s_j.filter(|_| !on_line.is_empty() && !set_is_absent(&n.c(j))) {
            let c = IntervalSet::attach(pager, IntervalTreeConfig::default(), n.c(j))?;
            slots.probe_on_line(pager, &c, x0, on_line, trace)?;
        }
        let mut run = run;
        if j >= 1 {
            let live = slots.retain_live(run);
            run = &mut run[..live];
            let probing = &run[..inside(run)];
            if !probing.is_empty() {
                let r = Pst::attach(
                    pager,
                    n.boundary(j - 1),
                    Side::Right,
                    self.cfg.pst,
                    n.r(j - 1),
                )?;
                obs_emit(EventKind::SecondLevelProbe, probe::R_PST, 0);
                trace.second_level_probes += 1;
                r.query_group(pager, probing, &mut |i, s| slots.report(i, s))?;
            }
        }
        if let Some(x_j) = s_j {
            // L_j: every segment whose first crossed boundary is s_j —
            // for a slot on s_j they all meet the query line, at their
            // base point.
            let live = slots.retain_live(run);
            run = &mut run[..live];
            if !run.is_empty() {
                let l = Pst::attach(pager, x_j, Side::Left, self.cfg.pst, n.l(j))?;
                obs_emit(EventKind::SecondLevelProbe, probe::L_PST, 0);
                trace.second_level_probes += 1;
                l.query_group(pager, run, &mut |i, s| slots.report(i, s))?;
            }
        }
        // Long fragments spanning slab j (or, on s_j, f < j ≤ l).
        for p in run.iter() {
            if slots.is_active(p.tag) {
                self.g_query(pager, n, j, p, slots, trace)?;
            }
        }
        let live = slots.retain_live(run);
        let descending = inside(&run[..live]);
        self.walk(pager, slots, n.child(j), &mut run[..descending], trace)
    }

    fn describe_rec(&self, pager: &Pager, page: PageId, depth: u32, st: &mut GStats) -> Result<()> {
        st.height = st.height.max(depth);
        match read_node(pager, page)? {
            Node::Leaf { count, .. } => {
                st.leaves += 1;
                st.in_leaves += count;
            }
            Node::Internal(n) => {
                st.internal_nodes += 1;
                st.boundaries += n.boundaries.len() as u64;
                for state in &n.c {
                    if !set_is_absent(state) {
                        let c = IntervalSet::attach(pager, IntervalTreeConfig::default(), *state)?;
                        st.on_line += c.len();
                    }
                }
                for (i, state) in n.l.iter().enumerate() {
                    let l = Pst::attach(pager, n.boundaries[i], Side::Left, self.cfg.pst, *state)?;
                    st.crossing += l.len();
                }
                st.long_fragment_records += n.g_total;
                st.g_lists_nonempty += n.g.iter().filter(|s| !list_is_absent(s)).count() as u64;
                // Bridge pointer density on each parent list: the
                // measurable form of the d-property.
                let k = n.boundaries.len();
                let skel = skeleton(k);
                for (gi, state) in n.g.iter().enumerate() {
                    if list_is_absent(state) || skel[gi].is_leaf() {
                        continue;
                    }
                    let line = n.boundaries[skel[gi].a - 1];
                    let tree = BPlusTree::attach(pager, MsOrder { line }, *state)?;
                    for (child, left) in [(skel[gi].left, true), (skel[gi].right, false)] {
                        if list_is_absent(&n.g[child]) {
                            continue;
                        }
                        let mut gap = 0u64;
                        for rec in tree.scan_all(pager)? {
                            let p = if left {
                                rec.bridge_left
                            } else {
                                rec.bridge_right
                            };
                            if p != NULL_PAGE {
                                st.max_bridge_gap = st.max_bridge_gap.max(gap);
                                gap = 0;
                                st.bridge_pointers += 1;
                            } else {
                                gap += 1;
                            }
                        }
                        st.max_bridge_gap = st.max_bridge_gap.max(gap);
                    }
                }
                for &c in &n.children {
                    if c != NULL_PAGE {
                        self.describe_rec(pager, c, depth + 1, st)?;
                    }
                }
            }
        }
        Ok(())
    }

    // ---- queries over G ------------------------------------------------

    /// Report long fragments intersected at `x0` (in slab or boundary
    /// position `j`), walking the G path with bridge navigation. With a
    /// count-only sink each run is measured by rank descents over the
    /// stored subtree counts instead of being read; a fully-open query
    /// (`lo` and `hi` both `None`) costs zero reads — the run is the
    /// whole list and its length sits in the serialized tree state.
    fn g_query(
        &self,
        pager: &Pager,
        n: &InternalView<'_>,
        j: usize,
        p: &BatchQuery,
        slots: &mut Slots<'_, '_>,
        trace: &mut QueryTrace,
    ) -> Result<()> {
        let (x0, lo, hi, slot) = (p.qx, p.lo, p.hi, p.tag);
        let counting = slots.counts(slot);
        // Bridge pointer carried into the next level, if usable.
        let mut carried: Option<PageId> = None;
        for (gi, g) in g_path(n.k(), j) {
            if !slots.is_active(slot) {
                return Ok(());
            }
            let state = n.g(gi);
            let next_is_left = !g.is_leaf() && j <= g.mid();
            if list_is_absent(&state) {
                carried = None;
                continue;
            }
            obs_emit(EventKind::SecondLevelProbe, probe::G_LIST, gi as u64);
            trace.second_level_probes += 1;
            let line = n.boundary(g.a - 1);
            if counting {
                let cnt = if lo.is_none() && hi.is_none() {
                    state.len
                } else {
                    let tree = BPlusTree::attach(pager, MsOrder { line }, state)?;
                    match (lo, hi) {
                        (Some(lo_v), Some(hi_v)) => tree.count_range(
                            pager,
                            &run_start_probe(x0, lo_v),
                            &run_end_probe(x0, hi_v),
                        )?,
                        (Some(lo_v), None) => tree.count_from(pager, &run_start_probe(x0, lo_v))?,
                        (None, Some(hi_v)) => tree.rank(pager, &run_end_probe(x0, hi_v))?,
                        (None, None) => unreachable!(),
                    }
                };
                let _ = slots.report_count(slot, cnt);
                carried = None;
                continue;
            }
            let tree = BPlusTree::attach(pager, MsOrder { line }, state)?;
            // Position at the first record with y(x0) ≥ lo.
            let cur = match (carried, lo) {
                (Some(leaf), Some(lo_v)) if !n.bridges_dirty() => {
                    obs_emit(EventKind::BridgeJump, u64::from(leaf), 0);
                    trace.bridge_jumps += 1;
                    match self.anchor_by_jump(pager, leaf, x0, lo_v)? {
                        Some(cur) => cur,
                        None => self.anchor_by_descent(pager, &tree, x0, lo)?,
                    }
                }
                _ => self.anchor_by_descent(pager, &tree, x0, lo)?,
            };
            let mut cur = cur;
            // Nearest bridge strictly before the run start (its child
            // counterpart precedes the child's run start).
            carried = if self.cfg.bridges && !n.bridges_dirty() && !g.is_leaf() {
                cur.find_back(|r| {
                    let bridge = if next_is_left {
                        r.bridge_left
                    } else {
                        r.bridge_right
                    };
                    (bridge != NULL_PAGE).then_some(bridge)
                })?
            } else {
                None
            };
            // Report the run.
            let _ = cur.for_each_while_ctl(
                pager,
                |r| hi.is_none_or(|h| y_at_x_cmp(&r.seg, x0, h) != Ordering::Greater),
                |r| slots.report(slot, &r.seg),
            )?;
        }
        Ok(())
    }

    /// Full B⁺-tree descent to the run start (the root of G always pays
    /// this; lower levels pay it only when bridges are unusable).
    fn anchor_by_descent(
        &self,
        pager: &Pager,
        tree: &BPlusTree<MsRec, MsOrder>,
        x0: i64,
        lo: Option<i64>,
    ) -> Result<Cursor<MsRec>> {
        match lo {
            None => tree.cursor_first(pager),
            Some(lo_v) => tree.lower_bound(pager, &move |r: &MsRec| {
                // Monotone predicate along the list order.
                if y_at_x_cmp(&r.seg, x0, lo_v) == Ordering::Less {
                    Ordering::Greater
                } else {
                    Ordering::Less
                }
            }),
        }
    }

    /// Land on a bridged child leaf and scan forward to the run start.
    /// Returns `None` (→ fallback) if the scan exceeds the cap — a stale
    /// pointer or a density violation, impossible right after a bridge
    /// rebuild but guarded against defensively.
    fn anchor_by_jump(
        &self,
        pager: &Pager,
        leaf: PageId,
        x0: i64,
        lo: i64,
    ) -> Result<Option<Cursor<MsRec>>> {
        let mut cur = match Cursor::<MsRec>::jump(pager, leaf) {
            Ok(c) => c,
            Err(_) => return Ok(None), // stale pointer
        };
        let mut scanned = 0usize;
        while let Some(r) = cur.peek() {
            if y_at_x_cmp(&r.seg, x0, lo) != Ordering::Less {
                return Ok(Some(cur));
            }
            scanned += 1;
            if scanned > JUMP_SCAN_CAP {
                return Ok(None);
            }
            cur.next(pager)?;
        }
        Ok(Some(cur)) // exhausted: empty run
    }

    // ---- G maintenance -------------------------------------------------

    /// Insert a long fragment spanning slabs `[fa, fb]` into G,
    /// invalidating bridges and scheduling their amortized rebuild.
    fn g_insert(
        &self,
        pager: &Pager,
        n: &mut Internal,
        fa: usize,
        fb: usize,
        seg: Segment,
    ) -> Result<()> {
        let k = n.boundaries.len();
        let skel = skeleton(k);
        let mut nodes = Vec::new();
        allocation(&skel, fa, fb, &mut nodes);
        for gi in nodes {
            let line = n.boundaries[skel[gi].a - 1];
            let mut tree = if list_is_absent(&n.g[gi]) {
                BPlusTree::create(pager, MsOrder { line })?
            } else {
                BPlusTree::attach(pager, MsOrder { line }, n.g[gi])?
            };
            tree.insert(pager, MsRec::real(seg))?;
            n.g[gi] = tree.state();
            n.g_total += 1;
        }
        if self.cfg.bridges {
            n.bridges_dirty = true;
            n.g_inserts += 1;
            // Amortized: rebuilding costs O(g_total · log); charge it to
            // Θ(g_total / (d+1)) inserts.
            let threshold = (n.g_total / (self.cfg.bridge_d as u64 + 2)).max(8) as u32;
            if n.g_inserts >= threshold {
                self.rebuild_bridges(pager, n)?;
            }
        }
        Ok(())
    }

    /// Strip augmented elements, re-select bridges from the real lists,
    /// rebuild the B⁺-trees and materialize pointers.
    fn rebuild_bridges(&self, pager: &Pager, n: &mut Internal) -> Result<()> {
        let k = n.boundaries.len();
        let skel = skeleton(k);
        // 1. Collect real fragments per skeleton node.
        let mut real: Vec<Vec<MsRec>> = vec![Vec::new(); skel.len()];
        for gi in 0..n.g.len() {
            let state = n.g[gi];
            if list_is_absent(&state) {
                continue;
            }
            let line = n.boundaries[skel[gi].a - 1];
            let tree = BPlusTree::attach(pager, MsOrder { line }, state)?;
            real[gi] = tree
                .scan_all(pager)?
                .into_iter()
                .map(|r| MsRec::real(r.seg)) // drop stale bridge pointers
                .collect();
            tree.destroy(pager)?;
            n.g[gi] = absent_list();
        }
        build_g_lists(pager, self.cfg, &n.boundaries, &skel, real, &mut n.g)?;
        n.bridges_dirty = false;
        n.g_inserts = 0;
        Ok(())
    }

    // ---- build / teardown ----------------------------------------------

    fn leaf_from(&self, pager: &Pager, segs: &[Segment]) -> Result<PageId> {
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

    fn build_rec(&self, pager: &Pager, segs: Vec<Segment>) -> Result<PageId> {
        let page = pager.allocate()?;
        self.build_rec_at(pager, segs, page)?;
        Ok(page)
    }

    fn build_rec_at(&self, pager: &Pager, segs: Vec<Segment>, page: PageId) -> Result<()> {
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
        // Boundaries: endpoint quantiles (like the external interval
        // tree's slab selection).
        let mut xs: Vec<i64> = segs.iter().flat_map(|s| [s.a.x, s.b.x]).collect();
        xs.sort_unstable();
        let want = self.k_max.min(xs.len());
        let mut boundaries: Vec<i64> = (1..=want)
            .map(|i| xs[(i * xs.len() / (want + 1)).min(xs.len() - 1)])
            .collect();
        boundaries.dedup();
        let k = boundaries.len();
        let total = segs.len() as u64;

        let mut on_line: Vec<Vec<Interval>> = vec![Vec::new(); k];
        let mut lefts: Vec<Vec<Segment>> = vec![Vec::new(); k];
        let mut rights: Vec<Vec<Segment>> = vec![Vec::new(); k];
        let skel = skeleton(k);
        let mut g_real: Vec<Vec<MsRec>> = vec![Vec::new(); skel.len()];
        let mut kids: Vec<Vec<Segment>> = vec![Vec::new(); k + 1];
        let mut g_total = 0u64;
        for s in segs {
            match place(&boundaries, &s) {
                Placement::OnLine(i) => on_line[i].push(Interval::new(s.id, s.a.y, s.b.y)),
                Placement::Crossing { f, l } => {
                    lefts[f].push(s);
                    rights[l].push(s);
                    if l > f {
                        let mut nodes = Vec::new();
                        allocation(&skel, f + 1, l, &mut nodes);
                        for gi in nodes {
                            g_real[gi].push(MsRec::real(s));
                            g_total += 1;
                        }
                    }
                }
                Placement::Child(j) => kids[j].push(s),
            }
        }

        let mut c_states = Vec::with_capacity(k);
        let mut l_states = Vec::with_capacity(k);
        let mut r_states = Vec::with_capacity(k);
        for i in 0..k {
            c_states.push(if on_line[i].is_empty() {
                absent_set()
            } else {
                IntervalSet::build(
                    pager,
                    IntervalTreeConfig::default(),
                    std::mem::take(&mut on_line[i]),
                )?
                .state()
            });
            l_states.push(
                Pst::build(
                    pager,
                    boundaries[i],
                    Side::Left,
                    self.cfg.pst,
                    std::mem::take(&mut lefts[i]),
                )?
                .state(),
            );
            r_states.push(
                Pst::build(
                    pager,
                    boundaries[i],
                    Side::Right,
                    self.cfg.pst,
                    std::mem::take(&mut rights[i]),
                )?
                .state(),
            );
        }
        let mut g_states = vec![absent_list(); skel.len()];
        build_g_lists(pager, self.cfg, &boundaries, &skel, g_real, &mut g_states)?;

        let mut children = Vec::with_capacity(k + 1);
        let mut child_sizes = Vec::with_capacity(k + 1);
        for kid in kids {
            child_sizes.push(kid.len() as u64);
            children.push(if kid.is_empty() {
                NULL_PAGE
            } else {
                self.build_rec(pager, kid)?
            });
        }
        write_node(
            pager,
            page,
            &Node::Internal(Box::new(Internal {
                boundaries,
                children,
                child_sizes,
                total,
                c: c_states,
                l: l_states,
                r: r_states,
                g: g_states,
                g_total,
                bridges_dirty: false,
                g_inserts: 0,
            })),
        )
    }

    fn collect_rec(&self, pager: &Pager, page: PageId, out: &mut Vec<Segment>) -> Result<()> {
        match read_node(pager, page)? {
            Node::Leaf { head, .. } => chain::scan(pager, head, |s| out.push(s))?,
            Node::Internal(n) => {
                for (i, state) in n.c.iter().enumerate() {
                    if set_is_absent(state) {
                        continue;
                    }
                    let c = IntervalSet::attach(pager, IntervalTreeConfig::default(), *state)?;
                    for iv in c.scan_all(pager)? {
                        out.push(
                            Segment::new(iv.id, (n.boundaries[i], iv.lo), (n.boundaries[i], iv.hi))
                                .map_err(|_| PagerError::Corrupt("bad C_i interval"))?,
                        );
                    }
                }
                // Each crossing segment appears in exactly one L_f.
                for (i, state) in n.l.iter().enumerate() {
                    let l = Pst::attach(pager, n.boundaries[i], Side::Left, self.cfg.pst, *state)?;
                    out.extend(l.scan_all(pager)?);
                }
                for &c in &n.children {
                    if c != NULL_PAGE {
                        self.collect_rec(pager, c, out)?;
                    }
                }
            }
        }
        Ok(())
    }

    fn destroy_rec(&self, pager: &Pager, page: PageId) -> Result<()> {
        self.destroy_children_of(pager, page)?;
        pager.free(page)
    }

    fn destroy_children_of(&self, pager: &Pager, page: PageId) -> Result<()> {
        match read_node(pager, page)? {
            Node::Leaf { head, .. } => chain::destroy(pager, head)?,
            Node::Internal(n) => {
                let k = n.boundaries.len();
                let skel = skeleton(k);
                for state in &n.c {
                    if !set_is_absent(state) {
                        IntervalSet::attach(pager, IntervalTreeConfig::default(), *state)?
                            .destroy(pager)?;
                    }
                }
                for (i, state) in n.l.iter().enumerate() {
                    Pst::attach(pager, n.boundaries[i], Side::Left, self.cfg.pst, *state)?
                        .destroy(pager)?;
                }
                for (i, state) in n.r.iter().enumerate() {
                    Pst::attach(pager, n.boundaries[i], Side::Right, self.cfg.pst, *state)?
                        .destroy(pager)?;
                }
                for (gi, state) in n.g.iter().enumerate() {
                    if !list_is_absent(state) {
                        let line = n.boundaries[skel[gi].a - 1];
                        BPlusTree::<MsRec, _>::attach(pager, MsOrder { line }, *state)?
                            .destroy(pager)?;
                    }
                }
                for &c in &n.children {
                    if c != NULL_PAGE {
                        self.destroy_rec(pager, c)?;
                    }
                }
            }
        }
        Ok(())
    }

    fn rebalance_path(&mut self, pager: &Pager, path: &[PageId]) -> Result<()> {
        for &page in path {
            if let Node::Internal(n) = read_node(pager, page)? {
                if n.total < self.cfg.rebuild_min {
                    break;
                }
                let threshold = n.total * 3 / 4;
                if n.child_sizes.iter().any(|&s| s > threshold) {
                    let mut segs = Vec::with_capacity(n.total as usize);
                    self.collect_rec(pager, page, &mut segs)?;
                    self.destroy_children_of(pager, page)?;
                    self.build_rec_at(pager, segs, page)?;
                    return Ok(());
                }
            }
        }
        Ok(())
    }

    fn validate_rec(
        &self,
        pager: &Pager,
        page: PageId,
        lo: Option<i64>,
        hi: Option<i64>,
    ) -> Result<u64> {
        match read_node(pager, page)? {
            Node::Leaf { head, count } => {
                let mut m = 0u64;
                let mut ok = true;
                chain::scan(pager, head, |s| {
                    m += 1;
                    ok &= lo.is_none_or(|l| s.a.x > l) && hi.is_none_or(|h| s.b.x < h);
                })?;
                if !ok {
                    return Err(PagerError::Corrupt("leaf segment escapes slab"));
                }
                if m != count {
                    return Err(PagerError::Corrupt("leaf count stale"));
                }
                Ok(m)
            }
            Node::Internal(n) => {
                let k = n.boundaries.len();
                if k == 0 || !n.boundaries.windows(2).all(|w| w[0] < w[1]) {
                    return Err(PagerError::Corrupt("bad boundary set"));
                }
                if lo.is_some_and(|l| n.boundaries[0] <= l)
                    || hi.is_some_and(|h| n.boundaries[k - 1] >= h)
                {
                    return Err(PagerError::Corrupt("boundaries escape ancestor slab"));
                }
                let mut here = 0u64;
                for state in &n.c {
                    if !set_is_absent(state) {
                        let c = IntervalSet::attach(pager, IntervalTreeConfig::default(), *state)?;
                        c.validate(pager)?;
                        here += c.len();
                    }
                }
                let mut crossing = 0u64;
                for i in 0..k {
                    let l = Pst::attach(pager, n.boundaries[i], Side::Left, self.cfg.pst, n.l[i])?;
                    l.validate(pager)?;
                    crossing += l.len();
                    let r = Pst::attach(pager, n.boundaries[i], Side::Right, self.cfg.pst, n.r[i])?;
                    r.validate(pager)?;
                }
                let rsum: u64 = (0..k)
                    .map(|i| {
                        Pst::attach(pager, n.boundaries[i], Side::Right, self.cfg.pst, n.r[i])
                            .map(|p| p.len())
                    })
                    .sum::<Result<u64>>()?;
                if crossing != rsum {
                    return Err(PagerError::Corrupt("L/R fragment counts disagree"));
                }
                here += crossing;
                // G lists: validate trees and fragment placement.
                let skel = skeleton(k);
                let mut g_real = 0u64;
                for (gi, state) in n.g.iter().enumerate() {
                    if list_is_absent(state) {
                        continue;
                    }
                    let line = n.boundaries[skel[gi].a - 1];
                    let tree = BPlusTree::attach(pager, MsOrder { line }, *state)?;
                    tree.validate(pager)?;
                    let (ga, gb) = (skel[gi].a, skel[gi].b);
                    for rec in tree.scan_all(pager)? {
                        // Every fragment spans the node's multislab.
                        if rec.seg.a.x > n.boundaries[ga - 1] || rec.seg.b.x < n.boundaries[gb] {
                            return Err(PagerError::Corrupt("G fragment does not span its node"));
                        }
                        g_real += 1;
                        // Stale pointers are legal while the node waits
                        // for its bridge rebuild: queries ignore them.
                        if !n.bridges_dirty {
                            let kids = [
                                (skel[gi].left, rec.bridge_left),
                                (skel[gi].right, rec.bridge_right),
                            ];
                            for (child, leaf) in kids {
                                if leaf != NULL_PAGE {
                                    let cline = n.boundaries[skel[child].a - 1];
                                    check_bridge(pager, &rec, leaf, cline, n.g[child])?;
                                }
                            }
                        }
                    }
                }
                if g_real != n.g_total {
                    return Err(PagerError::Corrupt("g_total stale"));
                }
                let mut below = 0u64;
                for (i, &c) in n.children.iter().enumerate() {
                    let clo = if i == 0 {
                        lo
                    } else {
                        Some(n.boundaries[i - 1])
                    };
                    let chi = if i == k { hi } else { Some(n.boundaries[i]) };
                    let sz = if c == NULL_PAGE {
                        0
                    } else {
                        self.validate_rec(pager, c, clo, chi)?
                    };
                    if sz != n.child_sizes[i] {
                        return Err(PagerError::Corrupt("child size stale"));
                    }
                    below += sz;
                }
                if here + below != n.total {
                    return Err(PagerError::Corrupt("interval2l total stale"));
                }
                Ok(n.total)
            }
        }
    }
}

/// What [`TwoLevelInterval::describe`] reports.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct GStats {
    /// First-level internal (slab) nodes.
    pub internal_nodes: u64,
    /// First-level leaves.
    pub leaves: u64,
    /// Segments stored in leaves.
    pub in_leaves: u64,
    /// Tree height (levels).
    pub height: u32,
    /// Total boundaries across internal nodes.
    pub boundaries: u64,
    /// Segments lying on boundaries (Σ |Cᵢ|).
    pub on_line: u64,
    /// Segments crossing ≥ 1 boundary (Σ |L_f|).
    pub crossing: u64,
    /// Long-fragment records across all multislab lists (a segment can
    /// contribute `O(log₂ B)` records — its allocation nodes).
    pub long_fragment_records: u64,
    /// Non-empty multislab lists.
    pub g_lists_nonempty: u64,
    /// Bridge pointers materialized.
    pub bridge_pointers: u64,
    /// Longest run of parent-list elements without a bridge pointer —
    /// the measured d-property (must stay ≲ d+2 after a bridge build).
    pub max_bridge_gap: u64,
}

/// Probe placing a cursor at the run start: sorts before every record
/// with `y(x0) ≥ lo` (the monotone predicate of `anchor_by_descent`).
fn run_start_probe(x0: i64, lo: i64) -> impl Fn(&MsRec) -> Ordering {
    move |r: &MsRec| {
        if y_at_x_cmp(&r.seg, x0, lo) == Ordering::Less {
            Ordering::Greater
        } else {
            Ordering::Less
        }
    }
}

/// Probe placing a cursor just past the run end: sorts after every
/// record with `y(x0) ≤ hi`.
fn run_end_probe(x0: i64, hi: i64) -> impl Fn(&MsRec) -> Ordering {
    move |r: &MsRec| {
        if y_at_x_cmp(&r.seg, x0, hi) == Ordering::Greater {
            Ordering::Less
        } else {
            Ordering::Greater
        }
    }
}

/// An owned node, for the write path, `validate` and `describe`;
/// queries read theirs in place ([`NodeView`]).
fn read_node(pager: &Pager, id: PageId) -> Result<Node> {
    pager.with_page(id, Node::decode)?
}

fn write_node(pager: &Pager, id: PageId, node: &Node) -> Result<()> {
    pager.overwrite_page(id, |buf| node.encode(buf))?
}

/// Build the multislab B⁺-trees of a node's G, each with its
/// fractional-cascading bridge pointers already in place.
///
/// Bridge selection follows §4.3's `d`-property: per (parent, child)
/// pair, merge the two lists at the parent's split line and mark every
/// `(d+1)`-th merged element. Instead of inserting *augmented bridge
/// fragments* (whose cut geometry is not exactly comparable at arbitrary
/// query lines), the mark is materialized as a pointer on the **nearest
/// preceding real parent element** in merged order — the *carrier* —
/// aimed at the child leaf a position search for the carrier itself
/// lands on. Density is preserved (any `d+1` consecutive parent elements
/// contain a merged selection, so pointer gaps in the parent are ≤
/// `d+2`), and a pointer never lands past the first child element at or
/// after its carrier: a carrier below a query's window therefore jumps
/// to or before the child's run start, which is what the forward-scan
/// re-anchor in [`TwoLevelInterval::query`] needs
/// ([`TwoLevelInterval::validate`] checks it per pointer).
///
/// The skeleton is in pre-order, so a reverse walk loads every child
/// list before its parent: each bridge is found in memory
/// ([`LoadedLeaves::landing`]) and written with its carrier, and every
/// list page is written once.
fn build_g_lists(
    pager: &Pager,
    cfg: Interval2LConfig,
    boundaries: &[i64],
    skel: &[GNode],
    mut real: Vec<Vec<MsRec>>,
    states: &mut [TreeState],
) -> Result<()> {
    let mut leaves: Vec<Option<LoadedLeaves>> = vec![None; skel.len()];
    for (gi, node) in skel.iter().enumerate().rev() {
        let mut list = std::mem::take(&mut real[gi]);
        if list.is_empty() {
            states[gi] = absent_list();
            continue;
        }
        let line = boundaries[node.a - 1];
        list.sort_by(|a, b| MsOrder::cmp_at(line, a, b));
        if cfg.bridges && !node.is_leaf() {
            let mid_line = boundaries[node.mid()];
            for (child, is_left) in [(node.left, true), (node.right, false)] {
                if let Some(loaded) = leaves[child].take() {
                    let lines = (mid_line, boundaries[skel[child].a - 1]);
                    place_bridges(
                        &mut list,
                        &real[child],
                        &loaded,
                        lines,
                        cfg.bridge_d,
                        is_left,
                    );
                }
            }
        }
        let (tree, loaded) = BPlusTree::bulk_load_leaves(pager, MsOrder { line }, &list)?;
        states[gi] = tree.state();
        leaves[gi] = Some(loaded);
        real[gi] = list;
    }
    Ok(())
}

/// Merge-walk a parent list and one child list (`child`, loaded into
/// `leaves`) at the parent's split line, and point the carrier of every
/// `(d+1)`-th merged element at the child leaf a descent for it at the
/// child's reference line `cline` lands on.
fn place_bridges(
    parent: &mut [MsRec],
    child: &[MsRec],
    leaves: &LoadedLeaves,
    (mid_line, cline): (i64, i64),
    d: usize,
    is_left: bool,
) {
    let (mut i, mut j) = (0usize, 0usize);
    let mut count = 0usize;
    while i < parent.len() || j < child.len() {
        let take_parent = match (parent.get(i), child.get(j)) {
            (Some(a), Some(b)) => MsOrder::cmp_at(mid_line, a, b) != Ordering::Greater,
            (Some(_), None) => true,
            (None, _) => false,
        };
        if take_parent {
            i += 1;
        } else {
            j += 1;
        }
        count += 1;
        if count.is_multiple_of(d + 1) && i > 0 {
            let carrier = parent[i - 1];
            let leaf = leaves.landing(child, &|r: &MsRec| MsOrder::cmp_at(cline, &carrier, r));
            if is_left {
                parent[i - 1].bridge_left = leaf;
            } else {
                parent[i - 1].bridge_right = leaf;
            }
        }
    }
}

/// A bridge must land at or before the first child position at or after
/// its carrier — where [`build_g_lists`] aims it — or a jump through it
/// could skip the head of a run.
fn check_bridge(
    pager: &Pager,
    carrier: &MsRec,
    leaf: PageId,
    cline: i64,
    child: TreeState,
) -> Result<()> {
    if list_is_absent(&child) {
        return Err(PagerError::Corrupt("bridge into an absent list"));
    }
    let ctree = BPlusTree::attach(pager, MsOrder { line: cline }, child)?;
    let position = |of: MsRec| ctree.rank(pager, &move |r: &MsRec| MsOrder::cmp_at(cline, &of, r));
    let landed = match Cursor::<MsRec>::jump(pager, leaf)?.peek() {
        Some(first) => position(*first)?,
        None => child.len,
    };
    if landed > position(*carrier)? {
        return Err(PagerError::Corrupt("bridge lands past its carrier"));
    }
    Ok(())
}
