//! The external PST: build, frontier query, insert, weight-balanced
//! rebuilds, validation.

use crate::node::{default_caps, node_bytes, seg_cap_for_fanout, ChildEntry, PstNode, PstNodeView};
use crate::side::Side;
use segdb_geom::predicates::{hits_vertical, y_at_x_cmp};
use segdb_geom::{ReportSink, Segment};
use segdb_pager::codec::{u32_at, u64_at};
use segdb_pager::{ByteWriter, PageId, Pager, PagerError, Result, NULL_PAGE};
use std::cmp::Ordering;
use std::ops::ControlFlow;
use std::sync::Arc;

/// Configuration of a PST instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PstConfig {
    /// Child count per internal node. `None` = page-size default (the
    /// packed, `Θ(B)`-ary accelerated variant).
    pub fanout: Option<usize>,
}

impl PstConfig {
    /// The paper's binary tree of Section 2 (Lemma 2 costs).
    pub fn binary() -> Self {
        PstConfig { fanout: Some(2) }
    }

    /// The packed variant (Lemma 3 substitute).
    pub fn packed() -> Self {
        PstConfig { fanout: None }
    }

    fn caps(&self, page_size: usize) -> (usize, usize) {
        match self.fanout {
            None => default_caps(page_size),
            Some(f) => {
                let f = f.max(2);
                (seg_cap_for_fanout(page_size, f), f)
            }
        }
    }
}

impl Default for PstConfig {
    fn default() -> Self {
        PstConfig::packed()
    }
}

/// Serializable identity of a PST (20 bytes). `base_x`, [`Side`] and the
/// config are context the owner supplies at [`Pst::attach`] time.
///
/// The last 8 bytes are reserved: builds whose PSTs deleted by
/// tombstone kept a chain head and a count there. Every state this build
/// writes carries what those builds wrote for a PST without tombstones
/// (`NULL_PAGE`, 0), so files stay byte-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PstState {
    /// Root page ([`NULL_PAGE`] = empty tree).
    pub root: PageId,
    /// Segment count.
    pub total: u64,
    /// The reserved count: 0 unless read from a file whose PST still hid
    /// tombstoned segments, which [`Pst::attach`] refuses.
    pub legacy_tombs: u32,
}

impl PstState {
    /// Encoded size in bytes.
    pub const ENCODED_SIZE: usize = 4 + 8 + 4 + 4;

    /// Serialize.
    pub fn encode(&self, w: &mut ByteWriter<'_>) -> Result<()> {
        w.u32(self.root)?;
        w.u64(self.total)?;
        w.u32(NULL_PAGE)?;
        w.u32(self.legacy_tombs)
    }

    /// Read from the head of a length-checked record image (a parent's
    /// node view).
    pub fn read(b: &[u8]) -> Self {
        PstState {
            root: u32_at(b, 0),
            total: u64_at(b, 4),
            legacy_tombs: u32_at(b, 16),
        }
    }
}

/// Instrumentation of one query — the measurable form of Lemma 1.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Node pages read.
    pub blocks_read: u32,
    /// Segments reported.
    pub hits: u32,
    /// Levels descended.
    pub levels: u32,
    /// Widest per-level frontier (paper: ≤ 2 boundary nodes per level
    /// plus output-charged nodes).
    pub max_frontier: u32,
    /// Frontier nodes that produced no output (the paper's queue slack).
    pub fruitless_nodes: u32,
}

/// One predicate of a PST group walk (see [`Pst::query_group`]):
/// the vertical query `x = qx, lo ≤ y ≤ hi` plus an opaque `tag` handed
/// to the emit callback with every hit.
#[derive(Debug, Clone, Copy)]
pub struct BatchQuery {
    /// Query abscissa.
    pub qx: i64,
    /// Lower ordinate bound (`None` = unbounded).
    pub lo: Option<i64>,
    /// Upper ordinate bound (`None` = unbounded).
    pub hi: Option<i64>,
    /// Caller-defined correlation tag (e.g. a sink-slot index).
    pub tag: usize,
}

/// One frontier position of [`Pst::query_group`]: query `qi` still needs
/// `page`. Flankers are static separator segments known to reach the
/// query line; by non-crossingness they bracket the subtree's ordinates
/// there.
#[derive(Clone, Copy)]
struct Entry {
    page: PageId,
    qi: u32,
    flo: Option<Segment>,
    fhi: Option<Segment>,
}

/// `Entry::qi` of a query that broke while its page run is still being
/// routed.
const RETIRED: u32 = u32::MAX;

/// Read every router of `node` into `out` (cleared first): the routing
/// step compares each child's router with its siblings', so they are
/// read, and validated, once per node.
fn read_routers(node: &PstNodeView<'_>, out: &mut Vec<Segment>) -> Result<()> {
    out.clear();
    out.reserve(node.nchildren());
    for i in 0..node.nchildren() {
        out.push(node.router(i)?);
    }
    Ok(())
}

/// Remove query `qi`'s entries from `entries[from..]`, keeping order.
fn drop_query(entries: &mut Vec<Entry>, from: usize, qi: u32) {
    let mut w = from;
    for r in from..entries.len() {
        if entries[r].qi != qi {
            entries[w] = entries[r];
            w += 1;
        }
    }
    entries.truncate(w);
}

/// An external priority search tree for line-based segments. See crate
/// docs for the invariants.
///
/// ```
/// use segdb_pager::{Pager, PagerConfig};
/// use segdb_pst::{Pst, PstConfig, Side};
/// use segdb_geom::Segment;
///
/// let pager = Pager::new(PagerConfig::default());
/// // Three segments based on the vertical line x = 0, extending right.
/// let segs = vec![
///     Segment::new(1, (0, 0), (10, 2)).unwrap(),
///     Segment::new(2, (0, 5), (4, 6)).unwrap(),
///     Segment::new(3, (0, 9), (20, 9)).unwrap(),
/// ];
/// let pst = Pst::build(&pager, 0, Side::Right, PstConfig::packed(), segs).unwrap();
/// let mut hits = Vec::new();
/// // Query segment x = 6, 0 ≤ y ≤ 10: segment 2 is too short to reach.
/// pst.query_sink(&pager, 6, Some(0), Some(10), &mut hits).unwrap();
/// let mut ids: Vec<u64> = hits.iter().map(|s| s.id).collect();
/// ids.sort();
/// assert_eq!(ids, vec![1, 3]);
/// ```
#[derive(Debug)]
pub struct Pst {
    base_x: i64,
    side: Side,
    state: PstState,
    seg_cap: usize,
    fanout: usize,
}

impl Pst {
    /// Build from a set of segments, each of which must span the base
    /// line `x = base_x` (touch or cross) and must not be vertical.
    pub fn build(
        pager: &Pager,
        base_x: i64,
        side: Side,
        cfg: PstConfig,
        mut segs: Vec<Segment>,
    ) -> Result<Self> {
        let (seg_cap, fanout) = cfg.caps(pager.page_size());
        if node_bytes(seg_cap, fanout) > pager.page_size() || seg_cap < 1 {
            return Err(PagerError::PageOverflow {
                what: "pst node",
                requested: node_bytes(seg_cap, fanout),
                capacity: pager.page_size(),
            });
        }
        for s in &segs {
            check_line_based(s, base_x)?;
        }
        segs.sort_by(|a, b| side.cmp_base(base_x, a, b));
        let total = segs.len() as u64;
        let root = if segs.is_empty() {
            NULL_PAGE
        } else {
            build_rec(pager, seg_cap, fanout, side, segs)?.0
        };
        Ok(Pst {
            base_x,
            side,
            state: PstState {
                root,
                total,
                legacy_tombs: 0,
            },
            seg_cap,
            fanout,
        })
    }

    /// Reconstruct from serialized state plus owner-supplied context. A
    /// state still carrying tombstones from an older build is refused:
    /// this build cannot read them, and ignoring them would bring the
    /// segments they deleted back.
    pub fn attach(
        pager: &Pager,
        base_x: i64,
        side: Side,
        cfg: PstConfig,
        state: PstState,
    ) -> Result<Self> {
        if state.legacy_tombs != 0 {
            return Err(PagerError::Corrupt(
                "pst state carries tombstones from an older build's PST deletes, \
                 which this build cannot read: rebuild the database from its segments",
            ));
        }
        let (seg_cap, fanout) = cfg.caps(pager.page_size());
        Ok(Pst {
            base_x,
            side,
            state,
            seg_cap,
            fanout,
        })
    }

    /// The serializable identity.
    pub fn state(&self) -> PstState {
        self.state
    }

    /// Stored segment count.
    pub fn len(&self) -> u64 {
        self.state.total
    }

    /// True when no segments are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The base line abscissa.
    pub fn base_x(&self) -> i64 {
        self.base_x
    }

    /// The side of the base line this set lives on.
    pub fn side(&self) -> Side {
        self.side
    }

    /// Report every stored segment whose clipped part intersects the
    /// vertical query `x = qx, lo ≤ y ≤ hi` (`None` = unbounded) into
    /// `sink` (a `Vec<Segment>` collects): a group of one through
    /// [`Pst::query_group`]. Every hit streams into `sink` in traversal
    /// order; a `Break` abandons the rest of the frontier immediately,
    /// so no further node pages are read.
    pub fn query_sink(
        &self,
        pager: &Pager,
        qx: i64,
        lo: Option<i64>,
        hi: Option<i64>,
        sink: &mut dyn ReportSink,
    ) -> Result<QueryStats> {
        let one = [BatchQuery { qx, lo, hi, tag: 0 }];
        self.query_group(pager, &one, &mut |_, s| sink.report(s))
    }

    /// The PST search of Lemma 1 for a whole group of queries: one
    /// level-order frontier walk in which each node page is read once,
    /// however many queries need it. `emit` receives `(tag, segment)`
    /// per hit, per query in traversal order; a `Break` retires that
    /// query alone — its entries leave the frontier at once, so a page
    /// only retired queries were waiting for is never read. The PST
    /// must evaluate each segment's reach and ordinate at `qx`
    /// individually, so there is no bulk count shortcut here — the
    /// early exit is the whole saving.
    pub fn query_group(
        &self,
        pager: &Pager,
        queries: &[BatchQuery],
        emit: &mut dyn FnMut(usize, &Segment) -> ControlFlow<()>,
    ) -> Result<QueryStats> {
        let mut stats = QueryStats::default();
        if self.state.root == NULL_PAGE {
            return Ok(stats);
        }
        // Off-side queries can never match on this side of the base
        // line and never enter the frontier.
        let mut frontier: Vec<Entry> = queries
            .iter()
            .enumerate()
            .filter(|(_, q)| self.side.on_side(self.base_x, q.qx))
            .map(|(qi, _)| Entry {
                page: self.state.root,
                qi: qi as u32,
                flo: None,
                fhi: None,
            })
            .collect();
        if frontier.is_empty() {
            return Ok(stats);
        }
        let mut next: Vec<Entry> = Vec::new();
        let mut routers: Vec<Segment> = Vec::new();
        while !frontier.is_empty() {
            stats.levels += 1;
            let mut width = 0u32;
            let mut at = 0;
            // Entries for one page are adjacent (a level is filled child
            // by child); each such run costs one read.
            while at < frontier.len() {
                let page = frontier[at].page;
                let end = at + frontier[at..].iter().take_while(|e| e.page == page).count();
                width += 1;
                stats.blocks_read += 1;
                let img = read_page(pager, page)?;
                let node = PstNodeView::new(&img)?;
                let mut produced = false;
                // Each stored segment is read once and offered to every
                // query of the run still listening; a query sees its
                // hits in base order, as it would alone.
                let mut listening = end - at;
                for si in 0..node.len() {
                    if listening == 0 {
                        break;
                    }
                    let s = node.segment(si)?;
                    let reach = self.side.reach_key(&s);
                    for i in at..end {
                        let qi = frontier[i].qi;
                        if qi == RETIRED {
                            continue;
                        }
                        let q = &queries[qi as usize];
                        if reach >= self.side.query_key(q.qx) && hits_vertical(&s, q.qx, q.lo, q.hi)
                        {
                            stats.hits += 1;
                            produced = true;
                            if emit(q.tag, &s).is_break() {
                                frontier[i].qi = RETIRED;
                                drop_query(&mut frontier, end, qi);
                                drop_query(&mut next, 0, qi);
                                listening -= 1;
                            }
                        }
                    }
                }
                if !produced {
                    stats.fruitless_nodes += 1;
                }
                // Children: priority prune by router, sandwich prune by
                // the nearest *reaching sibling routers*. The static
                // separators keep subtree base-ranges disjoint forever,
                // so each router stays inside its own subtree's range
                // and flanks its siblings; and a subtree that matters
                // (contains a reaching segment) has a reaching router by
                // the heap property — a usable bound always exists when
                // it is needed.
                if listening > 0 {
                    read_routers(&node, &mut routers)?;
                } else {
                    routers.clear();
                }
                for i in 0..routers.len() {
                    for e in frontier[at..end].iter().filter(|e| e.qi != RETIRED) {
                        let q = &queries[e.qi as usize];
                        if let Some((flo, fhi)) =
                            self.child_bracket(&routers, i, q.qx, q.lo, q.hi, e.flo, e.fhi)
                        {
                            next.push(Entry {
                                page: node.child_page(i),
                                qi: e.qi,
                                flo,
                                fhi,
                            });
                        }
                    }
                }
                at = end;
            }
            stats.max_frontier = stats.max_frontier.max(width);
            std::mem::swap(&mut frontier, &mut next);
            next.clear();
        }
        Ok(stats)
    }

    /// Should the walk for `x = qx, lo ≤ y ≤ hi` enter child `i`? `None`
    /// when its router does not reach the query line (priority prune) or
    /// the bracket of its ordinates there misses the window (sandwich
    /// prune); otherwise the child's flankers — the nearest sibling
    /// routers on either side that reach the line, else the inherited
    /// `flo` / `fhi`.
    #[allow(clippy::too_many_arguments)]
    fn child_bracket(
        &self,
        routers: &[Segment],
        i: usize,
        qx: i64,
        lo: Option<i64>,
        hi: Option<i64>,
        flo: Option<Segment>,
        fhi: Option<Segment>,
    ) -> Option<(Option<Segment>, Option<Segment>)> {
        let qkey = self.side.query_key(qx);
        let reaches = |s: &&Segment| self.side.reach_key(s) >= qkey;
        if !reaches(&&routers[i]) {
            return None;
        }
        let child_lo = routers[..i].iter().rev().find(reaches).copied().or(flo);
        let child_hi = routers[i + 1..].iter().find(reaches).copied().or(fhi);
        // Prune: whole bracket below lo or above hi.
        if let (Some(h), Some(f)) = (hi, &child_lo) {
            if y_at_x_cmp(f, qx, h) == Ordering::Greater {
                return None; // subtree ordinates ≥ flanker > hi
            }
        }
        if let (Some(l), Some(f)) = (lo, &child_hi) {
            if y_at_x_cmp(f, qx, l) == Ordering::Less {
                return None; // subtree ordinates ≤ flanker < lo
            }
        }
        Some((child_lo, child_hi))
    }

    /// The paper's `Find` (Appendix A, Figure 8): locate the
    /// **deepest-leftmost** segment intersected by the query — the
    /// intersected segment smallest in base order — and the block it is
    /// stored in, in `O(log n)` I/Os (frontier ≤ the paper's 2-node
    /// queue per level beyond pruned subtrees).
    pub fn find_leftmost(
        &self,
        pager: &Pager,
        qx: i64,
        lo: Option<i64>,
        hi: Option<i64>,
    ) -> Result<(Option<(Segment, PageId)>, u32)> {
        self.find_extreme(pager, qx, lo, hi, true)
    }

    /// Symmetric `Find`: the intersected segment largest in base order
    /// (the paper's deepest-rightmost; Report walks between the two).
    pub fn find_rightmost(
        &self,
        pager: &Pager,
        qx: i64,
        lo: Option<i64>,
        hi: Option<i64>,
    ) -> Result<(Option<(Segment, PageId)>, u32)> {
        self.find_extreme(pager, qx, lo, hi, false)
    }

    fn find_extreme(
        &self,
        pager: &Pager,
        qx: i64,
        lo: Option<i64>,
        hi: Option<i64>,
        leftmost: bool,
    ) -> Result<(Option<(Segment, PageId)>, u32)> {
        if self.state.root == NULL_PAGE || !self.side.on_side(self.base_x, qx) {
            return Ok((None, 0));
        }
        let mut visited = 0u32;
        let hit = self.find_rec(
            pager,
            self.state.root,
            qx,
            lo,
            hi,
            None,
            None,
            leftmost,
            &mut visited,
        )?;
        Ok((hit, visited))
    }

    #[allow(clippy::too_many_arguments)]
    fn find_rec(
        &self,
        pager: &Pager,
        page: PageId,
        qx: i64,
        lo: Option<i64>,
        hi: Option<i64>,
        flo: Option<Segment>,
        fhi: Option<Segment>,
        leftmost: bool,
        visited: &mut u32,
    ) -> Result<Option<(Segment, PageId)>> {
        *visited += 1;
        let qkey = self.side.query_key(qx);
        let img = read_page(pager, page)?;
        let node = PstNodeView::new(&img)?;
        let better = |s: &Segment, best: &Option<(Segment, PageId)>| match best {
            None => true,
            Some((b, _)) => {
                let cmp = self.side.cmp_base(self.base_x, s, b);
                if leftmost {
                    cmp == Ordering::Less
                } else {
                    cmp == Ordering::Greater
                }
            }
        };
        // Extreme hit among this block's segments.
        let mut best: Option<(Segment, PageId)> = None;
        for i in 0..node.len() {
            let s = node.segment(i)?;
            if self.side.reach_key(&s) >= qkey && hits_vertical(&s, qx, lo, hi) && better(&s, &best)
            {
                best = Some((s, page));
            }
        }
        // Children in base order (reversed for rightmost): the first
        // subtree that yields a hit dominates all later ones, because
        // the static separators keep subtree ranges disjoint and
        // ordered; the block-local best can still win, so compare.
        let mut routers = Vec::new();
        read_routers(&node, &mut routers)?;
        for step in 0..routers.len() {
            let i = if leftmost {
                step
            } else {
                routers.len() - 1 - step
            };
            let Some((child_lo, child_hi)) = self.child_bracket(&routers, i, qx, lo, hi, flo, fhi)
            else {
                continue;
            };
            if let Some(child_hit) = self.find_rec(
                pager,
                node.child_page(i),
                qx,
                lo,
                hi,
                child_lo,
                child_hi,
                leftmost,
                visited,
            )? {
                if better(&child_hit.0, &best) {
                    best = Some(child_hit);
                }
                break; // later subtrees are entirely on the wrong side
            }
        }
        Ok(best)
    }

    /// Insert a segment spanning the base line. `O(height)` I/Os plus
    /// amortized weight-balance rebuilds.
    pub fn insert(&mut self, pager: &Pager, seg: Segment) -> Result<()> {
        check_line_based(&seg, self.base_x)?;
        self.state.total += 1;
        if self.state.root == NULL_PAGE {
            let page = pager.allocate()?;
            write_node(
                pager,
                page,
                &PstNode {
                    segments: vec![seg],
                    children: vec![],
                    seps: vec![],
                },
            )?;
            self.state.root = page;
            return Ok(());
        }

        // Descend, displacing heap-style; remember the path for the
        // balance check: (page, subtree_size_after_insert).
        let mut path: Vec<(PageId, u64)> = Vec::new();
        let mut page = self.state.root;
        let mut carry = seg;
        loop {
            let mut node = read_node(pager, page)?;
            path.push((page, node.subtree_size() + 1));
            let is_leaf = node.is_leaf();

            if is_leaf && node.segments.len() < self.seg_cap {
                let pos = self.base_insert_pos(&node.segments, &carry);
                node.segments.insert(pos, carry);
                write_node(pager, page, &node)?;
                break;
            }

            // Displace: if the carry out-reaches the stored minimum, it
            // takes that slot and the minimum moves down.
            let min_idx = node
                .segments
                .iter()
                .enumerate()
                .min_by_key(|(_, s)| (self.side.reach_key(s), s.id))
                .map(|(i, _)| i)
                .ok_or(PagerError::Corrupt("pst node with no segments on path"))?;
            let (min_reach, min_id) = (
                self.side.reach_key(&node.segments[min_idx]),
                node.segments[min_idx].id,
            );
            let ck = (self.side.reach_key(&carry), carry.id);
            if ck > (min_reach, min_id) {
                let evicted = node.segments.remove(min_idx);
                let pos = self.base_insert_pos(&node.segments, &carry);
                node.segments.insert(pos, carry);
                carry = evicted;
            }

            if is_leaf {
                // Full leaf: grow a single child; rebuilds restore shape.
                let child = pager.allocate()?;
                write_node(
                    pager,
                    child,
                    &PstNode {
                        segments: vec![carry],
                        children: vec![],
                        seps: vec![],
                    },
                )?;
                node.children.push(ChildEntry {
                    router: carry,
                    page: child,
                    size: 1,
                });
                write_node(pager, page, &node)?;
                break;
            }

            // Route the carry by the static separators.
            let idx = node
                .seps
                .iter()
                .take_while(|s| self.side.cmp_base(self.base_x, s, &carry) == Ordering::Less)
                .count();
            let c = &mut node.children[idx];
            c.size += 1;
            if (self.side.reach_key(&carry), carry.id)
                > (self.side.reach_key(&c.router), c.router.id)
            {
                c.router = carry;
            }
            let next = c.page;
            write_node(pager, page, &node)?;
            page = next;
        }

        self.maybe_rebalance(pager, &path)
    }

    /// All segments, in base order.
    pub fn scan_all(&self, pager: &Pager) -> Result<Vec<Segment>> {
        let mut out = Vec::with_capacity(self.len() as usize);
        if self.state.root != NULL_PAGE {
            scan_rec(pager, self.state.root, &mut out)?;
        }
        out.sort_by(|a, b| self.side.cmp_base(self.base_x, a, b));
        Ok(out)
    }

    /// Free every page.
    pub fn destroy(self, pager: &Pager) -> Result<()> {
        self.pages(pager, &mut |id| pager.free(id))
    }

    /// Visit every page of the tree, each node after its children.
    pub fn pages(&self, pager: &Pager, f: &mut dyn FnMut(PageId) -> Result<()>) -> Result<()> {
        if self.state.root != NULL_PAGE {
            pages_rec(pager, self.state.root, f)?;
        }
        Ok(())
    }

    /// Deep validation of every invariant (tests).
    pub fn validate(&self, pager: &Pager) -> Result<()> {
        if self.state.root == NULL_PAGE {
            if self.state.total != 0 {
                return Err(PagerError::Corrupt("pst empty root with nonzero total"));
            }
            return Ok(());
        }
        let mut count = 0u64;
        let top = self.validate_rec(pager, self.state.root, None, None, &mut count)?;
        let _ = top;
        if count != self.state.total {
            return Err(PagerError::Corrupt("pst total mismatch"));
        }
        Ok(())
    }

    // ---- internals ----------------------------------------------------

    fn base_insert_pos(&self, segs: &[Segment], s: &Segment) -> usize {
        segs.iter()
            .take_while(|t| self.side.cmp_base(self.base_x, t, s) == Ordering::Less)
            .count()
    }

    /// Rebuild the subtree rooted at the deepest unbalanced node of the
    /// path (BB[α] by partial rebuilding; α = 3/4).
    fn maybe_rebalance(&mut self, pager: &Pager, path: &[(PageId, u64)]) -> Result<()> {
        // Find the highest node whose some child exceeds α of its weight.
        for &(page, size) in path {
            if size < (self.seg_cap as u64) * 4 {
                break; // small subtrees cannot be meaningfully unbalanced
            }
            let node = read_node(pager, page)?;
            // A child dominating its parent's weight includes the
            // degenerate single-child chains grown by leaf overflow.
            let threshold = size * 3 / 4;
            let lopsided = node.children.iter().any(|c| c.size > threshold);
            if lopsided {
                self.rebuild_subtree(pager, page)?;
                return Ok(());
            }
        }
        Ok(())
    }

    fn rebuild_subtree(&self, pager: &Pager, page: PageId) -> Result<()> {
        let mut segs = Vec::new();
        scan_rec(pager, page, &mut segs)?;
        // Free descendants; rebuild into the same root page so the parent
        // pointer and parent-recorded size stay valid.
        let node = read_node(pager, page)?;
        for c in &node.children {
            pages_rec(pager, c.page, &mut |id| pager.free(id))?;
        }
        segs.sort_by(|a, b| self.side.cmp_base(self.base_x, a, b));
        build_rec_at(pager, self.seg_cap, self.fanout, self.side, segs, page)?;
        Ok(())
    }

    /// Returns the subtree's max-reach segment; checks everything else.
    fn validate_rec(
        &self,
        pager: &Pager,
        page: PageId,
        lo: Option<&Segment>,
        hi: Option<&Segment>,
        count: &mut u64,
    ) -> Result<Segment> {
        let node = read_node(pager, page)?;
        if node.segments.is_empty() {
            return Err(PagerError::Corrupt("pst node without segments"));
        }
        if node.segments.len() > self.seg_cap || node.children.len() > self.fanout {
            return Err(PagerError::Corrupt("pst node over capacity"));
        }
        if !node.is_leaf() && node.segments.len() < self.seg_cap {
            return Err(PagerError::Corrupt("pst internal node not full"));
        }
        *count += node.segments.len() as u64;
        // A separator is a copy of the first segment of the subtree to
        // its right, so the lower bound is inclusive.
        let in_range = |s: &Segment| {
            lo.is_none_or(|l| self.side.cmp_base(self.base_x, l, s) != Ordering::Greater)
                && hi.is_none_or(|h| self.side.cmp_base(self.base_x, s, h) == Ordering::Less)
        };
        for s in &node.segments {
            check_line_based(s, self.base_x)?;
            if !in_range(s) {
                return Err(PagerError::Corrupt("pst segment outside separator range"));
            }
        }
        for w in node.segments.windows(2) {
            if self.side.cmp_base(self.base_x, &w[0], &w[1]) != Ordering::Less {
                return Err(PagerError::Corrupt("pst segments out of base order"));
            }
        }
        for w in node.seps.windows(2) {
            if self.side.cmp_base(self.base_x, &w[0], &w[1]) != Ordering::Less {
                return Err(PagerError::Corrupt("pst separators out of order"));
            }
        }
        let min_reach = node
            .segments
            .iter()
            .map(|s| (self.side.reach_key(s), s.id))
            .min()
            .ok_or(PagerError::Corrupt("pst empty node in validate"))?;
        for (i, c) in node.children.iter().enumerate() {
            if (self.side.reach_key(&c.router), c.router.id) > min_reach {
                return Err(PagerError::Corrupt("pst child out-reaches parent minimum"));
            }
            let clo = if i == 0 { lo } else { Some(&node.seps[i - 1]) };
            let chi = if i + 1 == node.children.len() {
                hi
            } else {
                Some(&node.seps[i])
            };
            let child_top = self.validate_rec(pager, c.page, clo, chi, count)?;
            if (self.side.reach_key(&child_top), child_top.id)
                != (self.side.reach_key(&c.router), c.router.id)
            {
                return Err(PagerError::Corrupt("pst router is not the child maximum"));
            }
            let sub = read_node(pager, c.page)?.subtree_size();
            if sub != c.size {
                return Err(PagerError::Corrupt("pst child size stale"));
            }
        }
        node.segments
            .iter()
            .max_by_key(|s| (self.side.reach_key(s), s.id))
            .copied()
            .ok_or(PagerError::Corrupt("pst empty node in validate"))
    }
}

fn check_line_based(s: &Segment, base_x: i64) -> Result<()> {
    if s.is_vertical() {
        return Err(PagerError::Corrupt(
            "vertical segment in PST (belongs to C(v))",
        ));
    }
    if !s.spans_x(base_x) {
        return Err(PagerError::Corrupt("segment does not span the base line"));
    }
    Ok(())
}

/// One node visit of a search: the page image, to be read in place
/// through a [`PstNodeView`].
fn read_page(pager: &Pager, id: PageId) -> Result<Arc<[u8]>> {
    segdb_obs::trace::emit(segdb_obs::trace::EventKind::PstNodeVisit, u64::from(id), 0);
    pager.page(id)
}

/// One node visit of the write path, of scans feeding a rebuild, and of
/// `validate`: an owned node.
fn read_node(pager: &Pager, id: PageId) -> Result<PstNode> {
    PstNode::decode(&read_page(pager, id)?)
}

fn write_node(pager: &Pager, id: PageId, node: &PstNode) -> Result<()> {
    pager.overwrite_page(id, |buf| node.encode(buf))?
}

/// Build a subtree from base-ordered segments; returns
/// `(page, top segment, size)`.
fn build_rec(
    pager: &Pager,
    seg_cap: usize,
    fanout: usize,
    side: Side,
    segs: Vec<Segment>,
) -> Result<(PageId, Segment, u64)> {
    let page = pager.allocate()?;
    let top = build_rec_at(pager, seg_cap, fanout, side, segs, page)?;
    Ok((page, top.0, top.1))
}

/// Build into a fixed page id; returns `(top segment, size)`.
fn build_rec_at(
    pager: &Pager,
    seg_cap: usize,
    fanout: usize,
    side: Side,
    segs: Vec<Segment>,
    page: PageId,
) -> Result<(Segment, u64)> {
    debug_assert!(!segs.is_empty());
    let size = segs.len() as u64;
    if segs.len() <= seg_cap {
        let top = segs
            .iter()
            .max_by_key(|s| (side.reach_key(s), s.id))
            .copied()
            .ok_or(PagerError::Corrupt("pst build chunk is empty"))?;
        write_node(
            pager,
            page,
            &PstNode {
                segments: segs,
                children: vec![],
                seps: vec![],
            },
        )?;
        return Ok((top, size));
    }
    // Select the seg_cap farthest-reaching segments (ties by id).
    let mut order: Vec<usize> = (0..segs.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse((side.reach_key(&segs[i]), segs[i].id)));
    let mut selected = vec![false; segs.len()];
    for &i in order.iter().take(seg_cap) {
        selected[i] = true;
    }
    let mut stored = Vec::with_capacity(seg_cap);
    let mut rest = Vec::with_capacity(segs.len() - seg_cap);
    for (i, s) in segs.into_iter().enumerate() {
        if selected[i] {
            stored.push(s); // base order preserved
        } else {
            rest.push(s);
        }
    }
    let top = stored
        .iter()
        .max_by_key(|s| (side.reach_key(s), s.id))
        .copied()
        .ok_or(PagerError::Corrupt("pst build chunk is empty"))?;

    // Split the remainder into ≤ fanout equal base-order chunks, but
    // never more chunks than needed to fill nodes (avoids sprays of
    // near-empty leaves at the recursion bottom).
    let m = fanout.min(rest.len().div_ceil(seg_cap)).max(1);
    let chunk = rest.len().div_ceil(m);
    let mut children = Vec::with_capacity(m);
    let mut seps = Vec::with_capacity(m.saturating_sub(1));
    let mut iter = rest.into_iter().peekable();
    let mut first = true;
    while iter.peek().is_some() {
        let part: Vec<Segment> = iter.by_ref().take(chunk).collect();
        if !first {
            seps.push(part[0]);
        }
        first = false;
        let (cpage, ctop, csize) = build_rec(pager, seg_cap, fanout, side, part)?;
        children.push(ChildEntry {
            router: ctop,
            page: cpage,
            size: csize,
        });
    }
    write_node(
        pager,
        page,
        &PstNode {
            segments: stored,
            children,
            seps,
        },
    )?;
    Ok((top, size))
}

/// Every segment of a subtree, in pre-order (not base order). Shared by
/// [`Pst::scan_all`] and the rebuild path.
fn scan_rec(pager: &Pager, page: PageId, out: &mut Vec<Segment>) -> Result<()> {
    let node = read_node(pager, page)?;
    out.extend_from_slice(&node.segments);
    for c in &node.children {
        scan_rec(pager, c.page, out)?;
    }
    Ok(())
}

fn pages_rec(pager: &Pager, page: PageId, f: &mut dyn FnMut(PageId) -> Result<()>) -> Result<()> {
    let node = read_node(pager, page)?;
    for c in &node.children {
        pages_rec(pager, c.page, f)?;
    }
    f(page)
}

#[cfg(test)]
mod tests {
    use super::*;
    use segdb_geom::VerticalQuery;
    use segdb_pager::PagerConfig;

    fn pager(page: usize) -> Pager {
        Pager::new(PagerConfig {
            page_size: page,
            cache_pages: 0,
        })
    }

    /// Right-side fan rooted on x = 0.
    fn fan(n: usize) -> Vec<Segment> {
        segdb_geom::gen::fan(n, 16, 1 << 14, 42)
    }

    use segdb_core::testutil::oracle_vertical as oracle;

    fn run(
        pst: &Pst,
        p: &Pager,
        qx: i64,
        lo: Option<i64>,
        hi: Option<i64>,
    ) -> (Vec<u64>, QueryStats) {
        let mut out = Vec::new();
        let st = pst.query_sink(p, qx, lo, hi, &mut out).unwrap();
        let mut ids: Vec<u64> = out.iter().map(|s| s.id).collect();
        ids.sort_unstable();
        (ids, st)
    }

    #[test]
    fn build_and_query_matches_oracle_both_configs() {
        for cfg in [PstConfig::binary(), PstConfig::packed()] {
            let p = pager(512);
            let set = fan(500);
            let pst = Pst::build(&p, 0, Side::Right, cfg, set.clone()).unwrap();
            pst.validate(&p).unwrap();
            assert_eq!(pst.len(), 500);
            for (qx, lo, hi) in [
                (0, Some(0), Some(100)),
                (5, Some(0), Some(8000)),
                (100, None, None),
                (1 << 13, Some(-50), Some(4000)),
                (1 << 14, None, Some(0)),
                (3, Some(7), Some(7)),
            ] {
                let (ids, _) = run(&pst, &p, qx, lo, hi);
                assert_eq!(ids, oracle(&set, qx, lo, hi), "q=({qx},{lo:?},{hi:?})");
            }
            // Off-side query is empty.
            let (ids, _) = run(&pst, &p, -1, None, None);
            assert!(ids.is_empty());
        }
    }

    #[test]
    fn left_side_mirror() {
        let p = pager(512);
        // Mirror the fan to the left of x = 0.
        let set: Vec<Segment> = fan(300)
            .into_iter()
            .map(|s| Segment::new(s.id, (-s.a.x, s.a.y), (-s.b.x, s.b.y)).unwrap())
            .collect();
        let pst = Pst::build(&p, 0, Side::Left, PstConfig::packed(), set.clone()).unwrap();
        pst.validate(&p).unwrap();
        for (qx, lo, hi) in [
            (0, Some(0), Some(500)),
            (-37, Some(100), Some(2000)),
            (-(1 << 13), None, None),
        ] {
            let (ids, _) = run(&pst, &p, qx, lo, hi);
            assert_eq!(ids, oracle(&set, qx, lo, hi), "q=({qx},{lo:?},{hi:?})");
        }
        let (ids, _) = run(&pst, &p, 1, None, None);
        assert!(ids.is_empty(), "off-side");
    }

    #[test]
    fn rejects_bad_segments() {
        let p = pager(512);
        let vertical = Segment::new(1, (0, 0), (0, 5)).unwrap();
        assert!(Pst::build(&p, 0, Side::Right, PstConfig::packed(), vec![vertical]).is_err());
        let disjoint = Segment::new(2, (5, 0), (9, 5)).unwrap();
        assert!(Pst::build(&p, 0, Side::Right, PstConfig::packed(), vec![disjoint]).is_err());
    }

    #[test]
    fn insert_matches_bulk() {
        for cfg in [PstConfig::binary(), PstConfig::packed()] {
            let p = pager(512);
            let set = fan(400);
            let mut pst = Pst::build(&p, 0, Side::Right, cfg, vec![]).unwrap();
            for s in &set {
                pst.insert(&p, *s).unwrap();
            }
            pst.validate(&p).unwrap();
            for (qx, lo, hi) in [
                (0, Some(0), Some(1000)),
                (64, Some(100), Some(5000)),
                (1 << 12, None, None),
            ] {
                let (ids, _) = run(&pst, &p, qx, lo, hi);
                assert_eq!(
                    ids,
                    oracle(&set, qx, lo, hi),
                    "cfg={cfg:?} q=({qx},{lo:?},{hi:?})"
                );
            }
            let mut scanned: Vec<u64> = pst.scan_all(&p).unwrap().iter().map(|s| s.id).collect();
            scanned.sort_unstable();
            assert_eq!(scanned, (0..400u64).collect::<Vec<_>>());
        }
    }

    #[test]
    fn interleaved_insert_query() {
        let p = pager(256);
        let set = fan(300);
        let mut pst = Pst::build(&p, 0, Side::Right, PstConfig::packed(), vec![]).unwrap();
        for (i, s) in set.iter().enumerate() {
            pst.insert(&p, *s).unwrap();
            if i % 37 == 0 {
                let sofar = &set[..=i];
                let (ids, _) = run(&pst, &p, 8, Some(0), Some(10_000));
                assert_eq!(ids, oracle(sofar, 8, Some(0), Some(10_000)), "after {i}");
            }
        }
        pst.validate(&p).unwrap();
    }

    #[test]
    fn packed_height_is_much_smaller() {
        let p1 = pager(4096);
        let p2 = pager(4096);
        let set = fan(20_000);
        let bin = Pst::build(&p1, 0, Side::Right, PstConfig::binary(), set.clone()).unwrap();
        let pack = Pst::build(&p2, 0, Side::Right, PstConfig::packed(), set).unwrap();
        let (_, sb) = {
            let mut out = Vec::new();
            let st = bin
                .query_sink(&p1, 3, Some(0), Some(100), &mut out)
                .unwrap();
            (out, st)
        };
        let (_, sp) = {
            let mut out = Vec::new();
            let st = pack
                .query_sink(&p2, 3, Some(0), Some(100), &mut out)
                .unwrap();
            (out, st)
        };
        assert!(
            sp.levels * 2 < sb.levels,
            "packed {} vs binary {} levels",
            sp.levels,
            sb.levels
        );
    }

    #[test]
    fn frontier_stays_narrow() {
        // Lemma 1's measurable form: boundary frontier ≤ small constant
        // beyond output-charged nodes.
        let p = pager(512);
        let set = fan(5000);
        let pst = Pst::build(&p, 0, Side::Right, PstConfig::binary(), set).unwrap();
        // Thin query: tiny window, far from the base line.
        let mut out = Vec::new();
        let st = pst
            .query_sink(&p, 1 << 12, Some(3000), Some(3010), &mut out)
            .unwrap();
        assert!(
            st.fruitless_nodes <= 4 * st.levels + 4,
            "fruitless={} levels={}",
            st.fruitless_nodes,
            st.levels
        );
    }

    #[test]
    fn space_is_linear() {
        let p = pager(512);
        let set = fan(10_000);
        let n_upper = set.len();
        let before = p.live_pages();
        let pst = Pst::build(&p, 0, Side::Right, PstConfig::packed(), set).unwrap();
        let used = p.live_pages() - before;
        let (cap, _) = PstConfig::packed().caps(512);
        assert!(
            used <= 4 * n_upper / cap + 8,
            "used {used} pages for n/B = {}",
            n_upper / cap
        );
        pst.destroy(&p).unwrap();
        assert_eq!(p.live_pages(), before);
    }

    #[test]
    fn state_roundtrip() {
        let p = pager(512);
        let set = fan(100);
        let pst = Pst::build(&p, 0, Side::Right, PstConfig::packed(), set.clone()).unwrap();
        let st = pst.state();
        let mut buf = vec![0u8; PstState::ENCODED_SIZE];
        st.encode(&mut ByteWriter::new(&mut buf)).unwrap();
        let st2 = PstState::read(&buf);
        assert_eq!(st, st2);
        let pst2 = Pst::attach(&p, 0, Side::Right, PstConfig::packed(), st2).unwrap();
        let (ids, _) = run(&pst2, &p, 2, None, None);
        assert_eq!(ids, oracle(&set, 2, None, None));
        // The reserved bytes read as older builds wrote an untombstoned PST.
        assert_eq!(buf[12..], [0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0]);
    }

    /// A state as a build with PST deletes saved it over live tombstones:
    /// chain head 0x45, 3 tombstones. Attaching it would resurrect them.
    #[test]
    fn a_state_with_tombstones_from_an_older_build_is_refused() {
        let p = pager(512);
        let pst = Pst::build(&p, 0, Side::Right, PstConfig::packed(), fan(100)).unwrap();
        let mut image = Vec::new();
        image.extend_from_slice(&pst.state().root.to_le_bytes());
        image.extend_from_slice(&100u64.to_le_bytes());
        image.extend_from_slice(&0x45u32.to_le_bytes());
        image.extend_from_slice(&3u32.to_le_bytes());
        let old = PstState::read(&image);
        assert_eq!(old.legacy_tombs, 3);
        let err = Pst::attach(&p, 0, Side::Right, PstConfig::packed(), old).unwrap_err();
        assert!(
            matches!(err, PagerError::Corrupt(m) if m.contains("tombstones from an older build")),
            "{err}"
        );
    }

    #[test]
    fn line_and_ray_queries() {
        let p = pager(512);
        let set = fan(200);
        let pst = Pst::build(&p, 0, Side::Right, PstConfig::packed(), set.clone()).unwrap();
        let q = VerticalQuery::Line { x: 10 };
        let (ids, _) = run(&pst, &p, q.x(), q.lo(), q.hi());
        assert_eq!(ids, oracle(&set, 10, None, None));
        let q = VerticalQuery::RayUp { x: 10, y0: 1000 };
        let (ids, _) = run(&pst, &p, q.x(), q.lo(), q.hi());
        assert_eq!(ids, oracle(&set, 10, Some(1000), None));
    }

    #[test]
    fn empty_tree() {
        let p = pager(512);
        let pst = Pst::build(&p, 0, Side::Right, PstConfig::packed(), vec![]).unwrap();
        pst.validate(&p).unwrap();
        assert!(pst.is_empty());
        let (ids, st) = run(&pst, &p, 0, None, None);
        assert!(ids.is_empty());
        assert_eq!(st.blocks_read, 0);
    }

    #[test]
    fn batched_walk_matches_sequential_and_shares_pages() {
        for cfg in [PstConfig::binary(), PstConfig::packed()] {
            let p = pager(512);
            let set = fan(1200);
            let pst = Pst::build(&p, 0, Side::Right, cfg, set).unwrap();
            let windows: Vec<(i64, Option<i64>, Option<i64>)> = (0..8)
                .map(|i| (3 + i * 5, Some(i * 900), Some(i * 900 + 2500)))
                .collect();
            // Sequential: one walk per query.
            let mut seq: Vec<Vec<u64>> = Vec::new();
            let mut seq_blocks = 0u32;
            for &(qx, lo, hi) in &windows {
                let mut out = Vec::new();
                let st = pst.query_sink(&p, qx, lo, hi, &mut out).unwrap();
                seq_blocks += st.blocks_read;
                let mut ids: Vec<u64> = out.iter().map(|s| s.id).collect();
                ids.sort_unstable();
                seq.push(ids);
            }
            // Batched: one walk for all, plus an off-side query that
            // must stay empty without disturbing the batch.
            let mut batch: Vec<BatchQuery> = windows
                .iter()
                .enumerate()
                .map(|(tag, &(qx, lo, hi))| BatchQuery { qx, lo, hi, tag })
                .collect();
            batch.push(BatchQuery {
                qx: -5,
                lo: None,
                hi: None,
                tag: windows.len(),
            });
            let mut got: Vec<Vec<u64>> = vec![Vec::new(); windows.len() + 1];
            let st = pst
                .query_group(&p, &batch, &mut |tag, s| {
                    got[tag].push(s.id);
                    ControlFlow::Continue(())
                })
                .unwrap();
            for ids in &mut got {
                ids.sort_unstable();
            }
            assert!(got[windows.len()].is_empty(), "off-side query is empty");
            assert_eq!(&got[..windows.len()], &seq[..], "cfg={cfg:?}");
            assert!(
                st.blocks_read < seq_blocks,
                "cfg={cfg:?}: shared walk read {} blocks, sequential {}",
                st.blocks_read,
                seq_blocks
            );
        }
    }

    #[test]
    fn batched_walk_early_exit_retires_one_query_only() {
        let p = pager(512);
        let set = fan(800);
        let pst = Pst::build(&p, 0, Side::Right, PstConfig::packed(), set.clone()).unwrap();
        let full = oracle(&set, 4, None, None);
        let mut collect: Vec<u64> = Vec::new();
        let mut first: Vec<u64> = Vec::new();
        let batch = [
            BatchQuery {
                qx: 4,
                lo: None,
                hi: None,
                tag: 0,
            },
            BatchQuery {
                qx: 4,
                lo: None,
                hi: None,
                tag: 1,
            },
        ];
        pst.query_group(&p, &batch, &mut |tag, s| {
            if tag == 0 {
                collect.push(s.id);
                ControlFlow::Continue(())
            } else {
                first.push(s.id);
                ControlFlow::Break(())
            }
        })
        .unwrap();
        collect.sort_unstable();
        assert_eq!(collect, full, "batchmate unaffected by the early exit");
        assert_eq!(first.len(), 1, "limit-style query stopped after one hit");
    }
}

#[cfg(test)]
mod find_tests {
    use super::*;
    use segdb_geom::predicates::hits_vertical as hv;
    use segdb_pager::PagerConfig;

    fn pager() -> Pager {
        Pager::new(PagerConfig {
            page_size: 512,
            cache_pages: 0,
        })
    }

    fn fan(n: usize) -> Vec<Segment> {
        segdb_geom::gen::fan(n, 16, 1 << 14, 4242)
    }

    fn oracle_extreme(
        pst: &Pst,
        set: &[Segment],
        qx: i64,
        lo: Option<i64>,
        hi: Option<i64>,
        leftmost: bool,
    ) -> Option<Segment> {
        let mut hits: Vec<Segment> = set.iter().filter(|s| hv(s, qx, lo, hi)).copied().collect();
        hits.sort_by(|a, b| pst.side().cmp_base(pst.base_x(), a, b));
        if leftmost {
            hits.first().copied()
        } else {
            hits.last().copied()
        }
    }

    #[test]
    fn find_matches_oracle_both_directions_and_configs() {
        for cfg in [PstConfig::binary(), PstConfig::packed()] {
            let p = pager();
            let set = fan(800);
            let pst = Pst::build(&p, 0, Side::Right, cfg, set.clone()).unwrap();
            for (qx, lo, hi) in [
                (3i64, Some(0i64), Some(4000i64)),
                (100, Some(5000), Some(9000)),
                (1 << 13, None, None),
                (0, Some(12_000), Some(12_100)),
                (5, Some(-100), Some(-1)), // empty window below everything
            ] {
                for leftmost in [true, false] {
                    let (got, visited) = if leftmost {
                        pst.find_leftmost(&p, qx, lo, hi).unwrap()
                    } else {
                        pst.find_rightmost(&p, qx, lo, hi).unwrap()
                    };
                    let want = oracle_extreme(&pst, &set, qx, lo, hi, leftmost);
                    assert_eq!(
                        got.map(|(s, _)| s),
                        want,
                        "{cfg:?} q=({qx},{lo:?},{hi:?}) left={leftmost}"
                    );
                    // Find must stay near O(log n), far below a full walk.
                    assert!(visited as usize <= 120, "visited {visited}");
                }
            }
        }
    }

    #[test]
    fn find_returns_the_block_containing_the_segment() {
        let p = pager();
        let set = fan(500);
        let pst = Pst::build(&p, 0, Side::Right, PstConfig::binary(), set).unwrap();
        let (hit, _) = pst.find_leftmost(&p, 7, Some(0), Some(2000)).unwrap();
        let (seg, block) = hit.expect("nonempty window");
        let node = read_node(&p, block).unwrap();
        assert!(
            node.segments.contains(&seg),
            "block really stores the found segment"
        );
    }

    #[test]
    fn find_visits_logarithmically_many_blocks() {
        let p = Pager::new(PagerConfig {
            page_size: 1024,
            cache_pages: 0,
        });
        let set = fan(20_000);
        let pst = Pst::build(&p, 0, Side::Right, PstConfig::binary(), set).unwrap();
        // Thin windows anywhere in the data.
        let mut worst = 0u32;
        for i in 0..50 {
            let lo = i * 6_000;
            let (_, visited) = pst.find_leftmost(&p, 64, Some(lo), Some(lo + 32)).unwrap();
            worst = worst.max(visited);
        }
        // height ≈ log2(20000/21) ≈ 10; allow the ~2-wide queue + slack.
        assert!(worst <= 60, "worst visited {worst}");
    }
}
