//! The B⁺-tree proper: bulk load, search, insert, delete, validation.

use crate::cursor::Cursor;
use crate::node::{empty_leaf, InternalView, Node, NodeView};
use crate::record::{Probe, Record, RecordOrd};
use segdb_pager::codec::{u32_at, u64_at};
use segdb_pager::{PageId, Pager, PagerError, Result, NULL_PAGE};
use std::cmp::Ordering;
use std::marker::PhantomData;
use std::sync::Arc;

/// Serialized identity of a B⁺-tree: what a parent structure stores in
/// its own node page to re-[`BPlusTree::attach`] the tree later. 16 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeState {
    /// Root page.
    pub root: PageId,
    /// Height (0 = root is a leaf).
    pub height: u32,
    /// Record count.
    pub len: u64,
}

impl TreeState {
    /// Encoded size in bytes.
    pub const ENCODED_SIZE: usize = 16;

    /// Serialize into a parent node page.
    pub fn encode(&self, w: &mut segdb_pager::ByteWriter<'_>) -> Result<()> {
        w.u32(self.root)?;
        w.u32(self.height)?;
        w.u64(self.len)
    }

    /// Deserialize from a parent node page.
    pub fn decode(r: &mut segdb_pager::ByteReader<'_>) -> Result<Self> {
        Ok(Self::read(r.bytes(Self::ENCODED_SIZE)?))
    }

    /// Read from the head of a length-checked record image (a parent's
    /// node view).
    pub fn read(b: &[u8]) -> Self {
        TreeState {
            root: u32_at(b, 0),
            height: u32_at(b, 4),
            len: u64_at(b, 8),
        }
    }
}

/// An external-memory B⁺-tree. See crate docs.
///
/// ```
/// use segdb_pager::{Pager, PagerConfig};
/// use segdb_bptree::record::{KeyOrder, KeyValue};
/// use segdb_bptree::BPlusTree;
///
/// let pager = Pager::new(PagerConfig::default());
/// let recs: Vec<KeyValue> = (0..100).map(|k| KeyValue { key: k * 2, value: k as u64 }).collect();
/// let mut tree = BPlusTree::bulk_load(&pager, KeyOrder, &recs).unwrap();
/// tree.insert(&pager, KeyValue { key: 7, value: 999 }).unwrap();
/// let mut cur = tree
///     .lower_bound(&pager, &|r: &KeyValue| (7i64, 0u64).cmp(&(r.key, 0)))
///     .unwrap();
/// assert_eq!(cur.next(&pager).unwrap().unwrap().value, 999);
/// ```
#[derive(Debug)]
pub struct BPlusTree<R: Record, O: RecordOrd<R>> {
    root: PageId,
    /// 0 ⇔ the root is a leaf.
    height: u32,
    len: u64,
    leaf_cap: usize,
    int_cap: usize,
    ord: O,
    _r: PhantomData<R>,
}

/// The leaves of a freshly bulk-loaded tree, in key order: the position
/// in the loaded slice of each leaf's first record, and the leaf's page.
#[derive(Debug, Clone)]
pub struct LoadedLeaves {
    starts: Vec<usize>,
    pages: Vec<PageId>,
}

impl LoadedLeaves {
    /// The leaf [`BPlusTree::leaf_page_of`] returns for `probe`, found in
    /// memory: `records` is the slice the tree was loaded from, and no
    /// record may have moved since. A descent routes to the last subtree
    /// whose first record is at or before `probe`, so it ends at the leaf
    /// holding the last such record (the first leaf when there is none).
    pub fn landing<R>(&self, records: &[R], probe: &impl Probe<R>) -> PageId {
        let at_or_before = records.partition_point(|r| probe.cmp_record(r) != Ordering::Less);
        let last = at_or_before.max(1) - 1;
        self.pages[self.starts.partition_point(|&first| first <= last) - 1]
    }
}

/// The state of a handle whose pages are not written yet.
const NO_PAGES: TreeState = TreeState {
    root: NULL_PAGE,
    height: 0,
    len: 0,
};

/// One node visit of a read walk: the page image, to be read in place
/// through a [`NodeView`].
fn read_page(pager: &Pager, id: PageId) -> Result<Arc<[u8]>> {
    segdb_obs::trace::emit(
        segdb_obs::trace::EventKind::BptreeNodeVisit,
        u64::from(id),
        0,
    );
    pager.page(id)
}

/// One node visit of the write path (and of `validate`): an owned node
/// to edit and write back.
fn read_node<R: Record>(pager: &Pager, id: PageId) -> Result<Node<R>> {
    Node::decode(&read_page(pager, id)?)
}

fn write_node<R: Record>(pager: &Pager, id: PageId, node: &Node<R>) -> Result<()> {
    pager.overwrite_page(id, |buf| node.encode(buf))?
}

impl<R: Record, O: RecordOrd<R>> BPlusTree<R, O> {
    /// Create an empty tree (allocates one leaf page).
    pub fn create(pager: &Pager, ord: O) -> Result<Self> {
        let mut tree = Self::attach(pager, ord, NO_PAGES)?;
        tree.root = pager.allocate()?;
        write_node(pager, tree.root, &empty_leaf::<R>())?;
        Ok(tree)
    }

    /// Bulk-load from records **sorted** under `ord` (debug-asserted).
    /// Produces full leaves (with a tail rebalance so every node meets
    /// minimum occupancy), the cheapest way the 2LDS builders materialize
    /// their multislab lists.
    pub fn bulk_load(pager: &Pager, ord: O, records: &[R]) -> Result<Self> {
        Ok(Self::bulk_load_leaves(pager, ord, records)?.0)
    }

    /// [`BPlusTree::bulk_load`], also returning where its leaves went:
    /// a builder that must point into the new tree (a fractional-cascading
    /// bridge) finds a leaf in memory instead of descending to it.
    pub fn bulk_load_leaves(pager: &Pager, ord: O, records: &[R]) -> Result<(Self, LoadedLeaves)> {
        if records.is_empty() {
            let tree = Self::create(pager, ord)?;
            let leaves = LoadedLeaves {
                starts: vec![0],
                pages: vec![tree.root],
            };
            return Ok((tree, leaves));
        }
        let mut tree = Self::attach(pager, ord, NO_PAGES)?;
        debug_assert!(
            records
                .windows(2)
                .all(|w| tree.ord.cmp_records(&w[0], &w[1]) == Ordering::Less),
            "bulk_load input must be strictly sorted"
        );

        // Split `records` into chunks of size cap, rebalancing the last two.
        let chunks = split_chunks(records.len(), tree.leaf_cap, (tree.leaf_cap / 2).max(1));
        let mut level: Vec<(PageId, R, u64)> = Vec::with_capacity(chunks.len());
        let mut pages: Vec<PageId> = Vec::with_capacity(chunks.len());
        for _ in 0..chunks.len() {
            pages.push(pager.allocate()?);
        }
        let mut starts = Vec::with_capacity(chunks.len());
        let mut off = 0usize;
        for (i, &sz) in chunks.iter().enumerate() {
            let recs = &records[off..off + sz];
            starts.push(off);
            off += sz;
            let node = Node::Leaf {
                records: recs.to_vec(),
                next: if i + 1 < pages.len() {
                    pages[i + 1]
                } else {
                    NULL_PAGE
                },
            };
            write_node(pager, pages[i], &node)?;
            level.push((pages[i], recs[0], sz as u64));
        }
        let leaves = LoadedLeaves { starts, pages };
        // Build internal levels until a single node remains. Every
        // internal node records its children's exact subtree counts
        // (the v2 layout), the fuel for count-mode queries.
        let mut height = 0u32;
        while level.len() > 1 {
            height += 1;
            let fanout = tree.int_cap + 1;
            // Non-root internal nodes need ≥ int_cap/2 separators, i.e.
            // int_cap/2 + 1 children.
            let chunks = split_chunks(level.len(), fanout, (tree.int_cap / 2).max(1) + 1);
            let mut next_level = Vec::with_capacity(chunks.len());
            let mut off = 0usize;
            for &sz in &chunks {
                let group = &level[off..off + sz];
                off += sz;
                let id = pager.allocate()?;
                let node = Node::Internal {
                    children: group.iter().map(|&(p, _, _)| p).collect(),
                    seps: group[1..].iter().map(|&(_, r, _)| r).collect(),
                    counts: group.iter().map(|&(_, _, n)| n).collect(),
                };
                write_node(pager, id, &node)?;
                next_level.push((id, group[0].1, group.iter().map(|&(_, _, n)| n).sum()));
            }
            level = next_level;
        }
        tree.root = level[0].0;
        tree.height = height;
        tree.len = records.len() as u64;
        Ok((tree, leaves))
    }

    /// The serializable identity of this tree.
    pub fn state(&self) -> TreeState {
        TreeState {
            root: self.root,
            height: self.height,
            len: self.len,
        }
    }

    /// Reconstruct a tree handle from a serialized [`TreeState`].
    ///
    /// No I/O; capacities are recomputed from the pager's page size, which
    /// must match the one the tree was built with.
    pub fn attach(pager: &Pager, ord: O, state: TreeState) -> Result<Self> {
        let leaf_cap = Node::<R>::leaf_capacity(pager.page_size());
        let int_cap = Node::<R>::internal_capacity(pager.page_size());
        if leaf_cap < 2 || int_cap < 2 {
            return Err(PagerError::PageOverflow {
                what: "b+tree node",
                requested: 2,
                capacity: leaf_cap.min(int_cap),
            });
        }
        Ok(BPlusTree {
            root: state.root,
            height: state.height,
            len: state.len,
            leaf_cap,
            int_cap,
            ord,
            _r: PhantomData,
        })
    }

    /// Number of stored records.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True when no records are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Tree height (0 = root is a leaf).
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Root page (bridges and tests need stable access).
    pub fn root_page(&self) -> PageId {
        self.root
    }

    /// Position a cursor at the first record `r` with `probe ≤ r`
    /// (lower bound). Costs one read per level.
    pub fn lower_bound(&self, pager: &Pager, probe: &impl Probe<R>) -> Result<Cursor<R>> {
        let mut id = self.root;
        loop {
            let img = read_page(pager, id)?;
            match NodeView::<R>::new(&img)? {
                NodeView::Internal(n) => id = n.child(n.route(probe)?),
                NodeView::Leaf(leaf) => {
                    let (count, next, idx) = (leaf.len(), leaf.next(), leaf.lower_bound(probe)?);
                    return Cursor::at(pager, img, count, next, idx);
                }
            }
        }
    }

    /// The page id of the leaf a lower-bound descent for `probe` lands
    /// on: the last leaf whose first record sorts at or before `probe`
    /// (the first leaf when none does). [`LoadedLeaves::landing`] is the
    /// same answer without the descent.
    pub fn leaf_page_of(&self, pager: &Pager, probe: &impl Probe<R>) -> Result<PageId> {
        let mut id = self.root;
        loop {
            match NodeView::<R>::new(&read_page(pager, id)?)? {
                NodeView::Internal(n) => id = n.child(n.route(probe)?),
                NodeView::Leaf(_) => return Ok(id),
            }
        }
    }

    /// The *rank* of `probe`: how many records sort strictly before its
    /// lower-bound position. One page per level when the descent only
    /// meets internal nodes with stored subtree counts (the v2 layout);
    /// count-free (v1) subtrees left of the descent are recursed into —
    /// still exact, just more reads.
    pub fn rank(&self, pager: &Pager, probe: &impl Probe<R>) -> Result<u64> {
        let mut total = 0u64;
        let mut id = self.root;
        loop {
            match NodeView::<R>::new(&read_page(pager, id)?)? {
                NodeView::Internal(n) => {
                    let idx = n.route(probe)?;
                    for j in 0..idx {
                        total += child_count(pager, &n, j)?;
                    }
                    id = n.child(idx);
                }
                NodeView::Leaf(leaf) => return Ok(total + leaf.lower_bound(probe)? as u64),
            }
        }
    }

    /// Number of records in the half-open probe range `[lo, hi)` — the
    /// records a cursor started at `lower_bound(lo)` would yield before
    /// reaching `lower_bound(hi)`. Two root-to-leaf descents; none of
    /// the range's own leaves are read.
    pub fn count_range(
        &self,
        pager: &Pager,
        lo: &impl Probe<R>,
        hi: &impl Probe<R>,
    ) -> Result<u64> {
        Ok(self.rank(pager, hi)?.saturating_sub(self.rank(pager, lo)?))
    }

    /// Cursor at the smallest record.
    pub fn cursor_first(&self, pager: &Pager) -> Result<Cursor<R>> {
        let mut id = self.root;
        loop {
            let img = read_page(pager, id)?;
            match NodeView::<R>::new(&img)? {
                NodeView::Internal(n) => id = n.child(0),
                NodeView::Leaf(leaf) => {
                    let (count, next) = (leaf.len(), leaf.next());
                    return Cursor::at(pager, img, count, next, 0);
                }
            }
        }
    }

    /// Decode one leaf page directly — the fractional-cascading "bridge
    /// jump" entry point (§4.3): land on a leaf without a root descent.
    pub fn read_leaf(pager: &Pager, leaf: PageId) -> Result<(Vec<R>, PageId)> {
        match read_node::<R>(pager, leaf)? {
            Node::Leaf { records, next } => Ok((records, next)),
            Node::Internal { .. } => Err(PagerError::Corrupt("bridge jump hit internal node")),
        }
    }

    /// All records in order (used by rebuilds; `O(n)` leaf reads).
    pub fn scan_all(&self, pager: &Pager) -> Result<Vec<R>> {
        let mut out = Vec::with_capacity(self.len as usize);
        let mut cur = self.cursor_first(pager)?;
        while let Some(r) = cur.next(pager)? {
            out.push(r);
        }
        Ok(out)
    }

    /// Insert `rec`. Returns `false` (no-op) if a record comparing
    /// `Equal` already exists. `O(height)` reads + writes, plus splits.
    /// Internal nodes storing subtree counts are rewritten along the
    /// descent so their counts stay exact.
    pub fn insert(&mut self, pager: &Pager, rec: R) -> Result<bool> {
        // Descend, keeping the path (page, decoded node, chosen child idx).
        let mut path: Vec<PathEntry<R>> = Vec::new();
        let mut id = self.root;
        let (mut leaf_records, mut leaf_next) = loop {
            match read_node::<R>(pager, id)? {
                Node::Internal {
                    children,
                    seps,
                    counts,
                } => {
                    let idx = seps
                        .iter()
                        .take_while(|s| self.ord.cmp_records(&rec, s) != Ordering::Less)
                        .count();
                    let child = children[idx];
                    path.push((id, children, seps, counts, idx));
                    id = child;
                }
                Node::Leaf { records, next } => break (records, next),
            }
        };
        let leaf_id = id;
        let pos = leaf_records
            .iter()
            .take_while(|r| self.ord.cmp_records(r, &rec) == Ordering::Less)
            .count();
        if pos < leaf_records.len()
            && self.ord.cmp_records(&leaf_records[pos], &rec) == Ordering::Equal
        {
            return Ok(false);
        }
        leaf_records.insert(pos, rec);
        self.len += 1;

        if leaf_records.len() <= self.leaf_cap {
            write_node(
                pager,
                leaf_id,
                &Node::Leaf {
                    records: leaf_records,
                    next: leaf_next,
                },
            )?;
            bump_path_counts::<R>(pager, path, 1)?;
            return Ok(true);
        }

        // Split the leaf.
        let mid = leaf_records.len() / 2;
        let right_records = leaf_records.split_off(mid);
        let right_id = pager.allocate()?;
        // The promoted entry and its left sibling carry their halves'
        // exact subtree counts (known for a leaf split; for internal
        // splits only when the split node stored counts itself).
        let mut promoted = (right_records[0], right_id, Some(right_records.len() as u64));
        let mut split_left = (leaf_id, Some(leaf_records.len() as u64));
        write_node(
            pager,
            right_id,
            &Node::Leaf {
                records: right_records,
                next: leaf_next,
            },
        )?;
        leaf_next = right_id;
        write_node(
            pager,
            leaf_id,
            &Node::Leaf {
                records: leaf_records,
                next: leaf_next,
            },
        )?;

        // Propagate splits upward.
        loop {
            match path.pop() {
                None => {
                    // Split reached the root: grow the tree.
                    let new_root = pager.allocate()?;
                    let node = Node::Internal {
                        children: vec![split_left.0, promoted.1],
                        seps: vec![promoted.0],
                        counts: match (split_left.1, promoted.2) {
                            (Some(l), Some(r)) => vec![l, r],
                            _ => Vec::new(),
                        },
                    };
                    write_node(pager, new_root, &node)?;
                    self.root = new_root;
                    self.height += 1;
                    return Ok(true);
                }
                Some((pid, mut children, mut seps, mut counts, idx)) => {
                    seps.insert(idx, promoted.0);
                    children.insert(idx + 1, promoted.1);
                    if !counts.is_empty() {
                        match (split_left.1, promoted.2) {
                            (Some(l), Some(r)) => {
                                counts[idx] = l;
                                counts.insert(idx + 1, r);
                            }
                            // A count-free child split under us: this
                            // node's entry for it was already unknown in
                            // spirit; degrade to the v1 layout.
                            _ => counts = Vec::new(),
                        }
                    }
                    if seps.len() <= self.int_cap {
                        write_node(
                            pager,
                            pid,
                            &Node::Internal {
                                children,
                                seps,
                                counts,
                            },
                        )?;
                        bump_path_counts::<R>(pager, path, 1)?;
                        return Ok(true);
                    }
                    // Split internal node: middle separator moves up.
                    let mid = seps.len() / 2;
                    let up = seps[mid];
                    let right_seps = seps.split_off(mid + 1);
                    seps.pop(); // remove `up`
                    let right_children = children.split_off(mid + 1);
                    let (right_counts, lc, rc) =
                        if counts.len() == children.len() + right_children.len() {
                            let right_counts = counts.split_off(children.len());
                            let lc = counts.iter().sum::<u64>();
                            let rc = right_counts.iter().sum::<u64>();
                            (right_counts, Some(lc), Some(rc))
                        } else {
                            counts = Vec::new();
                            (Vec::new(), None, None)
                        };
                    let right_id = pager.allocate()?;
                    write_node(
                        pager,
                        right_id,
                        &Node::Internal {
                            children: right_children,
                            seps: right_seps,
                            counts: right_counts,
                        },
                    )?;
                    write_node(
                        pager,
                        pid,
                        &Node::Internal {
                            children,
                            seps,
                            counts,
                        },
                    )?;
                    split_left = (pid, lc);
                    promoted = (up, right_id, rc);
                }
            }
        }
    }

    /// Remove the record comparing `Equal` to `rec`. Returns whether a
    /// record was removed. Rebalances by borrow/merge. Subtree counts on
    /// the descent path stay exact unless the removal underflows the
    /// leaf, in which case the rebalanced ancestors degrade to the
    /// count-free (v1) layout — count queries through them fall back to
    /// recursion until the next bulk rebuild restores counts.
    pub fn remove(&mut self, pager: &Pager, rec: &R) -> Result<bool> {
        let mut path: Vec<PathEntry<R>> = Vec::new();
        let mut id = self.root;
        let (mut records, next) = loop {
            match read_node::<R>(pager, id)? {
                Node::Internal {
                    children,
                    seps,
                    counts,
                } => {
                    let idx = seps
                        .iter()
                        .take_while(|s| self.ord.cmp_records(rec, s) != Ordering::Less)
                        .count();
                    let child = children[idx];
                    path.push((id, children, seps, counts, idx));
                    id = child;
                }
                Node::Leaf { records, next } => break (records, next),
            }
        };
        let leaf_id = id;
        let pos = match records
            .iter()
            .position(|r| self.ord.cmp_records(r, rec) == Ordering::Equal)
        {
            Some(p) => p,
            None => return Ok(false),
        };
        records.remove(pos);
        self.len -= 1;
        let min_leaf = (self.leaf_cap / 2).max(1);
        write_node(
            pager,
            leaf_id,
            &Node::Leaf {
                records: records.clone(),
                next,
            },
        )?;
        if records.len() >= min_leaf || path.is_empty() {
            bump_path_counts::<R>(pager, path, -1)?;
            return Ok(true);
        }
        // Underflow: the borrow/merge below rewrites an unpredictable
        // set of ancestors and siblings, so exact counts cannot be
        // carried through. Degrade every path node to unknown counts
        // first; the rebalance then writes count-free nodes throughout.
        for (pid, children, seps, counts, _) in &mut path {
            if !counts.is_empty() {
                counts.clear();
                write_node(
                    pager,
                    *pid,
                    &Node::Internal {
                        children: children.clone(),
                        seps: seps.clone(),
                        counts: Vec::new(),
                    },
                )?;
            }
        }
        let path = path
            .into_iter()
            .map(|(pid, children, seps, _, idx)| (pid, children, seps, idx))
            .collect();
        self.rebalance_leaf(pager, leaf_id, records, next, path)?;
        Ok(true)
    }

    /// Free every page of the tree (used by amortized rebuilds).
    pub fn destroy(self, pager: &Pager) -> Result<()> {
        self.pages(pager, &mut |id| pager.free(id))
    }

    /// Visit every page of the tree, each node after its children.
    pub fn pages(&self, pager: &Pager, f: &mut dyn FnMut(PageId) -> Result<()>) -> Result<()> {
        fn walk<R: Record>(
            pager: &Pager,
            id: PageId,
            f: &mut dyn FnMut(PageId) -> Result<()>,
        ) -> Result<()> {
            if let NodeView::Internal(n) = NodeView::<R>::new(&read_page(pager, id)?)? {
                for j in 0..=n.len() {
                    walk::<R>(pager, n.child(j), f)?;
                }
            }
            f(id)
        }
        walk::<R>(pager, self.root, f)
    }

    /// Deep structural validation (tests / debug builds).
    ///
    /// Checks: uniform leaf depth, occupancy bounds, in-node order,
    /// separator invariants, leaf-chain consistency and record count.
    pub fn validate(&self, pager: &Pager) -> Result<()> {
        let mut leaf_pages = Vec::new();
        let mut count = 0u64;
        self.validate_node(
            pager,
            self.root,
            self.height,
            true,
            None,
            None,
            &mut leaf_pages,
            &mut count,
        )?;
        if count != self.len {
            return Err(PagerError::Corrupt("b+tree len mismatch"));
        }
        // Leaf chain equals in-order leaf sequence.
        for w in leaf_pages.windows(2) {
            let (_, next) = Self::read_leaf(pager, w[0])?;
            if next != w[1] {
                return Err(PagerError::Corrupt("b+tree leaf chain broken"));
            }
        }
        if let Some(&last) = leaf_pages.last() {
            let (_, next) = Self::read_leaf(pager, last)?;
            if next != NULL_PAGE {
                return Err(PagerError::Corrupt("b+tree last leaf has next"));
            }
        }
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    fn validate_node(
        &self,
        pager: &Pager,
        id: PageId,
        depth_left: u32,
        is_root: bool,
        lo: Option<&R>,
        hi: Option<&R>,
        leaf_pages: &mut Vec<PageId>,
        count: &mut u64,
    ) -> Result<()> {
        let in_bounds = |r: &R| {
            lo.is_none_or(|lo| self.ord.cmp_records(lo, r) != Ordering::Greater)
                && hi.is_none_or(|hi| self.ord.cmp_records(r, hi) == Ordering::Less)
        };
        match read_node::<R>(pager, id)? {
            Node::Leaf { records, .. } => {
                if depth_left != 0 {
                    return Err(PagerError::Corrupt("leaf at wrong depth"));
                }
                if !is_root && records.len() < (self.leaf_cap / 2).max(1) {
                    return Err(PagerError::Corrupt("leaf underfull"));
                }
                if records.len() > self.leaf_cap {
                    return Err(PagerError::Corrupt("leaf overfull"));
                }
                for w in records.windows(2) {
                    if self.ord.cmp_records(&w[0], &w[1]) != Ordering::Less {
                        return Err(PagerError::Corrupt("leaf records out of order"));
                    }
                }
                if !records.iter().all(in_bounds) {
                    return Err(PagerError::Corrupt("leaf record outside separator bounds"));
                }
                *count += records.len() as u64;
                leaf_pages.push(id);
            }
            Node::Internal {
                children,
                seps,
                counts,
            } => {
                if depth_left == 0 {
                    return Err(PagerError::Corrupt("internal node at leaf depth"));
                }
                if !counts.is_empty() && counts.len() != children.len() {
                    return Err(PagerError::Corrupt("internal count arity"));
                }
                let min_int = (self.int_cap / 2).max(1);
                if !is_root && seps.len() < min_int {
                    return Err(PagerError::Corrupt("internal underfull"));
                }
                if is_root && seps.is_empty() {
                    return Err(PagerError::Corrupt("internal root with no separator"));
                }
                if seps.len() > self.int_cap {
                    return Err(PagerError::Corrupt("internal overfull"));
                }
                for w in seps.windows(2) {
                    if self.ord.cmp_records(&w[0], &w[1]) != Ordering::Less {
                        return Err(PagerError::Corrupt("separators out of order"));
                    }
                }
                if !seps.iter().all(in_bounds) {
                    return Err(PagerError::Corrupt("separator outside bounds"));
                }
                for (i, &c) in children.iter().enumerate() {
                    let lo2 = if i == 0 { lo } else { Some(&seps[i - 1]) };
                    let hi2 = if i == seps.len() { hi } else { Some(&seps[i]) };
                    let before = *count;
                    self.validate_node(
                        pager,
                        c,
                        depth_left - 1,
                        false,
                        lo2,
                        hi2,
                        leaf_pages,
                        count,
                    )?;
                    if !counts.is_empty() && counts[i] != *count - before {
                        return Err(PagerError::Corrupt("b+tree stored subtree count wrong"));
                    }
                }
            }
        }
        Ok(())
    }

    fn rebalance_leaf(
        &mut self,
        pager: &Pager,
        leaf_id: PageId,
        records: Vec<R>,
        next: PageId,
        mut path: Vec<(PageId, Vec<PageId>, Vec<R>, usize)>,
    ) -> Result<()> {
        let min_leaf = (self.leaf_cap / 2).max(1);
        let (pid, mut children, mut seps, idx) = path
            .pop()
            .ok_or(PagerError::Corrupt("bptree underflow leaf without parent"))?;

        // Try borrowing from the left sibling.
        if idx > 0 {
            let left_id = children[idx - 1];
            if let Node::Leaf {
                records: mut lrecs,
                next: lnext,
            } = read_node::<R>(pager, left_id)?
            {
                if lrecs.len() > min_leaf {
                    let moved = lrecs
                        .pop()
                        .ok_or(PagerError::Corrupt("bptree left sibling is empty"))?;
                    let mut recs = records;
                    recs.insert(0, moved);
                    seps[idx - 1] = moved;
                    write_node(
                        pager,
                        left_id,
                        &Node::Leaf {
                            records: lrecs,
                            next: lnext,
                        },
                    )?;
                    write_node(
                        pager,
                        leaf_id,
                        &Node::Leaf {
                            records: recs,
                            next,
                        },
                    )?;
                    write_node(
                        pager,
                        pid,
                        &Node::Internal {
                            children,
                            seps,
                            counts: Vec::new(),
                        },
                    )?;
                    return Ok(());
                }
                // Merge leaf into left sibling.
                let mut merged = lrecs;
                merged.extend(records);
                write_node(
                    pager,
                    left_id,
                    &Node::Leaf {
                        records: merged,
                        next,
                    },
                )?;
                pager.free(leaf_id)?;
                children.remove(idx);
                seps.remove(idx - 1);
                return self.finish_internal_underflow(pager, pid, children, seps, path);
            }
            return Err(PagerError::Corrupt("leaf sibling is internal"));
        }

        // Borrow from / merge with the right sibling.
        let right_id = children[idx + 1];
        if let Node::Leaf {
            records: mut rrecs,
            next: rnext,
        } = read_node::<R>(pager, right_id)?
        {
            if rrecs.len() > min_leaf {
                let moved = rrecs.remove(0);
                let mut recs = records;
                recs.push(moved);
                seps[idx] = rrecs[0];
                write_node(
                    pager,
                    right_id,
                    &Node::Leaf {
                        records: rrecs,
                        next: rnext,
                    },
                )?;
                write_node(
                    pager,
                    leaf_id,
                    &Node::Leaf {
                        records: recs,
                        next,
                    },
                )?;
                write_node(
                    pager,
                    pid,
                    &Node::Internal {
                        children,
                        seps,
                        counts: Vec::new(),
                    },
                )?;
                return Ok(());
            }
            let mut merged = records;
            merged.extend(rrecs);
            write_node(
                pager,
                leaf_id,
                &Node::Leaf {
                    records: merged,
                    next: rnext,
                },
            )?;
            pager.free(right_id)?;
            children.remove(idx + 1);
            seps.remove(idx);
            return self.finish_internal_underflow(pager, pid, children, seps, path);
        }
        Err(PagerError::Corrupt("leaf sibling is internal"))
    }

    fn finish_internal_underflow(
        &mut self,
        pager: &Pager,
        pid: PageId,
        children: Vec<PageId>,
        seps: Vec<R>,
        mut path: Vec<(PageId, Vec<PageId>, Vec<R>, usize)>,
    ) -> Result<()> {
        let min_int = (self.int_cap / 2).max(1);
        let is_root = pid == self.root;
        if is_root {
            if seps.is_empty() {
                // Root collapse.
                self.root = children[0];
                self.height -= 1;
                pager.free(pid)?;
            } else {
                write_node(
                    pager,
                    pid,
                    &Node::Internal {
                        children,
                        seps,
                        counts: Vec::new(),
                    },
                )?;
            }
            return Ok(());
        }
        if seps.len() >= min_int {
            write_node(
                pager,
                pid,
                &Node::Internal {
                    children,
                    seps,
                    counts: Vec::new(),
                },
            )?;
            return Ok(());
        }
        // Internal underflow: borrow or merge via the grandparent.
        let (gid, mut gchildren, mut gseps, gidx) = path
            .pop()
            .ok_or(PagerError::Corrupt("bptree underflow node without parent"))?;
        if gidx > 0 {
            let left_id = gchildren[gidx - 1];
            if let Node::Internal {
                children: mut lch,
                seps: mut lseps,
                ..
            } = read_node::<R>(pager, left_id)?
            {
                if lseps.len() > min_int {
                    // Rotate right through the grandparent separator.
                    let mut children = children;
                    let mut seps = seps;
                    let moved_child = lch
                        .pop()
                        .ok_or(PagerError::Corrupt("bptree left internal is empty"))?;
                    let moved_sep = lseps
                        .pop()
                        .ok_or(PagerError::Corrupt("bptree left internal is empty"))?;
                    children.insert(0, moved_child);
                    seps.insert(0, gseps[gidx - 1]);
                    gseps[gidx - 1] = moved_sep;
                    write_node(
                        pager,
                        left_id,
                        &Node::Internal {
                            children: lch,
                            seps: lseps,
                            counts: Vec::new(),
                        },
                    )?;
                    write_node(
                        pager,
                        pid,
                        &Node::Internal {
                            children,
                            seps,
                            counts: Vec::new(),
                        },
                    )?;
                    write_node(
                        pager,
                        gid,
                        &Node::Internal {
                            children: gchildren,
                            seps: gseps,
                            counts: Vec::new(),
                        },
                    )?;
                    return Ok(());
                }
                // Merge pid into left sibling.
                lseps.push(gseps[gidx - 1]);
                lseps.extend(seps);
                lch.extend(children);
                write_node(
                    pager,
                    left_id,
                    &Node::Internal {
                        children: lch,
                        seps: lseps,
                        counts: Vec::new(),
                    },
                )?;
                pager.free(pid)?;
                gchildren.remove(gidx);
                gseps.remove(gidx - 1);
                return self.finish_internal_underflow(pager, gid, gchildren, gseps, path);
            }
            return Err(PagerError::Corrupt("internal sibling is leaf"));
        }
        let right_id = gchildren[gidx + 1];
        if let Node::Internal {
            children: mut rch,
            seps: mut rseps,
            ..
        } = read_node::<R>(pager, right_id)?
        {
            if rseps.len() > min_int {
                let mut children = children;
                let mut seps = seps;
                let moved_child = rch.remove(0);
                let moved_sep = rseps.remove(0);
                children.push(moved_child);
                seps.push(gseps[gidx]);
                gseps[gidx] = moved_sep;
                write_node(
                    pager,
                    right_id,
                    &Node::Internal {
                        children: rch,
                        seps: rseps,
                        counts: Vec::new(),
                    },
                )?;
                write_node(
                    pager,
                    pid,
                    &Node::Internal {
                        children,
                        seps,
                        counts: Vec::new(),
                    },
                )?;
                write_node(
                    pager,
                    gid,
                    &Node::Internal {
                        children: gchildren,
                        seps: gseps,
                        counts: Vec::new(),
                    },
                )?;
                return Ok(());
            }
            let mut children = children;
            let mut seps = seps;
            seps.push(gseps[gidx]);
            seps.extend(rseps);
            children.extend(rch);
            write_node(
                pager,
                pid,
                &Node::Internal {
                    children,
                    seps,
                    counts: Vec::new(),
                },
            )?;
            pager.free(right_id)?;
            gchildren.remove(gidx + 1);
            gseps.remove(gidx);
            return self.finish_internal_underflow(pager, gid, gchildren, gseps, path);
        }
        Err(PagerError::Corrupt("internal sibling is leaf"))
    }
}

/// A decoded internal node on a descent path: (page, children, seps,
/// counts, chosen child index).
type PathEntry<R> = (PageId, Vec<PageId>, Vec<R>, Vec<u64>, usize);

/// Rewrite each path node whose stored subtree counts are present,
/// adjusting the descended-into child's count by `delta`. Count-free
/// (v1) nodes are left untouched — no extra writes for them.
fn bump_path_counts<R: Record>(pager: &Pager, path: Vec<PathEntry<R>>, delta: i64) -> Result<()> {
    for (pid, children, seps, mut counts, idx) in path {
        if counts.is_empty() {
            continue;
        }
        counts[idx] = counts[idx].wrapping_add_signed(delta);
        write_node(
            pager,
            pid,
            &Node::Internal {
                children,
                seps,
                counts,
            },
        )?;
    }
    Ok(())
}

/// Exact record count of child `j`'s subtree: the count `n` stores for
/// it, or — under a count-free (v1) node — by reading the subtree.
fn child_count<R: Record>(pager: &Pager, n: &InternalView<'_, R>, j: usize) -> Result<u64> {
    match n.count(j) {
        Some(c) => Ok(c),
        None => count_subtree::<R>(pager, n.child(j)),
    }
}

/// Exact record count of the subtree at `id`. One read when the node
/// stores counts; otherwise recurses (the v1 fallback).
fn count_subtree<R: Record>(pager: &Pager, id: PageId) -> Result<u64> {
    match NodeView::<R>::new(&read_page(pager, id)?)? {
        NodeView::Leaf(leaf) => Ok(leaf.len() as u64),
        NodeView::Internal(n) => (0..=n.len()).map(|j| child_count(pager, &n, j)).sum(),
    }
}

/// Split `total` items into chunks of at most `cap`, rebalancing the last
/// two chunks so no chunk falls below `min` (when there are ≥ 2 chunks).
/// Requires `cap ≥ 2·min − 1` so the rebalance always succeeds.
fn split_chunks(total: usize, cap: usize, min: usize) -> Vec<usize> {
    assert!(cap >= 2 && min >= 1 && cap >= 2 * min - 1);
    if total == 0 {
        return vec![];
    }
    let mut sizes: Vec<usize> = Vec::with_capacity(total.div_ceil(cap));
    let mut left = total;
    while left > 0 {
        let take = left.min(cap);
        sizes.push(take);
        left -= take;
    }
    let k = sizes.len();
    if k >= 2 && sizes[k - 1] < min {
        let deficit = min - sizes[k - 1];
        sizes[k - 1] += deficit;
        sizes[k - 2] -= deficit;
        debug_assert!(sizes[k - 2] >= min);
    }
    sizes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{KeyOrder, KeyValue};
    use segdb_pager::PagerConfig;
    use segdb_rng::check::{self, Shrink};
    use segdb_rng::SmallRng;

    fn pager(page: usize) -> Pager {
        Pager::new(PagerConfig {
            page_size: page,
            cache_pages: 0,
        })
    }

    fn kv(k: i64) -> KeyValue {
        KeyValue {
            key: k,
            value: (k as u64).wrapping_mul(3),
        }
    }

    fn probe(k: i64) -> impl Fn(&KeyValue) -> Ordering {
        move |r: &KeyValue| (k, 0u64).cmp(&(r.key, 0))
    }

    #[test]
    fn split_chunks_properties() {
        assert_eq!(split_chunks(0, 4, 2), Vec::<usize>::new());
        assert_eq!(split_chunks(4, 4, 2), vec![4]);
        assert_eq!(split_chunks(5, 4, 2), vec![3, 2]);
        // [4, 4, 1] has an underfull tail; one item moves left-to-right.
        assert_eq!(split_chunks(9, 4, 2), vec![4, 3, 2]);
        for total in 1..200 {
            for cap in 2..12usize {
                for min in 1..=cap.div_ceil(2) {
                    let s = split_chunks(total, cap, min);
                    assert_eq!(s.iter().sum::<usize>(), total);
                    assert!(s.iter().all(|&x| x <= cap));
                    if s.len() >= 2 {
                        assert!(s.iter().all(|&x| x >= min), "{total} {cap} {min} {s:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn bulk_load_and_scan() {
        let p = pager(128);
        let recs: Vec<KeyValue> = (0..500).map(kv).collect();
        let t = BPlusTree::bulk_load(&p, KeyOrder, &recs).unwrap();
        t.validate(&p).unwrap();
        assert_eq!(t.len(), 500);
        assert_eq!(t.scan_all(&p).unwrap(), recs);
        assert!(t.height() >= 2, "500 records at cap 7 should be deep");
    }

    #[test]
    fn lower_bound_semantics() {
        let p = pager(128);
        let recs: Vec<KeyValue> = (0..100).map(|i| kv(i * 2)).collect(); // evens
        let t = BPlusTree::bulk_load(&p, KeyOrder, &recs).unwrap();
        // Exact hit.
        let mut c = t.lower_bound(&p, &probe(40)).unwrap();
        assert_eq!(c.next(&p).unwrap().unwrap().key, 40);
        // Between keys.
        let mut c = t.lower_bound(&p, &probe(41)).unwrap();
        assert_eq!(c.next(&p).unwrap().unwrap().key, 42);
        // Before all.
        let mut c = t.lower_bound(&p, &probe(-5)).unwrap();
        assert_eq!(c.next(&p).unwrap().unwrap().key, 0);
        // Past all.
        let mut c = t.lower_bound(&p, &probe(999)).unwrap();
        assert!(c.next(&p).unwrap().is_none());
    }

    #[test]
    fn remove_all_in_random_order() {
        let p = pager(128);
        let recs: Vec<KeyValue> = (0..300).map(kv).collect();
        let mut t = BPlusTree::bulk_load(&p, KeyOrder, &recs).unwrap();
        let mut keys: Vec<i64> = (0..300).collect();
        for i in 0..keys.len() {
            let j = (i * 104729 + 7) % keys.len();
            keys.swap(i, j);
        }
        for (n, &k) in keys.iter().enumerate() {
            assert!(t.remove(&p, &kv(k)).unwrap(), "missing {k}");
            if n % 17 == 0 {
                t.validate(&p).unwrap();
            }
        }
        t.validate(&p).unwrap();
        assert!(t.is_empty());
        assert!(!t.remove(&p, &kv(0)).unwrap());
        // Structure collapsed back to a single leaf root.
        assert_eq!(t.height(), 0);
    }

    #[derive(Debug, Clone, Copy)]
    enum Op {
        Insert(i64),
        Remove(i64),
        LowerBound(i64),
    }

    impl Shrink for Op {}

    /// Up to 3 000 operations over 128 or 1 000 keys, on three page sizes,
    /// against an in-memory ordered map, validating as it goes.
    #[test]
    fn interleaved_insert_remove_storm() {
        check::run(
            "interleaved_insert_remove_storm",
            32,
            |rng| {
                let span = if rng.gen_bool(0.5) { 64 } else { 500i64 };
                let ops: Vec<Op> = (0..rng.gen_range(1..=3000usize))
                    .map(|_| {
                        let k = rng.gen_range(-span..span);
                        match rng.gen_range(0..3u8) {
                            0 => Op::Insert(k),
                            1 => Op::Remove(k),
                            _ => Op::LowerBound(k),
                        }
                    })
                    .collect();
                (ops, [80usize, 128, 512][rng.gen_range(0..3usize)])
            },
            |(ops, page)| {
                let p = pager(*page);
                let mut t = BPlusTree::create(&p, KeyOrder).unwrap();
                let mut model = std::collections::BTreeMap::new();
                for (step, op) in ops.iter().enumerate() {
                    match *op {
                        Op::Insert(k) => {
                            let fresh = model.insert(k, kv(k).value).is_none();
                            assert_eq!(t.insert(&p, kv(k)).unwrap(), fresh, "insert {k}");
                        }
                        Op::Remove(k) => {
                            let held = model.remove(&k).is_some();
                            assert_eq!(t.remove(&p, &kv(k)).unwrap(), held, "remove {k}");
                        }
                        Op::LowerBound(k) => {
                            let got = t.lower_bound(&p, &probe(k)).unwrap().next(&p).unwrap();
                            let want = model.range(k..).next().map(|(&k2, _)| k2);
                            assert_eq!(got.map(|r| r.key), want, "lower_bound {k}");
                        }
                    }
                    if step % 500 == 0 {
                        t.validate(&p).unwrap();
                    }
                }
                t.validate(&p).unwrap();
                let got: Vec<(i64, u64)> = t
                    .scan_all(&p)
                    .unwrap()
                    .iter()
                    .map(|r| (r.key, r.value))
                    .collect();
                assert_eq!(got, model.into_iter().collect::<Vec<_>>());
            },
        );
    }

    /// Sorted, deduplicated keys in `-span..span`, 1 to `max - 1` of them.
    fn sorted_keys(rng: &mut SmallRng, span: i64, max: usize) -> Vec<i64> {
        let mut keys: Vec<i64> = (0..rng.gen_range(1..max))
            .map(|_| rng.gen_range(-span..span))
            .collect();
        keys.sort_unstable();
        keys.dedup();
        keys
    }

    /// Up to 300 distinct keys inserted in any order, on 96- or 128-byte
    /// pages, build what a bulk load of them builds.
    #[test]
    fn insert_incremental_matches_bulk() {
        check::run(
            "insert_incremental_matches_bulk",
            64,
            |rng| {
                let mut keys = sorted_keys(rng, 1000, 301);
                for i in (1..keys.len()).rev() {
                    keys.swap(i, rng.gen_range(0..=i));
                }
                (keys, if rng.gen_bool(0.5) { 96usize } else { 128 })
            },
            |(keys, page)| {
                let p = pager(*page);
                let mut recs: Vec<KeyValue> = keys.iter().map(|&k| kv(k)).collect();
                let mut inc = BPlusTree::create(&p, KeyOrder).unwrap();
                for r in &recs {
                    assert!(inc.insert(&p, *r).unwrap(), "fresh key {r:?}");
                }
                inc.validate(&p).unwrap();
                recs.sort_unstable_by_key(|r| r.key);
                let bulk = BPlusTree::bulk_load(&p, KeyOrder, &recs).unwrap();
                bulk.validate(&p).unwrap();
                assert_eq!(inc.scan_all(&p).unwrap(), bulk.scan_all(&p).unwrap());
                assert!(!inc.insert(&p, recs[0]).unwrap(), "a duplicate is rejected");
                assert_eq!(
                    (inc.len(), bulk.len()),
                    (recs.len() as u64, recs.len() as u64)
                );
            },
        );
    }

    /// The leaf a bulk load reports for a probe, found in memory, is the
    /// leaf a descent of the loaded tree lands on — for up to 2 000 keys,
    /// pages from one-level to four-level trees, and probes before, among,
    /// on and after the keys (the empty list included).
    #[test]
    fn landing_matches_leaf_page_of() {
        check::run(
            "landing_matches_leaf_page_of",
            64,
            |rng| {
                let mut keys = sorted_keys(rng, 3000, 2001);
                if rng.gen_bool(0.1) {
                    keys.clear();
                }
                let page = [96usize, 128, 256, 4096][rng.gen_range(0..4usize)];
                let probes: Vec<i64> = (0..40).map(|_| rng.gen_range(-3010..3010i64)).collect();
                (keys, page, probes)
            },
            |(keys, page, probes)| {
                let p = pager(*page);
                let recs: Vec<KeyValue> = keys.iter().map(|&k| kv(k)).collect();
                let (tree, leaves) = BPlusTree::bulk_load_leaves(&p, KeyOrder, &recs).unwrap();
                let on_keys = keys.iter().step_by(7).copied();
                for k in probes.iter().copied().chain(on_keys) {
                    assert_eq!(
                        leaves.landing(&recs, &probe(k)),
                        tree.leaf_page_of(&p, &probe(k)).unwrap(),
                        "probe {k} over {} keys on {page}-byte pages",
                        recs.len()
                    );
                }
            },
        );
    }

    /// A comparator ordering records by key descending is respected
    /// everywhere.
    #[test]
    fn custom_comparator_respected() {
        struct Desc;
        impl RecordOrd<KeyValue> for Desc {
            fn cmp_records(&self, a: &KeyValue, b: &KeyValue) -> Ordering {
                (b.key, b.value).cmp(&(a.key, a.value))
            }
        }
        check::run(
            "custom_comparator_respected",
            64,
            |rng| sorted_keys(rng, 500, 120),
            |keys| {
                let p = pager(96);
                // Descending is sorted under `Desc`.
                let recs: Vec<KeyValue> = keys.iter().rev().map(|&k| kv(k)).collect();
                let t = BPlusTree::bulk_load(&p, Desc, &recs).unwrap();
                t.validate(&p).unwrap();
                assert_eq!(t.scan_all(&p).unwrap(), recs);
            },
        );
    }

    #[test]
    fn destroy_frees_every_page() {
        let p = pager(128);
        let recs: Vec<KeyValue> = (0..500).map(kv).collect();
        let before = p.live_pages();
        let t = BPlusTree::bulk_load(&p, KeyOrder, &recs).unwrap();
        assert!(p.live_pages() > before);
        t.destroy(&p).unwrap();
        assert_eq!(p.live_pages(), before);
    }

    #[test]
    fn empty_tree_behaviour() {
        let p = pager(128);
        let t = BPlusTree::<KeyValue, _>::create(&p, KeyOrder).unwrap();
        t.validate(&p).unwrap();
        assert!(t.is_empty());
        let mut c = t.lower_bound(&p, &probe(0)).unwrap();
        assert!(c.next(&p).unwrap().is_none());
        assert!(t.scan_all(&p).unwrap().is_empty());
    }

    #[test]
    fn too_small_page_rejected() {
        let p = pager(24);
        assert!(BPlusTree::<KeyValue, _>::create(&p, KeyOrder).is_err());
    }

    #[test]
    fn search_io_is_logarithmic() {
        let p = pager(128); // leaf cap 7, int cap 4 → fanout 5
        let recs: Vec<KeyValue> = (0..5000).map(kv).collect();
        let t = BPlusTree::bulk_load(&p, KeyOrder, &recs).unwrap();
        p.reset_stats();
        let _ = t.lower_bound(&p, &probe(2500)).unwrap();
        let reads = p.stats().reads;
        // height+1 pages, height ≈ log_5(5000/7) ≈ 4
        assert!(reads <= (t.height() + 2) as u64, "reads={reads}");
        assert!(reads >= 2);
    }

    #[test]
    fn rank_matches_brute_force_and_skips_leaves() {
        let p = pager(128);
        let recs: Vec<KeyValue> = (0..2000).map(|i| kv(i * 2)).collect(); // evens
        let t = BPlusTree::bulk_load(&p, KeyOrder, &recs).unwrap();
        t.validate(&p).unwrap(); // checks stored subtree counts too
        for k in [-3i64, 0, 1, 777, 1998, 3998, 9999] {
            let expect = recs.iter().filter(|r| r.key < k).count() as u64;
            assert_eq!(t.rank(&p, &probe(k)).unwrap(), expect, "rank({k})");
        }
        // A rank descent reads one page per level — no leaf-range scan.
        p.reset_stats();
        let _ = t.rank(&p, &probe(1999)).unwrap();
        assert!(p.stats().reads <= (t.height() + 1) as u64);
    }

    #[test]
    fn count_range_and_count_from() {
        let p = pager(128);
        let recs: Vec<KeyValue> = (0..1000).map(kv).collect();
        let t = BPlusTree::bulk_load(&p, KeyOrder, &recs).unwrap();
        assert_eq!(t.count_range(&p, &probe(100), &probe(350)).unwrap(), 250);
        assert_eq!(t.count_range(&p, &probe(350), &probe(100)).unwrap(), 0);
        assert_eq!(t.len() - t.rank(&p, &probe(990)).unwrap(), 10);
        // Count answered without touching the range's leaves: far fewer
        // reads than the 250-record cursor walk would pay.
        p.reset_stats();
        let _ = t.count_range(&p, &probe(100), &probe(350)).unwrap();
        let count_reads = p.stats().reads;
        assert!(
            count_reads <= 2 * (t.height() + 1) as u64,
            "count_reads={count_reads}"
        );
    }

    #[test]
    fn counts_stay_exact_under_inserts() {
        let p = pager(128);
        let recs: Vec<KeyValue> = (0..400).map(|i| kv(i * 3)).collect();
        let mut t = BPlusTree::bulk_load(&p, KeyOrder, &recs).unwrap();
        // Interleave inserts (including ones forcing leaf + internal
        // splits); validate() verifies every stored count afterwards.
        for i in 0..400 {
            assert!(t.insert(&p, kv(i * 3 + 1)).unwrap());
            if i % 97 == 0 {
                t.validate(&p).unwrap();
            }
        }
        t.validate(&p).unwrap();
        assert_eq!(t.rank(&p, &probe(i64::MAX)).unwrap(), 800);
    }

    #[test]
    fn counts_survive_removals_correctly() {
        let p = pager(128);
        let recs: Vec<KeyValue> = (0..600).map(kv).collect();
        let mut t = BPlusTree::bulk_load(&p, KeyOrder, &recs).unwrap();
        // Removals may degrade rebalanced ancestors to count-free nodes;
        // rank must stay exact either way (validate checks both).
        for k in 0..300 {
            assert!(t.remove(&p, &kv(k * 2)).unwrap());
            if k % 59 == 0 {
                t.validate(&p).unwrap();
            }
        }
        t.validate(&p).unwrap();
        assert_eq!(t.len(), 300);
        assert_eq!(t.rank(&p, &probe(300)).unwrap(), 150);
        assert_eq!(t.len() - t.rank(&p, &probe(0)).unwrap(), 300);
    }
}
