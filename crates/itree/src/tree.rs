//! The external interval tree: build, stab, insert, remove, validate.

use crate::interval::{Interval, LeftOrder, MslabOrder, RightOrder, TaggedInterval};
use crate::node::{
    leaf_capacity, max_fanout, mslab_count, mslab_index, InternalNode, ItNode, ItNodeView,
};
use segdb_bptree::BPlusTree;
use segdb_pager::codec::{u32_at, u64_at};
use segdb_pager::{ByteWriter, PageId, Pager, PagerError, Result};
use std::cmp::Ordering;
use std::ops::ControlFlow;
use std::sync::Arc;

/// Construction knobs.
#[derive(Debug, Clone, Copy, Default)]
pub struct IntervalTreeConfig {
    /// Boundary count per internal node; `None` = the page-size maximum.
    pub fanout: Option<usize>,
}

/// Serializable identity of an interval tree (stored by parent
/// structures; 12 bytes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ItState {
    /// Root page.
    pub root: PageId,
    /// Stored interval count.
    pub len: u64,
}

impl ItState {
    /// Encoded size in bytes.
    pub const ENCODED_SIZE: usize = 12;

    /// Serialize.
    pub fn encode(&self, w: &mut ByteWriter<'_>) -> Result<()> {
        w.u32(self.root)?;
        w.u64(self.len)
    }

    /// Read from the head of a length-checked record image (a parent's
    /// node view).
    pub fn read(b: &[u8]) -> Self {
        ItState {
            root: u32_at(b, 0),
            len: u64_at(b, 4),
        }
    }
}

/// External interval tree over closed 1-D intervals. See crate docs.
///
/// ```
/// use segdb_pager::{Pager, PagerConfig};
/// use segdb_itree::{Interval, IntervalTree, IntervalTreeConfig};
///
/// let pager = Pager::new(PagerConfig::default());
/// let tree = IntervalTree::build(&pager, IntervalTreeConfig::default(), vec![
///     Interval::new(1, 0, 10),
///     Interval::new(2, 5, 7),
///     Interval::new(3, 20, 30),
/// ]).unwrap();
/// let mut ids: Vec<u64> = tree.stab(&pager, 6).unwrap().iter().map(|iv| iv.id).collect();
/// ids.sort();
/// assert_eq!(ids, vec![1, 2]);
/// ```
#[derive(Debug)]
pub struct IntervalTree {
    root: PageId,
    len: u64,
    leaf_cap: usize,
    fanout: usize,
}

impl IntervalTree {
    /// Build from an arbitrary interval collection.
    pub fn build(pager: &Pager, cfg: IntervalTreeConfig, intervals: Vec<Interval>) -> Result<Self> {
        let leaf_cap = leaf_capacity(pager.page_size());
        let hard_max = max_fanout(pager.page_size());
        let fanout = cfg.fanout.map_or(hard_max, |f| f.min(hard_max)).max(2);
        if leaf_cap < 2 {
            return Err(PagerError::PageOverflow {
                what: "interval tree leaf",
                requested: 2,
                capacity: leaf_cap,
            });
        }
        let len = intervals.len() as u64;
        let root = build_node(pager, leaf_cap, fanout, intervals)?;
        Ok(IntervalTree {
            root,
            len,
            leaf_cap,
            fanout,
        })
    }

    /// Reconstruct from a serialized [`ItState`].
    pub fn attach(pager: &Pager, cfg: IntervalTreeConfig, state: ItState) -> Result<Self> {
        let leaf_cap = leaf_capacity(pager.page_size());
        let hard_max = max_fanout(pager.page_size());
        let fanout = cfg.fanout.map_or(hard_max, |f| f.min(hard_max)).max(2);
        Ok(IntervalTree {
            root: state.root,
            len: state.len,
            leaf_cap,
            fanout,
        })
    }

    /// The serializable identity.
    pub fn state(&self) -> ItState {
        ItState {
            root: self.root,
            len: self.len,
        }
    }

    /// Stored interval count.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Stream every interval containing `x` (closed) into `f`. When `f`
    /// breaks the walk stops immediately — no further list pages or
    /// child nodes are read.
    pub fn stab_ctl(
        &self,
        pager: &Pager,
        x: i64,
        f: &mut dyn FnMut(&Interval) -> ControlFlow<()>,
    ) -> Result<ControlFlow<()>> {
        let mut id = self.root;
        loop {
            let img = read_page(pager, id)?;
            match ItNodeView::new(&img)? {
                ItNodeView::Leaf(leaf) => {
                    for iv in leaf.intervals().filter(|iv| iv.contains(x)) {
                        if f(&iv).is_break() {
                            return Ok(ControlFlow::Break(()));
                        }
                    }
                    return Ok(ControlFlow::Continue(()));
                }
                ItNodeView::Internal(n) => {
                    let k = n.k();
                    let j = n.slab_of(x);
                    // Left stubs of slab j: prefix with lo ≤ x.
                    let left = BPlusTree::attach(pager, LeftOrder, n.left())?;
                    let probe_tag = j as u16;
                    let mut cur = left.lower_bound(pager, &move |r: &TaggedInterval| {
                        (probe_tag, i64::MIN, 0u64).cmp(&(r.tag, r.iv.lo, r.iv.id))
                    })?;
                    if cur
                        .for_each_while_ctl(
                            pager,
                            |r| r.tag == probe_tag && r.iv.lo <= x,
                            |r| f(&r.iv),
                        )?
                        .is_break()
                    {
                        return Ok(ControlFlow::Break(()));
                    }
                    // Right stubs of slab j: prefix with hi ≥ x.
                    let right = BPlusTree::attach(pager, RightOrder, n.right())?;
                    let mut cur = right.lower_bound(pager, &move |r: &TaggedInterval| {
                        (probe_tag, std::cmp::Reverse(i64::MAX), 0u64).cmp(&(
                            r.tag,
                            std::cmp::Reverse(r.iv.hi),
                            r.iv.id,
                        ))
                    })?;
                    if cur
                        .for_each_while_ctl(
                            pager,
                            |r| r.tag == probe_tag && r.iv.hi >= x,
                            |r| f(&r.iv),
                        )?
                        .is_break()
                    {
                        return Ok(ControlFlow::Break(()));
                    }
                    // Multislab lists spanning slab j: report entirely.
                    if k >= 2 && j >= 1 && j < k {
                        let mslab = BPlusTree::attach(pager, MslabOrder, n.mslab())?;
                        for a in 1..=j {
                            for b in j..=k - 1 {
                                if n.mslab_count(a, b) == 0 {
                                    continue;
                                }
                                let tag = mslab_index(k, a, b) as u16;
                                let mut cur = mslab
                                    .lower_bound(pager, &move |r: &TaggedInterval| {
                                        (tag, 0u64).cmp(&(r.tag, r.iv.id))
                                    })?;
                                if cur
                                    .for_each_while_ctl(pager, |r| r.tag == tag, |r| f(&r.iv))?
                                    .is_break()
                                {
                                    return Ok(ControlFlow::Break(()));
                                }
                            }
                        }
                    }
                    // Descend unless x hits a boundary exactly (children
                    // hold only open-slab intervals then).
                    if j < k && n.boundary(j) == x {
                        return Ok(ControlFlow::Continue(()));
                    }
                    id = n.child(j);
                }
            }
        }
    }

    /// Number of intervals containing `x`, answered from the stub-list
    /// B⁺-tree ranks and the multislab count directory — none of the
    /// matching lists' own pages are read. A saturated multislab count
    /// (`u16::MAX`) is inexact, so that one list is counted by B⁺-tree
    /// rank instead.
    pub fn stab_count(&self, pager: &Pager, x: i64) -> Result<u64> {
        let mut total = 0u64;
        let mut id = self.root;
        loop {
            let img = read_page(pager, id)?;
            match ItNodeView::new(&img)? {
                ItNodeView::Leaf(leaf) => {
                    total += leaf.intervals().filter(|iv| iv.contains(x)).count() as u64;
                    return Ok(total);
                }
                ItNodeView::Internal(n) => {
                    let k = n.k();
                    let j = n.slab_of(x);
                    let probe_tag = j as u16;
                    // Left stubs of slab j with lo ≤ x.
                    let left = BPlusTree::attach(pager, LeftOrder, n.left())?;
                    total += left.count_range(
                        pager,
                        &move |r: &TaggedInterval| {
                            (probe_tag, i64::MIN, 0u64).cmp(&(r.tag, r.iv.lo, r.iv.id))
                        },
                        &move |r: &TaggedInterval| {
                            (probe_tag, x, u64::MAX).cmp(&(r.tag, r.iv.lo, r.iv.id))
                        },
                    )?;
                    // Right stubs of slab j with hi ≥ x.
                    let right = BPlusTree::attach(pager, RightOrder, n.right())?;
                    total += right.count_range(
                        pager,
                        &move |r: &TaggedInterval| {
                            (probe_tag, std::cmp::Reverse(i64::MAX), 0u64).cmp(&(
                                r.tag,
                                std::cmp::Reverse(r.iv.hi),
                                r.iv.id,
                            ))
                        },
                        &move |r: &TaggedInterval| {
                            (probe_tag, std::cmp::Reverse(x), u64::MAX).cmp(&(
                                r.tag,
                                std::cmp::Reverse(r.iv.hi),
                                r.iv.id,
                            ))
                        },
                    )?;
                    // Multislab lists spanning slab j: directory counts,
                    // except saturated entries which need an exact rank.
                    if k >= 2 && j >= 1 && j < k {
                        let mslab = BPlusTree::attach(pager, MslabOrder, n.mslab())?;
                        for a in 1..=j {
                            for b in j..=k - 1 {
                                let c = n.mslab_count(a, b);
                                if c == 0 {
                                    continue;
                                }
                                if c != u16::MAX {
                                    total += c as u64;
                                } else {
                                    let tag = mslab_index(k, a, b) as u16;
                                    total += mslab.count_range(
                                        pager,
                                        &move |r: &TaggedInterval| {
                                            (tag, 0u64).cmp(&(r.tag, r.iv.id))
                                        },
                                        &move |r: &TaggedInterval| {
                                            (tag, u64::MAX).cmp(&(r.tag, r.iv.id))
                                        },
                                    )?;
                                }
                            }
                        }
                    }
                    if j < k && n.boundary(j) == x {
                        return Ok(total);
                    }
                    id = n.child(j);
                }
            }
        }
    }

    /// Every interval containing `x` (closed).
    pub fn stab(&self, pager: &Pager, x: i64) -> Result<Vec<Interval>> {
        let mut out = Vec::new();
        let _ = self.stab_ctl(pager, x, &mut |iv| {
            out.push(*iv);
            ControlFlow::Continue(())
        })?;
        Ok(out)
    }

    /// Insert an interval. `O(log_B n)` expected.
    pub fn insert(&mut self, pager: &Pager, iv: Interval) -> Result<()> {
        self.len += 1;
        let mut id = self.root;
        loop {
            match read_node(pager, id)? {
                ItNode::Leaf { mut intervals } => {
                    intervals.push(iv);
                    if intervals.len() <= self.leaf_cap {
                        write_node(pager, id, &ItNode::Leaf { intervals })?;
                    } else {
                        // Rebuild this leaf as a subtree, in place so the
                        // parent's child pointer stays valid.
                        build_node_at(pager, self.leaf_cap, self.fanout, intervals, id)?;
                    }
                    return Ok(());
                }
                ItNode::Internal(mut n) => match locate(&n.boundaries, &iv) {
                    Placement::Node {
                        left_slab,
                        right_slab,
                        mslab,
                    } => {
                        let k = n.boundaries.len();
                        let mut lt = BPlusTree::attach(pager, LeftOrder, n.left)?;
                        lt.insert(
                            pager,
                            TaggedInterval {
                                tag: left_slab as u16,
                                iv,
                            },
                        )?;
                        n.left = lt.state();
                        let mut rt = BPlusTree::attach(pager, RightOrder, n.right)?;
                        rt.insert(
                            pager,
                            TaggedInterval {
                                tag: right_slab as u16,
                                iv,
                            },
                        )?;
                        n.right = rt.state();
                        if let Some((a, b)) = mslab {
                            let mi = mslab_index(k, a, b);
                            let mut mt = BPlusTree::attach(pager, MslabOrder, n.mslab)?;
                            mt.insert(pager, TaggedInterval { tag: mi as u16, iv })?;
                            n.mslab = mt.state();
                            n.mslab_counts[mi] = n.mslab_counts[mi].saturating_add(1);
                        }
                        write_node(pager, id, &ItNode::Internal(n))?;
                        return Ok(());
                    }
                    Placement::Child(slab) => id = n.children[slab],
                },
            }
        }
    }

    /// Remove an exact interval (`lo`, `hi`, `id` all match). Returns
    /// whether it was found.
    pub fn remove(&mut self, pager: &Pager, iv: &Interval) -> Result<bool> {
        let mut id = self.root;
        loop {
            match read_node(pager, id)? {
                ItNode::Leaf { mut intervals } => {
                    let before = intervals.len();
                    intervals.retain(|x| x != iv);
                    let found = intervals.len() < before;
                    if found {
                        self.len -= 1;
                        write_node(pager, id, &ItNode::Leaf { intervals })?;
                    }
                    return Ok(found);
                }
                ItNode::Internal(mut n) => match locate(&n.boundaries, iv) {
                    Placement::Node {
                        left_slab,
                        right_slab,
                        mslab,
                    } => {
                        let k = n.boundaries.len();
                        let mut lt = BPlusTree::attach(pager, LeftOrder, n.left)?;
                        let found = lt.remove(
                            pager,
                            &TaggedInterval {
                                tag: left_slab as u16,
                                iv: *iv,
                            },
                        )?;
                        n.left = lt.state();
                        if !found {
                            return Ok(false);
                        }
                        let mut rt = BPlusTree::attach(pager, RightOrder, n.right)?;
                        rt.remove(
                            pager,
                            &TaggedInterval {
                                tag: right_slab as u16,
                                iv: *iv,
                            },
                        )?;
                        n.right = rt.state();
                        if let Some((a, b)) = mslab {
                            let mi = mslab_index(k, a, b);
                            let mut mt = BPlusTree::attach(pager, MslabOrder, n.mslab)?;
                            mt.remove(
                                pager,
                                &TaggedInterval {
                                    tag: mi as u16,
                                    iv: *iv,
                                },
                            )?;
                            n.mslab = mt.state();
                            // Saturated counts stay pinned (see lib docs).
                            if n.mslab_counts[mi] != u16::MAX || mt.is_empty() {
                                n.mslab_counts[mi] = n.mslab_counts[mi].saturating_sub(1);
                            }
                        }
                        self.len -= 1;
                        write_node(pager, id, &ItNode::Internal(n))?;
                        return Ok(true);
                    }
                    Placement::Child(slab) => id = n.children[slab],
                },
            }
        }
    }

    /// Collect every stored interval (test/rebuild helper).
    pub fn scan_all(&self, pager: &Pager) -> Result<Vec<Interval>> {
        let mut out = Vec::with_capacity(self.len as usize);
        collect(pager, self.root, &mut out)?;
        Ok(out)
    }

    /// Free every page of the structure.
    pub fn destroy(self, pager: &Pager) -> Result<()> {
        destroy_node(pager, self.root)
    }

    /// Deep structural validation.
    pub fn validate(&self, pager: &Pager) -> Result<()> {
        let mut count = 0u64;
        validate_node(pager, self.root, self.leaf_cap, None, None, &mut count)?;
        if count != self.len {
            return Err(PagerError::Corrupt("interval tree len mismatch"));
        }
        Ok(())
    }
}

/// Where an interval lands relative to a node's boundaries.
enum Placement {
    Node {
        left_slab: usize,
        right_slab: usize,
        mslab: Option<(usize, usize)>,
    },
    Child(usize),
}

fn locate(boundaries: &[i64], iv: &Interval) -> Placement {
    let k = boundaries.len();
    let f = boundaries.partition_point(|&s| s < iv.lo);
    if f < k && boundaries[f] <= iv.hi {
        let l = boundaries.partition_point(|&s| s <= iv.hi) - 1;
        Placement::Node {
            left_slab: f,
            right_slab: l + 1,
            mslab: if l > f { Some((f + 1, l)) } else { None },
        }
    } else {
        Placement::Child(f)
    }
}

/// One node visit of a stab: the page image, to be read in place
/// through an [`ItNodeView`].
fn read_page(pager: &Pager, id: PageId) -> Result<Arc<[u8]>> {
    segdb_obs::trace::emit(
        segdb_obs::trace::EventKind::ItreeNodeVisit,
        u64::from(id),
        0,
    );
    pager.page(id)
}

/// One node visit of the write path (and of `validate`): an owned node
/// to edit and write back.
fn read_node(pager: &Pager, id: PageId) -> Result<ItNode> {
    ItNode::decode(&read_page(pager, id)?)
}

fn write_node(pager: &Pager, id: PageId, node: &ItNode) -> Result<()> {
    pager.overwrite_page(id, |buf| node.encode(buf))?
}

fn build_node(
    pager: &Pager,
    leaf_cap: usize,
    fanout: usize,
    intervals: Vec<Interval>,
) -> Result<PageId> {
    let id = pager.allocate()?;
    build_node_at(pager, leaf_cap, fanout, intervals, id)?;
    Ok(id)
}

fn build_node_at(
    pager: &Pager,
    leaf_cap: usize,
    fanout: usize,
    intervals: Vec<Interval>,
    id: PageId,
) -> Result<()> {
    if intervals.len() <= leaf_cap {
        return write_node(pager, id, &ItNode::Leaf { intervals });
    }
    // Choose ≤ fanout boundaries as endpoint quantiles.
    let mut endpoints: Vec<i64> = intervals.iter().flat_map(|iv| [iv.lo, iv.hi]).collect();
    endpoints.sort_unstable();
    let want = fanout.min(endpoints.len());
    let mut boundaries: Vec<i64> = (1..=want)
        .map(|i| endpoints[(i * endpoints.len() / (want + 1)).min(endpoints.len() - 1)])
        .collect();
    boundaries.dedup();
    let k = boundaries.len();

    // Partition: (left slab, right slab, multislab, interval).
    let mut here: Vec<Filed> = Vec::new();
    let mut kids: Vec<Vec<Interval>> = vec![Vec::new(); k + 1];
    for iv in intervals {
        match locate(&boundaries, &iv) {
            Placement::Node {
                left_slab,
                right_slab,
                mslab,
            } => here.push((left_slab, right_slab, mslab, iv)),
            Placement::Child(slab) => kids[slab].push(iv),
        }
    }

    // Sorted bulk loads for the three list trees.
    let mut left_recs: Vec<TaggedInterval> = here
        .iter()
        .map(|&(ls, _, _, iv)| TaggedInterval { tag: ls as u16, iv })
        .collect();
    left_recs.sort_by(|a, b| LeftOrder.cmp_records_pub(a, b));
    let mut right_recs: Vec<TaggedInterval> = here
        .iter()
        .map(|&(_, rs, _, iv)| TaggedInterval { tag: rs as u16, iv })
        .collect();
    right_recs.sort_by(|a, b| RightOrder.cmp_records_pub(a, b));
    let mut mslab_counts = vec![0u16; mslab_count(k)];
    let mut mslab_recs: Vec<TaggedInterval> = here
        .iter()
        .filter_map(|&(_, _, ms, iv)| {
            ms.map(|(a, b)| {
                let mi = mslab_index(k, a, b);
                mslab_counts[mi] = mslab_counts[mi].saturating_add(1);
                TaggedInterval { tag: mi as u16, iv }
            })
        })
        .collect();
    mslab_recs.sort_by(|a, b| MslabOrder.cmp_records_pub(a, b));

    let left = BPlusTree::bulk_load(pager, LeftOrder, &left_recs)?.state();
    let right = BPlusTree::bulk_load(pager, RightOrder, &right_recs)?.state();
    let mslab = BPlusTree::bulk_load(pager, MslabOrder, &mslab_recs)?.state();

    let mut children = Vec::with_capacity(k + 1);
    for kid in kids {
        children.push(build_node(pager, leaf_cap, fanout, kid)?);
    }
    write_node(
        pager,
        id,
        &ItNode::Internal(Box::new(InternalNode {
            boundaries,
            children,
            left,
            right,
            mslab,
            mslab_counts,
        })),
    )
}

/// One interval filed at a node: left stub slab, right stub slab, the
/// optional multislab of its middle part, and the interval itself.
type Filed = (usize, usize, Option<(usize, usize)>, Interval);

fn collect(pager: &Pager, id: PageId, out: &mut Vec<Interval>) -> Result<()> {
    match read_node(pager, id)? {
        ItNode::Leaf { intervals } => out.extend(intervals),
        ItNode::Internal(n) => {
            let left = BPlusTree::attach(pager, LeftOrder, n.left)?;
            out.extend(left.scan_all(pager)?.into_iter().map(|t| t.iv));
            for &c in &n.children {
                collect(pager, c, out)?;
            }
        }
    }
    Ok(())
}

fn destroy_node(pager: &Pager, id: PageId) -> Result<()> {
    match read_node(pager, id)? {
        ItNode::Leaf { .. } => {}
        ItNode::Internal(n) => {
            BPlusTree::<TaggedInterval, _>::attach(pager, LeftOrder, n.left)?.destroy(pager)?;
            BPlusTree::<TaggedInterval, _>::attach(pager, RightOrder, n.right)?.destroy(pager)?;
            BPlusTree::<TaggedInterval, _>::attach(pager, MslabOrder, n.mslab)?.destroy(pager)?;
            for &c in &n.children {
                destroy_node(pager, c)?;
            }
        }
    }
    pager.free(id)
}

fn validate_node(
    pager: &Pager,
    id: PageId,
    leaf_cap: usize,
    lo: Option<i64>,
    hi: Option<i64>,
    count: &mut u64,
) -> Result<()> {
    let in_open_range =
        |iv: &Interval| lo.is_none_or(|lo| iv.lo > lo) && hi.is_none_or(|hi| iv.hi < hi);
    match read_node(pager, id)? {
        ItNode::Leaf { intervals } => {
            if intervals.len() > leaf_cap {
                return Err(PagerError::Corrupt("interval leaf overfull"));
            }
            if !intervals.iter().all(in_open_range) {
                return Err(PagerError::Corrupt("leaf interval escapes slab"));
            }
            *count += intervals.len() as u64;
        }
        ItNode::Internal(n) => {
            let k = n.boundaries.len();
            if k == 0 {
                return Err(PagerError::Corrupt("internal node without boundaries"));
            }
            if !n.boundaries.windows(2).all(|w| w[0] < w[1]) {
                return Err(PagerError::Corrupt("boundaries not increasing"));
            }
            let left = BPlusTree::attach(pager, LeftOrder, n.left)?;
            left.validate(pager)?;
            let right = BPlusTree::attach(pager, RightOrder, n.right)?;
            right.validate(pager)?;
            let mslab = BPlusTree::attach(pager, MslabOrder, n.mslab)?;
            mslab.validate(pager)?;
            if left.len() != right.len() {
                return Err(PagerError::Corrupt("stub list length mismatch"));
            }
            let mut mcounts = vec![0u64; mslab_count(k)];
            for rec in mslab.scan_all(pager)? {
                mcounts[rec.tag as usize] += 1;
            }
            for (mi, &c) in n.mslab_counts.iter().enumerate() {
                let actual = mcounts[mi];
                let consistent = if c == u16::MAX {
                    actual >= 1
                } else {
                    actual == c as u64
                };
                if !consistent {
                    return Err(PagerError::Corrupt("mslab directory count wrong"));
                }
            }
            // Every filed interval must really cross a boundary and lie
            // within this node's open range.
            for rec in left.scan_all(pager)? {
                match locate(&n.boundaries, &rec.iv) {
                    Placement::Node { left_slab, .. } if left_slab == rec.tag as usize => {}
                    _ => return Err(PagerError::Corrupt("left stub misfiled")),
                }
                if !in_open_range(&rec.iv) {
                    return Err(PagerError::Corrupt("node interval escapes slab"));
                }
            }
            *count += left.len();
            for (i, &c) in n.children.iter().enumerate() {
                let lo2 = if i == 0 {
                    lo
                } else {
                    Some(n.boundaries[i - 1])
                };
                let hi2 = if i == k { hi } else { Some(n.boundaries[i]) };
                validate_node(pager, c, leaf_cap, lo2, hi2, count)?;
            }
        }
    }
    Ok(())
}

// -- small helper so sort closures can use the comparators -------------

trait CmpPub<R> {
    fn cmp_records_pub(&self, a: &R, b: &R) -> Ordering;
}

impl<R, T: segdb_bptree::RecordOrd<R>> CmpPub<R> for T {
    fn cmp_records_pub(&self, a: &R, b: &R) -> Ordering {
        self.cmp_records(a, b)
    }
}
