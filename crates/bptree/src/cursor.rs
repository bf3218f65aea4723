//! Leaf-linked forward cursor.
//!
//! A cursor holds the current leaf's page image (the leaf was already
//! paid for by the positioning read) and follows `next` links, costing
//! exactly one read per additional leaf — the `O(t)` reporting term of
//! every query bound in the paper. Records are read from the image one
//! at a time, as the cursor reaches them.

use crate::node::{leaf_record, partition_point, NodeView};
use crate::record::{Probe, Record};
use segdb_pager::{PageId, Pager, PagerError, Result, NULL_PAGE};
use std::cmp::Ordering;
use std::ops::ControlFlow;
use std::sync::Arc;

/// Forward cursor over the leaf level. Obtain via
/// [`crate::BPlusTree::lower_bound`] / [`crate::BPlusTree::cursor_first`],
/// or jump straight to a known leaf with [`Cursor::jump`] (fractional
/// cascading).
#[derive(Debug)]
pub struct Cursor<R> {
    /// Image of the current leaf, viewed once when the cursor entered it.
    leaf: Arc<[u8]>,
    count: usize,
    idx: usize,
    next: PageId,
    /// The record under the cursor, read when the cursor moved onto it.
    cur: Option<R>,
}

/// Read `page` as a leaf: its image, record count and forward link.
/// `internal` is the error for landing on an internal node instead.
fn open_leaf<R: Record>(
    pager: &Pager,
    page: PageId,
    internal: &'static str,
) -> Result<(Arc<[u8]>, usize, PageId)> {
    segdb_obs::trace::emit(
        segdb_obs::trace::EventKind::BptreeNodeVisit,
        u64::from(page),
        0,
    );
    let img = pager.page(page)?;
    match NodeView::<R>::new(&img)? {
        NodeView::Leaf(leaf) => {
            let (count, next) = (leaf.len(), leaf.next());
            Ok((img, count, next))
        }
        NodeView::Internal(_) => Err(PagerError::Corrupt(internal)),
    }
}

impl<R: Record> Cursor<R> {
    /// Cursor at record `idx` of an already-viewed leaf image (`count`
    /// records, forward link `next`), hopping to the next leaf if `idx`
    /// is past the last record so `peek` is the true position.
    pub(crate) fn at(
        pager: &Pager,
        leaf: Arc<[u8]>,
        count: usize,
        next: PageId,
        idx: usize,
    ) -> Result<Self> {
        let mut c = Cursor {
            leaf,
            count,
            idx,
            next,
            cur: None,
        };
        c.normalize(pager)?;
        Ok(c)
    }

    /// Jump to the head of a known leaf page (one read). This is the §4.3
    /// bridge-navigation entry: no root descent.
    pub fn jump(pager: &Pager, leaf: PageId) -> Result<Self> {
        let (img, count, next) = open_leaf::<R>(pager, leaf, "cursor jump hit internal node")?;
        Cursor::at(pager, img, count, next, 0)
    }

    /// Move forward to the first record `r` with `probe ≤ r`, without a
    /// root descent: a leaf whose last record sorts before `probe` is
    /// left on that one comparison (one read per step), and only the
    /// leaf holding the position is binary-searched. Returns `false`,
    /// short of the position, rather than step more than `max_steps`
    /// leaves (§4.3's bridge landing passes the list's height).
    pub fn seek(&mut self, pager: &Pager, probe: &impl Probe<R>, max_steps: u32) -> Result<bool> {
        let before = |img: &[u8], i: usize| -> Result<bool> {
            Ok(probe.cmp_record(&leaf_record::<R>(img, i)?) == Ordering::Greater)
        };
        let mut steps = 0;
        while self.next != NULL_PAGE && (self.count == 0 || before(&self.leaf, self.count - 1)?) {
            if steps == max_steps {
                return Ok(false);
            }
            steps += 1;
            (self.leaf, self.count, self.next) =
                open_leaf::<R>(pager, self.next, "leaf chain points to internal node")?;
            self.idx = 0;
        }
        let from = self.idx.min(self.count);
        self.idx = from + partition_point(self.count - from, |i| before(&self.leaf, from + i))?;
        self.normalize(pager)?;
        Ok(true)
    }

    /// Read the record at `idx` of the current leaf, if there is one.
    fn load(&mut self) -> Result<()> {
        self.cur = if self.idx < self.count {
            Some(leaf_record(&self.leaf, self.idx)?)
        } else {
            None
        };
        Ok(())
    }

    /// Ensure the cursor either points at a record or is exhausted,
    /// hopping over empty tails.
    fn normalize(&mut self, pager: &Pager) -> Result<()> {
        while self.idx >= self.count && self.next != NULL_PAGE {
            (self.leaf, self.count, self.next) =
                open_leaf::<R>(pager, self.next, "leaf chain points to internal node")?;
            self.idx = 0;
        }
        self.load()
    }

    /// The record under the cursor, if any (no I/O).
    pub fn peek(&self) -> Option<&R> {
        self.cur.as_ref()
    }

    /// Look backwards from the cursor through the records of its current
    /// leaf, nearest first, for the first one `f` maps to `Some` (no
    /// I/O). Fractional cascading finds the nearest bridge before a run
    /// start this way.
    pub fn find_back<T>(&self, mut f: impl FnMut(&R) -> Option<T>) -> Result<Option<T>> {
        for i in (0..self.idx.min(self.count)).rev() {
            if let Some(found) = f(&leaf_record(&self.leaf, i)?) {
                return Ok(Some(found));
            }
        }
        Ok(None)
    }

    /// Yield the current record and advance. Costs one read exactly when
    /// the cursor crosses into the next leaf.
    pub fn next(&mut self, pager: &Pager) -> Result<Option<R>> {
        let Some(r) = self.cur else {
            return Ok(None);
        };
        self.idx += 1;
        self.normalize(pager)?;
        Ok(Some(r))
    }

    /// Visit records while `pred` holds, applying `f` to each; stops at
    /// the first record failing `pred` (which stays current). `f` steers
    /// the walk too: on `Break` the cursor stops immediately *without*
    /// prefetching the next leaf, so an early-exiting query never pays
    /// for pages past the record that satisfied it.
    pub fn for_each_while_ctl(
        &mut self,
        pager: &Pager,
        mut pred: impl FnMut(&R) -> bool,
        mut f: impl FnMut(&R) -> ControlFlow<()>,
    ) -> Result<ControlFlow<()>> {
        while let Some(r) = self.cur {
            if !pred(&r) {
                break;
            }
            self.idx += 1;
            if f(&r).is_break() {
                self.load()?;
                return Ok(ControlFlow::Break(()));
            }
            self.normalize(pager)?;
        }
        Ok(ControlFlow::Continue(()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{KeyOrder, KeyValue};
    use crate::tree::BPlusTree;
    use segdb_pager::PagerConfig;

    fn kv(k: i64) -> KeyValue {
        KeyValue {
            key: k,
            value: k as u64,
        }
    }

    /// Consume records while `pred` holds, collecting them into `out`.
    fn take_while_into(
        c: &mut Cursor<KeyValue>,
        p: &Pager,
        pred: impl FnMut(&KeyValue) -> bool,
        out: &mut Vec<KeyValue>,
    ) {
        let _ = c.for_each_while_ctl(p, pred, |r| {
            out.push(*r);
            ControlFlow::Continue(())
        });
    }

    #[test]
    fn take_while_and_peek() {
        let p = Pager::new(PagerConfig {
            page_size: 128,
            cache_pages: 0,
        });
        let recs: Vec<KeyValue> = (0..50).map(kv).collect();
        let t = BPlusTree::bulk_load(&p, KeyOrder, &recs).unwrap();
        let mut c = t.cursor_first(&p).unwrap();
        assert_eq!(c.peek().unwrap().key, 0);
        let mut out = Vec::new();
        take_while_into(&mut c, &p, |r| r.key < 20, &mut out);
        assert_eq!(out.len(), 20);
        assert_eq!(c.peek().unwrap().key, 20);
        // Continue to the end.
        let mut rest = Vec::new();
        take_while_into(&mut c, &p, |_| true, &mut rest);
        assert_eq!(rest.len(), 30);
        assert!(c.peek().is_none());
        assert!(c.next(&p).unwrap().is_none());
    }

    #[test]
    fn scan_io_is_one_read_per_leaf() {
        let p = Pager::new(PagerConfig {
            page_size: 128,
            cache_pages: 0,
        });
        let recs: Vec<KeyValue> = (0..70).map(kv).collect(); // 10 leaves at cap 7
        let t = BPlusTree::bulk_load(&p, KeyOrder, &recs).unwrap();
        let mut c = t.cursor_first(&p).unwrap();
        p.reset_stats();
        let mut n = 0;
        while c.next(&p).unwrap().is_some() {
            n += 1;
        }
        assert_eq!(n, 70);
        // First leaf was buffered during positioning; 9 more leaf reads.
        assert_eq!(p.stats().reads, 9);
    }

    /// From any leaf at or before the position, `seek` stops where
    /// `lower_bound` does, reading only the leaves it steps onto; with
    /// too small a budget it says so.
    #[test]
    fn seek_lands_where_lower_bound_does() {
        let p = Pager::new(PagerConfig {
            page_size: 128,
            cache_pages: 0,
        });
        let recs: Vec<KeyValue> = (0..70).map(|k| kv(2 * k)).collect(); // 10 leaves of 7
        let t = BPlusTree::bulk_load(&p, KeyOrder, &recs).unwrap();
        let probe = |k: i64| move |r: &KeyValue| k.cmp(&r.key);
        for k in -1..142 {
            let want = t.lower_bound(&p, &probe(k)).unwrap().peek().copied();
            let mut c = Cursor::<KeyValue>::jump(&p, first_leaf(&t, &p)).unwrap();
            p.reset_stats();
            assert!(c.seek(&p, &probe(k), 10).unwrap());
            assert_eq!(c.peek().copied(), want, "probe {k}");
            let leaf = (k.clamp(0, 139) as u64).div_ceil(2).min(69) / 7;
            assert_eq!(p.stats().reads, leaf, "probe {k}");
            let mut short = Cursor::<KeyValue>::jump(&p, first_leaf(&t, &p)).unwrap();
            assert_eq!(short.seek(&p, &probe(k), 1).unwrap(), k <= 26, "probe {k}");
        }
    }

    fn first_leaf(t: &BPlusTree<KeyValue, KeyOrder>, p: &Pager) -> PageId {
        t.leaf_page_of(p, &|r: &KeyValue| i64::MIN.cmp(&r.key))
            .unwrap()
    }

    #[test]
    fn jump_reads_leaf_directly() {
        let p = Pager::new(PagerConfig {
            page_size: 128,
            cache_pages: 0,
        });
        let recs: Vec<KeyValue> = (0..30).map(kv).collect();
        let t = BPlusTree::bulk_load(&p, KeyOrder, &recs).unwrap();
        // Find some leaf id via a cursor walk on the underlying pages:
        // jump to the root is invalid if the tree has internal nodes.
        if t.height() > 0 {
            assert!(Cursor::<KeyValue>::jump(&p, t.root_page()).is_err());
        }
    }
}
