//! Interval *overlap* queries over intervals that may nest: the
//! candidate set of the §5 extension (`segdb-core`'s `anyquery`), which
//! keeps the stored segments' x-projections.
//!
//! Report all stored intervals `[lo, hi]` overlapping the query range
//! `[qlo, qhi]`. Decomposition (disjoint, complete):
//!
//! 1. intervals containing `qlo` — a stabbing query on the interval tree;
//! 2. intervals with left endpoint in `(qlo, qhi]` — a range scan on a
//!    B⁺-tree over left endpoints.
//!
//! Both parts are output-sensitive, so the whole query costs
//! `O(log_B n + t)` I/Os. (The paper's `C(v)` holds disjoint intervals,
//! for which one B⁺-tree suffices: `segdb-core`'s `interval2l::cset`.)

use crate::interval::{Interval, StartOrder};
use crate::tree::{IntervalTree, IntervalTreeConfig, ItState};
use segdb_bptree::{BPlusTree, TreeState};
use segdb_pager::{ByteReader, ByteWriter, Pager, Result};
use std::ops::ControlFlow;

/// Serializable identity of an [`IntervalSet`] (28 bytes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntervalSetState {
    /// The stabbing tree.
    pub tree: ItState,
    /// The start index.
    pub starts: TreeState,
}

impl IntervalSetState {
    /// Encoded size in bytes.
    pub const ENCODED_SIZE: usize = ItState::ENCODED_SIZE + TreeState::ENCODED_SIZE;

    /// Serialize.
    pub fn encode(&self, w: &mut ByteWriter<'_>) -> Result<()> {
        self.tree.encode(w)?;
        self.starts.encode(w)
    }

    /// Deserialize.
    pub fn decode(r: &mut ByteReader<'_>) -> Result<Self> {
        let b = r.bytes(Self::ENCODED_SIZE)?;
        let (tree, starts) = b.split_at(ItState::ENCODED_SIZE);
        Ok(IntervalSetState {
            tree: ItState::read(tree),
            starts: TreeState::read(starts),
        })
    }
}

/// A dynamic set of closed intervals supporting stabbing *and* overlap
/// queries, both output-sensitive.
#[derive(Debug)]
pub struct IntervalSet {
    tree: IntervalTree,
    starts: BPlusTree<Interval, StartOrder>,
}

impl IntervalSet {
    /// Build from a collection.
    pub fn build(pager: &Pager, cfg: IntervalTreeConfig, intervals: Vec<Interval>) -> Result<Self> {
        let mut sorted = intervals.clone();
        sorted.sort_by_key(|iv| (iv.lo, iv.id));
        let starts = BPlusTree::bulk_load(pager, StartOrder, &sorted)?;
        let tree = IntervalTree::build(pager, cfg, intervals)?;
        Ok(IntervalSet { tree, starts })
    }

    /// Reconstruct from serialized state.
    pub fn attach(pager: &Pager, cfg: IntervalTreeConfig, state: IntervalSetState) -> Result<Self> {
        Ok(IntervalSet {
            tree: IntervalTree::attach(pager, cfg, state.tree)?,
            starts: BPlusTree::attach(pager, StartOrder, state.starts)?,
        })
    }

    /// The serializable identity.
    pub fn state(&self) -> IntervalSetState {
        IntervalSetState {
            tree: self.tree.state(),
            starts: self.starts.state(),
        }
    }

    /// Stored interval count.
    pub fn len(&self) -> u64 {
        self.tree.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.tree.is_empty()
    }

    /// Stream all intervals overlapping `[qlo, qhi]` into `f`; a `Break`
    /// from `f` stops the walk without reading further pages.
    pub fn overlap_ctl(
        &self,
        pager: &Pager,
        qlo: Option<i64>,
        qhi: Option<i64>,
        f: &mut dyn FnMut(&Interval) -> ControlFlow<()>,
    ) -> Result<ControlFlow<()>> {
        match qlo {
            Some(qlo) => {
                // Part 1: stab the lower end.
                if self.tree.stab_ctl(pager, qlo, f)?.is_break() {
                    return Ok(ControlFlow::Break(()));
                }
                // Part 2: starts strictly inside (qlo, qhi].
                let mut cur = self.starts.lower_bound(pager, &move |r: &Interval| {
                    // first interval with lo > qlo
                    if qlo < r.lo {
                        std::cmp::Ordering::Less
                    } else {
                        std::cmp::Ordering::Greater
                    }
                })?;
                cur.for_each_while_ctl(pager, |r| qhi.is_none_or(|qhi| r.lo <= qhi), |r| f(r))
            }
            None => {
                // No lower bound: every interval with lo ≤ qhi overlaps.
                let mut cur = self.starts.cursor_first(pager)?;
                cur.for_each_while_ctl(pager, |r| qhi.is_none_or(|qhi| r.lo <= qhi), |r| f(r))
            }
        }
    }

    /// Insert an interval.
    pub fn insert(&mut self, pager: &Pager, iv: Interval) -> Result<()> {
        self.tree.insert(pager, iv)?;
        self.starts.insert(pager, iv)?;
        Ok(())
    }

    /// Remove an exact interval. Returns whether it was found.
    pub fn remove(&mut self, pager: &Pager, iv: &Interval) -> Result<bool> {
        let found = self.tree.remove(pager, iv)?;
        if found {
            self.starts.remove(pager, iv)?;
        }
        Ok(found)
    }

    /// Free all pages.
    pub fn destroy(self, pager: &Pager) -> Result<()> {
        self.tree.destroy(pager)?;
        self.starts.destroy(pager)
    }

    /// Deep validation of both component structures and their agreement.
    pub fn validate(&self, pager: &Pager) -> Result<()> {
        self.tree.validate(pager)?;
        self.starts.validate(pager)?;
        if self.tree.len() != self.starts.len() {
            return Err(segdb_pager::PagerError::Corrupt(
                "interval set component length mismatch",
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use segdb_pager::PagerConfig;

    fn pager() -> Pager {
        Pager::new(PagerConfig {
            page_size: 256,
            cache_pages: 0,
        })
    }

    fn ivs(spec: &[(i64, i64)]) -> Vec<Interval> {
        spec.iter()
            .enumerate()
            .map(|(i, &(a, b))| Interval::new(i as u64, a, b))
            .collect()
    }

    use segdb_core::testutil::oracle_ids;

    fn oracle_overlap(set: &[Interval], qlo: Option<i64>, qhi: Option<i64>) -> Vec<u64> {
        oracle_ids(
            set,
            |iv| iv.id,
            |iv| qlo.is_none_or(|q| iv.hi >= q) && qhi.is_none_or(|q| iv.lo <= q),
        )
    }

    fn sorted_ids(v: Vec<Interval>) -> Vec<u64> {
        oracle_ids(&v, |iv| iv.id, |_| true)
    }

    /// Every interval overlapping `[qlo, qhi]`.
    fn overlap(set: &IntervalSet, p: &Pager, qlo: Option<i64>, qhi: Option<i64>) -> Vec<Interval> {
        let mut out = Vec::new();
        let _ = set.overlap_ctl(p, qlo, qhi, &mut |iv| {
            out.push(*iv);
            ControlFlow::Continue(())
        });
        out
    }

    #[test]
    fn overlap_matches_oracle() {
        let p = pager();
        let intervals = ivs(&[(0, 10), (5, 6), (12, 20), (-5, -1), (6, 12), (30, 40)]);
        let set = IntervalSet::build(&p, IntervalTreeConfig::default(), intervals.clone()).unwrap();
        set.validate(&p).unwrap();
        for (qlo, qhi) in [
            (Some(5), Some(13)),
            (Some(-10), Some(-6)),
            (None, Some(0)),
            (Some(21), None),
            (None, None),
            (Some(6), Some(6)),
        ] {
            assert_eq!(
                sorted_ids(overlap(&set, &p, qlo, qhi)),
                oracle_overlap(&intervals, qlo, qhi),
                "q=({qlo:?},{qhi:?})"
            );
        }
    }

    #[test]
    fn overlap_ctl_breaks_early() {
        let p = pager();
        let intervals: Vec<Interval> = (0..200).map(|i| Interval::new(i, 0, 1000)).collect();
        let set = IntervalSet::build(&p, IntervalTreeConfig::default(), intervals).unwrap();
        let mut seen = 0u32;
        let flow = set
            .overlap_ctl(&p, Some(500), Some(600), &mut |_| {
                seen += 1;
                if seen >= 3 {
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(())
                }
            })
            .unwrap();
        assert_eq!(flow, ControlFlow::Break(()));
        assert_eq!(seen, 3);
    }

    #[test]
    fn insert_remove_roundtrip() {
        let p = pager();
        let mut set = IntervalSet::build(&p, IntervalTreeConfig::default(), Vec::new()).unwrap();
        let intervals = ivs(&[(0, 4), (2, 9), (8, 8), (-3, 1)]);
        for &iv in &intervals {
            set.insert(&p, iv).unwrap();
        }
        set.validate(&p).unwrap();
        assert_eq!(
            sorted_ids(overlap(&set, &p, Some(1), Some(2))),
            vec![0, 1, 3]
        );
        assert!(set.remove(&p, &intervals[1]).unwrap());
        assert!(!set.remove(&p, &intervals[1]).unwrap());
        set.validate(&p).unwrap();
        assert_eq!(sorted_ids(overlap(&set, &p, Some(1), Some(2))), vec![0, 3]);
    }

    #[test]
    fn state_roundtrip() {
        let p = pager();
        let set =
            IntervalSet::build(&p, IntervalTreeConfig::default(), ivs(&[(0, 5), (3, 9)])).unwrap();
        let st = set.state();
        let mut buf = vec![0u8; IntervalSetState::ENCODED_SIZE];
        st.encode(&mut ByteWriter::new(&mut buf)).unwrap();
        let st2 = IntervalSetState::decode(&mut ByteReader::new(&buf)).unwrap();
        assert_eq!(st, st2);
        let set2 = IntervalSet::attach(&p, IntervalTreeConfig::default(), st2).unwrap();
        assert_eq!(sorted_ids(overlap(&set2, &p, Some(4), Some(4))), vec![0, 1]);
    }

    #[test]
    fn destroy_frees_pages() {
        let p = pager();
        let before = p.live_pages();
        let set = IntervalSet::build(
            &p,
            IntervalTreeConfig::default(),
            ivs(&[(0, 100); 1]).to_vec(),
        )
        .unwrap();
        set.destroy(&p).unwrap();
        assert_eq!(p.live_pages(), before);
    }
}
