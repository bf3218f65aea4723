//! Baselines the paper's structures are benchmarked against.
//!
//! The paper has no experimental section, so these are the comparison
//! points a 1998 practitioner would have reached for:
//!
//! * [`FullScan`] — segments in a page chain, every query reads all
//!   `O(n)` blocks. The floor any index must beat, and the correctness
//!   oracle.
//! * [`StabThenFilter`] — an external interval tree over the segments'
//!   x-projections (the classical *stabbing query* reduction of §1)
//!   answering "which segments' x-ranges contain `x₀`", followed by an
//!   exact intersection filter. Costs `O(log_B n + t_stab)` where
//!   `t_stab ≥ t` counts segments crossing the whole vertical *line* —
//!   the gap between stabbing and VS queries that motivates the paper.

use crate::batch::one_slot;
use crate::chain;
use crate::report::QueryTrace;
use segdb_geom::{MultiSink, ReportSink, Segment, VerticalQuery};
use segdb_itree::{Interval, IntervalTree, IntervalTreeConfig};
use segdb_pager::{PageId, Pager, PagerError, Result, StatScope};
use std::collections::HashMap;
use std::ops::ControlFlow;

/// The `O(n)`-per-query exhaustive baseline (and correctness oracle).
#[derive(Debug)]
pub struct FullScan {
    head: PageId,
    len: u64,
}

impl FullScan {
    /// Store the set in a page chain.
    pub fn build(pager: &Pager, segs: &[Segment]) -> Result<Self> {
        Ok(FullScan {
            head: chain::write(pager, segs)?,
            len: segs.len() as u64,
        })
    }

    /// Serializable identity.
    pub fn state(&self) -> (PageId, u64) {
        (self.head, self.len)
    }

    /// Reconstruct from a serialized identity.
    pub fn attach(head: PageId, len: u64) -> Self {
        FullScan { head, len }
    }

    /// Stored segment count.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Answer a VS query by scanning everything.
    pub fn query(&self, pager: &Pager, q: &VerticalQuery) -> Result<(Vec<Segment>, QueryTrace)> {
        let mut out = Vec::new();
        let trace = self.query_sink(pager, q, &mut out)?;
        Ok((out, trace))
    }

    /// Streaming form of [`FullScan::query`]: a group of one through
    /// [`FullScan::query_group`].
    pub fn query_sink(
        &self,
        pager: &Pager,
        q: &VerticalQuery,
        sink: &mut dyn ReportSink,
    ) -> Result<QueryTrace> {
        one_slot(q, sink, |multi| self.query_group(pager, multi))
    }

    /// One chain scan feeds every slot of `multi`. The scan stops early
    /// only once *all* slots have retired — `pages_saved` in the trace
    /// reports exactly how many pages that skipped.
    pub fn query_group(&self, pager: &Pager, multi: &mut MultiSink<'_>) -> Result<QueryTrace> {
        let scope = StatScope::begin(pager);
        let flow = chain::scan_ctl(pager, self.head, |s| multi.offer(&s))?;
        let io = scope.finish();
        let total_pages = (self.len as usize).div_ceil(chain::cap(pager.page_size()).max(1)) as u64;
        let pages_saved = if flow.is_break() {
            total_pages.saturating_sub(io.reads + io.cache_hits)
        } else {
            0
        };
        Ok(QueryTrace {
            pages_saved,
            io,
            ..QueryTrace::default()
        })
    }
}

/// Stabbing-index baseline: x-projection interval tree plus exact filter.
#[derive(Debug)]
pub struct StabThenFilter {
    tree: IntervalTree,
    /// The filter needs full geometry; the x-tree only stores ids, so the
    /// baseline keeps a page-chained side table `id → segment`, loaded on
    /// demand per query batch. To keep the I/O accounting honest the
    /// whole segment is instead packed into the interval payload — the
    /// side map below is built once at attach time from the chain.
    segments: HashMap<u64, Segment>,
    chain: PageId,
}

impl StabThenFilter {
    /// Build the x-projection tree and the segment side table.
    pub fn build(pager: &Pager, segs: &[Segment]) -> Result<Self> {
        let intervals: Vec<Interval> = segs
            .iter()
            .map(|s| Interval::new(s.id, s.a.x, s.b.x))
            .collect();
        let tree = IntervalTree::build(pager, IntervalTreeConfig::default(), intervals)?;
        let chain = chain::write(pager, segs)?;
        let mut segments = HashMap::with_capacity(segs.len());
        for s in segs {
            segments.insert(s.id, *s);
        }
        Ok(StabThenFilter {
            tree,
            segments,
            chain,
        })
    }

    /// Serializable identity: the x-projection tree plus the side chain.
    pub fn state(&self) -> (segdb_itree::tree::ItState, PageId) {
        (self.tree.state(), self.chain)
    }

    /// Reconstruct from a serialized identity; reloads the side table
    /// from the chain.
    pub fn attach(pager: &Pager, tree: segdb_itree::tree::ItState, chain: PageId) -> Result<Self> {
        let tree = IntervalTree::attach(pager, IntervalTreeConfig::default(), tree)?;
        let mut segments = HashMap::new();
        chain::scan(pager, chain, |s| {
            segments.insert(s.id, s);
        })?;
        Ok(StabThenFilter {
            tree,
            segments,
            chain,
        })
    }

    /// Stored segment count.
    pub fn len(&self) -> u64 {
        self.tree.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.tree.is_empty()
    }

    /// Candidates whose x-range contains the query abscissa, then exact
    /// filter. The trace's `second_level_probes` records the candidate
    /// count — the `t_stab − t` waste this baseline pays.
    pub fn query(&self, pager: &Pager, q: &VerticalQuery) -> Result<(Vec<Segment>, QueryTrace)> {
        let mut out = Vec::new();
        let trace = self.query_sink(pager, q, &mut out)?;
        Ok((out, trace))
    }

    /// Streaming form of [`StabThenFilter::query`]: a group of one
    /// through [`StabThenFilter::query_group`].
    pub fn query_sink(
        &self,
        pager: &Pager,
        q: &VerticalQuery,
        sink: &mut dyn ReportSink,
    ) -> Result<QueryTrace> {
        one_slot(q, sink, |multi| self.query_group(pager, multi))
    }

    /// Answer every slot of `multi`, one stab per slot: this comparison
    /// baseline shares nothing across a group. For full-line queries
    /// every stabbed candidate is a hit, so a count-only slot is
    /// answered straight from the stab tree's stored counts without
    /// touching the candidate lists.
    pub fn query_group(&self, pager: &Pager, multi: &mut MultiSink<'_>) -> Result<QueryTrace> {
        let scope = StatScope::begin(pager);
        let mut candidates = 0u32;
        for i in 0..multi.len() {
            segdb_obs::trace::emit(
                segdb_obs::trace::EventKind::SecondLevelProbe,
                segdb_obs::trace::probe::STAB_TREE,
                0,
            );
            let q = *multi.query(i);
            if !multi.want_segments(i) && matches!(q, VerticalQuery::Line { .. }) {
                let n = self.tree.stab_count(pager, q.x())?;
                candidates += n as u32;
                let _ = multi.report_count(i, n);
                continue;
            }
            let mut unknown = false;
            let _ = self.tree.stab_ctl(pager, q.x(), &mut |iv| {
                candidates += 1;
                match self.segments.get(&iv.id) {
                    Some(seg) if q.hits(seg) => multi.report(i, seg),
                    Some(_) => ControlFlow::Continue(()),
                    None => {
                        unknown = true;
                        ControlFlow::Break(())
                    }
                }
            })?;
            if unknown {
                return Err(PagerError::Corrupt("stabbed interval names no segment"));
            }
        }
        Ok(QueryTrace {
            second_level_probes: candidates,
            io: scope.finish(),
            ..QueryTrace::default()
        })
    }

    /// The raw segment chain (tests).
    pub fn chain_head(&self) -> PageId {
        self.chain
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::ids;
    use segdb_geom::gen::{mixed_map, vertical_queries};
    use segdb_geom::query::scan_oracle;
    use segdb_pager::PagerConfig;

    fn pager() -> Pager {
        Pager::new(PagerConfig {
            page_size: 512,
            cache_pages: 0,
        })
    }

    #[test]
    fn full_scan_matches_oracle() {
        let p = pager();
        let set = mixed_map(500, 3);
        let fs = FullScan::build(&p, &set).unwrap();
        assert_eq!(fs.len(), set.len() as u64);
        for q in vertical_queries(&set, 20, 100, 5) {
            let (hits, trace) = fs.query(&p, &q).unwrap();
            assert_eq!(ids(&hits), ids(&scan_oracle(&set, &q)));
            assert_eq!(trace.hits as usize, hits.len());
            assert!(trace.io.reads > 0);
        }
    }

    #[test]
    fn full_scan_reads_all_blocks_every_time() {
        let p = pager();
        let set = mixed_map(1000, 7);
        let fs = FullScan::build(&p, &set).unwrap();
        let q = VerticalQuery::Line { x: i64::MIN / 4 }; // certainly empty
        let (hits, trace) = fs.query(&p, &q).unwrap();
        assert!(hits.is_empty());
        let expected_pages = set.len().div_ceil(chain::cap(512));
        assert_eq!(trace.io.reads as usize, expected_pages);
    }

    #[test]
    fn stab_then_filter_matches_oracle() {
        let p = pager();
        let set = mixed_map(600, 11);
        let sf = StabThenFilter::build(&p, &set).unwrap();
        for q in vertical_queries(&set, 30, 50, 13) {
            let (hits, trace) = sf.query(&p, &q).unwrap();
            assert_eq!(ids(&hits), ids(&scan_oracle(&set, &q)));
            assert!(trace.second_level_probes >= trace.hits, "stab ⊇ hits");
        }
    }

    #[test]
    fn stab_filter_wastes_io_on_short_queries() {
        // Long segments + short query window: t_stab ≫ t.
        let p = pager();
        let set: Vec<Segment> = (0..300)
            .map(|i| Segment::new(i, (0, 8 * i as i64), (1 << 20, 8 * i as i64 + 1)).unwrap())
            .collect();
        let sf = StabThenFilter::build(&p, &set).unwrap();
        let q = VerticalQuery::segment(1 << 10, 0, 20);
        let (hits, trace) = sf.query(&p, &q).unwrap();
        assert!(hits.len() <= 4);
        assert!(trace.second_level_probes == 300, "all 300 stab candidates");
    }
}
