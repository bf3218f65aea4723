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
//!
//! Both are built directly on a pager by the experiments and the tests
//! that compare against them; neither is an index kind of the facade,
//! so neither is written, served or persisted.

use crate::chain;
use crate::report::QueryTrace;
use segdb_geom::{Segment, VerticalQuery};
use segdb_itree::{Interval, IntervalTree, IntervalTreeConfig};
use segdb_obs::trace::{emit, probe, EventKind};
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
        let scope = StatScope::begin(pager);
        let mut out = Vec::new();
        chain::scan(pager, self.head, |s| {
            if q.hits(&s) {
                out.push(s);
            }
        })?;
        let trace = QueryTrace {
            hits: out.len() as u32,
            io: scope.finish(),
            ..QueryTrace::default()
        };
        Ok((out, trace))
    }
}

/// Stabbing-index baseline: x-projection interval tree plus exact filter.
#[derive(Debug)]
pub struct StabThenFilter {
    tree: IntervalTree,
    /// The filter needs full geometry and the x-tree stores only ids, so
    /// the baseline keeps a side table `id → segment` in memory. `build`
    /// also writes the table as a page chain, so the baseline's space
    /// counts it.
    segments: HashMap<u64, Segment>,
}

impl StabThenFilter {
    /// Build the x-projection tree and the segment side table.
    pub fn build(pager: &Pager, segs: &[Segment]) -> Result<Self> {
        let intervals: Vec<Interval> = segs
            .iter()
            .map(|s| Interval::new(s.id, s.a.x, s.b.x))
            .collect();
        let tree = IntervalTree::build(pager, IntervalTreeConfig::default(), intervals)?;
        chain::write(pager, segs)?;
        let segments = segs.iter().map(|s| (s.id, *s)).collect();
        Ok(StabThenFilter { tree, segments })
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
        let scope = StatScope::begin(pager);
        emit(EventKind::SecondLevelProbe, probe::STAB_TREE, 0);
        let (mut out, mut candidates, mut unknown) = (Vec::new(), 0u32, false);
        let _ = self.tree.stab_ctl(pager, q.x(), &mut |iv| {
            candidates += 1;
            match self.segments.get(&iv.id) {
                Some(seg) => {
                    if q.hits(seg) {
                        out.push(*seg);
                    }
                    ControlFlow::Continue(())
                }
                None => {
                    unknown = true;
                    ControlFlow::Break(())
                }
            }
        })?;
        if unknown {
            return Err(PagerError::Corrupt("stabbed interval names no segment"));
        }
        let trace = QueryTrace {
            second_level_probes: candidates,
            hits: out.len() as u32,
            io: scope.finish(),
            ..QueryTrace::default()
        };
        Ok((out, trace))
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
