//! The paper's §5 *future work*: query segments of **arbitrary** angular
//! coefficient.
//!
//! No optimal external structure for this is known (that is why the
//! paper leaves it open); what a practitioner can do is the candidate
//! filtering this module implements:
//!
//! 1. an [`IntervalSet`] over the stored segments' x-projections yields
//!    every segment whose x-range overlaps the query segment's x-range —
//!    a superset of the answer (`t_any ≥ t`);
//! 2. a B⁺-tree keyed by id resolves each candidate to its geometry
//!    (honestly costed I/O, no in-memory side tables);
//! 3. the exact [`segments_intersect`] predicate keeps the true hits.
//!
//! Cost: `O(log_B n + t_any·log_B n)` I/Os — output-sensitive in the
//! *candidate* count, not the answer. The gap `t_any − t` is exactly the
//! slack the paper's fixed-direction machinery eliminates; E10's
//! stab-then-filter row shows how large it gets.

use segdb_bptree::{BPlusTree, Record, RecordOrd, TreeState};
use segdb_geom::predicates::segments_intersect;
use segdb_geom::{ReportSink, Segment};
use segdb_itree::overlap::{IntervalSet, IntervalSetState};
use segdb_itree::{Interval, IntervalTreeConfig};
use segdb_pager::{ByteReader, ByteWriter, Pager, PagerError, Result};
use std::cmp::Ordering;
use std::ops::ControlFlow;

/// A bare segment record keyed by id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegRec(pub Segment);

impl Record for SegRec {
    const ENCODED_SIZE: usize = 40;
    fn encode(&self, w: &mut ByteWriter<'_>) -> Result<()> {
        w.u64(self.0.id)?;
        w.i64(self.0.a.x)?;
        w.i64(self.0.a.y)?;
        w.i64(self.0.b.x)?;
        w.i64(self.0.b.y)
    }
    fn read(bytes: &[u8]) -> Result<Self> {
        let b = segdb_pager::codec::fixed::<40>(bytes)?;
        segdb_pst::node::segment_from(b)
            .map(SegRec)
            .map_err(|_| PagerError::Corrupt("invalid segment record"))
    }
}

/// Order by id.
#[derive(Debug, Default, Clone, Copy)]
pub struct IdOrder;

impl RecordOrd<SegRec> for IdOrder {
    fn cmp_records(&self, a: &SegRec, b: &SegRec) -> Ordering {
        a.0.id.cmp(&b.0.id)
    }
}

/// Serialized identity (44 bytes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnyQueryState {
    /// x-projection interval set.
    pub xset: IntervalSetState,
    /// id → segment tree.
    pub byid: TreeState,
}

impl AnyQueryState {
    /// Encoded size in bytes.
    pub const ENCODED_SIZE: usize = IntervalSetState::ENCODED_SIZE + TreeState::ENCODED_SIZE;

    /// Serialize.
    pub fn encode(&self, w: &mut ByteWriter<'_>) -> Result<()> {
        self.xset.encode(w)?;
        self.byid.encode(w)
    }

    /// Deserialize.
    pub fn decode(r: &mut ByteReader<'_>) -> Result<Self> {
        Ok(AnyQueryState {
            xset: IntervalSetState::decode(r)?,
            byid: TreeState::decode(r)?,
        })
    }
}

/// Candidate-filtering index for arbitrary-direction query segments.
#[derive(Debug)]
pub struct AnyQueryIndex {
    xset: IntervalSet,
    byid: BPlusTree<SegRec, IdOrder>,
}

impl AnyQueryIndex {
    /// Build over a segment set.
    pub fn build(pager: &Pager, segs: &[Segment]) -> Result<Self> {
        let intervals: Vec<Interval> = segs
            .iter()
            .map(|s| Interval::new(s.id, s.a.x, s.b.x))
            .collect();
        let xset = IntervalSet::build(pager, IntervalTreeConfig::default(), intervals)?;
        let mut recs: Vec<SegRec> = segs.iter().map(|s| SegRec(*s)).collect();
        recs.sort_by_key(|r| r.0.id);
        let byid = BPlusTree::bulk_load(pager, IdOrder, &recs)?;
        Ok(AnyQueryIndex { xset, byid })
    }

    /// Reconstruct from serialized state.
    pub fn attach(pager: &Pager, state: AnyQueryState) -> Result<Self> {
        Ok(AnyQueryIndex {
            xset: IntervalSet::attach(pager, IntervalTreeConfig::default(), state.xset)?,
            byid: BPlusTree::attach(pager, IdOrder, state.byid)?,
        })
    }

    /// Serialized identity.
    pub fn state(&self) -> AnyQueryState {
        AnyQueryState {
            xset: self.xset.state(),
            byid: self.byid.state(),
        }
    }

    /// Stored segment count.
    pub fn len(&self) -> u64 {
        self.byid.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.byid.is_empty()
    }

    /// Report every stored segment intersecting the arbitrary query
    /// segment `q` (same coordinate frame as the stored segments) into
    /// `sink` (a `Vec<Segment>` collects). Candidates stream out of the
    /// x-projection overlap walk one at a time (no candidate `Vec`), each
    /// is resolved against `byid` and exact-filtered. Returns the
    /// candidate count; a sink `Break` stops the overlap walk
    /// immediately.
    pub fn query_sink(&self, pager: &Pager, q: &Segment, sink: &mut dyn ReportSink) -> Result<u32> {
        let mut candidates = 0u32;
        let mut err: Option<PagerError> = None;
        let _ = self
            .xset
            .overlap_ctl(pager, Some(q.a.x), Some(q.b.x), &mut |c| {
                candidates += 1;
                let id = c.id;
                let rec = (|| {
                    let mut cur = self
                        .byid
                        .lower_bound(pager, &move |r: &SegRec| id.cmp(&r.0.id))?;
                    cur.next(pager)?
                        .filter(|r| r.0.id == id)
                        .ok_or(PagerError::Corrupt("candidate id missing from byid tree"))
                })();
                match rec {
                    Ok(rec) if segments_intersect(&rec.0, q) => sink.report(&rec.0),
                    Ok(_) => ControlFlow::Continue(()),
                    Err(e) => {
                        err = Some(e);
                        ControlFlow::Break(())
                    }
                }
            })?;
        if let Some(e) = err {
            return Err(e);
        }
        Ok(candidates)
    }

    /// Insert a segment.
    pub fn insert(&mut self, pager: &Pager, seg: Segment) -> Result<()> {
        self.xset
            .insert(pager, Interval::new(seg.id, seg.a.x, seg.b.x))?;
        self.byid.insert(pager, SegRec(seg))?;
        Ok(())
    }

    /// Remove a segment. Returns whether it was found.
    pub fn remove(&mut self, pager: &Pager, seg: &Segment) -> Result<bool> {
        let found = self
            .xset
            .remove(pager, &Interval::new(seg.id, seg.a.x, seg.b.x))?;
        if found {
            self.byid.remove(pager, &SegRec(*seg))?;
        }
        Ok(found)
    }

    /// Free all pages.
    pub fn destroy(self, pager: &Pager) -> Result<()> {
        self.xset.destroy(pager)?;
        self.byid.destroy(pager)
    }

    /// Validate both component structures.
    pub fn validate(&self, pager: &Pager) -> Result<()> {
        self.xset.validate(pager)?;
        self.byid.validate(pager)?;
        if self.xset.len() != self.byid.len() {
            return Err(PagerError::Corrupt("anyquery component length mismatch"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::ids;
    use crate::testutil::oracle_intersect as oracle;
    use segdb_geom::gen::mixed_map;
    use segdb_pager::PagerConfig;

    fn pager() -> Pager {
        Pager::new(PagerConfig {
            page_size: 1024,
            cache_pages: 0,
        })
    }

    /// `q`'s hits and candidate count, collected.
    fn query(idx: &AnyQueryIndex, p: &Pager, q: &Segment) -> (Vec<Segment>, u32) {
        let mut hits = Vec::new();
        let candidates = idx.query_sink(p, q, &mut hits).unwrap();
        (hits, candidates)
    }

    #[test]
    fn arbitrary_slopes_match_oracle() {
        let p = pager();
        let set = mixed_map(600, 0xA11);
        let idx = AnyQueryIndex::build(&p, &set).unwrap();
        idx.validate(&p).unwrap();
        // Query segments of assorted slopes, including steep and shallow.
        let queries = [
            Segment::new(9000, (0, 0), (500, 700)).unwrap(),
            Segment::new(9001, (100, 800), (600, 100)).unwrap(),
            Segment::new(9002, (50, 0), (51, 1000)).unwrap(),
            Segment::new(9003, (0, 300), (900, 310)).unwrap(),
        ];
        for q in &queries {
            let (hits, cands) = query(&idx, &p, q);
            assert_eq!(ids(&hits), oracle(&set, q), "{q}");
            assert!(cands as usize >= hits.len());
        }
    }

    #[test]
    fn insert_remove_roundtrip() {
        let p = pager();
        let set = mixed_map(200, 0xB22);
        let mut idx = AnyQueryIndex::build(&p, &[]).unwrap();
        for s in &set {
            idx.insert(&p, *s).unwrap();
        }
        idx.validate(&p).unwrap();
        assert_eq!(idx.len(), set.len() as u64);
        let q = Segment::new(9000, (0, 0), (400, 500)).unwrap();
        let (h1, _) = query(&idx, &p, &q);
        assert_eq!(ids(&h1), oracle(&set, &q));
        assert!(idx.remove(&p, &set[0]).unwrap());
        assert!(!idx.remove(&p, &set[0]).unwrap());
        let (h2, _) = query(&idx, &p, &q);
        let mut want = oracle(&set[1..], &q);
        want.retain(|&i| i != set[0].id);
        assert_eq!(ids(&h2), want);
    }

    #[test]
    fn state_roundtrip() {
        let p = pager();
        let set = mixed_map(100, 0xC33);
        let idx = AnyQueryIndex::build(&p, &set).unwrap();
        let st = idx.state();
        let mut buf = vec![0u8; AnyQueryState::ENCODED_SIZE];
        st.encode(&mut ByteWriter::new(&mut buf)).unwrap();
        let st2 = AnyQueryState::decode(&mut ByteReader::new(&buf)).unwrap();
        assert_eq!(st, st2);
        let idx2 = AnyQueryIndex::attach(&p, st2).unwrap();
        let q = Segment::new(9000, (0, 0), (300, 400)).unwrap();
        assert_eq!(ids(&query(&idx2, &p, &q).0), ids(&query(&idx, &p, &q).0));
    }
}
