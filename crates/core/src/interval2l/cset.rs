//! The `C` sets: the verticals on one base line, as one counted B⁺-tree
//! of their ordinate ranges keyed by `(lo, id)`. NCT verticals on one
//! line share at most an endpoint, so in order of lower end their upper
//! ends rise too, and the intervals overlapping `[qlo, qhi]` are one
//! run: from the first record with `hi ≥ qlo` to the first with
//! `lo > qhi`. One descent and the run, `O(log_B n + t)` as the paper
//! asks of `C(v)`; a count is two ranks (DESIGN.md §2).

use segdb_bptree::{BPlusTree, Record, RecordOrd, TreeState};
use segdb_geom::Segment;
use segdb_pager::codec::{fixed, i64_at, u64_at};
use segdb_pager::{ByteWriter, Pager, PagerError, Result};
use std::cmp::Ordering;
use std::ops::ControlFlow;

/// One vertical on a base line: its ordinate range and id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CRec {
    /// Lower end.
    pub lo: i64,
    /// Upper end.
    pub hi: i64,
    /// Segment id.
    pub id: u64,
}

impl CRec {
    /// The record of vertical `s`.
    pub(crate) fn of(s: &Segment) -> CRec {
        CRec {
            lo: s.a.y,
            hi: s.b.y,
            id: s.id,
        }
    }

    /// The vertical this record stands for on the line `x = x0`.
    pub(crate) fn segment(&self, x0: i64) -> Result<Segment> {
        Segment::new(self.id, (x0, self.lo), (x0, self.hi))
            .map_err(|_| PagerError::Corrupt("bad on-line interval"))
    }
}

impl Record for CRec {
    const ENCODED_SIZE: usize = 24;

    fn encode(&self, w: &mut ByteWriter<'_>) -> Result<()> {
        w.i64(self.lo)?;
        w.i64(self.hi)?;
        w.u64(self.id)
    }

    fn read(bytes: &[u8]) -> Result<Self> {
        let b = fixed::<{ Self::ENCODED_SIZE }>(bytes)?;
        Ok(CRec {
            lo: i64_at(b, 0),
            hi: i64_at(b, 8),
            id: u64_at(b, 16),
        })
    }
}

/// The `C` order: lower end, then id.
#[derive(Debug, Clone, Copy)]
pub struct COrder;

impl RecordOrd<CRec> for COrder {
    fn cmp_records(&self, a: &CRec, b: &CRec) -> Ordering {
        (a.lo, a.id).cmp(&(b.lo, b.id))
    }
}

/// A `C` set.
pub(crate) type CSet = BPlusTree<CRec, COrder>;

/// The set stored as `state`.
pub(crate) fn attach(pager: &Pager, state: TreeState) -> Result<CSet> {
    BPlusTree::attach(pager, COrder, state)
}

/// `qlo` against each record's upper end, ties first: sorts before
/// every interval that reaches `qlo` (`hi ≥ qlo`).
fn reaching(qlo: i64) -> impl Fn(&CRec) -> Ordering {
    move |r: &CRec| qlo.cmp(&r.hi).then(Ordering::Less)
}

/// `qhi` against each record's lower end, ties last: sorts after every
/// interval that starts at or below `qhi`.
fn starting_by(qhi: i64) -> impl Fn(&CRec) -> Ordering {
    move |r: &CRec| qhi.cmp(&r.lo).then(Ordering::Greater)
}

/// Stream the verticals on `x = x0` that overlap `[qlo, qhi]` (`None`
/// = open end) into `f`, in order of lower end; a `Break` stops the run
/// without reading further pages.
pub(crate) fn overlap(
    pager: &Pager,
    set: &CSet,
    x0: i64,
    (qlo, qhi): (Option<i64>, Option<i64>),
    mut f: impl FnMut(&Segment) -> ControlFlow<()>,
) -> Result<()> {
    let mut cur = match qlo {
        Some(qlo) => set.lower_bound(pager, &reaching(qlo))?,
        None => set.cursor_first(pager)?,
    };
    while let Some(r) = cur.peek().copied() {
        if qhi.is_some_and(|qhi| r.lo > qhi) || f(&r.segment(x0)?).is_break() {
            break;
        }
        cur.next(pager)?;
    }
    Ok(())
}

/// How many intervals overlap `[qlo, qhi]`, from the stored subtree
/// counts: the intervals themselves are never read.
pub(crate) fn count(
    pager: &Pager,
    set: &CSet,
    (qlo, qhi): (Option<i64>, Option<i64>),
) -> Result<u64> {
    super::run_count(pager, set, qlo.map(reaching), qhi.map(starting_by))
}

/// The tree's own invariants, and that its records are verticals on
/// the line `x = x0`, in ascending order, that overlap at most at an
/// endpoint — what makes [`overlap`]'s one run exact.
pub(crate) fn validate(pager: &Pager, set: &CSet, x0: i64) -> Result<()> {
    set.validate(pager)?;
    let recs = set.scan_all(pager)?;
    for r in &recs {
        r.segment(x0)?;
    }
    if recs.iter().any(|r| r.lo > r.hi) || recs.windows(2).any(|w| w[0].hi > w[1].lo) {
        return Err(PagerError::Corrupt("C intervals overlap or run backwards"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use segdb_pager::PagerConfig;

    fn rec(lo: i64, hi: i64, id: u64) -> CRec {
        CRec { lo, hi, id }
    }

    #[test]
    fn roundtrip() {
        let r = rec(-5, 1 << 40, 77);
        let mut buf = vec![0u8; CRec::ENCODED_SIZE];
        r.encode(&mut ByteWriter::new(&mut buf)).unwrap();
        assert_eq!(CRec::read(&buf).unwrap(), r);
        assert!(CRec::read(&buf[..23]).is_err());
    }

    /// Touching, disjoint and open-ended probes against the filter, on
    /// a tree several leaves deep.
    #[test]
    fn overlap_and_count_match_the_filter() {
        let pager = Pager::new(PagerConfig {
            page_size: 128,
            cache_pages: 0,
        });
        // [0,3] [3,4] [6,10] [10,11] [12,20] ... : touching pairs and gaps.
        let mut recs = Vec::new();
        let mut y = 0;
        for id in 0..60u64 {
            let len = 1 + (id % 4) as i64;
            recs.push(rec(y, y + len, id));
            y += len + i64::from(id % 3 == 0) * 2;
        }
        let set = BPlusTree::bulk_load(&pager, COrder, &recs).unwrap();
        validate(&pager, &set, 9).unwrap();
        let ends = [
            None,
            Some(-1),
            Some(0),
            Some(3),
            Some(5),
            Some(10),
            Some(y),
            Some(y + 9),
        ];
        for qlo in ends {
            for qhi in ends {
                let want: Vec<u64> = (recs.iter())
                    .filter(|r| qlo.is_none_or(|l| r.hi >= l) && qhi.is_none_or(|h| r.lo <= h))
                    .map(|r| r.id)
                    .collect();
                let mut got = Vec::new();
                overlap(&pager, &set, 9, (qlo, qhi), |s| {
                    got.push(s.id);
                    ControlFlow::Continue(())
                })
                .unwrap();
                assert_eq!(got, want, "[{qlo:?}, {qhi:?}]");
                let n = count(&pager, &set, (qlo, qhi)).unwrap();
                assert_eq!(n, want.len() as u64, "[{qlo:?}, {qhi:?}]");
            }
        }
    }

    #[test]
    fn validate_refuses_overlapping_intervals() {
        let pager = Pager::new(PagerConfig::default());
        let set = BPlusTree::bulk_load(&pager, COrder, &[rec(0, 5, 1), rec(4, 9, 2)]).unwrap();
        assert!(validate(&pager, &set, 0).is_err());
    }
}
