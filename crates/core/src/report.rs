//! Queries, their results and per-query instrumentation.

use crate::facade::DbError;
use segdb_geom::transform::Direction;
use segdb_geom::{CountSink, ExistsSink, LimitSink, ReportSink, Segment, VerticalQuery};
use segdb_obs::cost::CostVerdict;
use segdb_obs::Json;
use segdb_pager::IoStats;

/// What a query should produce — the streaming read path serves all
/// four from the same sink-driven traversal.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum QueryMode {
    /// Materialize every hit (the classic `Vec<Segment>` answer).
    #[default]
    Collect,
    /// Only the number of hits; index layers answer whole subtrees from
    /// stored counts without reading their pages.
    Count,
    /// Only whether any segment matches; the traversal aborts at the
    /// first hit.
    Exists,
    /// The first `k` hits in traversal order; the traversal aborts once
    /// `k` are in hand.
    Limit(u32),
}

impl QueryMode {
    /// Short stable name (wire protocol & JSON).
    pub fn name(&self) -> &'static str {
        match self {
            QueryMode::Collect => "collect",
            QueryMode::Count => "count",
            QueryMode::Exists => "exists",
            QueryMode::Limit(_) => "limit",
        }
    }

    /// Build the sink implementing this mode. `Collect` callers usually
    /// take the dedicated `Vec` path instead.
    pub fn make_sink(&self) -> Box<dyn ReportSink> {
        match self {
            QueryMode::Collect => Box::new(Vec::new()),
            QueryMode::Count => Box::new(CountSink::new()),
            QueryMode::Exists => Box::new(ExistsSink::new()),
            QueryMode::Limit(k) => Box::new(LimitSink::new(*k as usize)),
        }
    }
}

/// A generalized query segment of the database's fixed direction, in
/// user coordinates (§1 of the paper: line, ray or segment) — the one
/// way a query is named, from the CLI and the wire down to the walk.
/// [`Query::in_frame`] takes it to the canonical frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Query {
    /// The full line of the fixed direction through `(x, y)`.
    Line {
        /// Anchor abscissa.
        x: i64,
        /// Anchor ordinate (any point of the line; 0 works for vertical).
        y: i64,
    },
    /// The ray from `(x, y)` along the fixed direction.
    RayUp {
        /// Ray origin abscissa.
        x: i64,
        /// Ray origin ordinate.
        y: i64,
    },
    /// The ray from `(x, y)` against the fixed direction.
    RayDown {
        /// Ray origin abscissa.
        x: i64,
        /// Ray origin ordinate.
        y: i64,
    },
    /// The bounded query segment `(x1, y1)–(x2, y2)` (endpoints must lie
    /// on a common line of the fixed direction).
    Segment {
        /// First endpoint abscissa.
        x1: i64,
        /// First endpoint ordinate.
        y1: i64,
        /// Second endpoint abscissa.
        x2: i64,
        /// Second endpoint ordinate.
        y2: i64,
    },
}

impl Query {
    /// The canonical-frame query under `d` — the one translation of a
    /// user-coordinate query; a `Segment` whose endpoints do not share a
    /// line of `d` is [`DbError::NotAligned`]. It needs only the fixed
    /// direction, so the serving layer translates a whole request group
    /// before the shared walk without holding the database.
    pub fn in_frame(&self, d: Direction) -> Result<VerticalQuery, DbError> {
        Ok(match *self {
            Query::Line { x, y } => d.make_query((x, y).into(), None, None)?,
            Query::RayUp { x, y } => d.make_query((x, y).into(), Some(y), None)?,
            Query::RayDown { x, y } => d.make_query((x, y).into(), None, Some(y))?,
            Query::Segment { x1, y1, x2, y2 } => {
                let (t1, t2) = (
                    d.apply_point((x1, y1).into())?,
                    d.apply_point((x2, y2).into())?,
                );
                if t1.x != t2.x {
                    return Err(DbError::NotAligned);
                }
                let (lo, hi) = (t1.y.min(t2.y), t1.y.max(t2.y));
                d.make_query((x1, y1).into(), Some(lo), Some(hi))?
            }
        })
    }
}

/// A canonical query read as a user query of the vertical direction,
/// where the two frames coincide.
impl From<VerticalQuery> for Query {
    fn from(q: VerticalQuery) -> Query {
        match q {
            VerticalQuery::Line { x } => Query::Line { x, y: 0 },
            VerticalQuery::RayUp { x, y0 } => Query::RayUp { x, y: y0 },
            VerticalQuery::RayDown { x, y0 } => Query::RayDown { x, y: y0 },
            VerticalQuery::Segment { x, lo, hi } => Query::Segment {
                x1: x,
                y1: lo,
                x2: x,
                y2: hi,
            },
        }
    }
}

/// A mode-shaped query answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryAnswer {
    /// `Collect` / `Limit` answers: each hit once, in the order the walk
    /// found it (deterministic for a given stored structure, query and
    /// group; sort by id where an order is needed).
    Segments(Vec<Segment>),
    /// `Count` answer.
    Count(u64),
    /// `Exists` answer.
    Exists(bool),
}

impl QueryAnswer {
    /// Number of hits this answer witnesses (for `Exists` only 0/1 —
    /// the traversal stopped as soon as the bit was decided).
    pub fn count(&self) -> u64 {
        match self {
            QueryAnswer::Segments(v) => v.len() as u64,
            QueryAnswer::Count(n) => *n,
            QueryAnswer::Exists(b) => u64::from(*b),
        }
    }

    /// The segments, when this answer carries them.
    pub fn segments(&self) -> Option<&[Segment]> {
        match self {
            QueryAnswer::Segments(v) => Some(v),
            _ => None,
        }
    }
}

/// Instrumentation of one VS query against any of the structures — the
/// measurable form of the paper's cost claims.
#[derive(Debug, Clone, Copy, Default)]
pub struct QueryTrace {
    /// First-level nodes visited.
    pub first_level_nodes: u32,
    /// Second-level structures probed (PSTs, `C` sets, G lists).
    pub second_level_probes: u32,
    /// Fractional-cascading bridge jumps taken (Solution 2 only).
    pub bridge_jumps: u32,
    /// Segments reported.
    pub hits: u32,
    /// Mode the query ran under.
    pub mode: QueryMode,
    /// Pages the traversal provably avoided reading (early exit /
    /// count-from-headers), where the structure can compute the figure
    /// exactly; 0 when unknown.
    pub pages_saved: u64,
    /// I/O performed by the query (reads/writes against the pager).
    pub io: IoStats,
    /// Verdict against the fitted paper bound, when the database was
    /// built with observability on and the cost fitter is warmed up.
    pub cost: Option<CostVerdict>,
    /// Shared-walk batch this query was executed in (0 = ran alone).
    /// Slowlog consumers correlate batchmates through this id when
    /// diagnosing tail latency.
    pub batch_id: u64,
    /// Number of queries in that batch (0 = ran alone).
    pub batch_size: u32,
}

impl QueryTrace {
    /// JSON form (schema documented in README "Observability").
    pub fn to_json(&self) -> Json {
        Json::obj([
            (
                "first_level_nodes",
                Json::U64(self.first_level_nodes as u64),
            ),
            (
                "second_level_probes",
                Json::U64(self.second_level_probes as u64),
            ),
            ("bridge_jumps", Json::U64(self.bridge_jumps as u64)),
            ("hits", Json::U64(self.hits as u64)),
            ("mode", Json::Str(self.mode.name().to_string())),
            ("pages_saved", Json::U64(self.pages_saved)),
            (
                "io",
                Json::obj(
                    self.io
                        .fields()
                        .into_iter()
                        .chain([("total", Json::U64(self.io.total_io()))]),
                ),
            ),
            ("cost", self.cost.map_or(Json::Null, |c| c.to_json())),
            ("batch_id", Json::U64(self.batch_id)),
            ("batch_size", Json::U64(self.batch_size as u64)),
        ])
    }
}

/// Pass-through sink that counts deliveries — group walks use it to fill
/// `QueryTrace::hits` per slot without each sub-structure reporting its
/// own tally.
pub struct CountingSink<S> {
    /// The wrapped sink.
    pub inner: S,
    /// Segments (or bulk counts) delivered so far.
    pub hits: u64,
}

impl<S: ReportSink> CountingSink<S> {
    /// Wrap `inner` with a zeroed tally.
    pub fn new(inner: S) -> Self {
        CountingSink { inner, hits: 0 }
    }
}

impl<S: ReportSink> ReportSink for CountingSink<S> {
    fn report(&mut self, seg: &Segment) -> std::ops::ControlFlow<()> {
        self.hits += 1;
        self.inner.report(seg)
    }

    fn want_segments(&self) -> bool {
        self.inner.want_segments()
    }

    fn report_count(&mut self, n: u64) -> std::ops::ControlFlow<()> {
        self.hits += n;
        self.inner.report_count(n)
    }
}

/// Test helper: an answer (in walk order, as read paths give it) sorted
/// by id for comparison, checked for a segment reported twice.
pub fn normalize(mut hits: Vec<Segment>) -> Vec<Segment> {
    debug_assert_distinct(&hits);
    hits.sort_by_key(|s| s.id);
    hits
}

/// Debug builds: panic if an answer lists a segment twice (the paper's
/// "each segment is reported only once"). Each Collect and Limit exit.
pub(crate) fn debug_assert_distinct(hits: &[Segment]) {
    if cfg!(debug_assertions) {
        for w in ids(hits).windows(2) {
            assert_ne!(w[0], w[1], "segment {} reported twice", w[0]);
        }
    }
}

/// Ids of an answer, sorted (test helper used across the workspace).
pub fn ids(hits: &[Segment]) -> Vec<u64> {
    let mut v: Vec<u64> = hits.iter().map(|s| s.id).collect();
    v.sort_unstable();
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalize_sorts() {
        let s1 = Segment::new(5, (0, 0), (1, 1)).unwrap();
        let s2 = Segment::new(2, (0, 0), (1, 2)).unwrap();
        let out = normalize(vec![s1, s2]);
        assert_eq!(ids(&out), vec![2, 5]);
    }
}
