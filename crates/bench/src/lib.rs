//! # segdb-bench — harness regenerating every experiment of DESIGN.md
//!
//! The paper (EDBT'98) proves complexity bounds but reports no
//! measurements, so the "tables to reproduce" are its Lemmas and
//! Theorems. Each `e*` binary in `src/bin/` regenerates one experiment
//! as a deterministic I/O-count table (run with `--release`); wall-clock
//! is `benchmark/`'s to measure. EXPERIMENTS.md records the
//! paper-vs-measured comparison.
//!
//! This library holds the shared machinery: table printing, query
//! batches, aggregate statistics and tiny curve-fit helpers used to
//! check asymptotic *shape* (the reproduction's success criterion — not
//! absolute constants, which belong to the authors' 1998 testbed).

use segdb_geom::{Segment, VerticalQuery};
use segdb_pager::{Pager, PagerConfig};

pub mod experiments;
pub mod report;

/// Print a fixed-width table. The table is also recorded into the
/// machine-readable report accumulator (see [`report`]).
pub fn table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    report::record_table(title, headers, rows);
    println!("\n## {title}");
    let widths: Vec<usize> = headers
        .iter()
        .enumerate()
        .map(|(i, h)| {
            rows.iter()
                .map(|r| r.get(i).map_or(0, |c| c.len()))
                .chain([h.len()])
                .max()
                .unwrap_or(0)
        })
        .collect();
    let line = |cells: Vec<String>| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!("{:>w$}  ", c, w = widths[i]));
        }
        println!("{}", s.trim_end());
    };
    line(headers.iter().map(|h| h.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for r in rows {
        line(r.clone());
    }
}

/// Aggregate of a query batch.
#[derive(Debug, Default, Clone, Copy)]
pub struct Agg {
    /// Queries run.
    pub queries: u64,
    /// Total physical reads.
    pub reads: u64,
    /// Total reported segments.
    pub hits: u64,
}

impl Agg {
    /// Mean reads per query.
    pub fn reads_per_query(&self) -> f64 {
        self.reads as f64 / self.queries.max(1) as f64
    }

    /// Mean hits per query.
    pub fn hits_per_query(&self) -> f64 {
        self.hits as f64 / self.queries.max(1) as f64
    }

    /// Mean reads per query with the output term removed, assuming one
    /// read per `per_block` reported segments — the "search cost" the
    /// paper's `log` terms describe.
    pub fn search_reads_per_query(&self, per_block: usize) -> f64 {
        (self
            .reads
            .saturating_sub(self.hits / per_block.max(1) as u64)) as f64
            / self.queries.max(1) as f64
    }
}

/// Run a query batch against any structure exposing a query closure,
/// which collects each query's hits into the list it is handed,
/// measuring physical reads via the pager.
pub fn run_batch(
    pager: &Pager,
    queries: &[VerticalQuery],
    mut run: impl FnMut(&VerticalQuery, &mut Vec<Segment>),
) -> Agg {
    let mut agg = Agg {
        queries: queries.len() as u64,
        ..Agg::default()
    };
    for q in queries {
        let before = pager.stats();
        let mut hits = Vec::new();
        run(q, &mut hits);
        let after = pager.stats();
        agg.reads += after.reads - before.reads;
        agg.hits += hits.len() as u64;
    }
    agg
}

/// log₂ of `x` as f64 (≥ 1 guard).
pub fn lg(x: f64) -> f64 {
    x.max(2.0).log2()
}

/// `log*(x)`: how many times `log₂` must be applied before the result
/// drops to ≤ 1.
pub fn log_star(x: f64) -> u32 {
    let mut x = x;
    let mut n = 0;
    while x > 1.0 {
        x = x.log2();
        n += 1;
    }
    n
}

/// The paper's `IL*(B)`: "the number of times we must repeatedly apply
/// the `log*` function to `B` before the result becomes ≤ 2". For every
/// feasible block size it is a small constant — the additive term in
/// Lemma 3 and both theorems.
pub fn il_star(b: u64) -> u32 {
    let mut x = b as f64;
    let mut n = 0;
    while x > 2.0 {
        x = log_star(x) as f64;
        n += 1;
    }
    n
}

/// Ordinary-least-squares slope of `y` against `x` — used to check that
/// measured cost grows like a predicted curve (slope ≈ constant factor).
pub fn ols_slope(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    let (sx, sy): (f64, f64) = points
        .iter()
        .fold((0.0, 0.0), |a, p| (a.0 + p.0, a.1 + p.1));
    let (mx, my) = (sx / n, sy / n);
    let num: f64 = points.iter().map(|(x, y)| (x - mx) * (y - my)).sum();
    let den: f64 = points.iter().map(|(x, _)| (x - mx) * (x - mx)).sum();
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Pearson correlation of the points — how well a predicted curve
/// explains the measurements (≈ 1 ⇒ the asymptotic shape holds).
pub fn correlation(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    if n < 2.0 {
        return 1.0;
    }
    let (sx, sy): (f64, f64) = points
        .iter()
        .fold((0.0, 0.0), |a, p| (a.0 + p.0, a.1 + p.1));
    let (mx, my) = (sx / n, sy / n);
    let cov: f64 = points.iter().map(|(x, y)| (x - mx) * (y - my)).sum();
    let vx: f64 = points.iter().map(|(x, _)| (x - mx).powi(2)).sum();
    let vy: f64 = points.iter().map(|(_, y)| (y - my).powi(2)).sum();
    if vx == 0.0 || vy == 0.0 {
        return 1.0;
    }
    cov / (vx * vy).sqrt()
}

/// An uncached pager of `page`-byte pages: every access is a device I/O,
/// so the counts are the paper's.
pub fn fresh_pager(page: usize) -> Pager {
    Pager::new(PagerConfig {
        page_size: page,
        cache_pages: 0,
    })
}

/// Two-decimal formatting shortcut.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// One-decimal formatting shortcut.
pub fn f1(x: f64) -> String {
    format!("{x:.1}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ols_recovers_line() {
        let pts: Vec<(f64, f64)> = (1..20).map(|i| (i as f64, 3.0 * i as f64 + 5.0)).collect();
        assert!((ols_slope(&pts) - 3.0).abs() < 1e-9);
        assert!((correlation(&pts) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn il_star_is_a_small_constant() {
        // log*(2^16) = 4 → IL* small; every feasible B gives ≤ 3.
        assert_eq!(log_star(2.0), 1);
        assert_eq!(log_star(16.0), 3);
        for b in [4u64, 16, 64, 256, 1024, 1 << 20, 1 << 40] {
            assert!(il_star(b) <= 3, "IL*({b}) = {}", il_star(b));
        }
        assert_eq!(il_star(2), 0);
    }

    #[test]
    fn agg_math() {
        let a = Agg {
            queries: 10,
            reads: 200,
            hits: 400,
        };
        assert_eq!(a.reads_per_query(), 20.0);
        assert_eq!(a.hits_per_query(), 40.0);
        assert_eq!(a.search_reads_per_query(100), 19.6);
    }
}
