//! E10 — why VS indexing matters: crossover against the two baselines a
//! 1998 practitioner would use (full scan; stabbing index + filter).
//!
//! The stabbing reduction retrieves *every* segment crossing the whole
//! vertical line (`t_stab`), while a VS query only wants those meeting
//! the bounded segment (`t ≤ t_stab`). The gap — and thus the win of the
//! paper's structures — grows as query segments get shorter and stored
//! segments get longer. Regenerates: reads/query for both of the paper's
//! configurations and both baselines across a (query height ×
//! long-segment share) grid. The driver lives
//! in [`segdb_bench::experiments::run_e10`] so tests exercise it at toy
//! sizes; `BENCH_e10.json` carries the per-kind I/O histograms and the
//! paper-bound cost-model fits.

use segdb_bench::{experiments, report};

fn main() {
    experiments::run_e10(40_000, 40, &[100, 500, 900], &[1, 20, 200]);
    println!("\nExpected shape: Sol1/Sol2 ≪ stab+filter when t ≪ t_stab (short queries over long segments); all indexes ≪ scan; stab+filter approaches Sol2 as the query height grows toward the whole line.");
    report::finish("e10").expect("write BENCH_e10.json");
}
