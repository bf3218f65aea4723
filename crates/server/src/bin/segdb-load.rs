//! `segdb-load` — closed-loop load driver for a running `segdb serve`.
//!
//! ```text
//! segdb-load --addr 127.0.0.1:7878 --connections 4 --requests 400 \
//!            --family mixed --n 2000 --seed 42 [--no-verify] [--shutdown] \
//!            [--chaos SEED] [--max-retries K] [--attempt-timeout-ms MS] \
//!            [--out PATH]
//! ```
//!
//! `--write-pct P` turns `P` % of the request slots into writes (the
//! server must be serving with `--wal`): commuting inserts/deletes whose
//! final state is checked post-run against the shadow model, with
//! per-op-kind latency histograms in the report (exit 1 on a sweep
//! mismatch, same as a wrong verified answer).
//!
//! `--cluster` declares the address to be a scatter-gather router
//! (`segdb-cli route`); the report then carries a `cluster` block with
//! one entry per shard — upstream call tallies and the round-trip
//! latency histogram the router keeps per shard.
//!
//! `--chaos SEED` arms the standard wire-fault torture mix on every
//! connection (seeded `SEED + connection`); the report's `net` block
//! then carries the replay-stable `trace_digest` and the
//! injected-vs-observed balance. `--max-retries` and
//! `--attempt-timeout-ms` tune the resilient client.
//!
//! Prints the run report as JSON on stdout and writes the same document
//! to `BENCH_serve.json` (in `$SEGDB_BENCH_DIR` or the working
//! directory, unless `--out` overrides it). Exits 1 when any verified
//! answer was wrong, 2 on usage or I/O errors.

use segdb_obs::Json;
use segdb_server::chaos::NetFaultPlan;
use segdb_server::load::{self, LoadConfig};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "usage: segdb-load [--addr HOST:PORT] [--connections K] [--requests N] \
[--family fan|grid|strips|temporal|nested|mixed] [--n N] [--seed S] [--no-verify] \
[--mode collect|count|exists|limit:K|mix] [--write-pct P] [--cluster] [--shutdown] \
[--chaos SEED] [--max-retries K] [--attempt-timeout-ms MS] [--out PATH]";

fn fail(code: &str, message: &str) -> ExitCode {
    eprintln!(
        "{}",
        Json::obj([
            ("error", Json::Str(code.to_string())),
            ("message", Json::Str(message.to_string())),
        ])
        .render()
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut cfg = LoadConfig::default();
    let mut out: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--no-verify" {
            cfg.verify = false;
            continue;
        }
        if flag == "--shutdown" {
            cfg.shutdown_after = true;
            continue;
        }
        if flag == "--cluster" {
            cfg.cluster = true;
            continue;
        }
        if flag == "--help" || flag == "-h" {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        let Some(value) = args.next() else {
            return fail("usage", &format!("{flag} needs a value; {USAGE}"));
        };
        let parsed = match flag.as_str() {
            "--addr" => {
                cfg.addr = value;
                Ok(())
            }
            "--connections" => value.parse().map(|v: usize| cfg.connections = v.max(1)),
            "--requests" => value.parse().map(|v| cfg.requests = v),
            "--n" => value.parse().map(|v| cfg.n = v),
            "--seed" => value.parse().map(|v| cfg.seed = v),
            "--write-pct" => value.parse().map(|v: u32| cfg.write_pct = v.min(100)),
            "--chaos" => value
                .parse()
                .map(|s| cfg.chaos_plan = Some(NetFaultPlan::chaotic(s))),
            "--max-retries" => value.parse().map(|v| cfg.max_retries = v),
            "--attempt-timeout-ms" => value
                .parse()
                .map(|ms: u64| cfg.attempt_timeout = Duration::from_millis(ms.max(1))),
            "--family" => match load::parse_family(&value) {
                Some(f) => {
                    cfg.family = f;
                    Ok(())
                }
                None => return fail("usage", &format!("unknown family `{value}`")),
            },
            "--mode" => match load::parse_mode(&value) {
                Some(m) => {
                    cfg.mode = m;
                    Ok(())
                }
                None => return fail("usage", &format!("unknown mode `{value}`")),
            },
            "--out" => {
                out = Some(PathBuf::from(value));
                Ok(())
            }
            other => return fail("usage", &format!("unknown flag `{other}`; {USAGE}")),
        };
        if parsed.is_err() {
            return fail("usage", &format!("bad value for {flag}"));
        }
    }

    let (doc, wrong) = match load::run_load(&cfg) {
        Ok(r) => (r.to_json(&cfg).render(), r.wrong + r.sweep_wrong),
        Err(e) => return fail("io", &format!("load run failed: {e}")),
    };
    println!("{doc}");
    let path = out.unwrap_or_else(|| {
        std::env::var_os("SEGDB_BENCH_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from("."))
            .join("BENCH_serve.json")
    });
    if let Err(e) = std::fs::write(&path, doc + "\n") {
        return fail("io", &format!("cannot write {}: {e}", path.display()));
    }
    if wrong > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
