#![warn(missing_docs)]

//! # segdb-cli — the segment database from the command line
//!
//! ```text
//! segdb-cli gen <family> <n> <seed>                      # emit CSV to stdout
//! segdb-cli build <db> <csv> [options]                   # build a persistent DB
//! segdb-cli info <db>                                    # superblock + space summary
//! segdb-cli query <db> line <x> [y]                      # line through (x,y); y defaults to 0
//! segdb-cli query <db> segment <x1> <y1> <x2> <y2>       # VS query (aligned endpoints)
//! segdb-cli query <db> ray-up <x> <y> | ray-down <x> <y>
//! segdb-cli query <db> free <x1> <y1> <x2> <y2>          # any-direction (§5 extension)
//! segdb-cli query --remote <host:port> <shape> <coords…>  # the same query, served
//!
//! query modes (line / ray-up / ray-down / segment, local or remote):
//!   --count                 answer with the hit count only (no segments
//!                           are streamed; count-capable indexes skip
//!                           second-level page reads entirely)
//!   --exists                answer `true`/`false`, stopping at the
//!                           first hit
//!   --limit <k>             report at most k segments, then stop
//! segdb-cli insert <db> <id> <x1> <y1> <x2> <y2>
//! segdb-cli remove <db> <id> <x1> <y1> <x2> <y2>
//! segdb-cli insert --remote <host:port> <id> <x1> <y1> <x2> <y2>
//! segdb-cli remove --remote <host:port> <id> <x1> <y1> <x2> <y2>
//! segdb-cli stats <db> [csv] [--sample <n>] [--seed <s>] [--human]
//! segdb-cli stats --remote <host:port>                   # a running server's stats
//! segdb-cli slowlog --remote <host:port>                 # its slow-query log
//! segdb-cli trace <db> <shape> <coords…> [--human]
//! segdb-cli serve <db> [serve options]                   # TCP query server
//! segdb-cli partition <csv> <k> <out-dir> [partition options]  # shard a CSV by x-range
//! segdb-cli route <map.json> [route options]             # scatter-gather router
//! segdb-cli health --remote <host:port>                  # server/cluster health probe
//! segdb-cli sync --remote <replica> <peer> [--from <seq>]  # replay missed WAL records
//! segdb-cli torture [torture options]                    # seeded crash-recovery sweep
//!
//! build options:
//!   --page-size <bytes>     block size (default 4096)
//!   --index <kind>          binary | interval (default interval)
//!   --direction <dx,dy>     fixed query direction (default 0,1)
//!   --arbitrary             also build the any-direction extension
//!   --trust                 skip the NCT validation sweep (≈ 0.1 s per 100 k segments)
//!
//! serve options:
//!   --addr <host:port>      bind address (default 127.0.0.1:7878; :0 = any port)
//!   --workers <n>           executor threads (default 4)
//!   --cache-pages <n>       buffer-pool capacity in pages (default 256)
//!   --cache-shards <n>      buffer-pool lock shards (default 8)
//!   --queue-depth <n>       bounded job queue; beyond it requests get
//!                           an `overloaded` error (default 64)
//!   --timeout-ms <n>        per-request deadline (default 5000)
//!   --write-timeout-ms <n>  per-reply write deadline; a stalled peer
//!                           loses the connection (default 2000)
//!   --idle-timeout-ms <n>   reap connections whose next request line
//!                           does not arrive in time (default 30000)
//!   --max-connections <n>   admission gate; one beyond it is answered
//!                           `overloaded` and closed (default 256)
//!   --drain-ms <n>          bound on waiting for live connections to
//!                           finish after shutdown (default 5000)
//!   --slowlog-entries <n>   keep the n worst requests for the `slowlog`
//!                           wire method (default 32; 0 disables)
//!   --slowlog-threshold-us <n>
//!                           only requests at least this slow enter the
//!                           slow-query log (default 0: every request)
//!   --wal <path>            serve writable: open (replaying) or create
//!                           a write-ahead log and accept `insert` /
//!                           `delete` / `flush` wire methods
//!   --group-window <n>      WAL group-commit window in records
//!                           (default 8)
//!   --delta-limit <n>       delta-overlay bound before a partial
//!                           rebuild folds it into the index
//!                           (default 1024)
//!   --compact-min-tombs <n> background-compact once this many
//!                           tombstones accumulate (default 0: off)
//!   --compact-interval-ms <n>
//!                           compactor poll cadence (default 500)
//!
//! partition options:
//!   --replicas <r>          plan an r-way replica set per shard: the
//!                           summary records `replicas` and, with
//!                           `--map-out`, the template lists r
//!                           addresses per shard (default 1)
//!   --map-out <file>        write a ready-to-edit shard-map v2 JSON
//!                           (`{"replicas":[...],"until":...}` entries
//!                           with deterministic local placeholder
//!                           ports) next to the shard CSVs
//!
//! route options:
//!   --addr <host:port>      bind address (default 127.0.0.1:0)
//!   --max-retries <n>       upstream retries per replica call (default
//!                           4; kept small — downstream clients retry
//!                           too)
//!   --attempt-timeout-ms <n>
//!                           per-attempt deadline of one replica call
//!                           (default 2000)
//!   --no-hedge              disable hedged first read attempts (on by
//!                           default when a shard has 2+ live replicas)
//!   --breaker-failures <n>  consecutive infrastructure failures that
//!                           trip a replica's circuit breaker open
//!                           (default 3)
//!   --breaker-cooldown-ms <n>
//!                           how long a tripped breaker stays open
//!                           before admitting one half-open probe
//!                           (default 1000)
//!   --forward-shutdown      relay a wire `shutdown` to every replica
//!                           before the router stops (default: shards
//!                           keep running)
//!
//! torture options:
//!   --seed <s>              first master seed (default 1)
//!   --scenarios <k>         seeds per index kind (default 5)
//!   --n <n>                 initial segment count (default 80)
//!   --rounds <r>            workload rounds per scenario (default 5)
//!   --page-size <bytes>     block size (default 512)
//! ```
//!
//! `torture` runs `scenarios × 4` seeded crash-recovery scenarios (one
//! sweep per index kind) over a deterministic fault-injecting device —
//! see `segdb_core::torture` — and prints one JSON line of aggregate
//! counters plus a fault-trace digest. The output is a pure function of
//! the arguments: running the same invocation twice must print the
//! identical line (the deflake guarantee `check.sh` asserts).
//!
//! `stats` runs a deterministic sample workload of line queries with the
//! observability layer attached and prints the metric registry snapshot
//! plus the cost-model fit (JSON by default, `--human` for a table).
//! When a CSV data file is given, query anchors are sampled from the
//! stored segments so the workload actually reports hits; otherwise
//! anchors sweep a fixed coordinate window. `trace` runs one query
//! (same shapes as `query`) with event tracing on and prints the
//! enriched per-query trace plus the span summary. Schemas are
//! documented in the repo README under "Observability".
//!
//! `serve` opens the database for concurrent serving (sharded buffer
//! pool, observability on), prints `listening on <addr>` and blocks
//! until a wire `shutdown` request arrives (protocol in the repo README
//! under "Serving"; drive load with `segdb-load`). Without `--wal` the
//! database is read-only; with it, writes are WAL-durable and `insert
//! --remote` / `remove --remote` reach the same server through the
//! resilient client (DESIGN.md §13).
//!
//! `partition` splits a segment CSV into `k` x-range shards at
//! endpoint-median cuts (DESIGN.md §14): each shard file holds every
//! segment whose x-span touches its range, so segments crossing a cut
//! are *replicated* into each side — the per-node short/long split of
//! Theorem 2 applied across machines. It writes `shard0.csv` …
//! `shard{k-1}.csv` into the output directory and prints the cut
//! abscissae as JSON; feed those cuts into a shard-map file and `route`
//! serves the cluster behind one address. With `--replicas <r>` the
//! planned topology gives each shard an r-way replica set (every
//! replica serves the *same* fragment CSV behind its own WAL), and
//! `--map-out` writes the shard-map v2 template to edit addresses
//! into. `health --remote` asks a server (or router, which pings every
//! replica and feeds the per-replica circuit breakers) whether it is
//! up and writable. `sync --remote <replica> <peer>` tells a restarted
//! replica to pull the WAL records it missed from a caught-up peer of
//! the same shard (the `sync_from` wire method, DESIGN.md §15) before
//! it rejoins reads.
//!
//! `slowlog --remote` prints a running server's slow-query log — the K
//! worst requests with per-stage timings (queue/exec/write µs), pages
//! touched and the client correlation ids (DESIGN.md §12; see also the
//! `latency`/`pages` blocks of `stats --remote`).
//!
//! The CSV format is `id,x1,y1,x2,y2`, one segment per line; `#` starts
//! a comment. All logic lives in this library crate so the integration
//! tests drive [`run`] directly.

use segdb_core::{
    torture, DbError, IndexKind, Query, QueryAnswer, QueryMode, QueryTrace, SegmentDatabase, XCuts,
};
use segdb_geom::gen::Family;
use segdb_geom::Segment;
use segdb_obs::trace::TraceSummary;
use segdb_obs::Json;
use segdb_rng::SmallRng;
use std::fmt::Write as _;

/// Everything that can go wrong at the CLI surface.
#[derive(Debug)]
pub enum CliError {
    /// Bad arguments; the string is a usage hint.
    Usage(String),
    /// Input file problems.
    Io(String),
    /// Database-level failure.
    Db(DbError),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(s) => write!(f, "usage error: {s}"),
            CliError::Io(s) => write!(f, "I/O error: {s}"),
            CliError::Db(e) => write!(f, "database error: {e}"),
        }
    }
}

impl std::error::Error for CliError {}

impl CliError {
    /// Stable machine-readable error class.
    pub fn code(&self) -> &'static str {
        match self {
            CliError::Usage(_) => "usage",
            CliError::Io(_) => "io",
            CliError::Db(_) => "db",
        }
    }

    /// Structured form the binary prints to stderr:
    /// `{"error":"io","message":"..."}`.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("error", Json::Str(self.code().to_string())),
            ("message", Json::Str(self.to_string())),
        ])
    }

    /// Process exit code: 2 for usage mistakes, 1 for runtime failures.
    pub fn exit_code(&self) -> u8 {
        match self {
            CliError::Usage(_) => 2,
            CliError::Io(_) | CliError::Db(_) => 1,
        }
    }
}

impl From<DbError> for CliError {
    fn from(e: DbError) -> Self {
        CliError::Db(e)
    }
}

fn usage<T>(msg: impl Into<String>) -> Result<T, CliError> {
    Err(CliError::Usage(msg.into()))
}

/// Parse a CSV body (`id,x1,y1,x2,y2` lines) into segments.
pub fn parse_csv(body: &str) -> Result<Vec<Segment>, CliError> {
    let mut out = Vec::new();
    for (ln, line) in body.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut it = line.split(',').map(str::trim);
        let mut next_i64 = |what: &str| -> Result<i64, CliError> {
            it.next()
                .ok_or_else(|| CliError::Io(format!("line {}: missing {what}", ln + 1)))?
                .parse::<i64>()
                .map_err(|e| CliError::Io(format!("line {}: bad {what}: {e}", ln + 1)))
        };
        let id = next_i64("id")? as u64;
        let (x1, y1, x2, y2) = (
            next_i64("x1")?,
            next_i64("y1")?,
            next_i64("x2")?,
            next_i64("y2")?,
        );
        let seg = Segment::new(id, (x1, y1), (x2, y2))
            .map_err(|e| CliError::Io(format!("line {}: {e}", ln + 1)))?;
        out.push(seg);
    }
    Ok(out)
}

/// Render segments as the CSV format `parse_csv` accepts.
pub fn to_csv(segs: &[Segment]) -> String {
    let mut s = String::with_capacity(segs.len() * 24);
    s.push_str("# id,x1,y1,x2,y2\n");
    for seg in segs {
        let _ = writeln!(
            s,
            "{},{},{},{},{}",
            seg.id, seg.a.x, seg.a.y, seg.b.x, seg.b.y
        );
    }
    s
}

fn parse_index(s: &str) -> Result<IndexKind, CliError> {
    Ok(match s {
        "binary" => IndexKind::TwoLevelBinary,
        "interval" => IndexKind::TwoLevelInterval,
        _ => return usage(format!("unknown index kind '{s}' (binary | interval)")),
    })
}

fn parse_family(s: &str) -> Result<Family, CliError> {
    Family::ALL
        .into_iter()
        .find(|f| f.name() == s)
        .map_or_else(|| usage(format!("unknown family '{s}'")), Ok)
}

fn want<'a>(args: &'a [String], i: usize, what: &str) -> Result<&'a str, CliError> {
    args.get(i)
        .map(String::as_str)
        .map_or_else(|| usage(format!("missing {what}")), Ok)
}

fn num(args: &[String], i: usize, what: &str) -> Result<i64, CliError> {
    want(args, i, what)?
        .parse()
        .map_err(|e| CliError::Usage(format!("bad {what}: {e}")))
}

/// Parse the query `<shape> <coords…>` at `args[at..]` — `line <x> [y]`
/// (`y` defaults to 0, as on the wire), `ray-up <x> <y>`,
/// `ray-down <x> <y>` or `segment <x1> <y1> <x2> <y2>`: the one
/// spelling `query`, `query --remote` and `trace` share.
fn parse_query(args: &[String], at: usize) -> Result<Query, CliError> {
    let c = |i: usize, what: &str| num(args, at + i, what);
    Ok(match want(args, at, "query shape")? {
        "line" => Query::Line {
            x: c(1, "x")?,
            y: if args.len() > at + 2 { c(2, "y")? } else { 0 },
        },
        "ray-up" => Query::RayUp {
            x: c(1, "x")?,
            y: c(2, "y")?,
        },
        "ray-down" => Query::RayDown {
            x: c(1, "x")?,
            y: c(2, "y")?,
        },
        "segment" => Query::Segment {
            x1: c(1, "x1")?,
            y1: c(2, "y1")?,
            x2: c(3, "x2")?,
            y2: c(4, "y2")?,
        },
        other => {
            return usage(format!(
                "unknown query shape '{other}' (line|ray-up|ray-down|segment)"
            ))
        }
    })
}

fn render_stats_human(snapshot: &Json) -> String {
    let mut out = String::new();
    let f = |k: &str| snapshot.get(k).and_then(Json::as_f64).unwrap_or(0.0);
    let s = |k: &str| {
        snapshot
            .get(k)
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_string()
    };
    let _ = writeln!(out, "index:             {}", s("index"));
    let _ = writeln!(out, "segments:          {}", f("segments"));
    let _ = writeln!(out, "block capacity B:  {}", f("block_segments"));
    let _ = writeln!(out, "space blocks:      {}", f("space_blocks"));
    let _ = writeln!(out, "cache hit ratio:   {:.3}", f("cache_hit_ratio"));
    let _ = writeln!(
        out,
        "fanout util:       {:.1}%",
        f("fanout_utilization_pct")
    );
    if let Some(cm) = snapshot.get("cost_model") {
        let g = |k: &str| cm.get(k).and_then(Json::as_f64);
        let _ = writeln!(
            out,
            "cost model:        {} (bound {})",
            cm.get("kind").and_then(Json::as_str).unwrap_or("?"),
            cm.get("formula").and_then(Json::as_str).unwrap_or("?"),
        );
        match g("fitted_constant") {
            Some(c) => {
                let _ = writeln!(out, "fitted constant:   {c:.3}");
            }
            None => {
                let _ = writeln!(out, "fitted constant:   (warming up)");
            }
        }
        let _ = writeln!(out, "bound violations:  {}", g("violations").unwrap_or(0.0));
    }
    if let Some(metrics) = snapshot.get("metrics") {
        if let Some(Json::Obj(counters)) = metrics.get("counters") {
            let _ = writeln!(out, "counters:");
            for (k, v) in counters {
                let _ = writeln!(out, "  {k:24} {}", v.as_f64().unwrap_or(0.0));
            }
        }
        if let Some(Json::Obj(hists)) = metrics.get("histograms") {
            let _ = writeln!(out, "histograms:");
            for (k, h) in hists {
                let g = |f: &str| h.get(f).and_then(Json::as_f64).unwrap_or(0.0);
                let _ = writeln!(
                    out,
                    "  {k:24} n={} mean={:.2} min={} max={}",
                    g("count"),
                    g("mean"),
                    g("min"),
                    g("max"),
                );
            }
        }
    }
    out
}

fn render_trace_human(hits: &[Segment], trace: &QueryTrace, summary: &TraceSummary) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "hits:                 {}", hits.len());
    let _ = writeln!(out, "first-level nodes:    {}", trace.first_level_nodes);
    let _ = writeln!(out, "second-level probes:  {}", trace.second_level_probes);
    let _ = writeln!(out, "bridge jumps:         {}", trace.bridge_jumps);
    let _ = writeln!(
        out,
        "io:                   {} reads, {} writes, {} cache hits",
        trace.io.reads, trace.io.writes, trace.io.cache_hits
    );
    match trace.cost {
        Some(c) => {
            let _ = writeln!(
                out,
                "cost bound:           measured {} vs bound {:.1} — {}",
                c.measured,
                c.bound,
                if c.within { "within" } else { "VIOLATED" }
            );
        }
        None => {
            let _ = writeln!(out, "cost bound:           (fitter not warmed up)");
        }
    }
    let _ = writeln!(
        out,
        "spans:                {} events ({} dropped), max depth {}",
        summary.events, summary.dropped, summary.max_depth
    );
    let _ = writeln!(
        out,
        "node visits:          pst={} itree={} bptree={}",
        summary.pst_nodes, summary.itree_nodes, summary.bptree_nodes
    );
    out
}

/// A resilient client with CLI-friendly defaults for one-shot commands.
fn remote_client(addr: &str) -> segdb_server::Client {
    // Each CLI invocation is a fresh client session; derive a unique
    // request-id base so write ids never collide with a previous
    // invocation's in the server's idempotence window (retries within
    // *this* invocation still reuse their id, which is the point).
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.subsec_nanos() as u64 ^ d.as_secs())
        .unwrap_or(0);
    let id_base = (nanos ^ ((std::process::id() as u64) << 32)) << 16;
    segdb_server::Client::new(segdb_server::ClientConfig {
        addr: addr.to_string(),
        id_base,
        ..segdb_server::ClientConfig::default()
    })
}

/// Strip `--count` / `--exists` / `--limit <k>` out of a `query`
/// argument list, returning the selected mode and the remaining
/// positional arguments.
fn split_query_mode(args: &[String]) -> Result<(QueryMode, Vec<String>), CliError> {
    let mut mode = QueryMode::Collect;
    let mut rest = Vec::with_capacity(args.len());
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--count" => mode = QueryMode::Count,
            "--exists" => mode = QueryMode::Exists,
            "--limit" => {
                let k = num(args, i + 1, "limit")?;
                if k < 0 {
                    return usage("limit must be non-negative");
                }
                mode = QueryMode::Limit(k as u32);
                i += 1;
            }
            other => rest.push(other.to_string()),
        }
        i += 1;
    }
    Ok((mode, rest))
}

/// Render a mode-aware query answer: segments as CSV for collect/limit,
/// a bare number for `--count`, `true`/`false` for `--exists`, plus a
/// trailing `#` summary line carrying the I/O counters.
fn render_answer(answer: &QueryAnswer, trace: &QueryTrace) -> String {
    let mut out = String::new();
    match answer {
        QueryAnswer::Segments(hits) => {
            for h in hits {
                let _ = writeln!(out, "{},{},{},{},{}", h.id, h.a.x, h.a.y, h.b.x, h.b.y);
            }
            let _ = writeln!(out, "# {} hits, {} block reads", hits.len(), trace.io.reads);
        }
        QueryAnswer::Count(c) => {
            let _ = writeln!(out, "{c}");
            let _ = writeln!(
                out,
                "# count, {} block reads, {} pages saved",
                trace.io.reads, trace.pages_saved
            );
        }
        QueryAnswer::Exists(found) => {
            let _ = writeln!(out, "{found}");
            let _ = writeln!(out, "# exists, {} block reads", trace.io.reads);
        }
    }
    out
}

/// `query --remote <addr> <shape> <coords…>`: run one query against a
/// live server through the resilient (reconnect-and-retry) client.
fn run_remote_query(addr: &str, q: &Query, mode: QueryMode) -> Result<String, CliError> {
    let (method, params) = segdb_server::proto::query_wire(q);
    let reply = remote_client(addr)
        .query_mode(method, &params, mode)
        .map_err(|e| CliError::Io(format!("remote query failed: {e}")))?;
    let mut out = String::new();
    match mode {
        QueryMode::Count => {
            let _ = writeln!(out, "{}", reply.count);
            let _ = writeln!(out, "# count (remote)");
        }
        QueryMode::Exists => {
            let _ = writeln!(out, "{}", reply.count > 0);
            let _ = writeln!(out, "# exists (remote)");
        }
        QueryMode::Collect | QueryMode::Limit(_) => {
            for id in &reply.ids {
                let _ = writeln!(out, "{id}");
            }
            let _ = writeln!(out, "# {} hits (remote ids)", reply.ids.len());
        }
    }
    Ok(out)
}

/// Run one CLI invocation (`args` excludes the program name); returns the
/// text that would be printed.
pub fn run(args: &[String]) -> Result<String, CliError> {
    match want(args, 0, "command")? {
        "gen" => {
            let family = parse_family(want(args, 1, "family")?)?;
            let n = num(args, 2, "n")? as usize;
            let seed = num(args, 3, "seed")? as u64;
            Ok(to_csv(&family.generate(n, seed)))
        }
        "build" => {
            let db_path = want(args, 1, "db path")?;
            let csv_path = want(args, 2, "csv path")?;
            let body =
                std::fs::read_to_string(csv_path).map_err(|e| CliError::Io(e.to_string()))?;
            let segs = parse_csv(&body)?;
            let mut builder = SegmentDatabase::builder().persist_to(db_path);
            let mut i = 3;
            while i < args.len() {
                match args[i].as_str() {
                    "--page-size" => {
                        builder = builder.page_size(num(args, i + 1, "page size")? as usize);
                        i += 2;
                    }
                    "--index" => {
                        builder = builder.index(parse_index(want(args, i + 1, "index kind")?)?);
                        i += 2;
                    }
                    "--direction" => {
                        let spec = want(args, i + 1, "direction")?;
                        let (dx, dy) = spec
                            .split_once(',')
                            .ok_or_else(|| CliError::Usage("direction must be dx,dy".into()))?;
                        let dx = dx
                            .trim()
                            .parse()
                            .map_err(|_| CliError::Usage("bad dx".into()))?;
                        let dy = dy
                            .trim()
                            .parse()
                            .map_err(|_| CliError::Usage("bad dy".into()))?;
                        builder = builder.direction(dx, dy)?;
                        i += 2;
                    }
                    "--arbitrary" => {
                        builder = builder.enable_arbitrary_queries();
                        i += 1;
                    }
                    "--trust" => {
                        builder = builder.trust_input();
                        i += 1;
                    }
                    other => return usage(format!("unknown build option '{other}'")),
                }
            }
            let db = builder.build(segs)?;
            Ok(format!(
                "built {} segments into {} ({} blocks)\n",
                db.len(),
                db_path,
                db.space_blocks()
            ))
        }
        "info" => {
            let db = SegmentDatabase::open(want(args, 1, "db path")?, 0)?;
            let d = db.direction();
            Ok(format!(
                "index:    {:?}\nsegments: {}\nblocks:   {}\npage:     {} bytes\ndirection: ({}, {})\n",
                db.kind(),
                db.len(),
                db.space_blocks(),
                db.pager().page_size(),
                d.dx(),
                d.dy(),
            ))
        }
        "query" => {
            let (mode, args) = split_query_mode(args)?;
            let args = args.as_slice();
            if want(args, 1, "db path")? == "--remote" {
                let q = parse_query(args, 3)?;
                return run_remote_query(want(args, 2, "address")?, &q, mode);
            }
            let db = SegmentDatabase::open(want(args, 1, "db path")?, 0)?;
            let (answer, trace) = if want(args, 2, "query shape")? == "free" {
                if mode != QueryMode::Collect {
                    return usage("query modes apply to line|ray-up|ray-down|segment only");
                }
                let (hits, trace) = db.query_free_segment(
                    (num(args, 3, "x1")?, num(args, 4, "y1")?),
                    (num(args, 5, "x2")?, num(args, 6, "y2")?),
                )?;
                (QueryAnswer::Segments(hits), trace)
            } else {
                db.query(&parse_query(args, 2)?, mode)?
            };
            Ok(render_answer(&answer, &trace))
        }
        "stats" => {
            if want(args, 1, "db path")? == "--remote" {
                let addr = want(args, 2, "address")?;
                let doc = remote_client(addr)
                    .remote_stats()
                    .map_err(|e| CliError::Io(format!("remote stats failed: {e}")))?;
                return Ok(format!("{}\n", doc.render()));
            }
            let db_path = want(args, 1, "db path")?;
            let mut sample = 64usize;
            let mut seed = 1u64;
            let mut human = false;
            let mut csv: Option<String> = None;
            let mut i = 2;
            while i < args.len() {
                match args[i].as_str() {
                    "--sample" => {
                        sample = num(args, i + 1, "sample count")? as usize;
                        i += 2;
                    }
                    "--seed" => {
                        seed = num(args, i + 1, "seed")? as u64;
                        i += 2;
                    }
                    "--human" => {
                        human = true;
                        i += 1;
                    }
                    other if !other.starts_with('-') && csv.is_none() => {
                        csv = Some(other.to_string());
                        i += 1;
                    }
                    other => return usage(format!("unknown stats option '{other}'")),
                }
            }
            let mut db = SegmentDatabase::open(db_path, 0)?;
            db.set_observability(true);
            let mut rng = SmallRng::seed_from_u64(seed);
            let anchors: Vec<(i64, i64)> = match &csv {
                Some(path) => {
                    let body =
                        std::fs::read_to_string(path).map_err(|e| CliError::Io(e.to_string()))?;
                    let segs = parse_csv(&body)?;
                    if segs.is_empty() {
                        return Err(CliError::Io("empty data file".into()));
                    }
                    (0..sample)
                        .map(|_| {
                            let s = segs[rng.gen_range(0..segs.len())];
                            ((s.a.x + s.b.x) / 2, (s.a.y + s.b.y) / 2)
                        })
                        .collect()
                }
                None => (0..sample)
                    .map(|_| (rng.gen_range(-(1i64 << 20)..(1i64 << 20)), 0))
                    .collect(),
            };
            for (x, y) in anchors {
                db.query(&Query::Line { x, y }, QueryMode::Collect)?;
            }
            let snapshot = db.metrics_json().expect("observability just enabled");
            if human {
                Ok(render_stats_human(&snapshot))
            } else {
                Ok(format!("{}\n", snapshot.render()))
            }
        }
        "slowlog" => {
            if want(args, 1, "--remote")? != "--remote" {
                return usage("slowlog serves remote servers only: slowlog --remote <host:port>");
            }
            let addr = want(args, 2, "address")?;
            let doc = remote_client(addr)
                .remote_slowlog()
                .map_err(|e| CliError::Io(format!("remote slowlog failed: {e}")))?;
            Ok(format!("{}\n", doc.render()))
        }
        "trace" => {
            let human = args.last().map(String::as_str) == Some("--human");
            let args = &args[..args.len() - usize::from(human)];
            let q = parse_query(args, 2)?;
            let mut db = SegmentDatabase::open(want(args, 1, "db path")?, 0)?;
            db.set_observability(true);
            let (answer, trace, summary) = db.traced_query(&q)?;
            let hits = answer.segments().unwrap_or_default();
            if human {
                Ok(render_trace_human(hits, &trace, &summary))
            } else {
                let doc = Json::obj([
                    ("shape", Json::Str(args[2].clone())),
                    (
                        "hits",
                        Json::Arr(hits.iter().map(|s| Json::U64(s.id)).collect()),
                    ),
                    ("query", trace.to_json()),
                    ("spans", summary.to_json()),
                ]);
                Ok(format!("{}\n", doc.render()))
            }
        }
        "serve" => {
            let db_path = want(args, 1, "db path")?;
            let mut cfg = segdb_server::ServerConfig {
                addr: "127.0.0.1:7878".to_string(),
                ..segdb_server::ServerConfig::default()
            };
            let mut cache_pages = 256usize;
            let mut cache_shards = 8usize;
            let mut wal_path: Option<String> = None;
            let mut wcfg = segdb_core::WriterConfig::default();
            let mut i = 2;
            while i < args.len() {
                match args[i].as_str() {
                    "--addr" => {
                        cfg.addr = want(args, i + 1, "address")?.to_string();
                    }
                    "--workers" => {
                        cfg.workers = num(args, i + 1, "worker count")?.max(1) as usize;
                    }
                    "--cache-pages" => {
                        cache_pages = num(args, i + 1, "cache pages")?.max(0) as usize;
                    }
                    "--cache-shards" => {
                        cache_shards = num(args, i + 1, "cache shards")?.max(1) as usize;
                    }
                    "--queue-depth" => {
                        cfg.queue_depth = num(args, i + 1, "queue depth")?.max(0) as usize;
                    }
                    "--timeout-ms" => {
                        cfg.request_timeout = std::time::Duration::from_millis(
                            num(args, i + 1, "timeout")?.max(0) as u64,
                        );
                    }
                    "--write-timeout-ms" => {
                        cfg.write_timeout = std::time::Duration::from_millis(
                            num(args, i + 1, "write timeout")?.max(1) as u64,
                        );
                    }
                    "--idle-timeout-ms" => {
                        cfg.idle_timeout = std::time::Duration::from_millis(
                            num(args, i + 1, "idle timeout")?.max(1) as u64,
                        );
                    }
                    "--max-connections" => {
                        cfg.max_connections = num(args, i + 1, "connection limit")?.max(1) as usize;
                    }
                    "--drain-ms" => {
                        cfg.drain_timeout = std::time::Duration::from_millis(
                            num(args, i + 1, "drain bound")?.max(0) as u64,
                        );
                    }
                    "--slowlog-entries" => {
                        cfg.slowlog_entries = num(args, i + 1, "slowlog entries")?.max(0) as usize;
                    }
                    "--slowlog-threshold-us" => {
                        cfg.slowlog_threshold = std::time::Duration::from_micros(
                            num(args, i + 1, "slowlog threshold")?.max(0) as u64,
                        );
                    }
                    "--wal" => {
                        wal_path = Some(want(args, i + 1, "wal path")?.to_string());
                    }
                    "--group-window" => {
                        wcfg.group_window = num(args, i + 1, "group window")?.max(1) as usize;
                    }
                    "--delta-limit" => {
                        wcfg.delta_limit = num(args, i + 1, "delta limit")?.max(1) as usize;
                    }
                    "--compact-min-tombs" => {
                        cfg.compact_min_tombs = num(args, i + 1, "tombstone floor")?.max(0) as u64;
                    }
                    "--compact-interval-ms" => {
                        cfg.compact_interval = std::time::Duration::from_millis(
                            num(args, i + 1, "compact interval")?.max(1) as u64,
                        );
                    }
                    other => return usage(format!("unknown serve option '{other}'")),
                }
                i += 2;
            }
            let mut db = SegmentDatabase::open_sharded(db_path, cache_pages, cache_shards)?;
            db.set_observability(true);
            let server = match wal_path {
                None => segdb_server::Server::start(std::sync::Arc::new(db), cfg),
                Some(wal) => {
                    // Open the log if it exists (replaying its durable
                    // tail), else create it with the database's block size.
                    let dev: Box<dyn segdb_pager::Device> = if std::path::Path::new(&wal).exists() {
                        Box::new(
                            segdb_pager::FileDevice::open(&wal)
                                .map_err(|e| CliError::Io(format!("cannot open WAL: {e}")))?,
                        )
                    } else {
                        let page = db.pager().page_size().max(128);
                        Box::new(
                            segdb_pager::FileDevice::create(&wal, page)
                                .map_err(|e| CliError::Io(format!("cannot create WAL: {e}")))?,
                        )
                    };
                    let (engine, report) = segdb_core::WriteEngine::recover(db, dev, wcfg)?;
                    println!(
                        "wal replayed {} records ({} applied past checkpoint {})",
                        report.replayed, report.applied, report.checkpoint
                    );
                    segdb_server::Server::start_writable(std::sync::Arc::new(engine), cfg)
                }
            }
            .map_err(|e| CliError::Io(format!("cannot bind server: {e}")))?;
            // Announce the resolved address immediately — scripts read
            // this line to learn the port when binding to `:0`.
            println!("listening on {}", server.addr());
            let _ = std::io::Write::flush(&mut std::io::stdout());
            server.wait();
            Ok("server stopped\n".to_string())
        }
        "partition" => {
            let csv_path = want(args, 1, "csv path")?;
            let k = num(args, 2, "shard count")?;
            if k < 1 {
                return usage("shard count must be at least 1");
            }
            let out_dir = want(args, 3, "output directory")?;
            let mut replicas = 1usize;
            let mut map_out: Option<String> = None;
            let mut i = 4;
            while i < args.len() {
                match args[i].as_str() {
                    "--replicas" => {
                        let r = num(args, i + 1, "replica count")?;
                        if r < 1 {
                            return usage("replica count must be at least 1");
                        }
                        replicas = r as usize;
                        i += 2;
                    }
                    "--map-out" => {
                        map_out = Some(want(args, i + 1, "map path")?.to_string());
                        i += 2;
                    }
                    other => return usage(format!("unknown partition option '{other}'")),
                }
            }
            let body =
                std::fs::read_to_string(csv_path).map_err(|e| CliError::Io(e.to_string()))?;
            let segs = parse_csv(&body)?;
            let cuts = XCuts::median_cuts(&segs, k as usize)
                .map_err(|e| CliError::Io(format!("cannot partition: {e}")))?;
            std::fs::create_dir_all(out_dir).map_err(|e| CliError::Io(e.to_string()))?;
            let shards = cuts.fragments(&segs);
            let mut per_shard = Vec::with_capacity(shards.len());
            for (i, shard) in shards.iter().enumerate() {
                let path = std::path::Path::new(out_dir).join(format!("shard{i}.csv"));
                std::fs::write(&path, to_csv(shard))
                    .map_err(|e| CliError::Io(format!("cannot write {}: {e}", path.display())))?;
                per_shard.push(Json::U64(shard.len() as u64));
            }
            let mut fields = vec![
                ("k".to_string(), Json::U64(cuts.shard_count() as u64)),
                (
                    "cuts".to_string(),
                    Json::Arr(cuts.cuts().iter().map(|&c| Json::I64(c)).collect()),
                ),
                ("per_shard".to_string(), Json::Arr(per_shard)),
                ("replicas".to_string(), Json::U64(replicas as u64)),
            ];
            if let Some(map_path) = map_out {
                // A ready-to-edit shard-map v2 template: every replica
                // of shard i serves the same `shard{i}.csv` fragment;
                // the placeholder ports (7001 + i + 1000·r) only need
                // changing when the cluster is not one local host.
                let entries = (0..cuts.shard_count())
                    .map(|i| {
                        let set = (0..replicas)
                            .map(|r| Json::Str(format!("127.0.0.1:{}", 7001 + i + 1000 * r)))
                            .collect();
                        let mut entry = vec![("replicas".to_string(), Json::Arr(set))];
                        if let Some(&cut) = cuts.cuts().get(i) {
                            entry.push(("until".to_string(), Json::I64(cut)));
                        }
                        Json::Obj(entry)
                    })
                    .collect();
                let map = Json::obj([("shards", Json::Arr(entries))]);
                std::fs::write(&map_path, format!("{}\n", map.render()))
                    .map_err(|e| CliError::Io(format!("cannot write {map_path}: {e}")))?;
                fields.push(("map".to_string(), Json::Str(map_path)));
            }
            Ok(format!("{}\n", Json::Obj(fields).render()))
        }
        "route" => {
            let map_path = want(args, 1, "shard-map path")?;
            let body =
                std::fs::read_to_string(map_path).map_err(|e| CliError::Io(e.to_string()))?;
            // A malformed or non-monotonic topology is an operator
            // mistake, not an I/O accident: fail with the structured
            // usage error (exit 2) and never a panic.
            let map = segdb_server::ShardMap::parse(&body)
                .map_err(|e| CliError::Usage(format!("bad shard map {map_path}: {e}")))?;
            let mut cfg = segdb_server::RouterConfig::default();
            let mut i = 2;
            while i < args.len() {
                match args[i].as_str() {
                    "--addr" => {
                        cfg.addr = want(args, i + 1, "address")?.to_string();
                        i += 2;
                    }
                    "--max-retries" => {
                        cfg.max_retries = num(args, i + 1, "retry count")?.max(0) as u32;
                        i += 2;
                    }
                    "--attempt-timeout-ms" => {
                        cfg.attempt_timeout = std::time::Duration::from_millis(
                            num(args, i + 1, "attempt timeout")?.max(1) as u64,
                        );
                        i += 2;
                    }
                    "--no-hedge" => {
                        cfg.hedge_reads = false;
                        i += 1;
                    }
                    "--breaker-failures" => {
                        cfg.breaker.failure_threshold =
                            num(args, i + 1, "failure threshold")?.max(1) as u32;
                        i += 2;
                    }
                    "--breaker-cooldown-ms" => {
                        cfg.breaker.cooldown_ms = num(args, i + 1, "cooldown")?.max(1) as u64;
                        i += 2;
                    }
                    "--forward-shutdown" => {
                        cfg.forward_shutdown = true;
                        i += 1;
                    }
                    other => return usage(format!("unknown route option '{other}'")),
                }
            }
            let router = segdb_server::Router::start(map, cfg)
                .map_err(|e| CliError::Io(format!("cannot bind router: {e}")))?;
            // Same contract as `serve`: scripts read this line for the
            // resolved port when binding to `:0`.
            println!("listening on {}", router.addr());
            let _ = std::io::Write::flush(&mut std::io::stdout());
            router.wait();
            Ok("router stopped\n".to_string())
        }
        "health" => {
            if want(args, 1, "--remote")? != "--remote" {
                return usage("health probes remote servers only: health --remote <host:port>");
            }
            let addr = want(args, 2, "address")?;
            let doc = remote_client(addr)
                .remote_health()
                .map_err(|e| CliError::Io(format!("remote health failed: {e}")))?;
            Ok(format!("{}\n", doc.render()))
        }
        "sync" => {
            if want(args, 1, "--remote")? != "--remote" {
                return usage(
                    "sync drives a running replica: sync --remote <replica> <peer> [--from <seq>]",
                );
            }
            let addr = want(args, 2, "replica address")?;
            let peer = want(args, 3, "peer address")?;
            let mut from = None;
            let mut i = 4;
            while i < args.len() {
                match args[i].as_str() {
                    "--from" => {
                        from = Some(num(args, i + 1, "sequence number")?.max(0) as u64);
                        i += 2;
                    }
                    other => return usage(format!("unknown sync option '{other}'")),
                }
            }
            let doc = remote_client(addr)
                .sync_from(peer, from)
                .map_err(|e| CliError::Io(format!("sync failed: {e}")))?;
            Ok(format!("{}\n", doc.render()))
        }
        "torture" => {
            let mut seed = 1u64;
            let mut scenarios = 5usize;
            let mut n = 80usize;
            let mut rounds = 5usize;
            let mut page_size = 512usize;
            let mut i = 1;
            while i < args.len() {
                match args[i].as_str() {
                    "--seed" => seed = num(args, i + 1, "seed")? as u64,
                    "--scenarios" => {
                        scenarios = num(args, i + 1, "scenario count")?.max(1) as usize
                    }
                    "--n" => n = num(args, i + 1, "segment count")?.max(1) as usize,
                    "--rounds" => rounds = num(args, i + 1, "round count")?.max(1) as usize,
                    "--page-size" => page_size = num(args, i + 1, "page size")?.max(64) as usize,
                    other => return usage(format!("unknown torture option '{other}'")),
                }
                i += 2;
            }
            let kinds = [IndexKind::TwoLevelBinary, IndexKind::TwoLevelInterval];
            let (mut ran, mut crashed, mut fault_events) = (0u64, 0u64, 0u64);
            let (mut live_q, mut rec_q, mut saves) = (0u64, 0u64, 0u64);
            let mut digest = 0xcbf2_9ce4_8422_2325u64;
            for kind in kinds {
                for s in seed..seed + scenarios as u64 {
                    let cfg = torture::TortureConfig {
                        n,
                        rounds,
                        page_size,
                        ..torture::TortureConfig::new(kind, s)
                    };
                    let out = torture::run_scenario(&cfg)?;
                    ran += 1;
                    crashed += out.crashed as u64;
                    fault_events += out.fault_trace.len() as u64;
                    live_q += out.live_queries_verified;
                    rec_q += out.recovery_queries_verified;
                    saves += out.saves;
                    digest ^= torture::trace_digest(&out.fault_trace);
                    digest = digest.wrapping_mul(0x0000_0100_0000_01B3);
                }
            }
            let faults = segdb_obs::faults::totals().snapshot();
            let doc = Json::obj([
                ("scenarios", Json::U64(ran)),
                ("crashed", Json::U64(crashed)),
                ("fault_events", Json::U64(fault_events)),
                ("live_queries_verified", Json::U64(live_q)),
                ("recovery_queries_verified", Json::U64(rec_q)),
                ("saves", Json::U64(saves)),
                ("trace_digest", Json::Str(format!("{digest:016x}"))),
                ("faults", faults.to_json()),
            ]);
            Ok(format!("{}\n", doc.render()))
        }
        "insert" | "remove" => {
            let op = args[0].clone();
            if args.get(1).map(String::as_str) == Some("--remote") {
                // Route through a writable server: the stamped request id
                // makes the write idempotent across client retries, and
                // the trailing flush forces the WAL group commit so the
                // ack is durable when we print it.
                let addr = want(args, 2, "address")?;
                let seg = Segment::new(
                    num(args, 3, "id")? as u64,
                    (num(args, 4, "x1")?, num(args, 5, "y1")?),
                    (num(args, 6, "x2")?, num(args, 7, "y2")?),
                )
                .map_err(|e| CliError::Io(e.to_string()))?;
                let mut client = remote_client(addr);
                let ack = if op == "insert" {
                    client.insert(&seg)
                } else {
                    client.delete(&seg)
                }
                .map_err(|e| CliError::Io(format!("remote {op} failed: {e}")))?;
                client
                    .flush()
                    .map_err(|e| CliError::Io(format!("remote flush failed: {e}")))?;
                let verb = match (op.as_str(), ack.applied) {
                    ("insert", true) => "inserted",
                    ("insert", false) => "already stored:",
                    (_, true) => "removed",
                    (_, false) => "not found:",
                };
                return Ok(format!(
                    "{verb} {seg} (seq {}{})\n",
                    ack.seq,
                    if ack.duplicate { ", replayed ack" } else { "" }
                ));
            }
            let path = want(args, 1, "db path")?.to_string();
            let mut db = SegmentDatabase::open(&path, 0)?;
            let seg = Segment::new(
                num(args, 2, "id")? as u64,
                (num(args, 3, "x1")?, num(args, 4, "y1")?),
                (num(args, 5, "x2")?, num(args, 6, "y2")?),
            )
            .map_err(|e| CliError::Io(e.to_string()))?;
            let msg = if op == "insert" {
                db.insert(seg)?;
                format!("inserted {seg}\n")
            } else {
                let found = db.remove(&seg)?;
                format!("{} {seg}\n", if found { "removed" } else { "not found:" })
            };
            db.save()?;
            Ok(msg)
        }
        other => usage(format!("unknown command '{other}'")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_roundtrip() {
        let segs = vec![
            Segment::new(1, (0, 0), (5, 5)).unwrap(),
            Segment::new(2, (-3, 9), (4, 9)).unwrap(),
        ];
        let csv = to_csv(&segs);
        assert_eq!(parse_csv(&csv).unwrap(), segs);
    }

    #[test]
    fn csv_errors_carry_line_numbers() {
        let err = parse_csv("1,2,3,4,5\nbogus").unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
        let err = parse_csv("1,2,3").unwrap_err();
        assert!(err.to_string().contains("x2"), "{err}");
        let err = parse_csv("7,0,0,0,0").unwrap_err();
        assert!(err.to_string().contains("coincide"), "{err}");
    }

    #[test]
    fn bad_commands_are_usage_errors() {
        let a = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert!(matches!(run(&a(&["frobnicate"])), Err(CliError::Usage(_))));
        assert!(matches!(run(&a(&[])), Err(CliError::Usage(_))));
        assert!(matches!(
            run(&a(&["gen", "nope", "5", "1"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(run(&a(&["query"])), Err(CliError::Usage(_))));
    }

    #[test]
    fn malformed_shard_maps_are_usage_errors() {
        let a = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let dir = std::env::temp_dir().join(format!("segdb-cli-maps-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let write = |name: &str, body: &str| {
            let p = dir.join(name);
            std::fs::write(&p, body).unwrap();
            p.to_string_lossy().into_owned()
        };
        // Truncated JSON must surface as a usage error (exit 2), never
        // a panic.
        let p = write("truncated.json", r#"{"shards":[{"addr":"a","until":5}"#);
        let err = run(&a(&["route", &p])).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err:?}");
        assert_eq!(err.exit_code(), 2);
        // Overlapping (non-increasing) ownership cuts.
        let p = write(
            "overlap.json",
            r#"{"shards":[{"addr":"a","until":9},{"addr":"b","until":3},{"addr":"c"}]}"#,
        );
        let err = run(&a(&["route", &p])).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err:?}");
        assert!(err.to_string().contains("bad shard map"), "{err}");
        // An empty replica set.
        let p = write(
            "empty.json",
            r#"{"shards":[{"replicas":[],"until":1},{"addr":"b"}]}"#,
        );
        assert!(matches!(
            run(&a(&["route", &p])).unwrap_err(),
            CliError::Usage(_)
        ));
        // A missing map file stays an I/O error — nothing to usage-hint.
        let absent = dir.join("absent.json").to_string_lossy().into_owned();
        assert!(matches!(
            run(&a(&["route", &absent])).unwrap_err(),
            CliError::Io(_)
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn partition_plans_replica_sets_and_writes_a_v2_map_template() {
        let a = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let dir = std::env::temp_dir().join(format!("segdb-cli-part-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let csv = dir.join("data.csv").to_string_lossy().into_owned();
        let segs: Vec<Segment> = (0..40)
            .map(|i| Segment::new(i, (i as i64 * 10, 0), (i as i64 * 10 + 5, 7)).unwrap())
            .collect();
        std::fs::write(&csv, to_csv(&segs)).unwrap();
        let out = dir.join("shards").to_string_lossy().into_owned();
        let map = dir.join("map.json").to_string_lossy().into_owned();
        let doc = run(&a(&[
            "partition",
            &csv,
            "2",
            &out,
            "--replicas",
            "2",
            "--map-out",
            &map,
        ]))
        .unwrap();
        let doc = segdb_obs::json::parse(doc.trim()).unwrap();
        assert_eq!(doc.get("replicas"), Some(&Json::U64(2)));
        assert_eq!(doc.get("k"), Some(&Json::U64(2)));
        // The template parses as a shard-map v2 with 2-way replica sets
        // and the partitioner's own cuts.
        let body = std::fs::read_to_string(&map).unwrap();
        let parsed = segdb_server::ShardMap::parse(&body).unwrap();
        assert_eq!(parsed.shard_count(), 2);
        assert!(parsed.replica_sets().iter().all(|set| set.len() == 2));
        let doc_cuts: Vec<i64> = doc
            .get("cuts")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|c| c.as_f64().unwrap() as i64)
            .collect();
        assert_eq!(parsed.cuts().cuts(), doc_cuts.as_slice());
        // Zero replicas is a usage mistake.
        assert!(matches!(
            run(&a(&["partition", &csv, "2", &out, "--replicas", "0"])).unwrap_err(),
            CliError::Usage(_)
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn gen_emits_parseable_csv() {
        let a: Vec<String> = ["gen", "grid", "100", "7"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let csv = run(&a).unwrap();
        let segs = parse_csv(&csv).unwrap();
        assert!(!segs.is_empty());
    }
}
