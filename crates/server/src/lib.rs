#![warn(missing_docs)]

//! # segdb-server — concurrent query serving for segment databases
//!
//! The paper's structures are static read-mostly indexes, which makes
//! them natural to *serve*: many clients querying one database at once.
//! This crate supplies the serving layer, built entirely on `std`
//! (`std::net` + `std::thread`; offline builds stay dependency-free):
//!
//! * [`proto`] — a newline-delimited JSON wire protocol (methods
//!   `query_line` / `query_ray_up` / `query_ray_down` / `query_segment`
//!   / `trace` / `stats` / `ping` / `shutdown`, plus `insert` /
//!   `delete` / `flush` on writable servers), reusing `segdb-obs`'s
//!   in-repo JSON value type;
//! * [`server`] — behind the listener loop it shares with [`router`]
//!   (accept gate, per-connection read/reply loop, shutdown and drain:
//!   the private `frontend` module), a bounded worker pool executing
//!   requests over one `Arc<SegmentDatabase>` (the `Send + Sync` read
//!   path the sharded page cache of `segdb-pager` provides) or, via
//!   [`Server::start_writable`], a `segdb-core` `WriteEngine` that adds
//!   the WAL-durable write path and a background tombstone compactor;
//!   either way refusing work with an explicit `overloaded` error
//!   instead of queueing without bound;
//! * [`load`] — a closed-loop load driver (the `segdb-load` binary)
//!   that replays the benchmark workload generators over `K`
//!   connections, verifies every answer against the scan oracle, and
//!   reports throughput and p50/p95/p99 latency;
//! * [`chaos`] — the wire-level sibling of `pager::FaultDevice`: a
//!   seeded, replayable network fault layer ([`chaos::ChaosStream`] /
//!   [`chaos::ChaosListener`]) injecting latency, truncated sends,
//!   mid-frame disconnects, resets and slow-loris trickle reads under
//!   an armed [`chaos::NetFaultPlan`];
//! * [`client`] — a resilient reconnect-and-retry client with
//!   per-attempt deadlines and bounded seeded-jitter backoff, safe for
//!   the whole surface: queries mutate nothing and writes are
//!   deduplicated server-side on the stamped request id;
//! * [`lifecycle`] — request-lifecycle observability: per-mode stage
//!   histograms (queue wait / index walk / reply write / total, pages
//!   touched) surfaced in the `stats` reply, plus the bounded
//!   slow-query log behind the `slowlog` wire method (DESIGN.md §12);
//! * [`router`] — the scatter-gather front of an x-range-sharded
//!   cluster: a static [`router::ShardMap`] routes each query to only
//!   the shards it can touch over the resilient clients, merges replies
//!   per query mode (summing counts, short-circuiting exists, fusing
//!   limits, de-duplicating boundary-replicated long segments), fans
//!   writes to every replica of every touched shard with the client's
//!   request id intact, and aggregates `stats` / `slowlog` / `health`
//!   per shard with `unreachable` markers for dark shards;
//! * [`breaker`] — the per-replica circuit breaker behind the router's
//!   health-driven failover: consecutive infrastructure failures trip
//!   it open, a cooldown admits one half-open probe, and any success
//!   (routed call or health ping) closes it again.
//!
//! Protocol and operational details are documented in the repo README
//! ("Serving", "Resilient clients") and DESIGN.md ("Concurrent
//! serving", §10 "Network failure model").

pub mod breaker;
pub mod chaos;
pub mod client;
mod frontend;
pub mod lifecycle;
pub mod load;
pub mod proto;
pub mod router;
pub mod server;

pub use breaker::{Breaker, BreakerConfig, BreakerState};
pub use chaos::{ChaosListener, ChaosStream, NetFaultHandle, NetFaultPlan};
pub use client::{CallError, Client, ClientConfig, QueryReply, WriteReply};
pub use lifecycle::{Lifecycle, RequestRecord, SlowLog};
pub use router::{Router, RouterConfig, ShardMap};
pub use server::{Server, ServerConfig};
