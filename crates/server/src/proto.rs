//! The wire protocol: newline-delimited JSON over TCP.
//!
//! One request per line, one response line per request, in order:
//!
//! ```text
//! → {"id":1,"method":"query_line","params":{"x":70}}
//! ← {"id":1,"ok":true,"result":{"ids":[3,9],"count":2,"trace":{...}}}
//! → {"id":2,"method":"nope"}
//! ← {"id":2,"ok":false,"error":{"code":"unknown_method","message":"..."}}
//! ```
//!
//! The JSON value type, serializer and parser are `segdb-obs`'s own
//! ([`segdb_obs::json`]) — the protocol adds no external dependency.
//! Coordinates are the user frame (the facade shears them); `id` is an
//! optional client-chosen correlation number echoed back verbatim.
//!
//! Write methods (`insert`, `delete`, `flush`) are served only when the
//! database was opened writable (a WAL is attached); a read-only server
//! answers them with `read_only`. For `insert`/`delete` the correlation
//! `id` is **mandatory** — it is the idempotence key: a retried request
//! with the same id is answered from the stored acknowledgement, so a
//! client that lost a response can safely replay the exact line.

use segdb_core::{Query, QueryMode};
use segdb_geom::Segment;
use segdb_obs::json::{self, Json};
use segdb_wal::{WalOp, WalRecord};

/// Machine-readable error codes carried in `error.code`.
pub mod code {
    /// Request line is not valid JSON or misses a required field.
    pub const BAD_REQUEST: &str = "bad_request";
    /// `method` names no known operation.
    pub const UNKNOWN_METHOD: &str = "unknown_method";
    /// Request line exceeds the server's configured line limit.
    pub const OVERSIZED: &str = "oversized";
    /// The job queue is full; the client should back off and retry.
    pub const OVERLOADED: &str = "overloaded";
    /// The request missed the server's per-request deadline.
    pub const TIMEOUT: &str = "timeout";
    /// The database rejected the operation (bad geometry, storage error…).
    pub const DB: &str = "db";
    /// The storage layer hit an I/O fault serving this request; the
    /// database itself is still up and the request may be retried.
    pub const IO: &str = "io_error";
    /// The server is shutting down and accepts no further work.
    pub const SHUTTING_DOWN: &str = "shutting_down";
    /// The database is served read-only; write methods are refused.
    pub const READ_ONLY: &str = "read_only";
    /// A scatter-gather fan-out lost one or more shards: the router
    /// already spent its own retry budget, so the reply is terminal to
    /// the resilient client (retrying the same request id later is safe
    /// — per-shard dedup keeps replicated writes exactly-once).
    pub const DEGRADED: &str = "degraded";
}

/// A decoded request method: a query, or a command. Workers run
/// queries in shared walks and commands one at a time, so the two never
/// share a type below the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Method {
    /// Run a query under a [`QueryMode`] and return ids (when the mode
    /// carries segments), the count, and the per-query trace.
    Query(Query, QueryMode),
    /// Any other request.
    Command(Command),
}

/// Every request method that is not a plain query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// Run a query with event tracing on and return the span summary too.
    Trace(Query),
    /// Snapshot database + server statistics.
    Stats,
    /// The K worst requests seen so far (id, mode, stage timings,
    /// pages) — the slow-query log (DESIGN.md §12).
    SlowLog,
    /// Liveness probe; answered inline, never queued.
    Ping,
    /// Stop the server gracefully after replying.
    Shutdown,
    /// Insert one segment (user coordinates). The request's `id` is
    /// mandatory and doubles as the idempotence key: a retry carrying
    /// the same id is answered from the stored acknowledgement instead
    /// of being applied twice.
    Insert(Segment),
    /// Delete one segment (exact id + geometry match); same mandatory
    /// idempotent `id` as `insert`.
    Delete(Segment),
    /// Durability barrier: group-commit the WAL tail before replying.
    Flush,
    /// Liveness + role report. A single-node server answers for itself;
    /// the router pings every shard and reports per-shard reachability.
    Health,
    /// Describe the cluster topology. A single-node server reports role
    /// `"single"`; the router renders its static x-range shard map.
    ShardMap,
    /// Replica catch-up, serving side: return the applied WAL records
    /// with `seq > from` from the writable engine's in-memory history
    /// ring, so a lagging peer can replay them.
    WalSince {
        /// Sequence cursor: records strictly after it are returned.
        from: u64,
    },
    /// Replica catch-up, pulling side: connect to `peer` (another
    /// writable replica of the same fragment), fetch its records after
    /// `from` via `wal_since`, and apply them idempotently. `from`
    /// defaults to this server's own last WAL sequence number.
    SyncFrom {
        /// Address of the up-to-date peer replica.
        peer: String,
        /// Explicit sequence cursor (defaults to the local `last_seq`).
        from: Option<u64>,
    },
}

/// A decoded request line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Client correlation id, echoed back in the response.
    pub id: Option<u64>,
    /// The operation to perform.
    pub method: Method,
}

/// A request that could not be decoded, ready to render as an error
/// response (carrying whatever correlation id was salvageable).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoError {
    /// Correlation id, if the request got far enough to carry one.
    pub id: Option<u64>,
    /// One of the [`code`] constants.
    pub code: &'static str,
    /// Human-readable detail.
    pub message: String,
}

impl ProtoError {
    fn bad(id: Option<u64>, message: impl Into<String>) -> ProtoError {
        ProtoError {
            id,
            code: code::BAD_REQUEST,
            message: message.into(),
        }
    }

    /// Render as one response line (no trailing newline).
    pub fn to_line(&self) -> String {
        err_line(self.id, self.code, &self.message)
    }
}

fn as_i64(v: &Json) -> Option<i64> {
    match *v {
        Json::U64(u) => i64::try_from(u).ok(),
        Json::I64(i) => Some(i),
        _ => None,
    }
}

fn as_u64(v: &Json) -> Option<u64> {
    match *v {
        Json::U64(u) => Some(u),
        Json::I64(i) => u64::try_from(i).ok(),
        _ => None,
    }
}

const QUERY_METHODS: [&str; 4] = [
    "query_line",
    "query_ray_up",
    "query_ray_down",
    "query_segment",
];

fn parse_shape(name: &str, params: &Json) -> Result<Query, String> {
    let int = |k: &str| -> Result<i64, String> {
        params
            .get(k)
            .and_then(as_i64)
            .ok_or_else(|| format!("missing integer field `{k}`"))
    };
    match name {
        "query_line" => Ok(Query::Line {
            x: int("x")?,
            y: params.get("y").and_then(as_i64).unwrap_or(0),
        }),
        "query_ray_up" => Ok(Query::RayUp {
            x: int("x")?,
            y: int("y")?,
        }),
        "query_ray_down" => Ok(Query::RayDown {
            x: int("x")?,
            y: int("y")?,
        }),
        "query_segment" => Ok(Query::Segment {
            x1: int("x1")?,
            y1: int("y1")?,
            x2: int("x2")?,
            y2: int("y2")?,
        }),
        other => Err(format!("unknown query shape `{other}`")),
    }
}

/// The wire method and integer params of `q` — the one table from a
/// query to its request; [`parse_request`] reads it back.
pub fn query_wire(q: &Query) -> (&'static str, Vec<(&'static str, i64)>) {
    match *q {
        Query::Line { x, y } => ("query_line", vec![("x", x), ("y", y)]),
        Query::RayUp { x, y } => ("query_ray_up", vec![("x", x), ("y", y)]),
        Query::RayDown { x, y } => ("query_ray_down", vec![("x", x), ("y", y)]),
        Query::Segment { x1, y1, x2, y2 } => (
            "query_segment",
            vec![("x1", x1), ("y1", y1), ("x2", x2), ("y2", y2)],
        ),
    }
}

/// Render one query request line: correlation `id`, the wire `method`
/// and `params` of [`query_wire`], and `mode` (omitted for
/// [`QueryMode::Collect`], the default).
pub fn query_request(id: u64, method: &str, params: &[(&str, i64)], mode: QueryMode) -> String {
    let mut fields: Vec<(String, Json)> = params
        .iter()
        .map(|(k, v)| (k.to_string(), Json::I64(*v)))
        .collect();
    if mode != QueryMode::Collect {
        fields.push(("mode".to_string(), Json::Str(mode.name().to_string())));
        if let QueryMode::Limit(k) = mode {
            fields.push(("limit".to_string(), Json::U64(k as u64)));
        }
    }
    Json::obj([
        ("id", Json::U64(id)),
        ("method", Json::Str(method.to_string())),
        ("params", Json::Obj(fields)),
    ])
    .render()
}

/// Parse the segment a write method carries: integer `seg` (the
/// segment id) plus endpoint coordinates, all in the user frame.
fn parse_segment(params: &Json) -> Result<Segment, String> {
    let int = |k: &str| -> Result<i64, String> {
        params
            .get(k)
            .and_then(as_i64)
            .ok_or_else(|| format!("missing integer field `{k}`"))
    };
    let seg_id = params
        .get("seg")
        .and_then(as_u64)
        .ok_or("missing integer field `seg` (the segment id)")?;
    Segment::new(seg_id, (int("x1")?, int("y1")?), (int("x2")?, int("y2")?))
        .map_err(|e| format!("invalid segment: {e}"))
}

/// Parse the optional `"mode"` param (`"limit"` needs an integer
/// `"limit"` alongside). Absent means [`QueryMode::Collect`] — older
/// clients keep working unchanged.
fn parse_mode(params: &Json) -> Result<QueryMode, String> {
    match params.get("mode").map(|m| (m, m.as_str())) {
        None => Ok(QueryMode::Collect),
        Some((_, Some("collect"))) => Ok(QueryMode::Collect),
        Some((_, Some("count"))) => Ok(QueryMode::Count),
        Some((_, Some("exists"))) => Ok(QueryMode::Exists),
        Some((_, Some("limit"))) => {
            let k = params
                .get("limit")
                .and_then(as_u64)
                .ok_or("mode `limit` needs an integer field `limit`")?;
            let k = u32::try_from(k).map_err(|_| "`limit` too large".to_string())?;
            Ok(QueryMode::Limit(k))
        }
        Some((_, Some(other))) => Err(format!("unknown mode `{other}`")),
        Some((_, None)) => Err("`mode` must be a string".to_string()),
    }
}

/// Decode one request line.
pub fn parse_request(line: &str) -> Result<Request, ProtoError> {
    let v = json::parse(line.trim())
        .map_err(|e| ProtoError::bad(None, format!("invalid JSON: {e}")))?;
    if !matches!(v, Json::Obj(_)) {
        return Err(ProtoError::bad(None, "request must be a JSON object"));
    }
    let id = v.get("id").and_then(as_u64);
    let Some(method) = v.get("method").and_then(Json::as_str) else {
        return Err(ProtoError::bad(id, "missing string field `method`"));
    };
    let empty = Json::Obj(Vec::new());
    let params = v.get("params").unwrap_or(&empty);
    let command = match method {
        m if QUERY_METHODS.contains(&m) => {
            let q = parse_shape(m, params).map_err(|m| ProtoError::bad(id, m))?;
            let mode = parse_mode(params).map_err(|m| ProtoError::bad(id, m))?;
            return Ok(Request {
                id,
                method: Method::Query(q, mode),
            });
        }
        "ping" => Command::Ping,
        "stats" => Command::Stats,
        "slowlog" => Command::SlowLog,
        "shutdown" => Command::Shutdown,
        "flush" => Command::Flush,
        "health" => Command::Health,
        "shard_map" => Command::ShardMap,
        "wal_since" => {
            let from = params
                .get("from")
                .and_then(as_u64)
                .ok_or_else(|| ProtoError::bad(id, "wal_since needs an integer field `from`"))?;
            Command::WalSince { from }
        }
        "sync_from" => {
            let Some(peer) = params.get("peer").and_then(Json::as_str) else {
                return Err(ProtoError::bad(
                    id,
                    "sync_from needs a string field `peer` (the up-to-date replica's address)",
                ));
            };
            let from = match params.get("from") {
                None => None,
                Some(v) => Some(as_u64(v).ok_or_else(|| {
                    ProtoError::bad(id, "sync_from field `from` must be an integer")
                })?),
            };
            Command::SyncFrom {
                peer: peer.to_string(),
                from,
            }
        }
        "insert" | "delete" => {
            // Writes are only idempotent across retries when the client
            // names them: the correlation id is the idempotence key.
            if id.is_none() {
                return Err(ProtoError::bad(
                    id,
                    format!("{method} needs a numeric `id` (the idempotent retry key)"),
                ));
            }
            let seg = parse_segment(params).map_err(|m| ProtoError::bad(id, m))?;
            if method == "insert" {
                Command::Insert(seg)
            } else {
                Command::Delete(seg)
            }
        }
        "trace" => {
            let Some(shape) = params.get("shape").and_then(Json::as_str) else {
                return Err(ProtoError::bad(id, "trace needs a string field `shape`"));
            };
            Command::Trace(parse_shape(shape, params).map_err(|m| ProtoError::bad(id, m))?)
        }
        other => {
            return Err(ProtoError {
                id,
                code: code::UNKNOWN_METHOD,
                message: format!("unknown method `{other}`"),
            })
        }
    };
    Ok(Request {
        id,
        method: Method::Command(command),
    })
}

fn id_json(id: Option<u64>) -> Json {
    id.map_or(Json::Null, Json::U64)
}

/// Render a success response line (no trailing newline).
pub fn ok_line(id: Option<u64>, result: Json) -> String {
    Json::obj([
        ("id", id_json(id)),
        ("ok", Json::Bool(true)),
        ("result", result),
    ])
    .render()
}

/// The fields naming `seg` in a write request's params and in a WAL
/// record — what [`parse_segment`] reads back.
fn segment_fields(seg: &Segment) -> [(&'static str, Json); 5] {
    [
        ("seg", Json::U64(seg.id)),
        ("x1", Json::I64(seg.a.x)),
        ("y1", Json::I64(seg.a.y)),
        ("x2", Json::I64(seg.b.x)),
        ("y2", Json::I64(seg.b.y)),
    ]
}

/// Render one write request line (`insert` / `delete`) for `seg`; `id`
/// is both the correlation id and the server-side idempotence key.
pub fn write_request(id: u64, method: &str, seg: &Segment) -> String {
    Json::obj([
        ("id", Json::U64(id)),
        ("method", Json::Str(method.to_string())),
        ("params", Json::obj(segment_fields(seg))),
    ])
    .render()
}

/// Render one WAL record as the catch-up wire object carried in a
/// `wal_since` reply (flat: seq, req_id, op, and the segment fields in
/// the same shape `insert`/`delete` requests use).
pub fn wal_record_json(rec: &WalRecord) -> Json {
    let (op, seg) = match rec.op {
        WalOp::Insert(seg) => ("insert", seg),
        WalOp::Delete(seg) => ("delete", seg),
    };
    let head = [
        ("seq", Json::U64(rec.seq)),
        ("req_id", Json::U64(rec.req_id)),
        ("op", Json::Str(op.to_string())),
    ];
    Json::obj(head.into_iter().chain(segment_fields(&seg)))
}

/// Decode one catch-up wire object back into a WAL record (the inverse
/// of [`wal_record_json`]).
pub fn parse_wal_record(v: &Json) -> Result<WalRecord, String> {
    let seq = v
        .get("seq")
        .and_then(as_u64)
        .ok_or("record missing integer field `seq`")?;
    let req_id = v
        .get("req_id")
        .and_then(as_u64)
        .ok_or("record missing integer field `req_id`")?;
    let seg = parse_segment(v)?;
    let op = match v.get("op").and_then(Json::as_str) {
        Some("insert") => WalOp::Insert(seg),
        Some("delete") => WalOp::Delete(seg),
        Some(other) => return Err(format!("unknown record op `{other}`")),
        None => return Err("record missing string field `op`".to_string()),
    };
    Ok(WalRecord { seq, req_id, op })
}

/// Render an error response line (no trailing newline).
pub fn err_line(id: Option<u64>, code: &str, message: &str) -> String {
    Json::obj([
        ("id", id_json(id)),
        ("ok", Json::Bool(false)),
        (
            "error",
            Json::obj([
                ("code", Json::Str(code.to_string())),
                ("message", Json::Str(message.to_string())),
            ]),
        ),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use segdb_core::DbError;
    use segdb_geom::transform::DIR_LIMIT;
    use segdb_geom::{Direction, Point, COORD_LIMIT};
    use segdb_rng::{check, SmallRng};

    #[test]
    fn parses_every_method() {
        let r = parse_request(r#"{"id":7,"method":"query_line","params":{"x":3}}"#).unwrap();
        assert_eq!(r.id, Some(7));
        assert_eq!(
            r.method,
            Method::Query(Query::Line { x: 3, y: 0 }, QueryMode::Collect)
        );
        let r = parse_request(r#"{"method":"query_ray_up","params":{"x":-1,"y":-9}}"#).unwrap();
        assert_eq!(r.id, None);
        assert_eq!(
            r.method,
            Method::Query(Query::RayUp { x: -1, y: -9 }, QueryMode::Collect)
        );
        let r = parse_request(
            r#"{"id":1,"method":"query_segment","params":{"x1":5,"y1":0,"x2":5,"y2":9}}"#,
        )
        .unwrap();
        assert_eq!(
            r.method,
            Method::Query(
                Query::Segment {
                    x1: 5,
                    y1: 0,
                    x2: 5,
                    y2: 9
                },
                QueryMode::Collect
            )
        );
        let r = parse_request(
            r#"{"id":2,"method":"trace","params":{"shape":"query_ray_down","x":4,"y":2}}"#,
        )
        .unwrap();
        assert_eq!(
            r.method,
            Method::Command(Command::Trace(Query::RayDown { x: 4, y: 2 }))
        );
        for (m, want) in [
            ("ping", Command::Ping),
            ("stats", Command::Stats),
            ("slowlog", Command::SlowLog),
            ("shutdown", Command::Shutdown),
            ("flush", Command::Flush),
            ("health", Command::Health),
            ("shard_map", Command::ShardMap),
        ] {
            let r = parse_request(&format!(r#"{{"method":"{m}"}}"#)).unwrap();
            assert_eq!(r.method, Method::Command(want));
        }
    }

    #[test]
    fn parses_write_methods() {
        let seg = Segment::new(9, (1, 2), (3, 2)).unwrap();
        let r = parse_request(
            r#"{"id":5,"method":"insert","params":{"seg":9,"x1":1,"y1":2,"x2":3,"y2":2}}"#,
        )
        .unwrap();
        assert_eq!(
            (r.id, r.method),
            (Some(5), Method::Command(Command::Insert(seg)))
        );
        let r = parse_request(
            r#"{"id":6,"method":"delete","params":{"seg":9,"x1":1,"y1":2,"x2":3,"y2":2}}"#,
        )
        .unwrap();
        assert_eq!(
            (r.id, r.method),
            (Some(6), Method::Command(Command::Delete(seg)))
        );
        // A write without a correlation id cannot be retried safely, so
        // the protocol refuses it outright.
        let e =
            parse_request(r#"{"method":"insert","params":{"seg":9,"x1":1,"y1":2,"x2":3,"y2":2}}"#)
                .unwrap_err();
        assert_eq!(e.code, code::BAD_REQUEST);
        assert!(e.message.contains("idempotent"), "{}", e.message);
        // Missing coordinates and degenerate geometry are bad requests.
        let e =
            parse_request(r#"{"id":7,"method":"insert","params":{"seg":9,"x1":1}}"#).unwrap_err();
        assert_eq!((e.id, e.code), (Some(7), code::BAD_REQUEST));
        let e = parse_request(
            r#"{"id":8,"method":"insert","params":{"seg":9,"x1":1,"y1":2,"x2":1,"y2":2}}"#,
        )
        .unwrap_err();
        assert_eq!((e.id, e.code), (Some(8), code::BAD_REQUEST));
        assert!(e.message.contains("invalid segment"), "{}", e.message);
    }

    #[test]
    fn parses_query_modes() {
        for (mode, want) in [
            ("count", QueryMode::Count),
            ("exists", QueryMode::Exists),
            ("collect", QueryMode::Collect),
        ] {
            let r = parse_request(&format!(
                r#"{{"id":1,"method":"query_line","params":{{"x":3,"mode":"{mode}"}}}}"#
            ))
            .unwrap();
            assert_eq!(r.method, Method::Query(Query::Line { x: 3, y: 0 }, want));
        }
        let r = parse_request(
            r#"{"id":1,"method":"query_line","params":{"x":3,"mode":"limit","limit":5}}"#,
        )
        .unwrap();
        assert_eq!(
            r.method,
            Method::Query(Query::Line { x: 3, y: 0 }, QueryMode::Limit(5))
        );
        let e = parse_request(r#"{"id":2,"method":"query_line","params":{"x":3,"mode":"limit"}}"#)
            .unwrap_err();
        assert_eq!((e.id, e.code), (Some(2), code::BAD_REQUEST));
        let e = parse_request(r#"{"id":3,"method":"query_line","params":{"x":3,"mode":"nope"}}"#)
            .unwrap_err();
        assert_eq!((e.id, e.code), (Some(3), code::BAD_REQUEST));
    }

    #[test]
    fn parses_catch_up_methods_and_round_trips_records() {
        let r = parse_request(r#"{"id":1,"method":"wal_since","params":{"from":7}}"#).unwrap();
        assert_eq!(r.method, Method::Command(Command::WalSince { from: 7 }));
        let e = parse_request(r#"{"id":2,"method":"wal_since"}"#).unwrap_err();
        assert_eq!((e.id, e.code), (Some(2), code::BAD_REQUEST));
        let r = parse_request(r#"{"id":3,"method":"sync_from","params":{"peer":"127.0.0.1:9"}}"#)
            .unwrap();
        assert_eq!(
            r.method,
            Method::Command(Command::SyncFrom {
                peer: "127.0.0.1:9".into(),
                from: None
            })
        );
        let r = parse_request(r#"{"id":4,"method":"sync_from","params":{"peer":"h:1","from":12}}"#)
            .unwrap();
        assert_eq!(
            r.method,
            Method::Command(Command::SyncFrom {
                peer: "h:1".into(),
                from: Some(12)
            })
        );
        let e = parse_request(r#"{"id":5,"method":"sync_from","params":{"from":12}}"#).unwrap_err();
        assert_eq!((e.id, e.code), (Some(5), code::BAD_REQUEST));

        let seg = Segment::new(9, (1, 2), (3, 2)).unwrap();
        for op in [WalOp::Insert(seg), WalOp::Delete(seg)] {
            let rec = WalRecord {
                seq: 41,
                req_id: 77,
                op,
            };
            let rendered = wal_record_json(&rec).render();
            let back = parse_wal_record(&json::parse(&rendered).unwrap()).unwrap();
            assert_eq!(back, rec);
        }
        let e = parse_wal_record(&json::parse(r#"{"seq":1,"req_id":2}"#).unwrap()).unwrap_err();
        assert!(e.contains("seg"), "{e}");
    }

    /// Query shape `shape % 4` from raw coordinates; the segment runs
    /// from `(a, b)` to `(c, d)`.
    fn query_of(shape: u8, (a, b, c, d): (i64, i64, i64, i64)) -> Query {
        match shape % 4 {
            0 => Query::Line { x: a, y: b },
            1 => Query::RayUp { x: a, y: b },
            2 => Query::RayDown { x: a, y: b },
            _ => Query::Segment {
                x1: a,
                y1: b,
                x2: c,
                y2: d,
            },
        }
    }

    /// Every shape, coordinates anywhere in range (the limits included),
    /// every mode: the request line rendered from [`query_wire`] parses
    /// back to the very `Method::Query` it came from.
    #[test]
    fn query_wire_round_trips_through_parse_request() {
        let coord = |rng: &mut SmallRng| match rng.gen_range(0..4u8) {
            0 => COORD_LIMIT,
            1 => -COORD_LIMIT,
            _ => rng.gen_range(-COORD_LIMIT..COORD_LIMIT + 1),
        };
        check::run(
            "proto_query_wire_round_trips_through_parse_request",
            300,
            |rng| {
                let coords = (coord(rng), coord(rng), coord(rng), coord(rng));
                let modes = (rng.gen_range(0..4u8), rng.next_u64() as u32);
                (rng.gen_range(0..4u8), coords, modes, rng.next_u64() >> 1)
            },
            |&(shape, coords, (mode, k), id)| {
                let q = query_of(shape, coords);
                let modes = [QueryMode::Collect, QueryMode::Count, QueryMode::Exists];
                let mode = modes
                    .get(mode as usize)
                    .copied()
                    .unwrap_or(QueryMode::Limit(k));
                let (method, params) = query_wire(&q);
                let line = query_request(id, method, &params, mode);
                let req = parse_request(&line).unwrap();
                assert_eq!(
                    (req.id, req.method),
                    (Some(id), Method::Query(q, mode)),
                    "{line}"
                );
            },
        );
    }

    /// Under a sheared direction, [`Query::in_frame`] is
    /// [`Direction::make_query`](segdb_geom::transform::Direction::make_query)
    /// at the same anchor and bounds, and a segment off the direction's
    /// line is [`DbError::NotAligned`].
    #[test]
    fn canonical_is_make_query_under_a_shear() {
        // Inside this span every sheared coordinate stays in range.
        let span = COORD_LIMIT / (2 * DIR_LIMIT);
        check::run(
            "proto_canonical_is_make_query_under_a_shear",
            200,
            |rng| {
                let dir = (rng.gen_range(-8..9i64), rng.gen_range(1..9i64));
                let anchor = (rng.gen_range(-span..span), rng.gen_range(-span..span));
                (
                    rng.gen_range(0..4u8),
                    dir,
                    anchor,
                    rng.gen_range(-64..65i64),
                )
            },
            |&(shape, (dx, dy), (x, y), t)| {
                let d = Direction::new(dx, dy).unwrap();
                let (x2, y2) = (x + t * d.dx(), y + t * d.dy());
                let q = query_of(shape, (x, y, x2, y2));
                let (lo, hi) = match q {
                    Query::Line { .. } => (None, None),
                    Query::RayUp { .. } => (Some(y), None),
                    Query::RayDown { .. } => (None, Some(y)),
                    Query::Segment { .. } => (Some(y.min(y2)), Some(y.max(y2))),
                };
                let want = d.make_query(Point::new(x, y), lo, hi).unwrap();
                assert_eq!(q.in_frame(d).unwrap(), want, "{q:?} along {d:?}");
                let off = query_of(3, (x, y, x2 + 1, y2));
                let refused = off.in_frame(d);
                assert!(
                    matches!(refused, Err(DbError::NotAligned)),
                    "{off:?} along {d:?}"
                );
            },
        );
    }

    #[test]
    fn rejects_malformed_requests() {
        let e = parse_request("not json at all").unwrap_err();
        assert_eq!(e.code, code::BAD_REQUEST);
        assert_eq!(e.id, None);
        let e = parse_request("[1,2,3]").unwrap_err();
        assert_eq!(e.code, code::BAD_REQUEST);
        let e = parse_request(r#"{"id":3,"params":{}}"#).unwrap_err();
        assert_eq!((e.id, e.code), (Some(3), code::BAD_REQUEST));
        let e = parse_request(r#"{"id":4,"method":"frobnicate"}"#).unwrap_err();
        assert_eq!((e.id, e.code), (Some(4), code::UNKNOWN_METHOD));
        let e = parse_request(r#"{"id":5,"method":"query_line","params":{}}"#).unwrap_err();
        assert_eq!((e.id, e.code), (Some(5), code::BAD_REQUEST));
        assert!(e.message.contains("`x`"), "{}", e.message);
        let e =
            parse_request(r#"{"id":6,"method":"trace","params":{"shape":"stats"}}"#).unwrap_err();
        assert_eq!((e.id, e.code), (Some(6), code::BAD_REQUEST));
    }

    #[test]
    fn response_lines_are_valid_json() {
        let ok = ok_line(Some(1), Json::Str("pong".into()));
        let v = json::parse(&ok).unwrap();
        assert_eq!(v.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(v.get("id"), Some(&Json::U64(1)));
        let err = err_line(None, code::OVERLOADED, "queue full");
        let v = json::parse(&err).unwrap();
        assert_eq!(v.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(v.get("id"), Some(&Json::Null));
        assert_eq!(
            v.get("error").and_then(|e| e.get("code")),
            Some(&Json::Str("overloaded".into()))
        );
    }
}
