//! Harness-side tracing: one span per layer boundary the harness can
//! see from outside, held in memory and written out at exit. Spans
//! inside the program are a later issue.

use segdb_obs::Json;
use std::time::Instant;

/// One recorded span. `parent` is the 1-based index of the span that
/// caused it within the same recorder (0 = root); spans of one
/// operation share `op`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Per-thread span buffer. A disabled recorder costs one branch per
/// call, so the same loop body serves the traced and untraced phases.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

/// Handle of an open span (its index in the recorder).
#[derive(Debug, Clone, Copy)]
pub struct Open(u32);

impl Recorder {
    /// All recorders of one run share `epoch`, so spans from different
    /// threads line up on one time axis.
    pub fn new(epoch: Instant, enabled: bool, capacity: usize) -> Recorder {
        Recorder {
            epoch,
            enabled,
            spans: Vec::with_capacity(if enabled { capacity } else { 0 }),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; `parent` is the enclosing open span, if any.
    pub fn open(&mut self, name: &'static str, op: u64, parent: Option<Open>) -> Open {
        if !self.enabled {
            return Open(0);
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op,
            parent: parent.map_or(0, |p| p.0 + 1),
            start_ns,
            end_ns: start_ns,
        });
        Open(self.spans.len() as u32 - 1)
    }

    pub fn close(&mut self, span: Open) {
        if self.enabled {
            self.spans[span.0 as usize].end_ns = self.now_ns();
        }
    }

    /// Run `f` inside a span.
    pub fn within<R>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<Open>,
        f: impl FnOnce() -> R,
    ) -> R {
        let span = self.open(name, op, parent);
        let r = f();
        self.close(span);
        r
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Total time per span name, and each name's self time: its duration
/// minus the part its direct children cover.
pub fn self_times(spans: &[Span]) -> Vec<(&'static str, u64, u64, u64)> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent > 0 {
            child_ns[s.parent as usize - 1] += s.end_ns - s.start_ns;
        }
    }
    let mut out: Vec<(&'static str, u64, u64, u64)> = Vec::new();
    for (s, covered) in spans.iter().zip(&child_ns) {
        let total = s.end_ns - s.start_ns;
        let own = total.saturating_sub(*covered);
        match out.iter_mut().find(|row| row.0 == s.name) {
            Some(row) => {
                row.1 += 1;
                row.2 += total;
                row.3 += own;
            }
            None => out.push((s.name, 1, total, own)),
        }
    }
    out
}

/// The threads' spans in one list, parents re-based so they stay valid.
pub fn merge(threads: &[Recorder]) -> Vec<Span> {
    let mut merged: Vec<Span> = Vec::new();
    for rec in threads {
        let base = merged.len() as u32;
        merged.extend(rec.spans().iter().map(|s| Span {
            parent: if s.parent > 0 { s.parent + base } else { 0 },
            ..*s
        }));
    }
    merged
}

/// The trace document: the merged spans plus the counts taken at the
/// same boundaries. Spans are `[name index, op, parent, start_ns, end_ns]`.
pub fn trace_json(workload: &str, seed: u64, merged: &[Span], counts: Vec<(String, Json)>) -> Json {
    let mut names: Vec<&'static str> = Vec::new();
    let mut rows = Vec::new();
    for s in merged {
        let name = match names.iter().position(|n| *n == s.name) {
            Some(i) => i,
            None => {
                names.push(s.name);
                names.len() - 1
            }
        };
        rows.push(Json::Arr(vec![
            Json::U64(name as u64),
            Json::U64(s.op),
            Json::U64(s.parent as u64),
            Json::U64(s.start_ns),
            Json::U64(s.end_ns),
        ]));
    }
    let totals = self_times(merged)
        .into_iter()
        .map(|(name, n, total, own)| {
            Json::obj([
                ("name", Json::Str(name.to_string())),
                ("spans", Json::U64(n)),
                ("total_ns", Json::U64(total)),
                ("self_ns", Json::U64(own)),
            ])
        })
        .collect();
    Json::obj([
        ("workload", Json::Str(workload.to_string())),
        ("seed", Json::U64(seed)),
        (
            "span_fields",
            Json::Arr(
                ["name", "op", "parent", "start_ns", "end_ns"]
                    .map(|f| Json::Str(f.to_string()))
                    .to_vec(),
            ),
        ),
        (
            "names",
            Json::Arr(names.iter().map(|n| Json::Str(n.to_string())).collect()),
        ),
        ("per_name", Json::Arr(totals)),
        ("counts", Json::Obj(counts)),
        ("spans", Json::Arr(rows)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let mut r = Recorder::new(Instant::now(), false, 8);
        let op = r.open("op", 1, None);
        r.within("core.query", 1, Some(op), || ());
        r.close(op);
        assert!(r.spans().is_empty());
    }

    #[test]
    fn parents_and_self_time() {
        let mut r = Recorder::new(Instant::now(), true, 8);
        let op = r.open("op", 7, None);
        r.within("core.query", 7, Some(op), || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        r.close(op);
        let s = r.spans();
        assert_eq!((s[0].name, s[0].parent, s[0].op), ("op", 0, 7));
        assert_eq!((s[1].name, s[1].parent, s[1].op), ("core.query", 1, 7));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        let rows = self_times(s);
        let op_row = rows.iter().find(|r| r.0 == "op").unwrap();
        let q_row = rows.iter().find(|r| r.0 == "core.query").unwrap();
        assert_eq!(op_row.2 - q_row.2, op_row.3, "self = total - child");
        assert!(q_row.3 >= 2_000_000);
    }

    #[test]
    fn merged_trace_rebases_parents_and_parses_back() {
        let epoch = Instant::now();
        let mut a = Recorder::new(epoch, true, 4);
        let mut b = Recorder::new(epoch, true, 4);
        for r in [&mut a, &mut b] {
            let op = r.open("op", 1, None);
            r.within("client.call", 1, Some(op), || ());
            r.close(op);
        }
        let doc = trace_json("w", 3, &merge(&[a, b]), vec![("ops".into(), Json::U64(2))]);
        let back = segdb_obs::json::parse(&doc.render()).unwrap();
        let spans = back.get("spans").and_then(Json::as_arr).unwrap();
        assert_eq!(spans.len(), 4);
        let parent = |i: usize| spans[i].as_arr().unwrap()[2].clone();
        assert_eq!(parent(1), Json::U64(1));
        assert_eq!(
            parent(3),
            Json::U64(3),
            "second thread's child points at its own op"
        );
        assert_eq!(
            back.get("counts").and_then(|c| c.get("ops")),
            Some(&Json::U64(2))
        );
    }
}
