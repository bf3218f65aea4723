//! E15 — streaming query modes: pages read for `Collect` vs `Count` vs
//! `Limit(k)` at output sizes `T ∈ {1, B, n/10}`.
//!
//! `Count` answers from stored run lengths / subtree counts without
//! visiting second-level pages, so its cost must stay near the search
//! overhead as `T` grows; `Limit(k)` stops after `k` reports, so its
//! cost tracks `k`, not `T`. `Collect` pays the full `+ t/B` term and is
//! the baseline the other two are measured against.

use segdb_bench::{f1, table};
use segdb_core::{IndexKind, QueryMode, SegmentDatabase};
use segdb_geom::gen::nested;
use segdb_geom::VerticalQuery;
use segdb_obs::Json;

/// Average pages read per query over `queries` for one mode.
fn reads_per_query(db: &SegmentDatabase, queries: &[VerticalQuery], mode: QueryMode) -> f64 {
    let mut reads = 0u64;
    for q in queries {
        let (_, trace) = db.query_canonical_mode(q, mode).unwrap();
        reads += trace.io.reads;
    }
    reads as f64 / queries.len() as f64
}

fn main() {
    let n_items = 30_000usize;
    let page = 4096usize;
    let set = nested(n_items);
    let block = page / 40; // segments per page, the paper's B
    let db = SegmentDatabase::builder()
        .page_size(page)
        .cache_pages(0)
        .index(IndexKind::TwoLevelInterval)
        .build(set.clone())
        .unwrap();

    // In the nested family segment `i` spans `x ∈ [i, 2n−i]`, so the
    // line `x = i` (for `i < n`) stabs exactly the `i + 1` enclosing
    // segments — output size is dialed directly by the probe abscissa.
    let targets = [("T=1", 1usize), ("T=B", block), ("T=n/10", n_items / 10)];

    let mut rows = Vec::new();
    let mut sections = Vec::new();
    let mut clean_saved = 0.0f64; // collect − count pages at T=n/10
    for (label, target) in targets {
        let picked: Vec<VerticalQuery> = (0..20)
            .map(|j| VerticalQuery::Line {
                x: (target - 1 + j) as i64,
            })
            .collect();
        let t_avg = picked
            .iter()
            .map(|q| set.iter().filter(|s| q.hits(s)).count())
            .sum::<usize>() as f64
            / picked.len() as f64;

        let collect = reads_per_query(&db, &picked, QueryMode::Collect);
        let count = reads_per_query(&db, &picked, QueryMode::Count);
        let limit = reads_per_query(&db, &picked, QueryMode::Limit(1));
        if target == n_items / 10 {
            clean_saved = collect - count;
        }
        rows.push(vec![
            label.to_string(),
            f1(t_avg),
            f1(collect),
            f1(count),
            f1(limit),
        ]);
        sections.push((
            label,
            Json::obj([
                ("t_avg", Json::F64(t_avg)),
                ("collect_reads", Json::F64(collect)),
                ("count_reads", Json::F64(count)),
                ("limit1_reads", Json::F64(limit)),
            ]),
        ));
    }
    table(
        "E15 — query modes (N=30k nested, interval index): pages read per query",
        &["target", "t/q", "collect", "count", "limit(1)"],
        &rows,
    );
    segdb_bench::report::record_section(
        "modes",
        Json::Obj(
            sections
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        ),
    );

    // Tombstone scenario: lazy-delete a slice of the set, then re-run
    // Count at T=n/10. The count fast path subtracts the tombstones its
    // query hits from the stored-count walk (they are resident, with
    // full geometry), so Count must keep its page savings over Collect
    // instead of falling back to materialization.
    let mut db = db;
    let mut live = set.clone();
    for s in set.iter().step_by(60) {
        assert!(db.remove(s).unwrap(), "nested segment is stored");
        live.retain(|t| t.id != s.id);
    }
    assert!(db.tomb_count() > 0, "removals left lazy tombstones");
    let target = n_items / 10;
    let picked: Vec<VerticalQuery> = (0..20)
        .map(|j| VerticalQuery::Line {
            x: (target - 1 + j) as i64,
        })
        .collect();
    for q in &picked {
        let (ans, _) = db.query_canonical_mode(q, QueryMode::Count).unwrap();
        let want = live.iter().filter(|s| q.hits(s)).count() as u64;
        assert_eq!(ans.count(), want, "tombstone-aware count is exact");
    }
    let collect_tombs = reads_per_query(&db, &picked, QueryMode::Collect);
    let count_tombs = reads_per_query(&db, &picked, QueryMode::Count);
    let saved = collect_tombs - count_tombs;
    assert!(
        saved >= clean_saved * 0.5,
        "count with {} tombstones must keep its page savings: saved \
         {saved:.1} pages/query vs {clean_saved:.1} clean \
         (count {count_tombs:.1}, collect {collect_tombs:.1})",
        db.tomb_count()
    );
    table(
        "E15b — count fast path with live tombstones (T=n/10)",
        &["tombstones", "collect", "count", "saved/query"],
        &[vec![
            db.tomb_count().to_string(),
            f1(collect_tombs),
            f1(count_tombs),
            f1(saved),
        ]],
    );
    segdb_bench::report::record_section(
        "tombstones",
        Json::obj([
            ("tomb_count", Json::U64(db.tomb_count())),
            ("collect_reads", Json::F64(collect_tombs)),
            ("count_reads", Json::F64(count_tombs)),
            ("saved_reads", Json::F64(saved)),
            ("clean_saved_reads", Json::F64(clean_saved)),
        ]),
    );
    segdb_bench::report::finish("query_modes").expect("write BENCH_query_modes.json");
}
