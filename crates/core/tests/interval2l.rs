//! Dedicated Solution-2 (Theorem 2) tests: oracle agreement on every
//! workload family, boundary-exact probes, the bridges on/off ablation,
//! insert storms with validation, and complexity-shape checks.

use segdb_core::interval2l::{Interval2LConfig, TwoLevelInterval};
use segdb_core::report::ids;
use segdb_core::FullScan;
use segdb_geom::gen::{self, vertical_queries, Family};
use segdb_geom::query::scan_oracle;
use segdb_geom::{Segment, VerticalQuery};
use segdb_pager::{Pager, PagerConfig};

fn pager(page: usize) -> Pager {
    Pager::new(PagerConfig {
        page_size: page,
        cache_pages: 0,
    })
}

fn check(set: &[Segment], t: &TwoLevelInterval, p: &Pager, queries: &[VerticalQuery], tag: &str) {
    for q in queries {
        let (hits, trace) = t.query(p, q).unwrap();
        let expect = ids(&scan_oracle(set, q));
        let got = ids(&segdb_core::report::normalize(hits));
        assert_eq!(got, expect, "{tag} {q:?}");
        assert_eq!(trace.hits as usize, expect.len(), "{tag}");
    }
}

fn boundary_queries(set: &[Segment]) -> Vec<VerticalQuery> {
    let mut qs = Vec::new();
    for s in set.iter().take(15) {
        qs.push(VerticalQuery::Line { x: s.a.x });
        qs.push(VerticalQuery::Line { x: s.b.x });
        qs.push(VerticalQuery::segment(s.a.x, s.a.y - 3, s.a.y + 3));
        qs.push(VerticalQuery::RayUp {
            x: s.b.x,
            y0: s.b.y,
        });
        qs.push(VerticalQuery::RayDown {
            x: s.b.x,
            y0: s.b.y,
        });
    }
    qs
}

#[test]
fn matches_oracle_on_all_families_and_pages() {
    for family in Family::ALL {
        let set = family.generate(600, 11);
        for page in [512usize, 1024, 4096] {
            let p = pager(page);
            let t = TwoLevelInterval::build(&p, Interval2LConfig::default(), set.clone()).unwrap();
            t.validate(&p).unwrap();
            assert_eq!(t.len(), set.len() as u64);
            let mut queries = vertical_queries(&set, 25, 100, 31);
            queries.extend(boundary_queries(&set));
            check(&set, &t, &p, &queries, family.name());
        }
    }
}

#[test]
fn bridges_off_matches_bridges_on() {
    let set = gen::strips(3000, 1 << 15, 16, 500, 7); // long-heavy: big G lists
    let queries = vertical_queries(&set, 40, 60, 3);
    let p1 = pager(1024);
    let on = TwoLevelInterval::build(&p1, Interval2LConfig::default(), set.clone()).unwrap();
    let p2 = pager(1024);
    let off_cfg = Interval2LConfig {
        bridges: false,
        ..Interval2LConfig::default()
    };
    let off = TwoLevelInterval::build(&p2, off_cfg, set.clone()).unwrap();
    let (mut on_io, mut off_io, mut jumps) = (0u64, 0u64, 0u32);
    for q in &queries {
        let (h1, t1) = on.query(&p1, q).unwrap();
        let (h2, t2) = off.query(&p2, q).unwrap();
        assert_eq!(ids(&h1), ids(&h2));
        assert_eq!(ids(&h1), ids(&scan_oracle(&set, q)));
        on_io += t1.io.reads;
        off_io += t2.io.reads;
        jumps += t1.bridge_jumps;
    }
    assert!(jumps > 0, "bridged queries actually took bridge jumps");
    // Bridged navigation must not be slower overall.
    assert!(
        on_io <= off_io + off_io / 8,
        "bridges on {on_io} vs off {off_io}"
    );
    // Space: augment-free bridges cost nothing; the bridged build may
    // still differ slightly from tree shape — allow 5%.
    let (s1, s2) = (p1.live_pages(), p2.live_pages());
    assert!(s1 <= s2 + s2 / 20 + 4, "space on {s1} vs off {s2}");
}

#[test]
fn incremental_insert_matches_oracle_and_validates() {
    let set = gen::mixed_map(500, 41);
    let p = pager(512);
    let mut t = TwoLevelInterval::build(&p, Interval2LConfig::default(), vec![]).unwrap();
    for (i, s) in set.iter().enumerate() {
        t.insert(&p, *s).unwrap();
        if i % 120 == 0 {
            t.validate(&p).unwrap();
        }
    }
    t.validate(&p).unwrap();
    assert_eq!(t.len(), set.len() as u64);
    let mut queries = vertical_queries(&set, 25, 120, 43);
    queries.extend(boundary_queries(&set));
    check(&set, &t, &p, &queries, "incremental");
    // Everything is retrievable.
    let mut all = ids(&t.scan_all(&p).unwrap());
    all.dedup();
    assert_eq!(all.len(), set.len());
}

#[test]
fn mixed_build_then_insert_long_segments() {
    // Inserting long segments exercises G insertion + bridge rebuilds.
    let base = gen::strips(800, 1 << 14, 16, 600, 3);
    let p = pager(1024);
    let mut t = TwoLevelInterval::build(&p, Interval2LConfig::default(), base.clone()).unwrap();
    let mut all = base.clone();
    for i in 0..200u64 {
        let y = (900 + i as i64) * 16;
        let s = Segment::new(10_000 + i, (i as i64 * 7, y), (1 << 14, y + 1)).unwrap();
        t.insert(&p, s).unwrap();
        all.push(s);
    }
    t.validate(&p).unwrap();
    check(
        &all,
        &t,
        &p,
        &vertical_queries(&all, 30, 80, 17),
        "long-inserts",
    );
}

#[test]
fn query_io_beats_full_scan_and_first_level_is_shallow() {
    let p = pager(4096);
    let set = gen::strips(40_000, 1 << 18, 16, 250, 13);
    let t = TwoLevelInterval::build(&p, Interval2LConfig::default(), set.clone()).unwrap();
    let fs = FullScan::build(&p, &set).unwrap();
    let queries = vertical_queries(&set, 20, 10, 19);
    let (mut t_io, mut fs_io, mut max_depth) = (0u64, 0u64, 0u32);
    for q in &queries {
        let (h1, tr1) = t.query(&p, q).unwrap();
        let (h2, tr2) = fs.query(&p, q).unwrap();
        assert_eq!(ids(&h1), ids(&h2));
        t_io += tr1.io.reads;
        fs_io += tr2.io.reads;
        max_depth = max_depth.max(tr1.first_level_nodes);
    }
    assert!(t_io * 10 < fs_io, "index {t_io} vs scan {fs_io}");
    // With k ≈ 33 at 4 KiB pages and 40k segments, the first level is
    // 2–3 levels deep (log_k n), far below log₂ n ≈ 15.
    assert!(max_depth <= 5, "first-level depth {max_depth}");
}

#[test]
fn space_is_n_log_b_ish() {
    let p = pager(1024);
    let set = gen::strips(20_000, 1 << 16, 16, 300, 23);
    let before = p.live_pages();
    let t = TwoLevelInterval::build(&p, Interval2LConfig::default(), set.clone()).unwrap();
    let used = p.live_pages() - before;
    let b = segdb_core::chain::cap(1024);
    let n_blocks = set.len() / b + 1;
    let log_b = (b as f64).log2().ceil() as usize;
    assert!(
        used < 14 * n_blocks * log_b,
        "used {used}, n/B·log₂B = {}",
        n_blocks * log_b
    );
    t.destroy(&p).unwrap();
    assert_eq!(p.live_pages(), before);
}

#[test]
fn empty_and_degenerate() {
    let p = pager(512);
    let t = TwoLevelInterval::build(&p, Interval2LConfig::default(), vec![]).unwrap();
    t.validate(&p).unwrap();
    let (hits, _) = t.query(&p, &VerticalQuery::Line { x: 0 }).unwrap();
    assert!(hits.is_empty());
    // A single vertical segment (exercises C_i paths).
    let v = vec![Segment::new(1, (5, 0), (5, 10)).unwrap()];
    let t = TwoLevelInterval::build(&p, Interval2LConfig::default(), v.clone()).unwrap();
    check(
        &v,
        &t,
        &p,
        &[
            VerticalQuery::Line { x: 5 },
            VerticalQuery::segment(5, 10, 20),
            VerticalQuery::segment(5, 11, 20),
            VerticalQuery::Line { x: 4 },
        ],
        "single-vertical",
    );
}

#[test]
fn tiny_fanout_forced() {
    // Force k = 2 to stress boundary/edge-slab logic on deep trees.
    let set = gen::mixed_map(400, 51);
    let p = pager(4096);
    let cfg = Interval2LConfig {
        fanout: Some(2),
        ..Interval2LConfig::default()
    };
    let t = TwoLevelInterval::build(&p, cfg, set.clone()).unwrap();
    t.validate(&p).unwrap();
    let mut queries = vertical_queries(&set, 30, 100, 3);
    queries.extend(boundary_queries(&set));
    check(&set, &t, &p, &queries, "k=2");
}

#[test]
fn lazy_deletion_extension() {
    let set = gen::mixed_map(400, 0xDE1);
    let p = pager(512);
    let mut t = TwoLevelInterval::build(&p, Interval2LConfig::default(), set.clone()).unwrap();
    // Remove a third; query correctness against the survivor oracle.
    let (gone, kept): (Vec<Segment>, Vec<Segment>) = set.iter().partition(|s| s.id % 3 == 0);
    for s in &gone {
        assert!(t.remove(&p, s).unwrap(), "missing {s}");
        assert!(!t.remove(&p, s).unwrap(), "double remove {s}");
    }
    t.validate(&p).unwrap();
    assert_eq!(t.len() as usize, kept.len());
    check(
        &kept,
        &t,
        &p,
        &vertical_queries(&kept, 30, 120, 0xDE1),
        "post-delete",
    );
    // Deleting enough triggers the rebuild that purges tombstones.
    let (gone2, kept2): (Vec<Segment>, Vec<Segment>) = kept.iter().partition(|s| s.id % 2 == 0);
    for s in &gone2 {
        assert!(t.remove(&p, s).unwrap());
    }
    t.validate(&p).unwrap();
    assert_eq!(t.len() as usize, kept2.len());
    check(
        &kept2,
        &t,
        &p,
        &vertical_queries(&kept2, 20, 150, 0xDE2),
        "post-rebuild",
    );
    // Re-inserting a previously tombstoned id must resurface it.
    let back = gone[0];
    t.insert(&p, back).unwrap();
    t.validate(&p).unwrap();
    let mut expect = kept2.clone();
    expect.push(back);
    check(
        &expect,
        &t,
        &p,
        &[VerticalQuery::Line { x: back.a.x }],
        "resurrect",
    );
}

/// `remove` finds a segment by a point probe at its left endpoint. It
/// must find every stored segment wherever the structure filed it — a
/// leaf, a boundary's `L`/`R` PSTs, a `G` list, a `C` set — pick the
/// right one out of several through the same point, and find nothing
/// that differs from a stored segment in id or in geometry.
#[test]
fn the_membership_probe_is_exact() {
    for page in [512usize, 4096] {
        // A map plus what it lacks: full-width horizontals (a `G`
        // multislab list each) and a star through one left endpoint.
        let mut set = gen::mixed_map(900, 0x9B0E);
        gen::spans_and_star(&mut set);
        let p = pager(page);
        let mut t = TwoLevelInterval::build(&p, Interval2LConfig::default(), set.clone()).unwrap();
        let st = t.describe(&p).unwrap();
        assert!(
            st.in_leaves > 0 && st.on_line > 0 && st.crossing > 0 && st.long_fragment_records > 0,
            "page {page}: a placement is missing from {st:?}"
        );
        for s in set.iter().step_by(9).chain(&set[set.len() - 8..]) {
            let other_id = Segment::new(s.id + 1_000_000, s.a, s.b).unwrap();
            let other_geometry = Segment::new(s.id, s.a, (s.b.x, s.b.y + 1)).unwrap();
            assert!(!t.remove(&p, &other_id).unwrap(), "{other_id}");
            assert!(!t.remove(&p, &other_geometry).unwrap(), "{other_geometry}");
        }
        assert_eq!((t.len(), t.tomb_count()), (set.len() as u64, 0));
        // Remove everything, a fifth at a time, each segment once.
        let mut kept = set.clone();
        for round in 0..5u64 {
            let (gone, rest): (Vec<Segment>, Vec<Segment>) =
                kept.iter().partition(|s| s.id % 5 == round);
            for s in &gone {
                assert!(t.remove(&p, s).unwrap(), "page {page}: missing {s}");
                assert!(!t.remove(&p, s).unwrap(), "page {page}: removed twice {s}");
            }
            kept = rest;
            t.validate(&p).unwrap();
            assert_eq!(t.len() as usize, kept.len());
            let mut queries = vertical_queries(&set, 12, 150, round);
            queries.extend(
                gone.iter()
                    .take(6)
                    .map(|s| VerticalQuery::Line { x: s.a.x }),
            );
            check(&kept, &t, &p, &queries, "probe-exact");
        }
        assert!(t.is_empty());
    }
}

/// Tombstones are resident: `attach` loads the chain once and checks it
/// against the recorded count, and after that no read touches it — a
/// Count costs the pages it cost before the removes, since a lazy delete
/// leaves the index pages alone.
#[test]
fn attach_loads_the_tombstone_chain_and_reads_never_touch_it() {
    let set = gen::mixed_map(600, 0xA77);
    let p = pager(1024);
    let cfg = Interval2LConfig::default();
    let mut t = TwoLevelInterval::build(&p, cfg, set.clone()).unwrap();
    let queries = vertical_queries(&set, 24, 100, 0xA77);
    let count_pages = |t: &TwoLevelInterval| -> Vec<u64> {
        (queries.iter())
            .map(|q| {
                let mut sink = segdb_geom::CountSink::new();
                let trace = t.query_sink(&p, q, &mut sink).unwrap();
                trace.io.reads + trace.io.cache_hits
            })
            .collect()
    };
    let fresh = count_pages(&t);
    let (gone, kept): (Vec<Segment>, Vec<Segment>) = set.iter().partition(|s| s.id % 5 == 0);
    for s in &gone {
        assert!(t.remove(&p, s).unwrap());
    }
    assert_eq!(t.tomb_count(), gone.len() as u64);
    assert_eq!(count_pages(&t), fresh, "a Count read the tombstone chain");

    let (root, len, tomb_head, tomb_count) = t.state();
    let again = TwoLevelInterval::attach(&p, cfg, root, len, tomb_head, tomb_count).unwrap();
    again.validate(&p).unwrap();
    assert_eq!(again.tomb_count(), tomb_count);
    assert_eq!(count_pages(&again), fresh);
    check(&kept, &again, &p, &queries, "reattached");
    for wrong in [tomb_count - 1, tomb_count + 1] {
        let err = TwoLevelInterval::attach(&p, cfg, root, len, tomb_head, wrong).unwrap_err();
        assert!(err.to_string().contains("tombstone chain"), "{err}");
    }
}

#[test]
fn interleaved_insert_delete_storm() {
    let set = gen::strips(600, 1 << 13, 16, 300, 0xF00);
    let p = pager(512);
    let mut t = TwoLevelInterval::build(&p, Interval2LConfig::default(), vec![]).unwrap();
    let mut live: Vec<Segment> = Vec::new();
    for (i, s) in set.iter().enumerate() {
        t.insert(&p, *s).unwrap();
        live.push(*s);
        if i % 4 == 3 {
            let kill = live.remove((i * 31) % live.len());
            assert!(t.remove(&p, &kill).unwrap());
        }
        if i % 150 == 149 {
            t.validate(&p).unwrap();
            check(
                &live,
                &t,
                &p,
                &vertical_queries(&live, 10, 80, i as u64),
                "storm",
            );
        }
    }
    t.validate(&p).unwrap();
    assert_eq!(t.len() as usize, live.len());
}

/// A lower-bounded walk (Collect, Exists, Limit) re-anchors each `G` run
/// through a bridge taken from before the run start. The pointer used to
/// aim at the child leaf of the *marked* element of the merge, which
/// follows its carrier, so the jump could land one leaf late and drop
/// the first record of a run — about one such query in 500 at this
/// size. Moved here from `benchmark/src/inputs.rs` with the fix.
#[test]
fn the_bridge_defect() {
    let set = Family::Mixed.generate(40_000, 42);
    let db = segdb_core::SegmentDatabase::builder()
        .trust_input()
        .cache_pages(1 << 14)
        .build(set.clone())
        .unwrap();
    db.validate().unwrap();
    let mut short = Vec::new();
    for q in vertical_queries(&set, 4096, 120, 42) {
        let (hits, _) = db.query_canonical(&q).unwrap();
        let want = set.iter().filter(|s| q.hits(s)).count();
        if hits.len() != want {
            short.push((q, want, hits.len()));
        }
    }
    assert!(short.is_empty(), "(query, oracle, collected): {short:?}");
}
