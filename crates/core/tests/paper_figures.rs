//! Fidelity tests against the paper's worked figures.
//!
//! The scanned figures carry no coordinates, so these tests rebuild each
//! figure's *situation* — the construction rules it illustrates — and
//! assert the structural facts the paper states about it.

use segdb_core::interval2l::{Interval2LConfig, TwoLevelInterval};
use segdb_core::report::ids;
use segdb_core::IndexKind;
use segdb_geom::query::scan_oracle;
use segdb_geom::{Segment, VerticalQuery};
use segdb_pager::{Pager, PagerConfig};

/// `t`'s hits for `q`, collected.
fn collect(t: &TwoLevelInterval, p: &Pager, q: &VerticalQuery) -> Vec<Segment> {
    let mut hits = Vec::new();
    t.query_sink(p, q, &mut hits).unwrap();
    hits
}

fn pager(page: usize) -> Pager {
    Pager::new(PagerConfig {
        page_size: page,
        cache_pages: 0,
    })
}

fn seg(id: u64, a: (i64, i64), b: (i64, i64)) -> Segment {
    Segment::new(id, a, b).unwrap()
}

/// Figure 4: "(a) A set of 7 NCT segments; (b) the corresponding data
/// structure (B = 2)". Seven segments in the three §3 roles: on the
/// root's base line, crossing it, and strictly to either side.
#[test]
fn figure_4_solution1_decomposition() {
    // x-median of endpoints will be 50 (constructed so).
    let set = vec![
        seg(1, (10, 10), (90, 12)), // crosses bl(root)=50
        seg(2, (40, 30), (60, 34)), // crosses
        seg(3, (50, 40), (50, 55)), // lies ON the base line (vertical)
        seg(4, (0, 70), (30, 72)),  // strictly left
        seg(5, (5, 90), (45, 88)),  // strictly left
        seg(6, (55, 70), (95, 71)), // strictly right
        seg(7, (60, 90), (99, 93)), // strictly right
    ];
    // Tiny page so the leaves keep B = 2-ish capacity like the figure.
    let p = pager(256);
    let t = TwoLevelInterval::build(&p, IndexKind::TwoLevelBinary.config(), set.clone()).unwrap();
    t.validate(&p).unwrap();
    let st = t.describe(&p).unwrap();
    // The construction facts of §3 the figure illustrates:
    assert_eq!(st.on_line, 1, "one segment lies on a base line (C)");
    // Segments 1 and 2 cross the root line; the side sets are small
    // enough to be leaves, so no deeper crossings.
    assert_eq!(st.crossing, 2, "two segments split into L(v)/R(v)");
    assert_eq!(st.in_leaves, 4, "the rest fall through to leaves");
    assert_eq!(st.internal_nodes, 1, "a single base-line node suffices");

    // Query along the base line finds exactly C ∪ crossing-at-base.
    let q = VerticalQuery::Line { x: 50 };
    let hits = collect(&t, &p, &q);
    assert_eq!(ids(&hits), vec![1, 2, 3]);
    // Thin window isolating the on-line segment.
    let q = VerticalQuery::segment(50, 45, 50);
    let hits = collect(&t, &p, &q);
    assert_eq!(ids(&hits), vec![3]);
}

/// Figure 5 situation (§4.1): segments that intersect no slab boundary
/// are passed to the next level; the rest stay in the node.
#[test]
fn figure_5_slab_assignment() {
    // A wide spanner, a boundary-crosser, and slab-confined fillers.
    // A small page forces the first level to actually decompose.
    let mut set = vec![
        seg(1001, (0, 10_000), (100, 10_001)), // spans everything → long fragment
        seg(1002, (25, 10_030), (65, 10_031)), // crosses ≥ 1 boundary
    ];
    // Three clusters of short segments strictly inside slabs.
    let mut id = 0u64;
    for base in [0i64, 31, 95] {
        for i in 0..12i64 {
            let lo = base + (i % 4);
            set.push(seg(
                id,
                (lo, 100 * id as i64),
                (lo + 2, 100 * id as i64 + 1),
            ));
            id += 1;
        }
    }
    let p = pager(512);
    let t = TwoLevelInterval::build(&p, Interval2LConfig::default(), set.clone()).unwrap();
    t.validate(&p).unwrap();
    let st = t.describe(&p).unwrap();
    assert!(st.internal_nodes >= 1, "the set no longer fits one leaf");
    assert!(
        st.crossing >= 2,
        "the spanner and the crosser stay at slab nodes"
    );
    assert!(
        st.in_leaves >= 1,
        "slab-confined segments are passed to the next level"
    );
    assert_eq!(
        st.on_line + st.crossing + st.in_leaves,
        set.len() as u64,
        "every segment is in exactly one role"
    );
    // Everything still answers correctly.
    for q in [
        VerticalQuery::Line { x: 2 },
        VerticalQuery::Line { x: 32 },
        VerticalQuery::Line { x: 97 },
    ] {
        let hits = collect(&t, &p, &q);
        assert_eq!(ids(&hits), ids(&scan_oracle(&set, &q)), "{q:?}");
    }
}

/// Figure 6 situation (§4.2): a segment completely spanning slabs is
/// split into one long (central) fragment and at most two short ones;
/// a segment crossing one boundary splits into two short fragments.
#[test]
fn figure_6_fragment_split() {
    let p = pager(1024);
    let cfg = Interval2LConfig {
        fanout: Some(4),
        ..Interval2LConfig::default()
    };
    // A long spanner plus enough filler that the root decomposes with
    // real slabs (1 KiB pages → leaf capacity ~25).
    let mut set = vec![
        seg(1000, (0, 100_000), (200, 100_001)), // spans all slabs
    ];
    for i in 0..40u64 {
        let x = 5 * i as i64;
        set.push(seg(i, (x, 10 * i as i64), (x + 3, 10 * i as i64 + 1)));
    }
    let t = TwoLevelInterval::build(&p, cfg, set.clone()).unwrap();
    t.validate(&p).unwrap();
    let st = t.describe(&p).unwrap();
    assert!(st.internal_nodes >= 1);
    // The spanner contributes ≥ 1 long-fragment record; a long fragment
    // has at most two allocation nodes per level of G (paper §4.2), and
    // G's height here is ≤ log₂(4) + 1.
    assert!(st.long_fragment_records >= 1);
    assert!(
        st.long_fragment_records <= 8,
        "allocation records {} exceed 2 per G level for one spanner",
        st.long_fragment_records
    );
    // And the spanner is found from every slab.
    for x in [1i64, 60, 120, 199] {
        let hits = collect(&t, &p, &VerticalQuery::segment(x, 99_990, 100_010));
        assert!(ids(&hits).contains(&1000), "x={x}");
    }
}

/// Figure 7 situation (§4.3): bridges with the d-property. After a
/// build with bridges, every parent multislab list has a bridge pointer
/// at least every ~d+2 elements (our pointer-based substitution's
/// density guarantee), and bridged queries take jumps.
#[test]
fn figure_7_bridge_density() {
    // Long-heavy workload so multislab lists are deep.
    let set = segdb_geom::gen::strips(4000, 1 << 14, 16, 800, 0xF16);
    let p = pager(2048);
    for d in [2usize, 4] {
        let cfg = Interval2LConfig {
            bridge_d: d,
            ..Interval2LConfig::default()
        };
        let t = TwoLevelInterval::build(&p, cfg, set.clone()).unwrap();
        let st = t.describe(&p).unwrap();
        if st.bridge_pointers == 0 {
            continue; // no parent/child pairs materialized at this size
        }
        assert!(
            st.max_bridge_gap as usize <= 2 * d + 4,
            "d={d}: max gap {} violates the d-property",
            st.max_bridge_gap
        );
        // Navigation actually uses them.
        let queries = segdb_geom::gen::vertical_queries(&set, 30, 10, 3);
        let mut jumps = 0;
        for q in &queries {
            let trace = t.query_sink(&p, q, &mut Vec::new()).unwrap();
            jumps += trace.bridge_jumps;
        }
        assert!(jumps > 0, "d={d}: no bridge jumps taken");
    }
}

/// Footnote 4: "the construction guarantees that each node is contained
/// in exactly one block" — no structure may ever produce a node image
/// larger than a page (the codec errors if so; building large sets on
/// small pages exercises it).
#[test]
fn footnote_4_nodes_fit_blocks() {
    let set = segdb_geom::gen::mixed_map(2000, 0xF4);
    for page in [256usize, 512] {
        let p = pager(page);
        let t =
            TwoLevelInterval::build(&p, IndexKind::TwoLevelBinary.config(), set.clone()).unwrap();
        t.validate(&p).unwrap();
        let p2 = pager(page.max(512));
        let t2 = TwoLevelInterval::build(&p2, Interval2LConfig::default(), set.clone()).unwrap();
        t2.validate(&p2).unwrap();
    }
}
