//! GIS scenario (the paper's primary motivation, §1): map layers stored
//! as collections of NCT segments, probed with survey corridors.
//!
//! A synthetic city: a street grid (roads layer) plus contour-like strip
//! segments (terrain layer) in a disjoint band. Queries model a
//! north-south survey corridor ("which features does the corridor beam
//! cross between two altitudes?") and compare the paper's two structures
//! against both baselines on identical probes.
//!
//! ```sh
//! cargo run --release --example gis_layers
//! ```

use segdb::core::{
    FullScan, IndexKind, Query, QueryMode, QueryTrace, SegmentDatabase, StabThenFilter,
};
use segdb::geom::gen::{mixed_map, vertical_queries};
use segdb::geom::{Segment, VerticalQuery};
use segdb::pager::{Pager, PagerConfig};

/// Run every probe through `query`, print one table row, and return each
/// probe's answer as sorted ids (a database answer lists its hits in
/// walk order, the baselines in their own, so each is sorted to compare).
fn row(
    name: &str,
    blocks: usize,
    probes: &[VerticalQuery],
    query: impl Fn(&VerticalQuery) -> (Vec<Segment>, QueryTrace),
) -> Vec<Vec<u64>> {
    let (mut reads, mut hits, mut depth) = (0u64, 0u64, 0u64);
    let mut answers = Vec::new();
    for q in probes {
        let (h, t) = query(q);
        reads += t.io.reads;
        hits += t.hits as u64;
        depth = depth.max(t.first_level_nodes as u64);
        let mut ids: Vec<u64> = h.iter().map(|s| s.id).collect();
        ids.sort_unstable();
        answers.push(ids);
    }
    println!(
        "{:<18} {:>8} {:>12.1} {:>12.1} {:>10}",
        name,
        blocks,
        reads as f64 / probes.len() as f64,
        hits as f64 / probes.len() as f64,
        depth,
    );
    answers
}

fn main() {
    let map = mixed_map(30_000, 0xC17);
    println!("city map: {} segments (roads + terrain)", map.len());

    let probes = vertical_queries(&map, 50, 30, 0xBEEF);

    println!(
        "\n{:<18} {:>8} {:>12} {:>12} {:>10}",
        "index", "blocks", "reads/query", "hits/query", "1st-level"
    );
    let mut answers = Vec::new();
    for kind in [IndexKind::TwoLevelInterval, IndexKind::TwoLevelBinary] {
        let db = SegmentDatabase::builder()
            .page_size(4096)
            .index(kind)
            .build(map.clone())
            .expect("valid NCT map");
        answers.push(row(&format!("{kind:?}"), db.space_blocks(), &probes, |q| {
            let (answer, trace) = db
                .query(&Query::from(*q), QueryMode::Collect)
                .expect("query");
            (answer.segments().unwrap_or_default().to_vec(), trace)
        }));
    }
    // The baselines are built straight on a pager of their own.
    let pager = || {
        Pager::new(PagerConfig {
            page_size: 4096,
            cache_pages: 0,
        })
    };
    let p = pager();
    let stab = StabThenFilter::build(&p, &map).expect("stab build");
    answers.push(row("StabThenFilter", p.live_pages(), &probes, |q| {
        stab.query(&p, q).expect("query")
    }));
    let p = pager();
    let scan = FullScan::build(&p, &map).expect("scan build");
    answers.push(row("FullScan", p.live_pages(), &probes, |q| {
        scan.query(&p, q).expect("query")
    }));
    assert!(
        answers.windows(2).all(|w| w[0] == w[1]),
        "index disagreement"
    );

    println!(
        "\ngis_layers OK (all indexes agreed on {} probes)",
        probes.len()
    );
}
