//! The read path reads index nodes in place — a *view* borrowed from the
//! page image — where the write path wants an owned node. The view is
//! each layout's one parser (`decode` collects from it, `Record::decode`
//! is `Record::read` on a reader's next bytes), so the reference it is
//! checked against is the encoder: a random valid node, encoded, decodes
//! back to itself, and every view accessor returns the field that was
//! encoded. On every image, valid or not:
//!
//! * where `decode` accepts, every accessor equals the decoded field;
//! * the view constructor rejects a bad tag or extent, and a record that
//!   fails its validation is rejected by the accessor that reads it — so
//!   `decode` errs exactly when the constructor or some accessor does;
//! * nothing panics on truncated, bit-flipped or random images, and a
//!   query over a database with a garbled page errs or answers;
//! * every decoder and the superblock return on arbitrary bytes and on
//!   valid images cut short, and the wire, shard-map and JSON parsers on
//!   mutated lines.
//!
//! The golden-bytes tests at the end pin each page layout independently
//! of the encoder.

use segdb::bptree::node::{Node as BNode, NodeView as BView};
use segdb::bptree::record::KeyValue;
use segdb::bptree::{Record, TreeState};
use segdb::core::anyquery::SegRec;
use segdb::core::interval2l::cset::CRec;
use segdb::core::interval2l::gtree::skeleton_len;
use segdb::core::interval2l::msrec::MsRec;
use segdb::core::interval2l::node as slab;
use segdb::core::persist::Superblock;
use segdb::core::{IndexKind, QueryAnswer, QueryMode, SegmentDatabase};
use segdb::geom::gen::{mixed_map, vertical_queries};
use segdb::geom::Segment;
use segdb::itree::interval::TaggedInterval;
use segdb::itree::node::{mslab_count, mslab_index, InternalNode, ItNode, ItNodeView};
use segdb::itree::Interval;
use segdb::obs::json;
use segdb::obs::trace::{self, EventKind};
use segdb::pager::{ByteReader, ByteWriter, PagerError};
use segdb::pst::node::{ChildEntry, PstNode, PstNodeView};
use segdb::pst::PstState;
use segdb_rng::{check, SmallRng};
use segdb_server::proto::parse_request;
use segdb_server::ShardMap;
use std::fmt::Debug;
use std::mem::discriminant;

const PAGE: usize = 1024;

// ---- random valid values ---------------------------------------------------

fn seg(rng: &mut SmallRng) -> Segment {
    loop {
        let a = (
            rng.gen_range(-1000..=1000i64),
            rng.gen_range(-1000..=1000i64),
        );
        let b = (
            rng.gen_range(-1000..=1000i64),
            rng.gen_range(-1000..=1000i64),
        );
        if let Ok(s) = Segment::new(rng.next_u64(), a, b) {
            return s;
        }
    }
}

fn kv(rng: &mut SmallRng) -> KeyValue {
    KeyValue {
        key: rng.next_u64() as i64,
        value: rng.next_u64(),
    }
}

fn interval(rng: &mut SmallRng) -> Interval {
    Interval::new(rng.next_u64(), rng.next_u64() as i64, rng.next_u64() as i64)
}

fn tagged(rng: &mut SmallRng) -> TaggedInterval {
    TaggedInterval {
        tag: rng.next_u64() as u16,
        iv: interval(rng),
    }
}

fn msrec(rng: &mut SmallRng) -> MsRec {
    MsRec {
        seg: seg(rng),
        bridge_left: rng.next_u64() as u32,
        bridge_right: rng.next_u64() as u32,
    }
}

fn tree_state(rng: &mut SmallRng) -> TreeState {
    TreeState {
        root: rng.next_u64() as u32,
        height: rng.next_u64() as u32,
        len: rng.next_u64(),
    }
}

fn pst_state(rng: &mut SmallRng) -> PstState {
    PstState {
        root: rng.next_u64() as u32,
        total: rng.next_u64(),
        legacy_tombs: rng.next_u64() as u32,
    }
}

fn crec(rng: &mut SmallRng) -> CRec {
    CRec {
        lo: rng.next_u64() as i64,
        hi: rng.next_u64() as i64,
        id: rng.next_u64(),
    }
}

fn vec_of<T>(rng: &mut SmallRng, n: usize, mut f: impl FnMut(&mut SmallRng) -> T) -> Vec<T> {
    (0..n).map(|_| f(rng)).collect()
}

// ---- hostile images ----------------------------------------------------------

/// `image` cut short, with a few bits flipped, and replaced by noise —
/// half the time with `plausible` applied to the noise's header (a valid
/// tag, small counts), so that it gets past the constructor and the
/// accessors run over garbage.
fn hostile(rng: &mut SmallRng, image: &[u8], plausible: fn(&mut [u8])) -> Vec<Vec<u8>> {
    let mut out = vec![image[..rng.gen_range(0..image.len())].to_vec()];
    let mut flipped = image.to_vec();
    for _ in 0..rng.gen_range(1..=6usize) {
        // Mostly near the head, where the header and counts live.
        let at = if rng.gen_bool(0.6) {
            rng.gen_range(0..16usize)
        } else {
            rng.gen_range(0..flipped.len())
        };
        flipped[at] ^= 1 << rng.gen_range(0..8u32);
    }
    out.push(flipped);
    let mut noise: Vec<u8> = (0..image.len()).map(|_| rng.next_u64() as u8).collect();
    if rng.gen_bool(0.5) {
        plausible(&mut noise);
    }
    out.push(noise);
    out
}

/// `[tag: 1..=tags][count: u16 < 16]…`, the header of every tagged node.
fn tagged_header<const TAGS: u8>(noise: &mut [u8]) {
    noise[0] = noise[0] % TAGS + 1;
    noise[1] %= 16;
    noise[2] = 0;
}

/// Did `decode` fail on the node's own shape — an unknown tag, an arity
/// mismatch, a section running off the image — as opposed to on a
/// record inside it?
fn structural(e: &PagerError) -> bool {
    match e {
        PagerError::CodecOverflow { .. } => true,
        PagerError::Corrupt(what) => what.contains("tag") || what.contains("arity"),
        _ => false,
    }
}

/// How one image fared through decode and view.
#[derive(Debug, Default)]
struct Tally {
    agree: u32,
    both_reject: u32,
    record_reject: u32,
}

/// The contract of the module docs, for one image. `fields` compares an
/// accepted node with its view; `touch` calls every accessor of a view
/// whose image `decode` rejected and says whether any of them erred.
fn check<N, V>(
    tally: &mut Tally,
    decoded: Result<N, PagerError>,
    view: Result<V, PagerError>,
    fields: impl FnOnce(&N, &V),
    touch: impl FnOnce(&V) -> bool,
) {
    match (decoded, view) {
        (Ok(node), Ok(view)) => {
            fields(&node, &view);
            tally.agree += 1;
        }
        (Ok(_), Err(e)) => panic!("the view rejects an image decode accepts: {e:?}"),
        (Err(d), Ok(view)) => {
            assert!(
                !structural(&d),
                "the view accepts a shape decode rejects: {d:?}"
            );
            assert!(
                touch(&view),
                "no accessor rejects the record decode rejected: {d:?}"
            );
            tally.record_reject += 1;
        }
        (Err(d), Err(v)) => {
            if structural(&d) {
                assert_eq!(discriminant(&d), discriminant(&v), "{d:?} vs {v:?}");
            }
            tally.both_reject += 1;
        }
    }
}

// ---- bptree ------------------------------------------------------------------

fn check_bptree<R: Record + PartialEq + Debug>(tally: &mut Tally, buf: &[u8]) {
    check(
        tally,
        BNode::<R>::decode(buf),
        BView::<R>::new(buf),
        |node, view| match (node, view) {
            (BNode::Leaf { records, next }, BView::Leaf(v)) => {
                assert_eq!((v.len(), v.next()), (records.len(), *next));
                assert_eq!(v.is_empty(), records.is_empty());
                for (i, r) in records.iter().enumerate() {
                    assert_eq!(&v.record(i).unwrap(), r);
                }
            }
            (
                BNode::Internal {
                    children,
                    seps,
                    counts,
                },
                BView::Internal(v),
            ) => {
                assert_eq!(v.len(), seps.len());
                for (i, s) in seps.iter().enumerate() {
                    assert_eq!(&v.sep(i).unwrap(), s);
                }
                for (j, c) in children.iter().enumerate() {
                    assert_eq!(v.child(j), *c);
                    assert_eq!(v.count(j), counts.get(j).copied());
                }
            }
            (node, view) => panic!("{node:?} viewed as {view:?}"),
        },
        |view| match view {
            BView::Leaf(v) => (0..v.len()).any(|i| v.record(i).is_err()),
            BView::Internal(v) => {
                (0..=v.len()).for_each(|j| {
                    let _ = (v.child(j), v.count(j));
                });
                (0..v.len()).any(|i| v.sep(i).is_err())
            }
        },
    );
}

fn bptree_images<R: Record + PartialEq>(
    rng: &mut SmallRng,
    mut rec: impl FnMut(&mut SmallRng) -> R,
) -> Vec<Vec<u8>> {
    let leaf_cap = BNode::<R>::leaf_capacity(PAGE);
    let int_cap = BNode::<R>::internal_capacity(PAGE);
    let mut out = Vec::new();
    for _ in 0..40 {
        let n = rng.gen_range(0..=leaf_cap);
        let leaf = BNode::Leaf {
            records: vec_of(rng, n, &mut rec),
            next: rng.next_u64() as u32,
        };
        let k = rng.gen_range(0..=int_cap);
        let counted = rng.gen_bool(0.5);
        let internal = BNode::Internal {
            children: vec_of(rng, k + 1, |r| r.next_u64() as u32),
            seps: vec_of(rng, k, &mut rec),
            counts: if counted {
                vec_of(rng, k + 1, |r| r.next_u64())
            } else {
                Vec::new()
            },
        };
        for node in [leaf, internal] {
            let mut buf = vec![0u8; PAGE];
            node.encode(&mut buf).unwrap();
            assert_eq!(BNode::<R>::decode(&buf).unwrap(), node);
            out.push(buf);
        }
    }
    out
}

fn bptree_format<R: Record + PartialEq + Debug>(
    seed: u64,
    rec: impl FnMut(&mut SmallRng) -> R,
    validated: bool,
) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let (mut valid, mut bad) = (Tally::default(), Tally::default());
    for image in bptree_images(&mut rng, rec) {
        check_bptree::<R>(&mut valid, &image);
        for h in hostile(&mut rng, &image, tagged_header::<3>) {
            check_bptree::<R>(&mut bad, &h);
        }
    }
    assert_eq!(
        (valid.agree, valid.both_reject, valid.record_reject),
        (80, 0, 0)
    );
    assert!(bad.agree > 0 && bad.both_reject > 0, "{bad:?}");
    assert_eq!(bad.record_reject > 0, validated, "{bad:?}");
}

#[test]
fn bptree_views_agree_with_decode_on_every_image() {
    bptree_format::<KeyValue>(1, kv, false);
    bptree_format::<Interval>(2, interval, false);
    bptree_format::<TaggedInterval>(3, tagged, false);
    bptree_format::<MsRec>(4, msrec, true);
    bptree_format::<SegRec>(5, |r| SegRec(seg(r)), true);
    bptree_format::<CRec>(6, crec, false);
}

// ---- records -------------------------------------------------------------------

fn record_type<R: Record + PartialEq + Debug>(seed: u64, mut rec: impl FnMut(&mut SmallRng) -> R) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let both = |bytes: &[u8]| {
        let (read, decoded) = (R::read(bytes), R::decode(&mut ByteReader::new(bytes)));
        match (&read, &decoded) {
            (Ok(a), Ok(b)) => assert_eq!(a, b),
            (Err(a), Err(b)) => assert_eq!(discriminant(a), discriminant(b), "{a:?} vs {b:?}"),
            _ => panic!("read {read:?} but decode {decoded:?}"),
        }
        read
    };
    for _ in 0..500 {
        let r = rec(&mut rng);
        let mut buf = vec![0u8; R::ENCODED_SIZE + 3];
        r.encode(&mut ByteWriter::new(&mut buf)).unwrap();
        assert_eq!(both(&buf).unwrap(), r);
        for h in hostile(&mut rng, &buf[..R::ENCODED_SIZE], |_| ()) {
            let _ = both(&h);
        }
    }
}

#[test]
fn record_reads_agree_with_record_decodes() {
    record_type::<KeyValue>(11, kv);
    record_type::<Interval>(12, interval);
    record_type::<TaggedInterval>(13, tagged);
    record_type::<MsRec>(14, msrec);
    record_type::<CRec>(16, crec);
    record_type::<SegRec>(15, |r| SegRec(seg(r)));
}

// ---- pst ------------------------------------------------------------------------

fn check_pst(tally: &mut Tally, buf: &[u8]) {
    check(
        tally,
        PstNode::decode(buf),
        PstNodeView::new(buf),
        |node, v| {
            assert_eq!(
                (v.len(), v.nchildren()),
                (node.segments.len(), node.children.len())
            );
            assert_eq!(v.is_empty(), node.segments.is_empty());
            for (i, s) in node.segments.iter().enumerate() {
                assert_eq!(&v.segment(i).unwrap(), s);
            }
            for (i, c) in node.children.iter().enumerate() {
                let entry = ChildEntry {
                    router: v.router(i).unwrap(),
                    page: v.child_page(i),
                    size: v.child_size(i),
                };
                assert_eq!(&entry, c);
            }
            for (i, s) in node.seps.iter().enumerate() {
                assert_eq!(&v.sep(i).unwrap(), s);
            }
        },
        |v| {
            let mut erred = (0..v.len()).any(|i| v.segment(i).is_err());
            for i in 0..v.nchildren() {
                let _ = (v.child_page(i), v.child_size(i));
                erred |= v.router(i).is_err();
                erred |= i > 0 && v.sep(i - 1).is_err();
            }
            erred
        },
    );
}

fn pst_node(rng: &mut SmallRng) -> PstNode {
    let (cap, fanout) = segdb::pst::node::default_caps(PAGE);
    let nchildren = rng.gen_range(0..=fanout);
    let nsegs = rng.gen_range(0..=cap);
    PstNode {
        segments: vec_of(rng, nsegs, seg),
        children: vec_of(rng, nchildren, |r| ChildEntry {
            router: seg(r),
            page: r.next_u64() as u32,
            size: r.next_u64(),
        }),
        seps: vec_of(rng, nchildren.saturating_sub(1), seg),
    }
}

#[test]
fn pst_views_agree_with_decode_on_every_image() {
    let mut rng = SmallRng::seed_from_u64(21);
    let (mut valid, mut bad) = (Tally::default(), Tally::default());
    for _ in 0..80 {
        let node = pst_node(&mut rng);
        let mut image = vec![0u8; PAGE];
        node.encode(&mut image).unwrap();
        assert_eq!(PstNode::decode(&image).unwrap(), node);
        check_pst(&mut valid, &image);
        // `[count: u16][nchildren: u16]…`
        for h in hostile(&mut rng, &image, |noise| {
            (noise[0], noise[1], noise[2], noise[3]) = (noise[0] % 8, 0, noise[2] % 4, 0);
        }) {
            check_pst(&mut bad, &h);
        }
    }
    assert_eq!(
        (valid.agree, valid.both_reject, valid.record_reject),
        (80, 0, 0)
    );
    assert!(
        bad.agree > 0 && bad.both_reject > 0 && bad.record_reject > 0,
        "{bad:?}"
    );
}

// ---- itree ----------------------------------------------------------------------

fn check_itree(tally: &mut Tally, buf: &[u8]) {
    check(
        tally,
        ItNode::decode(buf),
        ItNodeView::new(buf),
        |node, view| match (node, view) {
            (ItNode::Leaf { intervals }, ItNodeView::Leaf(v)) => {
                assert_eq!(&v.intervals().collect::<Vec<_>>(), intervals);
            }
            (ItNode::Internal(n), ItNodeView::Internal(v)) => {
                let k = n.boundaries.len();
                assert_eq!(v.k(), k);
                for (i, b) in n.boundaries.iter().enumerate() {
                    assert_eq!(v.boundary(i), *b);
                    assert_eq!(v.slab_of(*b), n.boundaries.partition_point(|s| s < b));
                }
                for (j, c) in n.children.iter().enumerate() {
                    assert_eq!(v.child(j), *c);
                }
                assert_eq!((v.left(), v.right(), v.mslab()), (n.left, n.right, n.mslab));
                for a in 1..k {
                    for b in a..k {
                        assert_eq!(v.mslab_count(a, b), n.mslab_counts[mslab_index(k, a, b)]);
                    }
                }
            }
            (node, view) => panic!("{node:?} viewed as {view:?}"),
        },
        |_| false,
    );
}

#[test]
fn itree_views_agree_with_decode_on_every_image() {
    let mut rng = SmallRng::seed_from_u64(31);
    let (mut valid, mut bad) = (Tally::default(), Tally::default());
    let leaf_cap = segdb::itree::node::leaf_capacity(PAGE);
    let k_max = segdb::itree::node::max_fanout(PAGE);
    for _ in 0..40 {
        let n = rng.gen_range(0..=leaf_cap);
        let leaf = ItNode::Leaf {
            intervals: vec_of(&mut rng, n, interval),
        };
        let k = rng.gen_range(1..=k_max);
        let mut boundaries = vec_of(&mut rng, k, |r| r.gen_range(-5000..=5000i64));
        boundaries.sort_unstable();
        let internal = ItNode::Internal(Box::new(InternalNode {
            boundaries,
            children: vec_of(&mut rng, k + 1, |r| r.next_u64() as u32),
            left: tree_state(&mut rng),
            right: tree_state(&mut rng),
            mslab: tree_state(&mut rng),
            mslab_counts: vec_of(&mut rng, mslab_count(k), |r| r.next_u64() as u16),
        }));
        for node in [leaf, internal] {
            let mut image = vec![0u8; PAGE];
            node.encode(&mut image).unwrap();
            assert_eq!(ItNode::decode(&image).unwrap(), node);
            check_itree(&mut valid, &image);
            for h in hostile(&mut rng, &image, tagged_header::<2>) {
                check_itree(&mut bad, &h);
            }
        }
    }
    assert_eq!(
        (valid.agree, valid.both_reject, valid.record_reject),
        (80, 0, 0)
    );
    assert!(bad.agree > 0 && bad.both_reject > 0, "{bad:?}");
}

// ---- interval2l -------------------------------------------------------------------

fn check_slab(tally: &mut Tally, buf: &[u8]) {
    check(
        tally,
        slab::Node::decode(buf),
        slab::NodeView::new(buf),
        |node, view| match (node, view) {
            (
                slab::Node::Leaf { head, count },
                slab::NodeView::Leaf {
                    head: vhead,
                    count: vcount,
                },
            ) => assert_eq!((head, count), (vhead, vcount)),
            (slab::Node::Internal(n), slab::NodeView::Internal(v)) => {
                let k = n.boundaries.len();
                assert_eq!((v.k(), skeleton_len(k)), (k, n.g.len()));
                assert_eq!(
                    (v.total(), v.g_total(), v.bridges_dirty(), v.g_inserts()),
                    (n.total, n.g_total, n.bridges_dirty, n.g_inserts)
                );
                for i in 0..k {
                    assert_eq!(v.boundary(i), n.boundaries[i]);
                    assert_eq!((v.c(i), v.l(i), v.r(i)), (n.c[i], n.l[i], n.r[i]));
                    let b = n.boundaries[i];
                    assert_eq!(v.slab_of(b), n.boundaries.partition_point(|s| *s < b));
                }
                for j in 0..=k {
                    assert_eq!(
                        (v.child(j), v.child_size(j)),
                        (n.children[j], n.child_sizes[j])
                    );
                }
                for gi in 0..n.g.len() {
                    assert_eq!(v.g(gi), n.g[gi]);
                }
            }
            (node, view) => panic!("{node:?} viewed as {view:?}"),
        },
        |_| false,
    );
}

fn slab_node(rng: &mut SmallRng, k: usize) -> slab::Node {
    let mut boundaries = vec_of(rng, k, |r| r.gen_range(-5000..=5000i64));
    boundaries.sort_unstable();
    slab::Node::Internal(Box::new(slab::Internal {
        boundaries,
        children: vec_of(rng, k + 1, |r| r.next_u64() as u32),
        child_sizes: vec_of(rng, k + 1, |r| r.next_u64()),
        total: rng.next_u64(),
        c: vec_of(rng, k, tree_state),
        l: vec_of(rng, k, pst_state),
        r: vec_of(rng, k, pst_state),
        g: vec_of(rng, skeleton_len(k), tree_state),
        g_total: rng.next_u64(),
        bridges_dirty: rng.gen_bool(0.5),
        g_inserts: rng.next_u64() as u32,
    }))
}

#[test]
fn interval2l_views_agree_with_decode_on_every_image() {
    let mut rng = SmallRng::seed_from_u64(41);
    let (mut valid, mut bad) = (Tally::default(), Tally::default());
    for round in 0..40 {
        let leaf = slab::Node::Leaf {
            head: rng.next_u64() as u32,
            count: rng.next_u64(),
        };
        // 108 bytes per boundary: k ≤ 8 fits a 1 KiB page.
        let internal = slab_node(&mut rng, round % 8 + 1);
        for node in [leaf, internal] {
            let mut image = vec![0u8; PAGE];
            node.encode(&mut image).unwrap();
            assert_eq!(slab::Node::decode(&image).unwrap(), node);
            check_slab(&mut valid, &image);
            for h in hostile(&mut rng, &image, tagged_header::<2>) {
                check_slab(&mut bad, &h);
            }
        }
    }
    assert_eq!(
        (valid.agree, valid.both_reject, valid.record_reject),
        (80, 0, 0)
    );
    assert!(bad.agree > 0 && bad.both_reject > 0, "{bad:?}");
}

// ---- a database with one garbled page -------------------------------------------------

/// Every index kind, one page at a time replaced by noise or by its own
/// head with a noisy tail; the page is restored afterwards. Each query in each mode must return —
/// an error or an answer, not a panic — and an answer that never read
/// the garbled page must be the oracle's.
#[test]
fn a_garbled_page_yields_an_error_or_an_answer_never_a_panic() {
    let set = mixed_map(2500, 11);
    let queries = vertical_queries(&set, 12, 300, 5);
    let modes = [
        QueryMode::Collect,
        QueryMode::Count,
        QueryMode::Exists,
        QueryMode::Limit(3),
    ];
    let mut rng = SmallRng::seed_from_u64(61);
    let (mut erred, mut clean, mut touched_ok) = (0u32, 0u32, 0u32);
    for kind in [IndexKind::TwoLevelInterval, IndexKind::TwoLevelBinary] {
        let db = SegmentDatabase::builder()
            .page_size(PAGE)
            .index(kind)
            .trust_input()
            .build(set.clone())
            .unwrap();
        let pager = db.pager();
        for _ in 0..80 {
            let id = rng.gen_range(0..pager.capacity_pages() as u32);
            let Ok(original) = pager.page(id) else {
                continue; // a freed page
            };
            let mut garbled = original.to_vec();
            // Noise makes every page pointer a random u32, far out of
            // bounds. (Single flipped bits are left to the image-level
            // tests above: a flipped pointer bit can close a cycle in a
            // page chain, which no walk detects — pages carry no
            // checksum.)
            let keep = if rng.gen_bool(0.5) {
                0
            } else {
                rng.gen_range(0..64usize)
            };
            garbled[keep..].fill_with(|| rng.next_u64() as u8);
            pager
                .overwrite_page(id, |b| b.copy_from_slice(&garbled))
                .unwrap();
            for q in &queries {
                let want = segdb::core::report::ids(
                    &set.iter()
                        .filter(|s| q.hits(s))
                        .copied()
                        .collect::<Vec<_>>(),
                );
                for mode in modes {
                    trace::clear();
                    let result = trace::with_tracing(|| db.query_canonical_mode(q, mode));
                    let (events, dropped) = trace::drain();
                    assert_eq!(dropped, 0);
                    let touched = events.iter().any(|e| {
                        matches!(e.kind, EventKind::PageRead | EventKind::CacheHit)
                            && e.a == u64::from(id)
                    });
                    match result {
                        Err(_) => {
                            assert!(touched, "{kind:?}: an untouched garbled page erred");
                            erred += 1;
                        }
                        Ok(_) if touched => touched_ok += 1,
                        Ok((answer, _)) => {
                            clean += 1;
                            match (mode, answer) {
                                (QueryMode::Collect, QueryAnswer::Segments(v)) => {
                                    assert_eq!(segdb::core::report::ids(&v), want)
                                }
                                (QueryMode::Count, QueryAnswer::Count(n)) => {
                                    assert_eq!(n, want.len() as u64)
                                }
                                (QueryMode::Exists, QueryAnswer::Exists(b)) => {
                                    assert_eq!(b, !want.is_empty())
                                }
                                (QueryMode::Limit(k), QueryAnswer::Segments(v)) => {
                                    assert_eq!(v.len(), want.len().min(k as usize));
                                    assert!(v.iter().all(|s| want.contains(&s.id)));
                                }
                                (mode, answer) => panic!("{mode:?} answered {answer:?}"),
                            }
                        }
                    }
                }
            }
            pager
                .overwrite_page(id, |b| b.copy_from_slice(&original))
                .unwrap();
        }
        db.validate().unwrap();
    }
    assert!(
        erred > 100 && clean > 100 && touched_ok > 0,
        "garbled pages were read and rejected: {erred} erred, {clean} untouched, {touched_ok} read and answered"
    );
}

// ---- arbitrary bytes --------------------------------------------------------------------

/// Every page and record decoder, and the superblock, returns on
/// arbitrary bytes and on valid PST node images cut short — an error or
/// a value, never a panic.
#[test]
fn codecs_never_panic_on_arbitrary_bytes() {
    check::run(
        "codecs_never_panic_on_arbitrary_bytes",
        2048,
        |rng| {
            if rng.gen_bool(0.5) {
                return (0..rng.gen_range(0..600))
                    .map(|_| rng.next_u64() as u8)
                    .collect();
            }
            let mut image = vec![0u8; PAGE];
            pst_node(rng).encode(&mut image).unwrap();
            image.truncate(rng.gen_range(0..PAGE));
            image
        },
        |b| {
            let _ = PstNode::decode(b);
            let _ = BNode::<KeyValue>::decode(b);
            let _ = BNode::<MsRec>::decode(b);
            let _ = BNode::<CRec>::decode(b);
            let _ = ItNode::decode(b);
            let _ = slab::Node::decode(b);
            let _ = MsRec::decode(&mut ByteReader::new(b));
            let _ = CRec::decode(&mut ByteReader::new(b));
            let _ = KeyValue::decode(&mut ByteReader::new(b));
            let _ = Superblock::decode(b);
            let _ = Superblock::decode(&[b"SEGDB004", &b[..]].concat());
        },
    );
}

/// Valid wire requests, shard maps and JSON documents, with bytes
/// inserted and removed: every parser returns.
#[test]
fn parsers_never_panic_on_mutated_lines() {
    const LINES: [&str; 5] = [
        r#"{"id":7,"method":"query_line","params":{"x":3,"mode":"limit","limit":5}}"#,
        r#"{"id":1,"method":"query_segment","params":{"x1":5,"y1":0,"x2":5,"y2":9}}"#,
        r#"{"id":5,"method":"insert","params":{"seg":9,"x1":1,"y1":2,"x2":3,"y2":2}}"#,
        r#"{"shards":[{"replicas":["127.0.0.1:7001","127.0.0.1:8001"],"until":-217},{"addr":"b:2"}]}"#,
        r#"[1.5e300,-0,"é\n",true,null,{"a":[{}]},18446744073709551615]"#,
    ];
    check::run(
        "parsers_never_panic_on_mutated_lines",
        2048,
        |rng| {
            let edits: Vec<(usize, u8)> = (0..rng.gen_range(1..8))
                .map(|_| (rng.next_u64() as usize, rng.next_u64() as u8))
                .collect();
            (rng.gen_range(0..LINES.len()), edits)
        },
        |(line, edits)| {
            let mut b = LINES[*line].as_bytes().to_vec();
            // Remove the byte at `at` a quarter of the time, else insert one.
            for &(at, byte) in edits {
                let at = at % (b.len() + 1);
                if byte % 4 == 0 && at < b.len() {
                    b.remove(at);
                } else {
                    b.insert(at, byte);
                }
            }
            let text = String::from_utf8_lossy(&b);
            let _ = (
                parse_request(&text),
                ShardMap::parse(&text),
                json::parse(&text),
            );
        },
    );
}

// ---- golden layout bytes ----------------------------------------------------------------

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// The used prefix of `image` as hex; the rest of the page must be zero.
fn used_hex(image: &[u8], used: usize) -> String {
    assert!(image[used..].iter().all(|&b| b == 0), "bytes past the node");
    hex(&image[..used])
}

fn s(id: u64, a: (i64, i64), b: (i64, i64)) -> Segment {
    Segment::new(id, a, b).unwrap()
}

#[test]
fn golden_bptree_layouts() {
    let recs = [
        KeyValue { key: -2, value: 7 },
        KeyValue {
            key: 0x0102,
            value: 9,
        },
    ];
    let mut image = vec![0u8; 128];
    let leaf = BNode::Leaf {
        records: recs.to_vec(),
        next: 0x0a0b0c0d,
    };
    leaf.encode(&mut image).unwrap();
    assert_eq!(
        used_hex(&image, 7 + 32),
        "01\
         0200\
         0d0c0b0a\
         feffffffffffffff0700000000000000\
         02010000000000000900000000000000"
    );
    let BView::Leaf(v) = BView::<KeyValue>::new(&image).unwrap() else {
        panic!("leaf image viewed as internal");
    };
    assert_eq!((v.len(), v.next()), (2, 0x0a0b0c0d));
    assert_eq!(v.record(1).unwrap(), recs[1]);
    assert_eq!(v.lower_bound(&|r: &KeyValue| 0i64.cmp(&r.key)).unwrap(), 1);

    let mut image = vec![0u8; 128];
    let v1 = BNode::Internal {
        children: vec![3, 4, 5],
        seps: recs.to_vec(),
        counts: Vec::new(),
    };
    v1.encode(&mut image).unwrap();
    assert_eq!(
        used_hex(&image, 3 + 12 + 32),
        "02\
         0200\
         030000000400000005000000\
         feffffffffffffff0700000000000000\
         02010000000000000900000000000000"
    );
    let BView::Internal(v) = BView::<KeyValue>::new(&image).unwrap() else {
        panic!("internal image viewed as leaf");
    };
    assert_eq!((v.len(), v.child(2), v.count(2)), (2, 5, None));
    assert_eq!(v.route(&|r: &KeyValue| 0i64.cmp(&r.key)).unwrap(), 1);

    let mut image = vec![0u8; 128];
    let v2 = BNode::Internal {
        children: vec![3, 4, 5],
        seps: recs.to_vec(),
        counts: vec![10, 11, 0x0c0d],
    };
    v2.encode(&mut image).unwrap();
    assert_eq!(
        used_hex(&image, 3 + 12 + 24 + 32),
        "03\
         0200\
         030000000400000005000000\
         0a000000000000000b000000000000000d0c000000000000\
         feffffffffffffff0700000000000000\
         02010000000000000900000000000000"
    );
    let BView::Internal(v) = BView::<KeyValue>::new(&image).unwrap() else {
        panic!("internal image viewed as leaf");
    };
    assert_eq!((v.count(0), v.count(2)), (Some(10), Some(0x0c0d)));
    assert_eq!(v.sep(0).unwrap(), recs[0]);
}

#[test]
fn golden_pst_layout() {
    let node = PstNode {
        segments: vec![s(1, (0, 2), (9, 3))],
        children: vec![
            ChildEntry {
                router: s(2, (0, -1), (5, 0)),
                page: 0x11,
                size: 4,
            },
            ChildEntry {
                router: s(3, (0, 6), (7, 8)),
                page: 0x12,
                size: 5,
            },
        ],
        seps: vec![s(4, (0, 4), (2, 4))],
    };
    let mut image = vec![0u8; 256];
    node.encode(&mut image).unwrap();
    assert_eq!(
        used_hex(&image, 4 + 40 + 2 * 52 + 40),
        "0100\
         0200\
         0100000000000000\
         000000000000000002000000000000000900000000000000\
         0300000000000000\
         0200000000000000\
         0000000000000000ffffffffffffffff0500000000000000\
         0000000000000000\
         11000000\
         0400000000000000\
         0300000000000000\
         000000000000000006000000000000000700000000000000\
         0800000000000000\
         12000000\
         0500000000000000\
         0400000000000000\
         000000000000000004000000000000000200000000000000\
         0400000000000000"
    );
    let v = PstNodeView::new(&image).unwrap();
    assert_eq!((v.len(), v.nchildren()), (1, 2));
    assert_eq!(v.segment(0).unwrap(), node.segments[0]);
    assert_eq!(v.router(1).unwrap(), node.children[1].router);
    assert_eq!((v.child_page(1), v.child_size(1)), (0x12, 5));
    assert_eq!(v.sep(0).unwrap(), node.seps[0]);
}

#[test]
fn golden_itree_layouts() {
    let leaf = ItNode::Leaf {
        intervals: vec![Interval::new(5, -1, 2)],
    };
    let mut image = vec![0u8; 128];
    leaf.encode(&mut image).unwrap();
    assert_eq!(
        used_hex(&image, 3 + 24),
        "01\
         0100\
         ffffffffffffffff02000000000000000500000000000000"
    );
    let ItNodeView::Leaf(v) = ItNodeView::new(&image).unwrap() else {
        panic!("leaf image viewed as internal");
    };
    assert_eq!(v.intervals().collect::<Vec<_>>(), [Interval::new(5, -1, 2)]);

    let state = |root: u32| TreeState {
        root,
        height: 1,
        len: 2,
    };
    let internal = ItNode::Internal(Box::new(InternalNode {
        boundaries: vec![10, 20, 30],
        children: vec![1, 2, 3, 4],
        left: state(7),
        right: state(8),
        mslab: state(9),
        mslab_counts: vec![1, 2, 3],
    }));
    let mut image = vec![0u8; 256];
    internal.encode(&mut image).unwrap();
    assert_eq!(
        used_hex(&image, 3 + 24 + 16 + 48 + 6),
        "02\
         0300\
         0a0000000000000014000000000000001e00000000000000\
         01000000020000000300000004000000\
         07000000010000000200000000000000\
         08000000010000000200000000000000\
         09000000010000000200000000000000\
         010002000300"
    );
    let ItNodeView::Internal(v) = ItNodeView::new(&image).unwrap() else {
        panic!("internal image viewed as leaf");
    };
    assert_eq!((v.k(), v.boundary(2), v.child(3)), (3, 30, 4));
    assert_eq!((v.slab_of(20), v.slab_of(21)), (1, 2));
    assert_eq!((v.left(), v.mslab()), (state(7), state(9)));
    assert_eq!(
        (
            v.mslab_count(1, 1),
            v.mslab_count(1, 2),
            v.mslab_count(2, 2)
        ),
        (1, 2, 3)
    );
}

#[test]
fn golden_interval2l_layouts() {
    let leaf = slab::Node::Leaf {
        head: 0x21,
        count: 3,
    };
    let mut image = vec![0u8; 64];
    leaf.encode(&mut image).unwrap();
    assert_eq!(used_hex(&image, 13), "01210000000300000000000000");

    let set = |root: u32| TreeState {
        root,
        height: 1,
        len: 3,
    };
    // An older build's tombstone count (on `R_2`) survives a rewrite of
    // its node, so `Pst::attach` goes on refusing it.
    let pst = |root: u32| PstState {
        root,
        total: 6,
        legacy_tombs: u32::from(root == 0x72),
    };
    let list = |root: u32| TreeState {
        root,
        height: 0,
        len: 2,
    };
    let internal = slab::Node::Internal(Box::new(slab::Internal {
        boundaries: vec![10, 20, 30],
        children: vec![1, 2, 3, 4],
        child_sizes: vec![5, 6, 7, 8],
        total: 0x40,
        c: vec![set(0x50), set(0x52), set(0x54)],
        l: vec![pst(0x60), pst(0x61), pst(0x62)],
        r: vec![pst(0x70), pst(0x71), pst(0x72)],
        g: vec![list(0x80), list(0x81), list(0x82)],
        g_total: 6,
        bridges_dirty: true,
        g_inserts: 2,
    }));
    let mut image = vec![0u8; 512];
    internal.encode(&mut image).unwrap();
    assert_eq!(
        used_hex(&image, 24 + 24 + 16 + 32 + 3 * 16 + 6 * 20 + 3 * 16),
        "02\
         0300\
         4000000000000000\
         0600000000000000\
         01\
         02000000\
         0a0000000000000014000000000000001e00000000000000\
         01000000020000000300000004000000\
         0500000000000000060000000000000007000000000000000800000000000000\
         50000000010000000300000000000000\
         52000000010000000300000000000000\
         54000000010000000300000000000000\
         600000000600000000000000ffffffff00000000\
         610000000600000000000000ffffffff00000000\
         620000000600000000000000ffffffff00000000\
         700000000600000000000000ffffffff00000000\
         710000000600000000000000ffffffff00000000\
         720000000600000000000000ffffffff01000000\
         80000000000000000200000000000000\
         81000000000000000200000000000000\
         82000000000000000200000000000000"
    );
    let slab::NodeView::Internal(v) = slab::NodeView::new(&image).unwrap() else {
        panic!("internal image viewed as leaf");
    };
    assert_eq!((v.k(), v.total(), v.g_total()), (3, 0x40, 6));
    assert_eq!((v.bridges_dirty(), v.g_inserts()), (true, 2));
    assert_eq!((v.boundary(1), v.slab_of(30), v.slab_of(31)), (20, 2, 3));
    assert_eq!((v.child(3), v.child_size(0)), (4, 5));
    assert_eq!(
        (v.c(2), v.l(0), v.r(2), v.g(1)),
        (set(0x54), pst(0x60), pst(0x72), list(0x81))
    );
}
