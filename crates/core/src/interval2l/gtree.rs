//! The segment tree `G` over slabs (paper §4.2): skeleton geometry.
//!
//! For a first-level node with `k` boundaries (`s₀ … s_{k−1}`, slabs
//! `0 … k`), only slabs `1 … k−1` can be *fully spanned* by a fragment
//! (they have boundaries on both sides), so `G` is a balanced binary
//! segment tree whose leaves are exactly those `k−1` slabs — the paper's
//! "`b − 1` leaves". The skeleton is purely combinatorial and is
//! recomputed from `k` (no storage); only the per-node multislab list
//! handles live in the first-level node's page.

/// One node of the `G` skeleton.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GNode {
    /// Covered slab range `[a, b]` (inclusive, `1 ≤ a ≤ b ≤ k−1`).
    pub a: usize,
    /// Range end.
    pub b: usize,
    /// Index of the left child in the skeleton array (self-loop = leaf).
    pub left: usize,
    /// Index of the right child.
    pub right: usize,
}

impl GNode {
    /// True when this node covers a single slab.
    pub fn is_leaf(&self) -> bool {
        self.a == self.b
    }

    /// The boundary index splitting the children: left covers `[a, mid]`,
    /// right covers `[mid+1, b]`; the split line is `s_mid`.
    pub fn mid(&self) -> usize {
        (self.a + self.b) / 2
    }
}

/// Number of skeleton nodes for `k` boundaries: a binary tree over
/// `k − 1` leaves, none when `k < 2`.
pub fn skeleton_len(k: usize) -> usize {
    if k < 2 {
        0
    } else {
        2 * (k - 1) - 1
    }
}

/// The deterministic skeleton for `k` boundaries. Index 0 is the root.
/// Empty when `k < 2`.
pub fn skeleton(k: usize) -> Vec<GNode> {
    let mut nodes = Vec::with_capacity(skeleton_len(k));
    if k >= 2 {
        build(&mut nodes, 1, k - 1);
    }
    nodes
}

fn build(nodes: &mut Vec<GNode>, a: usize, b: usize) -> usize {
    let idx = nodes.len();
    nodes.push(GNode {
        a,
        b,
        left: idx,
        right: idx,
    });
    if a < b {
        let mid = (a + b) / 2;
        let left = build(nodes, a, mid);
        let right = build(nodes, mid + 1, b);
        nodes[idx].left = left;
        nodes[idx].right = right;
    }
    idx
}

/// Skeleton indices of the **allocation nodes** of a fragment spanning
/// slabs `[fa, fb]` (inclusive): the maximal nodes fully inside the span
/// — at most two per level (the paper's `O(log₂ B)` allocation count).
pub fn allocation(nodes: &[GNode], fa: usize, fb: usize, out: &mut Vec<usize>) {
    if nodes.is_empty() || fa > fb {
        return;
    }
    alloc_rec(nodes, 0, fa, fb, out);
}

fn alloc_rec(nodes: &[GNode], idx: usize, fa: usize, fb: usize, out: &mut Vec<usize>) {
    let n = nodes[idx];
    if fb < n.a || fa > n.b {
        return;
    }
    if fa <= n.a && n.b <= fb {
        out.push(idx);
        return;
    }
    if n.is_leaf() {
        return;
    }
    alloc_rec(nodes, n.left, fa, fb, out);
    alloc_rec(nodes, n.right, fa, fb, out);
}

/// Root-to-leaf path for a query in slab `j` (`1 ≤ j ≤ k−1`), as
/// `(skeleton index, node)` pairs; empty if `j` is outside the spannable
/// slabs. The skeleton is laid out in pre-order, so the path follows by
/// index arithmetic — a left subtree over `m` slabs holds `2m − 1`
/// nodes — without building the skeleton.
pub fn path(k: usize, j: usize) -> impl Iterator<Item = (usize, GNode)> {
    let mut next = (1..k).contains(&j).then_some((0usize, 1usize, k - 1));
    std::iter::from_fn(move || {
        let (idx, a, b) = next?;
        let mid = (a + b) / 2;
        let (left, right) = if a == b {
            (idx, idx)
        } else {
            (idx + 1, idx + 2 * (mid - a + 1))
        };
        next = (a < b).then(|| {
            if j <= mid {
                (left, a, mid)
            } else {
                (right, mid + 1, b)
            }
        });
        Some((idx, GNode { a, b, left, right }))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skeleton_shape() {
        assert!(skeleton(0).is_empty());
        assert!(skeleton(1).is_empty());
        for k in 2..40 {
            let s = skeleton(k);
            assert_eq!(s.len(), 2 * (k - 1) - 1, "k={k}");
            assert_eq!(s.len(), skeleton_len(k));
            assert_eq!((s[0].a, s[0].b), (1, k - 1));
            let leaves = s.iter().filter(|n| n.is_leaf()).count();
            assert_eq!(leaves, k - 1);
            // Children partition parents.
            for n in &s {
                if !n.is_leaf() {
                    assert_eq!(s[n.left].a, n.a);
                    assert_eq!(s[n.left].b, n.mid());
                    assert_eq!(s[n.right].a, n.mid() + 1);
                    assert_eq!(s[n.right].b, n.b);
                }
            }
        }
    }

    #[test]
    fn allocation_is_disjoint_exact_cover() {
        for k in 2..24 {
            let s = skeleton(k);
            for fa in 1..k {
                for fb in fa..k {
                    let mut idxs = Vec::new();
                    allocation(&s, fa, fb, &mut idxs);
                    // Covered slabs = [fa, fb] exactly, disjointly.
                    let mut covered = vec![0u8; k];
                    for &i in &idxs {
                        for c in covered.iter_mut().take(s[i].b + 1).skip(s[i].a) {
                            *c += 1;
                        }
                    }
                    for (slab, &c) in covered.iter().enumerate().take(k).skip(1) {
                        let want = u8::from(fa <= slab && slab <= fb);
                        assert_eq!(c, want, "k={k} [{fa},{fb}] slab {slab}");
                    }
                }
            }
        }
    }

    #[test]
    fn allocation_count_is_logarithmic() {
        let k = 33;
        let s = skeleton(k);
        for fa in 1..k {
            for fb in fa..k {
                let mut idxs = Vec::new();
                allocation(&s, fa, fb, &mut idxs);
                let height = (k as f64).log2().ceil() as usize + 1;
                assert!(idxs.len() <= 2 * height, "[{fa},{fb}]: {}", idxs.len());
            }
        }
    }

    #[test]
    fn path_visits_exactly_covering_nodes() {
        for k in 2..24 {
            let s = skeleton(k);
            for j in 1..k {
                let p: Vec<(usize, GNode)> = path(k, j).collect();
                assert!(!p.is_empty());
                // Path = every node covering slab j, exactly as the
                // skeleton stores it.
                let covering: Vec<(usize, GNode)> = (0..s.len())
                    .filter(|&i| s[i].a <= j && j <= s[i].b)
                    .map(|i| (i, s[i]))
                    .collect();
                assert_eq!(p, covering, "k={k} j={j}");
                assert!(p.last().unwrap().1.is_leaf());
            }
            assert_eq!(path(k, 0).count(), 0);
            assert_eq!(path(k, k).count(), 0);
        }
    }

    /// Every allocation node of `[fa, fb]` lies on the query path of any
    /// slab `j ∈ [fa, fb]` — the property that makes the G search find
    /// every intersected long fragment.
    #[test]
    fn allocation_meets_every_covered_path() {
        let k = 17;
        let s = skeleton(k);
        for fa in 1..k {
            for fb in fa..k {
                let mut idxs = Vec::new();
                allocation(&s, fa, fb, &mut idxs);
                for j in fa..=fb {
                    let on_path = path(k, j).filter(|(i, _)| idxs.contains(i)).count();
                    assert_eq!(on_path, 1, "exactly one allocation node per covered path");
                }
            }
        }
    }
}
