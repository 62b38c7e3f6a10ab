//! Permutation machinery for the metamorphic invariants.
//!
//! AdamGNN is a function of an *abstract* graph: relabelling node ids
//! must permute node-level outputs the same way and leave every scalar
//! (loss terms, readouts) unchanged up to floating-point reassociation —
//! the pooling path has no positional dependence (cluster-based pooling
//! is permutation equivariant, the property ASAP verifies for its own
//! pooling). These helpers build the relabelled inputs and measure
//! row-mapped differences; the proptests live in `tests/` at the repo
//! root.

use mg_graph::Topology;
use mg_tensor::Matrix;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A uniformly random permutation of `0..n` (Fisher–Yates, seeded).
pub fn random_permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut perm: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.random_range(0..=i);
        perm.swap(i, j);
    }
    perm
}

/// Inverse permutation: `invert(p)[p[i]] == i`.
pub fn invert(perm: &[usize]) -> Vec<usize> {
    let mut inv = vec![0usize; perm.len()];
    for (i, &p) in perm.iter().enumerate() {
        inv[p] = i;
    }
    inv
}

/// Relabel a topology: node `i` becomes node `perm[i]`.
pub fn permute_topology(g: &Topology, perm: &[usize]) -> Topology {
    let edges: Vec<(u32, u32)> = g
        .edges()
        .map(|(u, v)| (perm[u as usize] as u32, perm[v as usize] as u32))
        .collect();
    Topology::from_edges(g.n(), &edges)
}

/// Reorder rows to match a relabelling: output row `perm[i]` is input
/// row `i` (features of node `i` move with the node).
pub fn permute_rows(m: &Matrix, perm: &[usize]) -> Matrix {
    assert_eq!(m.rows(), perm.len(), "permutation length mismatch");
    let mut out = Matrix::zeros(m.rows(), m.cols());
    for (i, &p) in perm.iter().enumerate() {
        let src = m.row(i);
        let (r, c) = (p, m.cols());
        out.data_mut()[r * c..(r + 1) * c].copy_from_slice(src);
    }
    out
}

/// `max_{i,j} |orig[i][j] - permuted[perm[i]][j]|` — zero iff the
/// permuted output is exactly the row-relabelled original.
pub fn max_row_mapped_diff(orig: &Matrix, permuted: &Matrix, perm: &[usize]) -> f64 {
    assert_eq!(orig.shape(), permuted.shape());
    assert_eq!(orig.rows(), perm.len());
    let mut max = 0.0f64;
    for (i, &p) in perm.iter().enumerate() {
        for (a, b) in orig.row(i).iter().zip(permuted.row(p)) {
            let d = (a - b).abs();
            if d.is_nan() {
                return f64::INFINITY;
            }
            max = max.max(d);
        }
    }
    max
}

/// Map a node-id set through the permutation and sort, for comparing
/// selected ego sets across a relabelling.
pub fn map_ids(ids: &[usize], perm: &[usize]) -> Vec<usize> {
    let mut out: Vec<usize> = ids.iter().map(|&i| perm[i]).collect();
    out.sort_unstable();
    out
}

/// The coarse-level permutation induced by `perm` when both runs anchor
/// their coarse columns at corresponding nodes: coarse column `c` of the
/// base run (anchored at node `base_cols[c]`) corresponds to the
/// relabelled run's column anchored at `perm[base_cols[c]]`. Returns
/// `None` when some anchor has no counterpart — the two runs pooled
/// different structures.
pub fn induced_coarse_perm(
    base_cols: &[usize],
    perm_cols: &[usize],
    perm: &[usize],
) -> Option<Vec<usize>> {
    if base_cols.len() != perm_cols.len() {
        return None;
    }
    let mut pos = std::collections::HashMap::with_capacity(perm_cols.len());
    for (c, &a) in perm_cols.iter().enumerate() {
        pos.insert(a, c);
    }
    base_cols
        .iter()
        .map(|&a| pos.get(&perm[a]).copied())
        .collect()
}

/// Whether two pooling hierarchies related by the node relabelling `perm`
/// selected the same discrete structure at *every* level: matching ego
/// sets under the (induced) permutation and corresponding column anchors
/// level by level. Each level is `(egos, col_base)` in the previous
/// level's indexing.
///
/// Ego selection breaks exact fitness ties lexicographically by node id
/// (by design) and near-ties can flip when sums re-associate under a
/// relabelling, so equivariance of the continuous outputs is only claimed
/// conditional on this returning true — metamorphic tests discard the
/// unstable cases.
pub fn pooling_structures_match(
    base: &[(Vec<usize>, Vec<usize>)],
    relabelled: &[(Vec<usize>, Vec<usize>)],
    perm: &[usize],
) -> bool {
    if base.len() != relabelled.len() {
        return false;
    }
    let mut cur: Vec<usize> = perm.to_vec();
    for ((egos_a, cols_a), (egos_b, cols_b)) in base.iter().zip(relabelled) {
        let mut egos_b_sorted = egos_b.clone();
        egos_b_sorted.sort_unstable();
        if map_ids(egos_a, &cur) != egos_b_sorted {
            return false;
        }
        match induced_coarse_perm(cols_a, cols_b, &cur) {
            Some(next) => cur = next,
            None => return false,
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permutation_is_a_bijection() {
        let p = random_permutation(20, 3);
        let mut seen = [false; 20];
        for &x in &p {
            assert!(!seen[x]);
            seen[x] = true;
        }
        let inv = invert(&p);
        for i in 0..20 {
            assert_eq!(inv[p[i]], i);
        }
    }

    #[test]
    fn permuted_topology_preserves_degree_multiset() {
        let g = Topology::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)]);
        let perm = random_permutation(5, 7);
        let pg = permute_topology(&g, &perm);
        assert_eq!(g.num_edges(), pg.num_edges());
        for (u, &pu) in perm.iter().enumerate() {
            assert_eq!(
                g.neighbors(u).count(),
                pg.neighbors(pu).count(),
                "degree of node {u} changed under relabelling"
            );
        }
    }

    #[test]
    fn permute_rows_then_map_back_is_identity() {
        let m = Matrix::from_fn(4, 3, |i, j| (i * 10 + j) as f64);
        let perm = vec![2usize, 0, 3, 1];
        let pm = permute_rows(&m, &perm);
        assert_eq!(max_row_mapped_diff(&m, &pm, &perm), 0.0);
        for (i, &pi) in perm.iter().enumerate() {
            assert_eq!(pm.row(pi), m.row(i));
        }
    }

    #[test]
    fn induced_perm_tracks_anchors_and_detects_mismatch() {
        // nodes 0..4 relabelled by perm; base columns anchored at 2 and 0
        let perm = vec![3usize, 4, 1, 0, 2];
        // relabelled side anchors the same structure at perm[2]=1, perm[0]=3
        assert_eq!(
            induced_coarse_perm(&[2, 0], &[3, 1], &perm),
            Some(vec![1, 0])
        );
        // anchor 4 has no counterpart on the other side
        assert_eq!(induced_coarse_perm(&[2, 4], &[3, 1], &perm), None);
        assert_eq!(induced_coarse_perm(&[2], &[3, 1], &perm), None);
    }

    #[test]
    fn pooling_match_walks_levels_through_induced_perms() {
        let perm = vec![3usize, 4, 1, 0, 2];
        // level 1: egos {2}, columns [2 (ego), 0, 4 (retained)]
        let base = vec![
            (vec![2usize], vec![2usize, 0, 4]),
            // level 2 in coarse ids: ego column 0, retained column 2
            (vec![0usize], vec![0usize, 2]),
        ];
        // relabelled: ego perm[2]=1, columns [1, 3, 2]; induced coarse perm
        // maps base coarse [0,1,2] -> [0,1,2] (anchor order preserved here)
        let relabelled = vec![
            (vec![1usize], vec![1usize, 3, 2]),
            (vec![0usize], vec![0usize, 2]),
        ];
        assert!(pooling_structures_match(&base, &relabelled, &perm));
        // flip the level-2 ego: structures no longer correspond
        let mut bad = relabelled.clone();
        bad[1].0 = vec![1];
        bad[1].1 = vec![1, 2];
        assert!(!pooling_structures_match(&base, &bad, &perm));
        // level-count mismatch is a mismatch
        assert!(!pooling_structures_match(&base[..1], &relabelled, &perm));
    }

    #[test]
    fn row_mapped_diff_detects_mismatch_and_nan() {
        let m = Matrix::from_fn(3, 2, |i, j| (i + j) as f64);
        let perm = vec![0usize, 1, 2];
        let mut other = m.clone();
        other.data_mut()[3] += 0.5;
        assert_eq!(max_row_mapped_diff(&m, &other, &perm), 0.5);
        other.data_mut()[3] = f64::NAN;
        assert_eq!(max_row_mapped_diff(&m, &other, &perm), f64::INFINITY);
    }
}
