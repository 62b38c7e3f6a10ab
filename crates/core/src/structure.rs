//! Adaptive ego-network selection and hyper-node formation structure —
//! the discrete half of AdamGNN's adaptive graph pooling (Section 3.2).
//!
//! Everything here is gradient-free: selection inspects the *values* of
//! the fitness scores; the resulting [`SPlan`] records, for every stored
//! entry of `S_k`, where its (differentiable) value comes from, so the
//! model can assemble `S_k`'s value vector on the tape.

use crate::fitness::EgoPairs;
use mg_graph::Topology;
use mg_tensor::Csr;

/// Where one stored entry of `S_k` takes its value from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ValueSource {
    /// The fitness score of pair `k` (differentiable).
    Pair(usize),
    /// The constant `1.0` (ego diagonal and retained nodes).
    One,
}

/// The hyper-node formation matrix plan for one level.
#[derive(Clone, Debug)]
pub struct SPlan {
    /// `n_prev x m` sparsity pattern of `S_k`.
    pub csr: Csr,
    /// Value source per stored entry, aligned with `csr` iteration order.
    pub sources: Vec<ValueSource>,
    /// For every hyper-graph column: the underlying node of the previous
    /// level (the ego for ego columns, the node itself for retained ones).
    pub col_base: Vec<usize>,
    /// Number of leading columns that are selected ego-networks.
    pub num_egos: usize,
    /// Selected ego node ids (previous-level indexing).
    pub egos: Vec<usize>,
    /// Membership triples `(member j, ego column, pair index)` excluding
    /// the ego itself — the input to Eq. 3's attention.
    pub member_pairs: Vec<(usize, usize, usize)>,
}

impl SPlan {
    /// Number of hyper-graph nodes (columns of `S_k`).
    pub fn m(&self) -> usize {
        self.col_base.len()
    }
}

/// Per-ego aggregate fitness `φ_i = mean_{j ∈ N_i^λ} φ_ij` (Eq. 2's
/// summary), computed from pair values.
pub fn ego_fitness(pairs: &EgoPairs, phi_pair: &[f64], n: usize) -> Vec<f64> {
    assert_eq!(phi_pair.len(), pairs.len(), "phi/pair length mismatch");
    let mut sum = vec![0.0f64; n];
    let mut count = vec![0usize; n];
    for (k, &ego) in pairs.dst.iter().enumerate() {
        sum[ego] += phi_pair[k];
        count[ego] += 1;
    }
    (0..n)
        .map(|i| {
            if count[i] > 0 {
                sum[i] / count[i] as f64
            } else {
                f64::NEG_INFINITY
            }
        })
        .collect()
}

/// Adaptive selection: egos whose fitness strictly exceeds all their
/// 1-hop neighbours' (`N̂_p` of the paper). No ratio hyper-parameter.
///
/// Exact ties (possible at initialisation, e.g. when a dead ReLU makes
/// all fitness scores equal) are broken lexicographically by node id, so
/// a connected graph always yields at least one ego (Proposition 1 holds
/// unconditionally rather than almost surely).
pub fn select_egos(topo: &Topology, phi: &[f64]) -> Vec<usize> {
    (0..topo.n())
        .filter(|&i| {
            phi[i] > f64::NEG_INFINITY
                && topo
                    .neighbors(i)
                    .all(|j| phi[i] > phi[j] || (phi[i] == phi[j] && i > j))
        })
        .collect()
}

/// Build the hyper-node formation matrix plan from the selected egos.
///
/// Columns are `[selected egos ..., retained nodes ...]`; a node may
/// belong to several selected ego-networks (overlap is intentional,
/// Section 3.2). Retained nodes are those covered by no selected
/// ego-network.
pub fn build_s_plan(topo: &Topology, pairs: &EgoPairs, lambda: usize, egos: &[usize]) -> SPlan {
    let n = topo.n();
    // pair index lookup: (member, ego) -> pair position
    let mut pair_idx: std::collections::HashMap<(usize, usize), usize> =
        std::collections::HashMap::with_capacity(pairs.len());
    for (k, (&j, &i)) in pairs.src.iter().zip(pairs.dst.iter()).enumerate() {
        pair_idx.insert((j, i), k);
    }

    let mut covered = vec![false; n];
    let mut entries: Vec<(u32, u32)> = Vec::new();
    let mut raw: Vec<(u32, u32, ValueSource)> = Vec::new();
    let mut member_pairs = Vec::new();
    let mut col_base = Vec::with_capacity(egos.len());
    for (col, &ego) in egos.iter().enumerate() {
        col_base.push(ego);
        covered[ego] = true;
        raw.push((ego as u32, col as u32, ValueSource::One));
        entries.push((ego as u32, col as u32));
        let members: Vec<usize> = if lambda == 1 {
            topo.neighbors(ego).collect()
        } else {
            topo.khop(ego, lambda)
                .into_iter()
                .filter(|&j| j != ego)
                .collect()
        };
        for j in members {
            covered[j] = true;
            let k = pair_idx[&(j, ego)];
            raw.push((j as u32, col as u32, ValueSource::Pair(k)));
            entries.push((j as u32, col as u32));
            member_pairs.push((j, col, k));
        }
    }
    let num_egos = egos.len();
    for (node, &cov) in covered.iter().enumerate() {
        if !cov {
            let col = col_base.len();
            col_base.push(node);
            raw.push((node as u32, col as u32, ValueSource::One));
            entries.push((node as u32, col as u32));
        }
    }
    let m = col_base.len();
    let csr = Csr::from_coo(n, m, &entries);
    // align sources with CSR iteration order
    let mut src_of: std::collections::HashMap<(u32, u32), ValueSource> =
        std::collections::HashMap::with_capacity(raw.len());
    for (r, c, s) in raw {
        src_of.insert((r, c), s);
    }
    let sources: Vec<ValueSource> = csr
        .iter()
        .map(|(r, c, _)| src_of[&(r as u32, c as u32)])
        .collect();
    SPlan {
        csr,
        sources,
        col_base,
        num_egos,
        egos: egos.to_vec(),
        member_pairs,
    }
}

/// Add a unit diagonal to a square sparse matrix (Â = A + I), merging with
/// existing diagonal entries.
pub fn add_unit_diag(csr: &Csr, values: &[f64]) -> (Csr, Vec<f64>) {
    assert_eq!(csr.rows(), csr.cols(), "add_unit_diag: square required");
    let n = csr.rows();
    let mut map: std::collections::BTreeMap<(u32, u32), f64> = std::collections::BTreeMap::new();
    for (r, c, k) in csr.iter() {
        map.insert((r as u32, c as u32), values[k]);
    }
    for i in 0..n as u32 {
        *map.entry((i, i)).or_insert(0.0) += 1.0;
    }
    let entries: Vec<(u32, u32)> = map.keys().copied().collect();
    let out = Csr::from_coo(n, n, &entries);
    let vals: Vec<f64> = out
        .iter()
        .map(|(r, c, _)| map[&(r as u32, c as u32)])
        .collect();
    (out, vals)
}

/// Extract the simple-graph topology of a (weighted) square sparse matrix,
/// dropping the diagonal.
pub fn topology_of(csr: &Csr) -> Topology {
    let mut edges = Vec::new();
    for (r, c, _) in csr.iter() {
        if r < c {
            edges.push((r as u32, c as u32));
        }
    }
    Topology::from_edges(csr.rows(), &edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fitness::EgoPairs;

    fn path5() -> Topology {
        Topology::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)])
    }

    #[test]
    fn ego_fitness_means_per_ego() {
        let topo = path5();
        let pairs = EgoPairs::build(&topo, 1);
        // phi = 1 for every pair -> every ego fitness is 1
        let phi = vec![1.0; pairs.len()];
        let f = ego_fitness(&pairs, &phi, 5);
        assert!(f.iter().all(|&x| (x - 1.0).abs() < 1e-12));
    }

    #[test]
    fn select_egos_local_maxima() {
        let topo = path5();
        // fitness peaks at node 2
        let phi = vec![0.1, 0.2, 0.9, 0.3, 0.2];
        assert_eq!(select_egos(&topo, &phi), vec![2]);
        // two peaks at the ends
        let phi = vec![0.9, 0.2, 0.1, 0.2, 0.9];
        assert_eq!(select_egos(&topo, &phi), vec![0, 4]);
    }

    #[test]
    fn proposition1_at_least_one_ego_with_distinct_scores() {
        // any connected graph with pairwise-distinct fitness has >= 1 ego
        let topo = path5();
        let phi = vec![0.11, 0.52, 0.23, 0.44, 0.35];
        assert!(!select_egos(&topo, &phi).is_empty());
    }

    #[test]
    fn ties_break_lexicographically() {
        let topo = path5();
        let phi = vec![0.5; 5];
        // all tied: the highest-id node of each tied neighbourhood wins,
        // so on a path only node 4 survives
        assert_eq!(select_egos(&topo, &phi), vec![4]);
    }

    #[test]
    fn s_plan_covers_every_node_exactly_when_expected() {
        let topo = path5();
        let pairs = EgoPairs::build(&topo, 1);
        let plan = build_s_plan(&topo, &pairs, 1, &[2]);
        // ego 2 covers {1, 2, 3}; nodes 0 and 4 are retained
        assert_eq!(plan.m(), 3);
        assert_eq!(plan.num_egos, 1);
        assert_eq!(plan.col_base, vec![2, 0, 4]);
        // every row of S has at least one entry
        for r in 0..5 {
            assert!(
                !plan.csr.row_indices(r).is_empty(),
                "node {r} lost by pooling"
            );
        }
    }

    #[test]
    fn s_plan_ego_diag_is_one_members_are_pairs() {
        let topo = path5();
        let pairs = EgoPairs::build(&topo, 1);
        let plan = build_s_plan(&topo, &pairs, 1, &[1]);
        for (r, c, k) in plan.csr.iter() {
            match plan.sources[k] {
                ValueSource::One => assert!(r == 1 && c == 0 || c > 0),
                ValueSource::Pair(p) => {
                    assert_eq!(pairs.dst[p], 1, "pair must target the ego");
                    assert_eq!(pairs.src[p], r);
                    assert_eq!(c, 0);
                }
            }
        }
    }

    #[test]
    fn s_plan_overlapping_egos_share_members() {
        // triangle + pendant: select both 0 and 2 as egos (overlap at 1)
        let topo = Topology::from_edges(4, &[(0, 1), (1, 2), (0, 2), (2, 3)]);
        let pairs = EgoPairs::build(&topo, 1);
        let plan = build_s_plan(&topo, &pairs, 1, &[0, 2]);
        // node 1 belongs to both ego columns
        assert_eq!(plan.csr.row_indices(1).len(), 2);
        assert_eq!(plan.m(), 2); // no retained nodes
    }

    #[test]
    fn add_unit_diag_merges() {
        let csr = Csr::from_coo(2, 2, &[(0, 0), (0, 1)]);
        let (out, vals) = add_unit_diag(&csr, &[2.0, 3.0]);
        let dense = out.to_dense(&vals);
        assert_eq!(dense[(0, 0)], 3.0);
        assert_eq!(dense[(0, 1)], 3.0);
        assert_eq!(dense[(1, 1)], 1.0);
    }

    #[test]
    fn topology_of_drops_diagonal() {
        let csr = Csr::from_coo(3, 3, &[(0, 0), (0, 1), (1, 0), (1, 2), (2, 1)]);
        let topo = topology_of(&csr);
        assert_eq!(topo.num_edges(), 2);
        assert!(topo.has_edge(0, 1));
        assert!(topo.has_edge(1, 2));
    }
}
