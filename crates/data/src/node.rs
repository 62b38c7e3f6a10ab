//! Node-task datasets (link prediction, node classification).
//!
//! The paper evaluates on ACM, Citeseer, Cora, DBLP, Wiki and Emails.
//! Those exact datasets are not available offline, so each is replaced by
//! a seeded planted-partition generator matched to the published
//! statistics (Table 6 of the paper): node count, edge count, class count
//! and feature dimension. Planted partitions carry exactly the micro
//! (edge-level) and meso (community-level) semantics that AdamGNN's
//! multi-grained pooling is designed to exploit, so relative model
//! ordering is preserved even though absolute accuracies differ.

use mg_graph::Topology;
use mg_tensor::SparseMatrix;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// The six node-task benchmarks of the paper.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum NodeDatasetKind {
    Acm,
    Citeseer,
    Cora,
    Emails,
    Dblp,
    Wiki,
}

impl NodeDatasetKind {
    /// All six, in the paper's Table 2 column order.
    pub fn all() -> [NodeDatasetKind; 6] {
        use NodeDatasetKind::*;
        [Acm, Citeseer, Cora, Emails, Dblp, Wiki]
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            NodeDatasetKind::Acm => "ACM",
            NodeDatasetKind::Citeseer => "Citeseer",
            NodeDatasetKind::Cora => "Cora",
            NodeDatasetKind::Emails => "Emails",
            NodeDatasetKind::Dblp => "DBLP",
            NodeDatasetKind::Wiki => "Wiki",
        }
    }

    /// Published statistics from Table 6:
    /// `(nodes, edges, feature_dim (0 = featureless), classes)`.
    pub fn paper_stats(&self) -> (usize, usize, usize, usize) {
        match self {
            NodeDatasetKind::Acm => (3025, 13128, 1870, 3),
            NodeDatasetKind::Citeseer => (3327, 4552, 3703, 6),
            NodeDatasetKind::Cora => (2708, 5278, 1433, 7),
            NodeDatasetKind::Emails => (799, 10182, 0, 18),
            NodeDatasetKind::Dblp => (4057, 3528, 334, 4),
            NodeDatasetKind::Wiki => (2405, 12178, 4973, 17),
        }
    }

    /// Edge-budget split `(intra_cell, intra_class)`; the remainder is
    /// uniform noise. Cells are small dense groups *orthogonal* to the
    /// class labels (the paper's "research institutes" vs "topics"):
    /// they carry the link-prediction signal, while class homophily and
    /// feature signal control node-classification difficulty.
    fn edge_mix(&self) -> (f64, f64) {
        match self {
            NodeDatasetKind::Acm => (0.45, 0.30),
            NodeDatasetKind::Citeseer => (0.40, 0.26),
            NodeDatasetKind::Cora => (0.42, 0.40),
            NodeDatasetKind::Emails => (0.40, 0.55),
            NodeDatasetKind::Dblp => (0.42, 0.38),
            NodeDatasetKind::Wiki => (0.25, 0.16),
        }
    }

    /// Probability that an active feature lands in the node's own class
    /// block. Tuned per dataset so a plain GCN reaches roughly the
    /// accuracy the paper reports for it (ACM easiest, Wiki hardest).
    fn feature_signal(&self) -> f64 {
        match self {
            NodeDatasetKind::Acm => 0.55,
            NodeDatasetKind::Citeseer => 0.35,
            NodeDatasetKind::Cora => 0.78,
            NodeDatasetKind::Dblp => 0.68,
            NodeDatasetKind::Wiki => 0.12,
            NodeDatasetKind::Emails => 0.0, // featureless
        }
    }
}

/// An attributed graph with node labels for node-wise tasks.
#[derive(Clone, Debug)]
pub struct NodeDataset {
    pub name: String,
    pub graph: Topology,
    /// Sparse `n x d` feature matrix, the dataset's only copy of its
    /// features (one-hot degree features when the source dataset is
    /// featureless).
    pub features: SparseMatrix,
    pub labels: Vec<usize>,
    pub num_classes: usize,
}

impl NodeDataset {
    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.graph.n()
    }

    /// Feature dimensionality.
    pub fn feat_dim(&self) -> usize {
        self.features.cols()
    }
}

/// Generation options.
#[derive(Clone, Copy, Debug)]
pub struct NodeGenConfig {
    /// Scale factor on node count and edge count (1.0 = paper size).
    pub scale: f64,
    /// Cap on the feature dimension (the published bag-of-words dims make
    /// dense CPU training needlessly slow; the class-signal structure is
    /// preserved at lower width). `0` disables the cap.
    pub max_feat_dim: usize,
    pub seed: u64,
}

impl Default for NodeGenConfig {
    fn default() -> Self {
        NodeGenConfig {
            scale: 1.0,
            max_feat_dim: 512,
            seed: 42,
        }
    }
}

impl NodeGenConfig {
    /// Config with a given scale, default elsewhere.
    pub fn with_scale(scale: f64) -> Self {
        NodeGenConfig {
            scale,
            ..Default::default()
        }
    }
}

/// Generate the analogue of one of the paper's node-task datasets.
pub fn make_node_dataset(kind: NodeDatasetKind, cfg: &NodeGenConfig) -> NodeDataset {
    let mut p = plant(kind, cfg);
    let features = if p.feat_dim == 0 {
        degree_onehot_features(&p.graph, DEGREE_BUCKETS)
    } else {
        bow_features(
            &p.labels,
            &p.cell_of,
            p.classes,
            p.feat_dim,
            kind.feature_signal(),
            &mut p.rng,
        )
    };
    NodeDataset {
        name: kind.name().to_string(),
        graph: p.graph,
        features,
        labels: p.labels,
        num_classes: p.classes,
    }
}

/// Degree buckets of a featureless dataset's one-hot features.
const DEGREE_BUCKETS: usize = 32;

/// A node dataset before its features: what they are drawn from, and
/// the random stream positioned where they are drawn.
struct Planted {
    rng: StdRng,
    labels: Vec<usize>,
    classes: usize,
    graph: Topology,
    cell_of: Vec<usize>,
    /// `0` for a featureless source dataset.
    feat_dim: usize,
}

fn plant(kind: NodeDatasetKind, cfg: &NodeGenConfig) -> Planted {
    let (n0, m0, d0, classes) = kind.paper_stats();
    let n = ((n0 as f64 * cfg.scale) as usize).max(classes * 8);
    let m = ((m0 as f64 * cfg.scale) as usize).max(n);
    let feat_dim = if d0 == 0 {
        0
    } else if cfg.max_feat_dim > 0 {
        d0.min(cfg.max_feat_dim)
    } else {
        d0
    };
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ fxhash(kind.name()));
    let labels = balanced_labels(n, classes, &mut rng);
    let (f_cell, f_class) = kind.edge_mix();
    let (graph, cell_of) = planted_partition(n, m, &labels, classes, f_cell, f_class, &mut rng);
    Planted {
        rng,
        labels,
        classes,
        graph,
        cell_of,
        feat_dim,
    }
}

/// Deterministic string hash to decorrelate per-dataset seeds.
fn fxhash(s: &str) -> u64 {
    s.bytes().fold(0xcbf29ce484222325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x100000001b3)
    })
}

/// Roughly balanced class assignment with mild size skew (real citation
/// datasets are not perfectly balanced).
fn balanced_labels(n: usize, classes: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut weights: Vec<f64> = (0..classes).map(|_| rng.random_range(0.7..1.3)).collect();
    let total: f64 = weights.iter().sum();
    for w in &mut weights {
        *w /= total;
    }
    let mut labels = Vec::with_capacity(n);
    for (c, &w) in weights.iter().enumerate() {
        let count = (w * n as f64).round() as usize;
        labels.extend(std::iter::repeat_n(c, count));
    }
    while labels.len() < n {
        labels.push(rng.random_range(0..classes));
    }
    labels.truncate(n);
    // deterministic shuffle
    for i in (1..n).rev() {
        let j = rng.random_range(0..=i);
        labels.swap(i, j);
    }
    labels
}

/// Planted graph with two orthogonal structures: dense micro-cells
/// (triadic-closure-like clusters, mixed classes) and class homophily.
/// A spanning backbone keeps the graph connected, as in the citation
/// benchmarks' giant components.
fn planted_partition(
    n: usize,
    m: usize,
    labels: &[usize],
    classes: usize,
    f_cell: f64,
    f_class: f64,
    rng: &mut StdRng,
) -> (Topology, Vec<usize>) {
    let mut by_class: Vec<Vec<u32>> = vec![Vec::new(); classes];
    for (i, &c) in labels.iter().enumerate() {
        by_class[c].push(i as u32);
    }
    // Dense micro-cells, sized with graph density so dense graphs
    // (Emails) get proportionally larger cells. Most cells are
    // class-pure ("research groups within a topic") — this is the
    // meso-level label signal multi-grained models exploit — while a
    // fraction mixes classes, keeping cell membership from being a
    // perfect proxy for the label.
    let cell_size = (2 * m / n).clamp(8, 30);
    let pure_fraction = 0.7;
    let mut order: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        let j = rng.random_range(0..=i);
        order.swap(i, j);
    }
    let mut cells: Vec<Vec<u32>> = Vec::new();
    let mut leftover: Vec<u32> = Vec::new();
    for members in &by_class {
        // shuffle within the class (by_class is index-ordered)
        let mut ms = members.clone();
        for i in (1..ms.len()).rev() {
            let j = rng.random_range(0..=i);
            ms.swap(i, j);
        }
        let n_pure = (pure_fraction * ms.len() as f64) as usize;
        for chunk in ms[..n_pure].chunks(cell_size) {
            cells.push(chunk.to_vec());
        }
        leftover.extend_from_slice(&ms[n_pure..]);
    }
    for i in (1..leftover.len()).rev() {
        let j = rng.random_range(0..=i);
        leftover.swap(i, j);
    }
    for chunk in leftover.chunks(cell_size) {
        cells.push(chunk.to_vec());
    }
    let mut cell_of = vec![0usize; n];
    for (ci, cell) in cells.iter().enumerate() {
        for &node in cell {
            cell_of[node as usize] = ci;
        }
    }
    let mut edges: std::collections::BTreeSet<(u32, u32)> = std::collections::BTreeSet::new();
    let push = |edges: &mut std::collections::BTreeSet<(u32, u32)>, u: u32, v: u32| {
        if u != v {
            edges.insert(if u < v { (u, v) } else { (v, u) });
        }
    };
    // dense cells (link-prediction signal)
    let target_cell = (f_cell * m as f64) as usize;
    let mut guard = 0usize;
    while edges.len() < target_cell && guard < 60 * m {
        guard += 1;
        let cell = &cells[rng.random_range(0..cells.len())];
        if cell.len() < 2 {
            continue;
        }
        let u = cell[rng.random_range(0..cell.len())];
        let v = cell[rng.random_range(0..cell.len())];
        push(&mut edges, u, v);
    }
    // class homophily (node-classification signal)
    let target_class = target_cell + (f_class * m as f64) as usize;
    guard = 0;
    while edges.len() < target_class && guard < 60 * m {
        guard += 1;
        let c = rng.random_range(0..classes);
        if by_class[c].len() < 2 {
            continue;
        }
        let u = by_class[c][rng.random_range(0..by_class[c].len())];
        let v = by_class[c][rng.random_range(0..by_class[c].len())];
        push(&mut edges, u, v);
    }
    // uniform noise
    guard = 0;
    while edges.len() < m && guard < 60 * m {
        guard += 1;
        let u = rng.random_range(0..n as u32);
        let v = rng.random_range(0..n as u32);
        push(&mut edges, u, v);
    }
    // finally, connect remaining components with a minimal random chain
    // (class-agnostic, so connectivity itself leaks no label information)
    let mut list: Vec<(u32, u32)> = edges.iter().copied().collect();
    let comp = Topology::from_edges(n, &list).connected_components();
    let num_comp = comp.iter().max().map_or(0, |c| c + 1);
    if num_comp > 1 {
        let mut reps = vec![u32::MAX; num_comp];
        for &node in &order {
            let c = comp[node as usize];
            if reps[c] == u32::MAX {
                reps[c] = node;
            }
        }
        for w in reps.windows(2) {
            list.push((w[0], w[1]));
        }
    }
    (Topology::from_edges(n, &list), cell_of)
}

/// Sparse bag-of-words-style features: each class owns a block of topic
/// dimensions; a node activates mostly its own class's topics. Built row
/// by row, with no dense `n x dim` matrix at any point.
fn bow_features(
    labels: &[usize],
    cell_of: &[usize],
    classes: usize,
    dim: usize,
    signal: f64,
    rng: &mut StdRng,
) -> SparseMatrix {
    let block = (dim / classes).max(1);
    let active = (dim / 30).clamp(3, 20);
    SparseMatrix::from_row_writes(labels.len(), dim, |i, row| {
        let c = labels[i];
        let lo = (c * block).min(dim - 1);
        let hi = ((c + 1) * block).min(dim);
        for _ in 0..active {
            let j = if rng.random::<f64>() < signal && hi > lo {
                rng.random_range(lo..hi)
            } else {
                rng.random_range(0..dim)
            };
            row.push((j, 1.0));
        }
        // cell signature words: neighbours share vocabulary (the
        // feature-borne link-prediction signal of real citation data)
        let sig_base = (cell_of[i].wrapping_mul(2654435761)) % dim;
        for t in 0..4usize {
            if rng.random::<f64>() < 0.9 {
                row.push(((sig_base + t * 7) % dim, 1.0));
            }
        }
    })
}

/// One-hot degree-bucket features for featureless graphs (Emails), the
/// standard substitute used by GIN and friends.
fn degree_onehot_features(g: &Topology, buckets: usize) -> SparseMatrix {
    SparseMatrix::from_row_writes(g.n(), buckets, |i, row| {
        row.push((g.degree(i).min(buckets - 1), 1.0));
    })
}

/// The former dense generators, kept as the oracle the sparse ones are
/// checked against: same draws, same order, same matrix.
#[cfg(test)]
mod dense_oracle {
    use super::*;
    use mg_tensor::Matrix;

    pub fn bow_features(
        labels: &[usize],
        cell_of: &[usize],
        classes: usize,
        dim: usize,
        signal: f64,
        rng: &mut StdRng,
    ) -> Matrix {
        let n = labels.len();
        let block = (dim / classes).max(1);
        let active = (dim / 30).clamp(3, 20);
        let mut feats = Matrix::zeros(n, dim);
        for i in 0..n {
            let c = labels[i];
            let lo = (c * block).min(dim - 1);
            let hi = ((c + 1) * block).min(dim);
            for _ in 0..active {
                let j = if rng.random::<f64>() < signal && hi > lo {
                    rng.random_range(lo..hi)
                } else {
                    rng.random_range(0..dim)
                };
                feats[(i, j)] = 1.0;
            }
            let sig_base = (cell_of[i].wrapping_mul(2654435761)) % dim;
            for t in 0..4usize {
                if rng.random::<f64>() < 0.9 {
                    feats[(i, (sig_base + t * 7) % dim)] = 1.0;
                }
            }
        }
        feats
    }

    pub fn degree_onehot_features(g: &Topology, buckets: usize) -> Matrix {
        let n = g.n();
        let mut feats = Matrix::zeros(n, buckets);
        for i in 0..n {
            let b = g.degree(i).min(buckets - 1);
            feats[(i, b)] = 1.0;
        }
        feats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(kind: NodeDatasetKind) -> NodeDataset {
        make_node_dataset(
            kind,
            &NodeGenConfig {
                scale: 0.05,
                max_feat_dim: 64,
                seed: 7,
            },
        )
    }

    #[test]
    fn all_kinds_generate() {
        for kind in NodeDatasetKind::all() {
            let ds = tiny(kind);
            assert!(ds.n() > 0, "{}", ds.name);
            assert_eq!(ds.labels.len(), ds.n());
            assert!(ds.labels.iter().all(|&c| c < ds.num_classes));
            assert_eq!(ds.features.rows(), ds.n());
            assert!(ds.feat_dim() > 0);
        }
    }

    #[test]
    fn full_scale_matches_paper_stats_approximately() {
        let ds = make_node_dataset(
            NodeDatasetKind::Cora,
            &NodeGenConfig {
                scale: 1.0,
                max_feat_dim: 0,
                seed: 1,
            },
        );
        let (n0, m0, d0, c0) = NodeDatasetKind::Cora.paper_stats();
        assert_eq!(ds.n(), n0);
        assert_eq!(ds.feat_dim(), d0);
        assert_eq!(ds.num_classes, c0);
        let m = ds.graph.num_edges() as f64;
        assert!((m - m0 as f64).abs() / (m0 as f64) < 0.05, "edges = {m}");
    }

    #[test]
    fn generation_is_deterministic() {
        let a = tiny(NodeDatasetKind::Citeseer);
        let b = tiny(NodeDatasetKind::Citeseer);
        assert_eq!(a.labels, b.labels);
        assert!(a.graph.edges().eq(b.graph.edges()));
        assert_eq!(a.features, b.features);
    }

    #[test]
    fn different_seeds_differ() {
        let a = make_node_dataset(
            NodeDatasetKind::Cora,
            &NodeGenConfig {
                scale: 0.05,
                max_feat_dim: 64,
                seed: 1,
            },
        );
        let b = make_node_dataset(
            NodeDatasetKind::Cora,
            &NodeGenConfig {
                scale: 0.05,
                max_feat_dim: 64,
                seed: 2,
            },
        );
        assert!(!a.graph.edges().eq(b.graph.edges()));
    }

    #[test]
    fn homophily_is_planted() {
        let ds = tiny(NodeDatasetKind::Acm);
        let intra = ds
            .graph
            .edges()
            .filter(|&(u, v)| ds.labels[u as usize] == ds.labels[v as usize])
            .count();
        let frac = intra as f64 / ds.graph.num_edges() as f64;
        assert!(frac > 0.6, "intra fraction = {frac}");
    }

    #[test]
    fn graph_is_connected() {
        let ds = tiny(NodeDatasetKind::Dblp);
        assert_eq!(ds.graph.num_components(), 1);
    }

    #[test]
    fn emails_uses_degree_features() {
        let ds = tiny(NodeDatasetKind::Emails);
        // one-hot: every row sums to exactly 1
        for i in 0..ds.n() {
            let s: f64 = ds.features.row(i).map(|(_, v)| v).sum();
            assert_eq!(s, 1.0);
        }
    }

    #[test]
    fn feature_blocks_correlate_with_class() {
        let ds = tiny(NodeDatasetKind::Cora);
        let dim = ds.feat_dim();
        let block = dim / ds.num_classes;
        // a node's own-class block should hold most of its active features
        let mut own = 0.0;
        let mut total = 0.0;
        for i in 0..ds.n() {
            let c = ds.labels[i];
            for (j, v) in ds.features.row(i) {
                if v > 0.0 {
                    total += 1.0;
                    if j >= c * block && j < (c + 1) * block {
                        own += 1.0;
                    }
                }
            }
        }
        // signal for Cora is 0.35 of draws + 1/classes of the uniform rest
        assert!(own / total > 0.3, "own-block fraction = {}", own / total);
    }

    /// Every kind's sparse features equal the dense oracle's matrix, and
    /// drawing them leaves the random stream where the oracle leaves it.
    #[test]
    fn features_match_the_dense_oracle() {
        for (seed, cap) in [(1, 512), (2, 0), (3, 64)] {
            let cfg = NodeGenConfig {
                scale: 0.1,
                max_feat_dim: cap,
                seed,
            };
            for kind in NodeDatasetKind::all() {
                let mut p = plant(kind, &cfg);
                let mut oracle_rng = p.rng.clone();
                let (got, want) = if p.feat_dim == 0 {
                    (
                        degree_onehot_features(&p.graph, DEGREE_BUCKETS),
                        dense_oracle::degree_onehot_features(&p.graph, DEGREE_BUCKETS),
                    )
                } else {
                    let signal = kind.feature_signal();
                    let (labels, cells) = (&p.labels, &p.cell_of);
                    (
                        bow_features(labels, cells, p.classes, p.feat_dim, signal, &mut p.rng),
                        dense_oracle::bow_features(
                            labels,
                            cells,
                            p.classes,
                            p.feat_dim,
                            signal,
                            &mut oracle_rng,
                        ),
                    )
                };
                let at = format!("{} seed {seed} cap {cap}", kind.name());
                assert_eq!(got, SparseMatrix::from(&want), "{at}");
                assert_eq!(p.rng.state(), oracle_rng.state(), "{at}");
                assert_eq!(make_node_dataset(kind, &cfg).features, got, "{at}");
            }
        }
    }

    /// A gathered row is the oracle's dense row bit for bit, whatever the
    /// buffer held before.
    #[test]
    fn fill_features_rows_equal_the_dense_rows() {
        use crate::stream::NodeFeatureSource;
        let cfg = NodeGenConfig {
            scale: 0.1,
            max_feat_dim: 64,
            seed: 5,
        };
        for kind in [NodeDatasetKind::Cora, NodeDatasetKind::Emails] {
            let mut p = plant(kind, &cfg);
            let dense = if p.feat_dim == 0 {
                dense_oracle::degree_onehot_features(&p.graph, DEGREE_BUCKETS)
            } else {
                let signal = kind.feature_signal();
                let (labels, cells) = (&p.labels, &p.cell_of);
                dense_oracle::bow_features(labels, cells, p.classes, p.feat_dim, signal, &mut p.rng)
            };
            let ds = make_node_dataset(kind, &cfg);
            let mut row = vec![f64::NAN; ds.feat_dim()];
            for i in 0..ds.n() {
                ds.fill_features(i, &mut row);
                let got: Vec<u64> = row.iter().map(|v| v.to_bits()).collect();
                let want: Vec<u64> = dense.row(i).iter().map(|v| v.to_bits()).collect();
                assert_eq!(got, want, "{} row {i}", kind.name());
            }
        }
    }
}
