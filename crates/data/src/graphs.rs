//! Graph-classification datasets.
//!
//! The paper evaluates on six TUDataset benchmarks (NCI1, NCI109, D&D,
//! MUTAG, Mutagenicity, PROTEINS). Offline, each is replaced by a seeded
//! motif-labelled random-graph generator matched to the published
//! statistics (Table 7): graph count, average nodes/edges, node-label
//! alphabet size and two classes. The label is determined by planted
//! structural motifs (rings / cliques) plus a correlated node-label
//! signal — exactly the meso-level structure hierarchical pooling is
//! supposed to capture, so the benchmark discriminates between flat and
//! multi-grained models the same way the originals do.

use mg_graph::Topology;
use mg_tensor::SparseMatrix;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::HashSet;

/// The six graph-classification benchmarks of the paper.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum GraphDatasetKind {
    Nci1,
    Nci109,
    Dd,
    Mutag,
    Mutagenicity,
    Proteins,
}

impl GraphDatasetKind {
    /// All six, in the paper's Table 1 column order.
    pub fn all() -> [GraphDatasetKind; 6] {
        use GraphDatasetKind::*;
        [Nci1, Nci109, Dd, Mutag, Mutagenicity, Proteins]
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            GraphDatasetKind::Nci1 => "NCI1",
            GraphDatasetKind::Nci109 => "NCI109",
            GraphDatasetKind::Dd => "D&D",
            GraphDatasetKind::Mutag => "MUTAG",
            GraphDatasetKind::Mutagenicity => "Mutagenicity",
            GraphDatasetKind::Proteins => "PROTEINS",
        }
    }

    /// Published statistics from Table 7:
    /// `(graphs, avg_nodes, avg_edges, feature_dim)`. All are 2-class.
    pub fn paper_stats(&self) -> (usize, f64, f64, usize) {
        match self {
            GraphDatasetKind::Nci1 => (4110, 29.87, 32.30, 37),
            GraphDatasetKind::Nci109 => (4127, 29.68, 32.13, 38),
            GraphDatasetKind::Dd => (1178, 284.32, 715.66, 89),
            GraphDatasetKind::Mutag => (188, 17.93, 19.79, 7),
            GraphDatasetKind::Mutagenicity => (4337, 30.32, 30.77, 14),
            GraphDatasetKind::Proteins => (1113, 39.06, 72.82, 32),
        }
    }
}

/// A single labelled graph.
#[derive(Clone, Debug)]
pub struct GraphSample {
    pub graph: Topology,
    /// One-hot node-label features, `n x feat_dim`, sparse.
    pub features: SparseMatrix,
    /// Binary class.
    pub label: usize,
}

/// A graph-classification dataset.
#[derive(Clone, Debug)]
pub struct GraphDataset {
    pub name: String,
    pub samples: Vec<GraphSample>,
    pub feat_dim: usize,
    pub num_classes: usize,
}

impl GraphDataset {
    /// Number of graphs.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Average node count.
    pub fn avg_nodes(&self) -> f64 {
        self.samples.iter().map(|s| s.graph.n() as f64).sum::<f64>() / self.len() as f64
    }

    /// Average edge count.
    pub fn avg_edges(&self) -> f64 {
        self.samples
            .iter()
            .map(|s| s.graph.num_edges() as f64)
            .sum::<f64>()
            / self.len() as f64
    }
}

/// Generation options.
#[derive(Clone, Copy, Debug)]
pub struct GraphGenConfig {
    /// Scale factor on the number of graphs (1.0 = paper size).
    pub scale: f64,
    /// Cap on per-graph node count (D&D averages 284 nodes; capping keeps
    /// the dense 3WL baseline tractable on CPU). `0` disables.
    pub max_nodes: usize,
    pub seed: u64,
}

impl Default for GraphGenConfig {
    fn default() -> Self {
        GraphGenConfig {
            scale: 1.0,
            max_nodes: 120,
            seed: 42,
        }
    }
}

impl GraphGenConfig {
    /// Config with a given scale, defaults elsewhere.
    pub fn with_scale(scale: f64) -> Self {
        GraphGenConfig {
            scale,
            ..Default::default()
        }
    }
}

/// Generate the analogue of one of the paper's graph-classification sets.
pub fn make_graph_dataset(kind: GraphDatasetKind, cfg: &GraphGenConfig) -> GraphDataset {
    generate(kind, cfg, sample_features)
}

/// Draws one graph's features: `(marked nodes, n, feat_dim, rng)`.
type FeatureFn = fn(&HashSet<u32>, usize, usize, &mut StdRng) -> SparseMatrix;

/// [`make_graph_dataset`] with each graph's features drawn by `features`.
fn generate(kind: GraphDatasetKind, cfg: &GraphGenConfig, features: FeatureFn) -> GraphDataset {
    let (count0, avg_n, avg_m, feat_dim) = kind.paper_stats();
    let count = ((count0 as f64 * cfg.scale) as usize).max(40);
    let avg_n = if cfg.max_nodes > 0 {
        avg_n.min(cfg.max_nodes as f64)
    } else {
        avg_n
    };
    let avg_m = avg_m.min(avg_n * 2.5);
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ fxhash(kind.name()));
    let mut samples = Vec::with_capacity(count);
    for g in 0..count {
        let label = g % 2; // balanced classes
        samples.push(make_sample(
            avg_n, avg_m, feat_dim, label, &mut rng, features,
        ));
    }
    // deterministic shuffle so classes are interleaved randomly
    for i in (1..samples.len()).rev() {
        let j = rng.random_range(0..=i);
        samples.swap(i, j);
    }
    GraphDataset {
        name: kind.name().to_string(),
        samples,
        feat_dim,
        num_classes: 2,
    }
}

fn fxhash(s: &str) -> u64 {
    s.bytes().fold(0xcbf29ce484222325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x100000001b3)
    })
}

/// Top up `edges` with unique extra edges until the graph holds
/// `target_m` *distinct* edges (or the simple graph is full). Draws come
/// from a fork of the stream — an `StdRng` seeded by hashing the edges
/// already drawn — so callers' RNG state is untouched and every draw
/// sequence that existed before this fix is preserved bit for bit.
fn top_up_edges(edges: &mut Vec<(u32, u32)>, n: usize, target_m: usize) {
    let norm = |u: u32, v: u32| if u < v { (u, v) } else { (v, u) };
    let mut seen: HashSet<(u32, u32)> = edges
        .iter()
        .filter(|&&(u, v)| u != v)
        .map(|&(u, v)| norm(u, v))
        .collect();
    let max_edges = n * (n - 1) / 2;
    let want = target_m.min(max_edges);
    if seen.len() >= want {
        return;
    }
    let fork_seed = edges.iter().fold(0x517c_c1b7_2722_0a95u64, |h, &(u, v)| {
        (h ^ (((u as u64) << 32) | v as u64)).wrapping_mul(0x100000001b3)
    });
    let mut fork = StdRng::seed_from_u64(fork_seed);
    let mut guard = 0;
    while seen.len() < want && guard < 200 * want {
        guard += 1;
        let u = fork.random_range(0..n as u32);
        let v = fork.random_range(0..n as u32);
        if u != v && seen.insert(norm(u, v)) {
            edges.push((u, v));
        }
    }
}

/// One labelled graph: a random connected "molecule-like" backbone.
/// Class 1 graphs contain planted ring motifs whose members carry a
/// biased node-label distribution; class 0 graphs contain star motifs.
fn make_sample(
    avg_n: f64,
    avg_m: f64,
    feat_dim: usize,
    label: usize,
    rng: &mut StdRng,
    features: FeatureFn,
) -> GraphSample {
    let n = ((avg_n * rng.random_range(0.7..1.3)) as usize).max(8);
    let target_m = ((avg_m / avg_n) * n as f64) as usize;
    let mut edges: Vec<(u32, u32)> = Vec::with_capacity(target_m);
    // random recursive tree backbone
    for v in 1..n as u32 {
        let u = rng.random_range(0..v);
        edges.push((u, v));
    }
    // Extra random edges up to the target count. Historically this loop
    // counted duplicate draws toward `target_m` even though
    // `Topology::from_edges` dedups them later, so generated graphs
    // silently undershot the target edge count. The loop itself is kept
    // byte-identical (the mg-verify graph-classification golden pins its
    // exact draw sequence); the undershoot is repaired afterwards by a
    // *top-up* pass that draws from a forked RNG seeded by hashing the
    // edges drawn so far — the main stream is never perturbed.
    let mut guard = 0;
    while edges.len() < target_m && guard < 20 * target_m {
        guard += 1;
        let u = rng.random_range(0..n as u32);
        let v = rng.random_range(0..n as u32);
        if u != v {
            edges.push((u, v));
        }
    }
    top_up_edges(&mut edges, n, target_m);
    // Plant the class signal among *marked* nodes (distinctive atom
    // types, same marginal distribution in both classes). What differs is
    // the arrangement: class 1 wires its marked nodes into rings
    // (functional groups), class 0 scatters the same number of marks over
    // random nodes and adds the same number of plain random edges, so
    // edge counts and feature histograms match across classes. A model
    // must therefore combine node features with local structure — the
    // meso-level signal hierarchical pooling exploits.
    let motif_size = 6.min(n / 2).max(3);
    let num_motifs = (n / 12).max(1);
    let mut motif_members: Vec<u32> = Vec::new();
    for m in 0..num_motifs {
        if label == 1 {
            let start = (m * motif_size) % (n - motif_size);
            let members: Vec<u32> = (start as u32..(start + motif_size) as u32).collect();
            for w in 0..motif_size {
                edges.push((members[w], members[(w + 1) % motif_size]));
            }
            motif_members.extend_from_slice(&members);
        } else {
            // scattered marks, edge budget matched with random edges
            for _ in 0..motif_size {
                motif_members.push(rng.random_range(0..n as u32));
                let u = rng.random_range(0..n as u32);
                let v = rng.random_range(0..n as u32);
                if u != v {
                    edges.push((u, v));
                }
            }
        }
    }
    let graph = Topology::from_edges(n, &edges);
    let motif_set: HashSet<u32> = motif_members.into_iter().collect();
    GraphSample {
        graph,
        features: features(&motif_set, n, feat_dim, rng),
        label,
    }
}

/// One-hot atom types, one per node: motif members mostly carry one of
/// the (at most two) marked types, other nodes mostly a plain one.
fn sample_features(
    marked: &HashSet<u32>,
    n: usize,
    feat_dim: usize,
    rng: &mut StdRng,
) -> SparseMatrix {
    let marked_types = 2.min(feat_dim);
    SparseMatrix::from_row_writes(n, feat_dim, |i, row| {
        let is_member = marked.contains(&(i as u32));
        let t = if is_member && rng.random::<f64>() < 0.85 {
            // marked atom type (same distribution in both classes)
            rng.random_range(0..marked_types)
        } else if !is_member && rng.random::<f64>() < 0.12 {
            // distractor mark: features alone must not decide the class
            rng.random_range(0..marked_types)
        } else if feat_dim > marked_types {
            rng.random_range(marked_types..feat_dim)
        } else {
            rng.random_range(0..feat_dim)
        };
        row.push((t, 1.0));
    })
}

/// The former dense feature generator, kept as the oracle
/// [`sample_features`] is checked against.
#[cfg(test)]
fn dense_sample_features(
    marked: &HashSet<u32>,
    n: usize,
    feat_dim: usize,
    rng: &mut StdRng,
) -> mg_tensor::Matrix {
    let marked_types = 2.min(feat_dim);
    let mut features = mg_tensor::Matrix::zeros(n, feat_dim);
    for i in 0..n {
        let is_member = marked.contains(&(i as u32));
        let t = if is_member && rng.random::<f64>() < 0.85 {
            // marked atom type
            rng.random_range(0..marked_types)
        } else if !is_member && rng.random::<f64>() < 0.12 {
            // distractor mark
            rng.random_range(0..marked_types)
        } else if feat_dim > marked_types {
            rng.random_range(marked_types..feat_dim)
        } else {
            rng.random_range(0..feat_dim)
        };
        features[(i, t)] = 1.0;
    }
    features
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(kind: GraphDatasetKind) -> GraphDataset {
        make_graph_dataset(
            kind,
            &GraphGenConfig {
                scale: 0.02,
                max_nodes: 60,
                seed: 3,
            },
        )
    }

    #[test]
    fn all_kinds_generate() {
        for kind in GraphDatasetKind::all() {
            let ds = tiny(kind);
            assert!(ds.len() >= 40, "{}", ds.name);
            assert!(ds.samples.iter().all(|s| s.label < 2));
            assert!(ds.samples.iter().all(|s| s.features.rows() == s.graph.n()));
        }
    }

    #[test]
    fn classes_are_balanced() {
        let ds = tiny(GraphDatasetKind::Mutag);
        let ones = ds.samples.iter().filter(|s| s.label == 1).count();
        let frac = ones as f64 / ds.len() as f64;
        assert!((frac - 0.5).abs() < 0.1, "class-1 fraction = {frac}");
    }

    #[test]
    fn average_sizes_track_paper_stats() {
        let ds = make_graph_dataset(
            GraphDatasetKind::Nci1,
            &GraphGenConfig {
                scale: 0.05,
                max_nodes: 0,
                seed: 9,
            },
        );
        let (_, avg_n, _, _) = GraphDatasetKind::Nci1.paper_stats();
        assert!(
            (ds.avg_nodes() - avg_n).abs() / avg_n < 0.25,
            "avg nodes = {}",
            ds.avg_nodes()
        );
    }

    /// The realized (deduped) edge count must reach the per-graph target
    /// instead of silently undershooting when the extra-edge loop drew
    /// duplicates. Motif planting only *adds* edges on top of the target,
    /// so the per-dataset average must sit at or above the configured
    /// `avg_m` (up to the few motif-edge duplicates dedup removes).
    #[test]
    fn realized_edge_count_reaches_target() {
        for kind in [GraphDatasetKind::Mutag, GraphDatasetKind::Nci1] {
            let ds = make_graph_dataset(
                kind,
                &GraphGenConfig {
                    scale: 0.04,
                    max_nodes: 20,
                    seed: 5,
                },
            );
            let (_, avg_n0, avg_m0, _) = kind.paper_stats();
            let avg_n = avg_n0.min(20.0);
            let avg_m = avg_m0.min(avg_n * 2.5);
            let per_node_target = avg_m / avg_n0.min(20.0);
            // reconstruct the mean of per-graph targets from the samples
            let mean_target = ds
                .samples
                .iter()
                .map(|s| (per_node_target * s.graph.n() as f64).floor())
                .sum::<f64>()
                / ds.len() as f64;
            assert!(
                ds.avg_edges() >= mean_target * 0.98,
                "{}: avg edges {} undershoots target {}",
                ds.name,
                ds.avg_edges(),
                mean_target
            );
        }
    }

    #[test]
    fn top_up_rejects_duplicates_and_fills_to_target() {
        // 3 distinct edges among 6 duplicates; target 5 of max 6
        let mut edges = vec![(0, 1), (1, 0), (0, 1), (1, 2), (2, 1), (2, 3)];
        top_up_edges(&mut edges, 4, 5);
        let distinct: std::collections::HashSet<(u32, u32)> = edges
            .iter()
            .map(|&(u, v)| if u < v { (u, v) } else { (v, u) })
            .collect();
        assert_eq!(distinct.len(), 5);
        // a full graph caps at n*(n-1)/2 instead of spinning
        let mut full = vec![(0, 1), (0, 2), (1, 2)];
        top_up_edges(&mut full, 3, 100);
        assert_eq!(full.len(), 3);
        // deterministic: same input, same result
        let mut a = vec![(0, 1), (0, 1)];
        let mut b = vec![(0, 1), (0, 1)];
        top_up_edges(&mut a, 5, 4);
        top_up_edges(&mut b, 5, 4);
        assert_eq!(a, b);
    }

    #[test]
    fn deterministic_generation() {
        let a = tiny(GraphDatasetKind::Proteins);
        let b = tiny(GraphDatasetKind::Proteins);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.samples.iter().zip(&b.samples) {
            assert_eq!(x.label, y.label);
            assert!(x.graph.edges().eq(y.graph.edges()));
        }
    }

    #[test]
    fn features_are_one_hot() {
        let ds = tiny(GraphDatasetKind::Mutagenicity);
        for s in &ds.samples {
            for i in 0..s.graph.n() {
                let sum: f64 = s.features.row(i).map(|(_, v)| v).sum();
                assert_eq!(sum, 1.0);
            }
        }
    }

    #[test]
    fn class1_marked_nodes_form_rings() {
        // in class 1 the marked nodes are wired into cycles, so marked
        // nodes adjacent to >= 2 other marked nodes are far more common
        let ds = tiny(GraphDatasetKind::Nci1);
        let marked = |s: &GraphSample, i: usize| s.features.row(i).any(|(t, v)| t < 2 && v > 0.0);
        let ringiness = |s: &GraphSample| {
            let mut hits = 0.0;
            for i in 0..s.graph.n() {
                if marked(s, i) {
                    let m_neigh = s.graph.neighbors(i).filter(|&j| marked(s, j)).count();
                    if m_neigh >= 2 {
                        hits += 1.0;
                    }
                }
            }
            hits / s.graph.n() as f64
        };
        let avg = |label: usize| {
            let xs: Vec<f64> = ds
                .samples
                .iter()
                .filter(|s| s.label == label)
                .map(ringiness)
                .collect();
            xs.iter().sum::<f64>() / xs.len() as f64
        };
        assert!(
            avg(1) > 1.5 * avg(0),
            "ringiness: class1 {} vs class0 {}",
            avg(1),
            avg(0)
        );
    }

    #[test]
    fn graphs_are_connected() {
        let ds = tiny(GraphDatasetKind::Dd);
        for s in ds.samples.iter().take(10) {
            assert_eq!(s.graph.num_components(), 1);
        }
    }

    /// Checks one graph's sparse features against the dense oracle, and
    /// that both leave the random stream in the same state.
    fn checked_features(
        marked: &HashSet<u32>,
        n: usize,
        feat_dim: usize,
        rng: &mut StdRng,
    ) -> SparseMatrix {
        let mut oracle_rng = rng.clone();
        let want = dense_sample_features(marked, n, feat_dim, &mut oracle_rng);
        let got = sample_features(marked, n, feat_dim, rng);
        assert_eq!(got, SparseMatrix::from(&want));
        assert_eq!(rng.state(), oracle_rng.state());
        got
    }

    #[test]
    fn features_match_the_dense_oracle() {
        for seed in [1, 2, 3] {
            let cfg = GraphGenConfig {
                scale: 0.02,
                max_nodes: 40,
                seed,
            };
            for kind in GraphDatasetKind::all() {
                let checked = generate(kind, &cfg, checked_features);
                let ds = make_graph_dataset(kind, &cfg);
                assert_eq!(checked.len(), ds.len());
                for (a, b) in checked.samples.iter().zip(&ds.samples) {
                    assert_eq!(a.features, b.features, "{} seed {seed}", kind.name());
                }
            }
        }
    }
}
