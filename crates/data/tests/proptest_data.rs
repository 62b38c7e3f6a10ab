//! Property-based tests for dataset generation, splits and the
//! neighbor sampler.

use mg_data::{
    make_graph_dataset, make_node_dataset, sample_non_edges, GraphDatasetKind, GraphGenConfig,
    LinkSplit, NeighborSampler, NodeDatasetKind, NodeGenConfig, Split,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn node_dataset_invariants(seed in 0u64..1000, scale in 0.05f64..0.15) {
        let cfg = NodeGenConfig { scale, max_feat_dim: 48, seed };
        let ds = make_node_dataset(NodeDatasetKind::Cora, &cfg);
        prop_assert_eq!(ds.labels.len(), ds.n());
        prop_assert!(ds.labels.iter().all(|&c| c < ds.num_classes));
        prop_assert_eq!(ds.features.rows(), ds.n());
        prop_assert!(ds.features.all_finite());
        prop_assert_eq!(ds.graph.num_components(), 1, "generator promises connectivity");
        // every class is inhabited
        for c in 0..ds.num_classes {
            prop_assert!(ds.labels.contains(&c), "empty class {}", c);
        }
    }

    #[test]
    fn graph_dataset_invariants(seed in 0u64..1000) {
        let cfg = GraphGenConfig { scale: 0.02, max_nodes: 40, seed };
        let ds = make_graph_dataset(GraphDatasetKind::Proteins, &cfg);
        prop_assert!(!ds.is_empty());
        for s in &ds.samples {
            prop_assert_eq!(s.features.rows(), s.graph.n());
            prop_assert_eq!(s.features.cols(), ds.feat_dim);
            prop_assert!(s.label < ds.num_classes);
            // one-hot rows
            for i in 0..s.graph.n() {
                let sum: f64 = s.features.row(i).map(|(_, v)| v).sum();
                prop_assert_eq!(sum, 1.0);
            }
        }
    }

    #[test]
    fn split_partitions_any_size(n in 10usize..500, seed in 0u64..1000) {
        let s = Split::random_80_10_10(n, seed).unwrap();
        prop_assert!(s.is_partition_of(n));
        prop_assert!(!s.train.is_empty());
        prop_assert!(!s.val.is_empty());
        prop_assert!(!s.test.is_empty());
    }

    #[test]
    fn link_split_invariants(seed in 0u64..200) {
        let ds = make_node_dataset(
            NodeDatasetKind::Citeseer,
            &NodeGenConfig { scale: 0.05, max_feat_dim: 32, seed },
        );
        let ls = LinkSplit::new(&ds.graph, seed).unwrap();
        // positive edge sets partition the original edges
        let total = ls.train_pos.len() + ls.val_pos.len() + ls.test_pos.len();
        prop_assert_eq!(total, ds.graph.num_edges());
        // no held-out edge leaks into the training graph
        for &(u, v) in ls.val_pos.iter().chain(&ls.test_pos) {
            prop_assert!(!ls.train_graph.has_edge(u, v));
        }
        // all negatives are genuine non-edges of the *full* graph
        for &(u, v) in ls.val_neg.iter().chain(&ls.test_neg) {
            prop_assert!(!ds.graph.has_edge(u, v));
        }
    }

    #[test]
    fn sampled_subgraph_is_the_induced_subgraph(
        seed in 0u64..200,
        fanout in 2usize..=8,
        n_seeds in 1usize..12,
    ) {
        let ds = make_node_dataset(
            NodeDatasetKind::Cora,
            &NodeGenConfig { scale: 0.05, max_feat_dim: 16, seed },
        );
        let mut rng = StdRng::seed_from_u64(seed ^ 0xabcd);
        let seeds: Vec<usize> = (0..n_seeds).map(|_| rng.random_range(0..ds.n())).collect();
        let mut sampler = NeighborSampler::new(ds.n());
        let sub = sampler.sample(&ds.graph, &seeds, &[fanout, fanout], &mut rng);

        // remap round-trip: local ids are distinct globals, all in range
        let mut seen = vec![false; ds.n()];
        for &g in &sub.nodes {
            prop_assert!(g < ds.n());
            prop_assert!(!seen[g], "duplicate global node {} in remap", g);
            seen[g] = true;
        }
        // seeds occupy the remap prefix, deduped in first-seen order
        let mut expect_prefix = Vec::new();
        for &s in &seeds {
            if !expect_prefix.contains(&s) {
                expect_prefix.push(s);
            }
        }
        prop_assert_eq!(&sub.nodes[..sub.num_seeds], &expect_prefix[..]);

        // even with a bounded fanout, the edge set must be exactly the
        // reference induced subgraph over the sampled node set: no
        // phantom edges, no dropped intra-sample edges
        let (reference, _) = ds.graph.induced_subgraph(&sub.nodes);
        let canon = |t: &mg_graph::Topology| {
            let mut e: Vec<(u32, u32)> = t
                .edges()
                .map(|(u, v)| (u.min(v), u.max(v)))
                .collect();
            e.sort_unstable();
            e
        };
        prop_assert_eq!(canon(&sub.topo), canon(&reference));
        // every local edge maps back to a real global edge
        for (lu, lv) in sub.topo.edges() {
            prop_assert!(ds.graph.has_edge(sub.nodes[lu as usize], sub.nodes[lv as usize]));
        }
    }

    #[test]
    fn non_edge_sampler_never_returns_edges(seed in 0u64..200) {
        let ds = make_node_dataset(
            NodeDatasetKind::Dblp,
            &NodeGenConfig { scale: 0.05, max_feat_dim: 32, seed },
        );
        let mut rng = StdRng::seed_from_u64(seed);
        for &(u, v) in &sample_non_edges(&ds.graph, 64, &mut rng).unwrap() {
            prop_assert!(!ds.graph.has_edge(u, v));
            prop_assert_ne!(u, v);
        }
    }
}
