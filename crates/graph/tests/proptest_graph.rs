//! Property-based tests for graph topology invariants.

use mg_graph::{gcn_norm, rw_norm, Topology};
use proptest::prelude::*;

/// Strategy: a random simple graph as (n, edges).
fn random_graph() -> impl Strategy<Value = (usize, Vec<(u32, u32)>)> {
    (2..20usize).prop_flat_map(|n| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..3 * n)
            .prop_map(move |edges| (n, edges))
    })
}

/// Strategy: a raw edge list as (n, edges) that is sure to carry
/// duplicates, reversed pairs and self-loops next to its random pairs.
fn messy_edge_list() -> impl Strategy<Value = (usize, Vec<(u32, u32)>)> {
    random_graph().prop_flat_map(|(n, edges)| {
        let m = edges.len().max(1);
        (
            proptest::collection::vec((0..m, 0..2u8), 0..m + 1),
            proptest::collection::vec(0..n as u32, 1..4),
        )
            .prop_map(move |(copies, loops)| {
                let mut raw = edges.clone();
                for &(i, reverse) in &copies {
                    if let Some(&(u, v)) = edges.get(i) {
                        raw.push(if reverse == 1 { (v, u) } else { (u, v) });
                    }
                }
                raw.extend(loops.iter().map(|&u| (u, u)));
                (n, raw)
            })
    })
}

proptest! {
    #[test]
    fn edges_are_the_sorted_unique_pairs_of_the_raw_list((n, raw) in messy_edge_list()) {
        let g = Topology::from_edges(n, &raw);
        let mut want: Vec<(u32, u32)> = raw
            .iter()
            .filter(|&&(u, v)| u != v)
            .map(|&(u, v)| (u.min(v), u.max(v)))
            .collect();
        want.sort_unstable();
        want.dedup();
        prop_assert_eq!(g.edges().collect::<Vec<_>>(), want);
        prop_assert_eq!(g.num_edges() * 2, g.adj().nnz());
        let rebuilt = Topology::from_symmetric_csr(g.adj().clone());
        prop_assert_eq!(rebuilt.n(), g.n());
        prop_assert_eq!(rebuilt.num_edges(), g.num_edges());
        prop_assert!(rebuilt.edges().eq(g.edges()));
        prop_assert_eq!(rebuilt.adj().indptr(), g.adj().indptr());
        prop_assert_eq!(rebuilt.adj().indices(), g.adj().indices());
    }

    #[test]
    fn adjacency_is_symmetric((n, edges) in random_graph()) {
        let g = Topology::from_edges(n, &edges);
        for u in 0..n {
            for v in g.neighbors(u) {
                prop_assert!(g.has_edge(v, u));
            }
        }
    }

    #[test]
    fn degree_sum_is_twice_edges((n, edges) in random_graph()) {
        let g = Topology::from_edges(n, &edges);
        let total: usize = (0..n).map(|i| g.degree(i)).sum();
        prop_assert_eq!(total, 2 * g.num_edges());
    }

    #[test]
    fn khop_is_monotone_in_k((n, edges) in random_graph(), start_frac in 0.0..1.0f64) {
        let g = Topology::from_edges(n, &edges);
        let start = ((start_frac * n as f64) as usize).min(n - 1);
        let mut prev = g.khop(start, 0);
        for k in 1..4 {
            let cur = g.khop(start, k);
            prop_assert!(prev.iter().all(|x| cur.contains(x)),
                "k-hop sets must be nested");
            prop_assert!(cur.contains(&start));
            prev = cur;
        }
    }

    #[test]
    fn khop_n_covers_component((n, edges) in random_graph()) {
        let g = Topology::from_edges(n, &edges);
        let comp = g.connected_components();
        let reach = g.khop(0, n);
        let same_comp: Vec<usize> =
            (0..n).filter(|&i| comp[i] == comp[0]).collect();
        prop_assert_eq!(reach, same_comp);
    }

    #[test]
    fn components_partition_nodes((n, edges) in random_graph()) {
        let g = Topology::from_edges(n, &edges);
        let comp = g.connected_components();
        prop_assert_eq!(comp.len(), n);
        // edges never cross components
        for (u, v) in g.edges() {
            prop_assert_eq!(comp[u as usize], comp[v as usize]);
        }
    }

    #[test]
    fn gcn_norm_is_symmetric_matrix((n, edges) in random_graph()) {
        let g = Topology::from_edges(n, &edges);
        let norm = gcn_norm(&g);
        let dense = norm.csr.to_dense(&norm.values);
        for i in 0..n {
            for j in 0..n {
                prop_assert!((dense[(i, j)] - dense[(j, i)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn rw_norm_is_row_stochastic((n, edges) in random_graph()) {
        let g = Topology::from_edges(n, &edges);
        let norm = rw_norm(&g);
        let dense = norm.csr.to_dense(&norm.values);
        for i in 0..n {
            let sum: f64 = (0..n).map(|j| dense[(i, j)]).sum();
            prop_assert!((sum - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn induced_subgraph_edge_subset((n, edges) in random_graph()) {
        let g = Topology::from_edges(n, &edges);
        let take: Vec<usize> = (0..n).step_by(2).collect();
        let (sub, map) = g.induced_subgraph(&take);
        for (u, v) in sub.edges() {
            prop_assert!(g.has_edge(map[u as usize], map[v as usize]));
        }
    }
}
