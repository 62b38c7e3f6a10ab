//! Property-based integration tests of AdamGNN's pooling invariants on
//! random graphs (Proposition 1 and structural guarantees).

use adamgnn_repro::core::{build_s_plan, ego_fitness, select_egos, EgoPairs, ValueSource};
use adamgnn_repro::graph::Topology;
use proptest::prelude::*;

/// Random connected graph: a random tree plus extra edges.
fn connected_graph() -> impl Strategy<Value = Topology> {
    (3..25usize).prop_flat_map(|n| {
        (
            proptest::collection::vec(0..1000u32, n - 1),
            proptest::collection::vec((0..n as u32, 0..n as u32), 0..n),
        )
            .prop_map(move |(parents, extra)| {
                let mut edges: Vec<(u32, u32)> = (1..n as u32)
                    .map(|v| (parents[v as usize - 1] % v, v))
                    .collect();
                edges.extend(extra);
                Topology::from_edges(n, &edges)
            })
    })
}

/// Distinct random fitness values per pair.
fn distinct_phi(len: usize) -> Vec<f64> {
    (0..len)
        .map(|k| 0.1 + 0.001 * ((k * 7919) % 1000) as f64 + 1e-9 * k as f64)
        .collect()
}

proptest! {
    /// Proposition 1: with pairwise-distinct ego fitness, a connected
    /// graph always yields at least one selected ego.
    #[test]
    fn proposition1_some_ego_selected(g in connected_graph()) {
        let pairs = EgoPairs::build(&g, 1);
        prop_assume!(!pairs.is_empty());
        let phi = distinct_phi(pairs.len());
        let mut ego_phi = ego_fitness(&pairs, &phi, g.n());
        // force distinctness (ties are measure-zero in training but can
        // occur with synthetic values)
        for (i, v) in ego_phi.iter_mut().enumerate() {
            *v += 1e-7 * i as f64;
        }
        let egos = select_egos(&g, &ego_phi);
        prop_assert!(!egos.is_empty(), "Proposition 1 violated");
    }

    /// Selected egos are never adjacent (two adjacent strict local maxima
    /// are impossible).
    #[test]
    fn selected_egos_are_independent_set(g in connected_graph()) {
        let pairs = EgoPairs::build(&g, 1);
        prop_assume!(!pairs.is_empty());
        let phi = distinct_phi(pairs.len());
        let ego_phi = ego_fitness(&pairs, &phi, g.n());
        let egos = select_egos(&g, &ego_phi);
        for (a, &e1) in egos.iter().enumerate() {
            for &e2 in &egos[a + 1..] {
                prop_assert!(!g.has_edge(e1, e2), "adjacent egos {e1},{e2}");
            }
        }
    }

    /// The S plan never loses a node: every row of `S_k` has at least one
    /// stored entry (the paper's no-information-loss claim vs Top-k).
    #[test]
    fn s_plan_covers_all_nodes(g in connected_graph()) {
        let pairs = EgoPairs::build(&g, 1);
        prop_assume!(!pairs.is_empty());
        let phi = distinct_phi(pairs.len());
        let ego_phi = ego_fitness(&pairs, &phi, g.n());
        let egos = select_egos(&g, &ego_phi);
        prop_assume!(!egos.is_empty());
        let plan = build_s_plan(&g, &pairs, 1, &egos);
        for r in 0..g.n() {
            prop_assert!(!plan.csr.row_indices(r).is_empty(), "node {r} dropped");
        }
        // the hyper graph is never larger than the original
        prop_assert!(plan.m() <= g.n());
        // ego diagonals are constants, member entries are pair-sourced
        for (r, c, k) in plan.csr.iter() {
            if c < plan.num_egos && r == plan.col_base[c] {
                prop_assert_eq!(plan.sources[k], ValueSource::One);
            }
        }
    }

    /// Column bases are a valid mapping and retained columns have exactly
    /// one entry (the node itself).
    #[test]
    fn retained_columns_are_singletons(g in connected_graph()) {
        let pairs = EgoPairs::build(&g, 1);
        prop_assume!(!pairs.is_empty());
        let phi = distinct_phi(pairs.len());
        let ego_phi = ego_fitness(&pairs, &phi, g.n());
        let egos = select_egos(&g, &ego_phi);
        prop_assume!(!egos.is_empty());
        let plan = build_s_plan(&g, &pairs, 1, &egos);
        let mut per_col = vec![0usize; plan.m()];
        for (_, c, _) in plan.csr.iter() {
            per_col[c] += 1;
        }
        for (c, &cnt) in per_col.iter().enumerate().skip(plan.num_egos) {
            prop_assert_eq!(cnt, 1, "retained col {} should be a singleton", c);
        }
        // retained nodes must not be members of any selected ego-network
        for c in plan.num_egos..plan.m() {
            let node = plan.col_base[c];
            for &ego in &plan.egos {
                prop_assert!(
                    !g.has_edge(node, ego),
                    "retained node {node} is adjacent to ego {ego}"
                );
            }
        }
    }
}
