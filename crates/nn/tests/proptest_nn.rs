//! Property-based tests of GNN layer semantics: permutation equivariance
//! of message passing, permutation invariance of readouts, and attention
//! normalisation.

use mg_graph::Topology;
use mg_nn::{Activation, GatLayer, GcnLayer, GraphCtx, Readout};
use mg_tensor::{Matrix, ParamStore, Tape};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Random graph + node features.
fn graph_and_features() -> impl Strategy<Value = (Topology, Matrix)> {
    (3..12usize).prop_flat_map(|n| {
        (
            proptest::collection::vec((0..n as u32, 0..n as u32), 1..3 * n),
            proptest::collection::vec(-1.0..1.0f64, n * 4),
        )
            .prop_map(move |(edges, feat)| {
                (
                    Topology::from_edges(n, &edges),
                    Matrix::from_vec(n, 4, feat),
                )
            })
    })
}

/// A permutation of `0..n` derived from a seed.
fn permutation(n: usize, seed: u64) -> Vec<usize> {
    use rand::RngExt;
    let mut p: Vec<usize> = (0..n).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    for i in (1..n).rev() {
        let j = rng.random_range(0..=i);
        p.swap(i, j);
    }
    p
}

fn permute_graph(g: &Topology, p: &[usize]) -> Topology {
    let edges: Vec<(u32, u32)> = g
        .edges()
        .map(|(u, v)| (p[u as usize] as u32, p[v as usize] as u32))
        .collect();
    Topology::from_edges(g.n(), &edges)
}

/// `out[p[i]] = in[i]`: node `i` moves to position `p[i]`.
fn permute_rows(m: &Matrix, p: &[usize]) -> Matrix {
    let mut out = Matrix::zeros(m.rows(), m.cols());
    for (i, &pi) in p.iter().enumerate() {
        out.row_mut(pi).copy_from_slice(m.row(i));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// GCN is permutation-equivariant: relabelling nodes permutes outputs.
    #[test]
    fn gcn_is_permutation_equivariant((g, x) in graph_and_features(), seed in 0u64..100) {
        let n = g.n();
        let p = permutation(n, seed);
        let mut store = ParamStore::new();
        let layer = GcnLayer::new(
            &mut store, "eq", 4, 3, Activation::Relu, &mut StdRng::seed_from_u64(7),
        );
        let run = |g: Topology, x: Matrix| {
            let ctx = GraphCtx::new(g, x);
            let tape = Tape::new();
            let bind = store.bind(&tape);
            let xv = ctx.x_var(&tape);
            let out = layer.forward(&tape, &bind, &ctx, xv);
            tape.value_cloned(out)
        };
        let direct = run(g.clone(), x.clone());
        let permuted = run(permute_graph(&g, &p), permute_rows(&x, &p));
        for i in 0..n {
            for j in 0..3 {
                prop_assert!(
                    (direct[(i, j)] - permuted[(p[i], j)]).abs() < 1e-9,
                    "equivariance violated at node {}", i
                );
            }
        }
    }

    /// Mean/Max/Sum readouts are permutation-invariant.
    #[test]
    fn readouts_are_permutation_invariant((g, x) in graph_and_features(), seed in 0u64..100) {
        let p = permutation(g.n(), seed);
        let xp = permute_rows(&x, &p);
        for r in [Readout::Mean, Readout::Max, Readout::Sum, Readout::MeanMax] {
            let tape = Tape::new();
            let a = tape.constant(x.clone());
            let b = tape.constant(xp.clone());
            let ra = tape.value_cloned(r.apply(&tape, a));
            let rb = tape.value_cloned(r.apply(&tape, b));
            for j in 0..ra.cols() {
                prop_assert!((ra[(0, j)] - rb[(0, j)]).abs() < 1e-9);
            }
        }
    }

    /// GAT produces finite outputs on arbitrary graphs (including graphs
    /// with isolated nodes, which aggregate only their self loop).
    #[test]
    fn gat_is_finite_everywhere((g, x) in graph_and_features()) {
        let mut store = ParamStore::new();
        let layer = GatLayer::new(
            &mut store, "fin", 4, 3, Activation::None, &mut StdRng::seed_from_u64(3),
        );
        let ctx = GraphCtx::new(g, x);
        let tape = Tape::new();
        let bind = store.bind(&tape);
        let xv = ctx.x_var(&tape);
        let out = layer.forward(&tape, &bind, &ctx, xv);
        prop_assert!(tape.value(out).all_finite());
    }

    /// Training one GCN step never produces non-finite parameters.
    #[test]
    fn one_training_step_keeps_parameters_finite((g, x) in graph_and_features()) {
        use mg_tensor::AdamConfig;
        let n = g.n();
        let mut store = ParamStore::new();
        let layer = GcnLayer::new(
            &mut store, "step", 4, 2, Activation::None, &mut StdRng::seed_from_u64(5),
        );
        let ctx = GraphCtx::new(g, x);
        let tape = Tape::new();
        let bind = store.bind(&tape);
        let xv = ctx.x_var(&tape);
        let logits = layer.forward(&tape, &bind, &ctx, xv);
        let targets = std::rc::Rc::new(vec![0usize; n]);
        let nodes = std::rc::Rc::new((0..n).collect::<Vec<_>>());
        let loss = tape.cross_entropy(logits, targets, nodes);
        let mut grads = tape.backward(loss);
        store.step(&mut grads, &bind, &AdamConfig::with_lr(0.1));
        let tape2 = Tape::new();
        let bind2 = store.bind(&tape2);
        let out2 = layer.forward(&tape2, &bind2, &ctx, ctx.x_var(&tape2));
        prop_assert!(tape2.value(out2).all_finite());
    }
}
