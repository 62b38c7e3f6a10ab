//! Individual GNN layers: GCN, GraphSAGE (mean), GAT (single head), GIN,
//! and a plain MLP. Each layer owns its parameters as [`ParamId`]s inside
//! a shared [`ParamStore`] and is invoked with a per-pass [`Binding`].

use crate::ctx::GraphCtx;
use mg_tensor::{Binding, Matrix, ParamId, ParamStore, Tape, Var};
use rand::rngs::StdRng;
use std::rc::Rc;

/// Activation applied by a layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Activation {
    None,
    Relu,
    Tanh,
}

fn apply_act(tape: &Tape, v: Var, act: Activation) -> Var {
    match act {
        Activation::None => v,
        Activation::Relu => tape.relu(v),
        Activation::Tanh => tape.tanh(v),
    }
}

/// Graph Convolutional Network layer (Kipf & Welling 2017):
/// `H' = act(D̂^{-1/2} Â D̂^{-1/2} H W + b)` — the paper's Eq. 1.
pub struct GcnLayer {
    w: ParamId,
    b: ParamId,
    act: Activation,
}

impl GcnLayer {
    /// Create with Glorot-initialised weights.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        act: Activation,
        rng: &mut StdRng,
    ) -> Self {
        GcnLayer {
            w: store.add(format!("{name}.w"), Matrix::glorot(in_dim, out_dim, rng)),
            b: store.add(format!("{name}.b"), Matrix::zeros(1, out_dim)),
            act,
        }
    }

    /// Forward with an explicit (possibly coarsened/weighted) adjacency.
    ///
    /// ReLU layers run the aggregate → bias → activation chain as the
    /// fused `spmm_bias_relu` kernel (one pass, no materialised
    /// intermediates); the fusion is bitwise identical to the unfused
    /// chain in both forward and backward, so traces do not change.
    pub fn forward_adj(
        &self,
        tape: &Tape,
        bind: &Binding,
        csr: Rc<mg_tensor::Csr>,
        adj_values: Var,
        h: Var,
    ) -> Var {
        let hw = tape.matmul(h, bind.var(self.w));
        self.aggregate(tape, bind, csr, adj_values, hw)
    }

    /// Forward on a graph context using its GCN-normalised adjacency.
    pub fn forward(&self, tape: &Tape, bind: &Binding, ctx: &GraphCtx, h: Var) -> Var {
        let (csr, vals) = ctx.adj_var(tape, &ctx.gcn);
        self.forward_adj(tape, bind, csr, vals, h)
    }

    /// [`GcnLayer::forward`] on the context's own features, with `x·W`
    /// taken as a sparse product over `x`'s non-zeros (its backward is
    /// `spmm_t` rather than a dense `matmul_tn`). Bitwise equal to
    /// `forward(.., ctx.x_var(tape))` for finite `W`; a non-finite
    /// weight reaches only the rows whose matching feature is non-zero,
    /// which is why the trainer's non-finite gradient check and the
    /// checkpoint load reject one before it gets here.
    pub fn forward_features(&self, tape: &Tape, bind: &Binding, ctx: &GraphCtx) -> Var {
        let (x_csr, x_vals) = ctx.x_sparse_var(tape);
        let (csr, vals) = ctx.adj_var(tape, &ctx.gcn);
        let xw = tape.spmm(x_csr, x_vals, bind.var(self.w));
        self.aggregate(tape, bind, csr, vals, xw)
    }

    /// `act(A · hw + b)`.
    fn aggregate(
        &self,
        tape: &Tape,
        bind: &Binding,
        csr: Rc<mg_tensor::Csr>,
        adj_values: Var,
        hw: Var,
    ) -> Var {
        if self.act == Activation::Relu {
            return tape.spmm_bias_relu(csr, adj_values, hw, bind.var(self.b));
        }
        let agg = tape.spmm(csr, adj_values, hw);
        let z = tape.add_bias(agg, bind.var(self.b));
        apply_act(tape, z, self.act)
    }
}

/// GraphSAGE layer with mean aggregation:
/// `H' = act([H ‖ mean_neigh(H)] W + b)`.
pub struct SageLayer {
    w: ParamId,
    b: ParamId,
    act: Activation,
}

impl SageLayer {
    /// Create with Glorot-initialised weights (input is `2 * in_dim` wide
    /// after concatenation).
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        act: Activation,
        rng: &mut StdRng,
    ) -> Self {
        SageLayer {
            w: store.add(
                format!("{name}.w"),
                Matrix::glorot(2 * in_dim, out_dim, rng),
            ),
            b: store.add(format!("{name}.b"), Matrix::zeros(1, out_dim)),
            act,
        }
    }

    /// Forward on a graph context.
    pub fn forward(&self, tape: &Tape, bind: &Binding, ctx: &GraphCtx, h: Var) -> Var {
        let (csr, vals) = ctx.adj_var(tape, &ctx.nmean);
        let neigh = tape.spmm(csr, vals, h);
        let cat = tape.concat_cols(&[h, neigh]);
        let z = tape.add_bias(tape.matmul(cat, bind.var(self.w)), bind.var(self.b));
        apply_act(tape, z, self.act)
    }

    /// [`SageLayer::forward`] on the context's own features, densified:
    /// the layer aggregates `x` before it applies `W`, so there is no
    /// `x·W` to take as a sparse product without reordering its sums.
    pub fn forward_features(&self, tape: &Tape, bind: &Binding, ctx: &GraphCtx) -> Var {
        self.forward(tape, bind, ctx, ctx.x_var(tape))
    }
}

/// Graph Attention layer, single head (Velickovic et al. 2018):
/// `e_ij = LeakyReLU(aᵀ [W h_i ‖ W h_j])`, `α = softmax_j(e_ij)`,
/// `h'_i = act(Σ_j α_ij W h_j)`.
pub struct GatLayer {
    w: ParamId,
    /// Attention vector split into source and destination halves so the
    /// per-edge score is a sum of two per-node projections.
    a_src: ParamId,
    a_dst: ParamId,
    b: ParamId,
    act: Activation,
    slope: f64,
}

impl GatLayer {
    /// Create with Glorot-initialised weights.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        act: Activation,
        rng: &mut StdRng,
    ) -> Self {
        GatLayer {
            w: store.add(format!("{name}.w"), Matrix::glorot(in_dim, out_dim, rng)),
            a_src: store.add(format!("{name}.a_src"), Matrix::glorot(out_dim, 1, rng)),
            a_dst: store.add(format!("{name}.a_dst"), Matrix::glorot(out_dim, 1, rng)),
            b: store.add(format!("{name}.b"), Matrix::zeros(1, out_dim)),
            act,
            slope: 0.2,
        }
    }

    /// Forward on a graph context (edges include self loops).
    pub fn forward(&self, tape: &Tape, bind: &Binding, ctx: &GraphCtx, h: Var) -> Var {
        self.attend(tape, bind, ctx, tape.matmul(h, bind.var(self.w)))
    }

    /// [`GatLayer::forward`] on the context's own features, with `x·W` a
    /// sparse product over `x`'s non-zeros, bitwise equal for finite `W`
    /// (see [`GcnLayer::forward_features`]).
    pub fn forward_features(&self, tape: &Tape, bind: &Binding, ctx: &GraphCtx) -> Var {
        let (x_csr, x_vals) = ctx.x_sparse_var(tape);
        self.attend(tape, bind, ctx, tape.spmm(x_csr, x_vals, bind.var(self.w)))
    }

    /// Attention and aggregation over the projected features `hw = h·W`.
    fn attend(&self, tape: &Tape, bind: &Binding, ctx: &GraphCtx, hw: Var) -> Var {
        let n = ctx.n();
        // per-node halves of the attention logit
        let s_src = tape.matmul(hw, bind.var(self.a_src)); // n x 1
        let s_dst = tape.matmul(hw, bind.var(self.a_dst)); // n x 1
        let e_src = tape.gather_rows(s_src, ctx.edge_src.clone());
        let e_dst = tape.gather_rows(s_dst, ctx.edge_dst.clone());
        let e = tape.leaky_relu(tape.add(e_src, e_dst), self.slope);
        let alpha = tape.segment_softmax(e, ctx.edge_dst.clone(), n);
        // message = alpha_ij * (W h_src)
        let msg_src = tape.gather_rows(hw, ctx.edge_src.clone());
        let weighted = tape.mul_col(msg_src, alpha);
        let agg = tape.segment_sum(weighted, ctx.edge_dst.clone(), n);
        let z = tape.add_bias(agg, bind.var(self.b));
        apply_act(tape, z, self.act)
    }
}

/// Graph Isomorphism Network layer (Xu et al. 2019):
/// `H' = MLP((1 + ε) H + Σ_neigh H)` with fixed `ε = 0`.
pub struct GinLayer {
    mlp: Mlp,
}

impl GinLayer {
    /// Create with a two-layer MLP, hidden width = `out_dim`.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        rng: &mut StdRng,
    ) -> Self {
        GinLayer {
            mlp: Mlp::new(
                store,
                &format!("{name}.mlp"),
                &[in_dim, out_dim, out_dim],
                rng,
            ),
        }
    }

    /// Forward on a graph context.
    pub fn forward(&self, tape: &Tape, bind: &Binding, ctx: &GraphCtx, h: Var) -> Var {
        let (csr, vals) = ctx.adj_var(tape, &ctx.unit);
        let neigh_sum = tape.spmm(csr, vals, h);
        let combined = tape.add(h, neigh_sum); // (1 + eps) h with eps = 0
        self.mlp.forward(tape, bind, combined)
    }
}

/// Multi-layer perceptron with ReLU between layers (none after the last).
pub struct Mlp {
    ws: Vec<ParamId>,
    bs: Vec<ParamId>,
}

impl Mlp {
    /// `dims = [in, hidden..., out]`; requires at least one linear layer.
    pub fn new(store: &mut ParamStore, name: &str, dims: &[usize], rng: &mut StdRng) -> Self {
        assert!(dims.len() >= 2, "Mlp needs at least [in, out]");
        let mut ws = Vec::new();
        let mut bs = Vec::new();
        for (l, w) in dims.windows(2).enumerate() {
            ws.push(store.add(format!("{name}.w{l}"), Matrix::glorot(w[0], w[1], rng)));
            bs.push(store.add(format!("{name}.b{l}"), Matrix::zeros(1, w[1])));
        }
        Mlp { ws, bs }
    }

    /// Apply to any `n x in` matrix.
    pub fn forward(&self, tape: &Tape, bind: &Binding, mut h: Var) -> Var {
        let last = self.ws.len() - 1;
        for (l, (&w, &b)) in self.ws.iter().zip(&self.bs).enumerate() {
            h = tape.add_bias(tape.matmul(h, bind.var(w)), bind.var(b));
            if l < last {
                h = tape.relu(h);
            }
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mg_graph::Topology;
    use mg_tensor::AdamConfig;
    use rand::SeedableRng;

    fn ctx() -> GraphCtx {
        let g = Topology::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]);
        GraphCtx::new(g, Matrix::eye(5))
    }

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0)
    }

    #[test]
    fn gcn_layer_shapes() {
        let mut store = ParamStore::new();
        let layer = GcnLayer::new(&mut store, "gcn", 5, 3, Activation::Relu, &mut rng());
        let ctx = ctx();
        let tape = Tape::new();
        let bind = store.bind(&tape);
        let x = ctx.x_var(&tape);
        let out = layer.forward(&tape, &bind, &ctx, x);
        assert_eq!(tape.shape(out), (5, 3));
        assert!(
            tape.value(out).data().iter().all(|&v| v >= 0.0),
            "relu output"
        );
    }

    /// A ring whose 6 x 7 features are 40% zeros of mixed sign.
    fn sparse_feature_ctx() -> GraphCtx {
        let g = Topology::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)]);
        let x = Matrix::from_fn(6, 7, |i, j| match (i * 7 + j * 3) % 5 {
            0 | 1 => -0.5 * (i as f64 + 1.0),
            2 => 0.25 * j as f64,
            _ => 0.0,
        });
        GraphCtx::new(g, x)
    }

    /// The sparse first-layer product is bitwise the dense one, in value
    /// and in every parameter gradient.
    #[test]
    fn gcn_forward_features_matches_dense_input_bitwise() {
        let ctx = sparse_feature_ctx();
        let mut store = ParamStore::new();
        let layer = GcnLayer::new(&mut store, "gcn", 7, 4, Activation::Relu, &mut rng());
        let run = |sparse: bool| {
            let tape = Tape::new();
            let bind = store.bind(&tape);
            let out = if sparse {
                layer.forward_features(&tape, &bind, &ctx)
            } else {
                layer.forward(&tape, &bind, &ctx, ctx.x_var(&tape))
            };
            let value = tape.value_cloned(out);
            let grads = tape.backward(tape.sum_all(tape.mul_elem(out, out)));
            let gw = grads.get(bind.var(layer.w)).unwrap().clone();
            let gb = grads.get(bind.var(layer.b)).unwrap().clone();
            (value, gw, gb, tape.len())
        };
        let bits = |m: &Matrix| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let (dense, sparse) = (run(false), run(true));
        assert_eq!(bits(&sparse.0), bits(&dense.0), "value");
        assert_eq!(bits(&sparse.1), bits(&dense.1), "dW");
        assert_eq!(bits(&sparse.2), bits(&dense.2), "db");
        assert_eq!(sparse.3, dense.3, "tape op count");
    }

    /// The same for the GAT layer, whose projection `x·W` feeds both the
    /// attention scores and the messages.
    #[test]
    fn gat_forward_features_matches_dense_input_bitwise() {
        let ctx = sparse_feature_ctx();
        let mut store = ParamStore::new();
        let layer = GatLayer::new(&mut store, "gat", 7, 4, Activation::Relu, &mut rng());
        let bits = |m: &Matrix| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let run = |sparse: bool| {
            let tape = Tape::new();
            let bind = store.bind(&tape);
            let out = if sparse {
                layer.forward_features(&tape, &bind, &ctx)
            } else {
                layer.forward(&tape, &bind, &ctx, ctx.x_var(&tape))
            };
            let value = bits(&tape.value(out));
            let grads = tape.backward(tape.sum_all(tape.mul_elem(out, out)));
            let grads: Vec<_> = store
                .param_ids()
                .into_iter()
                .map(|id| bits(grads.get(bind.var(id)).expect("every parameter reached")))
                .collect();
            (value, grads)
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn sage_layer_shapes() {
        let mut store = ParamStore::new();
        let layer = SageLayer::new(&mut store, "sage", 5, 4, Activation::None, &mut rng());
        let ctx = ctx();
        let tape = Tape::new();
        let bind = store.bind(&tape);
        let x = ctx.x_var(&tape);
        let out = layer.forward(&tape, &bind, &ctx, x);
        assert_eq!(tape.shape(out), (5, 4));
    }

    #[test]
    fn gat_layer_shapes_and_finite() {
        let mut store = ParamStore::new();
        let layer = GatLayer::new(&mut store, "gat", 5, 4, Activation::None, &mut rng());
        let ctx = ctx();
        let tape = Tape::new();
        let bind = store.bind(&tape);
        let x = ctx.x_var(&tape);
        let out = layer.forward(&tape, &bind, &ctx, x);
        assert_eq!(tape.shape(out), (5, 4));
        assert!(tape.value(out).all_finite());
    }

    #[test]
    fn gin_layer_shapes() {
        let mut store = ParamStore::new();
        let layer = GinLayer::new(&mut store, "gin", 5, 4, &mut rng());
        let ctx = ctx();
        let tape = Tape::new();
        let bind = store.bind(&tape);
        let x = ctx.x_var(&tape);
        let out = layer.forward(&tape, &bind, &ctx, x);
        assert_eq!(tape.shape(out), (5, 4));
    }

    #[test]
    fn mlp_identity_dims() {
        let mut store = ParamStore::new();
        let mlp = Mlp::new(&mut store, "m", &[3, 8, 2], &mut rng());
        let tape = Tape::new();
        let bind = store.bind(&tape);
        let x = tape.constant(Matrix::eye(3));
        let out = mlp.forward(&tape, &bind, x);
        assert_eq!(tape.shape(out), (3, 2));
    }

    /// End-to-end: a single GCN layer can overfit a 2-class labelling of a
    /// tiny graph.
    #[test]
    fn gcn_layer_learns() {
        let mut store = ParamStore::new();
        let mut r = rng();
        let layer = GcnLayer::new(&mut store, "gcn", 5, 2, Activation::None, &mut r);
        let ctx = ctx();
        let targets = std::rc::Rc::new(vec![0usize, 0, 1, 1, 0]);
        let nodes = std::rc::Rc::new(vec![0usize, 1, 2, 3, 4]);
        let cfg = AdamConfig::with_lr(0.1);
        let mut last = f64::INFINITY;
        for _ in 0..100 {
            let tape = Tape::new();
            let bind = store.bind(&tape);
            let x = ctx.x_var(&tape);
            let logits = layer.forward(&tape, &bind, &ctx, x);
            let loss = tape.cross_entropy(logits, targets.clone(), nodes.clone());
            last = tape.value(loss).scalar();
            let mut grads = tape.backward(loss);
            store.step(&mut grads, &bind, &cfg);
        }
        assert!(last < 0.3, "final loss = {last}");
    }
}
