//! Node-task baseline models (Table 2): GCN, GraphSAGE, GAT, GIN.
//!
//! Each is a two-layer encoder with dropout between layers; the output
//! width is the task head — number of classes for node classification,
//! embedding width for link prediction (decoded with inner products).

use crate::ctx::GraphCtx;
use crate::layers::{Activation, GatLayer, GcnLayer, GinLayer, SageLayer};
use mg_tensor::{Binding, ParamStore, Tape, Var};
use rand::rngs::StdRng;

/// A model that turns a graph + features into node representations.
pub trait NodeEncoder {
    /// Produce `n x out_dim` node representations.
    ///
    /// `train` enables dropout; `rng` draws the dropout masks.
    fn encode(
        &self,
        tape: &Tape,
        bind: &Binding,
        ctx: &GraphCtx,
        train: bool,
        rng: &mut StdRng,
    ) -> Var;

    /// Display name for result tables.
    fn name(&self) -> &'static str;
}

/// Dropout probability used between the two layers of every baseline.
const DROPOUT: f64 = 0.5;

macro_rules! two_layer_encoder {
    ($(#[$doc:meta])* $model:ident, $layer:ty, $disp:expr, |$store:ident, $name:ident, $in:ident, $out:ident, $act:ident, $rng:ident| $mk:expr) => {
        $(#[$doc])*
        pub struct $model {
            l1: $layer,
            l2: $layer,
            dropout: f64,
        }

        impl $model {
            /// Two-layer encoder: `in_dim -> hidden -> out_dim`.
            pub fn new(
                store: &mut ParamStore,
                in_dim: usize,
                hidden: usize,
                out_dim: usize,
                rng: &mut StdRng,
            ) -> Self {
                let l1 = {
                    let ($store, $name, $in, $out, $act, $rng) =
                        (&mut *store, concat!($disp, ".l1"), in_dim, hidden, Activation::Relu, &mut *rng);
                    $mk
                };
                let l2 = {
                    let ($store, $name, $in, $out, $act, $rng) =
                        (&mut *store, concat!($disp, ".l2"), hidden, out_dim, Activation::None, &mut *rng);
                    $mk
                };
                $model { l1, l2, dropout: DROPOUT }
            }
        }

        impl NodeEncoder for $model {
            fn encode(
                &self,
                tape: &Tape,
                bind: &Binding,
                ctx: &GraphCtx,
                train: bool,
                rng: &mut StdRng,
            ) -> Var {
                let mut h = self.l1.forward_features(tape, bind, ctx);
                if train {
                    h = tape.dropout(h, self.dropout, rng);
                }
                self.l2.forward(tape, bind, ctx, h)
            }

            fn name(&self) -> &'static str {
                $disp
            }
        }
    };
}

two_layer_encoder!(
    /// Two-layer GCN (Kipf & Welling 2017).
    GcnNet,
    GcnLayer,
    "GCN",
    |store, name, in_dim, out_dim, act, rng| GcnLayer::new(store, name, in_dim, out_dim, act, rng)
);

two_layer_encoder!(
    /// Two-layer GraphSAGE with mean aggregation.
    SageNet,
    SageLayer,
    "GraphSAGE",
    |store, name, in_dim, out_dim, act, rng| SageLayer::new(store, name, in_dim, out_dim, act, rng)
);

two_layer_encoder!(
    /// Two-layer single-head GAT.
    GatNet,
    GatLayer,
    "GAT",
    |store, name, in_dim, out_dim, act, rng| GatLayer::new(store, name, in_dim, out_dim, act, rng)
);

/// Two-layer GIN with a linear head.
///
/// Each GIN layer runs at `hidden` width internally; a narrow task head
/// would otherwise bottleneck the layer's own MLP (with `out_dim = 2`
/// and ReLU in between, the whole network can initialise dead).
pub struct GinNet {
    l1: GinLayer,
    l2: GinLayer,
    head: crate::layers::Mlp,
    dropout: f64,
}

impl GinNet {
    /// Two-layer encoder: `in_dim -> hidden -> hidden -> out_dim`.
    pub fn new(
        store: &mut ParamStore,
        in_dim: usize,
        hidden: usize,
        out_dim: usize,
        rng: &mut StdRng,
    ) -> Self {
        GinNet {
            l1: GinLayer::new(store, "GIN.l1", in_dim, hidden, rng),
            l2: GinLayer::new(store, "GIN.l2", hidden, hidden, rng),
            head: crate::layers::Mlp::new(store, "GIN.head", &[hidden, out_dim], rng),
            dropout: DROPOUT,
        }
    }
}

impl NodeEncoder for GinNet {
    fn encode(
        &self,
        tape: &Tape,
        bind: &Binding,
        ctx: &GraphCtx,
        train: bool,
        rng: &mut StdRng,
    ) -> Var {
        let x = ctx.x_var(tape);
        let mut h = self.l1.forward(tape, bind, ctx, x);
        h = tape.relu(h);
        if train {
            h = tape.dropout(h, self.dropout, rng);
        }
        h = self.l2.forward(tape, bind, ctx, h);
        h = tape.relu(h);
        self.head.forward(tape, bind, h)
    }

    fn name(&self) -> &'static str {
        "GIN"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mg_graph::Topology;
    use mg_tensor::{AdamConfig, Matrix};
    use rand::SeedableRng;

    fn ctx() -> GraphCtx {
        // two triangles joined by a bridge: clear 2-community structure
        let g = Topology::from_edges(6, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)]);
        GraphCtx::new(g, Matrix::eye(6))
    }

    fn train_encoder(enc: &dyn NodeEncoder, store: &mut ParamStore) -> f64 {
        let ctx = ctx();
        let targets = std::rc::Rc::new(vec![0usize, 0, 0, 1, 1, 1]);
        let nodes = std::rc::Rc::new((0..6).collect::<Vec<_>>());
        let cfg = AdamConfig::with_lr(0.05);
        let mut rng = StdRng::seed_from_u64(1);
        let mut last = f64::INFINITY;
        for _ in 0..400 {
            let tape = Tape::new();
            let bind = store.bind(&tape);
            let logits = enc.encode(&tape, &bind, &ctx, false, &mut rng);
            let loss = tape.cross_entropy(logits, targets.clone(), nodes.clone());
            last = tape.value(loss).scalar();
            let mut grads = tape.backward(loss);
            store.step(&mut grads, &bind, &cfg);
        }
        last
    }

    #[test]
    fn gcn_net_learns_communities() {
        let mut store = ParamStore::new();
        // seed 1: seed 0's first 48 draws from the vendored PRNG are
        // negative-heavy, giving a dead-ReLU init that cannot train
        let enc = GcnNet::new(&mut store, 6, 8, 2, &mut StdRng::seed_from_u64(1));
        {
            let l = train_encoder(&enc, &mut store);
            assert!(l < 0.2, "final loss = {l}");
        }
    }

    #[test]
    fn sage_net_learns_communities() {
        let mut store = ParamStore::new();
        let enc = SageNet::new(&mut store, 6, 8, 2, &mut StdRng::seed_from_u64(0));
        {
            let l = train_encoder(&enc, &mut store);
            assert!(l < 0.2, "final loss = {l}");
        }
    }

    #[test]
    fn gat_net_learns_communities() {
        let mut store = ParamStore::new();
        let enc = GatNet::new(&mut store, 6, 8, 2, &mut StdRng::seed_from_u64(0));
        {
            let l = train_encoder(&enc, &mut store);
            assert!(l < 0.2, "final loss = {l}");
        }
    }

    #[test]
    fn gin_net_learns_communities() {
        let mut store = ParamStore::new();
        let enc = GinNet::new(&mut store, 6, 8, 2, &mut StdRng::seed_from_u64(1));
        {
            let l = train_encoder(&enc, &mut store);
            assert!(l < 0.2, "final loss = {l}");
        }
    }

    #[test]
    fn dropout_changes_training_output_only() {
        let mut store = ParamStore::new();
        let enc = GcnNet::new(&mut store, 6, 8, 2, &mut StdRng::seed_from_u64(1));
        let ctx = ctx();
        let eval = |train: bool, seed: u64| {
            let tape = Tape::new();
            let bind = store.bind(&tape);
            let mut rng = StdRng::seed_from_u64(seed);
            let out = enc.encode(&tape, &bind, &ctx, train, &mut rng);
            tape.value_cloned(out)
        };
        // eval mode is deterministic regardless of rng seed
        assert_eq!(eval(false, 1), eval(false, 2));
        // train mode differs from eval mode (dropout active)
        assert_ne!(eval(true, 1), eval(false, 1));
    }
}
