//! Model registry: build any evaluated model by name, for both task
//! families. Keeps the bench binaries declarative.

use crate::node_tasks::TrainConfig;
use adamgnn_core::{AdamGnnConfig, AdamGnnGc, AdamGnnNode, AdamGnnOutput, FrozenStructure};
use mg_nn::{
    DenseFlavor, DensePoolGc, GatNet, GcnNet, GinGc, GinNet, GraphClassifier, GraphCtx, GraphUNet,
    NodeEncoder, SageNet, SortPoolGc, ThreeWlGc, TopKFlavor, TopKGc,
};
use mg_tensor::{Binding, ParamStore, Tape, Var};
use rand::rngs::StdRng;

/// The node-task models of Table 2.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NodeModelKind {
    Gcn,
    GraphSage,
    Gat,
    Gin,
    TopKPool,
    AdamGnn,
}

impl NodeModelKind {
    /// All six, in Table 2 row order.
    pub fn all() -> [NodeModelKind; 6] {
        use NodeModelKind::*;
        [Gcn, GraphSage, Gat, Gin, TopKPool, AdamGnn]
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            NodeModelKind::Gcn => "GCN",
            NodeModelKind::GraphSage => "GraphSAGE",
            NodeModelKind::Gat => "GAT",
            NodeModelKind::Gin => "GIN",
            NodeModelKind::TopKPool => "TOPKPOOL",
            NodeModelKind::AdamGnn => "AdamGNN",
        }
    }

    /// Inverse of [`NodeModelKind::name`], used to rebuild a model from
    /// a checkpoint's recorded identity.
    pub fn from_name(name: &str) -> Option<NodeModelKind> {
        NodeModelKind::all().into_iter().find(|k| k.name() == name)
    }

    /// Instantiate with parameters registered in `store`.
    pub fn build(
        &self,
        store: &mut ParamStore,
        in_dim: usize,
        hidden: usize,
        out_dim: usize,
        cfg: &TrainConfig,
        rng: &mut StdRng,
    ) -> AnyNodeModel {
        let levels = cfg.levels;
        match self {
            NodeModelKind::Gcn => {
                AnyNodeModel::Plain(Box::new(GcnNet::new(store, in_dim, hidden, out_dim, rng)))
            }
            NodeModelKind::GraphSage => {
                AnyNodeModel::Plain(Box::new(SageNet::new(store, in_dim, hidden, out_dim, rng)))
            }
            NodeModelKind::Gat => {
                AnyNodeModel::Plain(Box::new(GatNet::new(store, in_dim, hidden, out_dim, rng)))
            }
            NodeModelKind::Gin => {
                AnyNodeModel::Plain(Box::new(GinNet::new(store, in_dim, hidden, out_dim, rng)))
            }
            NodeModelKind::TopKPool => AnyNodeModel::Plain(Box::new(GraphUNet::new(
                store, in_dim, hidden, out_dim, 0.5, rng,
            ))),
            NodeModelKind::AdamGnn => {
                let mut mcfg = AdamGnnConfig::new(in_dim, hidden, levels);
                mcfg.flyback = cfg.flyback;
                mcfg.pooling = cfg.pooling;
                AnyNodeModel::Adam(Box::new(AdamGnnNode::new(store, mcfg, out_dim, rng)))
            }
        }
    }
}

/// A constructed node-task model; AdamGNN is special-cased because its
/// composite loss needs the forward internals.
pub enum AnyNodeModel {
    Plain(Box<dyn NodeEncoder>),
    Adam(Box<AdamGnnNode>),
}

impl AnyNodeModel {
    /// Forward: task output plus AdamGNN internals when applicable.
    pub fn forward(
        &self,
        tape: &Tape,
        bind: &Binding,
        ctx: &GraphCtx,
        train: bool,
        rng: &mut StdRng,
    ) -> (Var, Option<AdamGnnOutput>) {
        match self {
            AnyNodeModel::Plain(m) => (m.encode(tape, bind, ctx, train, rng), None),
            AnyNodeModel::Adam(m) => {
                let (out, internals) = m.forward_full(tape, bind, ctx, train, rng);
                (out, Some(internals))
            }
        }
    }

    /// Record the pooling structure an eval-mode forward would build on
    /// `ctx`, for pinning into a checkpoint. Flat baselines have no
    /// structure. The recording pass draws nothing from the training RNG
    /// stream (eval-mode AdamGNN forwards are deterministic), so calling
    /// this is a pure observation.
    pub fn record_structure(&self, store: &ParamStore, ctx: &GraphCtx) -> Option<FrozenStructure> {
        match self {
            AnyNodeModel::Plain(_) => None,
            AnyNodeModel::Adam(m) => {
                let tape = Tape::new();
                let bind = store.bind_frozen(&tape);
                let (_, _, frozen) = m.forward_full_recorded(&tape, &bind, ctx);
                Some(frozen)
            }
        }
    }

    /// Forward that replays a pinned pooling structure instead of
    /// re-deriving one. Falls back to a plain eval forward for flat
    /// baselines (which have no structure to replay).
    pub fn forward_frozen(
        &self,
        tape: &Tape,
        bind: &Binding,
        ctx: &GraphCtx,
        structure: Option<&FrozenStructure>,
        rng: &mut StdRng,
    ) -> Var {
        match (self, structure) {
            (AnyNodeModel::Adam(m), Some(frozen)) => {
                let (out, _) = m.forward_full_frozen(tape, bind, ctx, frozen);
                out
            }
            _ => self.forward(tape, bind, ctx, false, rng).0,
        }
    }
}

/// The graph-classification models of Table 1.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GraphModelKind {
    Gin,
    ThreeWl,
    SortPool,
    DiffPool,
    TopKPool,
    SagPool,
    StructPool,
    AdamGnn,
}

impl GraphModelKind {
    /// All eight, in Table 1 row order.
    pub fn all() -> [GraphModelKind; 8] {
        use GraphModelKind::*;
        [
            Gin, ThreeWl, SortPool, DiffPool, TopKPool, SagPool, StructPool, AdamGnn,
        ]
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            GraphModelKind::Gin => "GIN",
            GraphModelKind::ThreeWl => "3WL-GNN",
            GraphModelKind::SortPool => "SORTPOOL",
            GraphModelKind::DiffPool => "DIFFPOOL",
            GraphModelKind::TopKPool => "TOPKPOOL",
            GraphModelKind::SagPool => "SAGPOOL",
            GraphModelKind::StructPool => "STRUCTPOOL",
            GraphModelKind::AdamGnn => "AdamGNN",
        }
    }

    /// Inverse of [`GraphModelKind::name`], used to rebuild a model from
    /// a checkpoint's recorded identity.
    pub fn from_name(name: &str) -> Option<GraphModelKind> {
        GraphModelKind::all().into_iter().find(|k| k.name() == name)
    }

    /// Instantiate with parameters registered in `store`.
    pub fn build(
        &self,
        store: &mut ParamStore,
        in_dim: usize,
        hidden: usize,
        classes: usize,
        cfg: &TrainConfig,
        rng: &mut StdRng,
    ) -> Box<dyn GraphClassifier> {
        let levels = cfg.levels;
        match self {
            GraphModelKind::Gin => Box::new(GinGc::new(store, in_dim, hidden, classes, rng)),
            GraphModelKind::ThreeWl => {
                // PPGN blocks are dense n x n per channel; a narrow channel
                // budget keeps the baseline tractable, as in the original.
                Box::new(ThreeWlGc::new(
                    store,
                    in_dim,
                    (hidden / 4).max(4),
                    classes,
                    rng,
                ))
            }
            GraphModelKind::SortPool => {
                Box::new(SortPoolGc::new(store, in_dim, hidden, classes, 10, rng))
            }
            GraphModelKind::DiffPool => Box::new(DensePoolGc::new(
                store,
                DenseFlavor::DiffPool,
                in_dim,
                hidden,
                classes,
                10,
                rng,
            )),
            GraphModelKind::TopKPool => Box::new(TopKGc::new(
                store,
                TopKFlavor::TopK,
                in_dim,
                hidden,
                classes,
                levels,
                0.5,
                rng,
            )),
            GraphModelKind::SagPool => Box::new(TopKGc::new(
                store,
                TopKFlavor::SagPool,
                in_dim,
                hidden,
                classes,
                levels,
                0.5,
                rng,
            )),
            GraphModelKind::StructPool => Box::new(DensePoolGc::new(
                store,
                DenseFlavor::StructPool,
                in_dim,
                hidden,
                classes,
                10,
                rng,
            )),
            GraphModelKind::AdamGnn => {
                let mut mcfg = AdamGnnConfig::new(in_dim, hidden, levels);
                mcfg.dropout = 0.2;
                mcfg.flyback = cfg.flyback;
                mcfg.pooling = cfg.pooling;
                Box::new(AdamGnnGc::with_weights(
                    store,
                    mcfg,
                    classes,
                    cfg.weights,
                    rng,
                ))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mg_nn::testkit::seeds;

    #[test]
    fn every_node_model_builds_and_runs() {
        let (ctx, _) = mg_nn::testkit::two_community_ctx();
        let cfg = TrainConfig {
            levels: 2,
            ..Default::default()
        };
        for kind in NodeModelKind::all() {
            let mut store = ParamStore::new();
            let model = kind.build(&mut store, 8, 8, 2, &cfg, &mut seeds::model_init());
            let tape = Tape::new();
            let bind = store.bind(&tape);
            let (out, _) = model.forward(&tape, &bind, &ctx, false, &mut seeds::forward_rng());
            assert_eq!(tape.shape(out), (8, 2), "{}", kind.name());
        }
    }

    #[test]
    fn every_graph_model_builds_and_runs() {
        let samples = mg_nn::testkit::ring_vs_star_samples();
        let (ctx, _) = &samples[0];
        let cfg = TrainConfig {
            levels: 2,
            ..Default::default()
        };
        for kind in GraphModelKind::all() {
            let mut store = ParamStore::new();
            let model = kind.build(&mut store, 3, 8, 2, &cfg, &mut seeds::model_init());
            let tape = Tape::new();
            let bind = store.bind(&tape);
            let out = model.forward(&tape, &bind, ctx, false, &mut seeds::forward_rng());
            assert_eq!(tape.shape(out.logits), (1, 2), "{}", kind.name());
            assert!(tape.value(out.logits).all_finite(), "{}", kind.name());
        }
    }
}
