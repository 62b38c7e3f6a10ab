//! Graph U-Net node encoder (TOPKPOOL for node-wise tasks, Gao & Ji 2019).
//!
//! Encoder path: GCN → top-k pool → GCN on the pooled graph; decoder path:
//! unpool (scatter pooled rows back to their original positions, zeros
//! elsewhere) → skip connection → GCN. This is the only pooling baseline
//! in the paper that supports node-level tasks, because it has an
//! unpooling operator.

use crate::ctx::GraphCtx;
use crate::encoders::NodeEncoder;
use crate::layers::{Activation, GcnLayer};
use crate::pool::hierarchy::top_ratio_indices;
use mg_graph::gcn_norm;
use mg_tensor::{Binding, Csr, Matrix, ParamId, ParamStore, Tape, Var};
use rand::rngs::StdRng;
use std::rc::Rc;

/// Graph U-Net with one pooling level.
pub struct GraphUNet {
    enc: GcnLayer,
    bottom: GcnLayer,
    dec: GcnLayer,
    proj: ParamId,
    ratio: f64,
    dropout: f64,
}

impl GraphUNet {
    /// `in_dim -> hidden -> hidden -> out_dim` with a pool/unpool pair.
    pub fn new(
        store: &mut ParamStore,
        in_dim: usize,
        hidden: usize,
        out_dim: usize,
        ratio: f64,
        rng: &mut StdRng,
    ) -> Self {
        GraphUNet {
            enc: GcnLayer::new(store, "UNET.enc", in_dim, hidden, Activation::Relu, rng),
            bottom: GcnLayer::new(store, "UNET.bottom", hidden, hidden, Activation::Relu, rng),
            dec: GcnLayer::new(store, "UNET.dec", hidden, out_dim, Activation::None, rng),
            proj: store.add("UNET.proj", Matrix::glorot(hidden, 1, rng)),
            ratio,
            dropout: 0.5,
        }
    }
}

impl NodeEncoder for GraphUNet {
    fn encode(
        &self,
        tape: &Tape,
        bind: &Binding,
        ctx: &GraphCtx,
        train: bool,
        rng: &mut StdRng,
    ) -> Var {
        let n = ctx.n();
        let mut h1 = self.enc.forward_features(tape, bind, ctx); // n x hidden
        if train {
            h1 = tape.dropout(h1, self.dropout, rng);
        }
        // top-k pooling on a learnable projection score
        let score = tape.matmul(h1, bind.var(self.proj)); // n x 1
        let keep = top_ratio_indices(&tape.value(score), self.ratio);
        let keep_rc = Rc::new(keep.clone());
        let gate = tape.tanh(tape.gather_rows(score, keep_rc.clone()));
        let h_kept = tape.mul_col(tape.gather_rows(h1, keep_rc), gate);
        // coarse-level convolution on the induced subgraph
        let (sub, _) = ctx.graph.induced_subgraph(&keep);
        let sub_adj = gcn_norm(&sub);
        let vals = tape.constant(Matrix::from_vec(
            1,
            sub_adj.values.len(),
            sub_adj.values.clone(),
        ));
        let h2 = self
            .bottom
            .forward_adj(tape, bind, sub_adj.csr.clone(), vals, h_kept);
        // unpool: scatter rows back to their original indices
        let entries: Vec<(u32, u32)> = keep
            .iter()
            .enumerate()
            .map(|(i, &node)| (node as u32, i as u32))
            .collect();
        let scatter = Rc::new(Csr::from_coo(n, keep.len(), &entries));
        let ones = tape.constant(Matrix::full(1, keep.len(), 1.0));
        let restored = tape.spmm(scatter, ones, h2); // n x hidden, zeros elsewhere
                                                     // skip connection then decode on the original graph
        let merged = tape.add(h1, restored);
        self.dec.forward(tape, bind, ctx, merged)
    }

    fn name(&self) -> &'static str {
        "TOPKPOOL"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::two_community_ctx;
    use mg_tensor::AdamConfig;
    use rand::SeedableRng;

    #[test]
    fn unet_output_shape() {
        let (ctx, _) = two_community_ctx();
        let mut store = ParamStore::new();
        let model = GraphUNet::new(&mut store, 8, 16, 2, 0.5, &mut StdRng::seed_from_u64(0));
        let tape = Tape::new();
        let bind = store.bind(&tape);
        let out = model.encode(&tape, &bind, &ctx, false, &mut StdRng::seed_from_u64(1));
        assert_eq!(tape.shape(out), (8, 2));
        assert!(tape.value(out).all_finite());
    }

    #[test]
    fn unet_learns_node_classification() {
        let (ctx, labels) = two_community_ctx();
        let mut store = ParamStore::new();
        let model = GraphUNet::new(&mut store, 8, 16, 2, 0.5, &mut StdRng::seed_from_u64(0));
        let targets = Rc::new(labels);
        let nodes = Rc::new((0..8).collect::<Vec<_>>());
        let cfg = AdamConfig::with_lr(0.05);
        let mut rng = StdRng::seed_from_u64(1);
        let mut last = f64::INFINITY;
        for _ in 0..300 {
            let tape = Tape::new();
            let bind = store.bind(&tape);
            let logits = model.encode(&tape, &bind, &ctx, false, &mut rng);
            let loss = tape.cross_entropy(logits, targets.clone(), nodes.clone());
            last = tape.value(loss).scalar();
            let mut grads = tape.backward(loss);
            store.step(&mut grads, &bind, &cfg);
        }
        assert!(last < 0.2, "final loss = {last}");
    }

    #[test]
    fn unpool_restores_positions() {
        // structural check of the scatter matrix: rows outside `keep` are 0
        let (ctx, _) = two_community_ctx();
        let mut store = ParamStore::new();
        let model = GraphUNet::new(&mut store, 8, 4, 4, 0.25, &mut StdRng::seed_from_u64(0));
        let tape = Tape::new();
        let bind = store.bind(&tape);
        let out = model.encode(&tape, &bind, &ctx, false, &mut StdRng::seed_from_u64(1));
        // with ratio 0.25 only 2 of 8 nodes carry coarse information; the
        // output must still be defined (skip connection) for all nodes
        assert_eq!(tape.shape(out), (8, 4));
    }
}
