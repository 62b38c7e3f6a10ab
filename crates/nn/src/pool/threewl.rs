//! 3WL-GNN baseline (Maron et al. 2019, "Provably Powerful Graph
//! Networks"), adapted to this engine's 2-D tensors.
//!
//! PPGN operates on `n x n x d` tensors; here the `d` channels are a list
//! of `n x n` matrices. A block mixes channels with two learnable `1 x 1`
//! convolutions (realised as a matmul over flattened channels) and
//! multiplies the two mixed stacks channel-wise — the matrix product that
//! gives the model its 3-WL expressive power. Input channels are the
//! adjacency, the identity, and diagonal embeddings of the first few node
//! features. Readout takes the trace and total sum of every channel.

use crate::ctx::GraphCtx;
use crate::gc::{GcOutput, GraphClassifier};
use crate::layers::Mlp;
use crate::pool::dense::dense_adj;
use mg_tensor::{Binding, Matrix, ParamId, ParamStore, Tape, Var};
use rand::rngs::StdRng;

/// One PPGN block: two channel mixers and a channel-wise matrix product.
struct Block {
    mix_a: ParamId,
    mix_b: ParamId,
    out_channels: usize,
}

impl Block {
    fn new(
        store: &mut ParamStore,
        name: &str,
        in_channels: usize,
        out_channels: usize,
        rng: &mut StdRng,
    ) -> Self {
        Block {
            mix_a: store.add(
                format!("{name}.mix_a"),
                Matrix::glorot(in_channels, out_channels, rng),
            ),
            mix_b: store.add(
                format!("{name}.mix_b"),
                Matrix::glorot(in_channels, out_channels, rng),
            ),
            out_channels,
        }
    }

    /// Apply to a list of `n x n` channels, producing `out_channels` new
    /// channels (plus the skip connection appended by the caller).
    fn forward(&self, tape: &Tape, bind: &Binding, channels: &[Var], n: usize) -> Vec<Var> {
        // flatten channels into an n² x C matrix for cheap 1x1 mixing
        let flats: Vec<Var> = channels
            .iter()
            .map(|&c| tape.reshape(c, n * n, 1))
            .collect();
        let stack = tape.concat_cols(&flats); // n² x C_in
        let mixed_a = tape.matmul(stack, bind.var(self.mix_a)); // n² x C_out
        let mixed_b = tape.matmul(stack, bind.var(self.mix_b));
        let mut out = Vec::with_capacity(self.out_channels);
        for c in 0..self.out_channels {
            let a = tape.reshape(tape.slice_cols(mixed_a, c, c + 1), n, n);
            let b = tape.reshape(tape.slice_cols(mixed_b, c, c + 1), n, n);
            out.push(tape.matmul(a, b));
        }
        out
    }
}

/// 3WL-GNN graph classifier.
pub struct ThreeWlGc {
    block1: Block,
    block2: Block,
    head: Mlp,
    channels: usize,
    /// How many leading node-feature columns become diagonal channels.
    feat_channels: usize,
}

impl ThreeWlGc {
    /// Two PPGN blocks with `channels` hidden channels each.
    pub fn new(
        store: &mut ParamStore,
        in_dim: usize,
        channels: usize,
        classes: usize,
        rng: &mut StdRng,
    ) -> Self {
        let feat_channels = in_dim.min(3);
        let in_channels = 2 + feat_channels; // A, I, diag(features)
        let block1 = Block::new(store, "3WL.b1", in_channels, channels, rng);
        // skip connections double the channel count feeding block 2
        let block2 = Block::new(store, "3WL.b2", channels + in_channels, channels, rng);
        // readout: (trace, sum) per channel of block2 output + skips
        let ro_channels = channels + channels + in_channels;
        let head = Mlp::new(
            store,
            "3WL.head",
            &[2 * ro_channels, channels, classes],
            rng,
        );
        ThreeWlGc {
            block1,
            block2,
            head,
            channels,
            feat_channels,
        }
    }
}

impl GraphClassifier for ThreeWlGc {
    fn forward(
        &self,
        tape: &Tape,
        bind: &Binding,
        ctx: &GraphCtx,
        train: bool,
        rng: &mut StdRng,
    ) -> GcOutput {
        let n = ctx.n();
        let _ = self.channels;
        // input channels
        let mut channels: Vec<Var> =
            vec![tape.constant(dense_adj(ctx)), tape.constant(Matrix::eye(n))];
        // one diagonal channel per leading feature column
        let mut diags = vec![Matrix::zeros(n, n); self.feat_channels];
        let (x_csr, x_vals) = ctx.x_sparse();
        for (i, f, k) in x_csr.iter() {
            if let Some(d) = diags.get_mut(f) {
                d[(i, i)] = x_vals[k];
            }
        }
        channels.extend(diags.into_iter().map(|d| tape.constant(d)));
        let in_channels = channels.clone();
        let mut h = self.block1.forward(tape, bind, &channels, n);
        h.extend_from_slice(&in_channels); // skip
        let mut h2 = self.block2.forward(tape, bind, &h, n);
        h2.extend_from_slice(&h); // skip
                                  // readout: trace + total sum per channel
        let eye = tape.constant(Matrix::eye(n));
        let mut feats: Vec<Var> = Vec::with_capacity(2 * h2.len());
        for &c in &h2 {
            feats.push(tape.sum_all(tape.mul_elem(c, eye)));
            feats.push(tape.sum_all(c));
        }
        let mut rep = tape.concat_cols(&feats); // 1 x 2C
        rep = tape.scale(rep, 1.0 / (n as f64 * n as f64)); // size normalisation
        if train {
            rep = tape.dropout(rep, 0.2, rng);
        }
        GcOutput {
            logits: self.head.forward(tape, bind, rep),
            aux_loss: None,
        }
    }

    fn name(&self) -> &'static str {
        "3WL-GNN"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{ring_vs_star_samples, train_graph_classifier};
    use rand::SeedableRng;

    #[test]
    fn threewl_trains() {
        let mut store = ParamStore::new();
        let model = ThreeWlGc::new(&mut store, 3, 6, 2, &mut StdRng::seed_from_u64(0));
        let loss = train_graph_classifier(&model, &mut store, &ring_vs_star_samples(), 200, 0.02);
        assert!(loss < 0.3, "final loss = {loss}");
    }

    #[test]
    fn threewl_output_shape() {
        let mut store = ParamStore::new();
        let model = ThreeWlGc::new(&mut store, 3, 4, 2, &mut StdRng::seed_from_u64(0));
        let samples = ring_vs_star_samples();
        let tape = Tape::new();
        let bind = store.bind(&tape);
        let out = model.forward(
            &tape,
            &bind,
            &samples[0].0,
            false,
            &mut StdRng::seed_from_u64(1),
        );
        assert_eq!(tape.shape(out.logits), (1, 2));
        assert!(tape.value(out.logits).all_finite());
    }

    /// The defining property: 3WL can separate two triangles from a
    /// 6-cycle (same degree sequence, different triangle counts) without
    /// node features — a pair 1-WL message passing cannot distinguish.
    #[test]
    fn threewl_separates_c3c3_from_c6() {
        use mg_graph::Topology;
        let two_triangles =
            Topology::from_edges(6, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]);
        let hexagon = Topology::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]);
        let feat = Matrix::full(6, 3, 1.0);
        let samples = vec![
            (GraphCtx::new(two_triangles, feat.clone()), 0usize),
            (GraphCtx::new(hexagon, feat), 1usize),
        ];
        let mut store = ParamStore::new();
        let model = ThreeWlGc::new(&mut store, 3, 6, 2, &mut StdRng::seed_from_u64(0));
        let loss = train_graph_classifier(&model, &mut store, &samples, 300, 0.02);
        assert!(loss < 0.1, "3WL must separate C3+C3 from C6; loss = {loss}");
    }
}
