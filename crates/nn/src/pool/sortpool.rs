//! SORTPOOL (DGCNN, Zhang et al. 2018): GCN layers with tanh, nodes sorted
//! by their last feature channel, the top `k` kept (zero-padded when the
//! graph is smaller) and the flattened `k x d` block fed to an MLP — the
//! "1-D convolution over sorted nodes" of the original, realised as a
//! dense layer over the flattened window.

use crate::ctx::GraphCtx;
use crate::gc::{GcOutput, GraphClassifier};
use crate::layers::{Activation, GcnLayer, Mlp};
use mg_tensor::{Binding, Csr, Matrix, ParamStore, Tape};
use rand::rngs::StdRng;
use std::rc::Rc;

/// SortPool graph classifier.
pub struct SortPoolGc {
    convs: Vec<GcnLayer>,
    head: Mlp,
    k: usize,
    hidden: usize,
}

impl SortPoolGc {
    /// Two tanh GCN layers, a `k`-node sorted window, and an MLP head.
    pub fn new(
        store: &mut ParamStore,
        in_dim: usize,
        hidden: usize,
        classes: usize,
        k: usize,
        rng: &mut StdRng,
    ) -> Self {
        let convs = vec![
            GcnLayer::new(store, "SORT.conv0", in_dim, hidden, Activation::Tanh, rng),
            GcnLayer::new(store, "SORT.conv1", hidden, hidden, Activation::Tanh, rng),
        ];
        let head = Mlp::new(store, "SORT.head", &[k * hidden, hidden, classes], rng);
        SortPoolGc {
            convs,
            head,
            k,
            hidden,
        }
    }
}

impl GraphClassifier for SortPoolGc {
    fn forward(
        &self,
        tape: &Tape,
        bind: &Binding,
        ctx: &GraphCtx,
        train: bool,
        rng: &mut StdRng,
    ) -> GcOutput {
        let (first, rest) = self.convs.split_first().expect("at least one conv");
        let mut h = first.forward_features(tape, bind, ctx);
        for conv in rest {
            h = conv.forward(tape, bind, ctx, h);
        }
        let n = ctx.n();
        // sort nodes by the last channel, descending
        let order: Vec<usize> = {
            let hv = tape.value(h);
            let last = self.hidden - 1;
            let mut idx: Vec<usize> = (0..n).collect();
            idx.sort_by(|&a, &b| {
                hv[(b, last)]
                    .partial_cmp(&hv[(a, last)])
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            idx
        };
        // selection matrix with zero rows as padding when n < k
        let take = self.k.min(n);
        let entries: Vec<(u32, u32)> = (0..take).map(|i| (i as u32, order[i] as u32)).collect();
        let sel = Rc::new(Csr::from_coo(self.k, n, &entries));
        let ones = tape.constant(Matrix::full(1, take, 1.0));
        let window = tape.spmm(sel, ones, h); // k x hidden, zero-padded
        let mut flat = tape.reshape(window, 1, self.k * self.hidden);
        if train {
            flat = tape.dropout(flat, 0.3, rng);
        }
        GcOutput {
            logits: self.head.forward(tape, bind, flat),
            aux_loss: None,
        }
    }

    fn name(&self) -> &'static str {
        "SORTPOOL"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{ring_vs_star_samples, train_graph_classifier};
    use rand::SeedableRng;

    #[test]
    fn sortpool_trains() {
        let mut store = ParamStore::new();
        let model = SortPoolGc::new(&mut store, 3, 16, 2, 8, &mut StdRng::seed_from_u64(0));
        let loss = train_graph_classifier(&model, &mut store, &ring_vs_star_samples(), 250, 0.02);
        assert!(loss < 0.3, "final loss = {loss}");
    }

    #[test]
    fn sortpool_pads_small_graphs() {
        // k larger than every graph: forward must still produce logits
        let mut store = ParamStore::new();
        let model = SortPoolGc::new(&mut store, 3, 8, 2, 64, &mut StdRng::seed_from_u64(0));
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
}
