//! Top-k-selection hierarchical pooling (TOPKPOOL and SAGPOOL).
//!
//! Both follow the SAGPool pipeline the paper adopts for graph
//! classification: `[GCN -> pool]` repeated, a `[mean ‖ max]` readout per
//! level, readouts summed, MLP head. They differ only in how nodes are
//! scored: TOPKPOOL projects features onto a learnable vector (Gao & Ji
//! 2019), SAGPOOL scores with a one-output GCN layer (Lee et al. 2019).
//! The pre-defined pooling ratio `k` is exactly the hyper-parameter
//! AdamGNN's adaptive selection removes.

use crate::ctx::GraphCtx;
use crate::gc::{GcOutput, GraphClassifier};
use crate::layers::{Activation, GcnLayer, Mlp};
use crate::readout::Readout;
use mg_graph::{gcn_norm, NormAdj, Topology};
use mg_tensor::{Binding, Matrix, ParamId, ParamStore, Tape, Var};
use rand::rngs::StdRng;
use std::rc::Rc;

/// How a pooling level scores nodes.
enum Scorer {
    /// Learnable projection vector (TOPKPOOL).
    Projection(ParamId),
    /// One-output GCN layer (SAGPOOL).
    SelfAttention(GcnLayer),
}

impl Scorer {
    fn score(
        &self,
        tape: &Tape,
        bind: &Binding,
        csr: Rc<mg_tensor::Csr>,
        adj_values: Var,
        h: Var,
    ) -> Var {
        match self {
            Scorer::Projection(p) => tape.matmul(h, bind.var(*p)),
            Scorer::SelfAttention(gcn) => gcn.forward_adj(tape, bind, csr, adj_values, h),
        }
    }
}

/// Which Top-k flavour to build.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TopKFlavor {
    TopK,
    SagPool,
}

/// Hierarchical Top-k graph classifier.
pub struct TopKGc {
    convs: Vec<GcnLayer>,
    scorers: Vec<Scorer>,
    head: Mlp,
    ratio: f64,
    flavor: TopKFlavor,
}

impl TopKGc {
    /// `levels` rounds of conv+pool with pooling ratio `ratio`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        store: &mut ParamStore,
        flavor: TopKFlavor,
        in_dim: usize,
        hidden: usize,
        classes: usize,
        levels: usize,
        ratio: f64,
        rng: &mut StdRng,
    ) -> Self {
        assert!(levels >= 1, "TopKGc needs at least one level");
        assert!((0.0..=1.0).contains(&ratio), "ratio must be in (0, 1]");
        let tag = match flavor {
            TopKFlavor::TopK => "TOPK",
            TopKFlavor::SagPool => "SAG",
        };
        let mut convs = Vec::new();
        let mut scorers = Vec::new();
        for l in 0..levels {
            let dim_in = if l == 0 { in_dim } else { hidden };
            convs.push(GcnLayer::new(
                store,
                &format!("{tag}.conv{l}"),
                dim_in,
                hidden,
                Activation::Relu,
                rng,
            ));
            scorers.push(match flavor {
                TopKFlavor::TopK => Scorer::Projection(
                    store.add(format!("{tag}.p{l}"), Matrix::glorot(hidden, 1, rng)),
                ),
                TopKFlavor::SagPool => Scorer::SelfAttention(GcnLayer::new(
                    store,
                    &format!("{tag}.score{l}"),
                    hidden,
                    1,
                    Activation::None,
                    rng,
                )),
            });
        }
        let head = Mlp::new(
            store,
            &format!("{tag}.head"),
            &[2 * hidden, hidden, classes],
            rng,
        );
        TopKGc {
            convs,
            scorers,
            head,
            ratio,
            flavor,
        }
    }
}

/// Select the indices of the top `ceil(ratio * n)` scores (at least one).
pub fn top_ratio_indices(scores: &Matrix, ratio: f64) -> Vec<usize> {
    let n = scores.rows();
    let k = ((ratio * n as f64).ceil() as usize).clamp(1, n);
    let mut idx: Vec<usize> = (0..n).collect();
    idx.sort_by(|&a, &b| {
        scores[(b, 0)]
            .partial_cmp(&scores[(a, 0)])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut keep = idx[..k].to_vec();
    keep.sort_unstable();
    keep
}

impl GraphClassifier for TopKGc {
    fn forward(
        &self,
        tape: &Tape,
        bind: &Binding,
        ctx: &GraphCtx,
        train: bool,
        rng: &mut StdRng,
    ) -> GcOutput {
        let mut topo: Rc<Topology> = ctx.graph.clone();
        let mut adj: NormAdj = ctx.gcn.clone();
        let mut h: Option<Var> = None;
        let mut readout_sum: Option<Var> = None;
        for (conv, scorer) in self.convs.iter().zip(&self.scorers) {
            let conv_h = match h {
                // the first level convolves the input graph's own features
                None => conv.forward_features(tape, bind, ctx),
                Some(h) => {
                    let vals =
                        tape.constant(Matrix::from_vec(1, adj.values.len(), adj.values.clone()));
                    conv.forward_adj(tape, bind, adj.csr.clone(), vals, h)
                }
            };
            let vals2 = tape.constant(Matrix::from_vec(1, adj.values.len(), adj.values.clone()));
            let score = scorer.score(tape, bind, adj.csr.clone(), vals2, conv_h);
            // discrete top-k selection on the score values; gradients flow
            // through the tanh gate on the surviving nodes
            let keep = top_ratio_indices(&tape.value(score), self.ratio);
            let keep_rc = Rc::new(keep.clone());
            let h_kept = tape.gather_rows(conv_h, keep_rc.clone());
            let gate = tape.tanh(tape.gather_rows(score, keep_rc));
            let pooled = tape.mul_col(h_kept, gate);
            h = Some(pooled);
            let (sub, _) = topo.induced_subgraph(&keep);
            adj = gcn_norm(&sub);
            topo = Rc::new(sub);
            let r = Readout::MeanMax.apply(tape, pooled);
            readout_sum = Some(match readout_sum {
                Some(acc) => tape.add(acc, r),
                None => r,
            });
        }
        let mut rep = readout_sum.expect("at least one level");
        if train {
            rep = tape.dropout(rep, 0.3, rng);
        }
        GcOutput {
            logits: self.head.forward(tape, bind, rep),
            aux_loss: None,
        }
    }

    fn name(&self) -> &'static str {
        match self.flavor {
            TopKFlavor::TopK => "TOPKPOOL",
            TopKFlavor::SagPool => "SAGPOOL",
        }
    }
}

/// Figure 3: fraction of the graph's nodes covered when the top
/// `ratio * n` nodes by score are selected together with their `lambda`-hop
/// neighbourhoods. Scores nodes by degree, the structural analogue of a
/// trained projection score.
pub fn topk_coverage(g: &Topology, ratio: f64, lambda: usize) -> f64 {
    let n = g.n();
    if n == 0 {
        return 0.0;
    }
    let scores = Matrix::from_fn(n, 1, |i, _| g.degree(i) as f64);
    let keep = top_ratio_indices(&scores, ratio);
    let mut covered = vec![false; n];
    for &s in &keep {
        for v in g.khop(s, lambda) {
            covered[v] = true;
        }
    }
    covered.iter().filter(|&&c| c).count() as f64 / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{ring_vs_star_samples, train_graph_classifier};
    use rand::SeedableRng;

    #[test]
    fn top_ratio_indices_selects_best() {
        let scores = Matrix::from_vec(4, 1, vec![0.1, 0.9, 0.5, 0.2]);
        assert_eq!(top_ratio_indices(&scores, 0.5), vec![1, 2]);
        assert_eq!(top_ratio_indices(&scores, 0.01), vec![1]);
        assert_eq!(top_ratio_indices(&scores, 1.0), vec![0, 1, 2, 3]);
    }

    #[test]
    fn topk_gc_trains() {
        let mut store = ParamStore::new();
        let model = TopKGc::new(
            &mut store,
            TopKFlavor::TopK,
            3,
            16,
            2,
            2,
            0.5,
            &mut StdRng::seed_from_u64(1),
        );
        let loss = train_graph_classifier(&model, &mut store, &ring_vs_star_samples(), 250, 0.02);
        assert!(loss < 0.3, "final loss = {loss}");
    }

    #[test]
    fn sagpool_gc_trains() {
        let mut store = ParamStore::new();
        let model = TopKGc::new(
            &mut store,
            TopKFlavor::SagPool,
            3,
            16,
            2,
            2,
            0.5,
            &mut StdRng::seed_from_u64(1),
        );
        let loss = train_graph_classifier(&model, &mut store, &ring_vs_star_samples(), 250, 0.02);
        assert!(loss < 0.3, "final loss = {loss}");
    }

    #[test]
    fn coverage_increases_with_ratio() {
        let g = {
            let edges: Vec<(u32, u32)> = (0..30u32).map(|i| (i, (i + 1) % 30)).collect();
            Topology::from_edges(30, &edges)
        };
        let mut prev = 0.0;
        for ratio in [0.1, 0.3, 0.5, 0.7, 0.9] {
            let c = topk_coverage(&g, ratio, 1);
            assert!(c >= prev, "coverage must be monotone");
            prev = c;
        }
        assert!((topk_coverage(&g, 1.0, 1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn coverage_low_ratio_misses_nodes() {
        // star graph: selecting the hub covers everything; a path misses
        let path: Vec<(u32, u32)> = (0..29u32).map(|i| (i, i + 1)).collect();
        let g = Topology::from_edges(30, &path);
        let c = topk_coverage(&g, 0.1, 1);
        assert!(c < 0.5, "coverage = {c}");
    }
}
