//! Dense-assignment pooling: DIFFPOOL and STRUCTPOOL.
//!
//! Both learn a soft cluster-assignment matrix `S ∈ R^{n x K}` and coarsen
//! `X' = Sᵀ Z`, `A' = Sᵀ A S` with dense algebra — the "dense" design the
//! paper contrasts with sparse Top-k selection (and which shows up as the
//! slowest rows of its running-time Table 4). STRUCTPOOL additionally
//! refines the assignment with mean-field iterations of a CRF whose
//! pairwise potentials couple neighbouring nodes' assignments
//! (Yuan & Ji 2020).

use crate::ctx::GraphCtx;
use crate::gc::{GcOutput, GraphClassifier};
use crate::layers::{Activation, GcnLayer, Mlp};
use crate::readout::Readout;
use mg_tensor::{Binding, Matrix, ParamId, ParamStore, Tape, Var};
use rand::rngs::StdRng;

/// Which dense-assignment flavour to build.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DenseFlavor {
    DiffPool,
    StructPool,
}

/// Dense-assignment graph classifier.
pub struct DensePoolGc {
    embed: GcnLayer,
    assign: GcnLayer,
    /// Coarse-level dense GCN weight.
    w2: ParamId,
    b2: ParamId,
    head: Mlp,
    /// CRF compatibility matrix (StructPool only).
    compat: Option<ParamId>,
    /// Number of coarse clusters `K`.
    pub clusters: usize,
    mean_field_iters: usize,
    flavor: DenseFlavor,
}

impl DensePoolGc {
    /// Build with `clusters` hyper-nodes at the coarse level.
    pub fn new(
        store: &mut ParamStore,
        flavor: DenseFlavor,
        in_dim: usize,
        hidden: usize,
        classes: usize,
        clusters: usize,
        rng: &mut StdRng,
    ) -> Self {
        let tag = match flavor {
            DenseFlavor::DiffPool => "DIFF",
            DenseFlavor::StructPool => "STRUCT",
        };
        let embed = GcnLayer::new(
            store,
            &format!("{tag}.embed"),
            in_dim,
            hidden,
            Activation::Relu,
            rng,
        );
        let assign = GcnLayer::new(
            store,
            &format!("{tag}.assign"),
            in_dim,
            clusters,
            Activation::None,
            rng,
        );
        let w2 = store.add(format!("{tag}.w2"), Matrix::glorot(hidden, hidden, rng));
        let b2 = store.add(format!("{tag}.b2"), Matrix::zeros(1, hidden));
        let compat = match flavor {
            DenseFlavor::StructPool => Some(store.add(
                format!("{tag}.compat"),
                Matrix::glorot(clusters, clusters, rng),
            )),
            DenseFlavor::DiffPool => None,
        };
        let head = Mlp::new(
            store,
            &format!("{tag}.head"),
            &[2 * hidden, hidden, classes],
            rng,
        );
        DensePoolGc {
            embed,
            assign,
            w2,
            b2,
            head,
            compat,
            clusters,
            mean_field_iters: 2,
            flavor,
        }
    }

    /// The soft assignment matrix for a graph (used by tests).
    pub fn assignment(&self, tape: &Tape, bind: &Binding, ctx: &GraphCtx) -> Var {
        let logits = self.assign.forward_features(tape, bind, ctx);
        let refined = self.refine(tape, bind, ctx, logits);
        tape.softmax_rows(refined)
    }

    /// StructPool mean-field refinement; identity for DiffPool.
    ///
    /// Messages flow over the *row-normalised* adjacency so the pairwise
    /// term stays on the same scale as the unary logits regardless of
    /// degree (raw-adjacency messages saturate the softmax and kill the
    /// gradient).
    fn refine(&self, tape: &Tape, bind: &Binding, ctx: &GraphCtx, logits0: Var) -> Var {
        let Some(compat) = self.compat else {
            return logits0;
        };
        let n = ctx.n();
        let mut a = dense_adj(ctx);
        for i in 0..n {
            let deg: f64 = a.row(i).iter().sum();
            if deg > 0.0 {
                for v in a.row_mut(i) {
                    *v /= deg;
                }
            }
        }
        let a_norm = tape.constant(a);
        let mut logits = logits0;
        for _ in 0..self.mean_field_iters {
            let s = tape.softmax_rows(logits);
            // pairwise message: neighbours' assignments mapped through the
            // compatibility matrix
            let msg = tape.matmul(a_norm, tape.matmul(s, bind.var(compat)));
            logits = tape.add(logits0, msg);
        }
        logits
    }
}

/// Dense `n x n` unweighted adjacency of a context's graph.
pub fn dense_adj(ctx: &GraphCtx) -> Matrix {
    let n = ctx.n();
    let mut a = Matrix::zeros(n, n);
    for (u, v) in ctx.graph.edges() {
        a[(u as usize, v as usize)] = 1.0;
        a[(v as usize, u as usize)] = 1.0;
    }
    a
}

impl GraphClassifier for DensePoolGc {
    fn forward(
        &self,
        tape: &Tape,
        bind: &Binding,
        ctx: &GraphCtx,
        train: bool,
        rng: &mut StdRng,
    ) -> GcOutput {
        let n = ctx.n();
        let z = self.embed.forward_features(tape, bind, ctx); // n x hidden
        let logits = self.assign.forward_features(tape, bind, ctx); // n x K
        let refined = self.refine(tape, bind, ctx, logits);
        let log_s = tape.log_softmax_rows(refined);
        let s = tape.softmax_rows(refined); // n x K
        let st = tape.transpose(s);
        // coarse features and adjacency
        let x2 = tape.matmul(st, z); // K x hidden
        let a_dense = tape.constant(dense_adj(ctx));
        let a2 = tape.matmul(st, tape.matmul(a_dense, s)); // K x K
                                                           // coarse dense GCN. A2 entries are sums over O(n) soft memberships,
                                                           // so they are rescaled by 1/n to keep the pre-activation bounded;
                                                           // tanh avoids the dead-ReLU collapse an exploding first step causes.
        let a2n = tape.scale(a2, 1.0 / n as f64);
        let h2 = tape.tanh(tape.add_bias(
            tape.matmul(a2n, tape.matmul(x2, bind.var(self.w2))),
            bind.var(self.b2),
        ));
        let mut rep = Readout::MeanMax.apply(tape, h2);
        if train {
            rep = tape.dropout(rep, 0.3, rng);
        }
        let logits_out = self.head.forward(tape, bind, rep);
        // auxiliary losses (Ying et al. 2018): link prediction + entropy
        let ss_t = tape.matmul_nt_like(s); // n x n via S Sᵀ
        let diff = tape.sub(a_dense, ss_t);
        let lp = tape.mean_all(tape.mul_elem(diff, diff));
        let ent_terms = tape.mul_elem(s, log_s);
        let ent = tape.scale(tape.sum_all(ent_terms), -1.0 / n as f64);
        let aux = tape.add(tape.scale(lp, 0.05), tape.scale(ent, 0.05));
        GcOutput {
            logits: logits_out,
            aux_loss: Some(aux),
        }
    }

    fn name(&self) -> &'static str {
        match self.flavor {
            DenseFlavor::DiffPool => "DIFFPOOL",
            DenseFlavor::StructPool => "STRUCTPOOL",
        }
    }
}

/// Small extension trait: `S Sᵀ` as tape ops.
trait MatmulNtExt {
    fn matmul_nt_like(&self, s: Var) -> Var;
}

impl MatmulNtExt for Tape {
    fn matmul_nt_like(&self, s: Var) -> Var {
        let st = self.transpose(s);
        self.matmul(s, st)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{ring_vs_star_samples, train_graph_classifier};
    use rand::SeedableRng;

    #[test]
    fn assignment_rows_are_distributions() {
        let mut store = ParamStore::new();
        let model = DensePoolGc::new(
            &mut store,
            DenseFlavor::DiffPool,
            3,
            8,
            2,
            4,
            &mut StdRng::seed_from_u64(0),
        );
        let samples = ring_vs_star_samples();
        let tape = Tape::new();
        let bind = store.bind(&tape);
        let s = model.assignment(&tape, &bind, &samples[0].0);
        let sv = tape.value(s);
        assert_eq!(sv.cols(), 4);
        for i in 0..sv.rows() {
            let sum: f64 = sv.row(i).iter().sum();
            assert!((sum - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn diffpool_trains() {
        let mut store = ParamStore::new();
        let model = DensePoolGc::new(
            &mut store,
            DenseFlavor::DiffPool,
            3,
            16,
            2,
            4,
            &mut StdRng::seed_from_u64(0),
        );
        let loss = train_graph_classifier(&model, &mut store, &ring_vs_star_samples(), 250, 0.02);
        // aux loss keeps total above zero; CE should still collapse
        assert!(loss < 0.6, "final loss = {loss}");
    }

    #[test]
    fn structpool_trains() {
        let mut store = ParamStore::new();
        let model = DensePoolGc::new(
            &mut store,
            DenseFlavor::StructPool,
            3,
            16,
            2,
            4,
            &mut StdRng::seed_from_u64(0),
        );
        let loss = train_graph_classifier(&model, &mut store, &ring_vs_star_samples(), 400, 0.02);
        assert!(loss < 0.6, "final loss = {loss}");
    }

    #[test]
    fn structpool_refinement_changes_assignment() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        let model = DensePoolGc::new(&mut store, DenseFlavor::StructPool, 3, 8, 2, 4, &mut rng);
        let samples = ring_vs_star_samples();
        let ctx = &samples[0].0;
        let tape = Tape::new();
        let bind = store.bind(&tape);
        let x = ctx.x_var(&tape);
        let raw = tape.softmax_rows(model.assign.forward(&tape, &bind, ctx, x));
        let refined = model.assignment(&tape, &bind, ctx);
        assert_ne!(*tape.value(raw), *tape.value(refined));
    }

    #[test]
    fn dense_adj_is_symmetric() {
        let samples = ring_vs_star_samples();
        let a = dense_adj(&samples[0].0);
        for i in 0..a.rows() {
            for j in 0..a.cols() {
                assert_eq!(a[(i, j)], a[(j, i)]);
            }
        }
    }
}
