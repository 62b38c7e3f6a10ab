//! AdamGNN's training strategy (Section 3.5):
//! `L = L_task + γ L_KL + δ L_R`.
//!
//! * `L_KL` — DEC-style Student-t KL self-optimisation that sharpens
//!   ego-network membership (Eq. 5).
//! * `L_R` — adjacency reconstruction against over-smoothing (Eq. 6),
//!   realised as negative-sampled BCE over inner-product edge scores
//!   (identical in expectation to the full `σ(HHᵀ)` objective; see
//!   DESIGN.md).

use crate::faults;
use mg_graph::Topology;
use mg_tensor::{Matrix, Tape, Var};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::rc::Rc;

/// Loss weights; the paper fixes `γ = 0.1`, `δ = 0.01` everywhere.
#[derive(Clone, Copy, Debug)]
pub struct LossWeights {
    pub gamma: f64,
    pub delta: f64,
}

impl Default for LossWeights {
    fn default() -> Self {
        LossWeights {
            gamma: 0.1,
            delta: 0.01,
        }
    }
}

/// `L_KL` (Eq. 5) on the final representations with the level-1 egos as
/// cluster centres. Returns a zero constant when no egos were selected.
pub fn kl_loss(tape: &Tape, h: Var, egos: &Rc<Vec<usize>>) -> Var {
    if egos.is_empty() {
        return tape.constant(Matrix::zeros(1, 1));
    }
    tape.student_t_kl(h, egos.clone())
}

/// [`kl_loss`] with the DEC target `P` pinned to a reference recording
/// instead of re-derived from the current embedding.
///
/// The production op detaches `P` in backward (standard DEC), so its
/// analytic gradient belongs to the P-frozen objective — this variant
/// *is* that objective, which is what the mg-verify gradient audit must
/// central-difference.
pub fn kl_loss_with_target(tape: &Tape, h: Var, egos: &Rc<Vec<usize>>, target: Rc<Matrix>) -> Var {
    if egos.is_empty() {
        return tape.constant(Matrix::zeros(1, 1));
    }
    tape.student_t_kl_with_target(h, egos.clone(), target)
}

/// A pre-sampled set of (pair, label) supervision for `L_R` (Eq. 6):
/// every observed edge as a positive plus an equal number of sampled
/// non-edges as negatives.
///
/// Lifting the negative sampling out of [`reconstruction_loss`] gives
/// verification code a reconstruction term that is a *pure function* of
/// the embedding — central-difference gradient checking re-evaluates the
/// loss many times and every evaluation must see the same negatives.
#[derive(Clone, Debug)]
pub struct ReconPlan {
    pairs: Rc<Vec<(usize, usize)>>,
    labels: Rc<Vec<f64>>,
}

impl ReconPlan {
    /// Sample a plan from a dedicated seed (the deterministic entry point
    /// used by mg-verify).
    pub fn sample(graph: &Topology, seed: u64) -> Self {
        Self::from_rng(graph, &mut StdRng::seed_from_u64(seed))
    }

    /// Sample a plan by drawing negatives from an existing stream, with
    /// exactly the draw order the pre-plan `reconstruction_loss` used.
    pub fn from_rng(graph: &Topology, rng: &mut StdRng) -> Self {
        let mut pairs: Vec<(usize, usize)> = graph
            .edges()
            .map(|(u, v)| (u as usize, v as usize))
            .collect();
        let pos = pairs.len();
        if pos > 0 {
            let n = graph.n();
            let mut guard = 0;
            let mut neg = 0;
            while neg < pos && guard < 100 * pos {
                guard += 1;
                let u = rng.random_range(0..n);
                let v = rng.random_range(0..n);
                if u != v && !graph.has_edge(u, v) {
                    pairs.push((u, v));
                    neg += 1;
                }
            }
        }
        let mut labels = vec![1.0; pos];
        labels.extend(std::iter::repeat_n(0.0, pairs.len() - pos));
        ReconPlan {
            pairs: Rc::new(pairs),
            labels: Rc::new(labels),
        }
    }

    /// Number of supervised pairs (positives + negatives).
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// True when the graph had no edges (the loss degenerates to zero).
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// The supervised (i, j) pairs, positives first.
    pub fn pairs(&self) -> &[(usize, usize)] {
        &self.pairs
    }

    /// Map the plan through a node relabelling (metamorphic testing:
    /// `L_R` on a permuted graph must equal `L_R` on the original when
    /// the plan is permuted the same way).
    pub fn relabel(&self, perm: &[usize]) -> Self {
        ReconPlan {
            pairs: Rc::new(
                self.pairs
                    .iter()
                    .map(|&(u, v)| (perm[u], perm[v]))
                    .collect(),
            ),
            labels: self.labels.clone(),
        }
    }
}

/// `L_R` (Eq. 6): BCE over all observed edges plus an equal number of
/// freshly sampled non-edges.
pub fn reconstruction_loss(tape: &Tape, h: Var, graph: &Topology, rng: &mut StdRng) -> Var {
    reconstruction_loss_planned(tape, h, &ReconPlan::from_rng(graph, rng))
}

/// `L_R` over a pre-sampled [`ReconPlan`] — deterministic given the plan.
pub fn reconstruction_loss_planned(tape: &Tape, h: Var, plan: &ReconPlan) -> Var {
    if plan.is_empty() {
        return tape.constant(Matrix::zeros(1, 1));
    }
    tape.bce_pairs(h, plan.pairs.clone(), plan.labels.clone())
}

/// Compose `L = L_task + γ L_KL + δ L_R`.
pub fn total_loss(tape: &Tape, task: Var, kl: Var, recon: Var, weights: &LossWeights) -> Var {
    let with_kl = tape.add(task, tape.scale(kl, weights.gamma));
    // recon_sign() is +1 except under the verification fault hook, which
    // flips L_R's contribution to prove the audit catches composition bugs.
    tape.add(
        with_kl,
        tape.scale(recon, weights.delta * faults::recon_sign()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn ring(n: usize) -> Topology {
        let edges: Vec<(u32, u32)> = (0..n as u32).map(|i| (i, (i + 1) % n as u32)).collect();
        Topology::from_edges(n, &edges)
    }

    #[test]
    fn kl_loss_zero_without_egos() {
        let tape = Tape::new();
        let h = tape.constant(Matrix::eye(4));
        let loss = kl_loss(&tape, h, &Rc::new(vec![]));
        assert_eq!(tape.value(loss).scalar(), 0.0);
    }

    #[test]
    fn kl_loss_nonnegative_with_egos() {
        let tape = Tape::new();
        let h = tape.constant(Matrix::from_fn(6, 3, |i, j| ((i + j) % 3) as f64));
        let loss = kl_loss(&tape, h, &Rc::new(vec![0, 3]));
        assert!(tape.value(loss).scalar() >= 0.0);
    }

    #[test]
    fn reconstruction_loss_prefers_structured_embeddings() {
        let g = ring(12);
        // embeddings where adjacent nodes have high inner product
        let good = Matrix::from_fn(12, 4, |i, j| {
            let angle = 2.0 * std::f64::consts::PI * i as f64 / 12.0;
            match j {
                0 => 3.0 * angle.cos(),
                1 => 3.0 * angle.sin(),
                _ => 0.0,
            }
        });
        let bad = Matrix::from_fn(12, 4, |i, j| {
            // random-ish, structure-free
            (((i * 31 + j * 17) % 7) as f64 - 3.0) / 3.0
        });
        let eval = |m: &Matrix| {
            let tape = Tape::new();
            let h = tape.constant(m.clone());
            let mut rng = StdRng::seed_from_u64(3);
            let loss = reconstruction_loss(&tape, h, &g, &mut rng);
            let v = tape.value(loss).scalar();
            v
        };
        assert!(
            eval(&good) < eval(&bad),
            "structured embedding must reconstruct better"
        );
    }

    #[test]
    fn total_loss_weighted_sum() {
        let tape = Tape::new();
        let task = tape.constant(Matrix::full(1, 1, 2.0));
        let kl = tape.constant(Matrix::full(1, 1, 10.0));
        let recon = tape.constant(Matrix::full(1, 1, 100.0));
        let total = total_loss(&tape, task, kl, recon, &LossWeights::default());
        assert!((tape.value(total).scalar() - (2.0 + 1.0 + 1.0)).abs() < 1e-12);
    }
}
