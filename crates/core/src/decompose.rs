//! Seeded, deterministic loss decomposition — the mg-verify entry point.
//!
//! The training loops assemble `L = L_task + γ L_KL + δ L_R` inline and
//! only ever look at the composed scalar. Verification needs more: each
//! term as its own tape variable (so their values can be compared against
//! an independently composed total) with **no hidden randomness** (so the
//! whole loss is a pure function of the parameters, as central-difference
//! gradient checking requires). Eval-mode forward draws nothing from the
//! RNG and negative sampling is lifted into a pre-sampled
//! [`ReconPlan`], which together make that hold.

use crate::gc::AdamGnnNode;
use crate::loss::{
    kl_loss, kl_loss_with_target, reconstruction_loss_planned, total_loss, LossWeights, ReconPlan,
};
use crate::model::{AdamGnnOutput, FrozenStructure};
use mg_nn::GraphCtx;
use mg_tensor::{student_t_target, Binding, Matrix, Tape, Var};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::rc::Rc;

/// Every term of the composite objective as a live tape variable.
pub struct LossBreakdown {
    /// `L_task` — masked cross-entropy over the supervised nodes.
    pub task: Var,
    /// `L_KL` (Eq. 5) — unweighted.
    pub kl: Var,
    /// `L_R` (Eq. 6) over the pre-sampled plan — unweighted.
    pub recon: Var,
    /// Operator-specific auxiliary term, already at its final weight
    /// (e.g. SpaPool's assignment entropy); `None` for operators
    /// without one.
    pub aux: Option<Var>,
    /// The objective as the production code composes it:
    /// `total_loss(task, kl, recon)` plus `aux` when present.
    pub total: Var,
}

/// Run a deterministic eval-mode forward of `model` and build the full
/// three-term objective with every term exposed.
///
/// Deterministic: the forward runs in eval mode (dropout disabled, no RNG
/// draws) and the reconstruction negatives come from `plan`, so repeated
/// calls with the same parameter binding produce identical values — and a
/// gradcheck driver may call it once per perturbed parameter entry.
#[allow(clippy::too_many_arguments)]
pub fn decomposed_loss(
    tape: &Tape,
    bind: &Binding,
    model: &AdamGnnNode,
    ctx: &GraphCtx,
    targets: &Rc<Vec<usize>>,
    nodes: &Rc<Vec<usize>>,
    plan: &ReconPlan,
    weights: &LossWeights,
) -> (LossBreakdown, AdamGnnOutput) {
    // Eval-mode forward performs no RNG draws; the stream is only here to
    // satisfy the signature.
    let mut rng = StdRng::seed_from_u64(0);
    let (logits, out) = model.forward_full(tape, bind, ctx, false, &mut rng);
    assemble(tape, logits, out, targets, nodes, plan, weights, None)
}

/// Everything that must be pinned so the composite objective becomes the
/// exact fixed-structure function the backward pass differentiates:
/// the discrete/detached pooling structure, plus the DEC target `P`
/// (detached inside `student_t_kl`, standard DEC).
pub struct LossFreeze {
    pub structure: FrozenStructure,
    /// Frozen target `P` at the reference parameters; `None` when no
    /// level pooled (the KL term is a constant zero).
    pub kl_target: Option<Rc<Matrix>>,
}

/// Record a [`LossFreeze`] at the current parameters via one eval-mode
/// reference forward.
pub fn record_loss_freeze(
    tape: &Tape,
    bind: &Binding,
    model: &AdamGnnNode,
    ctx: &GraphCtx,
) -> LossFreeze {
    let (_, out, structure) = model.forward_full_recorded(tape, bind, ctx);
    let kl_target = if out.egos_l1.is_empty() {
        None
    } else {
        Some(Rc::new(student_t_target(&tape.value(out.h), &out.egos_l1)))
    };
    LossFreeze {
        structure,
        kl_target,
    }
}

/// [`decomposed_loss`] with the pooling structure and the DEC target `P`
/// pinned to a prior recording (see [`LossFreeze`]).
///
/// This is what the mg-verify gradient audit differences: ego selection
/// is piecewise-constant, `Â_k` is detached from the tape and `P` is
/// detached inside the KL op, so the frozen objective is the function
/// whose gradient the backward pass actually computes. Re-deriving any
/// of them under every ±ε perturbation would measure paths autograd
/// (correctly) ignores.
#[allow(clippy::too_many_arguments)]
pub fn decomposed_loss_frozen(
    tape: &Tape,
    bind: &Binding,
    model: &AdamGnnNode,
    ctx: &GraphCtx,
    targets: &Rc<Vec<usize>>,
    nodes: &Rc<Vec<usize>>,
    plan: &ReconPlan,
    weights: &LossWeights,
    freeze: &LossFreeze,
) -> (LossBreakdown, AdamGnnOutput) {
    let (logits, out) = model.forward_full_frozen(tape, bind, ctx, &freeze.structure);
    assemble(
        tape,
        logits,
        out,
        targets,
        nodes,
        plan,
        weights,
        freeze.kl_target.as_ref(),
    )
}

#[allow(clippy::too_many_arguments)]
fn assemble(
    tape: &Tape,
    logits: Var,
    out: AdamGnnOutput,
    targets: &Rc<Vec<usize>>,
    nodes: &Rc<Vec<usize>>,
    plan: &ReconPlan,
    weights: &LossWeights,
    kl_target: Option<&Rc<Matrix>>,
) -> (LossBreakdown, AdamGnnOutput) {
    let task = tape.cross_entropy(logits, targets.clone(), nodes.clone());
    let kl = match kl_target {
        Some(p) => kl_loss_with_target(tape, out.h, &out.egos_l1, p.clone()),
        None => kl_loss(tape, out.h, &out.egos_l1),
    };
    let recon = reconstruction_loss_planned(tape, out.h, plan);
    let mut total = total_loss(tape, task, kl, recon, weights);
    // operator-specific auxiliary term (None for the default operator,
    // keeping the pre-trait composition — and the goldens — unchanged)
    let aux = out.aux;
    if let Some(aux) = aux {
        total = tape.add(total, aux);
    }
    (
        LossBreakdown {
            task,
            kl,
            recon,
            aux,
            total,
        },
        out,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::AdamGnnConfig;
    use mg_nn::testkit::{seeds, two_community_ctx};
    use mg_tensor::ParamStore;

    fn fixture() -> (ParamStore, AdamGnnNode, GraphCtx, Vec<usize>) {
        let (ctx, labels) = two_community_ctx();
        let mut store = ParamStore::new();
        let mut cfg = AdamGnnConfig::new(8, 12, 2);
        cfg.dropout = 0.0;
        let model = AdamGnnNode::new(&mut store, cfg, 2, &mut seeds::model_init());
        (store, model, ctx, labels)
    }

    #[test]
    fn decomposition_is_deterministic_and_consistent() {
        let (store, model, ctx, labels) = fixture();
        let targets = Rc::new(labels);
        let nodes = Rc::new((0..8).collect::<Vec<_>>());
        let plan = ReconPlan::sample(&ctx.graph, 11);
        let weights = LossWeights::default();
        let eval = || {
            let tape = Tape::new();
            let bind = store.bind(&tape);
            let (b, _) = decomposed_loss(
                &tape, &bind, &model, &ctx, &targets, &nodes, &plan, &weights,
            );
            let vals = (
                tape.value(b.task).scalar(),
                tape.value(b.kl).scalar(),
                tape.value(b.recon).scalar(),
                tape.value(b.total).scalar(),
            );
            vals
        };
        let (t1, k1, r1, tot1) = eval();
        let (t2, k2, r2, tot2) = eval();
        // bitwise repeatable
        assert_eq!((t1, k1, r1, tot1), (t2, k2, r2, tot2));
        // and the total is exactly the production composition of the terms
        let expect = t1 + weights.gamma * k1 + weights.delta * r1;
        assert!(
            (tot1 - expect).abs() < 1e-12,
            "total {tot1} vs recomposed {expect}"
        );
    }

    #[test]
    fn recon_plan_is_seed_deterministic() {
        let (ctx, _) = two_community_ctx();
        let a = ReconPlan::sample(&ctx.graph, 11);
        let b = ReconPlan::sample(&ctx.graph, 11);
        assert_eq!(a.pairs(), b.pairs());
        let c = ReconPlan::sample(&ctx.graph, 12);
        // a different seed draws different negatives (positives identical)
        assert_eq!(
            a.pairs()[..ctx.graph.num_edges()],
            c.pairs()[..ctx.graph.num_edges()]
        );
    }
}
