//! Deterministic cost counters of one AdamGNN training step, pinned by
//! exact equality.
//!
//! Wall time on a shared host is too noisy to gate on, but the retained
//! tape's high-water mark and its op count are pure functions of the
//! model's shapes and of the fixture: they move only when the forward
//! records different nodes. A per-pair copy that comes back onto the
//! tape (say, Eq. 2's linearity term gathering `h` twice again), a
//! matmul kept beside its activation, or a dead product left in the
//! forward changes these numbers and fails here rather than passing
//! unseen. When a change moves them on purpose, update the constants
//! and say why in the change description.
//!
//! The tape's lifetime is gated here too: backward releases every forward
//! value it sweeps past, so after it only the leaves' bytes are live, on
//! a retaining and on a checkpointed tape alike.

use adamgnn_core::{
    kl_loss, reconstruction_loss_planned, total_loss, with_ckpt_tape, AdamGnn, AdamGnnConfig,
    LossWeights, ReconPlan,
};
use mg_nn::testkit::{seeds, two_community_ctx};
use mg_tensor::{Matrix, ParamStore, Tape};

/// Retained `peak_tape_bytes` of the step below, op payloads included
/// (the Student-t kernel and its statistics, the BCE logits).
const PEAK_TAPE_BYTES: usize = 31_200;
/// Nodes the step records on the tape.
const TAPE_OPS: usize = 103;
/// Live tape bytes once backward has swept the step: exactly its leaves
/// (the parameters and the constants the forward and losses record).
const LEAF_BYTES: usize = 12_776;

/// What one step leaves behind.
struct StepCounters {
    peak: usize,
    ops: usize,
    levels: usize,
    /// `live_tape_bytes` after backward.
    live_after: usize,
    /// Every parameter's gradient, in registration order.
    grads: Vec<Option<Matrix>>,
    /// Bytes of the parameters alone.
    param_bytes: usize,
}

/// One forward+backward of a 2-level, hidden-16 AdamGNN on the
/// two-community fixture (dropout off, fixed seeds), on a retaining or a
/// checkpointed tape.
fn step_counters(ckpt: bool) -> StepCounters {
    let (ctx, _) = two_community_ctx();
    let mut store = ParamStore::new();
    let mut cfg = AdamGnnConfig::new(ctx.feat_dim(), 16, 2);
    cfg.dropout = 0.0;
    let model = AdamGnn::new(&mut store, cfg, &mut seeds::model_init_stable());
    let tape = Tape::new();
    let bind = store.bind(&tape);
    let out = with_ckpt_tape(ckpt, || {
        model.forward(&tape, &bind, &ctx, true, &mut seeds::forward_rng())
    });
    let kl = kl_loss(&tape, out.h, &out.egos_l1);
    let recon = reconstruction_loss_planned(&tape, out.h, &ReconPlan::sample(&ctx.graph, 0));
    let task = tape.mean_all(out.h);
    let loss = total_loss(&tape, task, kl, recon, &LossWeights::default());
    let grads = tape.backward(loss);
    StepCounters {
        peak: tape.peak_tape_bytes(),
        ops: tape.len(),
        levels: out.levels.len(),
        live_after: tape.live_tape_bytes(),
        grads: store
            .param_ids()
            .into_iter()
            .map(|id| grads.get(bind.var(id)).cloned())
            .collect(),
        param_bytes: store.num_scalars() * 8,
    }
}

#[test]
fn training_step_tape_counters_are_pinned() {
    let c = step_counters(false);
    assert_eq!(c.levels, 2, "the fixture must pool both levels");
    assert_eq!(
        (c.peak, c.ops),
        (PEAK_TAPE_BYTES, TAPE_OPS),
        "retained (peak_tape_bytes, tape ops) moved"
    );
}

/// Backward frees what it has passed: after the sweep only the leaves
/// are live, while the peak stays the forward's high-water mark.
#[test]
fn backward_leaves_only_the_leaves_live() {
    let c = step_counters(false);
    assert_eq!(c.live_after, LEAF_BYTES, "live tape bytes after backward");
    assert!(LEAF_BYTES >= c.param_bytes, "the parameters are leaves");
    assert_eq!(c.peak, PEAK_TAPE_BYTES);
}

/// The same step on a checkpointed tape: gradients bitwise equal to the
/// retaining tape's, and the sweep, which releases each segment as it
/// passes below it, leaves the same leaves live.
#[test]
fn checkpointed_step_releases_to_the_same_leaves() {
    let retained = step_counters(false);
    let ckpt = step_counters(true);
    let bits = |g: &[Option<Matrix>]| {
        g.iter()
            .map(|m| {
                m.as_ref()
                    .map(|m| m.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>())
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(bits(&ckpt.grads), bits(&retained.grads), "gradient bits");
    assert!(
        ckpt.grads.iter().all(Option::is_some),
        "every parameter reached"
    );
    assert_eq!(
        ckpt.live_after, LEAF_BYTES,
        "live tape bytes after backward"
    );
    assert!(ckpt.peak < retained.peak, "checkpointing lowers the peak");
}
