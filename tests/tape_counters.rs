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

use adamgnn_core::{
    kl_loss, reconstruction_loss_planned, total_loss, with_ckpt_tape, AdamGnn, AdamGnnConfig,
    LossWeights, ReconPlan,
};
use mg_nn::testkit::{seeds, two_community_ctx};
use mg_tensor::{ParamStore, Tape};

/// Retained `peak_tape_bytes` of the step below.
const PEAK_TAPE_BYTES: usize = 34_016;
/// Nodes the step records on the tape.
const TAPE_OPS: usize = 108;

/// One forward+backward of a 2-level, hidden-16 AdamGNN on the
/// two-community fixture (dropout off, fixed seeds), on a retaining tape.
/// Returns `(peak_tape_bytes, tape ops, pooled levels)`.
fn step_counters() -> (usize, usize, usize) {
    let (ctx, _) = two_community_ctx();
    let mut store = ParamStore::new();
    let mut cfg = AdamGnnConfig::new(ctx.feat_dim(), 16, 2);
    cfg.dropout = 0.0;
    let model = AdamGnn::new(&mut store, cfg, &mut seeds::model_init_stable());
    let tape = Tape::new();
    let bind = store.bind(&tape);
    let out = with_ckpt_tape(false, || {
        model.forward(&tape, &bind, &ctx, true, &mut seeds::forward_rng())
    });
    let kl = kl_loss(&tape, out.h, &out.egos_l1);
    let recon = reconstruction_loss_planned(&tape, out.h, &ReconPlan::sample(&ctx.graph, 0));
    let task = tape.mean_all(out.h);
    let loss = total_loss(&tape, task, kl, recon, &LossWeights::default());
    let _ = tape.backward(loss);
    (tape.peak_tape_bytes(), tape.len(), out.levels.len())
}

#[test]
fn training_step_tape_counters_are_pinned() {
    let (peak, ops, levels) = step_counters();
    assert_eq!(levels, 2, "the fixture must pool both levels");
    assert_eq!(
        (peak, ops),
        (PEAK_TAPE_BYTES, TAPE_OPS),
        "retained (peak_tape_bytes, tape ops) moved"
    );
}
