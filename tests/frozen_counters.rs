//! Deterministic cost counters of one frozen AdamGNN forward, pinned by
//! exact equality (the inference-side sibling of `tape_counters.rs`).
//!
//! A forward over a `bind_frozen` binding can never reach a backward
//! pass, so every checkpoint scope it opens is grad-free and frees its
//! interiors as it closes, without a replay segment. Its tape's
//! high-water mark is then the kept values plus one scope's interior.
//! A scope that stops opening on the frozen path, or a value that
//! leaks out of a scope's keep set, moves these numbers and fails here.
//! When a change moves them on purpose, update the constants and say
//! why in the change description.

use adamgnn_core::{with_ckpt_tape, AdamGnn, AdamGnnConfig};
use mg_nn::testkit::{seeds, two_community_ctx};
use mg_tensor::{Matrix, ParamStore, Tape};

/// Scoped `peak_tape_bytes` of the frozen forward below.
const FROZEN_PEAK_TAPE_BYTES: usize = 21_904;
/// Nodes the frozen forward records on the tape.
const FROZEN_TAPE_OPS: usize = 96;

/// One eval-mode forward of a 2-level, hidden-16 AdamGNN on the
/// two-community fixture (the `tape_counters.rs` model), over a frozen
/// binding or, for the reference, a grad-requiring one with
/// checkpointing off, which retains every value. Returns
/// `(peak_tape_bytes, tape ops, pooled levels, h)`.
fn forward_counters(frozen: bool) -> (usize, usize, usize, Matrix) {
    let (ctx, _) = two_community_ctx();
    let mut store = ParamStore::new();
    let mut cfg = AdamGnnConfig::new(ctx.feat_dim(), 16, 2);
    cfg.dropout = 0.0;
    let model = AdamGnn::new(&mut store, cfg, &mut seeds::model_init_stable());
    let tape = Tape::new();
    let bind = match frozen {
        true => store.bind_frozen(&tape),
        false => store.bind(&tape),
    };
    let out = with_ckpt_tape(false, || {
        model.forward(&tape, &bind, &ctx, false, &mut seeds::forward_rng())
    });
    let h = tape.value_cloned(out.h);
    (tape.peak_tape_bytes(), tape.len(), out.levels.len(), h)
}

#[test]
fn frozen_forward_tape_counters_are_pinned() {
    let (peak, ops, levels, _) = forward_counters(true);
    assert_eq!(levels, 2, "the fixture must pool both levels");
    assert_eq!(
        (peak, ops),
        (FROZEN_PEAK_TAPE_BYTES, FROZEN_TAPE_OPS),
        "frozen (peak_tape_bytes, tape ops) moved"
    );
}

#[test]
fn frozen_forward_peaks_below_the_retaining_tape() {
    let (frozen_peak, frozen_ops, _, frozen_h) = forward_counters(true);
    let (retained_peak, retained_ops, _, retained_h) = forward_counters(false);
    assert_eq!(frozen_ops, retained_ops, "same program, scoped or not");
    let bits = |m: &Matrix| m.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&frozen_h), bits(&retained_h), "h is bitwise the same");
    assert!(
        frozen_peak < retained_peak,
        "frozen scopes must lower the peak ({frozen_peak} >= {retained_peak})"
    );
}
