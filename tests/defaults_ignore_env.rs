//! Model defaults never read the environment: the pooling operator is
//! set only through the typed config fields, and tape checkpointing only
//! through `with_ckpt_tape`. Variable names that once set them are
//! exported here and must change nothing.
//!
//! One test in its own binary, so setting env vars cannot race another
//! test.

use adamgnn_repro::core::{with_ckpt_tape, AdamGnn, AdamGnnConfig, PoolingKind};
use adamgnn_repro::eval::TrainConfig;
use adamgnn_repro::nn::testkit::{seeds, two_community_ctx};
use adamgnn_repro::tensor::{ParamStore, Tape};

#[test]
fn defaults_ignore_pooling_and_tape_env_vars() {
    std::env::set_var("MG_POOLING", "asap");
    std::env::set_var("MG_CKPT_TAPE", "1");

    assert_eq!(TrainConfig::default().pooling, PoolingKind::AdamGnn);
    let cfg = AdamGnnConfig::new(8, 12, 2);
    assert_eq!(cfg.pooling, PoolingKind::AdamGnn);

    let (ctx, _) = two_community_ctx();
    let mut store = ParamStore::new();
    let model = AdamGnn::new(&mut store, cfg, &mut seeds::model_init_alt());
    let peak = || {
        let tape = Tape::new();
        let bind = store.bind(&tape);
        let out = model.forward(&tape, &bind, &ctx, true, &mut seeds::forward_rng());
        let loss = tape.mean_all(tape.mul_elem(out.h, out.h));
        let _ = tape.backward(loss);
        tape.peak_tape_bytes()
    };
    let (default, retained, checkpointed) = (
        peak(),
        with_ckpt_tape(false, peak),
        with_ckpt_tape(true, peak),
    );
    assert!(
        checkpointed < retained,
        "the fixture must tell the two apart"
    );
    assert_eq!(default, retained, "the default tape retains");
}
