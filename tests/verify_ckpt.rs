//! Checkpoint/resume verification: the mg-ckpt contract, checked at the
//! trainer level for all four tasks.
//!
//! Three claims are pinned here, each bitwise:
//!
//! 1. **Resume reproduces the uninterrupted run.** A run interrupted at
//!    epoch `k` (simulated as a run whose epoch budget ends at `k`,
//!    which is byte-for-byte what an interruption leaves behind) and
//!    resumed to the full budget returns exactly the metrics and trace
//!    of a never-interrupted run.
//! 2. **Checkpointing is pure observation.** Enabling periodic
//!    checkpoint writes changes nothing about the result.
//! 3. **Corruption fails loudly.** Any damaged section, truncation,
//!    magic or version skew is a typed `MgError`, never a panic or a
//!    silently wrong model.
//!
//! The float comparisons use IEEE-754 bit patterns throughout, the same
//! authority as the golden-trace suite.

use adamgnn_repro::data::{
    make_graph_dataset, make_node_dataset, GraphDatasetKind, GraphGenConfig, NodeDataset,
    NodeDatasetKind, NodeGenConfig,
};
use adamgnn_repro::eval::{
    FrozenModel, GraphModelKind, MinibatchConfig, NodeModelKind, RunOutcome, SessionKind,
    TrainConfig, TrainSession,
};
use mg_ckpt::Checkpoint;
use mg_tensor::MgError;
use std::path::PathBuf;

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("mg_verify_ckpt_{}_{name}.mgck", std::process::id()))
}

fn node_ds() -> NodeDataset {
    make_node_dataset(
        NodeDatasetKind::Cora,
        &NodeGenConfig {
            scale: 0.05,
            max_feat_dim: 16,
            seed: 3,
        },
    )
}

fn cfg(epochs: usize) -> TrainConfig {
    TrainConfig {
        epochs,
        lr: 0.02,
        patience: 50,
        hidden: 12,
        levels: 2,
        seed: 5,
        ..Default::default()
    }
}

/// Bitwise outcome equality. `epoch_seconds` is wall-clock and excluded.
fn assert_outcomes_bitwise(a: &RunOutcome, b: &RunOutcome, what: &str) {
    assert_eq!(
        a.test_metric.to_bits(),
        b.test_metric.to_bits(),
        "{what}: test_metric differs"
    );
    assert_eq!(
        a.val_metric.map(f64::to_bits),
        b.val_metric.map(f64::to_bits),
        "{what}: val_metric differs"
    );
    assert_eq!(a.epochs_run, b.epochs_run, "{what}: epochs_run differs");
    assert_eq!(
        a.trace.records.len(),
        b.trace.records.len(),
        "{what}: trace length differs"
    );
    for (ra, rb) in a.trace.records.iter().zip(&b.trace.records) {
        assert_eq!(ra.epoch, rb.epoch, "{what}: trace epoch differs");
        assert_eq!(
            ra.loss.to_bits(),
            rb.loss.to_bits(),
            "{what}: epoch {} loss differs",
            ra.epoch
        );
        assert_eq!(
            ra.val.to_bits(),
            rb.val.to_bits(),
            "{what}: epoch {} val differs",
            ra.epoch
        );
    }
}

/// The core contract, per task: full run == (prefix run, checkpoint,
/// resume to full budget), bitwise.
fn check_resume_equals_uninterrupted(kind: SessionKind, run: impl Fn(&TrainSession) -> RunOutcome) {
    let path = tmp(kind.task_name());
    let _ = std::fs::remove_file(&path);

    let full = run(&TrainSession::new(kind, &cfg(8)));
    let prefix = run(&TrainSession::new(kind, &cfg(3)).checkpoint_to(&path));
    let resumed = run(&TrainSession::new(kind, &cfg(8)).resume_from(&path));

    assert_eq!(
        prefix.trace.records.len(),
        3,
        "{}: prefix run must stop at its budget",
        kind.task_name()
    );
    assert_outcomes_bitwise(&full, &resumed, kind.task_name());
    let _ = std::fs::remove_file(&path);
}

#[test]
fn node_classification_resume_equals_uninterrupted() {
    let ds = node_ds();
    check_resume_equals_uninterrupted(
        SessionKind::NodeClassification(NodeModelKind::AdamGnn),
        |s| s.run(&ds).expect("session runs"),
    );
}

#[test]
fn link_prediction_resume_equals_uninterrupted() {
    let ds = node_ds();
    check_resume_equals_uninterrupted(SessionKind::LinkPrediction(NodeModelKind::Gcn), |s| {
        s.run(&ds).expect("session runs")
    });
}

#[test]
fn graph_classification_resume_equals_uninterrupted() {
    let ds = make_graph_dataset(
        GraphDatasetKind::Proteins,
        &GraphGenConfig {
            scale: 0.02,
            max_nodes: 20,
            seed: 1,
        },
    );
    check_resume_equals_uninterrupted(SessionKind::GraphClassification(GraphModelKind::Gin), |s| {
        s.run(&ds).expect("session runs")
    });
}

#[test]
fn node_clustering_resume_equals_uninterrupted() {
    let ds = node_ds();
    check_resume_equals_uninterrupted(SessionKind::NodeClustering(NodeModelKind::Gcn), |s| {
        s.run(&ds).expect("session runs")
    });
}

/// The sampled leg of the same contract for link prediction: the edge
/// shuffle, fanout draws and in-subgraph negatives all replay from the
/// restored RNG position.
#[test]
fn sampled_link_prediction_resume_equals_uninterrupted() {
    let ds = node_ds();
    let kind = SessionKind::LinkPrediction(NodeModelKind::AdamGnn);
    let sampled = |s: TrainSession| {
        s.minibatch(MinibatchConfig {
            batch_size: 32,
            fanouts: vec![6, 6],
        })
        .run(&ds)
        .expect("sampled session runs")
    };
    let path = tmp("sampled_link_prediction");
    let _ = std::fs::remove_file(&path);

    let full = sampled(TrainSession::new(kind, &cfg(8)));
    let prefix = sampled(TrainSession::new(kind, &cfg(3)).checkpoint_to(&path));
    let resumed = sampled(TrainSession::new(kind, &cfg(8)).resume_from(&path));

    assert_eq!(
        prefix.trace.records.len(),
        3,
        "prefix run stops at its budget"
    );
    assert_outcomes_bitwise(&full, &resumed, "sampled link prediction");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn checkpointing_is_pure_observation() {
    let ds = node_ds();
    let kind = SessionKind::NodeClassification(NodeModelKind::AdamGnn);
    let path = tmp("observation");
    let plain = TrainSession::new(kind, &cfg(6)).run(&ds).expect("runs");
    let ckpted = TrainSession::new(kind, &cfg(6))
        .checkpoint_to(&path)
        .checkpoint_every(2)
        .run(&ds)
        .expect("runs");
    assert_outcomes_bitwise(&plain, &ckpted, "checkpointing on vs off");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn resume_from_completed_run_is_identity() {
    let ds = node_ds();
    let kind = SessionKind::NodeClassification(NodeModelKind::Gcn);
    let path = tmp("identity");
    let full = TrainSession::new(kind, &cfg(5))
        .checkpoint_to(&path)
        .run(&ds)
        .expect("runs");
    let resumed = TrainSession::new(kind, &cfg(5))
        .resume_from(&path)
        .run(&ds)
        .expect("resume runs");
    assert_outcomes_bitwise(&full, &resumed, "resume from completed run");
    let _ = std::fs::remove_file(&path);
}

/// A checkpoint written at the early stop must not train further on
/// resume, even though `next_epoch` is below the budget.
#[test]
fn early_stop_checkpoint_resumes_without_further_training() {
    let ds = node_ds();
    let kind = SessionKind::NodeClassification(NodeModelKind::Gcn);
    let path = tmp("earlystop");
    let mut c = cfg(12);
    c.patience = 1;
    let full = TrainSession::new(kind, &c)
        .checkpoint_to(&path)
        .run(&ds)
        .expect("runs");
    let resumed = TrainSession::new(kind, &c)
        .resume_from(&path)
        .run(&ds)
        .expect("resume runs");
    assert_outcomes_bitwise(&full, &resumed, "resume after early stop");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn trained_checkpoint_save_load_save_is_byte_identical() {
    let ds = node_ds();
    let path = tmp("roundtrip");
    TrainSession::new(
        SessionKind::NodeClassification(NodeModelKind::AdamGnn),
        &cfg(4),
    )
    .checkpoint_to(&path)
    .run(&ds)
    .expect("runs");
    let bytes = std::fs::read(&path).expect("checkpoint file exists");
    let ck = match Checkpoint::from_bytes(&bytes) {
        Ok(ck) => ck,
        Err(e) => panic!("trained checkpoint fails to load: {e}"),
    };
    assert_eq!(
        ck.to_bytes(),
        bytes,
        "save -> load -> save must be byte-identical"
    );
    assert!(
        ck.structure.is_some(),
        "AdamGNN checkpoint records its pooling structure"
    );
    let _ = std::fs::remove_file(&path);
}

/// Walk the section framing of a real trained checkpoint and damage each
/// section's payload in turn: every one must be rejected with a typed
/// error. Magic, version and truncation failures are checked alongside.
#[test]
fn corruption_in_every_section_is_rejected() {
    let ds = node_ds();
    let path = tmp("corruption");
    TrainSession::new(
        SessionKind::NodeClassification(NodeModelKind::AdamGnn),
        &cfg(3),
    )
    .checkpoint_to(&path)
    .run(&ds)
    .expect("runs");
    let good = std::fs::read(&path).expect("checkpoint file exists");
    let _ = std::fs::remove_file(&path);
    assert!(Checkpoint::from_bytes(&good).is_ok());

    // Frame layout: tag u8, len u64 LE, payload, crc u32 LE.
    let mut pos = 8; // magic + version
    let mut sections = 0;
    while pos < good.len() {
        let len = u64::from_le_bytes(good[pos + 1..pos + 9].try_into().unwrap()) as usize;
        let payload_mid = pos + 9 + len / 2;
        let mut bad = good.clone();
        bad[payload_mid] ^= 0x10;
        match Checkpoint::from_bytes(&bad) {
            Err(MgError::Corrupt { .. } | MgError::Truncated { .. }) => {}
            Err(other) => panic!("section {sections}: unexpected error {other}"),
            Ok(_) => panic!("section {sections}: payload corruption not detected"),
        }
        pos += 9 + len + 4;
        sections += 1;
    }
    assert_eq!(pos, good.len(), "section walk must cover the whole file");
    assert_eq!(sections, mg_ckpt::SECTIONS.len());

    // Wrong magic.
    let mut bad = good.clone();
    bad[0] ^= 0xFF;
    assert!(matches!(
        Checkpoint::from_bytes(&bad),
        Err(MgError::BadMagic { .. })
    ));

    // Version skew.
    let mut bad = good.clone();
    bad[4] = bad[4].wrapping_add(1);
    assert!(matches!(
        Checkpoint::from_bytes(&bad),
        Err(MgError::UnsupportedVersion { .. })
    ));

    // Truncation at a spread of cut points (the exhaustive per-byte walk
    // lives in mg-ckpt's unit tests; a trained file is large).
    for frac in [0, 1, 2, 5, 30, 70, 95, 99] {
        let cut = good.len() * frac / 100;
        match Checkpoint::from_bytes(&good[..cut]) {
            Err(MgError::Truncated { .. } | MgError::Corrupt { .. } | MgError::BadMagic { .. }) => {
            }
            Err(other) => panic!("cut at {frac}%: unexpected error {other}"),
            Ok(_) => panic!("cut at {frac}%: truncated checkpoint loaded"),
        }
    }
}

#[test]
fn resume_rejects_mismatched_jobs() {
    let ds = node_ds();
    let path = tmp("mismatch");
    TrainSession::new(SessionKind::NodeClassification(NodeModelKind::Gcn), &cfg(3))
        .checkpoint_to(&path)
        .run(&ds)
        .expect("runs");

    // Different task, same dataset.
    assert!(matches!(
        TrainSession::new(SessionKind::LinkPrediction(NodeModelKind::Gcn), &cfg(3))
            .resume_from(&path)
            .run(&ds),
        Err(MgError::Mismatch { .. })
    ));

    // Different model.
    assert!(matches!(
        TrainSession::new(
            SessionKind::NodeClassification(NodeModelKind::AdamGnn),
            &cfg(3)
        )
        .resume_from(&path)
        .run(&ds),
        Err(MgError::Mismatch { .. })
    ));

    // Different training configuration (seed).
    let mut other = cfg(3);
    other.seed = 6;
    assert!(matches!(
        TrainSession::new(SessionKind::NodeClassification(NodeModelKind::Gcn), &other)
            .resume_from(&path)
            .run(&ds),
        Err(MgError::Mismatch { .. })
    ));

    // Different dataset.
    let acm = make_node_dataset(
        NodeDatasetKind::Acm,
        &NodeGenConfig {
            scale: 0.05,
            max_feat_dim: 16,
            seed: 3,
        },
    );
    assert!(matches!(
        TrainSession::new(SessionKind::NodeClassification(NodeModelKind::Gcn), &cfg(3))
            .resume_from(&path)
            .run(&acm),
        Err(MgError::Mismatch { .. })
    ));

    let _ = std::fs::remove_file(&path);
}

/// Frozen inference is deterministic: two independent loads of the same
/// checkpoint serve bit-identical outputs, with the pinned structure.
#[test]
fn frozen_inference_is_deterministic_across_loads() {
    let ds = node_ds();
    let path = tmp("frozen");
    TrainSession::new(
        SessionKind::NodeClassification(NodeModelKind::AdamGnn),
        &cfg(4),
    )
    .checkpoint_to(&path)
    .run(&ds)
    .expect("runs");

    let a = FrozenModel::load(&path).expect("first load");
    let b = FrozenModel::load(&path).expect("second load");
    assert!(a.structure().is_some());
    let ctx = adamgnn_repro::nn::GraphCtx::new(ds.graph.clone(), ds.features.clone());
    let oa = a.node_outputs(&ctx).expect("forward");
    let ob = b.node_outputs(&ctx).expect("forward");
    assert_eq!(oa.rows(), ds.n());
    for (x, y) in oa.data().iter().zip(ob.data()) {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "frozen outputs must be bitwise stable"
        );
    }
    assert_eq!(
        a.predict_labels(&ctx).expect("labels"),
        b.predict_labels(&ctx).expect("labels")
    );
    let _ = std::fs::remove_file(&path);
}
