//! Where training checkpoints its tape when nothing says otherwise:
//! the full-batch node trainer runs its training forward checkpointed,
//! while graph classification and the sampled trainer retain. An explicit
//! `with_ckpt_tape` wins everywhere. Checkpointing must never change a
//! result, only the tape's peak, so each default run is compared bitwise
//! with the retained run, and its per-epoch `peak_tape_bytes` (read from
//! the mg-obs trace) with the explicitly set runs'.
//!
//! The tests live in their own binary because `MG_TRACE` is process
//! global, and serialise on [`ENV_LOCK`].

use adamgnn_core::with_ckpt_tape;
use mg_data::{make_graph_dataset, make_node_dataset, GraphDatasetKind, GraphGenConfig};
use mg_data::{NodeDatasetKind, NodeGenConfig};
use mg_eval::{GraphModelKind, MinibatchConfig, NodeModelKind, RunOutcome, SessionInput};
use mg_eval::{SessionKind, TrainConfig, TrainSession};
use mg_obs::validate_trace;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Guards every MG_TRACE mutation in this binary.
static ENV_LOCK: Mutex<()> = Mutex::new(());

/// Take [`ENV_LOCK`]; a test that failed while holding it says so
/// itself, so the next one still runs.
fn env_lock() -> MutexGuard<'static, ()> {
    ENV_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn cfg() -> TrainConfig {
    TrainConfig {
        epochs: 3,
        lr: 0.02,
        patience: 3,
        hidden: 16,
        levels: 2,
        seed: 1,
        ..Default::default()
    }
}

/// A run's outcome and the `peak_tape_bytes` of each of its epochs.
struct Traced {
    outcome: RunOutcome,
    peaks: Vec<u64>,
}

/// Run `session` on `input` with `MG_TRACE` pointed at a fresh file.
fn traced<'a>(session: &TrainSession, input: impl Into<SessionInput<'a>>, tag: &str) -> Traced {
    let path =
        std::env::temp_dir().join(format!("mg_ckpt_policy_{tag}_{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    std::env::set_var("MG_TRACE", &path);
    let outcome = session.run(input).expect("training runs");
    std::env::remove_var("MG_TRACE");
    let text = std::fs::read_to_string(&path).expect("trace written");
    let _ = std::fs::remove_file(&path);
    let peaks = validate_trace(&text)
        .expect("valid trace")
        .epoch_peak_tape_bytes;
    assert_eq!(peaks.len(), outcome.epochs_run, "one record per epoch");
    Traced { outcome, peaks }
}

/// `(nothing set, with_ckpt_tape(false), with_ckpt_tape(true))` runs.
fn three_modes<'a>(
    session: &TrainSession,
    input: impl Into<SessionInput<'a>> + Copy,
) -> [Traced; 3] {
    [
        traced(session, input, "default"),
        with_ckpt_tape(false, || traced(session, input, "retained")),
        with_ckpt_tape(true, || traced(session, input, "checkpointed")),
    ]
}

fn assert_same_outcome(label: &str, a: &RunOutcome, b: &RunOutcome) {
    assert_eq!(a.trace, b.trace, "{label}: training trace");
    assert_eq!(
        a.test_metric.to_bits(),
        b.test_metric.to_bits(),
        "{label}: test metric"
    );
}

fn node_ds() -> mg_data::NodeDataset {
    make_node_dataset(
        NodeDatasetKind::Cora,
        &NodeGenConfig {
            scale: 0.05,
            max_feat_dim: 32,
            seed: 11,
        },
    )
}

#[test]
fn full_batch_node_training_checkpoints_by_default() {
    let _guard = env_lock();
    let ds = node_ds();
    let session = TrainSession::new(
        SessionKind::NodeClassification(NodeModelKind::AdamGnn),
        &cfg(),
    );
    let [default, retained, ckpt] = three_modes(&session, &ds);
    assert_same_outcome("default vs retained", &default.outcome, &retained.outcome);
    assert_same_outcome("checkpointed vs retained", &ckpt.outcome, &retained.outcome);
    assert_eq!(default.peaks, ckpt.peaks, "the default run checkpoints");
    for (d, r) in default.peaks.iter().zip(&retained.peaks) {
        assert!(d < r, "checkpointed peak {d} must sit below retained {r}");
    }
}

#[test]
fn graph_classification_and_sampled_training_retain_by_default() {
    let _guard = env_lock();
    let graphs = make_graph_dataset(
        GraphDatasetKind::Mutag,
        &GraphGenConfig {
            scale: 0.02,
            max_nodes: 20,
            seed: 0,
        },
    );
    let ds = node_ds();
    let gc = TrainSession::new(
        SessionKind::GraphClassification(GraphModelKind::AdamGnn),
        &cfg(),
    );
    let sampled = TrainSession::new(
        SessionKind::NodeClassification(NodeModelKind::AdamGnn),
        &cfg(),
    )
    .minibatch(MinibatchConfig {
        batch_size: 16,
        fanouts: vec![4, 4],
    });
    let runs = [
        ("graph classification", three_modes(&gc, &graphs)),
        ("sampled", three_modes(&sampled, &ds)),
    ];
    for (label, [default, retained, ckpt]) in runs {
        assert_same_outcome(label, &default.outcome, &retained.outcome);
        assert_same_outcome(label, &ckpt.outcome, &retained.outcome);
        assert_eq!(
            default.peaks, retained.peaks,
            "{label}: the default retains"
        );
        assert_ne!(ckpt.peaks, retained.peaks, "{label}: the modes differ");
    }
}
