//! Seeded end-to-end training runs shared by the golden-trace and
//! differential (serial-vs-parallel) tests.
//!
//! One fixed run per task family (node classification, link prediction,
//! graph classification, node clustering) and batch source (full-batch,
//! sampled, streamed) plus seed-parameterised variants for the
//! differential fuzzer. Every run goes through [`TrainSession`] (the
//! streamed run through `sampled_epochs_streamed`) in mg-eval, so a run is fully described by its [`Golden`]: summary
//! metrics plus the per-epoch loss/metric trace. The serial build's
//! traces are checked in under `tests/goldens/`; the parallel build (and
//! every pool width) must reproduce them bit for bit — that is PR 1's
//! kernel-level determinism guarantee promoted to whole training loops.

use crate::golden::Golden;
use mg_data::{
    make_graph_dataset, make_node_dataset, BigGraph, BigGraphConfig, GraphDatasetKind,
    GraphGenConfig, NodeDatasetKind, NodeGenConfig,
};
use mg_eval::{
    build_contexts, sampled_epochs_streamed, GraphModelKind, MinibatchConfig, NodeModelKind,
    SessionInput, SessionKind, TrainConfig, TrainSession, TrainTrace,
};
use std::path::PathBuf;

/// Directory holding the checked-in golden traces (repo-level
/// `tests/goldens/`), resolved relative to this crate so every test
/// binary agrees on it.
pub fn goldens_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/goldens")
}

/// Training config for the verification runs: small enough to finish in
/// seconds, big enough to exercise multi-level pooling and all three
/// loss terms.
pub fn verify_cfg(seed: u64, epochs: usize) -> TrainConfig {
    TrainConfig {
        epochs,
        lr: 0.02,
        patience: epochs,
        hidden: 16,
        levels: 2,
        seed,
        ..Default::default()
    }
}

/// The seeded node-classification run (AdamGNN on a synthetic citation
/// graph). `variant` varies dataset and training seeds for the fuzzer;
/// variant 0 is the checked-in golden.
pub fn node_cls_run(variant: u64) -> Golden {
    let ds = make_node_dataset(
        NodeDatasetKind::Cora,
        &NodeGenConfig {
            scale: 0.05,
            max_feat_dim: 32,
            seed: 11 + variant,
        },
    );
    let res = TrainSession::new(
        SessionKind::NodeClassification(NodeModelKind::AdamGnn),
        &verify_cfg(1 + variant, 8),
    )
    .run(&ds)
    .expect("node classification failed");
    Golden::new(
        format!("node_cls_adamgnn_v{variant}"),
        vec![
            ("test_metric".into(), res.test_metric),
            ("val_metric".into(), res.val_metric.unwrap_or(f64::NAN)),
            ("epochs_run".into(), res.epochs_run as f64),
        ],
        res.trace,
    )
}

/// The sampler settings of the sampled verification runs.
fn verify_minibatch() -> MinibatchConfig {
    MinibatchConfig {
        batch_size: 32,
        fanouts: vec![8, 8],
    }
}

/// The seeded *sampled-minibatch* node-classification run: the same
/// fixture as [`node_cls_run`] trained through ego-subgraph minibatches
/// (`TrainSession::minibatch`). Sampled batch composition is its own RNG
/// consumer, so this run has a golden of its own; the differential suite
/// also holds it bitwise repeatable within a build.
pub fn sampled_node_cls_run(variant: u64) -> Golden {
    let ds = make_node_dataset(
        NodeDatasetKind::Cora,
        &NodeGenConfig {
            scale: 0.05,
            max_feat_dim: 32,
            seed: 11 + variant,
        },
    );
    let res = TrainSession::new(
        SessionKind::NodeClassification(NodeModelKind::AdamGnn),
        &verify_cfg(1 + variant, 8),
    )
    .minibatch(verify_minibatch())
    .run(&ds)
    .expect("sampled node classification failed");
    Golden::new(
        format!("sampled_node_cls_adamgnn_v{variant}"),
        vec![
            ("test_metric".into(), res.test_metric),
            ("val_metric".into(), res.val_metric.unwrap_or(f64::NAN)),
            ("epochs_run".into(), res.epochs_run as f64),
        ],
        res.trace,
    )
}

/// The seeded link-prediction run (AdamGNN encoder, inner-product
/// decoder).
pub fn link_pred_run(variant: u64) -> Golden {
    let ds = make_node_dataset(
        NodeDatasetKind::Emails,
        &NodeGenConfig {
            scale: 0.05,
            max_feat_dim: 32,
            seed: 23 + variant,
        },
    );
    let res = TrainSession::new(
        SessionKind::LinkPrediction(NodeModelKind::AdamGnn),
        &verify_cfg(2 + variant, 6),
    )
    .run(&ds)
    .expect("link prediction failed");
    Golden::new(
        format!("link_pred_adamgnn_v{variant}"),
        vec![
            ("test_metric".into(), res.test_metric),
            ("val_metric".into(), res.val_metric.unwrap_or(f64::NAN)),
            ("epochs_run".into(), res.epochs_run as f64),
        ],
        res.trace,
    )
}

/// The seeded *sampled-minibatch* link-prediction run: the fixture of
/// [`link_pred_run`] trained through ego-subgraph minibatches of
/// training edges.
pub fn sampled_link_pred_run(variant: u64) -> Golden {
    let ds = make_node_dataset(
        NodeDatasetKind::Emails,
        &NodeGenConfig {
            scale: 0.05,
            max_feat_dim: 32,
            seed: 23 + variant,
        },
    );
    let res = TrainSession::new(
        SessionKind::LinkPrediction(NodeModelKind::AdamGnn),
        &verify_cfg(2 + variant, 6),
    )
    .minibatch(verify_minibatch())
    .run(&ds)
    .expect("sampled link prediction failed");
    Golden::new(
        format!("sampled_link_pred_adamgnn_v{variant}"),
        vec![
            ("test_metric".into(), res.test_metric),
            ("val_metric".into(), res.val_metric.unwrap_or(f64::NAN)),
            ("epochs_run".into(), res.epochs_run as f64),
        ],
        res.trace,
    )
}

/// The seeded node-clustering run (AdamGNN embeddings, k-means, NMI).
/// Its trace rows carry `val = NaN`: clustering has no validation split.
pub fn node_clustering_run(variant: u64) -> Golden {
    let ds = make_node_dataset(
        NodeDatasetKind::Emails,
        &NodeGenConfig {
            scale: 0.05,
            max_feat_dim: 32,
            seed: 31 + variant,
        },
    );
    let res = TrainSession::new(
        SessionKind::NodeClustering(NodeModelKind::AdamGnn),
        &verify_cfg(4 + variant, 6),
    )
    .run(&ds)
    .expect("node clustering failed");
    Golden::new(
        format!("node_clustering_adamgnn_v{variant}"),
        vec![
            ("test_metric".into(), res.test_metric),
            ("epochs_run".into(), res.epochs_run as f64),
        ],
        res.trace,
    )
}

/// The seeded streamed run: sampled AdamGNN node classification straight
/// over a 5,000-node [`BigGraph`] through `sampled_epochs_streamed`. The
/// streamed path keeps no per-epoch trace, so the golden pins its summary
/// and leaves the trace empty.
pub fn streamed_run(variant: u64) -> Golden {
    let big = BigGraph::generate(&BigGraphConfig {
        n: 5000,
        classes: 5,
        avg_degree: 8,
        feat_dim: 20,
        seed: 3 + variant,
        byte_budget: 8 << 20,
    });
    let out = sampled_epochs_streamed(
        &big,
        NodeModelKind::AdamGnn,
        &verify_cfg(5 + variant, 2),
        &verify_minibatch(),
        96,
    )
    .expect("streamed training failed");
    Golden::new(
        format!("streamed_adamgnn_v{variant}"),
        vec![
            ("mean_loss".into(), out.mean_loss),
            ("steps".into(), out.steps as f64),
            ("sampled_nodes".into(), out.sampled_nodes as f64),
            ("truncated".into(), out.truncated as f64),
        ],
        TrainTrace::new(),
    )
}

/// The seeded graph-classification run (AdamGNN on motif-labelled
/// molecule-like graphs). `epoch_seconds` is wall clock and deliberately
/// NOT part of the golden.
pub fn graph_cls_run(variant: u64) -> Golden {
    let ds = make_graph_dataset(
        GraphDatasetKind::Mutag,
        &GraphGenConfig {
            scale: 0.04,
            max_nodes: 20,
            seed: 5 + variant,
        },
    );
    let contexts = build_contexts(&ds);
    let res = TrainSession::new(
        SessionKind::GraphClassification(GraphModelKind::AdamGnn),
        &verify_cfg(3 + variant, 4),
    )
    .run(SessionInput::Prebuilt {
        contexts: &contexts,
        feat_dim: ds.feat_dim,
    })
    .expect("graph classification failed");
    Golden::new(
        format!("graph_cls_adamgnn_v{variant}"),
        vec![
            ("test_accuracy".into(), res.test_metric),
            ("val_accuracy".into(), res.val_metric.unwrap_or(f64::NAN)),
        ],
        res.trace,
    )
}

/// Bitwise comparison of two traces; `Err` pinpoints the first
/// divergence (epoch and which scalar).
pub fn assert_traces_bitwise(label: &str, a: &TrainTrace, b: &TrainTrace) -> Result<(), String> {
    if a.len() != b.len() {
        return Err(format!(
            "{label}: trace lengths differ ({} vs {})",
            a.len(),
            b.len()
        ));
    }
    for (ra, rb) in a.records.iter().zip(&b.records) {
        if ra.epoch != rb.epoch {
            return Err(format!(
                "{label}: epoch index diverged ({} vs {})",
                ra.epoch, rb.epoch
            ));
        }
        if ra.loss.to_bits() != rb.loss.to_bits() {
            return Err(format!(
                "{label}: epoch {} loss diverged: {:?} ({:016x}) vs {:?} ({:016x})",
                ra.epoch,
                ra.loss,
                ra.loss.to_bits(),
                rb.loss,
                rb.loss.to_bits()
            ));
        }
        if ra.val.to_bits() != rb.val.to_bits() {
            return Err(format!(
                "{label}: epoch {} val diverged: {:?} ({:016x}) vs {:?} ({:016x})",
                ra.epoch,
                ra.val,
                ra.val.to_bits(),
                rb.val,
                rb.val.to_bits()
            ));
        }
    }
    Ok(())
}

/// Run `f` with the ambient kernel pool overridden to `threads` threads
/// (parallel builds; the serial build has no pool to override).
#[cfg(feature = "parallel")]
pub fn with_threads<T>(threads: usize, f: impl FnOnce() -> T) -> T {
    mg_runtime::with_pool(std::sync::Arc::new(mg_runtime::Pool::new(threads)), f)
}
