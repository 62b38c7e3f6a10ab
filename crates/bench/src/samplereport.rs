//! Sampled-minibatch quality and scalability report, the body of
//! `BENCH_sample.json`.
//!
//! The `sample_report` binary answers two questions the minibatch path
//! must keep answering as the code evolves:
//!
//! 1. **Does sampling learn?** It trains the mg-verify node-classification
//!    and link-prediction fixtures twice — full-batch and with sampled
//!    ego-subgraph minibatches — under the same config and seed, and
//!    fails unless the sampled run's best validation metric lands within
//!    [`GAP_TOLERANCE`] of the full-batch run's.
//! 2. **Does it scale?** It generates the default million-node
//!    [`BigGraphConfig`] graph through the streaming CSR builder, fails
//!    if the builder's accounted peak exceeds the declared byte budget,
//!    and then runs one sampled training epoch over it — a path that
//!    never materializes a full-graph context.
//!
//! ```text
//! cargo run --release -p mg-bench --bin sample_report
//! ```

use mg_data::{make_node_dataset, BigGraph, BigGraphConfig, NodeDatasetKind, NodeGenConfig};
use mg_eval::{MinibatchConfig, NodeModelKind, SessionKind, TrainConfig, TrainSession};
use mg_obs::Json;

/// Maximum allowed shortfall of the sampled run's best validation metric
/// against the full-batch run's (2 accuracy/AUC points). A sampled run
/// that *beats* full-batch passes unconditionally.
pub const GAP_TOLERANCE: f64 = 0.02;

/// One fixture's full-batch vs sampled comparison.
#[derive(Clone, Debug)]
pub struct TaskGap {
    pub task: &'static str,
    pub full_val: f64,
    pub sampled_val: f64,
    pub full_test: f64,
    pub sampled_test: f64,
    pub batch_size: usize,
    pub fanouts: Vec<usize>,
    pub epochs: usize,
}

impl TaskGap {
    /// How far the sampled run fell short of full-batch on validation
    /// (negative when it did better).
    pub fn gap(&self) -> f64 {
        self.full_val - self.sampled_val
    }

    fn json(&self) -> Json {
        Json::obj([
            ("task", self.task.into()),
            ("epochs", self.epochs.into()),
            ("batch_size", self.batch_size.into()),
            ("fanouts", self.fanouts.clone().into()),
            ("full_val", self.full_val.into()),
            ("sampled_val", self.sampled_val.into()),
            ("gap", self.gap().into()),
            ("full_test", self.full_test.into()),
            ("sampled_test", self.sampled_test.into()),
        ])
    }
}

fn fixture_gap(
    task: &'static str,
    kind: SessionKind,
    ds_kind: NodeDatasetKind,
    gen_seed: u64,
    cfg_seed: u64,
    epochs: usize,
) -> Result<TaskGap, String> {
    let ds = make_node_dataset(
        ds_kind,
        &NodeGenConfig {
            scale: 0.05,
            max_feat_dim: 32,
            seed: gen_seed,
        },
    );
    let cfg = TrainConfig {
        epochs,
        lr: 0.02,
        patience: epochs,
        hidden: 16,
        levels: 2,
        seed: cfg_seed,
        ..Default::default()
    };
    let mb = MinibatchConfig {
        batch_size: 32,
        fanouts: vec![12, 12],
    };
    let full = TrainSession::new(kind, &cfg)
        .run(&ds)
        .map_err(|e| format!("{task} full-batch run failed: {e}"))?;
    let sampled = TrainSession::new(kind, &cfg)
        .minibatch(mb.clone())
        .run(&ds)
        .map_err(|e| format!("{task} sampled run failed: {e}"))?;
    let out = TaskGap {
        task,
        full_val: full.val_metric.unwrap_or(f64::NAN),
        sampled_val: sampled.val_metric.unwrap_or(f64::NAN),
        full_test: full.test_metric,
        sampled_test: sampled.test_metric,
        batch_size: mb.batch_size,
        fanouts: mb.fanouts,
        epochs,
    };
    // NaN gaps (a run without a validation metric) must fail too
    if out.gap() > GAP_TOLERANCE || out.gap().is_nan() {
        return Err(format!(
            "{task}: sampled val {:.4} trails full-batch val {:.4} by {:.4} \
             (tolerance {GAP_TOLERANCE})",
            out.sampled_val,
            out.full_val,
            out.gap()
        ));
    }
    Ok(out)
}

/// The million-node streaming + sampled-epoch measurement.
fn big_graph_epoch() -> Result<Json, String> {
    let cfg = BigGraphConfig::default();
    let big = BigGraph::generate(&cfg);
    if big.peak_bytes > cfg.byte_budget {
        return Err(format!(
            "streaming builder peak {} exceeds its declared budget {}",
            big.peak_bytes, cfg.byte_budget
        ));
    }
    let train_cfg = TrainConfig {
        epochs: 1,
        lr: 0.02,
        hidden: 16,
        levels: 2,
        seed: 3,
        ..Default::default()
    };
    let mb = MinibatchConfig {
        batch_size: 128,
        fanouts: vec![6, 6],
    };
    let epoch =
        mg_eval::sampled_epochs_streamed(&big, NodeModelKind::AdamGnn, &train_cfg, &mb, 1024)
            .map_err(|e| format!("million-node sampled epoch failed: {e}"))?;
    use mg_data::NodeFeatureSource;
    Ok(Json::obj([
        ("nodes", big.n().into()),
        ("edges", big.graph().num_edges().into()),
        ("byte_budget", cfg.byte_budget.into()),
        ("peak_bytes", big.peak_bytes.into()),
        ("steps", epoch.steps.into()),
        ("mean_loss", epoch.mean_loss.into()),
        ("sampled_nodes", epoch.sampled_nodes.into()),
        ("truncated", epoch.truncated.into()),
    ]))
}

/// Run both fixture comparisons and the million-node epoch, and return
/// the report body.
pub fn run() -> Result<Json, String> {
    let nc = fixture_gap(
        "node_classification",
        SessionKind::NodeClassification(NodeModelKind::AdamGnn),
        NodeDatasetKind::Cora,
        11,
        1,
        20,
    )?;
    let lp = fixture_gap(
        "link_prediction",
        SessionKind::LinkPrediction(NodeModelKind::AdamGnn),
        NodeDatasetKind::Emails,
        23,
        2,
        12,
    )?;
    Ok(Json::obj([
        ("gap_tolerance", GAP_TOLERANCE.into()),
        ("tasks", Json::Arr(vec![nc.json(), lp.json()])),
        ("big_graph", big_graph_epoch()?),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gap_math() {
        let t = TaskGap {
            task: "node_classification",
            full_val: 0.8,
            sampled_val: 0.79,
            full_test: 0.75,
            sampled_test: 0.74,
            batch_size: 32,
            fanouts: vec![12, 12],
            epochs: 20,
        };
        assert!((t.gap() - 0.01).abs() < 1e-12);
    }
}
