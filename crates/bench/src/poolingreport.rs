//! Table-4-style pooling-operator benchmark matrix, the body of
//! `BENCH_pooling.json`.
//!
//! The `pooling_report` binary trains the same three tasks — node
//! classification, link prediction and graph classification — once per
//! shipped [`PoolingKind`], everything else held fixed (dataset, seed,
//! width, levels). Each cell reports the val/test metrics and the mean
//! wall-clock seconds per epoch, which is exactly the comparison the
//! paper's Table 4 draws between AdamGNN and rival hierarchical pooling
//! methods.
//!
//! ```text
//! cargo run --release -p mg-bench --bin pooling_report
//! ```
//!
//! The run **fails** (non-zero exit) if any cell's training loss or
//! metric goes non-finite — a rival operator that diverges is a bug in
//! the operator, not a benchmark result. The trainer rejects a
//! non-finite loss and the report writer a non-finite metric.

use adamgnn_core::PoolingKind;
use mg_data::{
    make_graph_dataset, make_node_dataset, GraphDatasetKind, GraphGenConfig, NodeDatasetKind,
    NodeGenConfig,
};
use mg_eval::{GraphModelKind, NodeModelKind, RunOutcome, SessionKind, TrainConfig, TrainSession};
use mg_obs::Json;
use std::time::Instant;

/// Sizing knobs: the binary uses scales 0.08/0.04 and 12 epochs, tests
/// shrink all three.
#[derive(Clone, Copy, Debug)]
pub struct MatrixConfig {
    pub node_scale: f64,
    pub graph_scale: f64,
    pub epochs: usize,
}

fn train_cfg(epochs: usize, seed: u64, pooling: PoolingKind) -> TrainConfig {
    TrainConfig {
        epochs,
        lr: 0.02,
        patience: epochs,
        hidden: 16,
        levels: 2,
        seed,
        pooling,
        ..Default::default()
    }
}

/// One (task, operator) cell of the matrix; `mean_epoch_s` is the mean
/// wall-clock seconds per training epoch (Table 4's metric).
fn cell(task: &str, kind: PoolingKind, res: &RunOutcome, mean_epoch_s: f64) -> Json {
    Json::obj([
        ("task", task.into()),
        ("pooling", kind.name().into()),
        ("val_metric", res.val_metric.unwrap_or(f64::NAN).into()),
        ("test_metric", res.test_metric.into()),
        ("epochs_run", res.epochs_run.into()),
        ("mean_epoch_s", mean_epoch_s.into()),
    ])
}

/// Run the full task × operator matrix and return the report body, one
/// cell per (task, operator) in matrix order. Within a task every
/// operator sees the identical dataset, split seeds and budget, so the
/// cells are directly comparable.
pub fn run_matrix(cfg: &MatrixConfig) -> Result<Json, String> {
    let node_ds = make_node_dataset(
        NodeDatasetKind::Cora,
        &NodeGenConfig {
            scale: cfg.node_scale,
            max_feat_dim: 32,
            seed: 11,
        },
    );
    let link_ds = make_node_dataset(
        NodeDatasetKind::Emails,
        &NodeGenConfig {
            scale: cfg.node_scale,
            max_feat_dim: 32,
            seed: 23,
        },
    );
    let graph_ds = make_graph_dataset(
        GraphDatasetKind::Mutag,
        &GraphGenConfig {
            scale: cfg.graph_scale,
            max_nodes: 20,
            seed: 5,
        },
    );

    let mut cells = Vec::with_capacity(3 * PoolingKind::ALL.len());
    for kind in PoolingKind::ALL {
        // node classification
        let started = Instant::now();
        let res = TrainSession::new(
            SessionKind::NodeClassification(NodeModelKind::AdamGnn),
            &train_cfg(cfg.epochs, 1, kind),
        )
        .run(&node_ds)
        .map_err(|e| format!("node_classification / {}: {e}", kind.name()))?;
        let epoch_s = started.elapsed().as_secs_f64() / res.epochs_run.max(1) as f64;
        cells.push(cell("node_classification", kind, &res, epoch_s));

        // link prediction
        let started = Instant::now();
        let res = TrainSession::new(
            SessionKind::LinkPrediction(NodeModelKind::AdamGnn),
            &train_cfg(cfg.epochs, 2, kind),
        )
        .run(&link_ds)
        .map_err(|e| format!("link_prediction / {}: {e}", kind.name()))?;
        let epoch_s = started.elapsed().as_secs_f64() / res.epochs_run.max(1) as f64;
        cells.push(cell("link_prediction", kind, &res, epoch_s));

        // graph classification (epoch timing straight from the trainer,
        // which excludes evaluation — the Table 4 protocol)
        let res = TrainSession::new(
            SessionKind::GraphClassification(GraphModelKind::AdamGnn),
            &train_cfg(cfg.epochs, 3, kind),
        )
        .run(&graph_ds)
        .map_err(|e| format!("graph_classification / {}: {e}", kind.name()))?;
        let epoch_s = res.epoch_seconds.unwrap_or(f64::NAN);
        cells.push(cell("graph_classification", kind, &res, epoch_s));
    }
    let operators = PoolingKind::ALL.map(|k| k.name()).to_vec();
    Ok(Json::obj([
        ("operators", operators.into()),
        ("cells", cells.into()),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny matrix end to end: all nine cells run, three per operator,
    /// and every number in the body is finite.
    #[test]
    fn tiny_matrix_produces_all_nine_cells() {
        let v = run_matrix(&MatrixConfig {
            node_scale: 0.03,
            graph_scale: 0.02,
            epochs: 2,
        })
        .expect("matrix runs");
        let cells = v.get("cells").and_then(Json::as_arr).unwrap();
        assert_eq!(cells.len(), 9);
        let ops = v.get("operators").and_then(Json::as_arr).unwrap();
        assert_eq!(ops.len(), PoolingKind::ALL.len());
        for kind in PoolingKind::ALL {
            let of_kind = |c: &&Json| c.get("pooling").and_then(Json::as_str) == Some(kind.name());
            assert_eq!(cells.iter().filter(of_kind).count(), 3);
        }
        for c in cells {
            crate::report::assert_keys(c, &["task", "val_metric", "test_metric", "mean_epoch_s"]);
        }
        assert_eq!(crate::report::non_finite(&v, ""), None, "{v}");
    }
}
