//! Frozen-model inference benchmark, the body of `BENCH_infer.json`.
//!
//! The `infer` binary is the serving-side counterpart of `train_report`:
//! it obtains a checkpoint (loading `MG_CKPT_PATH` when it names a
//! compatible one, training a small seeded job otherwise), loads it back
//! through [`FrozenModel`], and measures forward-pass throughput over the
//! benchmark graph:
//!
//! ```text
//! cargo run --release -p mg-bench --bin infer
//! ```
//!
//! Every measured forward replays the checkpoint's pinned pooling
//! structure (AdamGNN), so serving latency here is the latency a
//! deployment would see — no ego-network formation on the hot path.
//! With `MG_TRACE` set, the job also appends one `infer` record to the
//! JSONL trace.

use mg_data::{make_node_dataset, NodeDataset, NodeDatasetKind, NodeGenConfig};
use mg_eval::{FrozenModel, NodeModelKind, SessionKind, TrainConfig, TrainSession};
use mg_nn::GraphCtx;
use mg_obs::{InferRecord, Json, Trace};
use mg_serve::{
    ApiRequest, ApiResponse, LinksRequest, LinksResponse, ModelService, NodesRequest, NodesResponse,
};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The benchmark's fixed dataset: the same seeded Cora analogue the
/// traced-training benchmark uses, so the two reports describe one
/// workload from both sides. Shared with the serving benchmark
/// (`servebench`), which loads the same checkpoint this job produces.
pub(crate) fn bench_dataset(scale: f64) -> NodeDataset {
    make_node_dataset(
        NodeDatasetKind::Cora,
        &NodeGenConfig {
            scale,
            max_feat_dim: 32,
            seed: 11,
        },
    )
}

/// An existing checkpoint is reusable only when it describes this exact
/// benchmark job; anything else (other dataset size, other task, corrupt
/// file) means retrain rather than serve stale or mismatched weights.
pub(crate) fn compatible(path: &Path, ds: &NodeDataset) -> bool {
    match FrozenModel::load(path) {
        Ok(m) => {
            let meta = m.meta();
            meta.task == "node_classification"
                && meta.n_nodes == ds.n()
                && meta.in_dim == ds.feat_dim()
                && meta.out_dim == ds.num_classes
        }
        Err(_) => false,
    }
}

/// Resolve the checkpoint location: an explicit override, else
/// `MG_CKPT_PATH`, else a per-process temp default.
pub(crate) fn checkpoint_destination(explicit: Option<&Path>) -> PathBuf {
    if let Some(p) = explicit {
        return p.to_path_buf();
    }
    match std::env::var("MG_CKPT_PATH") {
        Ok(p) if !p.is_empty() => PathBuf::from(p),
        _ => std::env::temp_dir().join(format!("mg_infer_bench_{}.mgc", std::process::id())),
    }
}

/// Obtain the benchmark checkpoint: reuse a compatible one at the
/// resolved path, train the seeded job otherwise. Returns the path, the
/// benchmark dataset, and whether training happened here. Shared with
/// the serving benchmark so both reports describe one model.
pub(crate) fn obtain_checkpoint(
    scale: f64,
    epochs: usize,
    ckpt_path: Option<&Path>,
) -> Result<(PathBuf, NodeDataset, bool), String> {
    let ds = bench_dataset(scale);
    let path = checkpoint_destination(ckpt_path);
    let trained_here = if path.exists() && compatible(&path, &ds) {
        false
    } else {
        let cfg = TrainConfig {
            epochs,
            lr: 0.02,
            patience: epochs,
            hidden: 16,
            levels: 2,
            seed: 1,
            ..Default::default()
        };
        TrainSession::new(
            SessionKind::NodeClassification(NodeModelKind::AdamGnn),
            &cfg,
        )
        .traced(false)
        .checkpoint_to(&path)
        .run(&ds)
        .map_err(|e| format!("training the benchmark checkpoint failed: {e}"))?;
        true
    };
    Ok((path, ds, trained_here))
}

/// Run the inference benchmark: obtain a checkpoint, freeze it, measure
/// `forwards` timed forward passes (after one untimed warm-up) and
/// return the report body. `ckpt_path` overrides the environment-driven
/// checkpoint location (tests use this to avoid cross-test env races).
///
/// `trained_here` says whether this run trained the checkpoint (vs
/// loading a compatible one); `distinct_classes` counts the classes
/// among the predicted labels — a collapse to one class flags a broken
/// load without pinning exact accuracy.
pub fn run_job(
    scale: f64,
    epochs: usize,
    forwards: usize,
    ckpt_path: Option<&Path>,
) -> Result<Json, String> {
    let started = Instant::now();
    let (path, ds, trained_here) = obtain_checkpoint(scale, epochs, ckpt_path)?;

    let model = FrozenModel::load(&path)
        .map_err(|e| format!("cannot load checkpoint {}: {e}", path.display()))?;
    let ctx = GraphCtx::new(ds.graph.clone(), ds.features.clone());
    let (meta_model, meta_dataset) = (model.meta().model.clone(), model.meta().dataset.clone());
    let pinned_structure = model.structure().is_some();
    // The sanity checks run through mg-serve's ModelService and wire
    // types: offline inference exercises exactly the request/response
    // path the online server exposes, so the two cannot drift.
    let svc = ModelService::new(model, ctx)
        .map_err(|e| format!("model/context pairing cannot serve: {e}"))?;

    // Warm-up request (untimed), reused as the prediction sanity check.
    // Encode → decode through the wire JSON to cover the serialization
    // the server would perform (floats round-trip bitwise).
    let all_ids: Vec<usize> = (0..ds.n()).collect();
    let nodes_req = NodesRequest { ids: all_ids };
    let nodes_req = NodesRequest::from_json(&nodes_req.to_json(), ds.n())
        .map_err(|e| format!("nodes request did not round-trip: {e}"))?;
    let labels = match svc
        .handle_one(ApiRequest::Nodes(nodes_req))
        .map_err(|e| format!("frozen forward failed: {e}"))?
    {
        ApiResponse::Nodes(resp) => {
            let resp = NodesResponse::from_json(&resp.to_json())
                .map_err(|e| format!("nodes response did not round-trip: {e}"))?;
            resp.labels
        }
        ApiResponse::Links(_) => return Err("nodes request answered with link scores".into()),
    };
    if labels.len() != ds.n() {
        return Err(format!(
            "frozen model produced {} predictions for {} nodes",
            labels.len(),
            ds.n()
        ));
    }
    let mut seen = vec![false; ds.num_classes];
    for &l in &labels {
        if l >= seen.len() {
            return Err(format!("label {l} outside the {} classes", seen.len()));
        }
        seen[l] = true;
    }
    let distinct_classes = seen.iter().filter(|&&s| s).count();

    // Exercise the link-scoring surface once: scores must be probabilities.
    let pairs: Vec<(usize, usize)> = (0..ds.n().saturating_sub(1).min(8))
        .map(|i| (i, i + 1))
        .collect();
    let links = match svc
        .handle_one(ApiRequest::Links(LinksRequest { pairs }))
        .map_err(|e| format!("link scoring failed: {e}"))?
    {
        ApiResponse::Links(resp) => {
            LinksResponse::from_json(&resp.to_json())
                .map_err(|e| format!("links response did not round-trip: {e}"))?
                .scores
        }
        ApiResponse::Nodes(_) => return Err("links request answered with node outputs".into()),
    };
    for s in links {
        if !(0.0..=1.0).contains(&s) {
            return Err(format!("link score {s} outside [0, 1]"));
        }
    }

    let timer = Instant::now();
    for _ in 0..forwards {
        let again = svc
            .forward()
            .map_err(|e| format!("frozen forward failed: {e}"))?;
        // Inference is deterministic; a shape drift mid-loop is a bug.
        if again.rows() != ds.n() {
            return Err("forward output shape changed between calls".into());
        }
    }
    let total_ns = timer.elapsed().as_nanos() as u64;

    let record = InferRecord {
        checkpoint: path.display().to_string(),
        model: meta_model,
        dataset: meta_dataset,
        n_nodes: ds.n(),
        pinned_structure,
        forwards,
        total_ns,
    };
    Trace::from_env(&svc.model().meta().task).infer(&record);
    let mean_forward_ms = total_ns as f64 / 1e6 / forwards.max(1) as f64;
    Ok(Json::obj([
        ("task", "node_classification".into()),
        ("model", record.model.into()),
        ("dataset", record.dataset.into()),
        ("checkpoint", record.checkpoint.into()),
        ("trained_here", trained_here.into()),
        ("n_nodes", record.n_nodes.into()),
        ("pinned_structure", pinned_structure.into()),
        ("distinct_classes", distinct_classes.into()),
        ("forwards", forwards.into()),
        ("total_ns", total_ns.into()),
        ("mean_forward_ms", mean_forward_ms.into()),
        ("total_s", started.elapsed().as_secs_f64().into()),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Train-then-infer on a tiny job, then rerun against the same path:
    /// the second run must reuse the checkpoint instead of retraining.
    #[test]
    fn job_runs_and_reuses_its_checkpoint() {
        let path =
            std::env::temp_dir().join(format!("mg_infer_bench_test_{}.mgc", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let first = run_job(0.03, 3, 2, Some(&path)).expect("first job runs");
        assert_eq!(first.get("trained_here"), Some(&Json::Bool(true)));
        assert_eq!(first.get("forwards").and_then(Json::as_f64), Some(2.0));
        let classes = first.get("distinct_classes").and_then(Json::as_f64);
        assert!(classes.unwrap() >= 1.0);
        let pinned = first.get("pinned_structure");
        assert_eq!(
            pinned,
            Some(&Json::Bool(true)),
            "AdamGNN checkpoint pins structure"
        );
        let second = run_job(0.03, 3, 2, Some(&path)).expect("second job runs");
        let reused = second.get("trained_here");
        assert_eq!(
            reused,
            Some(&Json::Bool(false)),
            "compatible checkpoint must be reused"
        );
        assert!(first.get("model").is_some());
        assert_eq!(second.get("model"), first.get("model"));
        let task = second.get("task").and_then(Json::as_str);
        assert_eq!(task, Some("node_classification"));
        crate::report::assert_keys(
            &second,
            &[
                "model",
                "checkpoint",
                "trained_here",
                "forwards",
                "mean_forward_ms",
                "pinned_structure",
                "n_nodes",
            ],
        );
        let _ = std::fs::remove_file(&path);
    }

    /// A checkpoint for a different dataset size must not be served.
    #[test]
    fn incompatible_checkpoint_triggers_retrain() {
        let path = std::env::temp_dir().join(format!(
            "mg_infer_bench_mismatch_{}.mgc",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        run_job(0.05, 3, 1, Some(&path)).expect("seed job runs");
        // Same path, different scale: meta no longer matches.
        let b = run_job(0.03, 3, 1, Some(&path)).expect("mismatched job runs");
        let retrained = b.get("trained_here");
        assert_eq!(
            retrained,
            Some(&Json::Bool(true)),
            "mismatched checkpoint must be retrained"
        );
        let _ = std::fs::remove_file(&path);
    }
}
