//! Traced-training benchmark, the body of `BENCH_train.json`.
//!
//! The `train_report` binary runs one seeded node-classification job
//! through the mg-obs-instrumented trainer with `MG_TRACE` active,
//! validates the emitted JSONL against the trace schema (a schema
//! regression fails the build — this is what the obs-smoke CI job
//! checks), then distils the per-epoch timings into a machine-readable
//! report:
//!
//! ```text
//! cargo run --release -p mg-bench --bin train_report
//! ```
//!
//! `MG_TRACE` chooses the trace destination (a temp-file default is
//! installed when unset — the binary's whole point is to exercise the
//! sink).

use mg_data::{make_node_dataset, NodeDatasetKind, NodeGenConfig};
use mg_eval::{NodeModelKind, SessionKind, TrainConfig, TrainSession};
use mg_obs::{validate_trace, Json};
use std::time::Instant;

/// Resolve the trace destination: honour an explicit `MG_TRACE`, else
/// install a temp-file default (the report exists to exercise the sink,
/// so "unset" must not mean "trace nothing").
fn trace_destination() -> String {
    match std::env::var("MG_TRACE") {
        Ok(p) if !p.is_empty() && p != "-" => p,
        _ => {
            let p = std::env::temp_dir()
                .join(format!("mg_train_report_{}.jsonl", std::process::id()))
                .to_string_lossy()
                .into_owned();
            std::env::set_var("MG_TRACE", &p);
            p
        }
    }
}

/// Run the seeded benchmark job with tracing active, validate the trace
/// it leaves behind, and return the report body. Epoch timings are
/// train+eval wall time per epoch in milliseconds, straight from the
/// trace. `scale`/`epochs` size the job (the binary uses 0.08 and 30;
/// tests shrink both).
pub fn run_job(scale: f64, epochs: usize) -> Result<Json, String> {
    let trace_path = trace_destination();
    // The sink appends across runs; this report describes exactly one.
    std::fs::write(&trace_path, "").map_err(|e| format!("cannot write {trace_path}: {e}"))?;

    let ds = make_node_dataset(
        NodeDatasetKind::Cora,
        &NodeGenConfig {
            scale,
            max_feat_dim: 32,
            seed: 11,
        },
    );
    let cfg = TrainConfig {
        epochs,
        lr: 0.02,
        patience: epochs,
        hidden: 16,
        levels: 2,
        seed: 1,
        ..Default::default()
    };
    let started = Instant::now();
    let res = TrainSession::new(
        SessionKind::NodeClassification(NodeModelKind::AdamGnn),
        &cfg,
    )
    .traced(false)
    .run(&ds)
    .map_err(|e| format!("training failed: {e}"))?;
    let total_s = started.elapsed().as_secs_f64();

    let text = std::fs::read_to_string(&trace_path)
        .map_err(|e| format!("cannot read trace {trace_path}: {e}"))?;
    let report = validate_trace(&text).map_err(|e| format!("invalid trace {trace_path}: {e}"))?;
    if report.epochs != res.epochs_run {
        return Err(format!(
            "trace has {} epoch records but the trainer ran {} epochs",
            report.epochs, res.epochs_run
        ));
    }
    if report.run_starts != 1 || report.run_ends != 1 {
        return Err(format!(
            "expected exactly one run_start/run_end, got {}/{}",
            report.run_starts, report.run_ends
        ));
    }
    let epoch_ms: Vec<f64> = (report.epoch_train_ns.iter())
        .zip(&report.epoch_eval_ns)
        .map(|(&t, &e)| (t + e) as f64 / 1e6)
        .collect();
    let mean_epoch_ms = epoch_ms.iter().sum::<f64>() / epoch_ms.len().max(1) as f64;
    let best_val = res.val_metric.expect("node classification has validation");
    Ok(Json::obj([
        ("task", "node_classification".into()),
        ("model", "AdamGNN".into()),
        ("dataset", "cora_synthetic".into()),
        ("seed", cfg.seed.into()),
        ("epochs_run", res.epochs_run.into()),
        ("best_val", best_val.into()),
        ("test_metric", res.test_metric.into()),
        ("trace_path", trace_path.into()),
        ("trace_lines", report.lines.into()),
        ("epoch_ms", epoch_ms.into()),
        ("mean_epoch_ms", mean_epoch_ms.into()),
        ("total_s", total_s.into()),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One small end-to-end pass: the job runs, its trace validates, and
    /// the report describes the three epochs. Uses a private MG_TRACE
    /// path so parallel test binaries cannot collide on the temp default.
    #[test]
    fn small_job_produces_valid_report() {
        let path =
            std::env::temp_dir().join(format!("mg_train_report_test_{}.jsonl", std::process::id()));
        std::env::set_var("MG_TRACE", &path);
        let v = run_job(0.03, 3).expect("job runs");
        std::env::remove_var("MG_TRACE");
        assert_eq!(v.get("epochs_run").and_then(Json::as_f64), Some(3.0));
        assert_eq!(
            v.get("epoch_ms").and_then(Json::as_arr).map(<[_]>::len),
            Some(3)
        );
        let lines = v.get("trace_lines").and_then(Json::as_f64).unwrap();
        assert!(lines > 3.0, "{v}");
        let task = v.get("task").and_then(Json::as_str);
        assert_eq!(task, Some("node_classification"));
        crate::report::assert_keys(&v, &["model", "mean_epoch_ms", "total_s"]);
        let _ = std::fs::remove_file(&path);
    }
}
