//! Trace-file validation: every line must parse as JSON and carry the
//! keys its `kind` promises. The trace tests (`obs_emission` on traced
//! trainer runs, `serve_trace` on a live server) run this over freshly
//! emitted traces, so a schema regression fails the build rather than
//! silently shipping an unreadable trace.

use crate::json::Json;

/// What a validated trace contained.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TraceReport {
    /// Total JSONL lines.
    pub lines: usize,
    pub run_starts: usize,
    pub epochs: usize,
    pub kernel_stats: usize,
    pub run_ends: usize,
    /// `serve` records (one per online-inference request).
    pub serves: usize,
    /// `sample_step` records (one per sampled-minibatch optimizer step).
    pub sample_steps: usize,
    /// Per-epoch `train_ns` values, in emission order.
    pub epoch_train_ns: Vec<u64>,
    /// Per-epoch `eval_ns` values, in emission order.
    pub epoch_eval_ns: Vec<u64>,
    /// Per-epoch `peak_tape_bytes` values, in emission order.
    pub epoch_peak_tape_bytes: Vec<u64>,
}

const RUN_START_KEYS: &[&str] = &[
    "task",
    "model",
    "dataset",
    "n_nodes",
    "n_edges",
    "seed",
    "epochs",
    "hidden",
    "levels",
    "gamma",
    "delta",
    "pooling",
    "parallel_feature",
];
const EPOCH_KEYS: &[&str] = &[
    "task",
    "epoch",
    "loss_total",
    "loss_task",
    "loss_kl",
    "loss_recon",
    "val_metric",
    "train_ns",
    "eval_ns",
    "grad_norms",
    "beta",
    "level_sizes",
    "peak_tape_bytes",
];
const RUN_END_KEYS: &[&str] = &["task", "epochs_run", "best_val", "test_metric", "wall_s"];
const KERNEL_KEYS: &[&str] = &["task", "kernels"];
const SAMPLE_STEP_KEYS: &[&str] = &[
    "task",
    "epoch",
    "step",
    "seeds",
    "sampled_nodes",
    "sampled_edges",
    "truncated",
    "loss",
];
const SERVE_KEYS: &[&str] = &["task", "endpoint", "status", "items", "forward_ns"];

fn require_keys(v: &Json, keys: &[&str], line_no: usize) -> Result<(), String> {
    for key in keys {
        if v.get(key).is_none() {
            return Err(format!("line {line_no}: missing required key {key:?}"));
        }
    }
    Ok(())
}

/// Validate the full text of a JSONL trace.
pub fn validate_trace(text: &str) -> Result<TraceReport, String> {
    let mut report = TraceReport::default();
    for (i, line) in text.lines().enumerate() {
        let line_no = i + 1;
        if line.trim().is_empty() {
            return Err(format!("line {line_no}: empty line in trace"));
        }
        let v = Json::parse(line).map_err(|e| format!("line {line_no}: {e}"))?;
        report.lines += 1;
        let kind = v
            .get("kind")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("line {line_no}: missing \"kind\""))?;
        match kind {
            "run_start" => {
                require_keys(&v, RUN_START_KEYS, line_no)?;
                report.run_starts += 1;
            }
            "epoch" => {
                require_keys(&v, EPOCH_KEYS, line_no)?;
                let ns = |key: &str| -> Result<u64, String> {
                    v.get(key)
                        .and_then(Json::as_f64)
                        .map(|x| x as u64)
                        .ok_or_else(|| format!("line {line_no}: {key} is not a number"))
                };
                report.epoch_train_ns.push(ns("train_ns")?);
                report.epoch_eval_ns.push(ns("eval_ns")?);
                report.epoch_peak_tape_bytes.push(ns("peak_tape_bytes")?);
                report.epochs += 1;
            }
            "kernel_stats" => {
                require_keys(&v, KERNEL_KEYS, line_no)?;
                report.kernel_stats += 1;
            }
            "run_end" => {
                require_keys(&v, RUN_END_KEYS, line_no)?;
                report.run_ends += 1;
            }
            "serve" => {
                require_keys(&v, SERVE_KEYS, line_no)?;
                report.serves += 1;
            }
            "sample_step" => {
                require_keys(&v, SAMPLE_STEP_KEYS, line_no)?;
                report.sample_steps += 1;
            }
            other => return Err(format!("line {line_no}: unknown kind {other:?}")),
        }
    }
    if report.lines == 0 {
        return Err("trace is empty".into());
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{EpochRecord, RunMeta};
    use crate::trace::Trace;
    use std::sync::{Arc, Mutex};

    #[derive(Clone)]
    struct Shared(Arc<Mutex<Vec<u8>>>);
    impl std::io::Write for Shared {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn emitted_trace_validates() {
        let buf = Arc::new(Mutex::new(Vec::new()));
        let mut t = Trace::to_writer("t", Box::new(Shared(buf.clone())));
        t.run_start(&RunMeta {
            model: "M".into(),
            dataset: "D".into(),
            n_nodes: 1,
            n_edges: 1,
            seed: 0,
            epochs: 1,
            hidden: 1,
            levels: 1,
            gamma: 0.0,
            delta: 0.0,
            pooling: "adamgnn".into(),
        });
        t.epoch(&EpochRecord {
            epoch: 0,
            loss_total: 1.0,
            loss_task: None,
            loss_kl: None,
            loss_recon: None,
            val_metric: None,
            train_ns: 7,
            eval_ns: 3,
            grad_norms: vec![],
            beta: None,
            level_sizes: vec![],
            peak_tape_bytes: 512,
        });
        t.kernel_stats();
        t.run_end(1, None, None);
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let report = validate_trace(&text).expect("trace validates");
        assert_eq!(report.lines, 4);
        assert_eq!(report.run_starts, 1);
        assert_eq!(report.epochs, 1);
        assert_eq!(report.kernel_stats, 1);
        assert_eq!(report.run_ends, 1);
        assert_eq!(report.epoch_train_ns, vec![7]);
        assert_eq!(report.epoch_eval_ns, vec![3]);
        assert_eq!(report.epoch_peak_tape_bytes, vec![512]);
    }

    #[test]
    fn serve_record_validates() {
        let buf = Arc::new(Mutex::new(Vec::new()));
        let mut t = Trace::to_writer("serve", Box::new(Shared(buf.clone())));
        t.serve(&crate::record::ServeRecord {
            endpoint: "/v1/links".into(),
            status: 200,
            items: 2,
            forward_ns: 9000,
        });
        t.serve(&crate::record::ServeRecord {
            endpoint: "/v1/nodes".into(),
            status: 400,
            items: 0,
            forward_ns: 0,
        });
        drop(t);
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let report = validate_trace(&text).expect("serve trace validates");
        assert_eq!(report.serves, 2);
        // a serve record missing its status, items and timing keys must be rejected
        assert!(validate_trace(
            "{\"kind\": \"serve\", \"task\": \"serve\", \"endpoint\": \"/v1/nodes\"}\n"
        )
        .is_err());
    }

    #[test]
    fn sample_step_record_validates() {
        let buf = Arc::new(Mutex::new(Vec::new()));
        let mut t = Trace::to_writer("node_classification", Box::new(Shared(buf.clone())));
        t.sample_step(&crate::record::SampleStepRecord {
            epoch: 0,
            step: 3,
            seeds: 32,
            sampled_nodes: 190,
            sampled_edges: 400,
            truncated: 2,
            loss: 2.1,
        });
        drop(t);
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let report = validate_trace(&text).expect("sample_step trace validates");
        assert_eq!(report.sample_steps, 1);
        // a record missing its sampling counters must be rejected
        assert!(validate_trace(
            "{\"kind\": \"sample_step\", \"task\": \"t\", \"epoch\": 0, \"step\": 0}\n"
        )
        .is_err());
    }

    #[test]
    fn rejects_bad_traces() {
        assert!(validate_trace("").is_err());
        assert!(validate_trace("not json\n").is_err());
        assert!(validate_trace("{\"kind\": \"mystery\"}\n").is_err());
        // `infer` is not a record kind
        let err = validate_trace("{\"kind\": \"infer\", \"task\": \"t\"}\n").unwrap_err();
        assert!(err.contains("unknown kind"), "error was: {err}");
        // an epoch record missing its loss decomposition keys
        assert!(validate_trace("{\"kind\": \"epoch\", \"task\": \"t\", \"epoch\": 0}\n").is_err());
        // an otherwise-complete epoch record missing only peak_tape_bytes
        let no_peak = "{\"kind\": \"epoch\", \"task\": \"t\", \"epoch\": 0, \
             \"loss_total\": 1.0, \"loss_task\": null, \"loss_kl\": null, \
             \"loss_recon\": null, \"val_metric\": null, \"train_ns\": 1, \
             \"eval_ns\": 1, \"grad_norms\": [], \"beta\": null, \
             \"level_sizes\": []}\n";
        let err = validate_trace(no_peak).expect_err("peak_tape_bytes is required");
        assert!(err.contains("peak_tape_bytes"), "error was: {err}");
    }
}
