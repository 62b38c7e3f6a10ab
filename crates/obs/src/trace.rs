//! The trace sink: a JSONL writer that every trainer owns for the
//! duration of one run.
//!
//! Activation: the `MG_TRACE` environment variable names the output
//! file and its absence makes every method a no-op. The off path costs
//! one env lookup per *run* (not per epoch) and an `Option` check per
//! call — telemetry collection at the call sites is gated on
//! [`Trace::enabled`], so a disabled run computes nothing extra.
//! Enabled or not, the sink only ever *reads* values the training loop
//! already produced and never draws from an RNG, so tracing cannot
//! perturb the computation (the mg-verify golden suite pins this).
//!
//! Records append to the file, so several runs in one process (or one
//! table sweep) share a single chronologically ordered trace.

use crate::record::{
    kernel_stats_json_line, EpochRecord, RunEnd, RunMeta, SampleStepRecord, ServeRecord,
};
use crate::summary::render_summary;
use std::fs::OpenOptions;
use std::io::{BufWriter, Write};
use std::time::Instant;

/// Wall-clock span timer for phase timings (train/eval per epoch).
#[derive(Clone, Copy, Debug)]
pub struct Stopwatch(Instant);

impl Stopwatch {
    /// Start timing now.
    pub fn start() -> Stopwatch {
        Stopwatch(Instant::now())
    }

    /// Nanoseconds since [`Stopwatch::start`].
    pub fn elapsed_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// Running aggregates for the human-readable end-of-run summary.
#[derive(Clone, Debug, Default)]
pub(crate) struct Aggregates {
    pub epochs: usize,
    pub first_loss: Option<f64>,
    pub last_loss: f64,
    pub best_val: Option<f64>,
    pub train_ns: u64,
    pub eval_ns: u64,
}

struct Inner {
    out: BufWriter<Box<dyn Write>>,
    task: String,
    started: Instant,
    agg: Aggregates,
    /// Print the end-of-run summary to stderr (on for file sinks, off for
    /// in-memory test writers).
    summarize: bool,
}

/// A per-run telemetry sink. Construct via [`Trace::from_env`] in
/// production code; tests and report binaries can point it at an
/// explicit path or writer.
pub struct Trace {
    inner: Option<Inner>,
}

impl Trace {
    /// The sink `MG_TRACE` selects: a JSONL appender on the named file,
    /// or a no-op when the variable is unset or empty.
    pub fn from_env(task: &str) -> Trace {
        match std::env::var("MG_TRACE") {
            Ok(path) if !path.is_empty() => Trace::to_path(task, &path),
            _ => Trace::disabled(),
        }
    }

    /// A sink that appends to `path` (creating it if needed); `-` streams
    /// records to stderr instead. Falls back to a no-op with a stderr
    /// warning when the file cannot be opened — observability must never
    /// take down a training run.
    pub fn to_path(task: &str, path: &str) -> Trace {
        if path == "-" {
            return Trace::to_writer_impl(task, Box::new(std::io::stderr()), false);
        }
        match OpenOptions::new().create(true).append(true).open(path) {
            Ok(f) => Trace::to_writer_impl(task, Box::new(f), true),
            Err(e) => {
                eprintln!("mg-obs: cannot open MG_TRACE file {path:?}: {e}; tracing disabled");
                Trace::disabled()
            }
        }
    }

    /// A sink writing to an arbitrary writer (tests).
    pub fn to_writer(task: &str, out: Box<dyn Write>) -> Trace {
        Trace::to_writer_impl(task, out, false)
    }

    /// The always-off sink.
    pub fn disabled() -> Trace {
        Trace { inner: None }
    }

    fn to_writer_impl(task: &str, out: Box<dyn Write>, summarize: bool) -> Trace {
        Trace {
            inner: Some(Inner {
                out: BufWriter::new(out),
                task: task.to_string(),
                started: Instant::now(),
                agg: Aggregates::default(),
                summarize,
            }),
        }
    }

    /// Whether records will actually be written. Call sites gate any
    /// non-trivial telemetry computation (gradient norms, β statistics)
    /// on this so disabled runs stay zero-cost.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    fn write_line(inner: &mut Inner, line: &str) {
        // A full disk or closed pipe must not kill training; drop the
        // record and carry on.
        let _ = writeln!(inner.out, "{line}");
    }

    /// Emit the `run_start` record.
    pub fn run_start(&mut self, meta: &RunMeta) {
        if let Some(inner) = &mut self.inner {
            let line = meta.to_json_line(&inner.task);
            Self::write_line(inner, &line);
        }
    }

    /// Emit one `epoch` record and fold it into the summary aggregates.
    pub fn epoch(&mut self, rec: &EpochRecord) {
        if let Some(inner) = &mut self.inner {
            inner.agg.epochs += 1;
            inner.agg.first_loss.get_or_insert(rec.loss_total);
            inner.agg.last_loss = rec.loss_total;
            if let Some(v) = rec.val_metric {
                let best = inner.agg.best_val.get_or_insert(v);
                if v > *best {
                    *best = v;
                }
            }
            inner.agg.train_ns += rec.train_ns;
            inner.agg.eval_ns += rec.eval_ns;
            let line = rec.to_json_line(&inner.task);
            Self::write_line(inner, &line);
        }
    }

    /// Emit one `sample_step` record describing one sampled-minibatch
    /// optimizer step.
    pub fn sample_step(&mut self, rec: &SampleStepRecord) {
        if let Some(inner) = &mut self.inner {
            let line = rec.to_json_line(&inner.task);
            Self::write_line(inner, &line);
        }
    }

    /// Emit one `serve` record describing a served online-inference
    /// request (mg-serve emits one per HTTP request, including rejects).
    pub fn serve(&mut self, rec: &ServeRecord) {
        if let Some(inner) = &mut self.inner {
            let line = rec.to_json_line(&inner.task);
            Self::write_line(inner, &line);
        }
    }

    /// Flush buffered records to the sink without ending the run. A
    /// long-lived server calls this after each record so a trace reader
    /// (or a crash) never loses the tail of the file.
    pub fn flush(&mut self) {
        if let Some(inner) = &mut self.inner {
            let _ = inner.out.flush();
        }
    }

    /// Emit a `kernel_stats` record from mg-runtime's process-global
    /// registry (cumulative over the process).
    pub fn kernel_stats(&mut self) {
        if let Some(inner) = &mut self.inner {
            let line = kernel_stats_json_line(&inner.task);
            Self::write_line(inner, &line);
        }
    }

    /// Emit the `run_end` record, flush, and (for file sinks) print the
    /// human-readable run summary to stderr.
    pub fn run_end(&mut self, epochs_run: usize, best_val: Option<f64>, test_metric: Option<f64>) {
        if let Some(inner) = &mut self.inner {
            let end = RunEnd {
                epochs_run,
                best_val,
                test_metric,
                wall_s: inner.started.elapsed().as_secs_f64(),
            };
            let line = end.to_json_line(&inner.task);
            Self::write_line(inner, &line);
            let _ = inner.out.flush();
            if inner.summarize {
                eprintln!("{}", render_summary(&inner.task, &inner.agg, &end));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use std::sync::{Arc, Mutex};

    /// A Write handle into a shared buffer the test can inspect.
    #[derive(Clone)]
    struct Shared(Arc<Mutex<Vec<u8>>>);

    impl Write for Shared {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn epoch_rec(epoch: usize, loss: f64, val: f64) -> EpochRecord {
        EpochRecord {
            epoch,
            loss_total: loss,
            loss_task: Some(loss),
            loss_kl: None,
            loss_recon: None,
            val_metric: Some(val),
            train_ns: 10,
            eval_ns: 5,
            grad_norms: vec![],
            beta: None,
            level_sizes: vec![],
            peak_tape_bytes: 256,
        }
    }

    #[test]
    fn disabled_trace_is_inert() {
        let mut t = Trace::disabled();
        assert!(!t.enabled());
        t.epoch(&epoch_rec(0, 1.0, 0.5));
        t.kernel_stats();
        t.run_end(1, Some(0.5), None);
    }

    #[test]
    fn from_env_without_var_is_disabled() {
        // The test harness never sets MG_TRACE; integration tests that do
        // live in their own test binary to avoid cross-test races.
        if std::env::var_os("MG_TRACE").is_none() {
            assert!(!Trace::from_env("t").enabled());
        }
    }

    #[test]
    fn writer_trace_emits_parseable_jsonl_in_order() {
        let buf = Arc::new(Mutex::new(Vec::new()));
        let mut t = Trace::to_writer("unit_test", Box::new(Shared(buf.clone())));
        assert!(t.enabled());
        t.run_start(&RunMeta {
            model: "M".into(),
            dataset: "D".into(),
            n_nodes: 4,
            n_edges: 3,
            seed: 0,
            epochs: 2,
            hidden: 8,
            levels: 1,
            gamma: 0.1,
            delta: 0.01,
            pooling: "adamgnn".into(),
        });
        t.epoch(&epoch_rec(0, 2.0, 0.25));
        t.epoch(&epoch_rec(1, 1.0, 0.75));
        t.kernel_stats();
        t.run_end(2, Some(0.75), Some(0.7));
        drop(t);
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let kinds: Vec<String> = text
            .lines()
            .map(|l| {
                Json::parse(l)
                    .expect("line parses")
                    .get("kind")
                    .unwrap()
                    .as_str()
                    .unwrap()
                    .to_string()
            })
            .collect();
        assert_eq!(
            kinds,
            ["run_start", "epoch", "epoch", "kernel_stats", "run_end"]
        );
        // every record carries the task label
        for l in text.lines() {
            assert_eq!(
                Json::parse(l).unwrap().get("task").unwrap().as_str(),
                Some("unit_test")
            );
        }
    }
}
