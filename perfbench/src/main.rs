//! The repository benchmark's measuring program.
//!
//! `perfbench <setup|measure|trace|ckpt> --workload W --seed N --seconds S --cache DIR`
//!
//! * `setup` times one set-up of the workload and exits.
//! * `measure` runs one set-up and then the workload untraced for the
//!   given seconds, and reports its end-to-end metrics.
//! * `trace` reproduces the workload's loop from the same public
//!   functions the repository's trainer or server calls, with spans
//!   around every call, checks that the reproduction computes bitwise
//!   what the untraced path computed, and reports per-layer metrics.
//! * `ckpt` trains the checkpoint `serve_cora` serves.
//!
//! The last line of standard output is one JSON object; `run.py` turns
//! it into the benchmark's result line. Every configuration field is
//! set explicitly, and the program refuses to run while any `MG_*`
//! variable (which the repository's defaults read) is set.

mod full;
mod sampled;
mod serve;
mod spans;

use std::path::PathBuf;
use std::time::Duration;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub cache: PathBuf,
}

/// What one run hands back to the wrapper.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)`, in print order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Sample counts and similar context, printed but not judged.
    pub info: Vec<(&'static str, f64)>,
    /// Values that must repeat exactly at a fixed seed and binary.
    pub exact: Vec<(&'static str, f64)>,
    /// Correctness failures; any entry fails the run.
    pub problems: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    pub fn problem(&mut self, what: impl Into<String>) {
        self.problems.push(what.into());
    }

    fn to_json(&self) -> String {
        let num = |x: f64| mg_obs::json::number(x);
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(k, v, u)| format!("\"{k}\": {{\"value\": {}, \"unit\": \"{u}\"}}", num(*v)))
            .collect();
        let info: Vec<String> = self
            .info
            .iter()
            .map(|(k, v)| format!("\"{k}\": {}", num(*v)))
            .collect();
        // exact values travel as bit patterns so equality is bitwise
        let exact: Vec<String> = self
            .exact
            .iter()
            .map(|(k, v)| format!("\"{k}\": \"{:016x}\"", v.to_bits()))
            .collect();
        let problems: Vec<String> = self
            .problems
            .iter()
            .map(|p| mg_obs::json::string(p))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}, \
             \"info\": {{{}}}, \"exact\": {{{}}}, \"problems\": [{}]}}",
            self.problems.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(", "),
            info.join(", "),
            exact.join(", "),
            problems.join(", ")
        )
    }
}

/// Per-layer metrics every traced run reports, with their units. A
/// layer that does no work in a workload reports 0.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("tensor.backward_ms", "ms"),
    ("tensor.step_ms", "ms"),
    ("core.forward_ms", "ms"),
    ("core.task_loss_ms", "ms"),
    ("core.kl_loss_ms", "ms"),
    ("core.recon_loss_ms", "ms"),
    ("core.eval_forward_ms", "ms"),
    ("eval.frozen_forward_ms", "ms"),
    ("serve.handle_one_ms", "ms"),
    ("data.sample_ms", "ms"),
    ("data.gather_ms", "ms"),
    ("nn.ctx_build_ms", "ms"),
    ("data.sampled_nodes", "count"),
    ("data.truncated", "count"),
    ("data.generate_ms", "ms"),
    ("ckpt.load_ms", "ms"),
    ("serve.start_ms", "ms"),
    ("serve.first_response_ms", "ms"),
    ("serve.roundtrip_ms", "ms"),
    ("serve.http_queue_ms", "ms"),
    ("serve.mean_flush_size", "count"),
    ("serve.forward_share", "fraction"),
    ("tensor.tape_ops", "count"),
    ("tensor.peak_tape_mb", "MB"),
    ("unattributed_ms", "ms"),
    ("trace_overhead_frac", "fraction"),
];

/// Fill `report.metrics` with every [`LAYER_METRICS`] entry, taking
/// values from `measured` and 0 for layers the workload never calls.
pub fn layer_metrics(report: &mut Report, measured: &[(&str, f64)]) {
    for (name, unit) in LAYER_METRICS {
        let value = measured
            .iter()
            .find(|(k, _)| k == name)
            .map_or(0.0, |(_, v)| *v);
        report.metric(name, value, unit);
    }
}

fn parse_args(rest: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut cache = None;
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} out of range"));
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--cache" => cache = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(Duration::from_secs(10)),
        cache: cache.ok_or("--cache is required")?,
    })
}

fn run(mode: &str, args: &Args) -> Result<Report, String> {
    match (mode, args.workload.as_str()) {
        ("setup", "train_full_cora") => full::setup_only(args),
        ("setup", "train_sampled_big") => sampled::setup_only(args),
        ("setup", "serve_cora") => serve::setup_only(args),
        ("measure", "train_full_cora") => full::measure(args),
        ("trace", "train_full_cora") => full::trace(args),
        ("measure", "train_sampled_big") => sampled::measure(args),
        ("trace", "train_sampled_big") => sampled::trace(args),
        ("measure", "serve_cora") => serve::measure(args),
        ("trace", "serve_cora") => serve::trace(args),
        ("ckpt", "serve_cora") => serve::train_checkpoint(args),
        (mode, w) => Err(format!("no mode {mode} for workload {w}")),
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    let pinned: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("MG_"))
        .collect();
    let outcome = if !pinned.is_empty() {
        Err(format!(
            "the workload is pinned against the environment; unset {pinned:?}"
        ))
    } else if argv.len() < 2 {
        Err(
            "usage: perfbench <measure|trace|ckpt> --workload W --seed N --seconds S --cache DIR"
                .into(),
        )
    } else {
        parse_args(&argv[2..]).and_then(|args| run(&argv[1], &args))
    };
    match outcome {
        Ok(report) => println!("{}", report.to_json()),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}
