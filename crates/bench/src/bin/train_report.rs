//! Traced-training report: runs one seeded node-classification job with
//! `MG_TRACE` active, validates the emitted JSONL trace, and writes
//! `BENCH_train.json` with per-epoch timings.
//!
//! ```text
//! MG_TRACE=/tmp/trace.jsonl cargo run --release -p mg-bench --bin train_report
//! ```
//!
//! When `MG_TRACE` is unset a temp-file default is installed (the
//! binary's purpose is to exercise the trace sink). Exits non-zero when
//! the trace fails schema validation.

fn main() {
    let run = || mg_bench::trainreport::run_job(0.08, 30);
    std::process::exit(mg_bench::report::emit("train", run));
}
