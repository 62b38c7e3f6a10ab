//! Frozen-model inference report: obtains a checkpoint (reusing a
//! compatible `MG_CKPT_PATH`, training a small seeded job otherwise),
//! loads it through `FrozenModel`, measures forward-pass throughput, and
//! writes `BENCH_infer.json`.
//!
//! ```text
//! cargo run --release -p mg-bench --bin infer
//! ```
//!
//! With `MG_TRACE` set, one `infer` record is appended to the JSONL
//! trace. Exits non-zero when loading or serving fails.

fn main() {
    let run = || mg_bench::inferbench::run_job(0.08, 8, 16, None);
    std::process::exit(mg_bench::report::emit("infer", run));
}
