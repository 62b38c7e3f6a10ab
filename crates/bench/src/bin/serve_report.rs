//! Online-serving benchmark: starts a real mg-serve server in-process on
//! an ephemeral loopback port, smoke-tests the endpoint contract (typed
//! rejections included), drives it at three concurrency levels, and
//! writes `BENCH_serve.json` with throughput, p50/p99 latency, and the
//! flush-size histogram.
//!
//! ```text
//! cargo run --release -p mg-bench --bin serve_report
//! ```
//!
//! `MG_CKPT_PATH` supplies a compatible checkpoint to reuse. Exits
//! non-zero when any smoke check or request fails.

fn main() {
    let run = || mg_bench::servebench::run_job(0.08, 8, 40, &[1, 4, 16], None);
    std::process::exit(mg_bench::report::emit("serve", run));
}
