//! Kernel-timing report: times every mg-runtime-dispatched kernel
//! and a few model-level cases serial-vs-parallel, and writes
//! `BENCH_ops.json`:
//!
//! ```text
//! cargo run --release -p mg-bench --features parallel --bin ops_report
//! ```
//!
//! `MG_NUM_THREADS` sizes the parallel pool (default: the host's
//! available parallelism). When the pool is wider than the host the
//! report suppresses speedup claims — see `mg_bench::opsbench`.

fn main() {
    std::process::exit(mg_bench::report::emit("ops", mg_bench::opsbench::run));
}
