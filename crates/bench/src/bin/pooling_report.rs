//! Pooling-operator benchmark matrix: trains node classification, link
//! prediction and graph classification once per shipped `PoolingKind`
//! (AdamGNN, ASAP, SpaPool) under identical settings and writes
//! `BENCH_pooling.json` — the repo's Table-4-style operator comparison.
//!
//! ```text
//! cargo run --release -p mg-bench --bin pooling_report
//! ```
//!
//! Exits non-zero when any cell produces a non-finite loss or metric.

use mg_bench::poolingreport::{run_matrix, MatrixConfig};

fn main() {
    let run = || {
        run_matrix(&MatrixConfig {
            node_scale: 0.08,
            graph_scale: 0.04,
            epochs: 12,
        })
    };
    std::process::exit(mg_bench::report::emit("pooling", run));
}
