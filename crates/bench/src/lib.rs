//! Shared configuration for the benchmark binaries that regenerate every
//! table and figure of the AdamGNN evaluation.
//!
//! All binaries honour these environment variables:
//!
//! | variable | default | meaning |
//! |---|---|---|
//! | `REPRO_NODE_SCALE` | `0.3` | node-dataset size relative to the paper |
//! | `REPRO_GRAPH_SCALE` | `0.05` | graph-dataset size relative to the paper |
//! | `REPRO_SEEDS` | `1` | independent runs averaged per cell |
//! | `REPRO_EPOCHS` | `40` | maximum training epochs |
//! | `REPRO_HIDDEN` | `64` | hidden width (the paper uses 64) |
//!
//! Larger values track the paper's protocol more closely at the cost of
//! wall-clock time; the defaults finish each table in minutes on a laptop.
//!
//! The report binaries (`ops_report`, `mem_report`, `sample_report`,
//! `pooling_report`) each write one `BENCH_<name>.json` through
//! [`report::emit`], into the directory named by `MG_BENCH_OUT_DIR`
//! (default: the working directory). End-to-end training and serving
//! cost at Table-6 scale is measured by the repository benchmark in
//! `perfbench/`, not here; the `serve` binary runs a standalone server.

use adamgnn_core::LossWeights;
use mg_data::{GraphGenConfig, NodeGenConfig};
use mg_eval::TrainConfig;

pub mod memreport;
pub mod opsbench;
pub mod poolingreport;
pub mod report;
pub mod samplereport;

/// Read an environment variable with a typed default.
pub fn env_or<T: std::str::FromStr>(name: &str, default: T) -> T {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Benchmark-wide settings.
#[derive(Clone, Copy, Debug)]
pub struct BenchConfig {
    pub node_scale: f64,
    pub graph_scale: f64,
    pub seeds: u64,
    pub epochs: usize,
    pub hidden: usize,
}

impl BenchConfig {
    /// Resolve from the environment.
    pub fn from_env() -> Self {
        BenchConfig {
            node_scale: env_or("REPRO_NODE_SCALE", 0.3),
            graph_scale: env_or("REPRO_GRAPH_SCALE", 0.05),
            seeds: env_or("REPRO_SEEDS", 1),
            epochs: env_or("REPRO_EPOCHS", 40),
            hidden: env_or("REPRO_HIDDEN", 64),
        }
    }

    /// Node-dataset generation options.
    pub fn node_gen(&self) -> NodeGenConfig {
        NodeGenConfig {
            scale: self.node_scale,
            max_feat_dim: 256,
            seed: 42,
        }
    }

    /// Graph-dataset generation options.
    pub fn graph_gen(&self) -> GraphGenConfig {
        GraphGenConfig {
            scale: self.graph_scale,
            max_nodes: 60,
            seed: 42,
        }
    }

    /// Trainer options for one run.
    pub fn train(&self, seed: u64, levels: usize) -> TrainConfig {
        TrainConfig {
            epochs: self.epochs,
            lr: 0.01,
            patience: self.epochs / 3 + 5,
            hidden: self.hidden,
            levels,
            seed,
            weights: LossWeights::default(),
            flyback: true,
            ..Default::default()
        }
    }

    /// Print the settings banner shown at the top of every table.
    pub fn banner(&self, what: &str) {
        println!("== {what} ==");
        println!(
            "(node_scale {}, graph_scale {}, seeds {}, epochs {}, hidden {}; \
             synthetic analogues of the paper's datasets — see DESIGN.md)\n",
            self.node_scale, self.graph_scale, self.seeds, self.epochs, self.hidden
        );
    }
}

/// Mean over per-seed results.
pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_or_parses_and_defaults() {
        std::env::remove_var("REPRO_TEST_VAR_X");
        assert_eq!(env_or::<usize>("REPRO_TEST_VAR_X", 7), 7);
        std::env::set_var("REPRO_TEST_VAR_X", "13");
        assert_eq!(env_or::<usize>("REPRO_TEST_VAR_X", 7), 13);
        std::env::set_var("REPRO_TEST_VAR_X", "not a number");
        assert_eq!(env_or::<usize>("REPRO_TEST_VAR_X", 7), 7);
    }

    #[test]
    fn bench_config_defaults() {
        let cfg = BenchConfig::from_env();
        assert!(cfg.node_scale > 0.0);
        assert!(cfg.seeds >= 1);
        let t = cfg.train(0, 3);
        assert_eq!(t.levels, 3);
        assert!(t.flyback);
    }
}
