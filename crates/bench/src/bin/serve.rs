//! Standalone inference server: obtains the benchmark checkpoint
//! (reusing `MG_CKPT_PATH` when it names a compatible one, training the
//! small seeded job otherwise) and serves it over HTTP until killed.
//!
//! ```text
//! MG_SERVE_ADDR=127.0.0.1:7878 cargo run --release -p mg-bench --bin serve
//! curl -s localhost:7878/healthz
//! curl -s localhost:7878/v1/nodes -d '{"ids": [0, 1, 2]}'
//! ```
//!
//! All `MG_SERVE_*` knobs apply (see `ServeConfig::from_env`); with
//! `MG_TRACE` set, every request appends a `serve` record.

use mg_data::{make_node_dataset, NodeDataset, NodeDatasetKind, NodeGenConfig};
use mg_eval::{FrozenModel, NodeModelKind, SessionKind, TrainConfig, TrainSession};
use mg_nn::GraphCtx;
use mg_serve::{ServeConfig, Server};
use std::path::{Path, PathBuf};

/// An existing checkpoint is reusable only when it describes this exact
/// job; anything else (other dataset size, other task, corrupt file)
/// means retrain rather than serve stale or mismatched weights.
fn compatible(path: &Path, ds: &NodeDataset) -> bool {
    match FrozenModel::load(path) {
        Ok(m) => {
            let meta = m.meta();
            meta.task == "node_classification"
                && meta.n_nodes == ds.n()
                && meta.in_dim == ds.feat_dim()
                && meta.out_dim == ds.num_classes
        }
        Err(_) => false,
    }
}

/// Obtain the served checkpoint: reuse a compatible one, train the
/// seeded job otherwise. The location is `ckpt_path` (tests pass one to
/// avoid env races), else `MG_CKPT_PATH`, else a per-process temp file.
/// Returns the path, the dataset (a seeded Cora analogue at `scale`),
/// and whether training happened here.
fn obtain_checkpoint(
    scale: f64,
    epochs: usize,
    ckpt_path: Option<&Path>,
) -> Result<(PathBuf, NodeDataset, bool), String> {
    let ds = make_node_dataset(
        NodeDatasetKind::Cora,
        &NodeGenConfig {
            scale,
            max_feat_dim: 32,
            seed: 11,
        },
    );
    let path = match (ckpt_path, std::env::var("MG_CKPT_PATH")) {
        (Some(p), _) => p.to_path_buf(),
        (None, Ok(p)) if !p.is_empty() => PathBuf::from(p),
        _ => std::env::temp_dir().join(format!("mg_serve_{}.mgc", std::process::id())),
    };
    let trained_here = if path.exists() && compatible(&path, &ds) {
        false
    } else {
        let cfg = TrainConfig {
            epochs,
            lr: 0.02,
            patience: epochs,
            hidden: 16,
            levels: 2,
            seed: 1,
            ..Default::default()
        };
        TrainSession::new(
            SessionKind::NodeClassification(NodeModelKind::AdamGnn),
            &cfg,
        )
        .traced(false)
        .checkpoint_to(&path)
        .run(&ds)
        .map_err(|e| format!("training the served checkpoint failed: {e}"))?;
        true
    };
    Ok((path, ds, trained_here))
}

fn main() {
    let scale = mg_bench::env_or("REPRO_NODE_SCALE", 0.08);
    let epochs = mg_bench::env_or("REPRO_EPOCHS", 8);
    let cfg = ServeConfig::from_env();
    let server = match Server::start(cfg, move || {
        let (path, ds, trained) = obtain_checkpoint(scale, epochs, None)
            .map_err(|detail| mg_tensor::MgError::InvalidInput { detail })?;
        eprintln!(
            "serve: checkpoint {}{}",
            path.display(),
            if trained {
                " (trained this run)"
            } else {
                " (reused)"
            }
        );
        let fm = FrozenModel::load(&path)?;
        let ctx = GraphCtx::new(ds.graph.clone(), ds.features.clone());
        Ok((fm, ctx))
    }) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("serve: failed to start: {e}");
            std::process::exit(1);
        }
    };
    eprintln!("serve: listening on {}", server.addr());
    // serve until the process is killed
    loop {
        std::thread::park();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_ckpt(tag: &str) -> PathBuf {
        let path = std::env::temp_dir().join(format!("mg_serve_{tag}_{}.mgc", std::process::id()));
        let _ = std::fs::remove_file(&path);
        path
    }

    /// A second start against the same path reuses the checkpoint
    /// instead of retraining it.
    #[test]
    fn compatible_checkpoint_is_reused() {
        let path = temp_ckpt("reuse");
        let (got, ds, trained) = obtain_checkpoint(0.03, 3, Some(&path)).unwrap();
        assert!(trained, "a missing checkpoint is trained");
        assert_eq!(got, path);
        assert!(compatible(&path, &ds));
        let (_, _, trained) = obtain_checkpoint(0.03, 3, Some(&path)).unwrap();
        assert!(!trained, "a compatible checkpoint must be reused");
        let _ = std::fs::remove_file(&path);
    }

    /// A checkpoint for a different dataset size must not be served.
    #[test]
    fn incompatible_checkpoint_triggers_retrain() {
        let path = temp_ckpt("mismatch");
        obtain_checkpoint(0.05, 3, Some(&path)).unwrap();
        // same path, different scale: the meta no longer matches
        let (_, _, trained) = obtain_checkpoint(0.03, 3, Some(&path)).unwrap();
        assert!(trained, "a mismatched checkpoint must be retrained");
        let _ = std::fs::remove_file(&path);
    }
}
