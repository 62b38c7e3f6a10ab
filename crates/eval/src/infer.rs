//! Forward-only inference: load a checkpoint, rebuild the model it
//! describes, and serve predictions without touching an optimizer.
//!
//! A [`FrozenModel`] binds parameters with `requires_grad = false`, so
//! forward passes allocate no gradients and no Adam state. For AdamGNN
//! node models whose checkpoint pinned a [`FrozenStructure`], inference
//! on the training graph replays the exact pooling hierarchy the final
//! model induced; on other graphs (or without a pinned structure) the
//! hierarchy is re-derived by a deterministic eval-mode forward.
//!
//! Wrong-job uses — serving node outputs from a graph-classification
//! checkpoint, feeding features of the wrong width — fail with
//! [`MgError::Mismatch`] instead of producing garbage.

use crate::models::{AnyNodeModel, GraphModelKind, NodeModelKind};
use crate::session;
use adamgnn_core::FrozenStructure;
use mg_ckpt::{Checkpoint, CkptMeta};
use mg_nn::{GraphClassifier, GraphCtx};
use mg_tensor::{Matrix, MgError, ParamStore, Tape};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::Path;

enum FrozenInner {
    Node(AnyNodeModel),
    Graph(Box<dyn GraphClassifier>),
}

/// A trained model reconstructed from a checkpoint, ready to serve.
pub struct FrozenModel {
    ck: Checkpoint,
    store: ParamStore,
    inner: FrozenInner,
}

impl FrozenModel {
    /// Load and reconstruct from a checkpoint file.
    pub fn load(path: impl AsRef<Path>) -> Result<FrozenModel, MgError> {
        FrozenModel::from_checkpoint(Checkpoint::load(path.as_ref())?)
    }

    /// Reconstruct from an in-memory checkpoint: rebuild the recorded
    /// architecture, then overwrite every parameter with the saved
    /// tensors (names and shapes are validated by the import).
    pub fn from_checkpoint(ck: Checkpoint) -> Result<FrozenModel, MgError> {
        // A pinned hierarchy that does not chain from the recorded graph
        // dimensions would index out of range mid-forward; reject the
        // artifact before building anything on top of it.
        ck.validate_structure()?;
        let cfg = session::from_ckpt_config(&ck.config);
        let mut store = ParamStore::new();
        // throwaway init draws; import_state overwrites everything
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let inner = match ck.meta.task.as_str() {
            "graph_classification" => {
                let kind =
                    GraphModelKind::from_name(&ck.meta.model).ok_or_else(|| MgError::Mismatch {
                        detail: format!("unknown graph model `{}`", ck.meta.model),
                    })?;
                FrozenInner::Graph(kind.build(
                    &mut store,
                    ck.meta.in_dim,
                    cfg.hidden,
                    ck.meta.out_dim,
                    &cfg,
                    &mut rng,
                ))
            }
            "node_classification" | "link_prediction" | "node_clustering" => {
                let kind =
                    NodeModelKind::from_name(&ck.meta.model).ok_or_else(|| MgError::Mismatch {
                        detail: format!("unknown node model `{}`", ck.meta.model),
                    })?;
                FrozenInner::Node(kind.build(
                    &mut store,
                    ck.meta.in_dim,
                    cfg.hidden,
                    ck.meta.out_dim,
                    &cfg,
                    &mut rng,
                ))
            }
            other => {
                return Err(MgError::Mismatch {
                    detail: format!("unknown task `{other}` in checkpoint"),
                })
            }
        };
        store.import_state(&ck.params, ck.adam_t)?;
        Ok(FrozenModel { ck, store, inner })
    }

    /// Identity of the run that produced the weights.
    pub fn meta(&self) -> &CkptMeta {
        &self.ck.meta
    }

    /// The pinned pooling hierarchy, when the checkpoint carries one.
    pub fn structure(&self) -> Option<&FrozenStructure> {
        self.ck.structure.as_ref()
    }

    /// Raw per-node outputs (logits or embeddings, depending on the
    /// task the checkpoint was trained for).
    pub fn node_outputs(&self, ctx: &GraphCtx) -> Result<Matrix, MgError> {
        let model = match &self.inner {
            FrozenInner::Node(m) => m,
            FrozenInner::Graph(_) => {
                return Err(MgError::Mismatch {
                    detail: "graph-classification checkpoint cannot serve node outputs".into(),
                })
            }
        };
        self.check_in_dim(ctx)?;
        // the pinned hierarchy only applies to the graph it was
        // recorded on; anywhere else the forward re-derives one
        let structure = self
            .ck
            .structure
            .as_ref()
            .filter(|_| ctx.graph.n() == self.ck.meta.n_nodes);
        let tape = Tape::new();
        let bind = self.store.bind_frozen(&tape);
        // eval-mode forwards draw nothing from the stream
        let mut rng = StdRng::seed_from_u64(0);
        let out = model.forward_frozen(&tape, &bind, ctx, structure, &mut rng);
        Ok(tape.value_cloned(out))
    }

    /// Per-node class predictions (argmax over the output rows).
    pub fn predict_labels(&self, ctx: &GraphCtx) -> Result<Vec<usize>, MgError> {
        let out = self.node_outputs(ctx)?;
        let ids: Vec<usize> = (0..out.rows()).collect();
        Self::labels_from(&out, &ids)
    }

    /// Link probabilities `sigma(h_u . h_v)` for the given node pairs.
    pub fn score_links(
        &self,
        ctx: &GraphCtx,
        pairs: &[(usize, usize)],
    ) -> Result<Vec<f64>, MgError> {
        let h = self.node_outputs(ctx)?;
        Self::link_scores_from(&h, pairs)
    }

    /// Batch entry point: gather the output rows for `ids` out of one
    /// full forward's output matrix.
    ///
    /// mg-serve runs [`FrozenModel::node_outputs`] once at load and
    /// answers every request from that matrix through these gathers —
    /// which is why responses are bitwise identical however requests
    /// interleave. Any out-of-range id rejects the whole request with
    /// [`MgError::InvalidInput`]; there are no partial results.
    pub fn embeddings_from(h: &Matrix, ids: &[usize]) -> Result<Vec<Vec<f64>>, MgError> {
        Self::check_ids(h, ids)?;
        Ok(ids.iter().map(|&i| h.row(i).to_vec()).collect())
    }

    /// Batch entry point: argmax labels for `ids` from one full
    /// forward's output matrix (see [`FrozenModel::embeddings_from`]).
    pub fn labels_from(h: &Matrix, ids: &[usize]) -> Result<Vec<usize>, MgError> {
        Self::check_ids(h, ids)?;
        Ok(ids.iter().map(|&i| h.row_argmax(i)).collect())
    }

    /// Batch entry point: link probabilities `sigma(h_u . h_v)` for
    /// `pairs` from one full forward's output matrix (see
    /// [`FrozenModel::embeddings_from`]).
    pub fn link_scores_from(h: &Matrix, pairs: &[(usize, usize)]) -> Result<Vec<f64>, MgError> {
        if let Some(&(u, v)) = pairs.iter().find(|&&(u, v)| u >= h.rows() || v >= h.rows()) {
            return Err(MgError::InvalidInput {
                detail: format!("link ({u}, {v}) out of range for {} nodes", h.rows()),
            });
        }
        Ok(crate::metrics::pair_scores(h, pairs)
            .into_iter()
            .map(|s| 1.0 / (1.0 + (-s).exp()))
            .collect())
    }

    fn check_ids(h: &Matrix, ids: &[usize]) -> Result<(), MgError> {
        if let Some(&bad) = ids.iter().find(|&&i| i >= h.rows()) {
            return Err(MgError::InvalidInput {
                detail: format!("node id {bad} out of range for {} nodes", h.rows()),
            });
        }
        Ok(())
    }

    /// Class prediction for each input graph.
    pub fn classify_graphs(&self, contexts: &[GraphCtx]) -> Result<Vec<usize>, MgError> {
        let model = match &self.inner {
            FrozenInner::Graph(m) => m,
            FrozenInner::Node(_) => {
                return Err(MgError::Mismatch {
                    detail: "node-task checkpoint cannot classify whole graphs".into(),
                })
            }
        };
        let mut preds = Vec::with_capacity(contexts.len());
        for ctx in contexts {
            self.check_in_dim(ctx)?;
            let tape = Tape::new();
            let bind = self.store.bind_frozen(&tape);
            let mut rng = StdRng::seed_from_u64(0);
            let out = model.forward(&tape, &bind, ctx, false, &mut rng);
            preds.push(tape.value(out.logits).row_argmax(0));
        }
        Ok(preds)
    }

    fn check_in_dim(&self, ctx: &GraphCtx) -> Result<(), MgError> {
        if ctx.x().cols() != self.ck.meta.in_dim {
            return Err(MgError::Mismatch {
                detail: format!(
                    "features have width {} but the model was built for {}",
                    ctx.x().cols(),
                    self.ck.meta.in_dim
                ),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{SessionKind, TrainSession};
    use crate::TrainConfig;
    use mg_data::{make_node_dataset, NodeDatasetKind, NodeGenConfig};

    fn trained_checkpoint(dir: &std::path::Path, kind: NodeModelKind) -> std::path::PathBuf {
        let ds = make_node_dataset(
            NodeDatasetKind::Cora,
            &NodeGenConfig {
                scale: 0.08,
                max_feat_dim: 32,
                seed: 7,
            },
        );
        let cfg = TrainConfig {
            epochs: 5,
            hidden: 8,
            levels: 2,
            patience: 5,
            ..Default::default()
        };
        let path = dir.join(format!("{}.mgck", kind.name()));
        TrainSession::new(SessionKind::NodeClassification(kind), &cfg)
            .checkpoint_to(&path)
            .run(&ds)
            .unwrap();
        path
    }

    #[test]
    fn frozen_model_serves_node_predictions() {
        let dir = std::env::temp_dir().join("mg_infer_test_nc");
        std::fs::create_dir_all(&dir).unwrap();
        let ds = make_node_dataset(
            NodeDatasetKind::Cora,
            &NodeGenConfig {
                scale: 0.08,
                max_feat_dim: 32,
                seed: 7,
            },
        );
        for kind in [NodeModelKind::Gcn, NodeModelKind::AdamGnn] {
            let path = trained_checkpoint(&dir, kind);
            let fm = FrozenModel::load(&path).unwrap();
            assert_eq!(fm.meta().task, "node_classification");
            let ctx = GraphCtx::new(ds.graph.clone(), ds.features.clone());
            let labels = fm.predict_labels(&ctx).unwrap();
            assert_eq!(labels.len(), ds.n());
            assert!(labels.iter().all(|&l| l < ds.num_classes));
            // link scores over the same outputs are probabilities
            let pairs: Vec<(usize, usize)> = (0..8).map(|i| (i, i + 1)).collect();
            let scores = fm.score_links(&ctx, &pairs).unwrap();
            assert_eq!(scores.len(), pairs.len());
            assert!(scores
                .iter()
                .all(|s| s.is_finite() && (0.0..=1.0).contains(s)));
            // the AdamGNN checkpoint pins its learned hierarchy
            if kind == NodeModelKind::AdamGnn {
                assert!(fm.structure().is_some());
            } else {
                assert!(fm.structure().is_none());
            }
            // two loads predict identically (frozen forwards are pure)
            let again = FrozenModel::load(&path).unwrap();
            assert_eq!(labels, again.predict_labels(&ctx).unwrap());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A bytewise-intact checkpoint whose structure section disagrees
    /// with the recorded graph dimensions must be rejected at load, not
    /// detonate mid-forward.
    #[test]
    fn frozen_model_rejects_doctored_structure() {
        let dir = std::env::temp_dir().join("mg_infer_test_doctored");
        std::fs::create_dir_all(&dir).unwrap();
        let path = trained_checkpoint(&dir, NodeModelKind::AdamGnn);
        let mut ck = Checkpoint::load(&path).unwrap();
        let structure = ck.structure.as_mut().expect("AdamGNN pins structure");
        // point one ego past the graph the checkpoint claims to describe
        structure.levels[0].egos[0] = ck.meta.n_nodes + 7;
        let doctored = dir.join("doctored.mgck");
        ck.save(&doctored).unwrap();
        // the file itself is valid: every CRC passes on reload
        let reloaded = Checkpoint::load(&doctored).expect("doctored file decodes");
        assert!(reloaded.structure.is_some());
        match FrozenModel::load(&doctored) {
            Err(MgError::Mismatch { detail }) => {
                assert!(
                    detail.contains("out of range"),
                    "unhelpful detail: {detail}"
                )
            }
            Err(other) => panic!("doctored structure must be a Mismatch, got {other}"),
            Ok(_) => panic!("doctored structure must not load"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A non-finite weight in a CRC-valid checkpoint fails the load. The
    /// first layer's product is sparse over the features, so a NaN in
    /// row k of its weight would otherwise poison only the nodes whose
    /// feature k is non-zero: a partial result.
    #[test]
    fn frozen_model_rejects_non_finite_parameters() {
        let dir = std::env::temp_dir().join("mg_infer_test_non_finite");
        std::fs::create_dir_all(&dir).unwrap();
        let path = trained_checkpoint(&dir, NodeModelKind::AdamGnn);
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut ck = Checkpoint::load(&path).unwrap();
            let w = ck
                .params
                .iter_mut()
                .find(|p| p.name == "adam.gcn0.w")
                .expect("AdamGNN has a first GCN weight");
            w.value[(3, 1)] = bad;
            let doctored = dir.join("non_finite.mgck");
            ck.save(&doctored).unwrap();
            assert!(Checkpoint::load(&doctored).is_ok(), "every CRC passes");
            match FrozenModel::load(&doctored) {
                Err(MgError::InvalidInput { detail }) => {
                    assert!(detail.contains("adam.gcn0.w"), "unhelpful detail: {detail}")
                }
                Err(other) => panic!("non-finite weight must be InvalidInput, got {other}"),
                Ok(_) => panic!("non-finite weight {bad} must not load"),
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn frozen_model_rejects_wrong_jobs() {
        let dir = std::env::temp_dir().join("mg_infer_test_rej");
        std::fs::create_dir_all(&dir).unwrap();
        let path = trained_checkpoint(&dir, NodeModelKind::Gcn);
        let fm = FrozenModel::load(&path).unwrap();
        // wrong feature width
        let g = mg_graph::Topology::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let bad_ctx = GraphCtx::new(g, Matrix::zeros(4, 3));
        assert!(matches!(
            fm.node_outputs(&bad_ctx),
            Err(MgError::Mismatch { .. })
        ));
        // node-task checkpoints do not classify graphs
        assert!(matches!(
            fm.classify_graphs(&[]),
            Err(MgError::Mismatch { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }
}
