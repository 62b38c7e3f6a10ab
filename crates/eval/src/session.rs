//! The unified trainer entry point: one builder for all four tasks.
//!
//! ```no_run
//! # use mg_eval::{SessionKind, NodeModelKind, TrainConfig, TrainSession};
//! # let ds: mg_data::NodeDataset = unimplemented!();
//! let outcome = TrainSession::new(
//!     SessionKind::NodeClassification(NodeModelKind::AdamGnn),
//!     &TrainConfig::default(),
//! )
//! .traced(true)
//! .checkpoint_to("run.mgck")
//! .checkpoint_every(10)
//! .run(&ds)
//! .unwrap();
//! ```
//!
//! ## Checkpointing contract
//!
//! Checkpoint writes are *pure observation*: a run with checkpointing
//! enabled performs exactly the same RNG draws and float operations as
//! one without, because state capture happens after each epoch's
//! bookkeeping and the structure-recording forward pass draws nothing
//! from the training stream. Conversely, a run resumed from a
//! checkpoint reproduces the uninterrupted run bit for bit: parameters,
//! Adam moments, the shared step counter, the RNG stream position and
//! the early-stopping counters are all restored exactly, and the
//! remaining epochs replay the identical draw sequence.

use crate::graph_tasks::{build_contexts, graph_classification, GRAPH_CLASSES};
use crate::minibatch::MinibatchConfig;
use crate::models::{GraphModelKind, NodeModelKind};
use crate::node_tasks::{node_task, FullGraph, TrainConfig};
use crate::trace::TrainTrace;
use crate::trainer::CkptHooks;
use adamgnn_core::LossWeights;
use mg_ckpt::{Checkpoint, CkptConfig};
use mg_data::{GraphDataset, NodeDataset};
use mg_nn::GraphCtx;
use mg_tensor::MgError;
use std::path::PathBuf;

/// Which task to train, and with which model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SessionKind {
    NodeClassification(NodeModelKind),
    LinkPrediction(NodeModelKind),
    GraphClassification(GraphModelKind),
    NodeClustering(NodeModelKind),
}

impl SessionKind {
    /// Stable task identifier, as recorded in checkpoint metadata and
    /// mg-obs trace files.
    pub fn task_name(&self) -> &'static str {
        match self {
            SessionKind::NodeClassification(_) => "node_classification",
            SessionKind::LinkPrediction(_) => "link_prediction",
            SessionKind::GraphClassification(_) => "graph_classification",
            SessionKind::NodeClustering(_) => "node_clustering",
        }
    }
}

/// What a session trains on. Node-level tasks take a [`NodeDataset`];
/// graph classification takes a [`GraphDataset`] or pre-built contexts
/// (so timing harnesses can exclude dataset preparation).
pub enum SessionInput<'a> {
    Node(&'a NodeDataset),
    Graphs(&'a GraphDataset),
    Prebuilt {
        contexts: &'a [(GraphCtx, usize)],
        feat_dim: usize,
    },
}

impl<'a> From<&'a NodeDataset> for SessionInput<'a> {
    fn from(ds: &'a NodeDataset) -> Self {
        SessionInput::Node(ds)
    }
}

impl<'a> From<&'a GraphDataset> for SessionInput<'a> {
    fn from(ds: &'a GraphDataset) -> Self {
        SessionInput::Graphs(ds)
    }
}

/// What every session returns, across all four tasks.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// The headline test metric: accuracy, ROC-AUC or NMI depending on
    /// the task, always at the best-validation epoch where the task has
    /// a validation split.
    pub test_metric: f64,
    /// Best validation metric, for tasks that have one (`None` for
    /// unsupervised node clustering).
    pub val_metric: Option<f64>,
    /// Epochs actually run (early stopping may cut this short).
    pub epochs_run: usize,
    /// Per-epoch history; empty when `.traced(false)` (the default is
    /// traced). Clustering rows carry `val = NaN` (no validation).
    pub trace: TrainTrace,
    /// Mean wall-clock seconds per training epoch (Table 4's metric),
    /// over every epoch run including those before a resume; `None` when
    /// no epoch ran.
    pub epoch_seconds: Option<f64>,
}

/// Builder for one training run. See the module docs for the contract.
pub struct TrainSession {
    kind: SessionKind,
    cfg: TrainConfig,
    traced: bool,
    minibatch: Option<MinibatchConfig>,
    checkpoint_every: Option<usize>,
    checkpoint_to: Option<PathBuf>,
    resume_from: Option<PathBuf>,
}

impl TrainSession {
    /// A session with tracing on and checkpointing off.
    pub fn new(kind: SessionKind, cfg: &TrainConfig) -> Self {
        TrainSession {
            kind,
            cfg: *cfg,
            traced: true,
            minibatch: None,
            checkpoint_every: None,
            checkpoint_to: None,
            resume_from: None,
        }
    }

    /// Train with sampled ego-subgraph minibatches instead of full-batch
    /// epochs. Node classification and link prediction only — graph
    /// classification already iterates over (small, whole) graphs, and
    /// clustering's unsupervised objective is defined on the full graph.
    /// Evaluation stays full-graph, so metrics remain comparable to the
    /// full-batch trainers; see [`MinibatchConfig`].
    pub fn minibatch(mut self, mb: MinibatchConfig) -> Self {
        self.minibatch = Some(mb);
        self
    }

    /// Collect the per-epoch trace in the outcome (default `true`).
    /// Tracing is pure observation either way.
    pub fn traced(mut self, on: bool) -> Self {
        self.traced = on;
        self
    }

    /// Write a checkpoint every `n` completed epochs (in addition to the
    /// final one). Requires [`TrainSession::checkpoint_to`].
    pub fn checkpoint_every(mut self, n: usize) -> Self {
        self.checkpoint_every = Some(n);
        self
    }

    /// Write checkpoints to `path` (atomically: a temp file is renamed
    /// into place). With no `checkpoint_every`, only the final state is
    /// written.
    pub fn checkpoint_to(mut self, path: impl Into<PathBuf>) -> Self {
        self.checkpoint_to = Some(path.into());
        self
    }

    /// Resume from a checkpoint written by an identical session: same
    /// task, model, dataset identity and training configuration —
    /// anything else is an [`MgError::Mismatch`]. The epoch budget is
    /// the one deliberate exception: resuming with a larger `epochs`
    /// continues an interrupted (or exhausted) run, and the continuation
    /// replays exactly what an uninterrupted run with that budget would
    /// have computed.
    pub fn resume_from(mut self, path: impl Into<PathBuf>) -> Self {
        self.resume_from = Some(path.into());
        self
    }

    /// Run the session to completion.
    pub fn run<'a>(&self, input: impl Into<SessionInput<'a>>) -> Result<RunOutcome, MgError> {
        if self.checkpoint_every.is_some() && self.checkpoint_to.is_none() {
            return Err(MgError::InvalidInput {
                detail: "checkpoint_every(n) needs a destination; call checkpoint_to(path) too"
                    .into(),
            });
        }
        self.cfg.check(&self.kind)?;
        let mb = self.minibatch.as_ref();
        if let Some(mb) = mb {
            mb.check()?;
        }
        let resume = match &self.resume_from {
            Some(p) => Some(Checkpoint::load(p)?),
            None => None,
        };
        let hooks = CkptHooks {
            every: self.checkpoint_every,
            path: self.checkpoint_to.as_deref(),
            resume: resume.as_ref(),
        };
        let cfg = &self.cfg;
        let input = input.into();
        check_input(&input)?;
        let mut outcome = match (self.kind, input) {
            (SessionKind::NodeClassification(k), SessionInput::Node(ds)) => {
                node_task(k, ds, FullGraph::classes(ds, cfg)?, cfg, mb, &hooks)?
            }
            (SessionKind::LinkPrediction(k), SessionInput::Node(ds)) => {
                node_task(k, ds, FullGraph::links(ds, cfg)?, cfg, mb, &hooks)?
            }
            (SessionKind::NodeClustering(k), SessionInput::Node(ds)) if mb.is_none() => {
                node_task(k, ds, FullGraph::clusters(ds), cfg, mb, &hooks)?
            }
            (SessionKind::GraphClassification(k), SessionInput::Graphs(ds)) if mb.is_none() => {
                graph_classification(k, &build_contexts(ds), ds.feat_dim, cfg, &hooks)?
            }
            (
                SessionKind::GraphClassification(k),
                SessionInput::Prebuilt { contexts, feat_dim },
            ) if mb.is_none() => graph_classification(k, contexts, feat_dim, cfg, &hooks)?,
            (kind, _) => {
                let task = kind.task_name();
                let detail = match mb {
                    Some(_) => format!(
                        "minibatch sampling applies to node classification and link \
                         prediction, not {task}"
                    ),
                    None => format!(
                        "{task} cannot run on this input (node-level tasks take a \
                         NodeDataset, graph classification a GraphDataset or prebuilt contexts)"
                    ),
                };
                return Err(MgError::InvalidInput { detail });
            }
        };
        if !self.traced {
            outcome.trace = TrainTrace::new();
        }
        Ok(outcome)
    }
}

/// What [`TrainSession::run`] checks before it trains: each graph has
/// one feature row and (node tasks) one label per node, its features
/// have the input width, every feature is finite, and every label names
/// a class. Anything else would index out of range or train into a NaN.
fn check_input(input: &SessionInput<'_>) -> Result<(), MgError> {
    let (sized, finite, labelled) = match input {
        SessionInput::Node(ds) => (
            ds.features.rows() == ds.n() && ds.labels.len() == ds.n(),
            ds.features.all_finite(),
            ds.labels.iter().all(|&l| l < ds.num_classes),
        ),
        SessionInput::Graphs(ds) => (
            ds.samples
                .iter()
                .all(|s| s.features.rows() == s.graph.n() && s.features.cols() == ds.feat_dim),
            ds.samples.iter().all(|s| s.features.all_finite()),
            ds.samples.iter().all(|s| s.label < GRAPH_CLASSES),
        ),
        SessionInput::Prebuilt { contexts, feat_dim } => (
            contexts.iter().all(|(c, _)| c.feat_dim() == *feat_dim),
            contexts
                .iter()
                .all(|(c, _)| c.x_sparse().1.iter().all(|v| v.is_finite())),
            contexts.iter().all(|&(_, l)| l < GRAPH_CLASSES),
        ),
    };
    let detail = if !sized {
        "input feature rows, labels or feature width do not match the graph"
    } else if !finite {
        "input features hold a NaN or infinity"
    } else if !labelled {
        "an input label is not below the number of classes"
    } else {
        return Ok(());
    };
    Err(MgError::InvalidInput {
        detail: detail.into(),
    })
}

/// Flatten a [`TrainConfig`] into its persisted mirror.
pub(crate) fn to_ckpt_config(cfg: &TrainConfig) -> CkptConfig {
    CkptConfig {
        epochs: cfg.epochs,
        lr: cfg.lr,
        patience: cfg.patience,
        hidden: cfg.hidden,
        levels: cfg.levels,
        seed: cfg.seed,
        gamma: cfg.weights.gamma,
        delta: cfg.weights.delta,
        flyback: cfg.flyback,
        pooling: cfg.pooling,
    }
}

/// Rebuild a [`TrainConfig`] from its persisted mirror.
pub(crate) fn from_ckpt_config(c: &CkptConfig) -> TrainConfig {
    TrainConfig {
        epochs: c.epochs,
        lr: c.lr,
        patience: c.patience,
        hidden: c.hidden,
        levels: c.levels,
        seed: c.seed,
        weights: LossWeights {
            gamma: c.gamma,
            delta: c.delta,
        },
        flyback: c.flyback,
        pooling: c.pooling,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adamgnn_core::PoolingKind;

    #[test]
    fn config_roundtrips_through_ckpt_mirror() {
        let cfg = TrainConfig {
            epochs: 7,
            lr: 0.005,
            patience: 3,
            hidden: 12,
            levels: 2,
            seed: 42,
            weights: LossWeights {
                gamma: 0.1,
                delta: 0.3,
            },
            flyback: false,
            pooling: adamgnn_core::PoolingKind::Asap,
        };
        let back = from_ckpt_config(&to_ckpt_config(&cfg));
        assert_eq!(to_ckpt_config(&back), to_ckpt_config(&cfg));
    }

    /// A checkpoint trained under one pooling operator holds that
    /// operator's parameters; resuming it under another must be a typed
    /// mismatch, never a silent reinterpretation of the weights.
    #[test]
    fn resume_under_different_pooling_operator_is_a_mismatch() {
        let ds = mg_data::make_node_dataset(
            mg_data::NodeDatasetKind::Cora,
            &mg_data::NodeGenConfig {
                scale: 0.05,
                max_feat_dim: 16,
                seed: 7,
            },
        );
        let dir = std::env::temp_dir().join("mg_session_pooling_mismatch");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("adamgnn.mgck");
        let cfg = TrainConfig {
            epochs: 2,
            patience: 2,
            hidden: 8,
            levels: 2,
            seed: 3,
            pooling: adamgnn_core::PoolingKind::AdamGnn,
            ..Default::default()
        };
        TrainSession::new(
            SessionKind::NodeClassification(NodeModelKind::AdamGnn),
            &cfg,
        )
        .checkpoint_to(&path)
        .run(&ds)
        .unwrap();
        let other = TrainConfig {
            epochs: 4,
            pooling: adamgnn_core::PoolingKind::Asap,
            ..cfg
        };
        let err = TrainSession::new(
            SessionKind::NodeClassification(NodeModelKind::AdamGnn),
            &other,
        )
        .resume_from(&path)
        .run(&ds);
        assert!(matches!(err, Err(MgError::Mismatch { .. })), "{err:?}");
        // same operator, larger budget: a legitimate continuation
        let cont = TrainConfig { epochs: 4, ..cfg };
        TrainSession::new(
            SessionKind::NodeClassification(NodeModelKind::AdamGnn),
            &cont,
        )
        .resume_from(&path)
        .run(&ds)
        .expect("same-operator resume continues");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_every_without_destination_errors() {
        let ds = mg_data::make_node_dataset(
            mg_data::NodeDatasetKind::Cora,
            &mg_data::NodeGenConfig {
                scale: 0.05,
                max_feat_dim: 16,
                seed: 0,
            },
        );
        let err = TrainSession::new(
            SessionKind::NodeClassification(NodeModelKind::Gcn),
            &TrainConfig::default(),
        )
        .checkpoint_every(5)
        .run(&ds);
        assert!(matches!(err, Err(MgError::InvalidInput { .. })));
    }

    #[test]
    fn mismatched_input_kind_errors() {
        let ds = mg_data::make_graph_dataset(
            mg_data::GraphDatasetKind::Proteins,
            &mg_data::GraphGenConfig {
                scale: 0.02,
                max_nodes: 20,
                seed: 0,
            },
        );
        let err = TrainSession::new(
            SessionKind::NodeClassification(NodeModelKind::Gcn),
            &TrainConfig::default(),
        )
        .run(&ds);
        assert!(matches!(err, Err(MgError::InvalidInput { .. })));
    }

    fn tiny_cora() -> NodeDataset {
        mg_data::make_node_dataset(
            mg_data::NodeDatasetKind::Cora,
            &mg_data::NodeGenConfig {
                scale: 0.05,
                max_feat_dim: 16,
                seed: 0,
            },
        )
    }

    fn assert_invalid(got: Result<RunOutcome, MgError>, what: &str) {
        assert!(
            matches!(got, Err(MgError::InvalidInput { .. })),
            "{what}: {:?}",
            got.map(|o| o.test_metric)
        );
    }

    /// Zero levels used to panic in `AdamGnn::new` under every pooling
    /// operator; it is now a typed error before anything is built.
    #[test]
    fn zero_levels_fails_closed_for_adamgnn() {
        let ds = tiny_cora();
        for pooling in [
            PoolingKind::AdamGnn,
            PoolingKind::Asap,
            PoolingKind::SpaPool,
        ] {
            let cfg = TrainConfig {
                epochs: 1,
                hidden: 8,
                levels: 0,
                pooling,
                ..Default::default()
            };
            let kind = SessionKind::NodeClassification(NodeModelKind::AdamGnn);
            assert_invalid(
                TrainSession::new(kind, &cfg).run(&ds),
                &format!("{pooling:?}"),
            );
        }
    }

    /// Zero levels used to panic in `TopKGc::new`.
    #[test]
    fn zero_levels_fails_closed_for_topk_graph_classifier() {
        let graphs = mg_data::make_graph_dataset(
            mg_data::GraphDatasetKind::Mutag,
            &mg_data::GraphGenConfig {
                scale: 0.02,
                max_nodes: 20,
                seed: 0,
            },
        );
        let cfg = TrainConfig {
            epochs: 1,
            hidden: 8,
            levels: 0,
            ..Default::default()
        };
        let kind = SessionKind::GraphClassification(GraphModelKind::TopKPool);
        assert_invalid(TrainSession::new(kind, &cfg).run(&graphs), "TopKPool");
    }

    /// A zero hidden width used to return `Ok` under AdamGNN and ASAP
    /// pooling (training nothing) and a non-finite error under SpaPool.
    #[test]
    fn zero_hidden_fails_closed() {
        let ds = tiny_cora();
        for pooling in [
            PoolingKind::AdamGnn,
            PoolingKind::Asap,
            PoolingKind::SpaPool,
        ] {
            let cfg = TrainConfig {
                epochs: 1,
                hidden: 0,
                levels: 2,
                pooling,
                ..Default::default()
            };
            let kind = SessionKind::NodeClassification(NodeModelKind::AdamGnn);
            assert_invalid(
                TrainSession::new(kind, &cfg).run(&ds),
                &format!("{pooling:?}"),
            );
        }
    }

    /// A zero fanout used to train silently on edgeless subgraphs.
    #[test]
    fn zero_fanout_fails_closed() {
        let ds = tiny_cora();
        let cfg = TrainConfig {
            epochs: 1,
            hidden: 8,
            levels: 2,
            ..Default::default()
        };
        for fanouts in [vec![0, 0], vec![4, 0]] {
            let kind = SessionKind::NodeClassification(NodeModelKind::AdamGnn);
            let mb = MinibatchConfig {
                batch_size: 16,
                fanouts: fanouts.clone(),
            };
            let got = TrainSession::new(kind, &cfg).minibatch(mb).run(&ds);
            assert_invalid(got, &format!("fanouts {fanouts:?}"));
        }
    }

    /// A NaN in the inputs poisons the loss: every trainer must fail
    /// with a typed error instead of returning a NaN trace.
    #[test]
    fn non_finite_loss_fails_closed() {
        let mut ds = mg_data::make_node_dataset(
            mg_data::NodeDatasetKind::Cora,
            &mg_data::NodeGenConfig {
                scale: 0.05,
                max_feat_dim: 16,
                seed: 0,
            },
        );
        let cfg = TrainConfig {
            epochs: 3,
            hidden: 8,
            levels: 2,
            ..Default::default()
        };
        // a training node, so every epoch's loss reads its row
        let split = mg_data::Split::random_80_10_10(ds.n(), cfg.seed ^ 0x5eed).unwrap();
        let mut x = ds.features.to_dense();
        x[(split.train[0], 0)] = f64::NAN;
        ds.features = x.into();
        assert!(!ds.features.all_finite(), "the sparse store keeps the NaN");
        let kind = SessionKind::NodeClassification(NodeModelKind::AdamGnn);
        let full = TrainSession::new(kind, &cfg).run(&ds);
        assert!(
            matches!(full, Err(MgError::InvalidInput { .. })),
            "{full:?}"
        );
        let sampled = TrainSession::new(kind, &cfg)
            .minibatch(MinibatchConfig {
                batch_size: 16,
                fanouts: vec![4, 4],
            })
            .run(&ds);
        assert!(
            matches!(sampled, Err(MgError::InvalidInput { .. })),
            "{sampled:?}"
        );
    }

    /// A label at or above the class count would index past the logits
    /// in the loss: every classifier must reject it up front.
    #[test]
    fn out_of_range_label_fails_closed() {
        let mut ds = mg_data::make_node_dataset(
            mg_data::NodeDatasetKind::Cora,
            &mg_data::NodeGenConfig {
                scale: 0.05,
                max_feat_dim: 16,
                seed: 0,
            },
        );
        let cfg = TrainConfig {
            epochs: 2,
            hidden: 8,
            levels: 2,
            ..Default::default()
        };
        let split = mg_data::Split::random_80_10_10(ds.n(), cfg.seed ^ 0x5eed).unwrap();
        ds.labels[split.train[0]] = ds.num_classes;
        let kind = SessionKind::NodeClassification(NodeModelKind::Gcn);
        let full = TrainSession::new(kind, &cfg).run(&ds);
        assert!(
            matches!(full, Err(MgError::InvalidInput { .. })),
            "{full:?}"
        );
        let mb = MinibatchConfig {
            batch_size: 16,
            fanouts: vec![4, 4],
        };
        let sampled = TrainSession::new(kind, &cfg).minibatch(mb).run(&ds);
        let sampled_err = matches!(sampled, Err(MgError::InvalidInput { .. }));
        assert!(sampled_err, "{sampled:?}");

        let mut graphs = mg_data::make_graph_dataset(
            mg_data::GraphDatasetKind::Mutag,
            &mg_data::GraphGenConfig {
                scale: 0.02,
                max_nodes: 20,
                seed: 0,
            },
        );
        for s in &mut graphs.samples {
            s.label = graphs.num_classes;
        }
        let kind = SessionKind::GraphClassification(GraphModelKind::Gin);
        let gc = TrainSession::new(kind, &cfg).run(&graphs);
        assert!(matches!(gc, Err(MgError::InvalidInput { .. })), "{gc:?}");
    }

    /// A feature matrix or a label vector whose length is not the node
    /// count is rejected up front by every node trainer (and a graph
    /// whose feature rows do not match its nodes by graph
    /// classification), instead of panicking mid-run.
    #[test]
    fn mis_sized_inputs_fail_closed() {
        let ds = mg_data::make_node_dataset(
            mg_data::NodeDatasetKind::Cora,
            &mg_data::NodeGenConfig {
                scale: 0.05,
                max_feat_dim: 16,
                seed: 0,
            },
        );
        let cfg = TrainConfig {
            epochs: 1,
            hidden: 8,
            levels: 2,
            ..Default::default()
        };
        let drop_last_row = |x: &mg_tensor::SparseMatrix| -> mg_tensor::SparseMatrix {
            let x = x.to_dense();
            mg_tensor::Matrix::from_fn(x.rows() - 1, x.cols(), |i, j| x[(i, j)]).into()
        };
        let mut short_features = ds.clone();
        short_features.features = drop_last_row(&ds.features);
        let mut short_labels = ds.clone();
        short_labels.labels.pop();
        let mb = MinibatchConfig {
            batch_size: 16,
            fanouts: vec![4, 4],
        };
        let gcn = NodeModelKind::Gcn;
        let runs = [
            ("full-batch", SessionKind::NodeClassification(gcn), None),
            ("sampled", SessionKind::NodeClassification(gcn), Some(&mb)),
            ("link prediction", SessionKind::LinkPrediction(gcn), None),
            (
                "sampled link prediction",
                SessionKind::LinkPrediction(gcn),
                Some(&mb),
            ),
        ];
        for (what, bad) in [("features", &short_features), ("labels", &short_labels)] {
            for (path, kind, mb) in &runs {
                let mut session = TrainSession::new(*kind, &cfg);
                if let Some(mb) = mb {
                    session = session.minibatch((*mb).clone());
                }
                let got = session.run(bad);
                let rejected = matches!(got, Err(MgError::InvalidInput { .. }));
                assert!(rejected, "{path}, short {what}: {got:?}");
            }
        }

        let mut graphs = mg_data::make_graph_dataset(
            mg_data::GraphDatasetKind::Mutag,
            &mg_data::GraphGenConfig {
                scale: 0.02,
                max_nodes: 20,
                seed: 0,
            },
        );
        graphs.samples[3].features = drop_last_row(&graphs.samples[3].features);
        let kind = SessionKind::GraphClassification(GraphModelKind::Gin);
        let gc = TrainSession::new(kind, &cfg).run(&graphs);
        assert!(matches!(gc, Err(MgError::InvalidInput { .. })), "{gc:?}");
    }
}
