//! The node-level tasks — node classification (accuracy), link
//! prediction (ROC-AUC) and node clustering (NMI) — under the paper's
//! protocol: 80/10/10 splits, best-validation selection and the composite
//! AdamGNN loss. A `FullGraph` holds what a task trains for and how it
//! is scored; it trains full-batch here (`Whole`) or on sampled
//! ego-subgraphs (`minibatch::Sampled`).

use crate::clustering::{bce_pair_batch, kmeans, nmi, PairBatch};
use crate::metrics::{accuracy, pair_scores, roc_auc};
use crate::minibatch::{Batch, MinibatchConfig, Sampled};
use crate::models::{AnyNodeModel, NodeModelKind};
use crate::session::{RunOutcome, SessionKind};
use crate::telemetry::LossTerms;
use crate::trainer::{train, CkptHooks, Job, Step, StepResult, Task};
use adamgnn_core::{ckpt_tape_or, with_ckpt_tape, LossWeights, PoolingKind};
use adamgnn_core::{kl_loss, reconstruction_loss, total_loss, AdamGnnOutput, FrozenStructure};
use mg_ckpt::CkptMeta;
use mg_data::{LinkSplit, NodeDataset, Split};
use mg_graph::Topology;
use mg_nn::GraphCtx;
use mg_tensor::{Binding, Matrix, MgError, ParamStore, Tape, Var};
use rand::rngs::StdRng;
use rand::RngExt;
use std::rc::Rc;

/// Training options shared by every task.
#[derive(Clone, Copy, Debug)]
pub struct TrainConfig {
    pub epochs: usize,
    pub lr: f64,
    /// Early-stopping patience in epochs without validation improvement.
    pub patience: usize,
    pub hidden: usize,
    /// AdamGNN granularity levels.
    pub levels: usize,
    pub seed: u64,
    /// AdamGNN composite-loss weights (γ, δ); zero disables a term.
    pub weights: LossWeights,
    /// AdamGNN flyback aggregator toggle (Table 5 ablation).
    pub flyback: bool,
    /// Pooling operator AdamGNN models coarsen with (Table-4 rivals run
    /// behind the same trait). Ignored by the flat baselines.
    pub pooling: PoolingKind,
}

impl TrainConfig {
    /// Reject a configuration that no model of `kind` can train: a zero
    /// hidden width, or zero levels for a model that pools level by level
    /// (AdamGNN under every pooling operator, and the TOPKPOOL and
    /// SAGPOOL graph classifiers). [`crate::TrainSession::run`] calls
    /// this before anything is built.
    pub fn check(&self, kind: &SessionKind) -> Result<(), MgError> {
        use crate::models::GraphModelKind as G;
        if self.hidden == 0 {
            let detail = "hidden must be >= 1: a zero-width model has nothing to train".into();
            return Err(MgError::InvalidInput { detail });
        }
        let pools = match kind {
            SessionKind::NodeClassification(m)
            | SessionKind::LinkPrediction(m)
            | SessionKind::NodeClustering(m) => *m == NodeModelKind::AdamGnn,
            SessionKind::GraphClassification(m) => {
                matches!(m, G::AdamGnn | G::TopKPool | G::SagPool)
            }
        };
        if pools && self.levels == 0 {
            let detail = "levels must be >= 1 for a model that pools level by level".into();
            return Err(MgError::InvalidInput { detail });
        }
        Ok(())
    }
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 120,
            lr: 0.01,
            patience: 30,
            hidden: 64,
            levels: 3,
            seed: 0,
            weights: LossWeights::default(),
            flyback: true,
            pooling: PoolingKind::AdamGnn,
        }
    }
}

/// Train `kind` on `ds` for `eval`'s goal: full-batch, or sampled when
/// `mb` is set.
pub(crate) fn node_task(
    kind: NodeModelKind,
    ds: &NodeDataset,
    eval: FullGraph,
    cfg: &TrainConfig,
    mb: Option<&MinibatchConfig>,
    hooks: &CkptHooks<'_>,
) -> Result<RunOutcome, MgError> {
    let (name, out_dim) = match eval.goal {
        Goal::Classes { .. } => ("node_classification", ds.num_classes),
        Goal::Links(_) => ("link_prediction", cfg.hidden),
        Goal::Clusters { .. } => ("node_clustering", cfg.hidden),
    };
    let meta = CkptMeta {
        task: mb.map_or(name.into(), |mb| mb.task_tag(name)),
        model: kind.name().into(),
        dataset: ds.name.clone(),
        in_dim: ds.feat_dim(),
        out_dim,
        n_nodes: ds.n(),
    };
    let job = Job::new(name, meta, ds.n(), ds.graph.num_edges(), cfg);
    let (outcome, _) = train(&job, cfg, hooks, |store, rng| {
        let model = kind.build(store, ds.feat_dim(), cfg.hidden, out_dim, cfg, rng);
        let (weights, graph) = (cfg.weights, &ds.graph);
        let task: Box<dyn Task> = match mb {
            None => Box::new(Whole {
                model,
                weights,
                graph,
                eval,
            }),
            Some(mb) => {
                let batch = Batch::of(&eval, ds, mb.batch_size)?;
                Box::new(Sampled::new(model, cfg, ds, mb, batch, Some(eval)))
            }
        };
        Ok(task)
    })?;
    Ok(outcome)
}

/// What a node task trains for, with the data its objective and metrics
/// read besides the labels.
pub(crate) enum Goal {
    /// Cross-entropy on the training nodes; accuracy on the node split.
    Classes {
        train: Rc<Vec<usize>>,
        val: Vec<usize>,
        test: Vec<usize>,
    },
    /// BCE on training edges and fresh non-edges; ROC-AUC on the edge
    /// split. The encoder sees only the training graph.
    Links(LinkSplit),
    /// Unsupervised BCE on every edge and as many non-edges; NMI of a
    /// k-means with `classes` clusters over the final embedding. No
    /// validation split.
    Clusters {
        classes: usize,
        edges: Vec<(usize, usize)>,
    },
}

/// A node task's goal and the full graph it is scored on, which is also
/// the graph full-batch steps train on.
pub(crate) struct FullGraph {
    pub ctx: GraphCtx,
    pub goal: Goal,
    pub labels: Rc<Vec<usize>>,
    /// Eval-mode output of the last evaluation forward.
    out: Matrix,
}

impl FullGraph {
    pub fn classes(ds: &NodeDataset, cfg: &TrainConfig) -> Result<FullGraph, MgError> {
        let Split { train, val, test } = Split::random_80_10_10(ds.n(), cfg.seed ^ 0x5eed)?;
        let train = Rc::new(train);
        Ok(FullGraph::new(
            ds.graph.clone(),
            ds,
            Goal::Classes { train, val, test },
        ))
    }

    pub fn links(ds: &NodeDataset, cfg: &TrainConfig) -> Result<FullGraph, MgError> {
        let link = LinkSplit::new(&ds.graph, cfg.seed ^ 0x11bb)?;
        let graph = link.train_graph.clone();
        Ok(FullGraph::new(graph, ds, Goal::Links(link)))
    }

    pub fn clusters(ds: &NodeDataset) -> FullGraph {
        let edges = ds.graph.edges();
        let edges = edges.map(|(u, v)| (u as usize, v as usize)).collect();
        let classes = ds.num_classes;
        FullGraph::new(ds.graph.clone(), ds, Goal::Clusters { classes, edges })
    }

    fn new(graph: Topology, ds: &NodeDataset, goal: Goal) -> FullGraph {
        let ctx = GraphCtx::new(graph, ds.features.clone());
        let (labels, out) = (Rc::new(ds.labels.clone()), Matrix::zeros(0, 0));
        FullGraph {
            ctx,
            goal,
            labels,
            out,
        }
    }

    pub fn validates(&self) -> bool {
        !matches!(self.goal, Goal::Clusters { .. })
    }

    fn forward(&mut self, model: &AnyNodeModel, store: &ParamStore, rng: &mut StdRng) {
        let tape = Tape::new();
        let (out, _) = model.forward(&tape, &store.bind_frozen(&tape), &self.ctx, false, rng);
        self.out = tape.value_cloned(out);
    }

    pub fn validate(&mut self, model: &AnyNodeModel, store: &ParamStore, rng: &mut StdRng) -> f64 {
        self.forward(model, store, rng);
        self.score(true, rng)
    }

    /// The test metric of the output the last validation computed, or,
    /// without a validation split, of a fresh forward.
    pub fn test(&mut self, model: &AnyNodeModel, store: &ParamStore, rng: &mut StdRng) -> f64 {
        if !self.validates() {
            self.forward(model, store, rng);
        }
        self.score(false, rng)
    }

    /// The metric on the validation split, or else on the test split.
    fn score(&self, on_val: bool, rng: &mut StdRng) -> f64 {
        let (out, labels) = (&self.out, &self.labels);
        match &self.goal {
            Goal::Classes { val, test, .. } => {
                accuracy(out, labels, if on_val { val } else { test })
            }
            Goal::Links(l) => {
                let (pos, neg) = match on_val {
                    true => (&l.val_pos, &l.val_neg),
                    false => (&l.test_pos, &l.test_neg),
                };
                roc_auc(&pair_scores(out, pos), &pair_scores(out, neg))
            }
            Goal::Clusters { classes, .. } => nmi(&kmeans(out, *classes, 50, rng), labels),
        }
    }
}

/// Full-batch training: one step per epoch on the whole graph. Its
/// training forward checkpoints its tape unless [`with_ckpt_tape`] says
/// otherwise: on a whole graph the per-pair and per-level values that
/// the scopes drop are most of the step's peak memory, and replaying
/// them costs little next to the step. The gradients are bitwise the
/// same either way.
struct Whole<'a> {
    model: AnyNodeModel,
    weights: LossWeights,
    /// The full graph: training negatives must be non-edges of it.
    graph: &'a Topology,
    eval: FullGraph,
}

impl Task for Whole<'_> {
    fn step(&mut self, _: usize, tape: &Tape, bind: &Binding, rng: &mut StdRng) -> StepResult {
        let (ctx, g, w) = (&self.eval.ctx, self.graph, &self.weights);
        let out = with_ckpt_tape(ckpt_tape_or(true), || {
            self.model.forward(tape, bind, ctx, true, rng)
        });
        Ok(match &self.eval.goal {
            Goal::Classes { train, .. } => {
                let (labels, train) = (self.eval.labels.clone(), train.clone());
                classify_objective(tape, out, labels, train, &ctx.graph, w, rng)
            }
            Goal::Links(link) => {
                let pos = link.train_pos.clone();
                let batch = with_negatives(pos, 100, g.n(), rng, |u, v| g.has_edge(u, v));
                link_objective(tape, out, batch, w.gamma)
            }
            Goal::Clusters { edges, .. } => {
                link_objective(tape, out, bce_pair_batch(g, edges, rng)?, w.gamma)
            }
        })
    }

    fn validates(&self) -> bool {
        self.eval.validates()
    }

    fn validate(&mut self, store: &ParamStore, rng: &mut StdRng) -> f64 {
        self.eval.validate(&self.model, store, rng)
    }

    fn test(&mut self, store: &ParamStore, rng: &mut StdRng) -> f64 {
        self.eval.test(&self.model, store, rng)
    }

    fn structure(&self, store: &ParamStore) -> Option<FrozenStructure> {
        self.model.record_structure(store, &self.eval.ctx)
    }
}

/// The node-classification objective: cross-entropy of `logits` on the
/// `rows`, and for AdamGNN `L_task + γ·L_KL + δ·L_R` with `L_R` sampled
/// on `graph`. A zero constant stands in for a term whose weight is 0.
pub(crate) fn classify_objective(
    tape: &Tape,
    (logits, internals): (Var, Option<AdamGnnOutput>),
    targets: Rc<Vec<usize>>,
    rows: Rc<Vec<usize>>,
    graph: &Topology,
    weights: &LossWeights,
    rng: &mut StdRng,
) -> Step {
    let task = tape.cross_entropy(logits, targets, rows);
    let mut terms = LossTerms {
        task: Some(task),
        ..LossTerms::default()
    };
    let Some(out) = &internals else {
        return Step::new(tape, task, terms, internals);
    };
    let zero = || tape.constant(Matrix::zeros(1, 1));
    let kl = match weights.gamma != 0.0 {
        true => kl_loss(tape, out.h, &out.egos_l1),
        false => zero(),
    };
    let recon = match weights.delta != 0.0 {
        true => reconstruction_loss(tape, out.h, graph, rng),
        false => zero(),
    };
    (terms.kl, terms.recon) = (Some(kl), Some(recon));
    let loss = total_loss(tape, task, kl, recon, weights);
    Step::new(tape, loss, terms, internals)
}

/// The objective of the pair-scoring tasks (link prediction, clustering):
/// BCE of the embedding `h` over `pairs`. That BCE *is* `L_R`, so AdamGNN
/// adds only `γ·L_KL`, and only when γ ≠ 0.
pub(crate) fn link_objective(
    tape: &Tape,
    (h, internals): (Var, Option<AdamGnnOutput>),
    (pairs, labels): PairBatch,
    gamma: f64,
) -> Step {
    let task = tape.bce_pairs(h, Rc::new(pairs), Rc::new(labels));
    let mut terms = LossTerms::default();
    (terms.task, terms.recon) = (Some(task), Some(task));
    let loss = match &internals {
        Some(out) if gamma != 0.0 => {
            let kl = kl_loss(tape, out.h, &out.egos_l1);
            terms.kl = Some(kl);
            tape.add(task, tape.scale(kl, gamma))
        }
        _ => task,
    };
    Step::new(tape, loss, terms, internals)
}

/// `pos` labelled 1, then up to as many training negatives: random pairs
/// of distinct ids in `0..k` that are not `adjacent`, labelled 0, giving
/// up after `guard * pos.len()` draws. The link-prediction goldens pin
/// this rejection loop's draw sequence; a rare shortfall only softens
/// one step's loss.
pub(crate) fn with_negatives(
    pos: Vec<(usize, usize)>,
    guard: usize,
    k: usize,
    rng: &mut StdRng,
    adjacent: impl Fn(usize, usize) -> bool,
) -> PairBatch {
    let want = pos.len();
    let (mut pairs, mut labels) = (pos, vec![1.0; want]);
    let mut draws = 0;
    while labels.len() < 2 * want && draws < guard * want {
        draws += 1;
        let (u, v) = (rng.random_range(0..k), rng.random_range(0..k));
        if u != v && !adjacent(u, v) {
            pairs.push((u, v));
            labels.push(0.0);
        }
    }
    (pairs, labels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{SessionKind, TrainSession};
    use mg_data::{make_node_dataset, NodeDatasetKind, NodeGenConfig};

    fn tiny_ds() -> NodeDataset {
        make_node_dataset(
            NodeDatasetKind::Cora,
            &NodeGenConfig {
                scale: 0.08,
                max_feat_dim: 48,
                seed: 11,
            },
        )
    }

    fn fast_cfg() -> TrainConfig {
        TrainConfig {
            epochs: 30,
            lr: 0.02,
            patience: 30,
            hidden: 16,
            levels: 2,
            seed: 1,
            ..Default::default()
        }
    }

    #[test]
    fn gcn_nc_beats_chance() {
        let ds = tiny_ds();
        let res = TrainSession::new(
            SessionKind::NodeClassification(NodeModelKind::Gcn),
            &fast_cfg(),
        )
        .run(&ds)
        .unwrap();
        let chance = 1.0 / ds.num_classes as f64;
        assert!(res.test_metric > chance + 0.1, "acc = {}", res.test_metric);
        assert_eq!(res.trace.len(), res.epochs_run, "traced by default");
    }

    #[test]
    fn adamgnn_nc_beats_chance() {
        let ds = tiny_ds();
        let res = TrainSession::new(
            SessionKind::NodeClassification(NodeModelKind::AdamGnn),
            &fast_cfg(),
        )
        .run(&ds)
        .unwrap();
        let chance = 1.0 / ds.num_classes as f64;
        assert!(res.test_metric > chance + 0.1, "acc = {}", res.test_metric);
    }

    #[test]
    fn gcn_lp_beats_chance() {
        let ds = tiny_ds();
        let res = TrainSession::new(SessionKind::LinkPrediction(NodeModelKind::Gcn), &fast_cfg())
            .traced(false)
            .run(&ds)
            .unwrap();
        assert!(res.test_metric > 0.6, "auc = {}", res.test_metric);
        assert!(res.trace.is_empty(), "untraced session drops the trace");
    }

    #[test]
    fn adamgnn_lp_beats_chance() {
        let ds = tiny_ds();
        let res = TrainSession::new(
            SessionKind::LinkPrediction(NodeModelKind::AdamGnn),
            &fast_cfg(),
        )
        .run(&ds)
        .unwrap();
        assert!(res.test_metric > 0.6, "auc = {}", res.test_metric);
    }

    /// Two sessions with identical configuration must agree bit for bit
    /// (the determinism contract the goldens rely on).
    #[test]
    fn repeated_session_is_bitwise_repeatable() {
        let ds = tiny_ds();
        let cfg = fast_cfg();
        let a = TrainSession::new(SessionKind::NodeClassification(NodeModelKind::Gcn), &cfg)
            .run(&ds)
            .unwrap();
        let b = TrainSession::new(SessionKind::NodeClassification(NodeModelKind::Gcn), &cfg)
            .run(&ds)
            .unwrap();
        assert_eq!(a.test_metric.to_bits(), b.test_metric.to_bits());
        assert_eq!(
            a.val_metric.unwrap().to_bits(),
            b.val_metric.unwrap().to_bits()
        );
        assert_eq!(a.epochs_run, b.epochs_run);
    }
}
