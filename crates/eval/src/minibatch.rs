//! Sampled ego-subgraph minibatches for the node-level tasks: each step
//! runs the full model on the subgraph [`NeighborSampler`] draws around
//! its seed nodes (NC) or training edges (LP), with the loss on the seeds.
//! Evaluation stays full-graph; the million-node path
//! ([`sampled_epochs_streamed`]) builds no full-graph context at all.

use crate::models::{AnyNodeModel, NodeModelKind};
use crate::node_tasks::TrainConfig;
use crate::node_tasks::{classify_objective, link_objective, with_negatives, FullGraph, Goal};
use crate::trainer::{train, CkptHooks, Job, Shuffled, StepResult, Task};
use adamgnn_core::LossWeights;
use mg_ckpt::CkptMeta;
use mg_data::{NeighborSampler, NodeDataset, NodeFeatureSource, SampledSubgraph};
use mg_graph::Topology;
use mg_nn::GraphCtx;
use mg_tensor::{Binding, Matrix, MgError, ParamStore, Tape};
use rand::rngs::StdRng;
use rand::RngExt;
use std::borrow::Cow;
use std::collections::HashMap;
use std::rc::Rc;

/// Sampled-minibatch options, attached to a session with
/// [`crate::TrainSession::minibatch`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MinibatchConfig {
    /// Seed nodes (NC) or training edges (LP) per optimizer step.
    pub batch_size: usize,
    /// Neighbors kept per node per hop; the length is the sampled
    /// receptive-field depth. `[12, 12]` matches a 2-level model.
    pub fanouts: Vec<usize>,
}

impl Default for MinibatchConfig {
    fn default() -> Self {
        MinibatchConfig {
            batch_size: 64,
            fanouts: vec![12, 12],
        }
    }
}

impl MinibatchConfig {
    /// Stable identity string, embedded in checkpoint metadata so a
    /// full-batch checkpoint cannot silently resume a sampled run (or
    /// vice versa, or across different sampling configurations).
    pub(crate) fn task_tag(&self, base: &str) -> String {
        let fans: Vec<String> = self.fanouts.iter().map(|f| f.to_string()).collect();
        format!("{base}_minibatch/b{}/f{}", self.batch_size, fans.join("-"))
    }

    /// Reject a configuration that cannot form a batch.
    pub(crate) fn check(&self) -> Result<(), MgError> {
        if self.batch_size == 0 || self.fanouts.is_empty() || self.fanouts.contains(&0) {
            // a zero fanout samples no neighbours: every batch would train
            // on an edgeless subgraph
            let detail =
                "minibatch needs batch_size >= 1 and at least one fanout, each >= 1".into();
            return Err(MgError::InvalidInput { detail });
        }
        Ok(())
    }
}

/// Sample around `seeds` and gather the subgraph's features and labels
/// into batch-local arrays (local row `l` is global node `sub.nodes[l]`).
/// A caller's source is checked as it is read: a non-finite feature or a
/// label outside `0..num_classes` is an [`MgError::InvalidInput`].
fn sample(
    src: &dyn NodeFeatureSource,
    graph: &Topology,
    (sampler, fanouts): (&mut NeighborSampler, &[usize]),
    seeds: &[usize],
    rng: &mut StdRng,
) -> Result<(SampledSubgraph, GraphCtx, Vec<usize>), MgError> {
    let sub = sampler.sample(graph, seeds, fanouts, rng);
    let mut x = Matrix::zeros(sub.nodes.len(), src.feat_dim());
    let mut labels = Vec::with_capacity(sub.nodes.len());
    for (l, &g) in sub.nodes.iter().enumerate() {
        src.fill_features(g, x.row_mut(l));
        if !x.row(l).iter().all(|v| v.is_finite()) {
            let detail = format!("node {g}'s features hold a NaN or infinity");
            return Err(MgError::InvalidInput { detail });
        }
        let (label, classes) = (src.label(g), src.num_classes());
        if label >= classes {
            let detail = format!("node {g}'s label {label} is out of range for {classes} classes");
            return Err(MgError::InvalidInput { detail });
        }
        labels.push(label);
    }
    let ctx = GraphCtx::new(sub.topo.clone(), x);
    Ok((sub, ctx, labels))
}

/// What a sampled step draws its seeds from.
pub(crate) enum Batch<'a> {
    /// Node classification: the training nodes, reshuffled every epoch.
    Nodes(Shuffled<usize>),
    /// Streamed node classification: `draws` nodes drawn uniformly from
    /// `0..n` every epoch, `size` per step, each step's seeds drawn when
    /// the step runs.
    Uniform { n: usize, draws: usize, size: usize },
    /// Link prediction: the training edges, reshuffled every epoch, whose
    /// endpoints seed a sample of the `train` graph. Negatives must be
    /// non-edges of the `full` graph.
    Edges {
        edges: Shuffled<(usize, usize)>,
        train: Rc<Topology>,
        full: &'a Topology,
    },
}

impl<'a> Batch<'a> {
    /// The batches of sampled training towards `eval`'s goal on `ds`.
    pub fn of(eval: &FullGraph, ds: &'a NodeDataset, size: usize) -> Result<Self, MgError> {
        Ok(match &eval.goal {
            Goal::Classes { train, .. } => Batch::Nodes(Shuffled::new(train.to_vec(), size)),
            Goal::Links(link) => Batch::Edges {
                edges: Shuffled::new(link.train_pos.clone(), size),
                train: eval.ctx.graph.clone(),
                full: &ds.graph,
            },
            Goal::Clusters { .. } => {
                let detail = "clustering's objective is defined on the full graph".into();
                return Err(MgError::InvalidInput { detail });
            }
        })
    }
}

/// Sampled training: each step trains on the ego-subgraph around its
/// seeds, with the loss on the seed rows (NC) or the batch's pairs (LP).
pub(crate) struct Sampled<'a> {
    model: AnyNodeModel,
    weights: LossWeights,
    src: &'a dyn NodeFeatureSource,
    sampler: NeighborSampler,
    fanouts: &'a [usize],
    batch: Batch<'a>,
    /// Full-graph evaluation; `None` on the streamed path.
    eval: Option<FullGraph>,
}

impl<'a> Sampled<'a> {
    pub fn new(
        model: AnyNodeModel,
        cfg: &TrainConfig,
        src: &'a dyn NodeFeatureSource,
        mb: &'a MinibatchConfig,
        batch: Batch<'a>,
        eval: Option<FullGraph>,
    ) -> Self {
        Sampled {
            model,
            weights: cfg.weights,
            src,
            sampler: NeighborSampler::new(src.n()),
            fanouts: &mb.fanouts,
            batch,
            eval,
        }
    }
}

impl Task for Sampled<'_> {
    fn begin_epoch(&mut self, rng: &mut StdRng) -> usize {
        match &mut self.batch {
            Batch::Nodes(nodes) => nodes.begin_epoch(rng),
            Batch::Uniform { draws, size, .. } => draws.div_ceil(*size),
            Batch::Edges { edges, .. } => edges.begin_epoch(rng),
        }
    }

    fn step(&mut self, i: usize, tape: &Tape, bind: &Binding, rng: &mut StdRng) -> StepResult {
        let (src, how, w) = (self.src, (&mut self.sampler, self.fanouts), &self.weights);
        let seeds = match &self.batch {
            Batch::Nodes(nodes) => Cow::Borrowed(nodes.get(i)),
            Batch::Uniform { n, draws, size } => {
                let take = (*size).min(draws - i * size);
                Cow::Owned((0..take).map(|_| rng.random_range(0..*n)).collect())
            }
            Batch::Edges { edges, train, full } => {
                let batch = edges.get(i);
                let seeds: Vec<usize> = batch.iter().flat_map(|&(u, v)| [u, v]).collect();
                let (sub, ctx, _) = sample(src, train, how, &seeds, rng)?;
                let out = self.model.forward(tape, bind, &ctx, true, rng);
                // endpoints are seeds, so they occupy the remap's prefix
                let local: HashMap<usize, usize> =
                    sub.seed_locals().map(|l| (sub.nodes[l], l)).collect();
                let pos = batch.iter().map(|&(u, v)| (local[&u], local[&v])).collect();
                let nodes = &sub.nodes;
                let adjacent = |u: usize, v: usize| full.has_edge(nodes[u], nodes[v]);
                let pairs = with_negatives(pos, 200, nodes.len(), rng, adjacent);
                let mut step = link_objective(tape, out, pairs, w.gamma);
                step.sub = Some(sub);
                return Ok(step);
            }
        };
        let (sub, ctx, labels) = sample(src, src.graph(), how, &seeds, rng)?;
        let out = self.model.forward(tape, bind, &ctx, true, rng);
        let (labels, rows) = (Rc::new(labels), Rc::new(sub.seed_locals().collect()));
        let mut step = classify_objective(tape, out, labels, rows, &ctx.graph, w, rng);
        step.sub = Some(sub);
        Ok(step)
    }

    fn validates(&self) -> bool {
        self.eval.is_some()
    }

    fn validate(&mut self, store: &ParamStore, rng: &mut StdRng) -> f64 {
        let model = &self.model;
        self.eval
            .as_mut()
            .map_or(f64::NAN, |e| e.validate(model, store, rng))
    }

    fn test(&mut self, store: &ParamStore, rng: &mut StdRng) -> f64 {
        let model = &self.model;
        self.eval
            .as_mut()
            .map_or(f64::NAN, |e| e.test(model, store, rng))
    }
}

/// Result of streamed sampled training over a [`NodeFeatureSource`].
#[derive(Clone, Copy, Debug)]
pub struct StreamedEpoch {
    /// Mean composite loss over all steps.
    pub mean_loss: f64,
    /// Optimizer steps taken.
    pub steps: usize,
    /// Total nodes sampled across all steps.
    pub sampled_nodes: usize,
    /// Total fanout truncation events.
    pub truncated: usize,
}

/// Run sampled node-classification training epochs directly over a
/// [`NodeFeatureSource`] — the million-node path. Unlike the fixture
/// trainers this never builds a full-graph [`GraphCtx`] (whose
/// precomputed normalizations and dense feature matrix are exactly the
/// O(n)+O(m) materializations minibatching exists to avoid); every
/// matrix it touches is batch-sized. `seeds_per_epoch` nodes are drawn
/// uniformly per epoch, in batches of `mb.batch_size`.
pub fn sampled_epochs_streamed(
    src: &dyn NodeFeatureSource,
    kind: NodeModelKind,
    cfg: &TrainConfig,
    mb: &MinibatchConfig,
    seeds_per_epoch: usize,
) -> Result<StreamedEpoch, MgError> {
    if mb.batch_size == 0 || mb.fanouts.is_empty() || seeds_per_epoch == 0 {
        return Err(MgError::InvalidInput {
            detail: "streamed sampling needs batch_size, fanouts and seeds_per_epoch >= 1".into(),
        });
    }
    let n = src.n();
    let meta = CkptMeta {
        task: mb.task_tag("streamed_node_classification"),
        model: kind.name().into(),
        dataset: "streamed".into(),
        in_dim: src.feat_dim(),
        out_dim: src.num_classes(),
        n_nodes: n,
    };
    let job = Job::new("node_classification", meta, n, src.graph().num_edges(), cfg);
    let (_, totals) = train(&job, cfg, &CkptHooks::default(), |store, rng| {
        let (d, c) = (src.feat_dim(), src.num_classes());
        let model = kind.build(store, d, cfg.hidden, c, cfg, rng);
        let (draws, size) = (seeds_per_epoch, mb.batch_size);
        let batch = Batch::Uniform { n, draws, size };
        Ok(Box::new(Sampled::new(model, cfg, src, mb, batch, None)))
    })?;
    Ok(totals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{SessionKind, TrainSession};
    use mg_data::{make_node_dataset, BigGraph, BigGraphConfig, NodeDatasetKind, NodeGenConfig};

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
            epochs: 12,
            lr: 0.02,
            patience: 12,
            hidden: 16,
            levels: 2,
            seed: 1,
            ..Default::default()
        }
    }

    fn small_mb() -> MinibatchConfig {
        MinibatchConfig {
            batch_size: 32,
            fanouts: vec![8, 8],
        }
    }

    #[test]
    fn sampled_nc_beats_chance() {
        let ds = tiny_ds();
        let res = TrainSession::new(
            SessionKind::NodeClassification(NodeModelKind::Gcn),
            &fast_cfg(),
        )
        .minibatch(small_mb())
        .run(&ds)
        .unwrap();
        let chance = 1.0 / ds.num_classes as f64;
        assert!(res.test_metric > chance + 0.1, "acc = {}", res.test_metric);
        assert_eq!(res.trace.len(), res.epochs_run);
    }

    #[test]
    fn sampled_adamgnn_nc_runs() {
        let ds = tiny_ds();
        let res = TrainSession::new(
            SessionKind::NodeClassification(NodeModelKind::AdamGnn),
            &fast_cfg(),
        )
        .minibatch(small_mb())
        .run(&ds)
        .unwrap();
        let chance = 1.0 / ds.num_classes as f64;
        assert!(res.test_metric > chance, "acc = {}", res.test_metric);
    }

    #[test]
    fn sampled_lp_beats_chance() {
        let ds = tiny_ds();
        let res = TrainSession::new(SessionKind::LinkPrediction(NodeModelKind::Gcn), &fast_cfg())
            .minibatch(small_mb())
            .run(&ds)
            .unwrap();
        assert!(res.test_metric > 0.55, "auc = {}", res.test_metric);
    }

    #[test]
    fn minibatch_is_deterministic() {
        let ds = tiny_ds();
        let run = || {
            TrainSession::new(
                SessionKind::NodeClassification(NodeModelKind::Gcn),
                &fast_cfg(),
            )
            .minibatch(small_mb())
            .run(&ds)
            .unwrap()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.test_metric.to_bits(), b.test_metric.to_bits());
        assert_eq!(
            a.val_metric.unwrap().to_bits(),
            b.val_metric.unwrap().to_bits()
        );
    }

    #[test]
    fn minibatch_rejects_graph_tasks_and_bad_config() {
        let ds = tiny_ds();
        let err = TrainSession::new(SessionKind::NodeClustering(NodeModelKind::Gcn), &fast_cfg())
            .minibatch(small_mb())
            .run(&ds);
        assert!(matches!(err, Err(MgError::InvalidInput { .. })));
        let err = TrainSession::new(
            SessionKind::NodeClassification(NodeModelKind::Gcn),
            &fast_cfg(),
        )
        .minibatch(MinibatchConfig {
            batch_size: 0,
            fanouts: vec![4],
        })
        .run(&ds);
        assert!(matches!(err, Err(MgError::InvalidInput { .. })));
    }

    #[test]
    fn checkpoint_resume_replays_sampled_run_bitwise() {
        let ds = tiny_ds();
        let dir = std::env::temp_dir().join("mg_minibatch_ckpt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sampled.mgck");
        let cfg = fast_cfg();
        // uninterrupted reference
        let full = TrainSession::new(SessionKind::NodeClassification(NodeModelKind::Gcn), &cfg)
            .minibatch(small_mb())
            .run(&ds)
            .unwrap();
        // interrupted run: stop at epoch 6, checkpoint, resume
        let short_cfg = TrainConfig { epochs: 6, ..cfg };
        TrainSession::new(
            SessionKind::NodeClassification(NodeModelKind::Gcn),
            &short_cfg,
        )
        .minibatch(small_mb())
        .checkpoint_to(&path)
        .run(&ds)
        .unwrap();
        let resumed = TrainSession::new(SessionKind::NodeClassification(NodeModelKind::Gcn), &cfg)
            .minibatch(small_mb())
            .resume_from(&path)
            .run(&ds)
            .unwrap();
        assert_eq!(full.test_metric.to_bits(), resumed.test_metric.to_bits());
        assert_eq!(
            full.val_metric.unwrap().to_bits(),
            resumed.val_metric.unwrap().to_bits()
        );
        assert_eq!(full.epochs_run, resumed.epochs_run);
        // trace prefix + continuation must equal the uninterrupted trace
        assert_eq!(full.trace.records.len(), resumed.trace.records.len());
        for (a, b) in full.trace.records.iter().zip(resumed.trace.records.iter()) {
            assert_eq!(a.loss.to_bits(), b.loss.to_bits());
            assert_eq!(a.val.to_bits(), b.val.to_bits());
        }
        // a full-batch checkpoint must not resume a sampled run
        let fb_path = dir.join("fullbatch.mgck");
        TrainSession::new(
            SessionKind::NodeClassification(NodeModelKind::Gcn),
            &short_cfg,
        )
        .checkpoint_to(&fb_path)
        .run(&ds)
        .unwrap();
        let err = TrainSession::new(SessionKind::NodeClassification(NodeModelKind::Gcn), &cfg)
            .minibatch(small_mb())
            .resume_from(&fb_path)
            .run(&ds);
        assert!(matches!(err, Err(MgError::Mismatch { .. })));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn streamed_epoch_trains_without_full_ctx() {
        let big = BigGraph::generate(&BigGraphConfig {
            n: 5000,
            classes: 5,
            avg_degree: 8,
            feat_dim: 20,
            seed: 3,
            byte_budget: 8 << 20,
        });
        let cfg = TrainConfig {
            epochs: 2,
            lr: 0.02,
            hidden: 16,
            levels: 2,
            seed: 2,
            ..Default::default()
        };
        let mb = MinibatchConfig {
            batch_size: 64,
            fanouts: vec![6, 6],
        };
        let out = sampled_epochs_streamed(&big, NodeModelKind::Gcn, &cfg, &mb, 256).unwrap();
        assert_eq!(out.steps, 8); // 2 epochs x ceil(256/64)
        assert!(out.mean_loss.is_finite() && out.mean_loss > 0.0);
        assert!(out.sampled_nodes > 0);
    }

    /// A caller's source with one poisoned node: its feature row or its
    /// label.
    struct Poisoned<'a> {
        big: &'a BigGraph,
        node: usize,
        row: bool,
    }

    impl NodeFeatureSource for Poisoned<'_> {
        fn n(&self) -> usize {
            self.big.n()
        }
        fn feat_dim(&self) -> usize {
            self.big.feat_dim()
        }
        fn num_classes(&self) -> usize {
            self.big.num_classes()
        }
        fn label(&self, i: usize) -> usize {
            if i == self.node && !self.row {
                self.num_classes()
            } else {
                self.big.label(i)
            }
        }
        fn fill_features(&self, i: usize, out: &mut [f64]) {
            self.big.fill_features(i, out);
            if i == self.node && self.row {
                out[0] = f64::NAN;
            }
        }
        fn graph(&self) -> &Topology {
            self.big.graph()
        }
    }

    #[test]
    fn streamed_epoch_rejects_a_poisoned_source() {
        let big = BigGraph::generate(&BigGraphConfig {
            n: 200,
            classes: 5,
            avg_degree: 8,
            feat_dim: 20,
            seed: 3,
            byte_budget: 8 << 20,
        });
        let cfg = TrainConfig {
            epochs: 1,
            hidden: 8,
            levels: 2,
            seed: 2,
            ..Default::default()
        };
        let mb = small_mb();
        for row in [true, false] {
            let src = Poisoned {
                big: &big,
                node: 7,
                row,
            };
            let err = sampled_epochs_streamed(&src, NodeModelKind::Gcn, &cfg, &mb, 1024);
            assert!(matches!(err, Err(MgError::InvalidInput { .. })), "{err:?}");
        }
    }
}
