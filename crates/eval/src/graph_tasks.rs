//! Graph classification (Table 1's task) under the paper's protocol:
//! 80/10/10 graph split, shuffled mini-batches of graphs, accuracy at the
//! best-validation epoch.

use crate::models::GraphModelKind;
use crate::node_tasks::TrainConfig;
use crate::session::RunOutcome;
use crate::telemetry::LossTerms;
use crate::trainer::{train, CkptHooks, Job, Shuffled, Step, StepResult, Task};
use mg_ckpt::CkptMeta;
use mg_data::{GraphDataset, Split};
use mg_nn::{GraphClassifier, GraphCtx};
use mg_tensor::{Binding, MgError, ParamStore, Tape};
use rand::rngs::StdRng;
use std::rc::Rc;

/// Classes every graph classifier predicts; graph labels must lie below.
pub(crate) const GRAPH_CLASSES: usize = 2;

/// Pre-build per-graph contexts once (adjacency normalisations are
/// gradient-free and reusable across epochs).
pub fn build_contexts(ds: &GraphDataset) -> Vec<(GraphCtx, usize)> {
    ds.samples
        .iter()
        .map(|s| (GraphCtx::new(s.graph.clone(), s.features.clone()), s.label))
        .collect()
}

/// Graph classification on `contexts`, 32 graphs per step. Graph-level
/// pooling is derived per input graph, so checkpoints pin no structure.
pub(crate) fn graph_classification(
    kind: GraphModelKind,
    contexts: &[(GraphCtx, usize)],
    feat_dim: usize,
    cfg: &TrainConfig,
    hooks: &CkptHooks<'_>,
) -> Result<RunOutcome, MgError> {
    let meta = CkptMeta {
        task: "graph_classification".into(),
        model: kind.name().into(),
        dataset: format!("{}_graphs", contexts.len()),
        in_dim: feat_dim,
        out_dim: GRAPH_CLASSES,
        n_nodes: 0,
    };
    let n = contexts.iter().map(|(c, _)| c.graph.n()).sum();
    let m = contexts.iter().map(|(c, _)| c.graph.num_edges()).sum();
    let job = Job::new("graph_classification", meta, n, m, cfg);
    let (outcome, _) = train(&job, cfg, hooks, |store, rng| {
        let split = Split::random_80_10_10(contexts.len(), cfg.seed ^ 0x9c9c)?;
        let model = kind.build(store, feat_dim, cfg.hidden, GRAPH_CLASSES, cfg, rng);
        let graphs = Shuffled::new(split.train.clone(), 32);
        Ok(Box::new(Graphs {
            model,
            contexts,
            split,
            graphs,
        }))
    })?;
    Ok(outcome)
}

struct Graphs<'a> {
    model: Box<dyn GraphClassifier>,
    contexts: &'a [(GraphCtx, usize)],
    split: Split,
    graphs: Shuffled<usize>,
}

impl Graphs<'_> {
    fn accuracy(&self, store: &ParamStore, idx: &[usize], rng: &mut StdRng) -> f64 {
        let correct = (idx.iter())
            .filter(|&&gi| {
                let (ctx, label) = &self.contexts[gi];
                let tape = Tape::new();
                let out = self
                    .model
                    .forward(&tape, &store.bind_frozen(&tape), ctx, false, rng);
                let hit = tape.value(out.logits).row_argmax(0) == *label;
                hit
            })
            .count();
        correct as f64 / idx.len().max(1) as f64
    }
}

impl Task for Graphs<'_> {
    fn begin_epoch(&mut self, rng: &mut StdRng) -> usize {
        self.graphs.begin_epoch(rng)
    }

    /// The batch mean of each graph's cross-entropy plus the model's
    /// auxiliary term; not decomposed further.
    fn step(&mut self, i: usize, tape: &Tape, bind: &Binding, rng: &mut StdRng) -> StepResult {
        let mut losses = Vec::new();
        for &gi in self.graphs.get(i) {
            let (ctx, label) = &self.contexts[gi];
            let out = self.model.forward(tape, bind, ctx, true, rng);
            let ce = tape.cross_entropy(out.logits, Rc::new(vec![*label]), Rc::new(vec![0]));
            losses.push(out.aux_loss.map_or(ce, |aux| tape.add(ce, aux)));
        }
        let n = losses.len() as f64;
        let sum = losses.into_iter().reduce(|a, b| tape.add(a, b));
        let sum = sum.expect("every step holds at least one graph");
        let loss = tape.scale(sum, 1.0 / n);
        Ok(Step::new(tape, loss, LossTerms::default(), None))
    }

    fn validate(&mut self, store: &ParamStore, rng: &mut StdRng) -> f64 {
        self.accuracy(store, &self.split.val, rng)
    }

    fn test(&mut self, store: &ParamStore, rng: &mut StdRng) -> f64 {
        self.accuracy(store, &self.split.test, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{SessionKind, TrainSession};
    use mg_data::{make_graph_dataset, GraphDatasetKind, GraphGenConfig};

    fn tiny() -> GraphDataset {
        make_graph_dataset(
            GraphDatasetKind::Mutagenicity,
            &GraphGenConfig {
                scale: 0.04,
                max_nodes: 30,
                seed: 2,
            },
        )
    }

    #[test]
    fn gin_gc_beats_chance_on_motif_data() {
        let cfg = TrainConfig {
            epochs: 25,
            lr: 0.01,
            patience: 25,
            hidden: 32,
            levels: 2,
            seed: 3,
            ..Default::default()
        };
        let res = TrainSession::new(SessionKind::GraphClassification(GraphModelKind::Gin), &cfg)
            .run(&tiny())
            .unwrap();
        assert!(res.test_metric > 0.6, "acc = {}", res.test_metric);
        assert!(res.epoch_seconds.unwrap() > 0.0);
        assert_eq!(res.trace.len(), res.epochs_run);
    }

    #[test]
    fn adamgnn_gc_beats_chance_on_motif_data() {
        let cfg = TrainConfig {
            epochs: 25,
            lr: 0.01,
            patience: 25,
            hidden: 32,
            levels: 2,
            seed: 3,
            ..Default::default()
        };
        let res = TrainSession::new(
            SessionKind::GraphClassification(GraphModelKind::AdamGnn),
            &cfg,
        )
        .run(&tiny())
        .unwrap();
        assert!(res.test_metric > 0.6, "acc = {}", res.test_metric);
    }
}
