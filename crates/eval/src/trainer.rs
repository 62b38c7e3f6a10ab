//! The one training loop behind every task (see DESIGN.md, "Trainer"):
//! [`train`] owns the RNG, [`ParamStore`] and Adam set-up, resume, the
//! trace, early stopping, mg-obs records, the non-finite check and
//! checkpoint writes; a [`Task`] supplies batches, losses and metrics.
//! The loop never draws from the RNG, so the draw order is the task's.

use crate::metrics::mean_std;
use crate::minibatch::StreamedEpoch;
use crate::node_tasks::TrainConfig;
use crate::session::{to_ckpt_config, RunOutcome};
use crate::telemetry::{self, LossTerms};
use crate::trace::TrainTrace;
use adamgnn_core::{AdamGnnOutput, FrozenStructure};
use mg_ckpt::{Checkpoint, CkptConfig, CkptMeta, TrainState};
use mg_data::SampledSubgraph;
use mg_obs::{EpochRecord, RunMeta, SampleStepRecord, Stopwatch, Trace};
use mg_tensor::{AdamConfig, Binding, Matrix, MgError, ParamStore, Tape, Var};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::path::Path;

pub(crate) type StepResult = Result<Step, MgError>;

/// One training task, as [`train`] runs it.
pub(crate) trait Task {
    /// Fix this epoch's batches and return its step count (one by
    /// default: full-batch). Called once at epoch start, so a shuffle is
    /// the epoch's first RNG draw.
    fn begin_epoch(&mut self, _rng: &mut StdRng) -> usize {
        1
    }

    /// Build the objective of step `i` on `tape`.
    fn step(&mut self, i: usize, tape: &Tape, bind: &Binding, rng: &mut StdRng) -> StepResult;

    /// Whether the task has a validation split. One without never stops
    /// early and is tested once, after the last epoch.
    fn validates(&self) -> bool {
        true
    }

    /// Validation metric of the current parameters, after each epoch.
    fn validate(&mut self, store: &ParamStore, rng: &mut StdRng) -> f64;

    /// Test metric of the current parameters: whenever validation
    /// improves, or once at the end for a task that does not validate.
    fn test(&mut self, store: &ParamStore, rng: &mut StdRng) -> f64;

    /// The pooling hierarchy a checkpoint pins, for tasks that train on
    /// one fixed graph.
    fn structure(&self, _store: &ParamStore) -> Option<FrozenStructure> {
        None
    }
}

/// The objective of one step, with what telemetry reads off it.
pub(crate) struct Step {
    pub loss: Var,
    pub terms: LossTerms,
    pub internals: Option<AdamGnnOutput>,
    /// The subgraph a sampled step trained on.
    pub sub: Option<SampledSubgraph>,
}

impl Step {
    /// Add the pooling operator's auxiliary term last (`None` for the
    /// default operator, keeping the historical composition unchanged).
    pub fn new(tape: &Tape, loss: Var, terms: LossTerms, internals: Option<AdamGnnOutput>) -> Step {
        let loss = match internals.as_ref().and_then(|o| o.aux) {
            Some(aux) => tape.add(loss, aux),
            None => loss,
        };
        let sub = None;
        Step {
            loss,
            terms,
            internals,
            sub,
        }
    }
}

/// Training items reshuffled at every epoch start, `size` per step.
pub(crate) struct Shuffled<T> {
    items: Vec<T>,
    order: Vec<T>,
    size: usize,
}

impl<T: Clone> Shuffled<T> {
    pub fn new(items: Vec<T>, size: usize) -> Self {
        let order = Vec::new();
        Shuffled { items, order, size }
    }

    /// Fisher–Yates over a fresh copy of the items, so the order is a
    /// function of the RNG position alone and a resumed run replays the
    /// uninterrupted run's batches. Returns the step count.
    pub fn begin_epoch(&mut self, rng: &mut StdRng) -> usize {
        self.order.clone_from(&self.items);
        for i in (1..self.order.len()).rev() {
            let j = rng.random_range(0..=i);
            self.order.swap(i, j);
        }
        self.order.len().div_ceil(self.size)
    }

    pub fn get(&self, step: usize) -> &[T] {
        let start = step * self.size;
        &self.order[start..(start + self.size).min(self.order.len())]
    }
}

/// What a run is: its mg-obs task label, checkpoint identity and
/// `run_start` facts.
pub(crate) struct Job {
    pub name: &'static str,
    pub meta: CkptMeta,
    pub run: RunMeta,
}

impl Job {
    /// A job over `n` nodes and `m` edges in all.
    pub fn new(name: &'static str, meta: CkptMeta, n: usize, m: usize, cfg: &TrainConfig) -> Job {
        let run = RunMeta {
            model: meta.model.clone(),
            dataset: meta.dataset.clone(),
            n_nodes: n,
            n_edges: m,
            seed: cfg.seed,
            epochs: cfg.epochs,
            hidden: cfg.hidden,
            levels: cfg.levels,
            gamma: cfg.weights.gamma,
            delta: cfg.weights.delta,
            pooling: cfg.pooling.name().to_string(),
        };
        Job { name, meta, run }
    }
}

/// Checkpoint/resume wiring; the default neither writes nor resumes.
#[derive(Default)]
pub(crate) struct CkptHooks<'a> {
    pub every: Option<usize>,
    pub path: Option<&'a Path>,
    pub resume: Option<&'a Checkpoint>,
}

impl CkptHooks<'_> {
    /// Where to write after `completed` epochs, if a write is due. The
    /// `last` epoch (exhaustion or early stop) always writes.
    pub fn due(&self, completed: usize, last: bool) -> Option<&Path> {
        let cadence = matches!(self.every, Some(k) if k > 0 && completed.is_multiple_of(k));
        self.path.filter(|_| last || cadence)
    }
}

/// Run `job`. `build` registers the task's parameters right after the
/// RNG is seeded. Returns the outcome and this process's step totals.
pub(crate) fn train<'a>(
    job: &Job,
    cfg: &TrainConfig,
    hooks: &CkptHooks<'_>,
    build: impl FnOnce(&mut ParamStore, &mut StdRng) -> Result<Box<dyn Task + 'a>, MgError>,
) -> Result<(RunOutcome, StreamedEpoch), MgError> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut store = ParamStore::new();
    let mut task = build(&mut store, &mut rng)?;
    let adam = AdamConfig::with_lr(cfg.lr);
    let mut state = TrainState {
        next_epoch: 0,
        epochs_run: 0,
        best_val: f64::NEG_INFINITY,
        best_test: 0.0,
        bad_epochs: 0,
    };
    let mut trace = TrainTrace::new();
    let mut epoch_times = Vec::new();
    if let Some(ck) = hooks.resume {
        check_resume(ck, &job.meta, cfg)?;
        store.import_state(&ck.params, ck.adam_t)?;
        rng = StdRng::from_state(ck.rng);
        state = ck.state;
        // a checkpoint taken at the early stop must not train further
        if state.bad_epochs >= cfg.patience.max(1) {
            state.next_epoch = cfg.epochs;
        }
        trace.records.clone_from(&ck.trace);
        epoch_times.clone_from(&ck.epoch_times);
    }

    let mut obs = Trace::from_env(job.name);
    obs.run_start(&job.run);
    let (mut steps_run, mut sampled_nodes, mut truncated, mut loss_total) = (0, 0, 0, 0.0);
    for epoch in state.next_epoch..cfg.epochs {
        state.epochs_run = epoch + 1;
        let sw = Stopwatch::start();
        let steps = task.begin_epoch(&mut rng);
        let (mut loss_sum, mut peak_tape_bytes) = (0.0, 0);
        // a multi-step epoch reports its last step's telemetry
        let mut last = EpochRecord::default();
        for step in 0..steps {
            let tape = Tape::new();
            let bind = store.bind(&tape);
            let out = task.step(step, &tape, &bind, &mut rng)?;
            let loss = tape.value(out.loss).scalar();
            if !loss.is_finite() {
                return Err(non_finite(job, "loss", epoch, step));
            }
            // telemetry reads the forward's values before backward
            // releases them, and gradients before the optimizer consumes them
            let observed = obs
                .enabled()
                .then(|| telemetry::observe_forward(&tape, &out));
            let mut grads = tape.backward(out.loss);
            // a ReLU can hide a NaN input from the loss but not from the
            // gradients, and stepping on one poisons every parameter
            let finite = |id| grads.get(bind.var(id)).is_none_or(Matrix::all_finite);
            if !store.param_ids().into_iter().all(finite) {
                return Err(non_finite(job, "gradient", epoch, step));
            }
            if let Some(mut rec) = observed {
                telemetry::observe_backward(&mut rec, &tape, &store, &bind, &grads);
                peak_tape_bytes = peak_tape_bytes.max(rec.peak_tape_bytes);
                last = rec;
                if let Some(sub) = &out.sub {
                    obs.sample_step(&SampleStepRecord {
                        epoch,
                        step,
                        seeds: sub.num_seeds,
                        sampled_nodes: sub.nodes.len(),
                        sampled_edges: sub.topo.num_edges(),
                        truncated: sub.truncated,
                        loss,
                    });
                }
            }
            store.step(&mut grads, &bind, &adam);
            loss_sum += loss;
            loss_total += loss;
            steps_run += 1;
            if let Some(sub) = &out.sub {
                sampled_nodes += sub.nodes.len();
                truncated += sub.truncated;
            }
        }
        let train_ns = sw.elapsed_ns();
        epoch_times.push(train_ns as f64 * 1e-9);
        let loss = loss_sum / steps.max(1) as f64;

        let sw = Stopwatch::start();
        let val = task.validates().then(|| task.validate(&store, &mut rng));
        let eval_ns = sw.elapsed_ns();
        trace.push(epoch, loss, val.unwrap_or(f64::NAN));
        if obs.enabled() {
            obs.epoch(&EpochRecord {
                epoch,
                loss_total: loss,
                val_metric: val,
                train_ns,
                eval_ns,
                peak_tape_bytes,
                ..last
            });
        }
        let mut stop = false;
        if let Some(val) = val {
            if val > state.best_val {
                state.best_val = val;
                state.best_test = task.test(&store, &mut rng);
                state.bad_epochs = 0;
            } else {
                state.bad_epochs += 1;
                stop = state.bad_epochs >= cfg.patience;
            }
        }
        state.next_epoch = epoch + 1;
        if let Some(path) = hooks.due(epoch + 1, stop || epoch + 1 == cfg.epochs) {
            let (params, adam_t) = store.export_state();
            let ck = Checkpoint {
                meta: job.meta.clone(),
                config: to_ckpt_config(cfg),
                state,
                params,
                adam_t,
                rng: rng.state(),
                trace: trace.records.clone(),
                epoch_times: epoch_times.clone(),
                structure: task.structure(&store),
            };
            ck.save(path)?;
        }
        if stop {
            break;
        }
    }
    let validated = task.validates();
    let test_metric = match validated {
        true => state.best_test,
        false => task.test(&store, &mut rng),
    };
    let val_metric = validated.then_some(state.best_val);
    obs.kernel_stats();
    obs.run_end(state.epochs_run, val_metric, Some(test_metric));
    let outcome = RunOutcome {
        test_metric,
        val_metric,
        epochs_run: state.epochs_run,
        trace,
        epoch_seconds: (!epoch_times.is_empty()).then(|| mean_std(&epoch_times).0),
    };
    let totals = StreamedEpoch {
        mean_loss: loss_total / steps_run as f64,
        steps: steps_run,
        sampled_nodes,
        truncated,
    };
    Ok((outcome, totals))
}

fn non_finite(job: &Job, what: &str, epoch: usize, step: usize) -> MgError {
    let detail = format!(
        "non-finite {} {what} at epoch {epoch}, step {step}; check the inputs or lower lr",
        job.name
    );
    MgError::InvalidInput { detail }
}

/// Reject a checkpoint of a different job: resuming across task, model,
/// dataset identity or configuration would silently train the wrong
/// thing. The epoch budget may differ: nothing inside an epoch depends on
/// it, so resuming with more epochs is a pure continuation.
fn check_resume(ck: &Checkpoint, meta: &CkptMeta, cfg: &TrainConfig) -> Result<(), MgError> {
    let want = to_ckpt_config(cfg);
    let detail = if ck.meta != *meta {
        format!(
            "checkpoint identity {:?} does not match this session's {meta:?}",
            ck.meta
        )
    } else if (CkptConfig {
        epochs: want.epochs,
        ..ck.config
    }) != want
    {
        format!(
            "checkpoint config {:?} does not match this session's {want:?}",
            ck.config
        )
    } else {
        return Ok(());
    };
    Err(MgError::Mismatch { detail })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    #[test]
    fn due_policy() {
        let path = PathBuf::from("x.mgck");
        let h = CkptHooks {
            every: Some(3),
            path: Some(&path),
            resume: None,
        };
        assert_eq!(h.due(1, false), None);
        assert_eq!(h.due(3, false), Some(path.as_path()));
        assert!(h.due(7, true).is_some(), "final epoch always writes");
        let h = CkptHooks {
            every: None,
            path: Some(&path),
            resume: None,
        };
        assert!(
            h.due(3, false).is_none(),
            "no cadence: only the final write"
        );
        assert!(h.due(3, true).is_some());
        let none = CkptHooks::default();
        assert!(none.due(3, true).is_none(), "no destination: never");
    }

    #[test]
    fn shuffled_covers_every_item_once_per_epoch() {
        let mut s = Shuffled::new((0..10).collect::<Vec<usize>>(), 4);
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(s.begin_epoch(&mut rng), 3);
        assert_eq!(s.get(2).len(), 2, "the last step takes the remainder");
        let mut seen: Vec<usize> = (0..3).flat_map(|i| s.get(i).to_vec()).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..10).collect::<Vec<_>>());
    }
}
