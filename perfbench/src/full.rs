//! `train_full_cora`: full-batch AdamGNN node classification on the
//! 2,708-node Cora analogue through `TrainSession::run`.

use crate::spans::{median, quantile, Tracer};
use crate::{layer_metrics, Args, Report};
use adamgnn_core::{kl_loss, reconstruction_loss, total_loss, LossWeights, PoolingKind};
use mg_data::{make_node_dataset, NodeDataset, NodeDatasetKind, NodeGenConfig, Split};
use mg_eval::{
    accuracy, AnyNodeModel, NodeModelKind, RunOutcome, SessionKind, TrainConfig, TrainSession,
    TrainTrace,
};
use mg_nn::GraphCtx;
use mg_tensor::{AdamConfig, Matrix, ParamStore, Tape};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::rc::Rc;
use std::time::Instant;

/// Epochs per timed session.
pub const EPOCHS: usize = 2;
/// Input variants a measured run cycles its sessions through. The cost
/// of a session depends on its input (pooling keeps a data-dependent
/// number of egos), so one run averages over several instead of
/// resting on one.
pub const VARIANTS: usize = 4;

/// Seed of variant `i` of a run's inputs; variant 0 is the run's seed.
pub fn variant_seed(seed: u64, i: usize) -> u64 {
    seed ^ ((i as u64) << 40)
}

/// The training configuration, every field explicit. Early stopping is
/// off: the patience can never run out.
pub fn config(seed: u64, epochs: usize) -> TrainConfig {
    TrainConfig {
        epochs,
        lr: 0.01,
        patience: usize::MAX,
        hidden: 64,
        levels: 3,
        seed,
        weights: LossWeights {
            gamma: 0.1,
            delta: 0.01,
        },
        flyback: true,
        pooling: PoolingKind::AdamGnn,
    }
}

/// The Cora analogue at paper scale: 2,708 nodes, 512 features.
pub fn dataset(seed: u64) -> NodeDataset {
    make_node_dataset(
        NodeDatasetKind::Cora,
        &NodeGenConfig {
            scale: 1.0,
            max_feat_dim: 512,
            seed,
        },
    )
}

fn session(ds: &NodeDataset, cfg: &TrainConfig) -> Result<RunOutcome, String> {
    TrainSession::new(SessionKind::NodeClassification(NodeModelKind::AdamGnn), cfg)
        .traced(true)
        .run(ds)
        .map_err(|e| format!("training failed: {e}"))
}

/// Last epoch's loss, failing on any non-finite epoch loss.
pub fn last_finite_loss(trace: &TrainTrace) -> Result<f64, String> {
    if let Some(r) = trace.records.iter().find(|r| !r.loss.is_finite()) {
        return Err(format!("non-finite loss {} at epoch {}", r.loss, r.epoch));
    }
    trace
        .records
        .last()
        .map(|r| r.loss)
        .ok_or_else(|| "empty training trace".to_string())
}

/// Bitwise equality of two traces, with the first difference.
pub fn same_trace(a: &TrainTrace, b: &TrainTrace) -> Result<(), String> {
    if a.len() != b.len() {
        return Err(format!("{} epochs against {}", a.len(), b.len()));
    }
    for (x, y) in a.records.iter().zip(&b.records) {
        if x.epoch != y.epoch
            || x.loss.to_bits() != y.loss.to_bits()
            || x.val.to_bits() != y.val.to_bits()
        {
            return Err(format!("epoch {}: {x:?} against {y:?}", x.epoch));
        }
    }
    Ok(())
}

/// Bitwise equality of a run's trace and best-validation test accuracy
/// with the reference run's.
fn same_outcome(r: &RunOutcome, trace: &TrainTrace, test_metric: f64) -> Result<(), String> {
    same_trace(&r.trace, trace)?;
    (r.test_metric.to_bits() == test_metric.to_bits())
        .then_some(())
        .ok_or_else(|| format!("test accuracy {test_metric} against {}", r.test_metric))
}

/// Generate the dataset and run one untraced warm-up epoch; returns the
/// dataset and the seconds this took.
fn setup(seed: u64) -> Result<(Vec<NodeDataset>, f64), String> {
    let t = Instant::now();
    let datasets: Vec<NodeDataset> = (0..VARIANTS)
        .map(|i| dataset(variant_seed(seed, i)))
        .collect();
    let warm = session(&datasets[0], &config(seed, 1))?;
    let secs = t.elapsed().as_secs_f64();
    last_finite_loss(&warm.trace)?;
    Ok((datasets, secs))
}

/// One set-up, timed, in a process of its own.
pub fn setup_only(args: &Args) -> Result<Report, String> {
    let (_, secs) = setup(args.seed)?;
    let mut report = Report::default();
    report.metric("setup_s", secs, "s");
    Ok(report)
}

/// End-to-end metrics, untraced. Session `j` trains on variant
/// `j % VARIANTS` and must repeat that variant's first session bitwise.
pub fn measure(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let (datasets, setup_s) = setup(args.seed)?;

    let mut epoch_ms = Vec::new();
    let mut references: Vec<Option<RunOutcome>> = vec![None; VARIANTS];
    let mut nodes = 0usize;
    let start = Instant::now();
    while epoch_ms.len() < VARIANTS || start.elapsed() < args.seconds {
        let v = epoch_ms.len() % VARIANTS;
        let ds = &datasets[v];
        let t = Instant::now();
        let out = session(ds, &config(variant_seed(args.seed, v), EPOCHS))?;
        epoch_ms.push(t.elapsed().as_secs_f64() * 1e3 / EPOCHS as f64);
        report.attempted += EPOCHS as u64;
        last_finite_loss(&out.trace)?;
        let r = references[v].get_or_insert_with(|| out.clone());
        match same_outcome(r, &out.trace, out.test_metric) {
            Ok(()) => nodes += ds.n() * EPOCHS,
            Err(e) => {
                report.failed += EPOCHS as u64;
                report.problem(format!("session is not deterministic: {e}"));
            }
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    let reference = references[0].take().expect("every variant ran");
    let ds = &datasets[0];
    let quality = reference.test_metric;
    let train_loss = last_finite_loss(&reference.trace)?;

    report.metric("setup_s", setup_s, "s");
    report.metric("items_per_s", nodes as f64 / wall_s, "1/s");
    report.metric("op_p50_ms", median(&epoch_ms), "ms");
    report.metric("op_p90_ms", quantile(&epoch_ms, 0.9), "ms");
    report.metric("quality", quality, "fraction");
    report.metric("train_loss", train_loss, "nats");
    report.info = vec![
        ("sessions", epoch_ms.len() as f64),
        ("epochs_per_session", EPOCHS as f64),
        ("variants", VARIANTS as f64),
        ("nodes", ds.n() as f64),
        ("edges", ds.graph.num_edges() as f64),
        ("features", ds.feat_dim() as f64),
    ];
    report.exact = vec![("quality", quality), ("train_loss", train_loss)];
    // a trained model must beat guessing the class
    if quality <= 1.0 / ds.num_classes as f64 {
        report.problem(format!("test accuracy {quality} is at chance"));
    }
    Ok(report)
}

/// What a traced training step observed.
pub struct StepOut {
    pub loss: f64,
    pub tape_ops: usize,
    pub peak_tape_bytes: usize,
}

/// One traced optimizer step composed exactly as the repository's
/// trainers compose it: forward, task loss on `nodes`, the AdamGNN KL and
/// reconstruction terms, the operator's auxiliary term, backward, Adam.
#[allow(clippy::too_many_arguments)]
pub fn train_step(
    tr: &mut Tracer,
    store: &mut ParamStore,
    model: &AnyNodeModel,
    ctx: &GraphCtx,
    targets: Rc<Vec<usize>>,
    nodes: Rc<Vec<usize>>,
    weights: &LossWeights,
    adam: &AdamConfig,
    rng: &mut StdRng,
) -> Result<StepOut, String> {
    let tape = Tape::new();
    let bind = store.bind(&tape);
    let (logits, internals) = tr.span("core.forward", |_| {
        model.forward(&tape, &bind, ctx, true, rng)
    });
    let task = tr.span("core.task_loss", |_| {
        tape.cross_entropy(logits, targets, nodes)
    });
    let mut loss = match &internals {
        Some(out) => {
            let kl = tr.span("core.kl_loss", |_| {
                if weights.gamma != 0.0 {
                    kl_loss(&tape, out.h, &out.egos_l1)
                } else {
                    tape.constant(Matrix::zeros(1, 1))
                }
            });
            let recon = tr.span("core.recon_loss", |_| {
                if weights.delta != 0.0 {
                    reconstruction_loss(&tape, out.h, &ctx.graph, rng)
                } else {
                    tape.constant(Matrix::zeros(1, 1))
                }
            });
            tr.span("core.total_loss", |_| {
                total_loss(&tape, task, kl, recon, weights)
            })
        }
        None => task,
    };
    if let Some(aux) = internals.as_ref().and_then(|o| o.aux) {
        loss = tape.add(loss, aux);
    }
    let loss_value = tape.value(loss).scalar();
    if !loss_value.is_finite() {
        return Err(format!("non-finite loss {loss_value}"));
    }
    let tape_ops = tape.len();
    let mut grads = tr.span("tensor.backward", |_| tape.backward(loss));
    let peak_tape_bytes = tape.peak_tape_bytes();
    tr.span("tensor.step", |_| store.step(&mut grads, &bind, adam));
    Ok(StepOut {
        loss: loss_value,
        tape_ops,
        peak_tape_bytes,
    })
}

/// Counters one replicated session produced.
struct SessionCounters {
    trace: TrainTrace,
    best_test: f64,
    tape_ops: usize,
    peak_tape_bytes: usize,
}

/// `node_classification_session` reproduced call for call, with spans.
/// Each epoch is one op; ops are numbered from `first_op`.
fn replica_session(
    tr: &mut Tracer,
    ds: &NodeDataset,
    cfg: &TrainConfig,
    first_op: u64,
) -> Result<SessionCounters, String> {
    let ctx = tr.span("nn.ctx_build", |_| {
        GraphCtx::new(ds.graph.clone(), ds.features.clone())
    });
    let split = Split::random_80_10_10(ds.n(), cfg.seed ^ 0x5eed).map_err(|e| e.to_string())?;
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut store = ParamStore::new();
    let model = NodeModelKind::AdamGnn.build(
        &mut store,
        ds.feat_dim(),
        cfg.hidden,
        ds.num_classes,
        cfg,
        &mut rng,
    );
    let adam = AdamConfig::with_lr(cfg.lr);
    let targets = Rc::new(ds.labels.clone());
    let train_nodes = Rc::new(split.train.clone());
    let mut out = SessionCounters {
        trace: TrainTrace::new(),
        best_test: 0.0,
        tape_ops: 0,
        peak_tape_bytes: 0,
    };
    let mut best_val = f64::NEG_INFINITY;
    let mut bad_epochs = 0;
    for epoch in 0..cfg.epochs {
        tr.set_op(first_op + epoch as u64);
        let stop = tr.span("epoch", |tr| -> Result<bool, String> {
            let step = train_step(
                tr,
                &mut store,
                &model,
                &ctx,
                targets.clone(),
                train_nodes.clone(),
                &cfg.weights,
                &adam,
                &mut rng,
            )?;
            out.tape_ops += step.tape_ops;
            out.peak_tape_bytes = out.peak_tape_bytes.max(step.peak_tape_bytes);
            let lv = tr.span("core.eval_forward", |_| {
                let tape = Tape::new();
                let bind = store.bind(&tape);
                let (logits, _) = model.forward(&tape, &bind, &ctx, false, &mut rng);
                tape.value_cloned(logits)
            });
            let val = tr.span("eval.accuracy", |_| accuracy(&lv, &ds.labels, &split.val));
            out.trace.push(epoch, step.loss, val);
            if val > best_val {
                best_val = val;
                out.best_test =
                    tr.span("eval.accuracy", |_| accuracy(&lv, &ds.labels, &split.test));
                bad_epochs = 0;
            } else {
                bad_epochs += 1;
            }
            Ok(bad_epochs >= cfg.patience)
        })?;
        if stop {
            break;
        }
    }
    Ok(out)
}

/// Per-layer metrics from a traced reproduction of the session.
pub fn trace(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let mut tr = Tracer::new(Instant::now());
    let ds = tr.span("setup", |tr| {
        let ds = tr.span("data.generate", |_| dataset(args.seed));
        tr.span("train.warmup", |_| session(&ds, &config(args.seed, 1)))
            .map(|_| ds)
    })?;
    let cfg = config(args.seed, EPOCHS);

    // Untraced sessions and traced reproductions alternate, so both see
    // the same host; the first untraced session is the reference.
    let mut untraced_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut reference: Option<RunOutcome> = None;
    let mut counters = None;
    let start = Instant::now();
    while traced_ms.is_empty() || start.elapsed() < args.seconds {
        let t = Instant::now();
        let out = session(&ds, &cfg)?;
        untraced_ms.push(t.elapsed().as_secs_f64() * 1e3);
        last_finite_loss(&out.trace)?;
        let r = reference.get_or_insert_with(|| out.clone());
        let untraced_check = same_outcome(r, &out.trace, out.test_metric)
            .map_err(|e| format!("session is not deterministic: {e}"));

        let first_op = (traced_ms.len() * EPOCHS) as u64;
        let t = Instant::now();
        let c = tr.span("session", |tr| replica_session(tr, &ds, &cfg, first_op))?;
        traced_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let traced_check = same_outcome(r, &c.trace, c.best_test)
            .map_err(|e| format!("traced replica differs from TrainSession: {e}"));
        for check in [untraced_check, traced_check] {
            report.attempted += EPOCHS as u64;
            if let Err(e) = check {
                report.failed += EPOCHS as u64;
                report.problem(e);
            }
        }
        counters.get_or_insert(c);
    }
    let reference = reference.expect("at least one session");
    let train_loss = last_finite_loss(&reference.trace)?;
    let c = counters.expect("at least one replica");
    let epochs = tr.named("epoch").count() as f64;
    let per_epoch = |name: &str| tr.total_ms(name) / epochs;
    layer_metrics(
        &mut report,
        &[
            ("tensor.backward_ms", per_epoch("tensor.backward")),
            ("tensor.step_ms", per_epoch("tensor.step")),
            ("core.forward_ms", per_epoch("core.forward")),
            ("core.task_loss_ms", per_epoch("core.task_loss")),
            ("core.kl_loss_ms", per_epoch("core.kl_loss")),
            ("core.recon_loss_ms", per_epoch("core.recon_loss")),
            ("core.eval_forward_ms", per_epoch("core.eval_forward")),
            ("nn.ctx_build_ms", tr.total_ms("nn.ctx_build") / epochs),
            ("data.generate_ms", tr.total_ms("data.generate")),
            ("tensor.tape_ops", c.tape_ops as f64 / EPOCHS as f64),
            ("tensor.peak_tape_mb", c.peak_tape_bytes as f64 / 1e6),
            ("unattributed_ms", tr.self_ms("epoch") / epochs),
            (
                "trace_overhead_frac",
                median(&traced_ms) / median(&untraced_ms) - 1.0,
            ),
        ],
    );
    report.info = vec![("sessions", traced_ms.len() as f64), ("epochs", epochs)];
    report.exact = vec![
        ("quality", reference.test_metric),
        ("train_loss", train_loss),
        ("tensor.tape_ops", c.tape_ops as f64),
        ("tensor.peak_tape_bytes", c.peak_tape_bytes as f64),
    ];
    tr.write_jsonl(
        &args
            .cache
            .join(format!("spans-train_full_cora-{}.jsonl", args.seed)),
    )
    .map_err(|e| format!("writing spans: {e}"))?;
    Ok(report)
}
