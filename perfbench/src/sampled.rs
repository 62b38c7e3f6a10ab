//! `train_sampled_big`: sampled ego-subgraph AdamGNN training over the
//! million-node streamed `BigGraph` through `sampled_epochs_streamed`.

use crate::full::{config, train_step, variant_seed, VARIANTS};
use crate::spans::{median, quantile, Tracer};
use crate::{layer_metrics, Args, Report};
use mg_data::{BigGraph, BigGraphConfig, NeighborSampler, NodeFeatureSource, SampledSubgraph};
use mg_eval::{
    sampled_epochs_streamed, MinibatchConfig, NodeModelKind, StreamedEpoch, TrainConfig,
};
use mg_nn::GraphCtx;
use mg_tensor::{AdamConfig, Matrix, ParamStore};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::rc::Rc;
use std::time::Instant;

/// Optimizer steps per timed session.
pub const STEPS: usize = 16;
/// Seed nodes per step.
pub const BATCH: usize = 32;

/// 10⁶ nodes, ~4M undirected edges, 10 classes, 32 on-demand features.
pub fn graph(seed: u64) -> BigGraph {
    BigGraph::generate(&BigGraphConfig {
        n: 1_000_000,
        classes: 10,
        avg_degree: 8,
        feat_dim: 32,
        seed,
        byte_budget: 256 << 20,
    })
}

fn minibatch() -> MinibatchConfig {
    MinibatchConfig {
        batch_size: BATCH,
        fanouts: vec![5, 5],
    }
}

/// One pass of `steps` optimizer steps (a single epoch of
/// `steps × BATCH` seeds), failing on a non-finite mean loss.
fn session(g: &BigGraph, cfg: &TrainConfig, steps: usize) -> Result<StreamedEpoch, String> {
    let out = sampled_epochs_streamed(g, NodeModelKind::AdamGnn, cfg, &minibatch(), steps * BATCH)
        .map_err(|e| format!("sampled training failed: {e}"))?;
    if !out.mean_loss.is_finite() {
        return Err(format!("non-finite mean loss {}", out.mean_loss));
    }
    Ok(out)
}

fn same_epoch(a: &StreamedEpoch, b: &StreamedEpoch) -> Result<(), String> {
    if a.mean_loss.to_bits() != b.mean_loss.to_bits()
        || a.steps != b.steps
        || a.sampled_nodes != b.sampled_nodes
        || a.truncated != b.truncated
    {
        return Err(format!("{a:?} against {b:?}"));
    }
    Ok(())
}

/// Build the graph and run one untraced warm-up step; returns the graph
/// and the seconds this took.
fn setup(seed: u64) -> Result<(BigGraph, f64), String> {
    let t = Instant::now();
    let g = graph(seed);
    session(&g, &config(seed, 1), 1)?;
    Ok((g, t.elapsed().as_secs_f64()))
}

/// One set-up, timed, in a process of its own.
pub fn setup_only(args: &Args) -> Result<Report, String> {
    let (_, secs) = setup(args.seed)?;
    let mut report = Report::default();
    report.metric("setup_s", secs, "s");
    Ok(report)
}

/// End-to-end metrics, untraced. Session `j` trains from variant seed
/// `j % VARIANTS`, so it samples its own subgraphs, and must repeat that
/// variant's first session bitwise.
pub fn measure(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let (g, setup_s) = setup(args.seed)?;

    let mut step_ms = Vec::new();
    let mut references: Vec<Option<StreamedEpoch>> = vec![None; VARIANTS];
    let mut ok_steps = 0u64;
    let start = Instant::now();
    while step_ms.len() < VARIANTS || start.elapsed() < args.seconds {
        let v = step_ms.len() % VARIANTS;
        let t = Instant::now();
        let out = session(&g, &config(variant_seed(args.seed, v), 1), STEPS)?;
        step_ms.push(t.elapsed().as_secs_f64() * 1e3 / STEPS as f64);
        report.attempted += STEPS as u64;
        match same_epoch(references[v].get_or_insert(out), &out) {
            Ok(()) => ok_steps += STEPS as u64,
            Err(e) => {
                report.failed += STEPS as u64;
                report.problem(format!("session is not deterministic: {e}"));
            }
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    let r = references[0].expect("every variant ran");

    report.metric("setup_s", setup_s, "s");
    report.metric(
        "items_per_s",
        (ok_steps as usize * BATCH) as f64 / wall_s,
        "1/s",
    );
    report.metric("op_p50_ms", median(&step_ms), "ms");
    report.metric("op_p90_ms", quantile(&step_ms, 0.9), "ms");
    report.metric("train_loss", r.mean_loss, "nats");
    report.info = vec![
        ("sessions", step_ms.len() as f64),
        ("steps_per_session", STEPS as f64),
        ("variants", VARIANTS as f64),
        ("nodes", g.n() as f64),
        ("edges", g.graph().num_edges() as f64),
        (
            "sampled_nodes_per_step",
            r.sampled_nodes as f64 / r.steps as f64,
        ),
    ];
    report.exact = vec![
        ("train_loss", r.mean_loss),
        ("data.sampled_nodes", r.sampled_nodes as f64),
        ("data.truncated", r.truncated as f64),
    ];
    Ok(report)
}

/// Gather the sampled nodes' feature rows and labels (row `l` is global
/// node `sub.nodes[l]`), as the streamed trainer does.
fn gather(src: &dyn NodeFeatureSource, sub: &SampledSubgraph) -> (Matrix, Vec<usize>) {
    let mut x = Matrix::zeros(sub.nodes.len(), src.feat_dim());
    let mut labels = Vec::with_capacity(sub.nodes.len());
    for (l, &g) in sub.nodes.iter().enumerate() {
        src.fill_features(g, x.row_mut(l));
        labels.push(src.label(g));
    }
    (x, labels)
}

/// Counters one replicated session produced.
struct SessionCounters {
    epoch: StreamedEpoch,
    tape_ops: usize,
    peak_tape_bytes: usize,
}

/// `sampled_epochs_streamed` reproduced call for call, with spans. Each
/// step is one op; ops are numbered from `first_op`.
fn replica_session(
    tr: &mut Tracer,
    src: &BigGraph,
    cfg: &TrainConfig,
    steps: usize,
    first_op: u64,
) -> Result<SessionCounters, String> {
    let mb = minibatch();
    let n = src.n();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut store = ParamStore::new();
    let model = NodeModelKind::AdamGnn.build(
        &mut store,
        src.feat_dim(),
        cfg.hidden,
        src.num_classes(),
        cfg,
        &mut rng,
    );
    let adam = AdamConfig::with_lr(cfg.lr);
    let mut sampler = tr.span("data.sampler_init", |_| NeighborSampler::new(n));
    let mut loss_sum = 0.0;
    let mut out = SessionCounters {
        epoch: StreamedEpoch {
            mean_loss: 0.0,
            steps: 0,
            sampled_nodes: 0,
            truncated: 0,
        },
        tape_ops: 0,
        peak_tape_bytes: 0,
    };
    for _ in 0..cfg.epochs {
        let mut remaining = steps * mb.batch_size;
        while remaining > 0 {
            let take = remaining.min(mb.batch_size);
            remaining -= take;
            tr.set_op(first_op + out.epoch.steps as u64);
            tr.span("step", |tr| -> Result<(), String> {
                let seeds: Vec<usize> = (0..take).map(|_| rng.random_range(0..n)).collect();
                let sub = tr.span("data.sample", |_| {
                    sampler.sample(src.graph(), &seeds, &mb.fanouts, &mut rng)
                });
                let (sub_x, sub_labels) = tr.span("data.gather", |_| gather(src, &sub));
                let sub_ctx = tr.span("nn.ctx_build", |_| GraphCtx::new(sub.topo.clone(), sub_x));
                let seed_locals: Vec<usize> = sub.seed_locals().collect();
                let step = train_step(
                    tr,
                    &mut store,
                    &model,
                    &sub_ctx,
                    Rc::new(sub_labels),
                    Rc::new(seed_locals),
                    &cfg.weights,
                    &adam,
                    &mut rng,
                )?;
                loss_sum += step.loss;
                out.epoch.steps += 1;
                out.epoch.sampled_nodes += sub.nodes.len();
                out.epoch.truncated += sub.truncated;
                out.tape_ops += step.tape_ops;
                out.peak_tape_bytes = out.peak_tape_bytes.max(step.peak_tape_bytes);
                Ok(())
            })?;
        }
    }
    out.epoch.mean_loss = loss_sum / out.epoch.steps as f64;
    Ok(out)
}

/// Per-layer metrics from a traced reproduction of the streamed trainer.
pub fn trace(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let cfg = config(args.seed, 1);
    let mut tr = Tracer::new(Instant::now());
    let g = tr.span("setup", |tr| {
        let g = tr.span("data.generate", |_| graph(args.seed));
        tr.span("train.warmup", |_| session(&g, &cfg, 1)).map(|_| g)
    })?;

    // Untraced sessions and traced reproductions alternate, so both see
    // the same host; the first untraced session is the reference.
    let mut untraced_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut reference: Option<StreamedEpoch> = None;
    let mut counters = None;
    let start = Instant::now();
    while traced_ms.is_empty() || start.elapsed() < args.seconds {
        let t = Instant::now();
        let out = session(&g, &cfg, STEPS)?;
        untraced_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let r = *reference.get_or_insert(out);
        let untraced_check =
            same_epoch(&r, &out).map_err(|e| format!("session is not deterministic: {e}"));

        let first_op = (traced_ms.len() * STEPS) as u64;
        let t = Instant::now();
        let c = tr.span("session", |tr| {
            replica_session(tr, &g, &cfg, STEPS, first_op)
        })?;
        traced_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let traced_check = same_epoch(&r, &c.epoch)
            .map_err(|e| format!("traced replica differs from the streamed trainer: {e}"));
        for check in [untraced_check, traced_check] {
            report.attempted += STEPS as u64;
            if let Err(e) = check {
                report.failed += STEPS as u64;
                report.problem(e);
            }
        }
        counters.get_or_insert(c);
    }
    let reference = reference.expect("at least one session");
    let c = counters.expect("at least one replica");
    let steps = tr.named("step").count() as f64;
    let per_step = |name: &str| tr.total_ms(name) / steps;
    layer_metrics(
        &mut report,
        &[
            ("tensor.backward_ms", per_step("tensor.backward")),
            ("tensor.step_ms", per_step("tensor.step")),
            ("core.forward_ms", per_step("core.forward")),
            ("core.task_loss_ms", per_step("core.task_loss")),
            ("core.kl_loss_ms", per_step("core.kl_loss")),
            ("core.recon_loss_ms", per_step("core.recon_loss")),
            ("data.sample_ms", per_step("data.sample")),
            ("data.gather_ms", per_step("data.gather")),
            ("nn.ctx_build_ms", per_step("nn.ctx_build")),
            ("data.sampled_nodes", c.epoch.sampled_nodes as f64),
            ("data.truncated", c.epoch.truncated as f64),
            ("data.generate_ms", tr.total_ms("data.generate")),
            ("tensor.tape_ops", c.tape_ops as f64 / STEPS as f64),
            ("tensor.peak_tape_mb", c.peak_tape_bytes as f64 / 1e6),
            ("unattributed_ms", tr.self_ms("step") / steps),
            (
                "trace_overhead_frac",
                median(&traced_ms) / median(&untraced_ms) - 1.0,
            ),
        ],
    );
    report.info = vec![("sessions", traced_ms.len() as f64), ("steps", steps)];
    report.exact = vec![
        ("train_loss", reference.mean_loss),
        ("data.sampled_nodes", reference.sampled_nodes as f64),
        ("data.truncated", reference.truncated as f64),
        ("tensor.tape_ops", c.tape_ops as f64),
        ("tensor.peak_tape_bytes", c.peak_tape_bytes as f64),
    ];
    tr.write_jsonl(
        &args
            .cache
            .join(format!("spans-train_sampled_big-{}.jsonl", args.seed)),
    )
    .map_err(|e| format!("writing spans: {e}"))?;
    Ok(report)
}
