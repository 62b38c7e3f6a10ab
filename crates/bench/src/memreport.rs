//! Retained-vs-checkpointed peak-tape-memory benchmark, the body of
//! `BENCH_mem.json`.
//!
//! The `mem_report` binary runs the three mg-verify fixtures (node
//! classification, link prediction, graph classification — the exact
//! runs pinned by the golden-trace suite) twice each: once on the
//! retaining tape and once with per-level checkpointing forced on via
//! `with_ckpt_tape`. For every task it reports the maximum
//! `peak_tape_bytes` any epoch recorded (harvested from the mg-obs trace
//! the run emits under `MG_TRACE`), the reduction checkpointing bought,
//! and whether the two runs' training traces stayed bitwise identical —
//! the whole point of recompute-on-backward is that they must.
//!
//! ```text
//! cargo run --release -p mg-bench --bin mem_report
//! ```
//!
//! The node-classification fixture (2-level AdamGNN) must show at least
//! a 30% peak reduction or the job fails — that floor is what keeps the
//! checkpoint scopes meaningfully placed as the forward pass evolves.
//!
//! A fourth row, `frozen_forward`, measures inference: one eval-mode
//! node forward on the node-classification fixture's graph, over a
//! grad-requiring binding with checkpointing off (everything retained)
//! and over a frozen binding, whose grad-free scopes free their
//! interiors at close. The two outputs must match bitwise and the frozen
//! peak must sit at least 30% lower.

use adamgnn_core::with_ckpt_tape;
use mg_data::{make_node_dataset, NodeDatasetKind, NodeGenConfig};
use mg_eval::NodeModelKind;
use mg_nn::GraphCtx;
use mg_obs::{validate_trace, Json};
use mg_tensor::{Matrix, ParamStore, Tape};
use mg_verify::{graph_cls_run, link_pred_run, node_cls_run, verify_cfg, Compare, Golden};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Minimum acceptable peak reduction on the node-classification fixture.
pub const NC_REDUCTION_FLOOR: f64 = 0.30;

/// Minimum acceptable peak reduction of the frozen forward's scopes.
pub const FROZEN_REDUCTION_FLOOR: f64 = 0.30;

/// One task's retained-vs-checkpointed measurement. The
/// `frozen_forward` row measures one forward instead of a training run:
/// its `epochs` is 0 and its peaks are that forward's.
#[derive(Clone, Debug)]
pub struct TaskMem {
    pub task: &'static str,
    pub epochs: usize,
    /// max over epochs of `peak_tape_bytes`, retaining tape.
    pub retained_peak: u64,
    /// max over epochs of `peak_tape_bytes`, checkpointed tape.
    pub checkpointed_peak: u64,
    /// Whether the two runs' training traces (the two forwards' outputs,
    /// for `frozen_forward`) compared bitwise equal.
    pub bitwise_identical: bool,
}

impl TaskMem {
    /// Fractional peak reduction (0.42 = checkpointing dropped the
    /// high-water mark by 42%).
    pub fn reduction(&self) -> f64 {
        if self.retained_peak == 0 {
            return 0.0;
        }
        1.0 - self.checkpointed_peak as f64 / self.retained_peak as f64
    }
}

/// Run one fixture with tracing into `trace_path` and harvest the
/// epoch-peak maximum. The trace file is truncated first so each
/// measurement describes exactly one run.
fn measured_run(
    run: fn(u64) -> Golden,
    ckpt: bool,
    trace_path: &str,
) -> Result<(Golden, u64, usize), String> {
    std::fs::write(trace_path, "").map_err(|e| format!("cannot write {trace_path}: {e}"))?;
    let golden = with_ckpt_tape(ckpt, || run(0));
    let text = std::fs::read_to_string(trace_path)
        .map_err(|e| format!("cannot read trace {trace_path}: {e}"))?;
    let report = validate_trace(&text).map_err(|e| format!("invalid trace {trace_path}: {e}"))?;
    let peak = report
        .epoch_peak_tape_bytes
        .iter()
        .copied()
        .max()
        .ok_or_else(|| format!("trace {trace_path} has no epoch records"))?;
    Ok((golden, peak, report.epochs))
}

/// Measure all three fixtures and return the report body. Fails if any
/// task's checkpointed trace diverges from its retained trace, if
/// checkpointing ever *raises* a peak, or if the node-classification
/// reduction misses [`NC_REDUCTION_FLOOR`].
pub fn run() -> Result<Json, String> {
    let trace_path = std::env::temp_dir()
        .join(format!("mg_mem_report_{}.jsonl", std::process::id()))
        .to_string_lossy()
        .into_owned();
    let prev_trace = std::env::var_os("MG_TRACE");
    std::env::set_var("MG_TRACE", &trace_path);
    let result = run_all_traced(&trace_path);
    match prev_trace {
        Some(v) => std::env::set_var("MG_TRACE", v),
        None => std::env::remove_var("MG_TRACE"),
    }
    let _ = std::fs::remove_file(&trace_path);
    let mut rows = result?;
    rows.push(frozen_forward_row()?);
    let tasks = rows.into_iter().map(|t| {
        Json::obj([
            ("task", t.task.into()),
            ("epochs", t.epochs.into()),
            ("retained_peak_bytes", t.retained_peak.into()),
            ("checkpointed_peak_bytes", t.checkpointed_peak.into()),
            ("reduction", t.reduction().into()),
            ("bitwise_identical", t.bitwise_identical.into()),
        ])
    });
    Ok(Json::obj([
        ("frozen_reduction_floor", FROZEN_REDUCTION_FLOOR.into()),
        ("nc_reduction_floor", NC_REDUCTION_FLOOR.into()),
        ("tasks", Json::Arr(tasks.collect())),
    ]))
}

type RunFn = fn(u64) -> Golden;

fn run_all_traced(trace_path: &str) -> Result<Vec<TaskMem>, String> {
    const FIXTURES: [(&str, RunFn); 3] = [
        ("node_classification", node_cls_run),
        ("link_prediction", link_pred_run),
        ("graph_classification", graph_cls_run),
    ];
    let mut out = Vec::new();
    for (task, run) in FIXTURES {
        let (retained_golden, retained_peak, epochs) = measured_run(run, false, trace_path)?;
        let (ckpt_golden, checkpointed_peak, ckpt_epochs) = measured_run(run, true, trace_path)?;
        if epochs != ckpt_epochs {
            return Err(format!(
                "{task}: retained ran {epochs} epochs but checkpointed ran {ckpt_epochs}"
            ));
        }
        let bitwise_identical = retained_golden
            .compare(&ckpt_golden, Compare::Bitwise)
            .is_ok();
        if !bitwise_identical {
            let e = retained_golden
                .compare(&ckpt_golden, Compare::Bitwise)
                .unwrap_err();
            return Err(format!("{task}: checkpointed trace diverged: {e}"));
        }
        if checkpointed_peak > retained_peak {
            return Err(format!(
                "{task}: checkpointing raised the peak ({checkpointed_peak} > {retained_peak})"
            ));
        }
        out.push(TaskMem {
            task,
            epochs,
            retained_peak,
            checkpointed_peak,
            bitwise_identical,
        });
    }
    let nc = &out[0];
    if nc.reduction() < NC_REDUCTION_FLOOR {
        return Err(format!(
            "node_classification peak reduction {:.1}% is below the {:.0}% floor \
             ({} -> {} bytes)",
            nc.reduction() * 100.0,
            NC_REDUCTION_FLOOR * 100.0,
            nc.retained_peak,
            nc.checkpointed_peak
        ));
    }
    Ok(out)
}

/// Peak tape bytes and output of one eval-mode forward of the
/// node-classification fixture's model (untrained: the tape's shape does
/// not depend on the weights), over a frozen or a grad-requiring binding.
fn node_forward(frozen: bool) -> (u64, Matrix) {
    let ds = make_node_dataset(
        NodeDatasetKind::Cora,
        &NodeGenConfig {
            scale: 0.05,
            max_feat_dim: 32,
            seed: 11,
        },
    );
    let cfg = verify_cfg(1, 1);
    let ctx = GraphCtx::new(ds.graph.clone(), ds.features.clone());
    let mut store = ParamStore::new();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let model = NodeModelKind::AdamGnn.build(
        &mut store,
        ctx.feat_dim(),
        cfg.hidden,
        ds.num_classes,
        &cfg,
        &mut rng,
    );
    let tape = Tape::new();
    let bind = match frozen {
        true => store.bind_frozen(&tape),
        false => store.bind(&tape),
    };
    let out = with_ckpt_tape(false, || {
        model.forward_frozen(&tape, &bind, &ctx, None, &mut rng)
    });
    (tape.peak_tape_bytes() as u64, tape.value_cloned(out))
}

/// The `frozen_forward` row: fails if the outputs differ in any bit or
/// the reduction misses [`FROZEN_REDUCTION_FLOOR`].
fn frozen_forward_row() -> Result<TaskMem, String> {
    let (retained_peak, retained) = node_forward(false);
    let (scoped_peak, scoped) = node_forward(true);
    let bits = |m: &Matrix| m.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    if scoped.shape() != retained.shape() || bits(&scoped) != bits(&retained) {
        return Err("frozen_forward: scoped output differs from the retaining tape".into());
    }
    let row = TaskMem {
        task: "frozen_forward",
        epochs: 0,
        retained_peak,
        checkpointed_peak: scoped_peak,
        bitwise_identical: true,
    };
    if row.reduction() < FROZEN_REDUCTION_FLOOR {
        return Err(format!(
            "frozen_forward peak reduction {:.1}% is below the {:.0}% floor ({} -> {} bytes)",
            row.reduction() * 100.0,
            FROZEN_REDUCTION_FLOOR * 100.0,
            retained_peak,
            scoped_peak
        ));
    }
    Ok(row)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduction_math() {
        let t = TaskMem {
            task: "node_classification",
            epochs: 8,
            retained_peak: 1000,
            checkpointed_peak: 600,
            bitwise_identical: true,
        };
        assert!((t.reduction() - 0.4).abs() < 1e-12);
        let zero = TaskMem {
            retained_peak: 0,
            checkpointed_peak: 0,
            ..t
        };
        assert_eq!(zero.reduction(), 0.0);
    }
}
