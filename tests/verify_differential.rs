//! Pillar 4: differential serial-vs-parallel training fuzzer.
//!
//! The determinism contract: a seeded training run is a pure function of
//! its seeds — the serial build and the parallel build at *every* pool
//! width must produce bit-identical traces. The serial build contributes
//! the repeatability baseline (and generates the checked-in goldens);
//! under `--features parallel` the same runs are swept across pool
//! widths 1..=4 and compared bitwise against those serial goldens, plus
//! seed-varied runs (not checked in) are cross-checked between widths.
//!
//! The checkpointed-tape leg extends the same contract to recompute-on-
//! backward (`with_ckpt_tape`): dropping and replaying tape segments
//! changes *when* values are resident, never what they are, so a checkpointed run must reproduce the retaining run — and the
//! checked-in goldens — bit for bit.

use adamgnn_core::with_ckpt_tape;
use mg_verify::{
    graph_cls_run, link_pred_run, node_cls_run, sampled_node_cls_run, Compare, Golden,
};

fn assert_identical(label: &str, expected: &Golden, actual: &Golden) {
    if let Err(e) = expected.compare(actual, Compare::Bitwise) {
        panic!("{label}: {e}");
    }
}

type RunFn = fn(u64) -> Golden;

const RUNS: [(&str, RunFn); 3] = [
    ("node_cls", node_cls_run),
    ("link_pred", link_pred_run),
    ("graph_cls", graph_cls_run),
];

/// Within one build, rerunning a seeded run reproduces it bit for bit —
/// the precondition for any cross-build comparison to be meaningful.
#[test]
fn reruns_are_bitwise_repeatable() {
    assert_identical("node_cls rerun", &node_cls_run(0), &node_cls_run(0));
    assert_identical("link_pred rerun", &link_pred_run(0), &link_pred_run(0));
    assert_identical("graph_cls rerun", &graph_cls_run(0), &graph_cls_run(0));
}

/// The sampled-minibatch leg of the same contract: batch composition,
/// fanout truncation and subgraph construction all draw from the seeded
/// RNG stream, so a sampled run is just as much a pure function of its
/// seeds as a full-batch one. The run's checked-in golden lives in the
/// golden suite; this check is within-build.
#[test]
fn sampled_reruns_are_bitwise_repeatable() {
    assert_identical(
        "sampled_node_cls rerun",
        &sampled_node_cls_run(0),
        &sampled_node_cls_run(0),
    );
}

/// Per-level tape checkpointing reproduces the retaining tape bit for
/// bit on all three tasks, in the same build. Valid under every feature
/// combination: the comparison is within-build, like
/// `reruns_are_bitwise_repeatable`.
#[test]
fn checkpointed_tape_matches_retained_same_build() {
    for (label, run) in RUNS {
        let retained = with_ckpt_tape(false, || run(0));
        let ckpt = with_ckpt_tape(true, || run(0));
        assert_identical(
            &format!("{label} retained vs checkpointed"),
            &retained,
            &ckpt,
        );
    }
}

/// Checkpointed runs reproduce the checked-in serial goldens bit for
/// bit — 3/3 tasks.
#[test]
fn checkpointed_tape_reproduces_goldens() {
    use mg_verify::{check_against_file, goldens_dir};
    for (label, run) in RUNS {
        let actual = with_ckpt_tape(true, || run(0));
        let path = goldens_dir().join(format!("{}.json", actual.name));
        if let Err(e) = check_against_file(&path, &actual, Compare::Bitwise) {
            panic!("{label} with checkpointed tape diverged from golden: {e}");
        }
    }
}

#[cfg(feature = "parallel")]
mod parallel {
    use super::{assert_identical, RUNS};
    use adamgnn_core::with_ckpt_tape;
    use mg_verify::with_threads;
    use mg_verify::{check_against_file, goldens_dir, Compare};

    /// Every pool width reproduces the serial build's checked-in goldens
    /// bit for bit.
    #[test]
    fn all_pool_widths_reproduce_serial_goldens() {
        for threads in 1..=4 {
            for (label, run) in RUNS {
                let actual = with_threads(threads, || run(0));
                let path = goldens_dir().join(format!("{}.json", actual.name));
                if let Err(e) = check_against_file(&path, &actual, Compare::Bitwise) {
                    panic!("{label} with {threads} threads diverged from serial golden: {e}");
                }
            }
        }
    }

    /// Seed-varied runs — different graphs, different training seeds, no
    /// checked-in golden — agree across pool widths.
    #[test]
    fn variant_runs_agree_across_pool_widths() {
        for variant in 1..=2u64 {
            for (label, run) in RUNS {
                let reference = with_threads(1, || run(variant));
                for threads in 2..=4 {
                    let actual = with_threads(threads, || run(variant));
                    assert_identical(
                        &format!("{label} v{variant}, 1 vs {threads} threads"),
                        &reference,
                        &actual,
                    );
                }
            }
        }
    }

    /// The sampled-minibatch trainer agrees across pool widths: the
    /// sampler itself is serial (one RNG stream), and every kernel the
    /// per-batch forward/backward dispatches is width-independent, so
    /// widths 1..=4 must reproduce each other bit for bit.
    #[test]
    fn sampled_runs_agree_across_pool_widths() {
        use mg_verify::sampled_node_cls_run;
        for variant in 0..=1u64 {
            let reference = with_threads(1, || sampled_node_cls_run(variant));
            for threads in 2..=4 {
                let actual = with_threads(threads, || sampled_node_cls_run(variant));
                assert_identical(
                    &format!("sampled_node_cls v{variant}, 1 vs {threads} threads"),
                    &reference,
                    &actual,
                );
            }
        }
    }

    /// Checkpointing composes with the thread pool: a checkpointed run
    /// at every pool width matches a retained single-thread run of the
    /// same build bit for bit (replayed segments go through the same
    /// width-independent kernels as the original forward).
    #[test]
    fn checkpointed_runs_agree_across_pool_widths() {
        for (label, run) in RUNS {
            let reference = with_threads(1, || with_ckpt_tape(false, || run(0)));
            for threads in 1..=4 {
                let actual = with_threads(threads, || with_ckpt_tape(true, || run(0)));
                assert_identical(
                    &format!("{label} checkpointed, {threads} threads vs retained serial"),
                    &reference,
                    &actual,
                );
            }
        }
    }
}
