//! End-to-end check of the mg-obs wiring: a traced node-classification
//! run must (a) be bit-identical to an untraced run — telemetry is pure
//! observation — and (b) emit a schema-valid JSONL trace with one
//! `EpochRecord` per epoch carrying all three loss terms, flyback-β
//! stats, per-level hyper-node counts and per-parameter gradient norms.
//!
//! These tests live in their own test binary because `MG_TRACE` is
//! process global: the library tests (which never set it) cannot race
//! with them, and the tests here serialise on [`ENV_LOCK`] so they
//! cannot race with each other.

use mg_data::{make_node_dataset, NodeDatasetKind, NodeGenConfig};
use mg_eval::{MinibatchConfig, NodeModelKind, SessionKind, TrainConfig, TrainSession};
use mg_obs::{validate_trace, Json};
use std::sync::Mutex;

/// Guards every MG_TRACE mutation in this binary.
static ENV_LOCK: Mutex<()> = Mutex::new(());

fn tiny_ds() -> mg_data::NodeDataset {
    make_node_dataset(
        NodeDatasetKind::Cora,
        &NodeGenConfig {
            scale: 0.05,
            max_feat_dim: 32,
            seed: 11,
        },
    )
}

fn fast_cfg() -> TrainConfig {
    TrainConfig {
        epochs: 6,
        lr: 0.02,
        patience: 6,
        hidden: 16,
        levels: 2,
        seed: 1,
        ..Default::default()
    }
}

#[test]
fn traced_run_is_bitwise_identical_and_emits_valid_jsonl() {
    let _guard = ENV_LOCK.lock().unwrap();
    let ds = tiny_ds();
    let cfg = fast_cfg();

    let session = || {
        TrainSession::new(
            SessionKind::NodeClassification(NodeModelKind::AdamGnn),
            &cfg,
        )
        .run(&ds)
    };

    // Baseline: MG_TRACE unset — telemetry fully disabled.
    std::env::remove_var("MG_TRACE");
    let base_res = session().unwrap();

    // Traced run into a temp file.
    let path = std::env::temp_dir().join(format!("mg_obs_emission_{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    std::env::set_var("MG_TRACE", &path);
    let obs_res = session().unwrap();
    std::env::remove_var("MG_TRACE");

    // (a) Telemetry must not perturb the computation: bitwise equality.
    assert_eq!(
        base_res.trace, obs_res.trace,
        "tracing changed the training run"
    );
    assert_eq!(
        base_res.test_metric.to_bits(),
        obs_res.test_metric.to_bits()
    );
    assert_eq!(
        base_res.val_metric.unwrap().to_bits(),
        obs_res.val_metric.unwrap().to_bits()
    );
    assert_eq!(base_res.epochs_run, obs_res.epochs_run);

    // (b) The emitted trace parses and matches the schema.
    let text = std::fs::read_to_string(&path).expect("trace file written");
    let report = validate_trace(&text).expect("trace validates");
    assert_eq!(report.run_starts, 1);
    assert_eq!(report.run_ends, 1);
    assert_eq!(report.kernel_stats, 1);
    assert_eq!(
        report.epochs, obs_res.epochs_run,
        "one EpochRecord per epoch actually run"
    );

    // Spot-check the payload of each epoch record: the AdamGNN composite
    // loss decomposes into all three terms, β stats and hyper-node
    // counts are present (levels=2 ⇒ 2 pooling levels), and every
    // parameter reports a gradient norm.
    let mut saw_epoch = false;
    for line in text.lines() {
        let v = Json::parse(line).expect("line parses");
        if v.get("kind").and_then(Json::as_str) != Some("epoch") {
            continue;
        }
        saw_epoch = true;
        assert_eq!(
            v.get("task").and_then(Json::as_str),
            Some("node_classification")
        );
        for term in ["loss_total", "loss_task", "loss_kl", "loss_recon"] {
            let x = v
                .get(term)
                .and_then(Json::as_f64)
                .unwrap_or_else(|| panic!("epoch record missing finite {term}: {line}"));
            assert!(x.is_finite());
        }
        let beta = v.get("beta").expect("beta stats present");
        assert!(beta
            .get("mean")
            .and_then(Json::as_arr)
            .is_some_and(|a| !a.is_empty()));
        let sizes = v
            .get("level_sizes")
            .and_then(Json::as_arr)
            .expect("level_sizes present");
        assert_eq!(sizes.len(), cfg.levels, "one hyper-node count per level");
        let norms = v
            .get("grad_norms")
            .and_then(Json::as_arr)
            .expect("grad_norms present");
        assert!(!norms.is_empty(), "per-parameter gradient norms recorded");
    }
    assert!(saw_epoch);

    let _ = std::fs::remove_file(&path);
}

/// The epoch records' values are the untraced run's, bit for bit. They
/// are read off the tape before backward releases it: each record's
/// `loss_total` is the untraced trace's loss, and its three terms
/// recompose to it exactly as `total_loss` adds them. Two traced runs
/// emit the same records.
#[test]
fn traced_records_read_the_untraced_step_bitwise() {
    let _guard = ENV_LOCK.lock().unwrap();
    let ds = tiny_ds();
    let cfg = fast_cfg();
    let session = || {
        TrainSession::new(
            SessionKind::NodeClassification(NodeModelKind::AdamGnn),
            &cfg,
        )
        .run(&ds)
        .unwrap()
    };
    std::env::remove_var("MG_TRACE");
    let base = session();
    let traced = |tag: &str| {
        let path =
            std::env::temp_dir().join(format!("mg_obs_values_{tag}_{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        std::env::set_var("MG_TRACE", &path);
        let res = session();
        std::env::remove_var("MG_TRACE");
        let text = std::fs::read_to_string(&path).expect("trace file written");
        let _ = std::fs::remove_file(&path);
        let epochs: Vec<Json> = text
            .lines()
            .map(|l| Json::parse(l).expect("line parses"))
            .filter(|v| v.get("kind").and_then(Json::as_str) == Some("epoch"))
            .collect();
        (res, epochs)
    };
    let (res, epochs) = traced("a");
    assert_eq!(base.trace, res.trace, "tracing changed the training run");
    assert_eq!(epochs.len(), base.trace.records.len());
    let f = |v: &Json, k: &str| v.get(k).and_then(Json::as_f64).expect(k);
    let (gamma, delta) = (cfg.weights.gamma, cfg.weights.delta);
    for (v, row) in epochs.iter().zip(&base.trace.records) {
        let total = f(v, "loss_total");
        assert_eq!(total.to_bits(), row.loss.to_bits(), "epoch {}", row.epoch);
        let (task, kl, recon) = (f(v, "loss_task"), f(v, "loss_kl"), f(v, "loss_recon"));
        assert_eq!(
            ((task + kl * gamma) + recon * delta).to_bits(),
            total.to_bits(),
            "epoch {}: the recorded terms are not this step's",
            row.epoch
        );
    }
    // wall times differ between runs; every other field is exact
    let exact = |v: &Json| {
        [
            "loss_total",
            "loss_task",
            "loss_kl",
            "loss_recon",
            "val_metric",
            "grad_norms",
            "beta",
            "level_sizes",
            "peak_tape_bytes",
        ]
        .map(|k| v.get(k).map(Json::to_string))
    };
    let (_, again) = traced("b");
    assert_eq!(
        epochs.iter().map(exact).collect::<Vec<_>>(),
        again.iter().map(exact).collect::<Vec<_>>()
    );
}

/// Every traced trainer must close its trace: exactly one run_start,
/// one kernel_stats and one run_end per run (a table sweep appending
/// several runs to one file stays well-formed). Regression for the LP
/// trainer, which once emitted epochs but never run_end.
#[test]
fn all_trainers_emit_complete_run_records() {
    let _guard = ENV_LOCK.lock().unwrap();
    let ds = tiny_ds();
    let cfg = fast_cfg();
    let path = std::env::temp_dir().join(format!("mg_obs_complete_{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    std::env::set_var("MG_TRACE", &path);
    let nc = TrainSession::new(
        SessionKind::NodeClassification(NodeModelKind::AdamGnn),
        &cfg,
    )
    .run(&ds)
    .unwrap();
    let lp = TrainSession::new(SessionKind::LinkPrediction(NodeModelKind::AdamGnn), &cfg)
        .run(&ds)
        .unwrap();
    let cl = TrainSession::new(SessionKind::NodeClustering(NodeModelKind::Gcn), &cfg)
        .run(&ds)
        .unwrap();
    std::env::remove_var("MG_TRACE");
    assert!(cl.test_metric >= 0.0);

    let text = std::fs::read_to_string(&path).expect("trace file written");
    let report = validate_trace(&text).expect("trace validates");
    assert_eq!(report.run_starts, 3, "one run_start per run");
    assert_eq!(report.kernel_stats, 3, "one kernel_stats per run");
    assert_eq!(report.run_ends, 3, "one run_end per run");
    assert_eq!(report.epochs, nc.epochs_run + lp.epochs_run + cfg.epochs);

    let _ = std::fs::remove_file(&path);
}

/// Sampled runs go through the same loop as full-batch ones, so their
/// epoch records carry the same decomposition: the loss terms, flyback
/// β, level sizes and gradient norms of the epoch's last step.
#[test]
fn sampled_epoch_records_carry_step_telemetry() {
    let _guard = ENV_LOCK.lock().unwrap();
    let ds = tiny_ds();
    let cfg = fast_cfg();
    let path = std::env::temp_dir().join(format!("mg_obs_sampled_{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    std::env::set_var("MG_TRACE", &path);
    let res = TrainSession::new(
        SessionKind::NodeClassification(NodeModelKind::AdamGnn),
        &cfg,
    )
    .minibatch(MinibatchConfig {
        batch_size: 32,
        fanouts: vec![8, 8],
    })
    .run(&ds)
    .unwrap();
    std::env::remove_var("MG_TRACE");

    let text = std::fs::read_to_string(&path).expect("trace file written");
    let report = validate_trace(&text).expect("trace validates");
    assert_eq!(report.epochs, res.epochs_run);
    let mut epochs = 0;
    for line in text.lines() {
        let v = Json::parse(line).expect("line parses");
        if v.get("kind").and_then(Json::as_str) != Some("epoch") {
            continue;
        }
        epochs += 1;
        for term in ["loss_task", "loss_kl", "loss_recon"] {
            let x = v
                .get(term)
                .and_then(Json::as_f64)
                .unwrap_or_else(|| panic!("sampled epoch record missing {term}: {line}"));
            assert!(x.is_finite());
        }
        let norms = v.get("grad_norms").and_then(Json::as_arr);
        assert!(norms.is_some_and(|a| !a.is_empty()), "grad_norms: {line}");
        let beta = v.get("beta").expect("beta stats present");
        assert!(beta
            .get("mean")
            .and_then(Json::as_arr)
            .is_some_and(|a| !a.is_empty()));
        let sizes = v.get("level_sizes").and_then(Json::as_arr);
        assert!(
            sizes.is_some_and(|a| a.len() == cfg.levels),
            "level_sizes: {line}"
        );
    }
    assert_eq!(epochs, res.epochs_run);

    let _ = std::fs::remove_file(&path);
}
