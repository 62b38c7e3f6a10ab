//! Trace record types and their JSONL encodings.
//!
//! Every record renders as one self-describing JSON object per line with
//! a `kind` discriminant and the emitting run's `task`, so a single trace
//! file can interleave several runs (e.g. the node-classification and
//! link-prediction trainers of one table sweep) and still be filtered
//! with a one-line `jq 'select(.kind == "epoch")'`.

use crate::json::{number, string};

/// Static facts about one training run, emitted once as `run_start`.
#[derive(Clone, Debug)]
pub struct RunMeta {
    /// Model display name (e.g. `AdamGNN`).
    pub model: String,
    /// Dataset display name.
    pub dataset: String,
    /// Nodes in the (first) training graph.
    pub n_nodes: usize,
    /// Edges in the (first) training graph.
    pub n_edges: usize,
    pub seed: u64,
    /// Configured epoch budget (early stopping may use fewer).
    pub epochs: usize,
    pub hidden: usize,
    pub levels: usize,
    /// KL weight γ of the composite objective.
    pub gamma: f64,
    /// Reconstruction weight δ of the composite objective.
    pub delta: f64,
    /// Pooling operator tag (`adamgnn`/`asap`/`spapool`). Flat baselines
    /// record the configured default — only AdamGNN models act on it.
    pub pooling: String,
}

impl RunMeta {
    pub(crate) fn to_json_line(&self, task: &str) -> String {
        format!(
            "{{\"kind\": \"run_start\", \"task\": {}, \"model\": {}, \"dataset\": {}, \
             \"n_nodes\": {}, \"n_edges\": {}, \"seed\": {}, \"epochs\": {}, \
             \"hidden\": {}, \"levels\": {}, \"gamma\": {}, \"delta\": {}, \
             \"pooling\": {}, \"parallel_feature\": {}}}",
            string(task),
            string(&self.model),
            string(&self.dataset),
            self.n_nodes,
            self.n_edges,
            self.seed,
            self.epochs,
            self.hidden,
            self.levels,
            number(self.gamma),
            number(self.delta),
            string(&self.pooling),
            cfg!(feature = "parallel"),
        )
    }
}

/// Per-level summary statistics of the flyback attention `β` (Eq. 4):
/// each node attends over the granularity levels, so column `k` of the
/// `n x K` attention matrix summarises how much weight level `k`
/// receives across nodes. Collapse to one level shows up as one column's
/// mean pinned near 1 with the others near 0.
#[derive(Clone, Debug, PartialEq)]
pub struct BetaStats {
    pub mean: Vec<f64>,
    pub min: Vec<f64>,
    pub max: Vec<f64>,
}

impl BetaStats {
    /// Column-wise stats of a row-major `rows x cols` matrix given as a
    /// flat slice (the tensor crate's layout).
    pub fn from_flat(data: &[f64], cols: usize) -> BetaStats {
        assert!(
            cols > 0 && data.len().is_multiple_of(cols),
            "BetaStats: bad shape"
        );
        let rows = data.len() / cols;
        let mut mean = vec![0.0; cols];
        let mut min = vec![f64::INFINITY; cols];
        let mut max = vec![f64::NEG_INFINITY; cols];
        for r in 0..rows {
            for c in 0..cols {
                let x = data[r * cols + c];
                mean[c] += x;
                min[c] = min[c].min(x);
                max[c] = max[c].max(x);
            }
        }
        for m in &mut mean {
            *m /= rows as f64;
        }
        BetaStats { mean, min, max }
    }

    fn to_json(&self) -> String {
        let join = |v: &[f64]| v.iter().map(|&x| number(x)).collect::<Vec<_>>().join(", ");
        format!(
            "{{\"mean\": [{}], \"min\": [{}], \"max\": [{}]}}",
            join(&self.mean),
            join(&self.min),
            join(&self.max)
        )
    }
}

/// One epoch of telemetry, emitted as `kind: "epoch"`.
///
/// The loss decomposition mirrors adamgnn-core's `LossBreakdown`
/// (`L = L_task + γ·L_KL + δ·L_R`): `loss_total` is always present;
/// the per-term fields are `None` (JSON `null`) for models whose
/// objective has no such term (plain baselines, clustering's
/// unsupervised loop).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EpochRecord {
    pub epoch: usize,
    /// Composite training loss (mean over batches for mini-batch loops).
    pub loss_total: f64,
    /// `L_task` — unweighted.
    pub loss_task: Option<f64>,
    /// `L_KL` (Eq. 5) — unweighted.
    pub loss_kl: Option<f64>,
    /// `L_R` (Eq. 6) — unweighted.
    pub loss_recon: Option<f64>,
    /// Validation metric after the epoch's update, when the task has one.
    pub val_metric: Option<f64>,
    /// Wall time of the training phase (forward + backward + step), ns.
    pub train_ns: u64,
    /// Wall time of the evaluation phase, ns.
    pub eval_ns: u64,
    /// L2 gradient norm per parameter tensor, in registration order.
    pub grad_norms: Vec<(String, f64)>,
    /// Flyback-β summary, when the model ran the flyback aggregator.
    pub beta: Option<BetaStats>,
    /// Hyper-node count per pooling level that actually formed.
    pub level_sizes: Vec<usize>,
    /// High-water mark of live tape bytes across the epoch's training
    /// tapes (max over batches for mini-batch loops). Retained tapes
    /// report the full forward footprint; checkpointed tapes
    /// (`MG_CKPT_TAPE=1`) the reduced one.
    pub peak_tape_bytes: u64,
}

impl EpochRecord {
    pub(crate) fn to_json_line(&self, task: &str) -> String {
        let opt = |x: Option<f64>| x.map_or_else(|| "null".to_string(), number);
        let norms = self
            .grad_norms
            .iter()
            .map(|(name, norm)| {
                format!("{{\"param\": {}, \"l2\": {}}}", string(name), number(*norm))
            })
            .collect::<Vec<_>>()
            .join(", ");
        let beta = self
            .beta
            .as_ref()
            .map_or_else(|| "null".to_string(), |b| b.to_json());
        let levels = self
            .level_sizes
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
            .join(", ");
        format!(
            "{{\"kind\": \"epoch\", \"task\": {}, \"epoch\": {}, \"loss_total\": {}, \
             \"loss_task\": {}, \"loss_kl\": {}, \"loss_recon\": {}, \"val_metric\": {}, \
             \"train_ns\": {}, \"eval_ns\": {}, \"grad_norms\": [{}], \"beta\": {}, \
             \"level_sizes\": [{}], \"peak_tape_bytes\": {}}}",
            string(task),
            self.epoch,
            number(self.loss_total),
            opt(self.loss_task),
            opt(self.loss_kl),
            opt(self.loss_recon),
            opt(self.val_metric),
            self.train_ns,
            self.eval_ns,
            norms,
            beta,
            levels,
            self.peak_tape_bytes,
        )
    }
}

/// One sampled-minibatch training step, emitted as `kind: "sample_step"`.
///
/// The sampled trainers emit one record per optimizer step (per-epoch
/// aggregates still land in the usual `epoch` record): how many seeds
/// the batch drew, how large the expanded ego-subgraph came out, and how
/// many frontier nodes had neighbor lists truncated by the fanout cap —
/// the knob a trace reader needs when deciding whether a fanout budget
/// is starving the receptive field.
#[derive(Clone, Debug, PartialEq)]
pub struct SampleStepRecord {
    pub epoch: usize,
    /// Step index within the epoch.
    pub step: usize,
    /// Seed nodes in the batch (after dedup).
    pub seeds: usize,
    /// Nodes in the sampled subgraph (seeds included).
    pub sampled_nodes: usize,
    /// Undirected edges in the induced subgraph.
    pub sampled_edges: usize,
    /// Frontier nodes whose neighbor list was cut by a fanout cap.
    pub truncated: usize,
    /// Composite training loss of this step.
    pub loss: f64,
}

impl SampleStepRecord {
    pub(crate) fn to_json_line(&self, task: &str) -> String {
        format!(
            "{{\"kind\": \"sample_step\", \"task\": {}, \"epoch\": {}, \"step\": {}, \
             \"seeds\": {}, \"sampled_nodes\": {}, \"sampled_edges\": {}, \
             \"truncated\": {}, \"loss\": {}}}",
            string(task),
            self.epoch,
            self.step,
            self.seeds,
            self.sampled_nodes,
            self.sampled_edges,
            self.truncated,
            number(self.loss),
        )
    }
}

/// One served online-inference request, emitted as `kind: "serve"`.
///
/// mg-serve emits one record per HTTP request, successful or rejected.
/// Requests answered from the output table carry their gather time in
/// `forward_ns`; requests rejected before that (malformed JSON, unknown
/// route, payload cap, backpressure) and the GET routes record 0 there —
/// the `status` field is what distinguishes the outcomes.
#[derive(Clone, Debug, PartialEq)]
pub struct ServeRecord {
    /// Request path (e.g. `/v1/nodes`).
    pub endpoint: String,
    /// HTTP status the server answered with.
    pub status: u16,
    /// Node ids / node pairs in the request body (0 when the body never
    /// parsed).
    pub items: usize,
    /// Wall time of the request's gathers from the output table, ns.
    pub forward_ns: u64,
}

impl ServeRecord {
    pub(crate) fn to_json_line(&self, task: &str) -> String {
        format!(
            "{{\"kind\": \"serve\", \"task\": {}, \"endpoint\": {}, \"status\": {}, \
             \"items\": {}, \"forward_ns\": {}}}",
            string(task),
            string(&self.endpoint),
            self.status,
            self.items,
            self.forward_ns,
        )
    }
}

/// Final results of a run, emitted as `kind: "run_end"`.
#[derive(Clone, Debug)]
pub struct RunEnd {
    pub epochs_run: usize,
    /// Best validation metric observed (tasks with validation).
    pub best_val: Option<f64>,
    /// Test metric at the best-validation checkpoint (or the final task
    /// metric for tasks without checkpointing, e.g. clustering NMI).
    pub test_metric: Option<f64>,
    /// Total run wall time in seconds.
    pub wall_s: f64,
}

impl RunEnd {
    pub(crate) fn to_json_line(&self, task: &str) -> String {
        let opt = |x: Option<f64>| x.map_or_else(|| "null".to_string(), number);
        format!(
            "{{\"kind\": \"run_end\", \"task\": {}, \"epochs_run\": {}, \"best_val\": {}, \
             \"test_metric\": {}, \"wall_s\": {}}}",
            string(task),
            self.epochs_run,
            opt(self.best_val),
            opt(self.test_metric),
            number(self.wall_s),
        )
    }
}

/// Render the kernel-timing registry snapshot as a `kernel_stats` record,
/// folding mg-runtime's `MG_KERNEL_STATS` story into the same trace file.
/// The registry is process-global and cumulative; `calls`/`total_ns` are
/// totals up to the moment of emission. Serial builds never record into
/// it, so the array is empty there.
pub(crate) fn kernel_stats_json_line(task: &str) -> String {
    let entries = mg_runtime::KernelStats::snapshot()
        .iter()
        .map(|(op, s)| {
            format!(
                "{{\"op\": {}, \"calls\": {}, \"total_ns\": {}}}",
                string(op),
                s.calls,
                s.total_ns
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{{\"kind\": \"kernel_stats\", \"task\": {}, \"kernels\": [{}]}}",
        string(task),
        entries
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn epoch_record_line_is_valid_json() {
        let rec = EpochRecord {
            epoch: 3,
            loss_total: 1.25,
            loss_task: Some(1.0),
            loss_kl: Some(0.5),
            loss_recon: None,
            val_metric: Some(0.75),
            train_ns: 123,
            eval_ns: 45,
            grad_norms: vec![("w\"eird".into(), 2.0), ("b".into(), f64::NAN)],
            beta: Some(BetaStats::from_flat(&[0.25, 0.75, 0.5, 0.5], 2)),
            level_sizes: vec![6, 3],
            peak_tape_bytes: 4096,
        };
        let line = rec.to_json_line("node_classification");
        let v = Json::parse(&line).expect("valid JSON");
        assert_eq!(v.get("kind").unwrap().as_str(), Some("epoch"));
        assert_eq!(v.get("loss_total").unwrap().as_f64(), Some(1.25));
        assert_eq!(v.get("loss_recon"), Some(&Json::Null));
        // a NaN grad norm must degrade to null, not corrupt the line
        let norms = v.get("grad_norms").unwrap().as_arr().unwrap();
        assert_eq!(norms[1].get("l2"), Some(&Json::Null));
        let beta = v.get("beta").unwrap();
        assert_eq!(beta.get("mean").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(v.get("level_sizes").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(v.get("peak_tape_bytes").unwrap().as_f64(), Some(4096.0));
    }

    #[test]
    fn beta_stats_columnwise() {
        let b = BetaStats::from_flat(&[0.0, 1.0, 0.5, 0.5, 1.0, 0.0], 2);
        assert_eq!(b.mean, vec![0.5, 0.5]);
        assert_eq!(b.min, vec![0.0, 0.0]);
        assert_eq!(b.max, vec![1.0, 1.0]);
    }

    #[test]
    fn run_meta_and_end_lines_parse() {
        let meta = RunMeta {
            model: "AdamGNN".into(),
            dataset: "cora".into(),
            n_nodes: 100,
            n_edges: 250,
            seed: 7,
            epochs: 30,
            hidden: 16,
            levels: 2,
            gamma: 0.1,
            delta: 0.01,
            pooling: "asap".into(),
        };
        let v = Json::parse(&meta.to_json_line("link_prediction")).unwrap();
        assert_eq!(v.get("kind").unwrap().as_str(), Some("run_start"));
        assert_eq!(v.get("n_edges").unwrap().as_f64(), Some(250.0));
        assert_eq!(v.get("pooling").unwrap().as_str(), Some("asap"));
        let end = RunEnd {
            epochs_run: 12,
            best_val: Some(0.9),
            test_metric: None,
            wall_s: 1.5,
        };
        let v = Json::parse(&end.to_json_line("link_prediction")).unwrap();
        assert_eq!(v.get("test_metric"), Some(&Json::Null));
    }

    #[test]
    fn sample_step_line_parses() {
        let rec = SampleStepRecord {
            epoch: 2,
            step: 5,
            seeds: 64,
            sampled_nodes: 410,
            sampled_edges: 900,
            truncated: 12,
            loss: 1.75,
        };
        let v = Json::parse(&rec.to_json_line("node_classification")).unwrap();
        assert_eq!(v.get("kind").unwrap().as_str(), Some("sample_step"));
        assert_eq!(v.get("seeds").unwrap().as_f64(), Some(64.0));
        assert_eq!(v.get("sampled_nodes").unwrap().as_f64(), Some(410.0));
        assert_eq!(v.get("truncated").unwrap().as_f64(), Some(12.0));
        assert_eq!(v.get("loss").unwrap().as_f64(), Some(1.75));
    }

    #[test]
    fn serve_line_parses() {
        let rec = ServeRecord {
            endpoint: "/v1/nodes".into(),
            status: 200,
            items: 4,
            forward_ns: 90_000,
        };
        let v = Json::parse(&rec.to_json_line("serve")).unwrap();
        assert_eq!(v.get("kind").unwrap().as_str(), Some("serve"));
        assert_eq!(v.get("endpoint").unwrap().as_str(), Some("/v1/nodes"));
        assert_eq!(v.get("status").unwrap().as_f64(), Some(200.0));
        assert_eq!(v.get("items").unwrap().as_f64(), Some(4.0));
        assert_eq!(v.get("forward_ns").unwrap().as_f64(), Some(90_000.0));
    }

    #[test]
    fn kernel_stats_line_parses() {
        mg_runtime::KernelStats::record("obs_test_op", 10);
        let v = Json::parse(&kernel_stats_json_line("t")).unwrap();
        assert_eq!(v.get("kind").unwrap().as_str(), Some("kernel_stats"));
        assert!(v.get("kernels").unwrap().as_arr().unwrap().iter().any(|k| k
            .get("op")
            .unwrap()
            .as_str()
            == Some("obs_test_op")));
    }
}
