//! Serial-vs-parallel kernel timings, the body of `BENCH_ops.json`.
//!
//! The suite times each hot kernel twice in one process — under a
//! one-thread pool (the exact serial path) and under an N-thread pool —
//! using `mg_runtime::with_pool`. Besides the raw kernels it times a few
//! model-level cases the same way: a thin matmul, a GCN layer's forward
//! and backward, AdamGNN's pair fitness and segment softmax. The
//! `ops_report` binary is the report's only writer.
//!
//! Pool size resolution: `MG_NUM_THREADS` if set, else the host's
//! available parallelism. A pool wider than the host cannot measure
//! parallel speedup — its threads time-slice the same cores, which
//! manufactures slowdowns — so when `pool_threads > host_threads` the
//! report records both fields, carries a top-level `warning`, and emits
//! `"speedup": null` for every op rather than claiming numbers the
//! hardware cannot support.

use crate::report::host_threads;
use adamgnn_core::{pair_fitness, AttentionParams, EgoPairs};
use mg_graph::{gcn_norm, Topology};
use mg_nn::{Activation, GcnLayer, GraphCtx};
use mg_obs::Json;
use mg_runtime::{with_pool, Pool};
use mg_tensor::{Isa, Matrix, ParamStore, Tape};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

/// One kernel's serial and parallel medians.
#[derive(Clone, Debug)]
pub struct OpTiming {
    pub op: &'static str,
    pub serial_ns: f64,
    pub parallel_ns: f64,
}

impl OpTiming {
    /// Serial / parallel ratio (>1 means the pool helped).
    pub fn speedup(&self) -> f64 {
        if self.parallel_ns > 0.0 {
            self.serial_ns / self.parallel_ns
        } else {
            0.0
        }
    }
}

/// A single-thread kernel-variant comparison: the shipped baseline
/// kernel against an alternative implementation of the same product
/// (tiled vs scalar matmul, fused vs unfused spmm chain). Both run on
/// the calling thread, so the ratio is a pure kernel-quality number that
/// is meaningful even on a one-core host where pool speedups are not.
#[derive(Clone, Debug)]
pub struct VariantTiming {
    pub op: &'static str,
    pub baseline: &'static str,
    pub variant: &'static str,
    pub baseline_ns: f64,
    pub variant_ns: f64,
}

impl VariantTiming {
    /// Baseline / variant ratio (>1 means the variant is faster).
    pub fn speedup(&self) -> f64 {
        if self.variant_ns > 0.0 {
            self.baseline_ns / self.variant_ns
        } else {
            0.0
        }
    }
}

/// Median of `samples` timed runs of `f`, in ns.
fn median_ns(samples: usize, mut f: impl FnMut()) -> f64 {
    // one untimed warm-up pass so allocators and the pool are hot
    f();
    let mut times: Vec<f64> = (0..samples)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let n = times.len();
    if n % 2 == 1 {
        times[n / 2]
    } else {
        0.5 * (times[n / 2 - 1] + times[n / 2])
    }
}

fn random_graph(n: usize, m: usize, seed: u64) -> Topology {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edges = Vec::with_capacity(m + n);
    for v in 1..n as u32 {
        edges.push((rng.random_range(0..v), v));
    }
    while edges.len() < m {
        let u = rng.random_range(0..n as u32);
        let v = rng.random_range(0..n as u32);
        if u != v {
            edges.push((u, v));
        }
    }
    Topology::from_edges(n, &edges)
}

/// The thread count the parallel half of the comparison uses:
/// `MG_NUM_THREADS` if set, else [`host_threads`] — never oversubscribed
/// by default, so the checked-in report's speedups are real.
pub fn pool_threads() -> usize {
    mg_runtime::parse_threads(
        std::env::var("MG_NUM_THREADS").ok().as_deref(),
        host_threads(),
    )
}

/// Time every hot kernel and model-level case serial-vs-parallel.
/// `samples` is the number of timed repetitions per case (the median is
/// reported).
pub fn run_suite(threads: usize, samples: usize) -> Vec<OpTiming> {
    let serial = Arc::new(Pool::new(1));
    let pool = Arc::new(Pool::new(threads));
    let mut rng = StdRng::seed_from_u64(0);

    let a512 = Matrix::uniform(512, 512, -1.0, 1.0, &mut rng);
    let b512 = Matrix::uniform(512, 512, -1.0, 1.0, &mut rng);
    let g = random_graph(2000, 8000, 1);
    let norm = gcn_norm(&g);
    let x = Matrix::uniform(2000, 64, -1.0, 1.0, &mut rng);
    let big = Matrix::uniform(1000, 512, -1.0, 1.0, &mut rng);

    let mut out = Vec::new();
    let mut record = |op: &'static str, f: &dyn Fn()| {
        let serial_ns = with_pool(serial.clone(), || median_ns(samples, f));
        let parallel_ns = with_pool(pool.clone(), || median_ns(samples, f));
        out.push(OpTiming {
            op,
            serial_ns,
            parallel_ns,
        });
    };

    record("matmul_512x512x512", &|| {
        black_box(a512.matmul(&b512));
    });
    record("matmul_tn_512", &|| {
        black_box(a512.matmul_tn(&b512));
    });
    record("matmul_nt_512", &|| {
        black_box(a512.matmul_nt(&b512));
    });
    record("spmm_2k_nodes_8k_edges_d64", &|| {
        black_box(norm.csr.spmm(&norm.values, &x));
    });
    record("spmm_t_2k_nodes_8k_edges_d64", &|| {
        black_box(norm.csr.spmm_t(&norm.values, &x));
    });
    record("map_512k_elems", &|| {
        black_box(big.map(|v| (v * 0.5).tanh()));
    });
    record("zip_512k_elems", &|| {
        black_box(big.zip(&big, |p, q| p * q + 0.5 * p));
    });

    let (a, b) = (
        Matrix::uniform(512, 256, -1.0, 1.0, &mut rng),
        Matrix::uniform(256, 64, -1.0, 1.0, &mut rng),
    );
    record("matmul_512x256x64", &|| {
        black_box(a.matmul(&b));
    });
    let ctx = GraphCtx::new(g.clone(), x.clone());
    let mut store = ParamStore::new();
    let layer = GcnLayer::new(&mut store, "b", 64, 64, Activation::Relu, &mut rng);
    let params = AttentionParams::new(&mut store, "fit", 64, &mut rng);
    record("gcn_layer_fwd_bwd_2k_nodes", &|| {
        let tape = Tape::new();
        let bind = store.bind(&tape);
        let xv = ctx.x_var(&tape);
        let h = layer.forward(&tape, &bind, &ctx, xv);
        let loss = tape.mean_all(h);
        black_box(tape.backward(loss));
    });
    let pairs = EgoPairs::build(&g, 1);
    record("adamgnn_pair_fitness_16k_pairs", &|| {
        let tape = Tape::new();
        let bind = store.bind(&tape);
        let h = tape.constant(x.clone());
        black_box(pair_fitness(&tape, &bind, &params, &pairs, h, 2000));
    });
    let scores = Matrix::uniform(16000, 1, -2.0, 2.0, &mut rng);
    let seg: Rc<Vec<usize>> = Rc::new((0..16000).map(|_| rng.random_range(0..2000)).collect());
    record("segment_softmax_16k_entries", &|| {
        let tape = Tape::new();
        let s = tape.constant(scores.clone());
        black_box(tape.segment_softmax(s, seg.clone(), 2000));
    });
    out
}

/// Time the kernel variants single-threaded: the register-tiled matmul
/// family (in the compilation this CPU runs) against the scalar kernels
/// at 512³, and the fused spmm+bias+ReLU
/// against the unfused three-pass chain the GCN layer used to run
/// (spmm, then a bias broadcast materialising the pre-activation, then
/// an elementwise ReLU).
pub fn run_variant_suite(samples: usize) -> Vec<VariantTiming> {
    let isa = Isa::detect();
    let mut rng = StdRng::seed_from_u64(0);
    let a512 = Matrix::uniform(512, 512, -1.0, 1.0, &mut rng);
    let b512 = Matrix::uniform(512, 512, -1.0, 1.0, &mut rng);
    let g = random_graph(2000, 8000, 1);
    let norm = gcn_norm(&g);
    let x = Matrix::uniform(2000, 64, -1.0, 1.0, &mut rng);
    let bias: Vec<f64> = (0..64).map(|_| rng.random_range(-1.0..1.0)).collect();

    let mut out = Vec::new();
    let mut record = |op: &'static str,
                      baseline: &'static str,
                      variant: &'static str,
                      base_f: &dyn Fn(),
                      var_f: &dyn Fn()| {
        let baseline_ns = median_ns(samples, base_f);
        let variant_ns = median_ns(samples, var_f);
        out.push(VariantTiming {
            op,
            baseline,
            variant,
            baseline_ns,
            variant_ns,
        });
    };

    record(
        "matmul_512x512x512",
        "scalar",
        "tiled",
        &|| {
            black_box(a512.matmul_serial(&b512));
        },
        &|| {
            black_box(a512.matmul_tiled(&b512, isa));
        },
    );
    record(
        "matmul_tn_512",
        "scalar",
        "tiled",
        &|| {
            black_box(a512.matmul_tn_serial(&b512));
        },
        &|| {
            black_box(a512.matmul_tn_tiled(&b512, isa));
        },
    );
    record(
        "matmul_nt_512",
        "scalar",
        "tiled",
        &|| {
            black_box(a512.matmul_nt_serial(&b512));
        },
        &|| {
            black_box(a512.matmul_nt_tiled(&b512, isa));
        },
    );
    record(
        "spmm_bias_relu_2k_nodes_8k_edges_d64",
        "unfused_chain",
        "fused",
        &|| {
            let agg = norm.csr.spmm_serial(&norm.values, &x);
            let z = Matrix::from_fn(agg.rows(), agg.cols(), |i, j| agg[(i, j)] + bias[j]);
            black_box(z.map(|v| v.max(0.0)));
        },
        &|| {
            black_box(norm.csr.spmm_bias_relu_serial(&norm.values, &x, &bias));
        },
    );
    out
}

/// The oversubscription warning for a given configuration, if any.
pub fn oversubscription_warning(pool: usize, host: usize) -> Option<String> {
    (pool > host).then(|| {
        format!(
            "pool_threads ({pool}) > host_threads ({host}): pool threads time-slice \
             the same cores, so these timings measure oversubscription, not parallel \
             speedup; speedups are suppressed. Regenerate on a host with >= {pool} cores."
        )
    })
}

/// The `BENCH_ops.json` body.
///
/// When the pool is wider than the host the report refuses to claim
/// speedups: every op gets `"speedup": null` and `warning` explains why
/// (see [`oversubscription_warning`]). Variant comparisons are
/// single-threaded, so their speedups are real regardless.
pub fn report(threads: usize, timings: &[OpTiming], variants: &[VariantTiming]) -> Json {
    let warning = oversubscription_warning(threads, host_threads());
    let oversubscribed = warning.is_some();
    let ops = timings.iter().map(|t| {
        Json::obj([
            ("op", t.op.into()),
            ("serial_ns", t.serial_ns.into()),
            ("parallel_ns", t.parallel_ns.into()),
            ("speedup", (!oversubscribed).then(|| t.speedup()).into()),
        ])
    });
    let variants = variants.iter().map(|v| {
        Json::obj([
            ("op", v.op.into()),
            ("baseline", v.baseline.into()),
            ("variant", v.variant.into()),
            ("baseline_ns", v.baseline_ns.into()),
            ("variant_ns", v.variant_ns.into()),
            ("speedup", v.speedup().into()),
        ])
    });
    Json::obj([
        ("pool_threads", threads.into()),
        ("warning", warning.into()),
        ("ops", Json::Arr(ops.collect())),
        ("kernel_variants", Json::Arr(variants.collect())),
    ])
}

/// Run both suites at the default settings (7 timed samples per kernel).
pub fn run() -> Result<Json, String> {
    let threads = pool_threads();
    Ok(report(
        threads,
        &run_suite(threads, 7),
        &run_variant_suite(7),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ops(v: &Json, table: &str) -> Vec<String> {
        let rows = v.get(table).and_then(Json::as_arr).unwrap();
        let op = |r: &Json| r.get("op").and_then(Json::as_str).unwrap().to_string();
        rows.iter().map(op).collect()
    }

    #[test]
    fn suite_reports_all_ops() {
        let timings = run_suite(2, 1);
        assert!(timings
            .iter()
            .all(|t| t.serial_ns > 0.0 && t.parallel_ns > 0.0));
        let v = report(2, &timings, &[]);
        assert_eq!(v.get("pool_threads").and_then(Json::as_f64), Some(2.0));
        let names = ops(&v, "ops");
        assert_eq!(names.len(), timings.len());
        for op in ["matmul_512x512x512", "gcn_layer_fwd_bwd_2k_nodes"] {
            assert!(names.iter().any(|n| n == op), "{op}");
        }
        for row in v.get("ops").and_then(Json::as_arr).unwrap() {
            for key in ["serial_ns", "parallel_ns", "speedup"] {
                assert!(row.get(key).is_some(), "missing {key} in {row}");
            }
        }
    }

    #[test]
    fn variant_suite_covers_tiled_and_fused() {
        let variants = run_variant_suite(1);
        assert!(variants
            .iter()
            .all(|v| v.baseline_ns > 0.0 && v.variant_ns > 0.0));
        let v = report(1, &[], &variants);
        assert_eq!(
            ops(&v, "kernel_variants"),
            [
                "matmul_512x512x512",
                "matmul_tn_512",
                "matmul_nt_512",
                "spmm_bias_relu_2k_nodes_8k_edges_d64"
            ]
        );
        let rows = v.get("kernel_variants").and_then(Json::as_arr).unwrap();
        assert_eq!(
            rows[0].get("baseline").and_then(Json::as_str),
            Some("scalar")
        );
        assert_eq!(rows[3].get("variant").and_then(Json::as_str), Some("fused"));
    }

    #[test]
    fn pool_threads_defaults_to_host_without_env() {
        // MG_NUM_THREADS may be set by the harness; only check the
        // fallback arithmetic here. The default must track the host, not
        // a fixed constant: a 4-thread pool on a 1-core container only
        // manufactures slowdowns.
        let host = host_threads();
        assert_eq!(mg_runtime::parse_threads(None, host), host);
        assert_eq!(mg_runtime::parse_threads(Some("6"), host), 6);
    }

    #[test]
    fn report_refuses_speedup_claims_when_oversubscribed() {
        let timings = vec![OpTiming {
            op: "fake_op",
            serial_ns: 100.0,
            parallel_ns: 50.0,
        }];
        let speedup = |v: &Json| {
            v.get("ops").unwrap().as_arr().unwrap()[0]
                .get("speedup")
                .cloned()
        };
        // pool wider than the host: warning present, speedups nulled
        let over = report(host_threads() + 1, &timings, &[]);
        let warning = over.get("warning").and_then(Json::as_str).unwrap();
        assert!(warning.contains("oversubscription"));
        assert_eq!(speedup(&over), Some(Json::Null));
        // a pool the host can actually run: numeric speedup, no warning
        let ok = report(1, &timings, &[]);
        assert_eq!(ok.get("warning"), Some(&Json::Null));
        assert_eq!(speedup(&ok), Some(Json::Num(2.0)));
    }
}
