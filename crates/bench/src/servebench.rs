//! Online-serving benchmark, the body of `BENCH_serve.json`.
//!
//! The `serve_report` binary is the online counterpart of `infer`: it
//! obtains the same benchmark checkpoint (reusing `MG_CKPT_PATH` when
//! compatible, training the seeded job otherwise), starts a real
//! [`Server`] on an ephemeral loopback port, smoke-tests the endpoint
//! contract with mixed valid and invalid requests (typed rejections
//! asserted, not just non-200s), then drives the server at several
//! concurrency levels over keep-alive connections:
//!
//! ```text
//! cargo run --release -p mg-bench --bin serve_report
//! ```
//!
//! Per level the report records throughput and p50/p99 latency; the
//! final `/statsz` scrape contributes the flush-size histogram, which is
//! the direct evidence of micro-batching (higher concurrency → more
//! multi-request flushes).

use crate::inferbench::obtain_checkpoint;
use mg_eval::FrozenModel;
use mg_nn::GraphCtx;
use mg_obs::Json;
use mg_serve::{HttpClient, LinksRequest, NodesRequest, ServeConfig, Server};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Obtain (reuse or train) the benchmark checkpoint and its dataset —
/// the standalone `serve` binary's startup path.
pub fn prepare_checkpoint(
    scale: f64,
    epochs: usize,
) -> Result<(PathBuf, mg_data::NodeDataset, bool), String> {
    obtain_checkpoint(scale, epochs, None)
}

fn percentile_ms(sorted_ns: &[u64], p: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let idx = ((p / 100.0) * (sorted_ns.len() - 1) as f64).round() as usize;
    sorted_ns[idx.min(sorted_ns.len() - 1)] as f64 / 1e6
}

/// The request a client issues on iteration `i`: alternating node
/// lookups and link scorings with varying ids, so flushes are mixed.
fn request_body(i: usize, n_nodes: usize) -> (&'static str, String) {
    if i.is_multiple_of(2) {
        let ids = vec![i % n_nodes, (i * 31 + 5) % n_nodes];
        ("/v1/nodes", NodesRequest { ids }.to_json())
    } else {
        let pairs = vec![(i % n_nodes, (i * 17 + 3) % n_nodes)];
        ("/v1/links", LinksRequest { pairs }.to_json())
    }
}

/// Assert one smoke expectation against the live server.
fn check(
    client: &mut HttpClient,
    method: &str,
    path: &str,
    body: Option<&str>,
    want_status: u16,
    want_code: Option<&str>,
) -> Result<(), String> {
    let (status, resp) = client
        .request(method, path, body)
        .map_err(|e| format!("{method} {path}: transport failed: {e}"))?;
    if status != want_status {
        return Err(format!(
            "{method} {path}: expected {want_status}, got {status} ({resp})"
        ));
    }
    if let Some(code) = want_code {
        let v = Json::parse(&resp).map_err(|e| format!("{method} {path}: body not JSON: {e}"))?;
        if v.get("error").and_then(Json::as_str) != Some(code) {
            return Err(format!(
                "{method} {path}: expected error code {code:?}, got {resp}"
            ));
        }
    }
    Ok(())
}

/// The endpoint-contract smoke phase: valid requests answer 200, every
/// class of invalid request is rejected with its typed code, and a
/// rejection never wedges the connection. Returns the check count.
fn smoke(addr: SocketAddr, n_nodes: usize) -> Result<usize, String> {
    let mut c = HttpClient::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let good_nodes = NodesRequest {
        ids: vec![0, n_nodes - 1],
    }
    .to_json();
    let good_links = LinksRequest {
        pairs: vec![(0, n_nodes - 1)],
    }
    .to_json();
    let bad_id = NodesRequest {
        ids: vec![n_nodes + 9],
    }
    .to_json();
    type Case<'a> = (&'a str, &'a str, Option<&'a str>, u16, Option<&'a str>);
    let cases: Vec<Case> = vec![
        ("GET", "/healthz", None, 200, None),
        ("POST", "/v1/nodes", Some(&good_nodes), 200, None),
        ("POST", "/v1/links", Some(&good_links), 200, None),
        (
            "POST",
            "/v1/nodes",
            Some("not json"),
            400,
            Some("bad_request"),
        ),
        (
            "POST",
            "/v1/nodes",
            Some(&bad_id),
            400,
            Some("invalid_input"),
        ),
        (
            "POST",
            "/v1/links",
            Some("{\"pairs\": [[0]]}"),
            400,
            Some("bad_request"),
        ),
        ("GET", "/v1/nodes", None, 405, Some("method_not_allowed")),
        ("POST", "/nope", None, 404, Some("not_found")),
        // the same connection keeps serving after every rejection above
        ("POST", "/v1/nodes", Some(&good_nodes), 200, None),
        ("GET", "/statsz", None, 200, None),
    ];
    let n = cases.len();
    for (method, path, body, status, code) in cases {
        check(&mut c, method, path, body, status, code)?;
    }
    Ok(n)
}

/// Drive one concurrency level: `concurrency` keep-alive clients, each
/// issuing `per_client` requests, every response checked for 200.
/// Returns the level's throughput and p50/p99 latency.
fn drive_level(
    addr: SocketAddr,
    n_nodes: usize,
    concurrency: usize,
    per_client: usize,
) -> Result<Json, String> {
    let wall = Instant::now();
    let workers: Vec<_> = (0..concurrency)
        .map(|w| {
            std::thread::spawn(move || -> Result<Vec<u64>, String> {
                let mut client = HttpClient::connect(addr).map_err(|e| format!("connect: {e}"))?;
                let mut lat = Vec::with_capacity(per_client);
                for i in 0..per_client {
                    let (path, body) = request_body(w * per_client + i, n_nodes);
                    let t = Instant::now();
                    let (status, resp) = client
                        .request("POST", path, Some(&body))
                        .map_err(|e| format!("request: {e}"))?;
                    lat.push(t.elapsed().as_nanos() as u64);
                    if status != 200 {
                        return Err(format!("worker {w}: {path} answered {status}: {resp}"));
                    }
                }
                Ok(lat)
            })
        })
        .collect();
    let mut latencies = Vec::with_capacity(concurrency * per_client);
    for worker in workers {
        latencies.extend(worker.join().map_err(|_| "worker panicked".to_string())??);
    }
    let wall_s = wall.elapsed().as_secs_f64();
    latencies.sort_unstable();
    Ok(Json::obj([
        ("concurrency", concurrency.into()),
        ("requests", latencies.len().into()),
        ("wall_s", wall_s.into()),
        (
            "throughput_rps",
            (latencies.len() as f64 / wall_s.max(1e-9)).into(),
        ),
        ("p50_ms", percentile_ms(&latencies, 50.0).into()),
        ("p99_ms", percentile_ms(&latencies, 99.0).into()),
    ]))
}

/// Run the serving benchmark end to end and return the report body.
pub fn run_job(
    scale: f64,
    epochs: usize,
    per_client: usize,
    concurrency_levels: &[usize],
    ckpt_path: Option<&Path>,
) -> Result<Json, String> {
    if concurrency_levels.len() < 3 {
        return Err(format!(
            "the report needs at least 3 concurrency levels, got {concurrency_levels:?}"
        ));
    }
    let started = Instant::now();
    let (path, ds, trained_here) = obtain_checkpoint(scale, epochs, ckpt_path)?;
    let n_nodes = ds.n();

    let cfg = ServeConfig {
        addr: "127.0.0.1:0".into(),
        max_batch: 16,
        max_wait: Duration::from_micros(300),
        ..ServeConfig::default()
    };
    let (max_batch, max_wait_us) = (cfg.max_batch, cfg.max_wait.as_micros() as u64);
    let init_path = path.clone();
    let server = Server::start(cfg, move || {
        let fm = FrozenModel::load(&init_path)?;
        let ds = crate::inferbench::bench_dataset(scale);
        let ctx = GraphCtx::new(ds.graph.clone(), ds.features.clone());
        Ok((fm, ctx))
    })
    .map_err(|e| format!("server failed to start: {e}"))?;
    let addr = server.addr();

    let result = (|| -> Result<Json, String> {
        let smoke_checks = smoke(addr, n_nodes)?;

        let mut levels = Vec::new();
        for &concurrency in concurrency_levels {
            levels.push(drive_level(addr, n_nodes, concurrency, per_client)?);
        }

        // the final statsz scrape carries the batching evidence
        let mut c = HttpClient::connect(addr).map_err(|e| format!("connect: {e}"))?;
        let (status, body) = c
            .request("GET", "/statsz", None)
            .map_err(|e| format!("statsz: {e}"))?;
        if status != 200 {
            return Err(format!("statsz answered {status}"));
        }
        let v = Json::parse(&body).map_err(|e| format!("statsz body: {e}"))?;
        let model = v
            .get("model")
            .and_then(Json::as_str)
            .ok_or("statsz lacks model")?;
        let dataset = (v.get("dataset").and_then(Json::as_str)).ok_or("statsz lacks dataset")?;
        let batch = v.get("batch").ok_or("statsz lacks batch")?;
        let flushes = batch
            .get("flushes")
            .and_then(Json::as_f64)
            .ok_or("statsz lacks flushes")? as u64;
        // flush size -> flush count
        let batch_hist = batch.get("hist").cloned().ok_or("statsz lacks hist")?;
        Ok(Json::obj([
            ("task", "serve".into()),
            ("model", model.into()),
            ("dataset", dataset.into()),
            ("checkpoint", path.display().to_string().into()),
            ("trained_here", trained_here.into()),
            ("n_nodes", n_nodes.into()),
            ("max_batch", max_batch.into()),
            ("max_wait_us", max_wait_us.into()),
            ("smoke_checks", smoke_checks.into()),
            ("levels", levels.into()),
            ("batch_hist", batch_hist),
            ("flushes", flushes.into()),
            ("total_s", started.elapsed().as_secs_f64().into()),
        ]))
    })();
    server.shutdown();
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn num(v: &Json, key: &str) -> f64 {
        v.get(key).and_then(Json::as_f64).unwrap()
    }

    /// A tiny end-to-end job: smoke passes, every level measures, and
    /// the histogram accounts for every flush.
    #[test]
    fn job_serves_measures_and_reports() {
        let path =
            std::env::temp_dir().join(format!("mg_serve_bench_test_{}.mgc", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let v = run_job(0.03, 3, 6, &[1, 2, 4], Some(&path)).expect("job runs");
        assert_eq!(v.get("trained_here"), Some(&Json::Bool(true)));
        assert_eq!(num(&v, "smoke_checks"), 10.0);
        let levels = v.get("levels").and_then(Json::as_arr).unwrap();
        assert_eq!(levels.len(), 3);
        for l in levels {
            assert!(num(l, "requests") > 0.0 && num(l, "throughput_rps") > 0.0);
            assert!(num(l, "p50_ms") <= num(l, "p99_ms"));
        }
        let flushes = num(&v, "flushes");
        assert!(flushes > 0.0, "the batcher must have flushed");
        let Some(Json::Obj(hist)) = v.get("batch_hist") else {
            panic!("batch_hist is not an object: {v}");
        };
        let total_flushed: f64 = hist.values().filter_map(Json::as_f64).sum();
        assert_eq!(total_flushed, flushes, "histogram accounts for every flush");
        crate::report::assert_keys(&v, &["model", "checkpoint"]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn fewer_than_three_levels_is_refused() {
        let err = run_job(0.03, 3, 2, &[1, 2], None).unwrap_err();
        assert!(err.contains("at least 3"), "{err}");
    }
}
