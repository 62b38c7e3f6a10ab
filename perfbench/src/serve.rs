//! `serve_cora`: an in-process `Server` over a checkpoint trained with
//! `train_full_cora`'s configuration, driven closed-loop from keep-alive
//! connections for a fixed wall duration.

use crate::full::{self, last_finite_loss};
use crate::spans::{median, quantile, Tracer};
use crate::{layer_metrics, Args, Report};
use mg_data::Split;
use mg_eval::{FrozenModel, NodeModelKind, SessionKind, TrainSession};
use mg_nn::GraphCtx;
use mg_obs::json::Json;
use mg_serve::{
    ApiRequest, HttpClient, LinksRequest, LinksResponse, ModelService, NodesRequest, NodesResponse,
    ServeConfig, Server,
};
use mg_tensor::Matrix;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Closed-loop client connections, one per host CPU.
const CONNECTIONS: u64 = 2;
/// Most ids (or pairs) one request asks about.
const MAX_ITEMS: usize = 32;
/// Requests timed through `ModelService::handle_one` in a traced run.
const HANDLE_SAMPLES: usize = 6;
/// Full frozen forwards timed in a traced run.
const FORWARD_SAMPLES: usize = 3;

/// Every server knob, explicit.
fn serve_config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".into(),
        max_batch: 32,
        max_wait: Duration::from_micros(1000),
        max_queue: 1024,
        max_body: 1 << 20,
        max_items: 4096,
    }
}

fn checkpoint_path(args: &Args) -> PathBuf {
    args.cache
        .join(format!("serve_cora-seed{}.mgck", args.seed))
}

/// Train the served checkpoint with `train_full_cora`'s configuration.
pub fn train_checkpoint(args: &Args) -> Result<Report, String> {
    let ds = full::dataset(args.seed);
    let out = TrainSession::new(
        SessionKind::NodeClassification(NodeModelKind::AdamGnn),
        &full::config(args.seed, full::EPOCHS),
    )
    .checkpoint_to(checkpoint_path(args))
    .run(&ds)
    .map_err(|e| format!("training the served checkpoint failed: {e}"))?;
    let mut report = Report {
        attempted: 1,
        ..Report::default()
    };
    report.exact = vec![("ckpt.train_loss", last_finite_loss(&out.trace)?)];
    Ok(report)
}

/// One request of the traffic mix.
#[derive(Clone, Debug)]
enum Req {
    Nodes(Vec<usize>),
    Links(Vec<(usize, usize)>),
}

impl Req {
    /// Half node lookups, half link scorings, 1..=MAX_ITEMS items each.
    fn draw(rng: &mut StdRng, n: usize) -> Req {
        let k = 1 + rng.random_range(0..MAX_ITEMS);
        if rng.random::<f64>() < 0.5 {
            Req::Nodes((0..k).map(|_| rng.random_range(0..n)).collect())
        } else {
            Req::Links(
                (0..k)
                    .map(|_| (rng.random_range(0..n), rng.random_range(0..n)))
                    .collect(),
            )
        }
    }

    fn path_and_body(&self) -> (&'static str, String) {
        match self {
            Req::Nodes(ids) => ("/v1/nodes", NodesRequest { ids: ids.clone() }.to_json()),
            Req::Links(pairs) => (
                "/v1/links",
                LinksRequest {
                    pairs: pairs.clone(),
                }
                .to_json(),
            ),
        }
    }

    fn api(&self) -> ApiRequest {
        match self {
            Req::Nodes(ids) => ApiRequest::Nodes(NodesRequest { ids: ids.clone() }),
            Req::Links(pairs) => ApiRequest::Links(LinksRequest {
                pairs: pairs.clone(),
            }),
        }
    }

    /// Compare a response body bitwise against the gathers from the
    /// reference output matrix `h`.
    fn check(&self, h: &Matrix, body: &str) -> Result<(), String> {
        let same = |a: &[f64], b: &[f64]| {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
        };
        let ok = match self {
            Req::Nodes(ids) => {
                let got = NodesResponse::from_json(body).map_err(|e| e.detail())?;
                let labels = FrozenModel::labels_from(h, ids).map_err(|e| e.to_string())?;
                let rows = FrozenModel::embeddings_from(h, ids).map_err(|e| e.to_string())?;
                got.labels == labels
                    && got.embeddings.len() == rows.len()
                    && got.embeddings.iter().zip(&rows).all(|(a, b)| same(a, b))
            }
            Req::Links(pairs) => {
                let got = LinksResponse::from_json(body).map_err(|e| e.detail())?;
                let scores = FrozenModel::link_scores_from(h, pairs).map_err(|e| e.to_string())?;
                same(&got.scores, &scores)
            }
        };
        ok.then_some(())
            .ok_or_else(|| format!("response differs from the reference for {self:?}"))
    }
}

/// Send one request and check the answer.
fn ask(client: &mut HttpClient, req: &Req, h: &Matrix) -> Result<String, String> {
    let (path, body) = req.path_and_body();
    let (status, body) = client
        .request("POST", path, Some(&body))
        .map_err(|e| format!("transport: {e}"))?;
    if status != 200 {
        return Err(format!("status {status}: {body}"));
    }
    req.check(h, &body)?;
    Ok(body)
}

/// The served graph, output reference and test split, computed once
/// before any timed interval.
struct Reference {
    ds: mg_data::NodeDataset,
    service: ModelService,
    h: Arc<Matrix>,
    test: Vec<usize>,
}

fn reference(args: &Args) -> Result<Reference, String> {
    let path = checkpoint_path(args);
    if !path.exists() {
        return Err(format!("no served checkpoint at {}", path.display()));
    }
    let ds = full::dataset(args.seed);
    let fm = FrozenModel::load(&path).map_err(|e| e.to_string())?;
    let ctx = GraphCtx::new(ds.graph.clone(), ds.features.clone());
    let service = ModelService::new(fm, ctx).map_err(|e| e.to_string())?;
    let h = Arc::new(service.forward().map_err(|e| e.to_string())?);
    let split = Split::random_80_10_10(ds.n(), args.seed ^ 0x5eed).map_err(|e| e.to_string())?;
    Ok(Reference {
        ds,
        service,
        h,
        test: split.test,
    })
}

/// Start a server whose start-up loads the graph and the checkpoint,
/// as a deployment would. With `origin`, the model thread records its
/// start-up spans and hands them back.
fn start_server(args: &Args, origin: Option<Instant>) -> Result<(Server, Option<Tracer>), String> {
    let seed = args.seed;
    let path = checkpoint_path(args);
    let (tx, rx) = mpsc::channel::<Tracer>();
    let server = Server::start(serve_config(), move || {
        // two spans cost nothing next to a checkpoint load, so the
        // untraced start-up records them too and drops them
        let mut tr = Tracer::new(origin.unwrap_or_else(Instant::now));
        let ds = tr.span("data.generate", |_| full::dataset(seed));
        let fm = tr.span("ckpt.load", |_| FrozenModel::load(&path))?;
        if origin.is_some() {
            let _ = tx.send(tr);
        }
        Ok((fm, GraphCtx::new(ds.graph, ds.features)))
    })
    .map_err(|e| format!("server failed to start: {e}"))?;
    Ok((server, rx.try_recv().ok()))
}

/// The first, untimed-by-the-window request of a fresh server.
fn first_response(addr: SocketAddr, h: &Matrix) -> Result<(), String> {
    let mut c = HttpClient::connect(addr).map_err(|e| format!("connect: {e}"))?;
    ask(&mut c, &Req::Nodes(vec![0]), h).map(|_| ())
}

/// What one closed-loop connection observed.
#[derive(Default)]
struct ClientOut {
    latency_ms: Vec<f64>,
    untraced_ms: Vec<f64>,
    ok: u64,
    failed: u64,
    problems: Vec<String>,
    tracer: Option<Tracer>,
}

/// Drive `CONNECTIONS` closed-loop keep-alive clients until `deadline`.
/// With `origin`, each client records a `serve.roundtrip` span around
/// every second request and keeps the latencies of the others apart in
/// `untraced_ms`, so traced and untraced requests see the same load.
fn drive(
    addr: SocketAddr,
    h: &Arc<Matrix>,
    seed: u64,
    deadline: Instant,
    origin: Option<Instant>,
) -> Result<Vec<ClientOut>, String> {
    let n = h.rows();
    let workers: Vec<_> = (0..CONNECTIONS)
        .map(|c| {
            let h = Arc::clone(h);
            std::thread::spawn(move || {
                let mut out = ClientOut {
                    tracer: origin.map(Tracer::new),
                    ..ClientOut::default()
                };
                let mut rng = StdRng::seed_from_u64(seed ^ (0xc11e_0000 + c));
                let mut client = HttpClient::connect(addr).ok();
                let mut k = 0u64;
                while Instant::now() < deadline {
                    let req = Req::draw(&mut rng, n);
                    let traced = !k.is_multiple_of(2);
                    let t = Instant::now();
                    let result = match (client.as_mut(), out.tracer.as_mut()) {
                        (None, _) => Err("not connected".to_string()),
                        (Some(cl), Some(tr)) if traced => {
                            tr.set_op((c << 32) | k);
                            tr.span("serve.roundtrip", |_| ask(cl, &req, &h))
                        }
                        (Some(cl), _) => ask(cl, &req, &h),
                    };
                    let ms = t.elapsed().as_secs_f64() * 1e3;
                    out.latency_ms.push(ms);
                    if out.tracer.is_some() && !traced {
                        out.untraced_ms.push(ms);
                    }
                    k += 1;
                    match result {
                        Ok(_) => out.ok += 1,
                        Err(e) => {
                            out.failed += 1;
                            if out.problems.len() < 5 {
                                out.problems.push(e);
                            }
                            client = HttpClient::connect(addr).ok();
                        }
                    }
                }
                out
            })
        })
        .collect();
    workers
        .into_iter()
        .map(|w| w.join().map_err(|_| "client thread panicked".to_string()))
        .collect()
}

/// Served-label accuracy on the test split, checked against the
/// reference like every other response.
fn served_quality(addr: SocketAddr, r: &Reference) -> Result<f64, String> {
    let mut c = HttpClient::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let req = Req::Nodes(r.test.clone());
    let body = ask(&mut c, &req, &r.h)?;
    let got = NodesResponse::from_json(&body).map_err(|e| e.detail())?;
    let hits = got
        .labels
        .iter()
        .zip(&r.test)
        .filter(|(l, &i)| **l == r.ds.labels[i])
        .count();
    Ok(hits as f64 / r.test.len() as f64)
}

/// Start a server and answer its first request; returns the server and
/// the seconds this took.
fn setup(args: &Args, r: &Reference) -> Result<(Server, f64), String> {
    let t = Instant::now();
    let (server, _) = start_server(args, None)?;
    let first = first_response(server.addr(), &r.h);
    let secs = t.elapsed().as_secs_f64();
    if let Err(e) = first {
        server.shutdown();
        return Err(e);
    }
    Ok((server, secs))
}

/// One set-up, timed, in a process of its own.
pub fn setup_only(args: &Args) -> Result<Report, String> {
    let r = reference(args)?;
    let (server, secs) = setup(args, &r)?;
    server.shutdown();
    let mut report = Report::default();
    report.metric("setup_s", secs, "s");
    Ok(report)
}

/// End-to-end metrics, untraced.
pub fn measure(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let r = reference(args)?;
    let (server, setup_s) = setup(args, &r)?;
    let addr = server.addr();

    let start = Instant::now();
    let outs = drive(addr, &r.h, args.seed, start + args.seconds, None);
    let wall_s = start.elapsed().as_secs_f64();
    let quality = outs
        .as_ref()
        .map_err(Clone::clone)
        .and_then(|_| served_quality(addr, &r));
    server.shutdown();
    let (outs, quality) = (outs?, quality?);

    let mut latency_ms = Vec::new();
    let mut ok = 0;
    for o in outs {
        latency_ms.extend(o.latency_ms);
        ok += o.ok;
        report.attempted += o.ok + o.failed;
        report.failed += o.failed;
        report.problems.extend(o.problems);
    }
    if latency_ms.is_empty() {
        return Err("no request completed in the window".into());
    }
    report.metric("setup_s", setup_s, "s");
    report.metric("items_per_s", ok as f64 / wall_s, "1/s");
    report.metric("op_p50_ms", median(&latency_ms), "ms");
    report.metric("op_p90_ms", quantile(&latency_ms, 0.9), "ms");
    report.metric("quality", quality, "fraction");
    report.info = vec![
        ("requests", latency_ms.len() as f64),
        ("connections", CONNECTIONS as f64),
        ("window_s", wall_s),
    ];
    report.exact = vec![("quality", quality)];
    Ok(report)
}

/// Counters read from `/statsz`.
struct Stats {
    uptime_ms: f64,
    api_requests: f64,
    flushes: f64,
    queue_ns: f64,
    forward_ns: f64,
}

fn statsz(addr: SocketAddr) -> Result<Stats, String> {
    let mut c = HttpClient::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let (status, body) = c
        .request("GET", "/statsz", None)
        .map_err(|e| format!("statsz: {e}"))?;
    if status != 200 {
        return Err(format!("statsz answered {status}"));
    }
    let v = Json::parse(&body).map_err(|e| format!("statsz body: {e}"))?;
    let num = |v: Option<&Json>, what: &str| {
        v.and_then(Json::as_f64)
            .ok_or_else(|| format!("statsz lacks {what}"))
    };
    let endpoint = |p: &str| {
        v.get("by_endpoint")
            .and_then(|e| e.get(p))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    Ok(Stats {
        uptime_ms: num(v.get("uptime_ms"), "uptime_ms")?,
        api_requests: endpoint("/v1/nodes") + endpoint("/v1/links"),
        flushes: num(v.get("batch").and_then(|b| b.get("flushes")), "flushes")?,
        queue_ns: num(v.get("queue_ns_total"), "queue_ns_total")?,
        forward_ns: num(v.get("forward_ns_total"), "forward_ns_total")?,
    })
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len().max(1) as f64
}

/// Per-layer metrics: set-up spans, one window in which every second
/// request is traced, then direct timings of the service and the frozen
/// forward.
pub fn trace(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let r = reference(args)?;
    let origin = Instant::now();
    let mut tr = Tracer::new(origin);
    let server = tr.span("setup", |tr| -> Result<Server, String> {
        let (server, model_spans) = tr.span("serve.start", |_| start_server(args, Some(origin)))?;
        tr.absorb(model_spans.ok_or("the model thread recorded no spans")?);
        tr.span("serve.first_response", |_| {
            first_response(server.addr(), &r.h)
        })?;
        Ok(server)
    })?;
    let addr = server.addr();
    let result = (|| -> Result<(Vec<ClientOut>, Stats, Stats), String> {
        let before = statsz(addr)?;
        let outs = drive(
            addr,
            &r.h,
            args.seed,
            Instant::now() + args.seconds,
            Some(origin),
        )?;
        Ok((outs, before, statsz(addr)?))
    })();
    server.shutdown();
    let (outs, before, after) = result?;

    let mut untraced_ms = Vec::new();
    for mut o in outs {
        untraced_ms.extend(o.untraced_ms);
        report.attempted += o.ok + o.failed;
        report.failed += o.failed;
        report.problems.extend(o.problems);
        if let Some(t) = o.tracer.take() {
            tr.absorb(t);
        }
    }

    // the request path without HTTP, and the forward inside it
    let mut rng = StdRng::seed_from_u64(args.seed ^ 0x4a4d);
    for k in 0..HANDLE_SAMPLES {
        let req = Req::draw(&mut rng, r.h.rows());
        tr.set_op(k as u64);
        let resp = tr.span("serve.handle_one", |_| r.service.handle_one(req.api()));
        report.attempted += 1;
        let checked = resp
            .map_err(|e| e.detail())
            .and_then(|resp| req.check(&r.h, &resp.to_json()));
        if let Err(e) = checked {
            report.failed += 1;
            report.problem(format!("handle_one: {e}"));
        }
    }
    let ctx = GraphCtx::new(r.ds.graph.clone(), r.ds.features.clone());
    for k in 0..FORWARD_SAMPLES {
        tr.set_op(k as u64);
        let h = tr.span("eval.frozen_forward", |_| {
            r.service.model().node_outputs(&ctx)
        });
        let h = h.map_err(|e| e.to_string())?;
        let same = h
            .data()
            .iter()
            .zip(r.h.data())
            .all(|(a, b)| a.to_bits() == b.to_bits());
        if !same || h.data().len() != r.h.data().len() {
            report.problem("a frozen forward differs from the reference");
        }
    }

    let per = |name: &str| {
        let n = tr.named(name).count();
        tr.total_ms(name) / n.max(1) as f64
    };
    let roundtrip = per("serve.roundtrip");
    let handle_one = per("serve.handle_one");
    let api = (after.api_requests - before.api_requests).max(1.0);
    let queue_ms = (after.queue_ns - before.queue_ns) / api / 1e6;
    layer_metrics(
        &mut report,
        &[
            ("eval.frozen_forward_ms", per("eval.frozen_forward")),
            ("serve.handle_one_ms", handle_one),
            ("data.generate_ms", tr.total_ms("data.generate")),
            ("ckpt.load_ms", tr.total_ms("ckpt.load")),
            ("serve.start_ms", tr.total_ms("serve.start")),
            (
                "serve.first_response_ms",
                tr.total_ms("serve.first_response"),
            ),
            ("serve.roundtrip_ms", roundtrip),
            ("serve.http_queue_ms", roundtrip - handle_one),
            (
                "serve.mean_flush_size",
                api / (after.flushes - before.flushes).max(1.0),
            ),
            (
                "serve.forward_share",
                (after.forward_ns - before.forward_ns)
                    / ((after.uptime_ms - before.uptime_ms).max(1.0) * 1e6),
            ),
            ("unattributed_ms", roundtrip - handle_one - queue_ms),
            ("trace_overhead_frac", roundtrip / mean(&untraced_ms) - 1.0),
        ],
    );
    report.info = vec![
        ("requests_untraced", untraced_ms.len() as f64),
        (
            "requests_traced",
            tr.named("serve.roundtrip").count() as f64,
        ),
        ("batcher_queue_ms", queue_ms),
    ];
    tr.write_jsonl(
        &args
            .cache
            .join(format!("spans-serve_cora-{}.jsonl", args.seed)),
    )
    .map_err(|e| format!("writing spans: {e}"))?;
    Ok(report)
}
