//! The concurrent HTTP server: accept loop, per-connection workers, the
//! model thread, and the telemetry thread.
//!
//! ## Threading model
//!
//! * **Acceptor** — blocks on `TcpListener::accept`, spawns one worker
//!   per connection (tracked by a gauge so shutdown can drain).
//! * **Workers** — parse HTTP, validate JSON, submit to the shared
//!   [`Batcher`] and block on their reply channel. Workers never touch
//!   the model.
//! * **Model thread** — the only thread that owns the [`FrozenModel`]
//!   (which holds `Rc`s and is deliberately not `Send`). At start-up it
//!   runs the one deterministic forward and keeps its output table; then
//!   it runs the batcher's flush loop, answering each request with pure
//!   gathers from that table. A flush that panics answers its requests
//!   with a typed `internal` error and the loop keeps serving.
//! * **Telemetry thread** — owns the mg-obs [`Trace`] sink; workers send
//!   it one `serve` record per request over a channel, keeping file I/O
//!   off the latency path and the non-`Send` sink on one thread.
//!
//! ## Shutdown
//!
//! [`Server::shutdown`] stops the acceptor, waits for in-flight
//! connections to finish, closes the batcher (which *drains*: accepted
//! requests still execute and answer), joins the model thread, then
//! flushes and joins telemetry. Submits during the drain are rejected
//! with a typed `shutting_down` body.

use crate::api::{healthz_body, ApiRequest, LinksRequest, NodesRequest};
use crate::batch::{BatchCfg, BatchMeta, Batcher};
use crate::error::ServeError;
use crate::http::{read_request, write_response, HttpRequest};
use crate::service::ModelService;
use mg_eval::FrozenModel;
use mg_nn::GraphCtx;
use mg_obs::{ServeRecord, Trace};
use mg_tensor::MgError;
use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Idle keep-alive connections are closed after this long so a silent
/// peer cannot stall shutdown indefinitely.
const IDLE_TIMEOUT: Duration = Duration::from_secs(5);

/// Server knobs and their environment variables.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address (`MG_SERVE_ADDR`); port 0 picks an ephemeral port.
    pub addr: String,
    /// Most requests coalesced into one flush (`MG_SERVE_BATCH`).
    pub max_batch: usize,
    /// Longest a flush waits for stragglers, µs (`MG_SERVE_WAIT_US`).
    pub max_wait: Duration,
    /// Most requests pending before backpressure (`MG_SERVE_QUEUE`).
    pub max_queue: usize,
    /// Request body cap, bytes (`MG_SERVE_MAX_BODY`).
    pub max_body: usize,
    /// Per-request item cap: ids or pairs (`MG_SERVE_MAX_ITEMS`).
    pub max_items: usize,
}

fn env_or<T: std::str::FromStr>(name: &str, default: T) -> T {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:7878".into(),
            max_batch: 32,
            max_wait: Duration::from_micros(1000),
            max_queue: 1024,
            max_body: 1 << 20,
            max_items: 4096,
        }
    }
}

impl ServeConfig {
    /// Resolve every knob from the environment over the defaults.
    pub fn from_env() -> ServeConfig {
        let d = ServeConfig::default();
        ServeConfig {
            addr: std::env::var("MG_SERVE_ADDR").unwrap_or(d.addr),
            max_batch: env_or("MG_SERVE_BATCH", d.max_batch).max(1),
            max_wait: Duration::from_micros(env_or(
                "MG_SERVE_WAIT_US",
                d.max_wait.as_micros() as u64,
            )),
            max_queue: env_or("MG_SERVE_QUEUE", d.max_queue).max(1),
            max_body: env_or("MG_SERVE_MAX_BODY", d.max_body),
            max_items: env_or("MG_SERVE_MAX_ITEMS", d.max_items),
        }
    }
}

/// Identity facts served by `/healthz` and `/statsz`.
#[derive(Clone, Debug)]
struct ModelInfo {
    model: String,
    dataset: String,
    task: String,
    n_nodes: usize,
    pinned_structure: bool,
}

/// Counters behind `/statsz`.
#[derive(Default)]
struct StatsInner {
    requests: u64,
    by_status: BTreeMap<u16, u64>,
    by_endpoint: BTreeMap<String, u64>,
    rejected_overload: u64,
    flushes: u64,
    /// flush size -> number of flushes of that size
    batch_hist: BTreeMap<usize, u64>,
    queue_ns_total: u64,
    forward_ns_total: u64,
}

struct ConnGauge {
    count: Mutex<usize>,
    zero: Condvar,
}

struct Shared {
    cfg: ServeConfig,
    batcher: Batcher<ApiRequest, crate::api::ApiResponse>,
    stats: Mutex<StatsInner>,
    info: OnceLock<ModelInfo>,
    stopping: AtomicBool,
    conns: ConnGauge,
    started: Instant,
    trace_tx: Mutex<Option<mpsc::Sender<ServeRecord>>>,
}

/// A running server. Dropping the handle does NOT stop it; call
/// [`Server::shutdown`].
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: JoinHandle<()>,
    model: JoinHandle<()>,
    telemetry: JoinHandle<()>,
}

impl Server {
    /// Bind, load the model, and start serving.
    ///
    /// A zero `max_batch` or `max_queue` is rejected with
    /// [`MgError::InvalidInput`] before anything binds. `init` runs on
    /// the model thread (the model may own `Rc`s); its error fails
    /// `start` — a server that cannot serve must not come up. The trace
    /// sink is mg-obs's `MG_TRACE` contract: unset means every record is
    /// a no-op.
    pub fn start<F>(cfg: ServeConfig, init: F) -> Result<Server, MgError>
    where
        F: FnOnce() -> Result<(FrozenModel, GraphCtx), MgError> + Send + 'static,
    {
        let (batch, queue) = (cfg.max_batch, cfg.max_queue);
        if batch == 0 || queue == 0 {
            let detail = format!("max_batch ({batch}) and max_queue ({queue}) must be at least 1");
            return Err(MgError::InvalidInput { detail });
        }
        let listener = TcpListener::bind(&cfg.addr).map_err(|e| MgError::InvalidInput {
            detail: format!("cannot bind {}: {e}", cfg.addr),
        })?;
        let addr = listener.local_addr().map_err(|e| MgError::InvalidInput {
            detail: format!("no local address: {e}"),
        })?;

        let (trace_tx, trace_rx) = mpsc::channel::<ServeRecord>();
        let telemetry = std::thread::Builder::new()
            .name("mg-serve-trace".into())
            .spawn(move || {
                let mut trace = Trace::from_env("serve");
                for rec in trace_rx {
                    trace.serve(&rec);
                    trace.flush();
                }
            })
            .expect("spawn telemetry thread");

        let shared = Arc::new(Shared {
            batcher: Batcher::new(BatchCfg {
                max_batch: cfg.max_batch,
                max_wait: cfg.max_wait,
                max_queue: cfg.max_queue,
            }),
            stats: Mutex::new(StatsInner::default()),
            info: OnceLock::new(),
            stopping: AtomicBool::new(false),
            conns: ConnGauge {
                count: Mutex::new(0),
                zero: Condvar::new(),
            },
            started: Instant::now(),
            trace_tx: Mutex::new(Some(trace_tx)),
            cfg,
        });

        let (ready_tx, ready_rx) = mpsc::channel::<Result<ModelInfo, MgError>>();
        let model = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("mg-serve-model".into())
                .spawn(move || {
                    let svc = match init().and_then(|(m, ctx)| ModelService::new(m, ctx)) {
                        Ok(svc) => svc,
                        Err(e) => {
                            let _ = ready_tx.send(Err(e));
                            return;
                        }
                    };
                    let meta = svc.model().meta();
                    let _ = ready_tx.send(Ok(ModelInfo {
                        model: meta.model.clone(),
                        dataset: meta.dataset.clone(),
                        task: meta.task.clone(),
                        n_nodes: svc.n_nodes(),
                        pinned_structure: svc.model().structure().is_some(),
                    }));
                    shared.batcher.serve_loop(|reqs| {
                        let n = reqs.len();
                        let out = svc.execute(reqs);
                        let mut st = shared.stats.lock().unwrap();
                        st.flushes += 1;
                        *st.batch_hist.entry(n).or_insert(0) += 1;
                        st.forward_ns_total += out.1;
                        out
                    });
                })
                .expect("spawn model thread")
        };

        let info = ready_rx.recv().map_err(|_| MgError::InvalidInput {
            detail: "model thread died during startup".into(),
        })??;
        shared.info.set(info).expect("info set once");

        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("mg-serve-accept".into())
                .spawn(move || {
                    for stream in listener.incoming() {
                        if shared.stopping.load(Ordering::SeqCst) {
                            break;
                        }
                        let Ok(stream) = stream else { continue };
                        // gauge up BEFORE the worker exists, so shutdown
                        // cannot observe zero while a spawn is in flight
                        *shared.conns.count.lock().unwrap() += 1;
                        let shared = Arc::clone(&shared);
                        let _ = std::thread::Builder::new()
                            .name("mg-serve-conn".into())
                            .spawn(move || {
                                handle_conn(stream, &shared);
                                let mut n = shared.conns.count.lock().unwrap();
                                *n -= 1;
                                if *n == 0 {
                                    shared.conns.zero.notify_all();
                                }
                            });
                    }
                })
                .expect("spawn acceptor thread")
        };

        Ok(Server {
            addr,
            shared,
            acceptor,
            model,
            telemetry,
        })
    }

    /// The bound address (resolves port 0 to the ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Graceful shutdown: stop accepting, drain in-flight connections
    /// and queued requests, then tear the threads down in order.
    pub fn shutdown(self) {
        self.shared.stopping.store(true, Ordering::SeqCst);
        // unblock the acceptor; it checks `stopping` before handling
        let _ = TcpStream::connect(self.addr);
        let _ = self.acceptor.join();
        {
            let mut n = self.shared.conns.count.lock().unwrap();
            while *n > 0 {
                n = self.shared.conns.zero.wait(n).unwrap();
            }
        }
        self.shared.batcher.close();
        let _ = self.model.join();
        // dropping the last sender ends the telemetry loop
        self.shared.trace_tx.lock().unwrap().take();
        let _ = self.telemetry.join();
    }
}

/// Serve one connection until close, error, or shutdown.
fn handle_conn(stream: TcpStream, shared: &Shared) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(IDLE_TIMEOUT));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = std::io::BufReader::new(read_half);
    let mut writer = stream;
    loop {
        match read_request(&mut reader, shared.cfg.max_body) {
            Ok(None) => break, // clean close (or idle timeout)
            Ok(Some(req)) => {
                let keep = req.keep_alive && !shared.stopping.load(Ordering::SeqCst);
                let (status, body, meta, items) = route(&req, shared);
                record(shared, &req.path, status, items, meta);
                if write_response(&mut writer, status, &body, keep).is_err() || !keep {
                    break;
                }
            }
            Err(e) => {
                // the request never parsed; answer typed and close
                record(shared, "?", e.status(), 0, BatchMeta::default());
                let _ = write_response(&mut writer, e.status(), &e.body(), false);
                break;
            }
        }
    }
}

/// `(status, body, batch meta, items asked about)` for one request.
type Routed = (u16, String, BatchMeta, usize);

fn route(req: &HttpRequest, shared: &Shared) -> Routed {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => {
            let info = shared.info.get().expect("set before serving");
            let body = healthz_body(&info.model, &info.dataset, &info.task, info.n_nodes);
            (200, body, BatchMeta::default(), 0)
        }
        ("GET", "/statsz") => (200, stats_body(shared), BatchMeta::default(), 0),
        ("POST", "/v1/nodes") => {
            let parsed =
                NodesRequest::from_json(&req.body, shared.cfg.max_items).map(ApiRequest::Nodes);
            answer(shared, parsed)
        }
        ("POST", "/v1/links") => {
            let parsed =
                LinksRequest::from_json(&req.body, shared.cfg.max_items).map(ApiRequest::Links);
            answer(shared, parsed)
        }
        (method, "/v1/nodes" | "/v1/links" | "/healthz" | "/statsz") => {
            reject(ServeError::MethodNotAllowed {
                method: method.to_string(),
            })
        }
        (_, path) => reject(ServeError::NotFound { path: path.into() }),
    }
}

fn reject(e: ServeError) -> Routed {
    (e.status(), e.body(), BatchMeta::default(), 0)
}

/// Run one parsed API request through the batcher and render the result.
fn answer(shared: &Shared, parsed: Result<ApiRequest, ServeError>) -> Routed {
    let req = match parsed {
        Ok(req) => req,
        Err(e) => return reject(e),
    };
    let items = req.items();
    let rx = match shared.batcher.submit(req) {
        Ok(rx) => rx,
        Err(e) => {
            if matches!(e, ServeError::Overloaded { .. }) {
                shared.stats.lock().unwrap().rejected_overload += 1;
            }
            return reject(e);
        }
    };
    let Ok((result, meta)) = rx.recv() else {
        return reject(ServeError::Internal {
            detail: "model thread terminated".into(),
        });
    };
    match result {
        Ok(resp) => (200, resp.to_json(), meta, items),
        Err(e) => (e.status(), e.body(), meta, items),
    }
}

/// The `/statsz` document: counters, batching shape, pool facts.
fn stats_body(shared: &Shared) -> String {
    let info = shared.info.get().expect("set before serving");
    let st = shared.stats.lock().unwrap();
    let map = |m: &BTreeMap<u16, u64>| {
        let kv: Vec<String> = m.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
        format!("{{{}}}", kv.join(", "))
    };
    let by_status = map(&st.by_status);
    let by_endpoint: Vec<String> = st
        .by_endpoint
        .iter()
        .map(|(k, v)| format!("{}: {v}", mg_obs::json::string(k)))
        .collect();
    let hist: Vec<String> = st
        .batch_hist
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    format!(
        concat!(
            "{{\"uptime_ms\": {}, \"model\": {}, \"dataset\": {}, \"task\": {}, ",
            "\"n_nodes\": {}, \"pinned_structure\": {}, \"pool_threads\": {}, ",
            "\"requests\": {}, \"by_status\": {}, \"by_endpoint\": {{{}}}, ",
            "\"rejected_overload\": {}, \"queue_depth\": {}, ",
            "\"batch\": {{\"max_batch\": {}, \"max_wait_us\": {}, \"flushes\": {}, ",
            "\"hist\": {{{}}}}}, \"queue_ns_total\": {}, \"forward_ns_total\": {}}}"
        ),
        shared.started.elapsed().as_millis(),
        mg_obs::json::string(&info.model),
        mg_obs::json::string(&info.dataset),
        mg_obs::json::string(&info.task),
        info.n_nodes,
        info.pinned_structure,
        mg_runtime::current_threads(),
        st.requests,
        by_status,
        by_endpoint.join(", "),
        st.rejected_overload,
        shared.batcher.depth(),
        shared.cfg.max_batch,
        shared.cfg.max_wait.as_micros(),
        st.flushes,
        hist.join(", "),
        st.queue_ns_total,
        st.forward_ns_total,
    )
}

/// Update counters and emit the per-request `serve` trace record.
fn record(shared: &Shared, endpoint: &str, status: u16, items: usize, meta: BatchMeta) {
    {
        let mut st = shared.stats.lock().unwrap();
        st.requests += 1;
        *st.by_status.entry(status).or_insert(0) += 1;
        *st.by_endpoint.entry(endpoint.to_string()).or_insert(0) += 1;
        st.queue_ns_total += meta.queue_ns;
    }
    let tx = shared.trace_tx.lock().unwrap().clone();
    if let Some(tx) = tx {
        let _ = tx.send(ServeRecord {
            endpoint: endpoint.to_string(),
            status,
            items,
            batch_size: meta.batch_size,
            queue_ns: meta.queue_ns,
            forward_ns: meta.forward_ns,
        });
    }
}
