//! The concurrent HTTP server: a start-up thread that loads the model,
//! then the acceptor, per-connection workers and the telemetry thread.
//!
//! ## Threading model
//!
//! * **Start-up thread** — [`Server::start`] runs the caller's `init`
//!   and [`ModelService::new`] on one short-lived thread, because the
//!   [`FrozenModel`] holds `Rc`s and is deliberately not `Send`. Only the
//!   `Send` results cross back: the model's identity and its output
//!   table. The model and its graph are dropped with the thread.
//! * **Acceptor** — blocks on `TcpListener::accept`, spawns one worker
//!   per connection (tracked by a gauge so shutdown can drain).
//! * **Workers** — parse HTTP, validate JSON, and answer each API
//!   request with a pure gather from the shared table. `max_queue`
//!   bounds the requests being answered at once; one more is refused
//!   503 `overloaded`. A request whose answer panics gets 500 `internal`
//!   and the connection keeps serving.
//! * **Telemetry thread** — owns the mg-obs [`Trace`] sink; workers send
//!   it one `serve` record per request over a channel, keeping file I/O
//!   off the latency path and the non-`Send` sink on one thread.
//!
//! ## Shutdown
//!
//! [`Server::shutdown`] stops the acceptor, closes the read side of
//! every connection waiting between requests, waits for the rest to
//! finish (each answers the request it is reading), then flushes and
//! joins telemetry.

use crate::api::{healthz_body, ApiRequest, LinksRequest, NodesRequest};
use crate::error::ServeError;
use crate::http::{read_request, write_response, HttpRequest};
use crate::service::{gather, ModelService};
use mg_eval::FrozenModel;
use mg_nn::GraphCtx;
use mg_obs::{ServeRecord, Trace};
use mg_tensor::{Matrix, MgError};
use std::collections::{BTreeMap, HashMap};
use std::io::BufRead;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::{JoinHandle, ThreadId};
use std::time::{Duration, Instant};

/// Idle keep-alive connections are closed after this long.
const IDLE_TIMEOUT: Duration = Duration::from_secs(5);

/// Server knobs and their environment variables.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address (`MG_SERVE_ADDR`); port 0 picks an ephemeral port.
    pub addr: String,
    /// Ignored: requests are not batched. Kept only because perfbench
    /// builds this struct literally; removed with the next change to the
    /// benchmark.
    pub max_batch: usize,
    /// Ignored, like `max_batch`, and removed with it.
    pub max_wait: Duration,
    /// Most API requests answered at once before backpressure
    /// (`MG_SERVE_QUEUE`).
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
            max_queue: env_or("MG_SERVE_QUEUE", d.max_queue).max(1),
            max_body: env_or("MG_SERVE_MAX_BODY", d.max_body),
            max_items: env_or("MG_SERVE_MAX_ITEMS", d.max_items),
            ..d
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
    /// API requests answered from the table.
    answered: u64,
    /// Wall time of their gathers, ns.
    gather_ns_total: u64,
}

/// Bounds the API requests being answered at once.
struct Admission {
    in_flight: AtomicUsize,
    cap: usize,
}

/// One admitted request; dropping it frees its place.
struct Admitted<'a>(&'a AtomicUsize);

impl Admission {
    /// Take a place, or refuse with the depth at the cap.
    fn admit(&self) -> Result<Admitted<'_>, ServeError> {
        self.in_flight
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                (n < self.cap).then_some(n + 1)
            })
            .map(|_| Admitted(&self.in_flight))
            .map_err(|depth| ServeError::Overloaded { depth })
    }

    fn depth(&self) -> usize {
        self.in_flight.load(Ordering::SeqCst)
    }
}

impl Drop for Admitted<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Live connections; shutdown waits for zero.
#[derive(Default)]
struct ConnGauge {
    count: Mutex<usize>,
    zero: Condvar,
}

/// One live connection. The acceptor makes it before spawning the
/// worker and moves it in, so the gauge comes down however the worker
/// ends: on return, on unwind, or when a failed spawn drops the closure.
struct ConnGuard(Arc<ConnGauge>);

impl ConnGauge {
    fn enter(gauge: &Arc<ConnGauge>) -> ConnGuard {
        *gauge.count.lock().unwrap() += 1;
        ConnGuard(Arc::clone(gauge))
    }

    fn wait_zero(&self) {
        let mut n = self.count.lock().unwrap();
        while *n > 0 {
            n = self.zero.wait(n).unwrap();
        }
    }
}

impl Drop for ConnGuard {
    fn drop(&mut self) {
        let mut n = self.0.count.lock().unwrap();
        *n -= 1;
        if *n == 0 {
            self.0.zero.notify_all();
        }
    }
}

struct Shared {
    cfg: ServeConfig,
    info: ModelInfo,
    /// The frozen forward's output, read by every worker.
    table: Matrix,
    admission: Admission,
    stats: Mutex<StatsInner>,
    stopping: AtomicBool,
    conns: Arc<ConnGauge>,
    /// Streams of the workers waiting between requests, by worker.
    idle: Mutex<HashMap<ThreadId, Arc<TcpStream>>>,
    started: Instant,
    trace_tx: Mutex<Option<mpsc::Sender<ServeRecord>>>,
}

/// A running server. Dropping the handle does NOT stop it; call
/// [`Server::shutdown`].
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: JoinHandle<()>,
    telemetry: JoinHandle<()>,
}

impl Server {
    /// Bind, load the model, and start serving.
    ///
    /// A zero `max_queue` is rejected with [`MgError::InvalidInput`]
    /// before anything binds. `init` runs on a start-up thread (the
    /// model may own `Rc`s); its error fails `start`, and its panic
    /// fails it with [`MgError::InvalidInput`] — a server that cannot
    /// serve must not come up. The trace sink is mg-obs's `MG_TRACE`
    /// contract: unset means every record is a no-op.
    pub fn start<F>(cfg: ServeConfig, init: F) -> Result<Server, MgError>
    where
        F: FnOnce() -> Result<(FrozenModel, GraphCtx), MgError> + Send + 'static,
    {
        if cfg.max_queue == 0 {
            let detail = "max_queue must be at least 1".into();
            return Err(MgError::InvalidInput { detail });
        }
        let listener = TcpListener::bind(&cfg.addr).map_err(|e| MgError::InvalidInput {
            detail: format!("cannot bind {}: {e}", cfg.addr),
        })?;
        let addr = listener.local_addr().map_err(|e| MgError::InvalidInput {
            detail: format!("no local address: {e}"),
        })?;

        let (trace_tx, trace_rx) = mpsc::channel::<ServeRecord>();
        let (sink_ready_tx, sink_ready_rx) = mpsc::channel::<()>();
        let telemetry = std::thread::Builder::new()
            .name("mg-serve-trace".into())
            .spawn(move || {
                let mut trace = Trace::from_env("serve");
                let _ = sink_ready_tx.send(());
                for rec in trace_rx {
                    trace.serve(&rec);
                    trace.flush();
                }
            })
            .expect("spawn telemetry thread");
        // `MG_TRACE` is read by the time `start` returns, so a caller may
        // change the variable afterwards without racing the sink
        let _ = sink_ready_rx.recv();

        let startup = std::thread::Builder::new()
            .name("mg-serve-load".into())
            .spawn(move || {
                let svc = init().and_then(|(m, ctx)| ModelService::new(m, ctx))?;
                let meta = svc.model().meta();
                let info = ModelInfo {
                    model: meta.model.clone(),
                    dataset: meta.dataset.clone(),
                    task: meta.task.clone(),
                    n_nodes: svc.n_nodes(),
                    pinned_structure: svc.model().structure().is_some(),
                };
                Ok::<_, MgError>((info, svc.into_table()))
            })
            .expect("spawn start-up thread");
        let (info, table) = startup.join().map_err(|_| MgError::InvalidInput {
            detail: "model start-up panicked".into(),
        })??;

        let shared = Arc::new(Shared {
            info,
            table,
            admission: Admission {
                in_flight: AtomicUsize::new(0),
                cap: cfg.max_queue,
            },
            stats: Mutex::new(StatsInner::default()),
            stopping: AtomicBool::new(false),
            conns: Arc::default(),
            idle: Mutex::default(),
            started: Instant::now(),
            trace_tx: Mutex::new(Some(trace_tx)),
            cfg,
        });

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
                        let conn = ConnGauge::enter(&shared.conns);
                        let shared = Arc::clone(&shared);
                        let _ = std::thread::Builder::new()
                            .name("mg-serve-conn".into())
                            .spawn(move || {
                                let _conn = conn;
                                handle_conn(stream, &shared);
                            });
                    }
                })
                .expect("spawn acceptor thread")
        };

        Ok(Server {
            addr,
            shared,
            acceptor,
            telemetry,
        })
    }

    /// The bound address (resolves port 0 to the ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Graceful shutdown: stop accepting, release idle connections,
    /// drain the ones reading or answering a request, then flush and
    /// join telemetry.
    pub fn shutdown(self) {
        self.shared.stopping.store(true, Ordering::SeqCst);
        // unblock the acceptor; it checks `stopping` before handling
        let _ = TcpStream::connect(self.addr);
        let _ = self.acceptor.join();
        // a worker lists itself only after checking `stopping` under
        // this lock, so every idle worker is either here or leaving
        for stream in self.shared.idle.lock().expect("idle list lock").values() {
            let _ = stream.shutdown(Shutdown::Read);
        }
        self.shared.conns.wait_zero();
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
    let stream = Arc::new(stream);
    let mut writer = &*stream;
    while next_request_begins(shared, &stream, &mut reader) {
        match read_request(&mut reader, shared.cfg.max_body) {
            Ok(None) => break,
            Ok(Some(req)) => {
                let keep = req.keep_alive && !shared.stopping.load(Ordering::SeqCst);
                let (status, body, gather_ns, items) = unwind_to_internal(|| route(&req, shared));
                record(shared, &req.path, status, items, gather_ns);
                if write_response(&mut writer, status, &body, keep).is_err() || !keep {
                    break;
                }
            }
            Err(e) => {
                // the request never parsed; answer typed and close
                record(shared, "?", e.status(), 0, None);
                let _ = write_response(&mut writer, e.status(), &e.body(), false);
                break;
            }
        }
    }
}

/// Wait for the first byte of the next request. While it waits the
/// worker lists its stream as idle, so shutdown can close the read side
/// instead of waiting out [`IDLE_TIMEOUT`]; a request already being read
/// is never listed, so it is answered. False on close, idle timeout or
/// shutdown.
fn next_request_begins(
    shared: &Shared,
    stream: &Arc<TcpStream>,
    reader: &mut impl BufRead,
) -> bool {
    let me = std::thread::current().id();
    {
        let mut idle = shared.idle.lock().expect("idle list lock");
        if shared.stopping.load(Ordering::SeqCst) {
            return false;
        }
        idle.insert(me, Arc::clone(stream));
    }
    let begins = reader.fill_buf().is_ok_and(|buf| !buf.is_empty());
    shared.idle.lock().expect("idle list lock").remove(&me);
    begins
}

/// `(status, body, gather ns of an answered API request, items asked
/// about)` for one request.
type Routed = (u16, String, Option<u64>, usize);

fn route(req: &HttpRequest, shared: &Shared) -> Routed {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => {
            let info = &shared.info;
            let body = healthz_body(&info.model, &info.dataset, &info.task, info.n_nodes);
            (200, body, None, 0)
        }
        ("GET", "/statsz") => (200, stats_body(shared), None, 0),
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
    (e.status(), e.body(), None, 0)
}

/// Run `answer`, turning a panic into a typed 500 so the worker and
/// its connection keep serving.
fn unwind_to_internal(answer: impl FnOnce() -> Routed) -> Routed {
    catch_unwind(AssertUnwindSafe(answer)).unwrap_or_else(|_| {
        reject(ServeError::Internal {
            detail: "answering the request panicked".into(),
        })
    })
}

/// Admit one parsed API request, answer it from the table and render
/// the result.
fn answer(shared: &Shared, parsed: Result<ApiRequest, ServeError>) -> Routed {
    let req = match parsed {
        Ok(req) => req,
        Err(e) => return reject(e),
    };
    let _admitted = match shared.admission.admit() {
        Ok(admitted) => admitted,
        Err(e) => {
            shared.stats.lock().unwrap().rejected_overload += 1;
            return reject(e);
        }
    };
    let items = req.items();
    let timer = Instant::now();
    let result = gather(&shared.table, req);
    let gather_ns = Some(timer.elapsed().as_nanos() as u64);
    match result {
        Ok(resp) => (200, resp.to_json(), gather_ns, items),
        Err(e) => (e.status(), e.body(), gather_ns, items),
    }
}

/// The `/statsz` document: counters, in-flight depth, pool facts.
/// `batch.flushes`, `queue_ns_total` and `forward_ns_total` keep the
/// names perfbench parses: every answered request is its own flush, no
/// request queues, and the forward time is the gathers' time.
fn stats_body(shared: &Shared) -> String {
    let info = &shared.info;
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
    format!(
        concat!(
            "{{\"uptime_ms\": {}, \"model\": {}, \"dataset\": {}, \"task\": {}, ",
            "\"n_nodes\": {}, \"pinned_structure\": {}, \"pool_threads\": {}, ",
            "\"requests\": {}, \"by_status\": {}, \"by_endpoint\": {{{}}}, ",
            "\"rejected_overload\": {}, \"queue_depth\": {}, ",
            "\"batch\": {{\"flushes\": {}}}, \"queue_ns_total\": 0, \"forward_ns_total\": {}}}"
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
        shared.admission.depth(),
        st.answered,
        st.gather_ns_total,
    )
}

/// Update counters and emit the per-request `serve` trace record.
fn record(shared: &Shared, endpoint: &str, status: u16, items: usize, gather_ns: Option<u64>) {
    {
        let mut st = shared.stats.lock().unwrap();
        st.requests += 1;
        *st.by_status.entry(status).or_insert(0) += 1;
        *st.by_endpoint.entry(endpoint.to_string()).or_insert(0) += 1;
        if let Some(ns) = gather_ns {
            st.answered += 1;
            st.gather_ns_total += ns;
        }
    }
    let tx = shared.trace_tx.lock().unwrap().clone();
    if let Some(tx) = tx {
        let _ = tx.send(ServeRecord {
            endpoint: endpoint.to_string(),
            status,
            items,
            forward_ns: gather_ns.unwrap_or(0),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admission_refuses_at_the_cap_and_readmits_after_a_release() {
        let admission = Admission {
            in_flight: AtomicUsize::new(0),
            cap: 2,
        };
        let first = admission.admit().expect("room for the first");
        let _second = admission.admit().expect("room for the second");
        match admission.admit() {
            Err(ServeError::Overloaded { depth: 2 }) => {}
            other => panic!(
                "expected Overloaded at depth 2, got {:?}",
                other.map(|_| ())
            ),
        }
        assert_eq!(admission.depth(), 2);
        drop(first);
        assert_eq!(admission.depth(), 1);
        let _third = admission.admit().expect("a release frees a place");
        assert!(admission.admit().is_err());
    }

    #[test]
    fn a_panicking_worker_lowers_the_gauge_and_wakes_shutdown() {
        let gauge = Arc::new(ConnGauge::default());
        let conn = ConnGauge::enter(&gauge);
        let (woke_tx, woke_rx) = mpsc::channel();
        let waiter = {
            let gauge = Arc::clone(&gauge);
            std::thread::spawn(move || {
                gauge.wait_zero();
                let _ = woke_tx.send(());
            })
        };
        // the waiter blocks while the connection is live
        assert!(woke_rx.recv_timeout(Duration::from_millis(50)).is_err());
        let worker = catch_unwind(AssertUnwindSafe(move || {
            let _conn = conn;
            panic!("the worker panics mid-request");
        }));
        assert!(worker.is_err());
        assert_eq!(*gauge.count.lock().unwrap(), 0);
        woke_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("the waiter is woken");
        waiter.join().unwrap();
    }

    #[test]
    fn a_panicking_answer_is_a_typed_500() {
        let (status, body, gather_ns, _) = unwind_to_internal(|| panic!("the gather panics"));
        assert_eq!((status, gather_ns), (500, None));
        assert!(body.contains("\"internal\""), "{body}");
        let (status, body, ..) = unwind_to_internal(|| (200, "{}".into(), Some(7), 1));
        assert_eq!((status, body.as_str()), (200, "{}"));
    }

    #[test]
    fn a_panicking_init_fails_start_typed() {
        let cfg = ServeConfig {
            addr: "127.0.0.1:0".into(),
            ..ServeConfig::default()
        };
        let got = Server::start(cfg, || -> Result<(FrozenModel, GraphCtx), MgError> {
            panic!("init panics")
        });
        match got {
            Err(MgError::InvalidInput { .. }) => {}
            Err(e) => panic!("expected InvalidInput, got {e}"),
            Ok(_) => panic!("a server started"),
        }
    }
}
