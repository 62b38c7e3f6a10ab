//! End-to-end tests over real loopback sockets: a trained AdamGNN
//! checkpoint served by a full [`Server`], exercised by concurrent
//! keep-alive HTTP clients.
//!
//! The load-bearing test is the bitwise-identity one: responses under
//! concurrency (many workers gathering from the one shared table) must
//! equal, byte for byte, the responses the same requests get
//! sequentially.

use mg_data::{make_node_dataset, NodeDataset, NodeDatasetKind, NodeGenConfig};
use mg_eval::{FrozenModel, NodeModelKind, SessionKind, TrainConfig, TrainSession};
use mg_nn::GraphCtx;
use mg_obs::Json;
use mg_serve::{
    ApiRequest, ApiResponse, HttpClient, LinksRequest, ModelService, NodesRequest, ServeConfig,
    Server,
};
use mg_tensor::MgError;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::{Arc, Barrier, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// The serving dataset: deterministic, so every call rebuilds the same
/// graph the checkpoint was trained on.
fn dataset() -> NodeDataset {
    make_node_dataset(
        NodeDatasetKind::Cora,
        &NodeGenConfig {
            scale: 0.08,
            max_feat_dim: 32,
            seed: 7,
        },
    )
}

/// Train the shared checkpoint once per test process.
fn checkpoint() -> PathBuf {
    static PATH: OnceLock<PathBuf> = OnceLock::new();
    PATH.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("mg_serve_e2e_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("adamgnn.mgck");
        let cfg = TrainConfig {
            epochs: 5,
            hidden: 8,
            levels: 2,
            patience: 5,
            ..Default::default()
        };
        TrainSession::new(
            SessionKind::NodeClassification(NodeModelKind::AdamGnn),
            &cfg,
        )
        .checkpoint_to(&path)
        .run(&dataset())
        .unwrap();
        path
    })
    .clone()
}

fn start(cfg: ServeConfig) -> Server {
    let path = checkpoint();
    Server::start(cfg, move || {
        let fm = FrozenModel::load(&path)?;
        let ds = dataset();
        let ctx = GraphCtx::new(ds.graph.clone(), ds.features.clone());
        Ok((fm, ctx))
    })
    .expect("server starts")
}

fn ephemeral(cfg: ServeConfig) -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".into(),
        ..cfg
    }
}

#[test]
fn healthz_and_statsz_report_identity_and_counters() {
    let server = start(ephemeral(ServeConfig::default()));
    let mut client = HttpClient::connect(server.addr()).unwrap();

    let (status, body) = client.request("GET", "/healthz", None).unwrap();
    assert_eq!(status, 200);
    let v = Json::parse(&body).unwrap();
    assert_eq!(v.get("status").unwrap().as_str(), Some("ok"));
    assert_eq!(v.get("task").unwrap().as_str(), Some("node_classification"));
    assert!(v.get("n_nodes").unwrap().as_f64().unwrap() > 0.0);

    // one real inference so the counters have something to say
    let req = NodesRequest { ids: vec![0, 1, 2] };
    let (status, _) = client
        .request("POST", "/v1/nodes", Some(&req.to_json()))
        .unwrap();
    assert_eq!(status, 200);

    let (status, body) = client.request("GET", "/statsz", None).unwrap();
    assert_eq!(status, 200);
    let v = Json::parse(&body).unwrap();
    assert_eq!(v.get("model").unwrap().as_str(), Some("AdamGNN"));
    assert!(v.get("dataset").unwrap().as_str().is_some());
    assert!(v.get("requests").unwrap().as_f64().unwrap() >= 2.0);
    assert!(v.get("flushes").is_none()); // nested under "batch"
    let batch = v.get("batch").unwrap();
    assert!(batch.get("flushes").unwrap().as_f64().unwrap() >= 1.0);
    assert!(v.get("pool_threads").unwrap().as_f64().unwrap() >= 1.0);
    server.shutdown();
}

/// The tentpole guarantee: responses are bitwise identical whether a
/// request is served alone or beside arbitrary concurrent companions.
#[test]
fn concurrent_responses_match_sequential_bitwise() {
    let n_nodes = dataset().n();
    // requests of both kinds, overlapping ids, request-order sensitive
    let nodes: Vec<String> = (0..6)
        .map(|i| {
            NodesRequest {
                ids: vec![i, (i * 31 + 5) % n_nodes, n_nodes - 1 - i],
            }
            .to_json()
        })
        .collect();
    let links: Vec<String> = (0..6)
        .map(|i| {
            LinksRequest {
                pairs: vec![(i, (i * 17 + 3) % n_nodes), (n_nodes - 1 - i, i)],
            }
            .to_json()
        })
        .collect();
    let bodies: Vec<(&'static str, String)> = nodes
        .into_iter()
        .map(|b| ("/v1/nodes", b))
        .chain(links.into_iter().map(|b| ("/v1/links", b)))
        .collect();

    // the reference is DIRECT FrozenModel serving — no server, no HTTP:
    // load the same checkpoint, answer each request alone
    let reference: Vec<String> = {
        let fm = FrozenModel::load(checkpoint()).unwrap();
        let ds = dataset();
        let svc =
            ModelService::new(fm, GraphCtx::new(ds.graph.clone(), ds.features.clone())).unwrap();
        bodies
            .iter()
            .map(|(path, body)| {
                let req = if *path == "/v1/nodes" {
                    ApiRequest::Nodes(NodesRequest::from_json(body, 4096).unwrap())
                } else {
                    ApiRequest::Links(LinksRequest::from_json(body, 4096).unwrap())
                };
                svc.handle_one(req).unwrap().to_json()
            })
            .collect()
    };

    // concurrent run: a barrier releases every client at once, so the
    // workers gather from the shared table side by side
    let server = start(ephemeral(ServeConfig::default()));
    let addr = server.addr();
    let barrier = Arc::new(Barrier::new(bodies.len()));
    let got: Arc<Mutex<Vec<(usize, String)>>> = Arc::new(Mutex::new(Vec::new()));
    let handles: Vec<_> = bodies
        .iter()
        .enumerate()
        .map(|(i, (path, body))| {
            let (path, body) = (path.to_string(), body.clone());
            let (barrier, got) = (Arc::clone(&barrier), Arc::clone(&got));
            std::thread::spawn(move || {
                let mut client = HttpClient::connect(addr).unwrap();
                for _round in 0..3 {
                    barrier.wait();
                    let (status, resp) = client.request("POST", &path, Some(&body)).unwrap();
                    assert_eq!(status, 200, "concurrent request failed: {resp}");
                    got.lock().unwrap().push((i, resp));
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    // every concurrent response is byte-identical to its reference
    let got = got.lock().unwrap();
    assert_eq!(got.len(), bodies.len() * 3);
    for (i, resp) in got.iter() {
        assert_eq!(
            resp, &reference[*i],
            "concurrent response diverged from sequential reference"
        );
    }

    // every answered request is counted as its own flush, and nothing
    // is left in flight
    let mut client = HttpClient::connect(addr).unwrap();
    let (_, body) = client.request("GET", "/statsz", None).unwrap();
    let v = Json::parse(&body).unwrap();
    let flushes = v.get("batch").and_then(|b| b.get("flushes"));
    let answered = (bodies.len() * 3) as f64;
    assert_eq!(flushes.and_then(Json::as_f64), Some(answered), "{body}");
    assert_eq!(v.get("queue_depth").and_then(Json::as_f64), Some(0.0));
    server.shutdown();
}

/// One bad request fails alone: the requests beside it get exactly the
/// gathers from an independently computed output matrix.
#[test]
fn a_bad_request_fails_alone() {
    let ds = dataset();
    let n_nodes = ds.n();
    let ctx = || GraphCtx::new(ds.graph.clone(), ds.features.clone());
    let svc = ModelService::new(FrozenModel::load(checkpoint()).unwrap(), ctx()).unwrap();
    let h = FrozenModel::load(checkpoint())
        .unwrap()
        .node_outputs(&ctx())
        .unwrap();

    let ids = vec![0, n_nodes / 2, n_nodes - 1];
    let pairs = vec![(0, n_nodes - 1), (3, 1)];
    let results: Vec<_> = [
        ApiRequest::Nodes(NodesRequest { ids: ids.clone() }),
        ApiRequest::Nodes(NodesRequest {
            ids: vec![1, n_nodes],
        }),
        ApiRequest::Links(LinksRequest {
            pairs: pairs.clone(),
        }),
    ]
    .into_iter()
    .map(|req| svc.handle_one(req))
    .collect();

    let bad = results[1].as_ref().unwrap_err();
    assert_eq!((bad.status(), bad.code()), (400, "invalid_input"), "{bad}");

    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let Ok(ApiResponse::Nodes(nodes)) = &results[0] else {
        panic!("nodes request not answered with nodes: {:?}", results[0]);
    };
    let rows = FrozenModel::embeddings_from(&h, &ids).unwrap();
    assert_eq!(nodes.embeddings.len(), rows.len());
    for (got, want) in nodes.embeddings.iter().zip(&rows) {
        assert_eq!(bits(got), bits(want));
    }
    assert_eq!(nodes.labels, FrozenModel::labels_from(&h, &ids).unwrap());
    let Ok(ApiResponse::Links(links)) = &results[2] else {
        panic!("links request not answered with links: {:?}", results[2]);
    };
    let scores = FrozenModel::link_scores_from(&h, &pairs).unwrap();
    assert_eq!(bits(&links.scores), bits(&scores));
}

/// A zero queue cap is a typed error, not a panic, and nothing binds.
#[test]
fn zero_queue_cap_fails_start_typed() {
    let cfg = ephemeral(ServeConfig {
        max_queue: 0,
        ..ServeConfig::default()
    });
    let got = Server::start(cfg, || {
        Err(MgError::Mismatch {
            detail: "init must not run".into(),
        })
    });
    match got {
        Err(MgError::InvalidInput { .. }) => {}
        Err(e) => panic!("expected InvalidInput, got {e}"),
        Ok(_) => panic!("a server started"),
    }
}

#[test]
fn malformed_and_invalid_requests_reject_typed() {
    let server = start(ephemeral(ServeConfig {
        max_items: 4,
        ..ServeConfig::default()
    }));
    let mut client = HttpClient::connect(server.addr()).unwrap();

    let expect = |client: &mut HttpClient,
                  method: &str,
                  path: &str,
                  body: Option<&str>,
                  status: u16,
                  code: &str| {
        let (got, resp) = client.request(method, path, body).unwrap();
        assert_eq!(got, status, "{method} {path}: {resp}");
        let v = Json::parse(&resp).expect("error body is JSON");
        assert_eq!(v.get("error").unwrap().as_str(), Some(code), "{resp}");
        assert!(v.get("detail").unwrap().as_str().is_some());
    };

    expect(
        &mut client,
        "POST",
        "/v1/nodes",
        Some("not json"),
        400,
        "bad_request",
    );
    expect(
        &mut client,
        "POST",
        "/v1/nodes",
        Some("{\"ids\": [1.5]}"),
        400,
        "bad_request",
    );
    expect(
        &mut client,
        "POST",
        "/v1/links",
        Some("{\"pairs\": [[0]]}"),
        400,
        "bad_request",
    );
    // parses fine, but the id does not exist in the graph
    expect(
        &mut client,
        "POST",
        "/v1/nodes",
        Some("{\"ids\": [999999]}"),
        400,
        "invalid_input",
    );
    // over the per-request item cap (max_items = 4)
    expect(
        &mut client,
        "POST",
        "/v1/nodes",
        Some("{\"ids\": [0,1,2,3,4]}"),
        400,
        "invalid_input",
    );
    expect(
        &mut client,
        "GET",
        "/v1/nodes",
        None,
        405,
        "method_not_allowed",
    );
    expect(&mut client, "POST", "/nope", None, 404, "not_found");

    // rejections never wedge the connection: a valid request still works
    let ok = NodesRequest { ids: vec![0] }.to_json();
    let (status, _) = client.request("POST", "/v1/nodes", Some(&ok)).unwrap();
    assert_eq!(status, 200);

    // an oversized payload is refused before its body is read, and the
    // connection is closed (the body was never consumed)
    let mut fat = HttpClient::connect(server.addr()).unwrap();
    let (status, resp) = fat
        .request_raw(b"POST /v1/nodes HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n")
        .unwrap();
    assert_eq!(status, 413, "{resp}");
    assert!(resp.contains("payload_too_large"));

    // unreadable HTTP is a typed 400, not a hangup
    let mut bad = HttpClient::connect(server.addr()).unwrap();
    let (status, resp) = bad.request_raw(b"GARBAGE\r\n\r\n").unwrap();
    assert_eq!(status, 400, "{resp}");
    assert!(resp.contains("bad_request"));

    server.shutdown();
}

#[test]
fn shutdown_drains_then_refuses() {
    let server = start(ephemeral(ServeConfig::default()));
    let addr = server.addr();
    let mut client = HttpClient::connect(addr).unwrap();
    let req = NodesRequest { ids: vec![0, 1] }.to_json();
    let (status, before) = client.request("POST", "/v1/nodes", Some(&req)).unwrap();
    assert_eq!(status, 200);
    server.shutdown();
    // the answer delivered before shutdown stays intact and complete
    assert!(before.contains("\"labels\""));
    // after shutdown nothing is listening
    assert!(HttpClient::connect(addr).is_err());
}

/// A keep-alive client that sits idle between requests does not hold
/// shutdown for the idle timeout: its worker is released at once.
#[test]
fn shutdown_releases_an_idle_keep_alive_connection() {
    let server = start(ephemeral(ServeConfig::default()));
    let mut client = HttpClient::connect(server.addr()).unwrap();
    let (status, _) = client.request("GET", "/healthz", None).unwrap();
    assert_eq!(status, 200);
    let timer = Instant::now();
    server.shutdown();
    let took = timer.elapsed();
    assert!(took < Duration::from_secs(1), "shutdown took {took:?}");
}

/// A request the server has begun reading when shutdown starts is still
/// answered, and shutdown waits for that answer.
#[test]
fn shutdown_answers_a_request_being_read() {
    let server = start(ephemeral(ServeConfig::default()));
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    let body = NodesRequest { ids: vec![0, 1] }.to_json();
    let head = format!(
        "POST /v1/nodes HTTP/1.1\r\nContent-Length: {}\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).unwrap();
    // let the worker take the first bytes, so it is reading, not idle
    std::thread::sleep(Duration::from_millis(200));
    let shutdown = std::thread::spawn(move || server.shutdown());
    std::thread::sleep(Duration::from_millis(200));
    assert!(!shutdown.is_finished(), "shutdown must wait for the answer");
    stream.write_all(format!("\r\n{body}").as_bytes()).unwrap();
    let mut resp = String::new();
    stream.read_to_string(&mut resp).unwrap();
    assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
    assert!(resp.contains("\"labels\""), "{resp}");
    shutdown.join().unwrap();
}
