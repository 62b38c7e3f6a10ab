//! Telemetry e2e: a served request stream emits one valid mg-obs
//! `serve` record per request, and the trace passes `validate_trace`.
//!
//! Lives in its own test binary because it mutates the process-global
//! `MG_TRACE` environment variable (same isolation convention as
//! mg-eval's `obs_emission` suite).

use mg_data::{make_node_dataset, NodeDatasetKind, NodeGenConfig};
use mg_eval::{FrozenModel, NodeModelKind, SessionKind, TrainConfig, TrainSession};
use mg_nn::GraphCtx;
use mg_obs::validate_trace;
use mg_serve::{HttpClient, NodesRequest, ServeConfig, Server};

#[test]
fn served_requests_emit_a_valid_trace() {
    let dir = std::env::temp_dir().join(format!("mg_serve_trace_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let ds = make_node_dataset(
        NodeDatasetKind::Cora,
        &NodeGenConfig {
            scale: 0.08,
            max_feat_dim: 32,
            seed: 7,
        },
    );
    let ckpt = dir.join("adamgnn.mgck");
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
    .checkpoint_to(&ckpt)
    .run(&ds)
    .unwrap();

    let trace_path = dir.join("serve_trace.jsonl");
    std::env::set_var("MG_TRACE", &trace_path);
    let server = Server::start(
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            ..ServeConfig::default()
        },
        move || {
            let fm = FrozenModel::load(&ckpt)?;
            let ctx = GraphCtx::new(ds.graph.clone(), ds.features.clone());
            Ok((fm, ctx))
        },
    )
    .unwrap();
    std::env::remove_var("MG_TRACE");

    let mut client = HttpClient::connect(server.addr()).unwrap();
    let good = NodesRequest { ids: vec![0, 1] }.to_json();
    for _ in 0..3 {
        let (status, _) = client.request("POST", "/v1/nodes", Some(&good)).unwrap();
        assert_eq!(status, 200);
    }
    // rejected requests are traced too, with their status
    let (status, _) = client
        .request("POST", "/v1/nodes", Some("not json"))
        .unwrap();
    assert_eq!(status, 400);
    let (status, _) = client.request("GET", "/healthz", None).unwrap();
    assert_eq!(status, 200);
    // shutdown joins the telemetry thread, so the file is complete
    server.shutdown();

    let text = std::fs::read_to_string(&trace_path).expect("trace file written");
    let report = validate_trace(&text).expect("trace validates");
    assert_eq!(report.serves, 5, "one serve record per request:\n{text}");
    // spot-check record contents beyond schema validity
    let mut saw_400 = false;
    let mut answered = 0;
    for line in text.lines() {
        let v = mg_obs::Json::parse(line).unwrap();
        assert_eq!(v.get("kind").unwrap().as_str(), Some("serve"));
        assert_eq!(v.get("task").unwrap().as_str(), Some("serve"));
        let status = v.get("status").unwrap().as_f64().unwrap() as u16;
        saw_400 |= status == 400;
        if status == 200 && v.get("endpoint").unwrap().as_str() == Some("/v1/nodes") {
            let gather_ns = v.get("forward_ns").unwrap().as_f64().unwrap();
            assert!(
                gather_ns > 0.0,
                "an answered request records its gather time: {line}"
            );
            answered += 1;
        }
    }
    saw_400.then_some(()).expect("the rejection was traced");
    assert_eq!(answered, 3, "every answered request was traced:\n{text}");
    std::fs::remove_dir_all(&dir).ok();
}
