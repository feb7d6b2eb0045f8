//! Tests of the typed protocol layer over a live server: the
//! `Client::create` / `Client::session` API, the `"proto"` version field,
//! and the measure-override and deadline requests through the session
//! handle.

use dcs_core::DensityMeasure;
use dcs_server::{
    Client, CreateSessionRequest, JobBounds, Server, ServerConfig, ServerError, PROTO_VERSION,
};
use serde_json::json;

fn start_server() -> dcs_server::ServerHandle {
    Server::bind("127.0.0.1:0", ServerConfig::default())
        .expect("bind ephemeral port")
        .start()
}

/// The full session lifecycle through `SessionHandle` methods only.
#[test]
fn session_handle_round_trip() {
    let handle = start_server();
    let mut client = Client::connect(handle.local_addr()).unwrap();
    client
        .create(CreateSessionRequest {
            session: "typed".into(),
            vertices: Some(16),
            ..Default::default()
        })
        .unwrap();

    let mut session = client.session("typed");
    assert_eq!(session.name(), "typed");
    let ring: Vec<(u32, u32, f64)> = (0..16u32).map(|v| (v, (v + 1) % 16, 1.0)).collect();
    let loaded = session.load_baseline(&ring).unwrap();
    assert_eq!(loaded["baseline_edges"], 16);

    let observed = session
        .observe(&[(0, 1, 4.0), (1, 2, 4.0), (0, 2, 4.0)])
        .unwrap();
    assert_eq!(observed["applied"], 3);
    assert_eq!(observed["version"], 4);

    let mined = session.mine().unwrap();
    assert_eq!(mined["result"]["subset"], json!([0, 1, 2]));

    let ranked = session.topk(2).unwrap();
    assert!(ranked["results"].as_array().is_some());
    let swept = session.sweep(Some(&[0.5, 1.0])).unwrap();
    assert_eq!(swept["points"].as_array().unwrap().len(), 2);

    let stats = session.stats().unwrap();
    assert_eq!(stats["version"], 4);
    assert_eq!(stats["durable"], false);

    let dropped = session.drop_session().unwrap();
    assert_eq!(dropped["dropped"], true);
    assert!(client.list_sessions().unwrap()["sessions"]
        .as_array()
        .unwrap()
        .is_empty());
    client.shutdown().unwrap();
    handle.join();
}

/// Every response carries the additive `"proto"` field; clients declaring
/// the current version are accepted and unknown versions get a structured
/// error naming both sides.
#[test]
fn proto_version_is_stamped_and_checked() {
    let handle = start_server();
    let mut client = Client::connect(handle.local_addr()).unwrap();

    let pong = client.ping().unwrap();
    assert_eq!(pong["proto"].as_u64(), Some(PROTO_VERSION));

    // Declaring the spoken version is accepted and echoed.
    let accepted = client
        .request(json!({ "cmd": "ping", "proto": 1 }))
        .unwrap();
    assert_eq!(accepted["pong"], true);
    assert_eq!(accepted["proto"].as_u64(), Some(PROTO_VERSION));

    // An unknown major version is rejected with a structured error.
    let rejected = client
        .request(json!({ "cmd": "ping", "proto": 2 }))
        .unwrap_err();
    assert!(matches!(rejected, ServerError::Remote(ref msg)
        if msg == "unsupported proto 2 (server speaks proto 1)"));

    // A malformed declaration is a bad request, not a crash.
    let malformed = client
        .request(json!({ "cmd": "ping", "proto": "one" }))
        .unwrap_err();
    assert!(matches!(malformed, ServerError::Remote(ref msg)
        if msg == "bad request: field \"proto\" must be a non-negative integer"));

    // Errors are stamped too.
    let mut raw = Client::connect(handle.local_addr()).unwrap();
    let error = raw.request(json!({ "cmd": "stats", "session": "ghost" }));
    assert!(error.is_err());
    client.shutdown().unwrap();
    handle.join();
}

/// A measure override and a wall-clock deadline go through the session
/// handle's `mine_with` and `mine_bounded`.
#[test]
fn legacy_wrappers_still_work() {
    let handle = start_server();
    let mut client = Client::connect(handle.local_addr()).unwrap();
    client
        .create(CreateSessionRequest {
            session: "legacy".into(),
            vertices: Some(8),
            measure: Some(DensityMeasure::GraphAffinity),
            ..Default::default()
        })
        .unwrap();
    let mut legacy = client.session("legacy");
    legacy.load_baseline(&[(0, 1, 1.0), (1, 2, 1.0)]).unwrap();
    let observed = legacy.observe(&[(0, 1, 3.0)]).unwrap();
    assert_eq!(observed["applied"], 1);
    let mined = legacy.mine().unwrap();
    assert_eq!(mined["ok"], true);
    let with_measure = legacy
        .mine_with(DensityMeasure::AverageDegree, JobBounds::default())
        .unwrap();
    assert_eq!(with_measure["ok"], true);
    assert_eq!(with_measure["cached"], false);
    let deadline = legacy
        .mine_bounded(JobBounds {
            deadline_ms: Some(10_000),
            ..JobBounds::default()
        })
        .unwrap();
    assert_eq!(deadline["ok"], true);
    assert_eq!(legacy.stats().unwrap()["vertices"], 8);
    legacy.drop_session().unwrap();
    client.shutdown().unwrap();
    handle.join();
}
