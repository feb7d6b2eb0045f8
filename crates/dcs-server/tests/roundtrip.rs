//! End-to-end tests of the mining service: a real server on an ephemeral
//! port, concurrent clients streaming observation batches, and a full
//! observe → mine → alert round trip with cache semantics.

use dcs_core::DensityMeasure;
use dcs_server::{Client, CreateSessionRequest, Server, ServerConfig, ServerError};
use serde_json::json;

fn start_server() -> dcs_server::ServerHandle {
    Server::bind("127.0.0.1:0", ServerConfig::default())
        .expect("bind ephemeral port")
        .start()
}

/// A `create_session` for a memory-backed session of `vertices` vertices.
fn memory(session: &str, vertices: u64) -> CreateSessionRequest {
    CreateSessionRequest {
        session: session.into(),
        vertices: Some(vertices),
        ..Default::default()
    }
}

/// A `create_session` whose baseline is the pack at `path`.
fn packed(session: &str, path: &str) -> CreateSessionRequest {
    CreateSessionRequest {
        session: session.into(),
        pack: Some(path.into()),
        ..Default::default()
    }
}

/// The acceptance scenario: create a session, load a baseline, stream ≥ 100
/// observation batches from two concurrent clients, mine the correct DCS,
/// observe a triggered alert, and get the repeat mine served from the cache.
#[test]
fn concurrent_observe_mine_alert_round_trip() {
    let handle = start_server();
    let addr = handle.local_addr();

    let mut control = Client::connect(addr).expect("connect control client");
    control
        .create(CreateSessionRequest {
            alert_threshold: 5.0,
            measure: Some(DensityMeasure::GraphAffinity),
            ..memory("traffic", 64)
        })
        .unwrap();

    // Baseline: a ring of expected strength 1 over all 64 vertices.
    let ring: Vec<(u32, u32, f64)> = (0..64u32).map(|v| (v, (v + 1) % 64, 1.0)).collect();
    let loaded = control.session("traffic").load_baseline(&ring).unwrap();
    assert_eq!(loaded["baseline_edges"], 64);

    // Two concurrent clients each stream 60 observation batches (120 total):
    // client A replays quiet ring traffic, client B grows a hot triangle
    // among {3, 4, 5}.
    let writer = |role: usize| {
        let mut client = Client::connect(addr).expect("connect writer");
        let mut applied = 0u64;
        for batch in 0..60u32 {
            let updates: Vec<(u32, u32, f64)> = if role == 0 {
                let v = batch % 64;
                vec![(v, (v + 1) % 64, 0.02), ((v + 7) % 64, (v + 8) % 64, 0.015)]
            } else {
                vec![(3, 4, 0.35), (4, 5, 0.35), (3, 5, 0.35)]
            };
            let response = client.session("traffic").observe(&updates).unwrap();
            assert_eq!(response["ok"], true);
            applied += response["applied"].as_u64().unwrap();
            assert_eq!(response["ignored"], 0);
        }
        applied
    };
    let totals: Vec<u64> = std::thread::scope(|scope| {
        let a = scope.spawn(|| writer(0));
        let b = scope.spawn(|| writer(1));
        vec![a.join().unwrap(), b.join().unwrap()]
    });
    assert_eq!(totals[0], 120);
    assert_eq!(totals[1], 180);

    let stats = control.session("traffic").stats().unwrap();
    assert_eq!(stats["observations"], 300);
    // 300 observations on top of version 1 (the baseline load advanced the
    // session version from 0).
    assert_eq!(stats["version"], 301);

    // Mine: the hot triangle must be the DCS, and with weights ~0.35·60 = 21
    // per edge against a baseline of ~1, the affinity contrast (~14) clears
    // the alert threshold of 5.
    let mined = control.session("traffic").mine().unwrap();
    assert_eq!(mined["cached"], false);
    assert_eq!(mined["result"]["subset"], json!([3, 4, 5]));
    assert_eq!(mined["result"]["triggered"], true);
    assert_eq!(mined["result"]["is_positive_clique"], true);
    assert!(mined["result"]["density_difference"].as_f64().unwrap() > 5.0);

    // Unchanged session: the repeat mine is served from the cache — also for
    // a different client connection (the cache is per session, not per
    // connection).
    let again = control.session("traffic").mine().unwrap();
    assert_eq!(again["cached"], true);
    assert_eq!(again["result"]["subset"], json!([3, 4, 5]));
    let mut other = Client::connect(addr).unwrap();
    assert_eq!(other.session("traffic").mine().unwrap()["cached"], true);

    // One more observation invalidates the cache.
    control
        .session("traffic")
        .observe(&[(10, 11, 0.2)])
        .unwrap();
    let after = control.session("traffic").mine().unwrap();
    assert_eq!(after["cached"], false);
    assert_eq!(after["result"]["subset"], json!([3, 4, 5]));

    let cache_stats = control.session("traffic").stats().unwrap();
    assert!(cache_stats["cache"]["hits"].as_u64().unwrap() >= 2);

    control.shutdown().unwrap();
    handle.join();
}

#[test]
fn topk_sweep_and_stats_over_the_wire() {
    let handle = start_server();
    let mut client = Client::connect(handle.local_addr()).unwrap();

    client
        .create(CreateSessionRequest {
            measure: Some(DensityMeasure::GraphAffinity),
            ..memory("s", 12)
        })
        .unwrap();
    let mut s = client.session("s");
    s.load_baseline(&[(0, 1, 1.0)]).unwrap();
    // Two disjoint hot groups of different strength.
    s.observe(&[
        (0, 1, 9.0),
        (0, 2, 8.0),
        (1, 2, 8.0),
        (5, 6, 4.0),
        (6, 7, 4.0),
        (5, 7, 4.0),
    ])
    .unwrap();

    let topk = s.topk(3).unwrap();
    let results = topk["results"].as_array().unwrap();
    assert_eq!(results.len(), 2);
    assert_eq!(results[0]["rank"], 1);
    assert_eq!(results[0]["subset"], json!([0, 1, 2]));
    assert_eq!(results[1]["subset"], json!([5, 6, 7]));
    assert!(results[0]["objective"].as_f64().unwrap() >= results[1]["objective"].as_f64().unwrap());
    // Identical top-k: cached.
    assert_eq!(s.topk(3).unwrap()["cached"], true);
    // Different k: its own cache entry.
    assert_eq!(s.topk(1).unwrap()["cached"], false);

    let sweep = s.sweep(Some(&[0.0, 1.0, 2.0])).unwrap();
    let points = sweep["points"].as_array().unwrap();
    assert_eq!(points.len(), 3);
    assert_eq!(points[0]["alpha"], 0);
    // The α-scaled objective is non-increasing in α.
    let objectives: Vec<f64> = points
        .iter()
        .map(|p| p["objective"].as_f64().unwrap())
        .collect();
    assert!(objectives[0] >= objectives[1] - 1e-9);
    assert!(objectives[1] >= objectives[2] - 1e-9);

    let server_stats = client.server_stats().unwrap();
    assert_eq!(server_stats["sessions"], 1);
    assert!(server_stats["jobs_executed"].as_u64().unwrap() >= 3);

    client.shutdown().unwrap();
    handle.join();
}

#[test]
fn pack_backed_sessions_over_the_wire() {
    // The same baseline ring, once as a pack file and once uploaded as
    // protocol edges: both sessions must mine the same contrast subgraph,
    // and the pack session must report its backing in stats.
    let ring: Vec<(u32, u32, f64)> = (0..32u32).map(|v| (v, (v + 1) % 32, 1.0)).collect();
    let mut builder = dcs_graph::GraphBuilder::new(32);
    builder.add_edges(ring.iter().copied());
    let baseline = builder.build();
    let pack_path =
        std::env::temp_dir().join(format!("dcs_server_roundtrip_{}.pack", std::process::id()));
    dcs_graph::PackWriter::write_graph(&baseline, &pack_path).unwrap();

    let handle = start_server();
    let mut client = Client::connect(handle.local_addr()).unwrap();

    let affinity = Some(DensityMeasure::GraphAffinity);
    let created = client
        .create(CreateSessionRequest {
            measure: affinity,
            ..packed("packed", pack_path.to_str().unwrap())
        })
        .unwrap();
    assert_eq!(created["vertices"], 32);
    assert_eq!(created["backing"], "pack");

    client
        .create(CreateSessionRequest {
            measure: affinity,
            ..memory("memory", 32)
        })
        .unwrap();
    client.session("memory").load_baseline(&ring).unwrap();

    let hot = [(3u32, 4u32, 6.0f64), (4, 5, 6.0), (3, 5, 6.0)];
    client.session("packed").observe(&hot).unwrap();
    client.session("memory").observe(&hot).unwrap();

    let from_pack = client.session("packed").mine().unwrap();
    let from_memory = client.session("memory").mine().unwrap();
    assert_eq!(from_pack["result"]["subset"], json!([3, 4, 5]));
    assert_eq!(
        from_pack["result"]["subset"],
        from_memory["result"]["subset"]
    );
    assert_eq!(
        from_pack["result"]["affinity_difference"],
        from_memory["result"]["affinity_difference"]
    );

    let stats = client.session("packed").stats().unwrap();
    assert_eq!(stats["backing"], "pack");
    assert_eq!(stats["baseline_edges"], 32);
    assert!(stats["pack_open_ms"].as_f64().unwrap() >= 0.0);
    assert_eq!(
        client.session("memory").stats().unwrap()["backing"],
        "memory"
    );
    assert_eq!(
        client.session("memory").stats().unwrap()["pack_open_ms"],
        json!(null)
    );

    // Declared vertex counts are cross-checked against the pack header.
    assert!(matches!(
        client.request(json!({
            "cmd": "create_session",
            "session": "mismatch",
            "pack": pack_path.to_str().unwrap(),
            "vertices": 7,
        })),
        Err(ServerError::Remote(_))
    ));
    // A missing pack file is a clean error, not a wedged session.
    assert!(matches!(
        client.create(packed("ghost", "/nonexistent.pack")),
        Err(ServerError::Remote(_))
    ));
    assert_eq!(
        client.list_sessions().unwrap()["sessions"],
        json!(["memory", "packed"])
    );

    client.shutdown().unwrap();
    handle.join();
    std::fs::remove_file(&pack_path).ok();
}

#[test]
fn observe_with_cadence_raises_alerts_over_the_wire() {
    let handle = start_server();
    let mut client = Client::connect(handle.local_addr()).unwrap();
    client
        .create(CreateSessionRequest {
            remine_every: 3,
            alert_threshold: 2.0,
            ..memory("cadence", 16)
        })
        .unwrap();

    // Three strong updates complete one re-mining period: the response
    // carries a triggered alert inline, without an explicit mine command.
    let response = client
        .session("cadence")
        .observe(&[(0, 1, 9.0), (0, 2, 9.0), (1, 2, 9.0)])
        .unwrap();
    let alerts = response["alerts"].as_array().unwrap();
    assert_eq!(alerts.len(), 1);
    assert_eq!(alerts[0]["triggered"], true);
    assert_eq!(alerts[0]["subset"], json!([0, 1, 2]));
    assert_eq!(alerts[0]["observations"], 3);

    client.shutdown().unwrap();
    handle.join();
}

#[test]
fn session_management_and_errors_over_the_wire() {
    let handle = start_server();
    let mut client = Client::connect(handle.local_addr()).unwrap();

    // Unknown session and bad requests surface as remote errors.
    assert!(matches!(
        client.session("nope").mine(),
        Err(ServerError::Remote(_))
    ));
    assert!(matches!(
        client.request(json!({ "cmd": "frobnicate" })),
        Err(ServerError::Remote(_))
    ));
    assert!(matches!(
        client.request(json!({ "cmd": "create_session", "session": "x" })),
        Err(ServerError::Remote(_))
    ));

    client.create(memory("a", 4)).unwrap();
    client.create(memory("b", 4)).unwrap();
    assert!(matches!(
        client.create(memory("a", 4)),
        Err(ServerError::Remote(_))
    ));
    assert_eq!(
        client.list_sessions().unwrap()["sessions"],
        json!(["a", "b"])
    );
    client.session("a").drop_session().unwrap();
    assert_eq!(client.list_sessions().unwrap()["sessions"], json!(["b"]));

    // Request ids are echoed.
    let response = client
        .request(json!({ "cmd": "ping", "id": "req-7" }))
        .unwrap();
    assert_eq!(response["id"], "req-7");

    // `stats` without a session returns the server-wide payload; with an
    // unknown session it still fails.
    let server_stats = client.request(json!({ "cmd": "stats" })).unwrap();
    assert_eq!(server_stats["sessions"], 1);
    assert!(server_stats["queue"]["capacity"].as_u64().unwrap() > 0);
    let err = client.request(json!({ "cmd": "stats", "session": "nope" }));
    assert!(err.is_err(), "stats on an unknown session must fail");
    assert!(client.ping().is_ok(), "connection survives errors");

    client.shutdown().unwrap();
    handle.join();
}
