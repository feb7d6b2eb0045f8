//! Integration tests for the engine-backed job bounds: per-job deadlines,
//! the `cancel` protocol command, and cancel-on-disconnect.

use std::time::{Duration, Instant};

use dcs_core::DensityMeasure;
use dcs_server::{Client, CreateSessionRequest, JobBounds, Server, ServerConfig, ServerHandle};
use serde_json::json;

fn spawn(worker_threads: usize) -> (ServerHandle, String) {
    let config = ServerConfig {
        worker_threads,
        queue_capacity: 8,
        max_vertices: 1_000_000,
        max_job_ms: Some(300_000),
        ..ServerConfig::default()
    };
    let handle = Server::bind("127.0.0.1:0", config).unwrap().start();
    let addr = handle.local_addr().to_string();
    (handle, addr)
}

/// Deterministic splitmix64 for reproducible synthetic workloads.
fn rng_next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// A `create_session` for a degree-measure session of `vertices` vertices.
fn degree_session(name: &str, vertices: u64) -> CreateSessionRequest {
    CreateSessionRequest {
        session: name.into(),
        vertices: Some(vertices),
        measure: Some(DensityMeasure::AverageDegree),
        ..Default::default()
    }
}

/// Creates a degree-measure session with `edges` random observed edges.
fn seed_session(client: &mut Client, name: &str, vertices: u64, edges: usize) {
    client.create(degree_session(name, vertices)).unwrap();
    let mut state = 0x5eed_u64;
    let mut updates = Vec::with_capacity(edges);
    while updates.len() < edges {
        let u = (rng_next(&mut state) % vertices) as u32;
        let v = (rng_next(&mut state) % vertices) as u32;
        if u != v {
            let w = 1.0 + (rng_next(&mut state) % 100) as f64 / 25.0;
            updates.push((u, v, w));
        }
    }
    client.session(name).observe(&updates).unwrap();
}

#[test]
fn deadline_returns_best_so_far_instead_of_blocking() {
    let (handle, addr) = spawn(2);
    let mut client = Client::connect(&addr).unwrap();
    seed_session(&mut client, "dl", 500, 3_000);

    // An already-expired deadline: the solver stops at its first checkpoint and
    // still answers with a valid best-so-far result.
    let mined = client
        .session("dl")
        .mine_bounded(JobBounds {
            deadline_ms: Some(0),
            ..JobBounds::default()
        })
        .unwrap();
    assert_eq!(mined["termination"], "deadline");
    assert_eq!(mined["result"]["stats"]["termination"], "deadline");
    assert!(mined["result"]["subset"].as_array().is_some());
    assert_eq!(mined["cached"], false);

    // Truncated results are never cached: the same query converges afresh.
    let converged = client.session("dl").mine().unwrap();
    assert_eq!(converged["cached"], false);
    assert_eq!(converged["termination"], "converged");
    assert!(converged["result"]["stats"]["iterations"].as_u64().unwrap() > 0);
    // ... and the converged result IS cached for the next identical query.
    assert_eq!(client.session("dl").mine().unwrap()["cached"], true);

    // topk and sweep honour deadlines too.
    let topk = client
        .request(json!({ "cmd": "topk", "session": "dl", "k": 3, "deadline_ms": 0 }))
        .unwrap();
    assert_eq!(topk["termination"], "deadline");
    assert_eq!(topk["stats"]["termination"], "deadline");
    let sweep = client
        .request(json!({
            "cmd": "sweep", "session": "dl", "alphas": [0.0, 1.0], "deadline_ms": 0,
        }))
        .unwrap();
    assert_eq!(sweep["termination"], "deadline");

    client.shutdown().unwrap();
    handle.join();
}

#[test]
fn budget_bounds_the_work_of_a_job() {
    let (handle, addr) = spawn(2);
    let mut client = Client::connect(&addr).unwrap();
    seed_session(&mut client, "bg", 400, 2_000);

    let bounded = client
        .request(json!({ "cmd": "mine", "session": "bg", "budget": 10 }))
        .unwrap();
    assert_eq!(bounded["termination"], "budget_exhausted");
    let iterations = bounded["result"]["stats"]["iterations"].as_u64().unwrap();
    // The meter stops at the tick that trips the budget and post-verdict ticks are
    // not recorded; one peel tick is 1 unit, so the count never exceeds the budget.
    assert!(
        iterations <= 10,
        "iterations {iterations} exceed the budget"
    );

    client.shutdown().unwrap();
    handle.join();
}

#[test]
fn server_job_cap_applies_without_a_client_deadline() {
    // max_job_ms is the hard anti-wedge guarantee: with a zero cap, even a plain
    // mine (no deadline_ms) comes back truncated instead of running freely.
    let config = ServerConfig {
        worker_threads: 1,
        queue_capacity: 4,
        max_vertices: 1_000_000,
        max_job_ms: Some(0),
        ..ServerConfig::default()
    };
    let handle = Server::bind("127.0.0.1:0", config).unwrap().start();
    let addr = handle.local_addr().to_string();
    let mut client = Client::connect(&addr).unwrap();
    seed_session(&mut client, "cap", 400, 2_000);
    let mined = client.session("cap").mine().unwrap();
    assert_eq!(mined["termination"], "deadline");
    client.shutdown().unwrap();
    handle.join();
}

#[test]
fn cancel_command_aborts_an_inflight_job() {
    let (handle, addr) = spawn(2);
    let mut client = Client::connect(&addr).unwrap();
    // A large-enough instance that an uncancelled sweep over a huge α grid runs
    // for many seconds — the cancel must land mid-job.
    seed_session(&mut client, "cc", 3_000, 30_000);

    let alphas: Vec<f64> = (0..4_000).map(|i| i as f64 / 1_000.0).collect();
    let worker = std::thread::spawn({
        let addr = addr.clone();
        move || {
            let mut submitter = Client::connect(&addr).unwrap();
            submitter
                .request(json!({
                    "cmd": "sweep",
                    "session": "cc",
                    "alphas": alphas,
                    "job": "long-sweep",
                }))
                .unwrap()
        }
    });

    // Give the submission time to register and start mining, then cancel from a
    // different connection.
    std::thread::sleep(Duration::from_millis(300));
    let cancelled = client.cancel("long-sweep").unwrap();
    assert_eq!(cancelled["cancelled"], true);

    let response = worker.join().unwrap();
    assert_eq!(response["termination"], "cancelled");
    assert_eq!(response["stats"]["termination"], "cancelled");
    // Best-so-far: whatever grid prefix completed is reported.
    assert!(response["points"].as_array().is_some());

    // The job id is free again once the job completed.
    assert_eq!(client.cancel("long-sweep").unwrap()["cancelled"], false);

    client.shutdown().unwrap();
    handle.join();
}

#[test]
fn disconnect_cancels_the_inflight_job() {
    // One worker: a wedged job would serialise everything behind it.
    let (handle, addr) = spawn(1);
    let mut client = Client::connect(&addr).unwrap();
    seed_session(&mut client, "dc", 3_000, 30_000);
    client.create(degree_session("small", 10)).unwrap();
    client
        .session("small")
        .observe(&[(0, 1, 5.0), (1, 2, 4.0)])
        .unwrap();

    // Submit an hours-long sweep from a throwaway connection and drop it
    // without reading the response.
    {
        use std::io::Write;
        let mut stream = std::net::TcpStream::connect(&addr).unwrap();
        let alphas: Vec<f64> = (0..100_000).map(|i| i as f64 / 10_000.0).collect();
        let request = serde_json::to_string(&json!({
            "cmd": "sweep", "session": "dc", "alphas": alphas,
        }))
        .unwrap();
        stream.write_all(request.as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
        // Let the job reach the worker before disconnecting.
        std::thread::sleep(Duration::from_millis(300));
    } // <- dropped: the server should cancel the in-flight sweep

    // With cancel-on-disconnect the single worker frees up almost immediately;
    // without it this mine would sit behind hours of abandoned sweeping.
    let started = Instant::now();
    let mined = client.session("small").mine().unwrap();
    assert_eq!(mined["result"]["subset"], json!([0, 1, 2]));
    assert!(
        started.elapsed() < Duration::from_secs(20),
        "abandoned job wedged the worker for {:?}",
        started.elapsed()
    );

    client.shutdown().unwrap();
    handle.join();
}
