//! Integration test of the server-wide `stats` observability surface: a real
//! server, real mining jobs, and assertions that every advertised counter —
//! queue depth, cache hit rate, termination counts, per-kind / per-measure
//! latency percentiles — advances with the workload that feeds it.

use dcs_core::DensityMeasure;
use dcs_server::{Client, CreateSessionRequest, Server, ServerConfig};
use serde_json::json;

#[test]
fn stats_surface_tracks_jobs_cache_and_terminations() {
    let handle = Server::bind("127.0.0.1:0", ServerConfig::default())
        .unwrap()
        .start();
    let mut client = Client::connect(handle.local_addr()).unwrap();

    // Fresh server: no jobs, no cache traffic, an empty queue.
    let before = client.request(json!({ "cmd": "stats" })).unwrap();
    assert_eq!(before["sessions"], 0);
    assert_eq!(before["jobs"]["completed"], 0);
    assert_eq!(before["queue"]["depth"], 0);
    assert_eq!(before["queue"]["inflight"], 0);
    assert_eq!(before["cache"]["hits"], 0);
    let base_requests = before["requests"]["total"].as_u64().unwrap();
    assert!(base_requests >= 1, "the stats request itself is counted");

    client
        .create(CreateSessionRequest {
            session: "obs".into(),
            vertices: Some(32),
            measure: Some(DensityMeasure::GraphAffinity),
            ..Default::default()
        })
        .unwrap();
    let mut obs = client.session("obs");
    obs.load_baseline(&[(0, 1, 1.0)]).unwrap();
    obs.observe(&[(0, 1, 5.0), (0, 2, 4.0), (1, 2, 4.0)])
        .unwrap();

    // Four mining jobs with known outcomes: a converged affinity solve, a
    // cache hit of the same spec, and two degree solves whose bounds trip
    // deterministically (one-unit budget, already-expired deadline).  The
    // bounded jobs use the degree measure so they cannot hit the converged
    // affinity cache entry.
    let solved = obs.mine().unwrap();
    assert_eq!(solved["cached"], false);
    assert_eq!(solved["termination"], "converged");
    let hit = obs.mine().unwrap();
    assert_eq!(hit["cached"], true);
    let budgeted = client
        .request(json!({
            "cmd": "mine", "session": "obs", "measure": "degree", "budget": 1,
        }))
        .unwrap();
    assert_eq!(budgeted["termination"], "budget_exhausted");
    let expired = client
        .request(json!({
            "cmd": "mine", "session": "obs", "measure": "degree", "deadline_ms": 0,
        }))
        .unwrap();
    assert_eq!(expired["termination"], "deadline");

    // An error advances the error counter; cancelling an unknown job is a
    // successful request that cancels nothing.
    assert!(client
        .request(json!({ "cmd": "mine", "session": "nope" }))
        .is_err());
    let cancel = client
        .request(json!({ "cmd": "cancel", "job": "ghost" }))
        .unwrap();
    assert_eq!(cancel["cancelled"], false);

    let stats = client.request(json!({ "cmd": "stats" })).unwrap();
    assert_eq!(stats["sessions"], 1);

    // Jobs: four completed, one of them from the cache.
    assert_eq!(stats["jobs"]["completed"], 4);
    assert_eq!(stats["jobs"]["cached"], 1);
    assert_eq!(stats["jobs"]["inflight_named"], 0);

    // Terminations: one per solved job; the cache hit counts in none.
    assert_eq!(stats["terminations"]["converged"], 1);
    assert_eq!(stats["terminations"]["budget_exhausted"], 1);
    assert_eq!(stats["terminations"]["deadline"], 1);
    assert_eq!(stats["terminations"]["cancelled"], 0);

    // Latency percentiles come from the three solved jobs (cache hits are
    // excluded so sub-millisecond lookups don't drown the solve distribution).
    let mine = &stats["jobs"]["wall_us_by_kind"]["mine"];
    assert_eq!(mine["count"], 3);
    let p50 = mine["p50_us"].as_u64().unwrap();
    let p95 = mine["p95_us"].as_u64().unwrap();
    let p99 = mine["p99_us"].as_u64().unwrap();
    assert!(
        p50 > 0 && p50 <= p95 && p95 <= p99,
        "p50={p50} p95={p95} p99={p99}"
    );
    assert!(mine["max_us"].as_u64().unwrap() > 0);
    assert!(mine["mean_us"].as_f64().unwrap() > 0.0);
    assert_eq!(stats["jobs"]["wall_us_by_kind"]["topk"]["count"], 0);
    assert_eq!(stats["jobs"]["wall_us_by_measure"]["affinity"]["count"], 1);
    assert_eq!(stats["jobs"]["wall_us_by_measure"]["degree"]["count"], 2);

    // Queue: all four jobs passed through the bounded queue and drained.
    assert_eq!(stats["queue"]["depth"], 0);
    assert_eq!(stats["queue"]["inflight"], 0);
    assert_eq!(stats["queue"]["executed"], 4);
    assert_eq!(stats["queue"]["rejected"], 0);
    assert!(stats["queue"]["capacity"].as_u64().unwrap() > 0);
    assert!(stats["queue"]["workers"].as_u64().unwrap() > 0);
    assert_eq!(stats["queue"]["wait_us"]["count"], 4);

    // Cache: one hit, three misses (the bounded jobs look up, miss, and are
    // never stored because they did not converge).
    assert_eq!(stats["cache"]["hits"], 1);
    assert_eq!(stats["cache"]["misses"], 3);
    assert_eq!(stats["cache"]["evictions"], 0);
    let hit_rate = stats["cache"]["hit_rate"].as_f64().unwrap();
    assert!((hit_rate - 0.25).abs() < 1e-9, "hit_rate={hit_rate}");

    // Request and observe counters.
    assert!(stats["requests"]["total"].as_u64().unwrap() > base_requests);
    assert!(stats["requests"]["errors"].as_u64().unwrap() >= 1);
    assert_eq!(stats["observes"]["batches"], 1);
    assert_eq!(stats["observes"]["updates"], 3);
    assert!(stats["observes"]["per_sec"].as_f64().unwrap() >= 0.0);
    assert!(stats["uptime_ms"].as_u64().is_some());

    client.shutdown().unwrap();
    handle.join();
}

/// The per-session `stats` shape stays intact alongside the server-wide one,
/// and surfaces the cache eviction counter.
#[test]
fn per_session_stats_still_carry_cache_counters() {
    let handle = Server::bind("127.0.0.1:0", ServerConfig::default())
        .unwrap()
        .start();
    let mut client = Client::connect(handle.local_addr()).unwrap();

    client
        .create(CreateSessionRequest {
            session: "s".into(),
            vertices: Some(8),
            ..Default::default()
        })
        .unwrap();
    let mut s = client.session("s");
    s.observe(&[(0, 1, 3.0), (1, 2, 2.0)]).unwrap();
    s.mine().unwrap();
    s.mine().unwrap();

    let stats = s.stats().unwrap();
    assert_eq!(stats["observations"], 2);
    assert_eq!(stats["cache"]["entries"], 1);
    assert_eq!(stats["cache"]["hits"], 1);
    assert_eq!(stats["cache"]["misses"], 1);
    assert_eq!(stats["cache"]["evictions"], 0);

    client.shutdown().unwrap();
    handle.join();
}
