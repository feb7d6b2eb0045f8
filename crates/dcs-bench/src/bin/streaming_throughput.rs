//! Streaming-throughput microbenchmark of the incremental difference-graph engine.
//!
//! Simulates the always-on serving workload: a fixed baseline `G1`, a stream of
//! sparse weight updates (each batch touches ≤1% of the edges), and a difference
//! snapshot taken after every batch — the exact shape of the mining server's
//! `observe`/`mine` cadence.  Three snapshot paths are timed against each other:
//!
//! * **scratch** — the pre-delta-engine path: rebuild `G_D` from the observed map
//!   plus every baseline edge through `GraphBuilder`
//!   ([`StreamingDcs::rebuild_difference_snapshot`]),
//! * **delta** — the incremental path: merge the edges the batch changed into the
//!   previous snapshot ([`StreamingDcs::difference_snapshot`]),
//! * **cached** — the same call on an unchanged version: returns the previous
//!   `Arc` pointer-equal, which is what repeated mining jobs at one version pay.
//!
//! Two overhead sections follow the snapshot timings: the unified solver
//! engine's unbounded wrapper vs a direct solver call, and the `dcs-obs` phase
//! tracer enabled vs instrumented-but-disabled (the production default); in
//! `--smoke` mode both must stay within 5% (plus sub-millisecond slack).
//!
//! A final `server_scaling` section measures the serving tier end to end:
//! an in-process `dcs-server` under 1/16/128/512 concurrent connections
//! (1/16 in `--smoke` mode), each streaming observes into its own session
//! while a separate connection mines, reporting aggregate observes/sec and
//! p99 mine latency per level.  These numbers are informational — wall-clock
//! throughput is machine-dependent, so nothing gates on them.
//!
//! `--soak` runs only a connection-churn soak: a few hundred connections
//! open, create/drop sessions, and vanish in waves against one in-process
//! server, and the process's file-descriptor count must return to its
//! starting neighborhood afterwards (the event loops leak no sockets).
//!
//! Output is a single JSON object, so CI can run it as a smoke step and archive
//! the numbers.
//!
//! ```text
//! cargo run --release -p dcs-bench --bin streaming_throughput -- [--smoke | --soak]
//! ```

use std::collections::HashSet;
use std::time::{Duration, Instant};

use dcs_core::dcsad::DcsGreedy;
use dcs_core::{DensityMeasure, MeasureSolver, SolveContext, StreamingConfig, StreamingDcs};
use dcs_graph::{GraphBuilder, SignedGraph, VertexId};
use dcs_server::{Client, CreateSessionRequest, Server, ServerConfig};
use serde_json::{json, Value};

struct BenchConfig {
    vertices: usize,
    baseline_edges: usize,
    batches: usize,
    batch_size: usize,
}

/// Deterministic splitmix64 — keeps the workload identical across runs.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn weight(&mut self) -> f64 {
        1.0 + (self.next() % 1000) as f64 / 250.0
    }
}

fn build_baseline(config: &BenchConfig, rng: &mut Rng) -> SignedGraph {
    let n = config.vertices;
    let mut builder = GraphBuilder::new(n);
    // The builder folds repeated pairs only when it builds, so the distinct pairs
    // that size the graph are counted here.
    let mut pairs = HashSet::new();
    // A ring keeps the graph connected; random chords bring it up to size.
    for v in 0..n {
        let u = (v + 1) % n;
        builder.add_edge(v as VertexId, u as VertexId, rng.weight());
        pairs.insert((v.min(u), v.max(u)));
    }
    while pairs.len() < config.baseline_edges {
        let u = rng.below(n);
        let v = rng.below(n);
        if u != v {
            builder.add_edge(u as VertexId, v as VertexId, rng.weight());
            pairs.insert((u.min(v), u.max(v)));
        }
    }
    builder.build()
}

fn mean_ms(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// The upper median of `samples` (sorted in place), `0.0` when empty.
fn median(samples: &mut [f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Counts this process's open file descriptors (`None` where /proc is
/// unavailable — the soak then reports without gating).
fn open_fds() -> Option<usize> {
    std::fs::read_dir("/proc/self/fd")
        .ok()
        .map(|entries| entries.count())
}

/// A `create_session` for a memory-backed session of `vertices` vertices.
fn create_request(session: &str, vertices: u64) -> CreateSessionRequest {
    CreateSessionRequest {
        session: session.to_string(),
        vertices: Some(vertices),
        ..Default::default()
    }
}

/// One scaling level: `connections` clients stream observes into private
/// sessions for `duration` while a miner connection alternates
/// observe + mine on its own session.  Returns the level's report.
fn scaling_level(addr: std::net::SocketAddr, connections: usize, duration: Duration) -> Value {
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let observers: Vec<std::thread::JoinHandle<u64>> = (0..connections)
        .map(|index| {
            let stop = std::sync::Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect observer");
                let session = format!("scale-{connections}-{index}");
                client
                    .create(create_request(&session, 64))
                    .expect("create session");
                let mut batches = 0u64;
                let mut tick = 0u64;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let base = (tick % 56) as u32;
                    let updates: Vec<(u32, u32, f64)> = (0..8)
                        .map(|i| (base + i, base + i + 1, 1.0 + (tick % 7) as f64))
                        .collect();
                    client.session(&session).observe(&updates).expect("observe");
                    batches += 1;
                    tick += 1;
                }
                batches
            })
        })
        .collect();

    // The miner shares the server with the observers but not a session:
    // its latency shows what mining costs while the observe stream runs.
    let mut miner = Client::connect(addr).expect("connect miner");
    let session = format!("scale-miner-{connections}");
    miner
        .create(create_request(&session, 64))
        .expect("create miner session");
    let mut mine_ms: Vec<f64> = Vec::new();
    let started = Instant::now();
    let mut tick = 0u64;
    while started.elapsed() < duration {
        let base = (tick % 56) as u32;
        miner
            .session(&session)
            .observe(&[(base, base + 1, 2.0 + (tick % 5) as f64)])
            .expect("miner observe");
        let start = Instant::now();
        miner.session(&session).mine().expect("mine");
        mine_ms.push(start.elapsed().as_secs_f64() * 1e3);
        tick += 1;
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let total_batches: u64 = observers
        .into_iter()
        .map(|t| t.join().expect("observer thread"))
        .sum();

    let elapsed = started.elapsed().as_secs_f64();
    mine_ms.sort_by(f64::total_cmp);
    let p99 = if mine_ms.is_empty() {
        0.0
    } else {
        mine_ms[(mine_ms.len() - 1).min(mine_ms.len() * 99 / 100)]
    };
    json!({
        "connections": connections,
        "observe_batches": total_batches,
        "observes_per_sec": total_batches as f64 * 8.0 / elapsed,
        "mines": mine_ms.len(),
        "mine_ms_p50": if mine_ms.is_empty() { 0.0 } else { mine_ms[mine_ms.len() / 2] },
        "mine_ms_p99": p99,
    })
}

/// End-to-end serving-tier scaling: one in-process server, increasing
/// connection counts.
fn server_scaling(smoke: bool) -> Value {
    let handle = Server::bind("127.0.0.1:0", ServerConfig::default())
        .expect("bind scaling server")
        .start();
    let addr = handle.local_addr();
    let levels: &[usize] = if smoke { &[1, 16] } else { &[1, 16, 128, 512] };
    let duration = if smoke {
        Duration::from_millis(300)
    } else {
        Duration::from_secs(2)
    };
    let reports: Vec<Value> = levels
        .iter()
        .map(|&connections| scaling_level(addr, connections, duration))
        .collect();
    handle.shutdown();
    handle.join();
    json!({ "levels": reports })
}

/// Timed rounds per side of the durable-vs-ephemeral comparison.
const ROUNDS: usize = 12;

/// Durable-vs-ephemeral observe throughput: one server with a data
/// directory hosts one ephemeral and one durable session (default
/// group-commit WAL sync), and the same observe stream is timed against
/// each.  The durable session pays a buffered WAL append per batch — the
/// fsync happens on the group-commit timer off the request path — so its
/// throughput must stay within 2× of ephemeral (gated in `--smoke` mode).
///
/// One pass is short (~15 ms in `--smoke` mode), so a single pass per side
/// reads whatever the host did in that moment.  The sides are timed in
/// [`ROUNDS`] alternating rounds, ABBA order, and compared by their medians.
fn durability(smoke: bool) -> Value {
    let data_dir =
        std::env::temp_dir().join(format!("dcs_bench_durability_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&data_dir);
    std::fs::create_dir_all(&data_dir).expect("create bench data dir");
    let handle = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            data_dir: Some(data_dir.clone()),
            ..ServerConfig::default()
        },
    )
    .expect("bind durability server")
    .start();
    let mut client = Client::connect(handle.local_addr()).expect("connect durability client");
    client
        .create(create_request("bench-ephemeral", 64))
        .expect("create ephemeral session");
    client
        .create(CreateSessionRequest {
            durable: true,
            ..create_request("bench-durable", 64)
        })
        .expect("create durable session");

    let batches = if smoke { 300 } else { 3_000 };
    let mut time_session = |session: &str| {
        let start = Instant::now();
        for tick in 0..batches {
            let base = (tick % 56) as u32;
            let updates: Vec<(u32, u32, f64)> = (0..8)
                .map(|i| (base + i, base + i + 1, 1.0 + (tick % 7) as f64))
                .collect();
            client.session(session).observe(&updates).expect("observe");
        }
        batches as f64 * 8.0 / start.elapsed().as_secs_f64()
    };
    // Warm both paths once so neither pays first-request costs in the timing.
    time_session("bench-ephemeral");
    time_session("bench-durable");
    let mut ephemeral_rates = Vec::with_capacity(ROUNDS);
    let mut durable_rates = Vec::with_capacity(ROUNDS);
    for round in 0..ROUNDS {
        if round % 2 == 0 {
            ephemeral_rates.push(time_session("bench-ephemeral"));
            durable_rates.push(time_session("bench-durable"));
        } else {
            durable_rates.push(time_session("bench-durable"));
            ephemeral_rates.push(time_session("bench-ephemeral"));
        }
    }
    let ephemeral_rate = median(&mut ephemeral_rates);
    let durable_rate = median(&mut durable_rates);

    handle.shutdown();
    handle.join();
    let _ = std::fs::remove_dir_all(&data_dir);
    json!({
        "observe_batches": batches,
        "rounds": ROUNDS,
        "batch_size": 8,
        "wal_sync": "group",
        "ephemeral_observes_per_sec": ephemeral_rate,
        "durable_observes_per_sec": durable_rate,
        "durable_over_ephemeral": if ephemeral_rate > 0.0 { durable_rate / ephemeral_rate } else { 0.0 },
    })
}

/// Connection-churn soak: waves of connections create sessions, stream a
/// little, drop their sessions and disconnect; afterwards the process must
/// hold roughly as many file descriptors as before (no socket leaks in the
/// event loops).  Exits nonzero on a leak.
fn run_soak() {
    let fd_before = open_fds();
    let handle = Server::bind("127.0.0.1:0", ServerConfig::default())
        .expect("bind soak server")
        .start();
    let addr = handle.local_addr();

    const WAVES: usize = 6;
    const WAVE_SIZE: usize = 50;
    for wave in 0..WAVES {
        let mut clients: Vec<Client> = (0..WAVE_SIZE)
            .map(|_| Client::connect(addr).expect("connect"))
            .collect();
        for (index, client) in clients.iter_mut().enumerate() {
            let session = format!("soak-{wave}-{index}");
            client.create(create_request(&session, 32)).expect("create");
            client
                .session(&session)
                .observe(&[(0, 1, 2.0), (1, 2, 1.5)])
                .expect("observe");
            client
                .request(json!({ "cmd": "drop_session", "session": session }))
                .expect("drop");
        }
        // Half the wave says goodbye cleanly, half just vanishes.
        for (index, client) in clients.iter_mut().enumerate() {
            if index % 2 == 0 {
                let _ = client.ping();
            }
        }
        drop(clients);
    }

    // The server must still be fully responsive after the churn.
    let mut survivor = Client::connect(addr).expect("connect after churn");
    survivor.ping().expect("ping after churn");
    drop(survivor);
    handle.shutdown();
    handle.join();

    // The event loops close sockets on hangup, but the kernel and the loops
    // need a beat after the last drop; poll briefly before judging.
    let allowance = 20usize;
    let mut fd_after = open_fds();
    if let (Some(before), Some(_)) = (fd_before, fd_after) {
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            fd_after = open_fds();
            match fd_after {
                Some(after) if after <= before + allowance => break,
                _ if Instant::now() >= deadline => break,
                _ => std::thread::sleep(Duration::from_millis(100)),
            }
        }
    }
    let report = json!({
        "bench": "server_soak",
        "waves": WAVES,
        "wave_size": WAVE_SIZE,
        "connections": WAVES * WAVE_SIZE,
        "fd_before": fd_before,
        "fd_after": fd_after,
        "fd_allowance": allowance,
    });
    println!("{}", serde_json::to_string_pretty(&report).unwrap());
    if let (Some(before), Some(after)) = (fd_before, fd_after) {
        if after > before + allowance {
            eprintln!("warning: fd count grew from {before} to {after} — socket leak");
            std::process::exit(1);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    if args.iter().any(|a| a == "--help") {
        println!("usage: streaming_throughput [--smoke | --soak]");
        return;
    }
    if args.iter().any(|a| a == "--soak") {
        run_soak();
        return;
    }
    let config = if smoke {
        BenchConfig {
            vertices: 2_000,
            baseline_edges: 20_000,
            batches: 5,
            batch_size: 200, // 1% of the baseline edges
        }
    } else {
        BenchConfig {
            vertices: 20_000,
            baseline_edges: 200_000,
            batches: 10,
            batch_size: 2_000, // 1% of the baseline edges
        }
    };

    let mut rng = Rng(0x5eed);
    let baseline = build_baseline(&config, &mut rng);
    let streaming_config = StreamingConfig {
        remine_every: 0,
        alert_threshold: 0.0,
        measure: DensityMeasure::AverageDegree,
    };
    let mut monitor = StreamingDcs::new(baseline.clone(), streaming_config).unwrap();

    // Warm-up: observe every baseline edge once so the observed graph is at
    // production density, then take the first (full) snapshot outside timing.
    let baseline_edges: Vec<(VertexId, VertexId)> =
        baseline.edges().map(|(u, v, _)| (u, v)).collect();
    let warmup = Instant::now();
    for &(u, v) in &baseline_edges {
        monitor.observe(u, v, rng.weight());
    }
    let warmup_secs = warmup.elapsed().as_secs_f64();
    let observes_per_sec = baseline_edges.len() as f64 / warmup_secs;
    let _ = monitor.difference_snapshot();

    // Steady state: sparse batches (≤1% of edges), one snapshot per batch.
    let mut delta_ms = Vec::with_capacity(config.batches);
    let mut scratch_ms = Vec::with_capacity(config.batches);
    let mut cached_ms = Vec::with_capacity(config.batches);
    for _ in 0..config.batches {
        for _ in 0..config.batch_size {
            let &(u, v) = &baseline_edges[rng.below(baseline_edges.len())];
            monitor.observe(u, v, rng.weight() - 2.0);
        }

        let start = Instant::now();
        let snapshot = monitor.difference_snapshot();
        delta_ms.push(start.elapsed().as_secs_f64() * 1e3);

        let start = Instant::now();
        let scratch = monitor.rebuild_difference_snapshot();
        scratch_ms.push(start.elapsed().as_secs_f64() * 1e3);

        let start = Instant::now();
        let again = monitor.difference_snapshot();
        cached_ms.push(start.elapsed().as_secs_f64() * 1e3);

        // Sanity: the delta snapshot must be exactly the scratch rebuild, and the
        // unchanged-version re-snapshot must be pointer-equal (no rebuild at all).
        assert_eq!(*snapshot, scratch, "delta snapshot diverged from rebuild");
        assert!(
            std::sync::Arc::ptr_eq(&snapshot, &again),
            "unchanged version must return the cached Arc"
        );
    }

    // --- Engine-wrapper overhead: measure dispatch through `MeasureSolver` must be
    // free when unbounded.  Interleave direct `solve()` calls with
    // `MeasureSolver::solve_bounded(unbounded)` calls on the final difference
    // snapshot, in alternating order, and compare medians; the engine path
    // additionally reports `SolveStats`.
    let gd = monitor.difference_snapshot();
    let solver = DcsGreedy::default();
    let engine_solver = MeasureSolver::AverageDegree(solver.clone());
    let cx = SolveContext::unbounded();
    // Rounds per side, shared with the tracer gate below.  One solve takes about
    // 2 ms, and the median of a few rounds moves by more than the 5% bound
    // between two sides that run the same solver.
    let rounds = 61;
    let mut direct_ms = Vec::with_capacity(rounds);
    let mut engine_ms = Vec::with_capacity(rounds);
    let mut engine_stats = None;
    for round in 0..rounds {
        // Alternate which side runs first, as the durability rounds do.
        let mut time_direct = || {
            let start = Instant::now();
            let direct = solver.solve(&gd);
            direct_ms.push(start.elapsed().as_secs_f64() * 1e3);
            direct
        };
        let mut time_engine = || {
            let start = Instant::now();
            let engine = engine_solver.solve_bounded(&*gd, &[], &cx);
            engine_ms.push(start.elapsed().as_secs_f64() * 1e3);
            engine
        };
        let (direct, engine) = if round % 2 == 0 {
            (time_direct(), time_engine())
        } else {
            let engine = time_engine();
            (time_direct(), engine)
        };

        assert_eq!(
            engine.subset, direct.subset,
            "engine wrapper changed the unbounded result"
        );
        engine_stats = Some(engine.stats);
    }
    let direct_median = median(&mut direct_ms);
    let engine_median = median(&mut engine_ms);
    let overhead = if direct_median > 0.0 {
        engine_median / direct_median - 1.0
    } else {
        0.0
    };
    let engine_stats = engine_stats.expect("at least one engine round");

    // --- Tracing overhead: the solver phase spans (dcs-obs) sit on every hot
    // path, so the instrumented-but-disabled state is the production default.
    // Interleave solves with the tracer off and on, in alternating order, and
    // compare medians: the enabled tracer must stay within 5% of the disabled
    // path.
    dcs_obs::trace::set_enabled(false);
    dcs_obs::trace::clear();
    let mut trace_off_ms = Vec::with_capacity(rounds);
    let mut trace_on_ms = Vec::with_capacity(rounds);
    for round in 0..rounds {
        let mut time_traced = |enabled: bool| {
            dcs_obs::trace::set_enabled(enabled);
            let start = Instant::now();
            let solution = solver.solve(&gd);
            let ms = start.elapsed().as_secs_f64() * 1e3;
            dcs_obs::trace::set_enabled(false);
            if enabled {
                trace_on_ms.push(ms);
            } else {
                trace_off_ms.push(ms);
            }
            solution
        };
        let (plain, traced) = if round % 2 == 0 {
            (time_traced(false), time_traced(true))
        } else {
            let traced = time_traced(true);
            (time_traced(false), traced)
        };

        assert_eq!(traced.subset, plain.subset, "tracing changed the result");
    }
    let (trace_events, trace_dropped) = dcs_obs::trace::take_timeline_with_drops();
    assert!(
        !trace_events.is_empty(),
        "enabled tracer recorded no solver phase spans"
    );
    let trace_off_median = median(&mut trace_off_ms);
    let trace_on_median = median(&mut trace_on_ms);
    let trace_overhead = if trace_off_median > 0.0 {
        trace_on_median / trace_off_median - 1.0
    } else {
        0.0
    };

    // --- Serving-tier scaling: observes/sec and mine latency against a real
    // in-process server at increasing connection counts (informational).
    let scaling = server_scaling(smoke);

    // --- Durability tax: observe throughput with a per-session WAL (default
    // group commit) vs an ephemeral session on the same server.
    let durability_report = durability(smoke);

    let delta = mean_ms(&delta_ms);
    let scratch = mean_ms(&scratch_ms);
    let cached = mean_ms(&cached_ms);
    let speedup = if delta > 0.0 { scratch / delta } else { 0.0 };
    let report = json!({
        "bench": "streaming_throughput",
        "mode": if smoke { "smoke" } else { "full" },
        "vertices": config.vertices,
        "baseline_edges": baseline.num_edges(),
        "batches": config.batches,
        "batch_size": config.batch_size,
        "batch_edge_fraction": config.batch_size as f64 / baseline.num_edges() as f64,
        "observes_per_sec": observes_per_sec,
        "snapshot_ms": { "delta": delta, "scratch": scratch, "cached": cached },
        "speedup_delta_vs_scratch": speedup,
        "engine_wrapper": {
            "solver": "dcs-greedy",
            "direct_ms_median": direct_median,
            "engine_ms_median": engine_median,
            "overhead_fraction": overhead,
            "stats": {
                "iterations": engine_stats.iterations,
                "candidates": engine_stats.candidates,
                "prunes": engine_stats.prunes,
                "wall_ms": engine_stats.wall.as_secs_f64() * 1e3,
                "termination": engine_stats.termination.as_str(),
            },
        },
        "tracing": {
            "solver": "dcs-greedy",
            "disabled_ms_median": trace_off_median,
            "enabled_ms_median": trace_on_median,
            "overhead_fraction": trace_overhead,
            "events_recorded": trace_events.len(),
            "events_dropped": trace_dropped,
        },
        "server_scaling": scaling,
        "durability": durability_report,
    });
    println!("{}", serde_json::to_string_pretty(&report).unwrap());

    // The smoke step's contract: sparse batches must snapshot measurably faster
    // through the delta engine than through a from-scratch rebuild.
    if speedup < 1.0 {
        eprintln!("warning: delta path not faster than scratch rebuild (speedup {speedup:.2}x)");
        std::process::exit(1);
    }
    // ... and in the CI smoke mode the engine wrapper must stay within 5% of the
    // direct solver call (absolute slack of 0.2 ms absorbs sub-millisecond timer
    // noise).  Interactive full runs report the overhead without gating on it.
    if smoke && overhead > 0.05 && engine_median - direct_median > 0.2 {
        eprintln!(
            "warning: engine wrapper overhead {:.1}% exceeds the 5% bound \
             (direct {direct_median:.3} ms, engine {engine_median:.3} ms)",
            overhead * 100.0
        );
        std::process::exit(1);
    }
    // ... and the enabled phase tracer must stay within 5% of the
    // instrumented-but-disabled production default (same absolute slack).
    if smoke && trace_overhead > 0.05 && trace_on_median - trace_off_median > 0.2 {
        eprintln!(
            "warning: phase-tracer overhead {:.1}% exceeds the 5% bound \
             (disabled {trace_off_median:.3} ms, enabled {trace_on_median:.3} ms)",
            trace_overhead * 100.0
        );
        std::process::exit(1);
    }
    // ... and durable observes must stay within 2× of ephemeral at the
    // default group-commit sync (the WAL append is buffered; the fsync is
    // off the request path).
    let durable_ratio = durability_report["durable_over_ephemeral"]
        .as_f64()
        .unwrap_or(0.0);
    if smoke && durable_ratio < 0.5 {
        eprintln!(
            "warning: durable observe throughput is {:.2}x ephemeral — below the 0.5x bound",
            durable_ratio
        );
        std::process::exit(1);
    }
}
