//! A full round trip against the contrast-mining server: start `dcs-server`
//! in-process on an ephemeral port, create a session, load a historical
//! baseline, stream observation batches from two concurrent feeds, and mine —
//! demonstrating the triggered alert and the version-keyed result cache.
//!
//! The same exchange works against a stand-alone `dcs serve` process using
//! the `dcs client` subcommand, or any NDJSON-speaking TCP client; the wire
//! protocol is documented in the `dcs-server` crate docs.
//!
//! Run with:
//! ```text
//! cargo run --release --example server_roundtrip
//! ```

use dcs::core::DensityMeasure;
use dcs::datasets::{Scale, TrafficConfig};
use dcs_server::{Client, CreateSessionRequest, Server, ServerConfig};

fn main() {
    // A road network with planted hotspots: G1 is the historical expectation,
    // G2 the current state we will replay as a stream.
    let pair = TrafficConfig::for_scale(Scale::Tiny).generate();
    let n = pair.g1.num_vertices();
    println!(
        "road network: {} intersections, {} segments, {} planted anomalies",
        n,
        pair.g1.num_edges(),
        pair.planted.len()
    );

    // Start the server on an ephemeral port.
    let handle = Server::bind("127.0.0.1:0", ServerConfig::default())
        .expect("bind")
        .start();
    let addr = handle.local_addr();
    println!("dcs-server listening on {addr}");

    // Control connection: session + baseline.
    let mut control = Client::connect(addr).expect("connect");
    control
        .create(CreateSessionRequest {
            session: "roads".into(),
            vertices: Some(n as u64),
            alert_threshold: 25.0,
            measure: Some(DensityMeasure::AverageDegree),
            ..Default::default()
        })
        .expect("create session");
    let baseline: Vec<(u32, u32, f64)> = pair.g1.edges().collect();
    let loaded = control
        .session("roads")
        .load_baseline(&baseline)
        .expect("baseline");
    println!("baseline loaded: {} segments", loaded["baseline_edges"]);

    // Two concurrent sensor feeds stream the current observations in batches.
    let updates: Vec<(u32, u32, f64)> = pair.g2.edges().collect();
    let halves: Vec<Vec<(u32, u32, f64)>> = vec![
        updates.iter().copied().step_by(2).collect(),
        updates.iter().copied().skip(1).step_by(2).collect(),
    ];
    std::thread::scope(|scope| {
        for (feed, half) in halves.iter().enumerate() {
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect feed");
                for batch in half.chunks(64) {
                    let response = client.session("roads").observe(batch).expect("observe");
                    assert_eq!(response["ok"], true);
                    let _ = feed;
                }
            });
        }
    });
    let stats = control.session("roads").stats().expect("stats");
    println!(
        "streamed {} observations (graph version {})",
        stats["observations"], stats["version"]
    );

    // Mine: the hotspot cluster must trigger the alert.
    let mined = control.session("roads").mine().expect("mine");
    let result = &mined["result"];
    println!(
        "mined DCS: {} intersections, contrast {:.1}, triggered={} (cached={})",
        result["size"],
        result["density_difference"].as_f64().unwrap_or(0.0),
        result["triggered"],
        mined["cached"],
    );
    assert_eq!(mined["cached"], false);

    // Same graph version + same job: answered from the session cache.
    let again = control.session("roads").mine().expect("repeat mine");
    println!("repeat mine served from cache: cached={}", again["cached"]);
    assert_eq!(again["cached"], true);

    // Top-3 disjoint contrast groups over the wire.
    let topk = control.session("roads").topk(3).expect("topk");
    for group in topk["results"].as_array().unwrap() {
        println!(
            "  rank {}: {} intersections, objective {:.1}",
            group["rank"],
            group["size"],
            group["objective"].as_f64().unwrap_or(0.0)
        );
    }

    control.shutdown().expect("shutdown");
    handle.join();
    println!("server shut down cleanly");
}
