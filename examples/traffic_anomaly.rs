//! Detecting an emerging traffic hotspot against historical expectations — the
//! anomaly-detection application sketched in Section I of the paper.
//!
//! A grid road network carries an expected flow per segment (`G1`, from history).  Fresh
//! observations stream in and are folded into the observed graph (`G2`); every re-mining
//! period the density contrast subgraph of `G2 − G1` is mined and an alert is raised once
//! the contrast passes a threshold.
//!
//! Run with:
//! ```text
//! cargo run --release --example traffic_anomaly
//! ```

use dcs::core::streaming::{StreamingConfig, StreamingDcs};
use dcs::core::{difference_graph, DensityMeasure};
use dcs::datasets::{Scale, TrafficConfig};
use dcs::prelude::*;

fn main() {
    // Historical expectations and the "true" current state with two planted hotspots.
    let config = TrafficConfig::for_scale(Scale::Tiny);
    let pair = config.generate();
    println!(
        "road network: {} intersections, {} segments, {} planted anomalies",
        pair.g1.num_vertices(),
        pair.g1.num_edges(),
        pair.planted.len()
    );

    // The monitor starts from the historical baseline with no observations yet.
    let mut monitor = StreamingDcs::new(
        pair.g1.clone(),
        StreamingConfig {
            remine_every: 500,
            alert_threshold: 25.0,
            measure: DensityMeasure::AverageDegree,
        },
    )
    .expect("baseline weights are non-negative");

    // Stream the current observations segment by segment.  In a deployment these would
    // arrive from roadside sensors; here we replay the edges of the generated G2.
    let mut alerts = Vec::new();
    for (u, v, flow) in pair.g2.edges() {
        if let Some(alert) = monitor.observe(u, v, flow) {
            println!(
                "after {:>5} observations: contrast {:.1} ({} intersections){}",
                alert.observations,
                alert.density_difference,
                alert.report.size,
                if alert.triggered { "  << ALERT" } else { "" }
            );
            alerts.push(alert);
        }
    }
    let final_alert = monitor.mine_now();
    println!(
        "final sweep: contrast {:.1} over {} intersections (triggered: {})",
        final_alert.density_difference, final_alert.report.size, final_alert.triggered
    );

    // Compare the streamed result against mining the full pair in one batch.
    let gd = difference_graph(&pair.g2, &pair.g1).expect("same vertex set");
    let batch = DcsGreedy::default().solve(&gd);
    println!(
        "batch DCSGreedy on the complete pair: contrast {:.1} over {} intersections",
        batch.density_difference,
        batch.subset.len()
    );

    // The strongest planted hotspot should be what the alert points at.
    let hotspot = &pair.planted[0];
    let overlap = final_alert
        .report
        .subset
        .iter()
        .filter(|v| hotspot.vertices.contains(v))
        .count();
    println!(
        "overlap with planted '{}': {}/{} intersections",
        hotspot.name,
        overlap,
        hotspot.vertices.len()
    );
    assert!(
        final_alert.triggered,
        "the planted hotspot must trigger an alert"
    );
    assert!(
        overlap * 2 >= hotspot.vertices.len(),
        "alert should cover most of the hotspot"
    );
}
