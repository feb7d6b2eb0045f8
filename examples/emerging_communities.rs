//! Anomaly detection against historical expectation — the "emerging community /
//! traffic-hotspot / dark-network" application sketched in the paper's introduction.
//!
//! `G1` encodes the *expected* pairwise connection strength (derived from history) and
//! `G2` the currently *observed* strength.  The DCS of `(G1, G2)` is the group of
//! entities whose mutual connections intensified the most — an emerging community.
//! The example also shows the α-scaled difference graph of Section III-D, which requires
//! the density in `G2` to exceed `α` times the historical density.
//!
//! Run with:
//! ```text
//! cargo run --release --example emerging_communities
//! ```

use dcs::core::{alpha_sweep, default_alpha_grid, scaled_difference_graph, DensityMeasure};
use dcs::datasets::{ConflictConfig, GroupKind, Scale};
use dcs::prelude::*;

fn main() {
    // Interaction data: G1 = expected/positive interactions, G2 = observed/negative ones
    // (the wiki-style generator plants one cooperative and one conflicting group).
    let pair = ConflictConfig::for_scale(Scale::Tiny).generate();
    println!(
        "{} users; expected graph: {} edges, observed graph: {} edges",
        pair.g1.num_vertices(),
        pair.g1.num_edges(),
        pair.g2.num_edges()
    );

    // Emerging anomaly: connections much stronger than expected.
    let gd = difference_graph(&pair.g2, &pair.g1).expect("same users");
    let anomaly = DcsGreedy::default().solve(&gd);
    let report = ContrastReport::for_subset(&gd, &anomaly.subset);
    println!(
        "\nemerging group: {} users, density difference {:.2}, connected: {}",
        report.size, report.average_degree_difference, report.is_connected
    );

    let planted = pair.planted_of_kind(GroupKind::Emerging);
    let recovery = dcs::datasets::best_match(&anomaly.subset, &planted);
    println!(
        "matches planted group {:?} with Jaccard {:.2} (precision {:.2}, recall {:.2})",
        recovery.best_group, recovery.jaccard, recovery.precision, recovery.recall
    );
    assert!(recovery.jaccard > 0.5);

    // The affinity measure gives a small, tightly interpretable core of the anomaly.
    let core = NewSea::default().solve(&gd);
    println!(
        "affinity core: {} users, affinity difference {:.2}, positive clique: {}",
        core.support().len(),
        core.affinity_difference,
        gd.is_positive_clique(&core.support())
    );

    // α-scaled variant: only count a group as anomalous if its observed density exceeds
    // twice the expectation.
    let gd_strict = scaled_difference_graph(&pair.g2, &pair.g1, 2.0).expect("same users");
    let strict = DcsGreedy::default().solve(&gd_strict);
    println!(
        "\nwith α = 2 the anomalous group shrinks to {} users (density diff {:.2})",
        strict.subset.len(),
        strict.density_difference
    );

    // Sweeping α shows how the anomaly sharpens as stable structure is priced out
    // (Section III-D; `alpha_sweep` evaluates every point on the plain α = 1 graph so the
    // rows are comparable).
    println!("\nα-sweep (average degree):");
    println!(
        "{:>6} {:>6} {:>16} {:>16}",
        "alpha", "size", "scaled objective", "plain avg-degree"
    );
    let points = alpha_sweep(
        &pair.g2,
        &pair.g1,
        &default_alpha_grid(),
        DensityMeasure::AverageDegree,
    )
    .expect("valid inputs");
    for point in &points {
        println!(
            "{:>6.2} {:>6} {:>16.2} {:>16.2}",
            point.alpha,
            point.subset.len(),
            point.objective,
            point.report.average_degree_difference
        );
    }
    assert_eq!(points.len(), default_alpha_grid().len());
}
