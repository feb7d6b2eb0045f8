//! Emerging and disappearing co-author groups — the paper's DBLP case study
//! (Section VI-B, Tables III/IV).
//!
//! The example builds a synthetic co-author pair (collaborations before / after a split
//! year), constructs the Weighted and Discrete difference graphs in both directions
//! (Emerging and Disappearing), and mines DCS under both density measures, printing a
//! Table-IV-style summary.
//!
//! Run with:
//! ```text
//! cargo run --release --example coauthor_groups
//! ```

use dcs::core::{difference_graph_with, DiscreteRule, WeightScheme};
use dcs::datasets::{best_match, CoauthorConfig, GroupKind, Scale};
use dcs::prelude::*;

fn main() {
    let pair = CoauthorConfig::for_scale(Scale::Tiny).generate();
    println!(
        "co-author graphs: {} authors, {} collaborations before the split, {} after",
        pair.g1.num_vertices(),
        pair.g1.num_edges(),
        pair.g2.num_edges()
    );

    println!(
        "\n{:<10} {:<13} {:<15} {:>8} {:>9} {:>12} {:>12} {:>10}  Recovered group",
        "Setting",
        "GD type",
        "Measure",
        "#Authors",
        "Clique?",
        "AvgDeg diff",
        "Affin. diff",
        "EdgeDens"
    );

    for (setting_name, scheme) in [
        ("Weighted", WeightScheme::Weighted),
        ("Discrete", WeightScheme::Discrete(DiscreteRule::default())),
    ] {
        for (direction, g_from, g_to, kind) in [
            ("Emerging", &pair.g1, &pair.g2, GroupKind::Emerging),
            ("Disappearing", &pair.g2, &pair.g1, GroupKind::Disappearing),
        ] {
            let gd = difference_graph_with(g_to, g_from, scheme).expect("same authors");
            let planted = pair.planted_of_kind(kind);

            // Average-degree measure (DCSGreedy).
            let ad = DcsGreedy::default().solve(&gd);
            let ad_report = ContrastReport::for_subset(&gd, &ad.subset);
            let ad_match = best_match(&ad.subset, &planted);
            println!(
                "{:<10} {:<13} {:<15} {:>8} {:>9} {:>12.2} {:>12.2} {:>10.3}  {} (J={:.2})",
                setting_name,
                direction,
                "avg degree",
                ad_report.size,
                ad_report.is_positive_clique,
                ad_report.average_degree_difference,
                ad_report.affinity_difference,
                ad_report.edge_density_difference,
                ad_match.best_group,
                ad_match.jaccard
            );

            // Graph-affinity measure (NewSEA).
            let ga = NewSea::default().solve(&gd);
            let ga_report = ContrastReport::for_embedding(&gd, &ga.embedding);
            let ga_match = best_match(&ga.support(), &planted);
            println!(
                "{:<10} {:<13} {:<15} {:>8} {:>9} {:>12.2} {:>12.2} {:>10.3}  {} (J={:.2})",
                setting_name,
                direction,
                "graph affinity",
                ga_report.size,
                ga_report.is_positive_clique,
                ga_report.average_degree_difference,
                ga_report.affinity_difference,
                ga_report.edge_density_difference,
                ga_match.best_group,
                ga_match.jaccard
            );
        }
    }

    println!("\nLike in the paper, the affinity DCS is always a positive clique, while the");
    println!("average-degree DCS may be larger; the Discrete setting surfaces broader groups");
    println!("by damping a few very heavy edges.");
}
