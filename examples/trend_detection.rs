//! Trend detection in research topics — the motivating application of the paper's
//! introduction (Section I and VI-C).
//!
//! Two keyword-association graphs are built from simulated paper titles of an "early"
//! period and a "recent" period.  Mining dense subgraphs in the recent graph alone
//! surfaces evergreen topics ("time series"); mining the *difference* graph surfaces the
//! actual trends ("social networks", "matrix factorization").
//!
//! Run with:
//! ```text
//! cargo run --release --example trend_detection
//! ```

use dcs::core::dcsga::{clique_census, SeaCd};
use dcs::datasets::{KeywordConfig, Scale};
use dcs::prelude::*;

fn top_topics(graph: &SignedGraph, label: &str, k: usize) {
    // All-initialisation SEACD sweep + refinement, then a clique census, exactly like the
    // paper's Table V/VI construction.
    let sweep = SeaCd::default().sweep(graph, None, true);
    let census = clique_census(graph, &sweep.all_solutions);
    println!("\ntop {k} topics ({label}):");
    for (rank, clique) in census.iter().take(k).enumerate() {
        println!(
            "  #{rank}: keywords {:?}  affinity {:.3}",
            clique.support, clique.affinity
        );
    }
}

fn main() {
    let config = KeywordConfig::for_scale(Scale::Tiny);
    let pair = config.generate();
    println!(
        "simulated titles → keyword graphs with {} keywords, {} / {} association edges",
        pair.g1.num_vertices(),
        pair.g1.num_edges(),
        pair.g2.num_edges()
    );

    // Mining only the recent graph returns evergreen topics…
    top_topics(
        &pair.g2,
        "recent period only — includes evergreen topics",
        3,
    );

    // …while the difference graph isolates the emerging trends.
    let emerging_gd = difference_graph(&pair.g2, &pair.g1).expect("same vocabulary");
    let disappearing_gd = difference_graph(&pair.g1, &pair.g2).expect("same vocabulary");
    top_topics(&emerging_gd.positive_part(), "emerging trends (G2 − G1)", 3);
    top_topics(
        &disappearing_gd.positive_part(),
        "disappearing topics (G1 − G2)",
        3,
    );

    // Check the planted ground truth was recovered by the top emerging result.
    let newsea = NewSea::default().solve(&emerging_gd);
    let planted = pair.planted_of_kind(dcs::datasets::GroupKind::Emerging);
    let report = dcs::datasets::best_match(&newsea.support(), &planted);
    println!(
        "\nbest emerging DCS matches planted topic {:?} with Jaccard {:.2}",
        report.best_group, report.jaccard
    );
    assert!(
        report.jaccard > 0.5,
        "the emerging trend should be recovered"
    );
}
