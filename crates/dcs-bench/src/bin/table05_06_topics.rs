//! Tables V & VI — top-5 emerging/disappearing topics from the keyword-association
//! difference graphs, and the top-5 topics of each single-period graph (showing why
//! single-graph mining does not detect trends).
//!
//! ```text
//! cargo run -p dcs-bench --release --bin table05_06_topics -- --scale default
//! ```

use dcs_bench::{f3, ExpOptions, Table};
use dcs_core::dcsga::{clique_census, SeaCd};
use dcs_core::difference_graph;
use dcs_datasets::{KeywordConfig, Scale};
use dcs_graph::SignedGraph;

/// Runs the all-initialisations SEACD+Refine sweep and returns the top-k cliques.
fn top_cliques(graph: &SignedGraph, k: usize, limit: Option<usize>) -> Vec<(Vec<u32>, f64)> {
    let positive = graph.positive_part();
    let sweep = SeaCd::default().sweep(&positive, limit, true);
    clique_census(&positive, &sweep.all_solutions)
        .into_iter()
        .take(k)
        .map(|c| (c.support, c.affinity))
        .collect()
}

fn print_ranked(title: &str, cliques: &[(Vec<u32>, f64)], label: impl Fn(&[u32]) -> String) {
    let mut table = Table::new(title, &["Rank", "Keyword set", "Affinity"]);
    for (rank, (support, affinity)) in cliques.iter().enumerate() {
        table.add_row(vec![(rank + 1).to_string(), label(support), f3(*affinity)]);
    }
    table.print();
}

fn main() {
    let options = ExpOptions::from_args();
    let config = KeywordConfig::for_scale(options.scale);
    let pair = config.generate();
    // Cap the number of initialisations on large scales so the sweep stays tractable.
    let limit = match options.scale {
        Scale::Tiny => None,
        Scale::Default => Some(1_500),
        Scale::Full => Some(3_000),
    };

    // Map keyword ids back to topic names where possible (for readability).
    let label = |support: &[u32]| -> String {
        for topic in &config.topics {
            let mut sorted = topic.keywords.clone();
            sorted.sort_unstable();
            let mut s = support.to_vec();
            s.sort_unstable();
            let overlap = s.iter().filter(|v| sorted.contains(v)).count();
            if overlap * 2 > s.len().max(1) {
                return format!("{:?} ≈ topic '{}'", support, topic.name);
            }
        }
        format!("{support:?} (background keywords)")
    };

    let emerging_gd = difference_graph(&pair.g2, &pair.g1).unwrap();
    let disappearing_gd = difference_graph(&pair.g1, &pair.g2).unwrap();

    print_ranked(
        "Table V (emerging) — top-5 topics of the G2−G1 difference graph",
        &top_cliques(&emerging_gd, 5, limit),
        label,
    );
    print_ranked(
        "Table V (disappearing) — top-5 topics of the G1−G2 difference graph",
        &top_cliques(&disappearing_gd, 5, limit),
        label,
    );
    print_ranked(
        "Table VI — top-5 topics of G1 alone (early period)",
        &top_cliques(&pair.g1, 5, limit),
        label,
    );
    print_ranked(
        "Table VI — top-5 topics of G2 alone (recent period)",
        &top_cliques(&pair.g2, 5, limit),
        label,
    );

    if options.json {
        let json = serde_json::json!({
            "emerging": top_cliques(&emerging_gd, 5, limit),
            "disappearing": top_cliques(&disappearing_gd, 5, limit),
            "g1_only": top_cliques(&pair.g1, 5, limit),
            "g2_only": top_cliques(&pair.g2, 5, limit),
        });
        println!("{}", serde_json::to_string_pretty(&json).unwrap());
    }
}
