//! Fig. 3 — positive-clique census of the Douban-style difference graphs: the number of
//! k-cliques (after dedup and subset removal) returned by the all-initialisations
//! SEACD+Refinement sweep, per direction and interest profile.
//!
//! ```text
//! cargo run -p dcs-bench --release --bin fig03_clique_counts -- --scale default
//! ```

use dcs_bench::{ExpOptions, Table};
use dcs_core::dcsga::{clique_census, SeaCd};
use dcs_core::difference_graph;
use dcs_datasets::{Scale, SocialInterestConfig};
use dcs_graph::SignedGraph;
use std::collections::BTreeMap;

/// Returns the histogram: clique size → number of cliques of that size.
fn clique_histogram(gd: &SignedGraph, limit: Option<usize>) -> BTreeMap<usize, usize> {
    let gd_plus = gd.positive_part();
    let sweep = SeaCd::default().sweep(&gd_plus, limit, true);
    let census = clique_census(&gd_plus, &sweep.all_solutions);
    let mut histogram = BTreeMap::new();
    for clique in census {
        *histogram.entry(clique.support.len()).or_insert(0) += 1;
    }
    histogram
}

fn main() {
    let options = ExpOptions::from_args();
    let limit = match options.scale {
        Scale::Tiny => None,
        Scale::Default => Some(1_200),
        Scale::Full => Some(3_000),
    };
    let mut json = serde_json::Map::new();

    for (interest, pair, min_size) in [
        (
            "Movie",
            SocialInterestConfig::movie(options.scale).generate(),
            4usize,
        ),
        (
            "Book",
            SocialInterestConfig::book(options.scale).generate(),
            3usize,
        ),
    ] {
        let directions = [
            (
                "Interest-Social",
                difference_graph(&pair.g2, &pair.g1).unwrap(),
            ),
            (
                "Social-Interest",
                difference_graph(&pair.g1, &pair.g2).unwrap(),
            ),
        ];
        let histograms: Vec<(String, BTreeMap<usize, usize>)> = directions
            .iter()
            .map(|(name, gd)| (name.to_string(), clique_histogram(gd, limit)))
            .collect();

        let max_size = histograms
            .iter()
            .flat_map(|(_, h)| h.keys().copied())
            .max()
            .unwrap_or(0);
        let mut table = Table::new(
            &format!("Fig. 3 ({interest}) — #positive cliques by size (sizes ≥ {min_size})"),
            &["Clique size", "Interest-Social", "Social-Interest"],
        );
        for size in min_size..=max_size {
            let a = histograms[0].1.get(&size).copied().unwrap_or(0);
            let b = histograms[1].1.get(&size).copied().unwrap_or(0);
            if a == 0 && b == 0 {
                continue;
            }
            table.add_row(vec![size.to_string(), a.to_string(), b.to_string()]);
        }
        table.print();

        let totals: Vec<usize> = histograms
            .iter()
            .map(|(_, h)| {
                h.iter()
                    .filter(|(s, _)| **s >= min_size)
                    .map(|(_, c)| c)
                    .sum()
            })
            .collect();
        println!(
            "{interest}: total cliques ≥ {min_size}: Interest-Social = {}, Social-Interest = {}\n",
            totals[0], totals[1]
        );
        json.insert(
            interest.to_string(),
            serde_json::json!({
                "interest_minus_social": histograms[0].1,
                "social_minus_interest": histograms[1].1,
            }),
        );
    }

    if options.json {
        println!("{}", serde_json::to_string_pretty(&json).unwrap());
    }
}
