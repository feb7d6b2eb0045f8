//! Uncovering money-laundering "dark networks" in transaction data — the second
//! anomaly-detection application from Section I of the paper.
//!
//! `G1` holds expected pairwise transaction volumes (from history), `G2` the volumes
//! observed in the current period.  A group of accounts that suddenly transacts densely
//! among itself shows up as the density contrast subgraph of `G2 − G1`; because such
//! rings are clique-like, the graph-affinity measure pinpoints them exactly, and top-k
//! mining reports several disjoint rings in one pass.
//!
//! Run with:
//! ```text
//! cargo run --release --example dark_network
//! ```

use dcs::core::{difference_graph, top_k_affinity, ContrastReport};
use dcs::datasets::{GroupKind, Scale, TransactionConfig};
use dcs::prelude::*;

fn main() {
    let config = TransactionConfig::for_scale(Scale::Tiny);
    let pair = config.generate();
    println!(
        "transaction network: {} accounts, {} historical / {} current relationships",
        pair.g1.num_vertices(),
        pair.g1.num_edges(),
        pair.g2.num_edges()
    );

    let gd = difference_graph(&pair.g2, &pair.g1).expect("same account set");
    println!(
        "difference graph: {} positive / {} negative edges",
        gd.num_positive_edges(),
        gd.num_negative_edges()
    );

    // --- Single DCS: the tightest ring. ---------------------------------------------
    let best = NewSea::default().solve(&gd);
    let report = ContrastReport::for_embedding(&gd, &best.embedding);
    println!(
        "\ntightest ring: {} accounts {:?}, affinity contrast {:.1}, positive clique: {}",
        report.size, report.subset, report.affinity_difference, report.is_positive_clique
    );

    // --- Top-k mining: report every disjoint suspicious ring. ------------------------
    let rings = top_k_affinity(&gd, 4);
    println!("\ntop-{} disjoint rings:", rings.len());
    for (rank, ring) in rings.iter().enumerate() {
        let report = ContrastReport::for_subset(&gd, &ring.support());
        println!(
            "  #{:<2} accounts {:?}  affinity {:.1}  avg-degree contrast {:.1}",
            rank + 1,
            report.subset,
            ring.affinity_difference,
            report.average_degree_difference
        );
    }

    // --- Check against the planted ground truth. --------------------------------------
    let planted = pair.planted_of_kind(GroupKind::Emerging);
    let mut recovered = 0;
    for group in &planted {
        let hit = rings
            .iter()
            .any(|ring| ring.support().iter().all(|v| group.vertices.contains(v)));
        println!(
            "planted {} ({} accounts): {}",
            group.name,
            group.vertices.len(),
            if hit { "recovered" } else { "missed" }
        );
        if hit {
            recovered += 1;
        }
    }
    assert!(
        recovered >= 1,
        "at least one planted dark network must be recovered"
    );

    // The EgoScan-style total-weight objective, in contrast, lumps far more accounts
    // together — the comparison the paper draws in Tables VIII/IX.
    let ego = EgoScan::default().solve(&gd);
    println!(
        "\nEgoScan (total-weight objective) returns {} accounts — density {:.2} vs {:.2} for the DCS",
        ego.subset.len(),
        gd.average_degree(&ego.subset),
        gd.average_degree(&report.subset)
    );
}
