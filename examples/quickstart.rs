//! Quickstart: mine a density contrast subgraph from two small hand-made graphs.
//!
//! Run with:
//! ```text
//! cargo run --release --example quickstart
//! ```

use dcs::prelude::*;

fn main() {
    // Two graphs over the same six vertices.  Think of them as "connection strength last
    // year" (G1) and "connection strength this year" (G2): the triangle {0, 1, 2} got
    // much tighter, while the pair {3, 4} cooled down.
    let g1 = GraphBuilder::from_edges(6, vec![(0, 1, 1.0), (1, 2, 1.0), (3, 4, 6.0), (4, 5, 2.0)]);
    let g2 = GraphBuilder::from_edges(
        6,
        vec![
            (0, 1, 5.0),
            (1, 2, 5.0),
            (0, 2, 4.0),
            (3, 4, 1.0),
            (4, 5, 2.0),
        ],
    );

    // The difference graph G_D = G2 - G1 has signed weights.
    let gd = difference_graph(&g2, &g1).expect("same vertex set");
    println!(
        "difference graph: {} vertices, {} positive / {} negative edges",
        gd.num_vertices(),
        gd.num_positive_edges(),
        gd.num_negative_edges()
    );

    // --- DCS with respect to average degree (DCSGreedy, Algorithm 2) ----------------
    let by_degree = DcsGreedy::default().solve(&gd);
    println!("\nDCS w.r.t. average degree");
    println!("  subset             : {:?}", by_degree.subset);
    println!("  density difference : {:.3}", by_degree.density_difference);
    println!(
        "  approx. ratio      : {:.3}",
        by_degree.data_dependent_ratio
    );

    // --- DCS with respect to graph affinity (NewSEA, Algorithm 5) -------------------
    let by_affinity = NewSea::default().solve(&gd);
    println!("\nDCS w.r.t. graph affinity");
    println!("  support            : {:?}", by_affinity.support());
    println!(
        "  affinity difference: {:.3}",
        by_affinity.affinity_difference
    );
    for (v, weight) in by_affinity.embedding.iter() {
        println!("    vertex {v}: participation {weight:.3}");
    }

    // Full report (the numbers the paper tabulates).
    let report = ContrastReport::for_embedding(&gd, &by_affinity.embedding);
    println!(
        "\nreport: size={} positive clique={} avg-degree diff={:.3} edge-density diff={:.3}",
        report.size,
        report.is_positive_clique,
        report.average_degree_difference,
        report.edge_density_difference
    );

    // The emerging triangle is found by both measures.
    assert_eq!(by_degree.subset, vec![0, 1, 2]);
    assert_eq!(by_affinity.support(), vec![0, 1, 2]);
}
