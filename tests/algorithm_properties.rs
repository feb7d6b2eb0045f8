//! Property-based tests of the DCS algorithms on random signed graphs: the invariants
//! proved in the paper must hold on every instance.

use dcs::baselines::exact::{brute_force_dcsad, motzkin_straus_optimum};
use dcs::core::dcsga::kkt::{is_kkt_point, kkt_violation};
use dcs::core::dcsga::{refine, NewSea, SeaCd};
use dcs::core::{difference_graph, DcsError};
use dcs::prelude::*;
use proptest::prelude::*;

/// Strategy: a random signed graph over at most 14 vertices (small enough for the
/// brute-force oracles).
fn arb_signed_graph() -> impl Strategy<Value = SignedGraph> {
    (4usize..14).prop_flat_map(|n| {
        let edge = (0..n as u32, 0..n as u32, -4.0f64..4.0f64);
        (Just(n), proptest::collection::vec(edge, 0..50)).prop_map(|(n, edges)| {
            let mut b = GraphBuilder::new(n);
            for (u, v, w) in edges {
                if u != v && w.abs() > 0.05 {
                    b.add_edge(u, v, w);
                }
            }
            b.build()
        })
    })
}

/// Strategy: a random *unweighted* graph (all weights 1) for Motzkin–Straus checks.
fn arb_unweighted_graph() -> impl Strategy<Value = SignedGraph> {
    (4usize..12).prop_flat_map(|n| {
        let edge = (0..n as u32, 0..n as u32);
        (Just(n), proptest::collection::vec(edge, 0..40)).prop_map(|(n, edges)| {
            // Repeated draws of a pair must keep weight 1, so each pair is added once.
            let mut pairs: Vec<(u32, u32)> = edges
                .into_iter()
                .filter(|&(u, v)| u != v)
                .map(|(u, v)| (u.min(v), u.max(v)))
                .collect();
            pairs.sort_unstable();
            pairs.dedup();
            let mut b = GraphBuilder::new(n);
            for (u, v) in pairs {
                b.add_edge(u, v, 1.0);
            }
            b.build()
        })
    })
}

/// Strategy: a random pair of non-negative graphs over the same vertex set.
fn arb_graph_pair() -> impl Strategy<Value = (SignedGraph, SignedGraph)> {
    (4usize..12).prop_flat_map(|n| {
        let edge = (0..n as u32, 0..n as u32, 0.1f64..5.0f64);
        (
            Just(n),
            proptest::collection::vec(edge.clone(), 0..40),
            proptest::collection::vec(edge, 0..40),
        )
            .prop_map(|(n, e1, e2)| {
                let build = |edges: Vec<(u32, u32, f64)>| {
                    let mut b = GraphBuilder::new(n);
                    for (u, v, w) in edges {
                        if u != v {
                            b.add_edge(u, v, w);
                        }
                    }
                    b.build()
                };
                (build(e1), build(e2))
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// DCSGreedy never exceeds the true optimum, stays within its data-dependent ratio,
    /// returns a connected subgraph, and its density is at least the max edge weight
    /// (the 1/(n−1)-optimality certificate of Section IV-B).
    #[test]
    fn dcsgreedy_invariants(gd in arb_signed_graph()) {
        let sol = DcsGreedy::default().solve(&gd);
        let (_, opt) = brute_force_dcsad(&gd);
        prop_assert!(sol.density_difference <= opt + 1e-9);
        prop_assert!(dcs::graph::components::is_connected(&gd, &sol.subset));
        if let Some((_, _, wmax)) = gd.max_weight_edge() {
            if wmax > 0.0 {
                prop_assert!(sol.density_difference + 1e-9 >= wmax,
                    "density {} below max edge weight {}", sol.density_difference, wmax);
                // Theorem 2: the certified ratio really bounds the optimality gap.
                let certified = sol.data_dependent_ratio;
                prop_assert!(opt <= certified * sol.density_difference + 1e-9);
            }
        }
        // Re-evaluating the subset matches the reported density.
        prop_assert!((gd.average_degree(&sol.subset) - sol.density_difference).abs() < 1e-9);
    }

    /// NewSEA always returns a positive clique (Theorem 5), its reported affinity matches
    /// the embedding, the embedding is (approximately) a KKT point, and the objective is
    /// at least the best single edge (a trivially attainable solution).
    #[test]
    fn newsea_invariants(gd in arb_signed_graph()) {
        let sol = NewSea::default().solve(&gd);
        let support = sol.support();
        prop_assert!(gd.is_positive_clique(&support));
        prop_assert!((sol.embedding.affinity(&gd) - sol.affinity_difference).abs() < 1e-9);
        if let Some((_, _, wmax)) = gd.max_weight_edge() {
            if wmax > 0.0 {
                // A single edge {u,v} with uniform weights achieves w/2.
                prop_assert!(sol.affinity_difference + 1e-6 >= wmax / 2.0,
                    "affinity {} below single-edge bound {}", sol.affinity_difference, wmax / 2.0);
                // The embedding is a KKT point of the positive part (the graph NewSEA
                // actually optimises over).
                let gd_plus = gd.positive_part();
                prop_assert!(kkt_violation(&gd_plus, &sol.embedding) <= 0.1,
                    "KKT violation {}", kkt_violation(&gd_plus, &sol.embedding));
            } else {
                prop_assert_eq!(sol.affinity_difference, 0.0);
            }
        }
        // Non-negative objective always (a singleton has affinity 0).
        prop_assert!(sol.affinity_difference >= 0.0);
    }

    /// On unweighted graphs the DCSGA optimum is 1 − 1/ω(G) (Motzkin–Straus); NewSEA must
    /// reach it on these small instances (it initialises from every promising vertex).
    #[test]
    fn newsea_matches_motzkin_straus(g in arb_unweighted_graph()) {
        let optimum = motzkin_straus_optimum(&g);
        let sol = NewSea::default().solve(&g);
        prop_assert!(sol.affinity_difference <= optimum + 1e-6);
        prop_assert!(sol.affinity_difference >= optimum - 1e-3,
            "NewSEA {} vs Motzkin–Straus {}", sol.affinity_difference, optimum);
    }

    /// Refinement never decreases the objective and always lands on a positive clique.
    #[test]
    fn refinement_invariants(gd in arb_signed_graph(), seed_vertex in 0u32..14) {
        let gd_plus = gd.positive_part();
        if gd_plus.num_edges() == 0 || seed_vertex as usize >= gd_plus.num_vertices() {
            return Ok(());
        }
        let run = SeaCd::default().run_from_vertex(&gd_plus, seed_vertex);
        let before = run.embedding.affinity(&gd_plus);
        let refined = refine(&gd_plus, run.embedding);
        let after = refined.affinity(&gd_plus);
        prop_assert!(after >= before - 1e-6);
        prop_assert!(gd_plus.is_positive_clique(&refined.support()));
        prop_assert!(gd.is_positive_clique(&refined.support()));
    }

    /// SEACD with the coordinate-descent shrink never commits an expansion error and its
    /// output satisfies the KKT conditions on the positive part, from every
    /// non-isolated initialisation.  (The sweep's refined best need not be a KKT point,
    /// so each unrefined run is checked instead.)
    #[test]
    fn seacd_never_commits_expansion_errors(gd in arb_signed_graph()) {
        let gd_plus = gd.positive_part();
        for u in gd_plus.vertices().filter(|&u| gd_plus.degree(u) > 0) {
            let run = SeaCd::default().run_from_vertex(&gd_plus, u);
            prop_assert_eq!(run.expansion_errors, 0);
            prop_assert!(is_kkt_point(&gd_plus, &run.embedding, 0.1), "init {}", u);
        }
    }

    /// The difference graph is the exact edge-wise difference and flipping the direction
    /// negates it.
    #[test]
    fn difference_graph_is_antisymmetric((g1, g2) in arb_graph_pair()) {
        let d21 = difference_graph(&g2, &g1).unwrap();
        let d12 = difference_graph(&g1, &g2).unwrap();
        for (u, v, w) in d21.edges() {
            let w1 = g1.edge_weight(u, v).unwrap_or(0.0);
            let w2 = g2.edge_weight(u, v).unwrap_or(0.0);
            prop_assert!((w - (w2 - w1)).abs() < 1e-9);
            prop_assert!((d12.edge_weight(u, v).unwrap() + w).abs() < 1e-9);
        }
        prop_assert_eq!(d21.num_positive_edges(), d12.num_negative_edges());
    }

    /// The exhaustive SEACD sweep is never worse than NewSEA, and NewSEA is never worse
    /// than a plain SEACD run refined — the smart initialisation must not lose quality.
    #[test]
    fn newsea_quality_equals_exhaustive_sweep(gd in arb_signed_graph()) {
        let gd_plus = gd.positive_part();
        if gd_plus.num_edges() == 0 {
            return Ok(());
        }
        let newsea = NewSea::default().solve(&gd);
        let sweep = SeaCd::default().sweep(&gd_plus, None, false);
        prop_assert!(newsea.affinity_difference >= sweep.best_objective - 1e-6,
            "NewSEA {} < exhaustive {}", newsea.affinity_difference, sweep.best_objective);
        prop_assert!(newsea.affinity_difference <= sweep.best_objective + 1e-6);
    }
}

#[test]
fn error_paths_are_reported() {
    let g_small = GraphBuilder::from_edges(3, vec![(0, 1, 1.0)]);
    let g_large = GraphBuilder::from_edges(4, vec![(0, 1, 1.0)]);
    match difference_graph(&g_large, &g_small) {
        Err(DcsError::VertexCountMismatch {
            g1_vertices,
            g2_vertices,
        }) => {
            assert_eq!(g1_vertices, 3);
            assert_eq!(g2_vertices, 4);
        }
        other => panic!("expected mismatch error, got {other:?}"),
    }
}
