//! Property-based tests of the DCS algorithms on random signed graphs: the invariants
//! proved in the paper must hold on every instance.  The exponential-time oracles they
//! compare against (the optimal DCSAD subset, the maximum clique and the Motzkin–Straus
//! optimum) are defined, and unit-tested, at the end of this file.

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

// ---------------------------------------------------------------- brute-force oracles

/// Maximum vertex count accepted by the subset-enumeration oracle.
const MAX_BRUTE_FORCE_VERTICES: usize = 22;

/// Brute-force optimum of the DCSAD problem `max_S W_D(S)/|S|` by enumerating every
/// non-empty vertex subset.
///
/// # Panics
///
/// Panics if the graph has more than 22 vertices (2²² subsets is the practical limit for
/// a test oracle).
fn brute_force_dcsad(gd: &SignedGraph) -> (Vec<VertexId>, Weight) {
    let n = gd.num_vertices();
    assert!(
        n <= MAX_BRUTE_FORCE_VERTICES,
        "brute_force_dcsad is limited to {MAX_BRUTE_FORCE_VERTICES} vertices (got {n})"
    );
    let mut best: (Vec<VertexId>, Weight) = (vec![0], 0.0);
    for mask in 1u64..(1u64 << n) {
        let subset: Vec<VertexId> = (0..n as u32).filter(|&v| mask & (1 << v) != 0).collect();
        let density = gd.average_degree(&subset);
        if density > best.1 {
            best = (subset, density);
        }
    }
    best
}

/// Brute-force maximum clique of the *positive part* of a graph (edges with weight > 0),
/// returned as a sorted vertex list.  Uses a simple branch-and-bound over the vertex
/// ordering; fine up to a few dozen vertices.
fn brute_force_max_clique(g: &SignedGraph) -> Vec<VertexId> {
    let n = g.num_vertices();
    let adjacent = |u: VertexId, v: VertexId| matches!(g.edge_weight(u, v), Some(w) if w > 0.0);
    let mut best: Vec<VertexId> = Vec::new();
    let mut current: Vec<VertexId> = Vec::new();

    fn extend(
        candidates: &[VertexId],
        current: &mut Vec<VertexId>,
        best: &mut Vec<VertexId>,
        adjacent: &dyn Fn(VertexId, VertexId) -> bool,
    ) {
        if current.len() + candidates.len() <= best.len() {
            return; // bound
        }
        if candidates.is_empty() {
            if current.len() > best.len() {
                *best = current.clone();
            }
            return;
        }
        for (idx, &v) in candidates.iter().enumerate() {
            if current.len() + (candidates.len() - idx) <= best.len() {
                break;
            }
            let next: Vec<VertexId> = candidates[idx + 1..]
                .iter()
                .copied()
                .filter(|&u| adjacent(u, v))
                .collect();
            current.push(v);
            extend(&next, current, best, adjacent);
            current.pop();
        }
    }

    let all: Vec<VertexId> = (0..n as VertexId).collect();
    extend(&all, &mut current, &mut best, &adjacent);
    best.sort_unstable();
    best
}

/// The Motzkin–Straus optimum of the DCSGA problem for an **unweighted** graph:
/// `1 − 1/ω(G)` where `ω(G)` is the clique number (0 for an edgeless graph).
///
/// Only meaningful when every positive edge has weight exactly 1.
fn motzkin_straus_optimum(g: &SignedGraph) -> Weight {
    let clique = brute_force_max_clique(g);
    if clique.len() <= 1 {
        0.0
    } else {
        1.0 - 1.0 / clique.len() as Weight
    }
}

#[test]
fn dcsad_on_signed_triangle() {
    let gd = GraphBuilder::from_edges(4, vec![(0, 1, 2.0), (1, 2, 2.0), (0, 2, 2.0), (2, 3, -5.0)]);
    let (subset, density) = brute_force_dcsad(&gd);
    assert_eq!(subset, vec![0, 1, 2]);
    assert!((density - 4.0).abs() < 1e-12);
}

#[test]
fn dcsad_all_negative_graph() {
    let gd = GraphBuilder::from_edges(3, vec![(0, 1, -1.0), (1, 2, -2.0)]);
    let (subset, density) = brute_force_dcsad(&gd);
    assert_eq!(subset.len(), 1);
    assert_eq!(density, 0.0);
}

#[test]
fn max_clique_ignores_negative_edges() {
    let g = GraphBuilder::from_edges(
        5,
        vec![
            (0, 1, 1.0),
            (1, 2, 1.0),
            (0, 2, 1.0),
            (2, 3, -1.0),
            (3, 4, -1.0),
            (0, 3, 1.0),
            (1, 3, 1.0),
        ],
    );
    // Positive clique {0,1,2} plus vertex 3 connected positively to 0,1 but
    // negatively to 2, so the max positive clique is {0,1,2} or {0,1,3} (both size 3).
    let clique = brute_force_max_clique(&g);
    assert_eq!(clique.len(), 3);
    assert!(g.is_positive_clique(&clique));
}

#[test]
fn max_clique_of_k5() {
    let mut b = GraphBuilder::new(7);
    for u in 0..5u32 {
        for v in (u + 1)..5u32 {
            b.add_edge(u, v, 1.0);
        }
    }
    b.add_edge(5, 6, 1.0);
    let clique = brute_force_max_clique(&b.build());
    assert_eq!(clique, vec![0, 1, 2, 3, 4]);
}

#[test]
fn motzkin_straus_values() {
    let triangle = GraphBuilder::from_edges(3, vec![(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)]);
    assert!((motzkin_straus_optimum(&triangle) - 2.0 / 3.0).abs() < 1e-12);
    let edge = GraphBuilder::from_edges(2, vec![(0, 1, 1.0)]);
    assert!((motzkin_straus_optimum(&edge) - 0.5).abs() < 1e-12);
    let empty = SignedGraph::empty(3);
    assert_eq!(motzkin_straus_optimum(&empty), 0.0);
}

#[test]
#[should_panic(expected = "limited")]
fn brute_force_rejects_large_graphs() {
    brute_force_dcsad(&SignedGraph::empty(30));
}
