//! Property-based tests of the zero-allocation hot path:
//!
//! * solving on a masked [`GraphView`] equals solving the **materialised** induced
//!   subgraph (ids mapped back through the extraction order), for both measures and
//!   for the raw peel;
//! * workspace-reusing solves are **identical** to fresh-workspace solves across
//!   randomized job sequences (the workspace is pure scratch);
//! * the mask-based top-k driver still returns vertex-disjoint, in-range solutions
//!   with non-increasing objectives;
//! * the template-based α-sweep equals a cold per-α `scaled_difference_graph`;
//! * DCSGreedy's `G_{D+}` candidate, peeled on the compact positive part, has the
//!   bits of a peel of the sign-filtered view;
//! * DCSGreedy's max-weight-edge candidate, scanned on the compact positive part,
//!   is the first of the view's tied heaviest edges.

use dcs_core::dcsad::{CandidateKind, DcsGreedy};
use dcs_core::engine::{MeasureSolver, SolveContext};
use dcs_core::{
    alpha_sweep_in, scaled_difference_graph, top_k_in, DensityMeasure, ScaledDifferenceTemplate,
    SharedWorkspace,
};
use dcs_densest::{greedy_peeling_view_into, PeelWorkspace};
use dcs_graph::{GraphBuilder, GraphView, SignedGraph, VertexId, VertexMask};
use proptest::prelude::*;

/// Strategy: a random signed graph over `n <= 18` vertices.
fn arb_graph() -> impl Strategy<Value = SignedGraph> {
    (3usize..18).prop_flat_map(|n| {
        let edge = (0..n as u32, 0..n as u32, -5.0f64..5.0f64);
        (Just(n), proptest::collection::vec(edge, 0..50)).prop_map(|(n, edges)| {
            let mut b = GraphBuilder::new(n);
            for (u, v, w) in edges {
                if u != v && w != 0.0 {
                    b.add_edge(u, v, w);
                }
            }
            b.build()
        })
    })
}

/// Strategy: a graph plus a proper subset of vertices to mask out.
fn arb_graph_and_mask() -> impl Strategy<Value = (SignedGraph, Vec<VertexId>)> {
    arb_graph().prop_flat_map(|g| {
        let n = g.num_vertices();
        (
            Just(g),
            proptest::collection::vec(0..n as VertexId, 0..n.saturating_sub(1)),
        )
    })
}

/// Strategy: a non-negative graph pair over a shared vertex set.
fn arb_pair() -> impl Strategy<Value = (SignedGraph, SignedGraph)> {
    (3usize..14).prop_flat_map(|n| {
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
    /// Peeling and solving on a masked view equals solving the materialised
    /// alive-induced subgraph, with ids mapped back through the extraction order.
    #[test]
    fn view_solve_equals_materialized_induced_subgraph((gd, dead) in arb_graph_and_mask()) {
        let n = gd.num_vertices();
        let mut mask = VertexMask::full(n);
        mask.remove_all(&dead);
        prop_assume!(!mask.is_empty());
        let alive: Vec<VertexId> = mask.iter().collect();
        let (induced, back) = gd.induced_subgraph(&alive);
        let map_back = |subset: &[VertexId]| -> Vec<VertexId> {
            let mut mapped: Vec<VertexId> =
                subset.iter().map(|&v| back[v as usize]).collect();
            mapped.sort_unstable();
            mapped
        };
        let view = GraphView::masked(&gd, &mask);
        let cx = SolveContext::unbounded();

        // Raw greedy peel.
        let mut ws = dcs_densest::PeelWorkspace::new();
        let of_view = dcs_densest::greedy_peeling_view_into(view, &mut ws, |_| false).0;
        let of_induced = dcs_densest::greedy_peeling(&induced);
        prop_assert_eq!(&of_view.subset, &map_back(&of_induced.subset));
        prop_assert!((of_view.average_degree - of_induced.average_degree).abs() < 1e-9);

        // DCSGreedy (average degree).
        let degree = MeasureSolver::for_measure(DensityMeasure::AverageDegree);
        let view_solution = degree.solve_bounded(view, &[], &cx);
        let induced_solution = degree.solve_bounded(&induced, &[], &cx);
        prop_assert_eq!(&view_solution.subset, &map_back(&induced_solution.subset));
        prop_assert!((view_solution.objective - induced_solution.objective).abs() < 1e-9);

        // NewSEA (affinity): the working graph is the positive part, masked.  The
        // reference is the id-stable materialisation of the same view (dead vertices
        // kept as isolated): identical vertex ids keep the solver's hash-map
        // iteration orders identical, so the match is exact, not approximate.
        let gd_plus = gd.positive_part();
        let plus_view = GraphView::masked(&gd_plus, &mask);
        let affinity = MeasureSolver::for_measure(DensityMeasure::GraphAffinity);
        let view_solution = affinity.solve_bounded(plus_view, &[], &cx);
        let materialized = plus_view.materialize();
        let materialized_solution = affinity.solve_bounded(&materialized, &[], &cx);
        prop_assert_eq!(&view_solution.subset, &materialized_solution.subset);
        prop_assert_eq!(view_solution.objective, materialized_solution.objective);
        // And the mined support never touches a dead vertex.
        prop_assert!(view_solution.subset.iter().all(|&v| mask.contains(v)));
    }

    /// A shared workspace is pure scratch: across a randomized sequence of jobs
    /// (mines under both measures, top-k, seeded re-mines) every workspace-reusing
    /// solve is identical to a fresh-workspace solve of the same job.
    #[test]
    fn workspace_reuse_is_bit_identical_across_job_sequences(
        graphs in proptest::collection::vec(arb_graph(), 1..4),
        jobs in proptest::collection::vec((0usize..4, 0usize..3), 1..12),
    ) {
        let shared = SharedWorkspace::new();
        let warm_cx = SolveContext::unbounded().with_workspace(&shared);
        let cold_cx = SolveContext::unbounded();
        let mut last_subset: Vec<VertexId> = Vec::new();
        for (kind, graph_pick) in jobs {
            let gd = &graphs[graph_pick % graphs.len()];
            match kind {
                0 | 1 => {
                    let measure = if kind == 0 {
                        DensityMeasure::AverageDegree
                    } else {
                        DensityMeasure::GraphAffinity
                    };
                    let solver = MeasureSolver::for_measure(measure);
                    let warm = solver.solve_bounded(gd, &last_subset, &warm_cx);
                    let cold = solver.solve_bounded(gd, &last_subset, &cold_cx);
                    prop_assert_eq!(&warm.subset, &cold.subset);
                    prop_assert_eq!(warm.objective, cold.objective);
                    last_subset = warm.subset;
                }
                2 => {
                    let warm = top_k_in(
                        gd, 3, DensityMeasure::AverageDegree, &warm_cx,
                    );
                    let cold = top_k_in(
                        gd, 3, DensityMeasure::AverageDegree, &cold_cx,
                    );
                    prop_assert_eq!(warm.solutions.len(), cold.solutions.len());
                    for (w, c) in warm.solutions.iter().zip(&cold.solutions) {
                        prop_assert_eq!(&w.subset, &c.subset);
                        prop_assert_eq!(w.objective, c.objective);
                    }
                }
                _ => {
                    let warm = greedy_peeling_view_into(
                        GraphView::full(gd), &mut shared.lock().peel, |_| false,
                    ).0;
                    let cold = greedy_peeling_view_into(
                        GraphView::full(gd), &mut PeelWorkspace::new(), |_| false,
                    ).0;
                    prop_assert_eq!(&warm.subset, &cold.subset);
                    prop_assert_eq!(warm.average_degree, cold.average_degree);
                }
            }
        }
    }

    /// The mask-based top-k driver returns vertex-disjoint, in-range solutions in
    /// non-increasing objective order, for both measures.
    #[test]
    fn masked_top_k_is_disjoint_and_ordered(gd in arb_graph(), k in 1usize..5) {
        for measure in [DensityMeasure::AverageDegree, DensityMeasure::GraphAffinity] {
            let outcome = top_k_in(
                &gd, k, measure, &SolveContext::unbounded(),
            );
            prop_assert!(outcome.solutions.len() <= k);
            let mut seen = VertexMask::empty(gd.num_vertices());
            for solution in &outcome.solutions {
                prop_assert!(solution.objective > 0.0);
                for &v in &solution.subset {
                    prop_assert!((v as usize) < gd.num_vertices());
                    prop_assert!(seen.insert(v), "vertex {} mined twice", v);
                }
            }
            for pair in outcome.solutions.windows(2) {
                prop_assert!(pair[0].objective >= pair[1].objective - 1e-9);
            }
        }
    }

    /// The α-sweep's in-place template reweighting is exactly the cold per-α
    /// `scaled_difference_graph`, and the sweep over it matches a cold per-α sweep.
    #[test]
    fn template_sweep_matches_cold_rebuild((g1, g2) in arb_pair(), raw_alphas in proptest::collection::vec(0.0f64..3.0, 1..5)) {
        let template = ScaledDifferenceTemplate::new(&g2, &g1).unwrap();
        for &alpha in &raw_alphas {
            prop_assert_eq!(
                template.materialize(alpha),
                scaled_difference_graph(&g2, &g1, alpha).unwrap()
            );
        }
        let sweep = alpha_sweep_in(
            &g2, &g1, &raw_alphas, DensityMeasure::AverageDegree, &SolveContext::unbounded(),
        ).unwrap();
        prop_assert_eq!(sweep.points.len(), raw_alphas.len());
        for point in &sweep.points {
            let gd = scaled_difference_graph(&g2, &g1, point.alpha).unwrap();
            let cold = MeasureSolver::for_measure(DensityMeasure::AverageDegree)
                .solve_bounded(&gd, &[], &SolveContext::unbounded());
            // Warm starting never hurts: the sweep's point is at least as good.
            prop_assert!(point.objective >= cold.objective - 1e-9);
        }
    }

    /// DCSGreedy peels `G_{D+}` on a compact copy of the view's positive entries
    /// under the caller's mask.  Its `ρ_{D+}(S₂)` has the bits of a peel of the
    /// sign-filtered view, which involves no compaction, on masked graphs with one
    /// workspace reused across all of them, at 1 and 4 solver threads.
    #[test]
    fn gd_plus_candidate_equals_the_sign_filtered_peel(
        cases in proptest::collection::vec(arb_graph_and_mask(), 1..5),
    ) {
        let shared = SharedWorkspace::new();
        for threads in [1, 4] {
            let cx = SolveContext::unbounded().with_workspace(&shared).with_threads(threads);
            for (gd, dead) in &cases {
                let mut mask = VertexMask::full(gd.num_vertices());
                mask.remove_all(dead);
                let view = GraphView::masked(gd, &mask);
                let solution = DcsGreedy::new().solve_bounded(view, &[], &cx).0;
                let expected = if view.has_positive_edge() {
                    greedy_peeling_view_into(
                        view.positive_part(), &mut PeelWorkspace::new(), |_| false,
                    ).0.average_degree
                } else {
                    0.0
                };
                prop_assert_eq!(solution.rho_gd_plus.to_bits(), expected.to_bits());
            }
        }
    }

    /// On graphs whose densest subgraphs are single heavy edges — disjoint
    /// edges of one weight, every other positive edge light and away from them,
    /// only negative edges touching them — DCSGreedy returns its max-edge
    /// candidate, and that candidate is the first alive heavy edge in `edges()`
    /// order: ties go to the first, under random masks too.
    #[test]
    fn max_edge_candidate_is_the_first_tied_heaviest_edge(
        n in 6usize..30,
        pairs in proptest::collection::vec((0u32..30, 0u32..30), 1..8),
        noise in proptest::collection::vec((0u32..30, 0u32..30, prop::sample::select(vec![1.0, 0.5, -1.0, -2.0])), 0..60),
        dead in proptest::collection::vec(any::<bool>(), 30),
    ) {
        let mut heavy = vec![false; n];
        let mut b = GraphBuilder::new(n);
        let mut heavy_edges = Vec::new();
        for (u, v) in pairs {
            let (u, v) = (u as usize % n, v as usize % n);
            if u != v && !heavy[u] && !heavy[v] {
                heavy[u] = true;
                heavy[v] = true;
                heavy_edges.push((u.min(v) as VertexId, u.max(v) as VertexId));
                b.add_edge(u as VertexId, v as VertexId, 100.0);
            }
        }
        for (u, v, w) in noise {
            let (u, v) = (u as usize % n, v as usize % n);
            let on_heavy = heavy_edges.contains(&(u.min(v) as VertexId, u.max(v) as VertexId));
            if u != v && !on_heavy && (w < 0.0 || !(heavy[u] || heavy[v])) {
                b.add_edge(u as VertexId, v as VertexId, w);
            }
        }
        let gd = b.build();
        let mut mask = VertexMask::full(n);
        mask.remove_all(&(0..n as VertexId).filter(|&v| dead[v as usize]).collect::<Vec<_>>());
        let shared = SharedWorkspace::new();
        let cx = SolveContext::unbounded().with_workspace(&shared);
        for view in [GraphView::full(&gd), GraphView::masked(&gd, &mask)] {
            let first_heavy = view
                .edges()
                .find(|&(u, v, _)| heavy_edges.contains(&(u, v)))
                .map(|(u, v, _)| vec![u, v]);
            let solution = DcsGreedy::new().solve_bounded(view, &[], &cx).0;
            if let Some(edge) = first_heavy {
                prop_assert_eq!(solution.winner, CandidateKind::MaxWeightEdge);
                prop_assert_eq!(solution.subset, edge);
            }
        }
    }
}
