//! Property-based tests of the dense workspace-backed DCSGA path:
//!
//! * NewSEA solves on a workspace reused across a whole job sequence are
//!   **bit-identical** to solves on a fresh workspace, across randomized graphs,
//!   seeded and unseeded (the risky part: arena and compact-buffer resets between
//!   solves);
//! * NewSEA on the signed `G_D` equals solving the **materialised**
//!   `positive_part()`, bit for bit;
//! * the solutions really are KKT points of the positive view (via the view-based
//!   KKT oracle) and positive cliques of `G_D`.

use dcs_core::dcsga::kkt::kkt_violation;
use dcs_core::dcsga::{DcsgaSolution, NewSea, SeaCd};
use dcs_core::{Embedding, SharedWorkspace, SolveContext, SolverWorkspace};
use dcs_graph::{GraphBuilder, GraphView, SignedGraph, VertexId};
use proptest::prelude::*;

/// Strategy: a random signed graph over `n <= 16` vertices.
fn arb_graph() -> impl Strategy<Value = SignedGraph> {
    (3usize..16).prop_flat_map(|n| {
        let edge = (0..n as u32, 0..n as u32, -5.0f64..5.0f64);
        (Just(n), proptest::collection::vec(edge, 0..45)).prop_map(|(n, edges)| {
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

/// Strategy: a graph plus a (possibly useless) warm-start seed.
fn arb_graph_and_seed() -> impl Strategy<Value = (SignedGraph, Vec<VertexId>)> {
    arb_graph().prop_flat_map(|g| {
        let n = g.num_vertices();
        (
            Just(g),
            proptest::collection::vec(0..(n as VertexId + 2), 0..6),
        )
    })
}

/// Exact (bitwise) equality of two DCSGA solutions: same support, same values down
/// to the last bit, same objective bits, same sweep statistics.
fn assert_bit_identical(a: &DcsgaSolution, b: &DcsgaSolution) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.support(), b.support());
    for (u, x) in a.embedding.iter() {
        prop_assert_eq!(x.to_bits(), b.embedding.get(u).to_bits());
    }
    prop_assert_eq!(
        a.affinity_difference.to_bits(),
        b.affinity_difference.to_bits()
    );
    prop_assert_eq!(&a.stats, &b.stats);
    Ok(())
}

proptest! {
    /// NewSEA on a workspace reused across a sequence of seeded and unseeded solves
    /// on alternating graphs equals NewSEA on a fresh workspace bit for bit (stale
    /// arena state would show up here).
    #[test]
    fn reused_workspace_newsea_is_bit_identical_to_fresh(
        jobs in proptest::collection::vec(arb_graph_and_seed(), 1..5),
    ) {
        let shared = SharedWorkspace::new();
        let warm_cx = SolveContext::unbounded().with_workspace(&shared);
        let fresh_cx = SolveContext::unbounded();
        let solver = NewSea::default();
        for (gd, seed) in &jobs {
            let reused = solver.solve_bounded(gd, seed, &warm_cx).0;
            let fresh = solver.solve_bounded(gd, seed, &fresh_cx).0;
            assert_bit_identical(&reused, &fresh)?;
            // And the cold (unseeded) solves agree too.
            let reused_cold = solver.solve_bounded(gd, &[], &warm_cx).0;
            let fresh_cold = solver.solve_bounded(gd, &[], &fresh_cx).0;
            assert_bit_identical(&reused_cold, &fresh_cold)?;
        }
    }

    /// NewSEA on the signed difference graph — the canonical path, which compacts
    /// its positive part — equals solving the materialised `positive_part()`, bit
    /// for bit.
    #[test]
    fn view_newsea_equals_materialized_positive_part(gd in arb_graph()) {
        let solver = NewSea::default();
        let via_view = solver.solve(&gd);
        let gd_plus = gd.positive_part();
        let via_materialized = solver
            .solve_bounded(&gd_plus, &[], &SolveContext::unbounded())
            .0;
        assert_bit_identical(&via_view, &via_materialized)?;
        // The solution is a positive clique of G_D (Theorem 5) and a KKT point of
        // the positive view (Eq. 7), up to the configured tolerances.
        let support = via_view.support();
        prop_assert!(gd.is_positive_clique(&support));
        if !support.is_empty() {
            let pview = GraphView::full(&gd).positive_part();
            prop_assert!(
                kkt_violation(pview, &via_view.embedding) < 0.2,
                "violation {}",
                kkt_violation(pview, &via_view.embedding)
            );
        }
    }

    /// A dense SEACD run on the positive-filtered view equals the same run on the
    /// materialised positive part, for every possible initialisation vertex.
    #[test]
    fn seacd_view_runs_match_materialized(gd in arb_graph()) {
        let solver = SeaCd::default();
        let gd_plus = gd.positive_part();
        let pview = GraphView::full(&gd).positive_part();
        let mut ws = SolverWorkspace::new();
        for u in 0..gd.num_vertices() as VertexId {
            let on_view = solver.run_on_view_in(pview, Embedding::singleton(u), &mut ws, |_| false);
            let on_graph = solver.run_from_vertex(&gd_plus, u);
            prop_assert_eq!(on_view.embedding.support(), on_graph.embedding.support());
            prop_assert_eq!(on_view.objective.to_bits(), on_graph.objective.to_bits());
            prop_assert_eq!(on_view.rounds, on_graph.rounds);
            prop_assert_eq!(on_view.cd_iterations, on_graph.cd_iterations);
        }
    }
}
