//! Property-based tests of the solver engine: bounded solves always return valid
//! best-so-far results with the correct termination, and an unbounded engine solve
//! is identical to the `solve()` conveniences.

use std::time::Duration;

use dcs_core::dcsad::DcsGreedy;
use dcs_core::dcsga::NewSea;
use dcs_core::engine::{CancelToken, EngineSolution, MeasureSolver, SolveContext, Termination};
use dcs_core::DensityMeasure;
use dcs_graph::{GraphBuilder, SignedGraph};
use proptest::prelude::*;

/// Strategy: a random signed graph over `n <= 20` vertices.
fn arb_graph() -> impl Strategy<Value = SignedGraph> {
    (2usize..20).prop_flat_map(|n| {
        let edge = (0..n as u32, 0..n as u32, -5.0f64..5.0f64);
        (Just(n), proptest::collection::vec(edge, 0..60)).prop_map(|(n, edges)| {
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

/// A bounded solve's result must be a valid subset of `gd`: in-range, sorted,
/// deduplicated, and consistent with the claimed objective where checkable.
fn assert_valid(solution: &EngineSolution, gd: &SignedGraph) {
    let n = gd.num_vertices();
    assert!(solution.subset.iter().all(|&v| (v as usize) < n));
    assert!(solution.subset.windows(2).all(|w| w[0] < w[1]));
    if let Some(embedding) = solution.embedding() {
        assert_eq!(embedding.support(), solution.subset);
        assert!((embedding.affinity(gd) - solution.objective).abs() < 1e-6);
    }
}

proptest! {
    /// A solve under a pre-cancelled token returns a valid subset and reports
    /// `Cancelled` — unless the solver converged before its first checkpoint
    /// (trivial instances), in which case the result must equal the unbounded one.
    #[test]
    fn cancelled_solves_return_valid_best_so_far(gd in arb_graph()) {
        let token = CancelToken::new();
        token.cancel();
        let cx = SolveContext::unbounded().with_cancel(&token);
        for measure in [DensityMeasure::AverageDegree, DensityMeasure::GraphAffinity] {
            let solver = MeasureSolver::for_measure(measure);
            let bounded = solver.solve_bounded(&gd, &[], &cx);
            assert_valid(&bounded, &gd);
            match bounded.termination() {
                Termination::Cancelled => {}
                Termination::Converged => {
                    let unbounded = solver.solve_bounded(&gd, &[], &SolveContext::unbounded());
                    prop_assert_eq!(bounded.subset, unbounded.subset);
                }
                other => prop_assert!(false, "unexpected termination {:?}", other),
            }
        }
    }

    /// An already-expired deadline behaves like a cancellation with `Deadline`.
    #[test]
    fn expired_deadline_solves_return_valid_best_so_far(gd in arb_graph()) {
        let cx = SolveContext::unbounded().with_deadline(Duration::ZERO);
        for measure in [DensityMeasure::AverageDegree, DensityMeasure::GraphAffinity] {
            let solver = MeasureSolver::for_measure(measure);
            let bounded = solver.solve_bounded(&gd, &[], &cx);
            assert_valid(&bounded, &gd);
            prop_assert!(matches!(
                bounded.termination(),
                Termination::Deadline | Termination::Converged
            ));
        }
    }

    /// A one-unit budget truncates any non-trivial solve with `BudgetExhausted`,
    /// still yielding a valid subset, and never reports more than a couple of units.
    #[test]
    fn tiny_budget_solves_are_truncated_but_valid(gd in arb_graph()) {
        let cx = SolveContext::unbounded().with_budget(1);
        for measure in [DensityMeasure::AverageDegree, DensityMeasure::GraphAffinity] {
            let solver = MeasureSolver::for_measure(measure);
            let bounded = solver.solve_bounded(&gd, &[], &cx);
            assert_valid(&bounded, &gd);
            prop_assert!(matches!(
                bounded.termination(),
                Termination::BudgetExhausted | Termination::Converged
            ));
        }
    }

    /// `SolveContext::unbounded()` through the engine is *identical* to the
    /// `solve()` conveniences: same subset, same objective, and the termination is
    /// always `Converged`.
    #[test]
    fn unbounded_engine_equals_legacy_solve(gd in arb_graph()) {
        let cx = SolveContext::unbounded();

        let legacy = DcsGreedy::default().solve(&gd);
        let engine = MeasureSolver::AverageDegree(DcsGreedy::default()).solve_bounded(&gd, &[], &cx);
        prop_assert_eq!(engine.termination(), Termination::Converged);
        prop_assert_eq!(&engine.subset, &legacy.subset);
        prop_assert_eq!(engine.objective, legacy.density_difference);

        let legacy = NewSea::default().solve(&gd);
        let engine = MeasureSolver::Affinity(NewSea::default()).solve_bounded(&gd, &[], &cx);
        prop_assert_eq!(engine.termination(), Termination::Converged);
        prop_assert_eq!(engine.subset, legacy.support());
        prop_assert!((engine.objective - legacy.affinity_difference).abs() < 1e-12);
    }

    /// An affinity solve's bounded result never *beats* the converged solve: the
    /// bounded sweep runs a subset of the initialisations, each refined identically.
    /// (No such guarantee exists for DCSAD — component refinement of a truncated
    /// peel's candidate can occasionally exceed the converged pick — so only the
    /// validity of its bounded result is asserted.)
    #[test]
    fn bounded_objective_never_exceeds_converged(gd in arb_graph()) {
        let affinity = MeasureSolver::for_measure(DensityMeasure::GraphAffinity);
        let converged = affinity.solve_bounded(&gd, &[], &SolveContext::unbounded());
        let bounded = affinity.solve_bounded(&gd, &[], &SolveContext::unbounded().with_budget(5));
        prop_assert!(bounded.objective <= converged.objective + 1e-9);
        prop_assert!(converged.stats.termination.is_converged());

        let degree = MeasureSolver::for_measure(DensityMeasure::AverageDegree);
        let bounded = degree.solve_bounded(&gd, &[], &SolveContext::unbounded().with_budget(5));
        assert_valid(&bounded, &gd);
    }
}

/// A budgeted DCSGreedy solve returns the same subset, density bits, work count
/// and termination whether or not a far deadline rides along: the deadline's
/// strided clock reads never move where a budget stops the peels.
#[test]
fn budgeted_dcsgreedy_is_unmoved_by_a_far_deadline() {
    let mut state = 0xB0D6_E7ED_u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for n in [2usize, 17, 240, 1_500] {
        let mut b = GraphBuilder::new(n);
        for _ in 0..6 * n {
            let (u, v) = ((next() % n as u64) as u32, (next() % n as u64) as u32);
            let w = (next() % 9) as f64 - 3.5;
            if u != v {
                b.add_edge(u, v, w);
            }
        }
        let gd = b.build();
        let solver = DcsGreedy::default();
        for k in [0, 1, n as u64 / 2, n as u64 + 5] {
            let budget = SolveContext::unbounded().with_budget(k);
            let with_deadline = budget.clone().with_deadline(Duration::from_secs(300));
            let (plain, plain_stats) = solver.solve_bounded(&gd, &[], &budget);
            let (timed, timed_stats) = solver.solve_bounded(&gd, &[], &with_deadline);
            assert_eq!(timed.subset, plain.subset, "n = {n}, k = {k}");
            assert_eq!(
                timed.density_difference.to_bits(),
                plain.density_difference.to_bits(),
                "n = {n}, k = {k}"
            );
            assert_eq!(timed_stats.iterations, plain_stats.iterations);
            assert_eq!(timed_stats.termination, plain_stats.termination);
        }
    }
}
