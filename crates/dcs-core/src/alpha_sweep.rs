//! Sweeping the α-scaled difference graph `D = A2 − α·A1` (Section III-D).
//!
//! The paper generalises the difference graph to `A2 − α·A1`: mining it finds subgraphs
//! whose density in `G2` exceeds `α` times their density in `G1`, analogous to the
//! optimal α-quasi-clique problem.  In practice the interesting question is *how the
//! mined subgraph changes as α grows*: at `α = 0` the DCS is simply the densest subgraph
//! of `G2`; as α increases, vertices whose connections did not actually strengthen are
//! priced out and the DCS shrinks towards the genuinely contrasting core.
//!
//! [`alpha_sweep`] runs either DCS algorithm across a grid of α values and reports one
//! [`AlphaPoint`] per value, so callers (and the `emerging_communities` example) can plot
//! size and contrast against α and pick an operating point.
//!
//! The sweep is an **engine driver**: solver choice goes through
//! [`MeasureSolver`], every grid point runs under the caller's [`SolveContext`]
//! (shared budget, job-wide deadline and cancellation), and each solve is
//! **warm-started** from the previous α's support — neighbouring grid points usually
//! mine almost the same subgraph, so the previous support is a strong incumbent that
//! lets the Theorem-6 early-exit bound prune most initialisations instead of mining
//! every α from scratch.

use dcs_graph::{SignedGraph, VertexId, Weight};

use crate::diff::{check_alpha, CsrBuffers, ScaledDifferenceTemplate};
use crate::engine::{MeasureSolver, SolveContext, SolveStats, Termination};
use crate::error::DcsError;
use crate::solution::{ContrastReport, DensityMeasure};

/// The mined subgraph at one value of α.
#[derive(Debug, Clone)]
pub struct AlphaPoint {
    /// The α this point was mined at.
    pub alpha: Weight,
    /// The mined vertex set (support set under the affinity measure).
    pub subset: Vec<VertexId>,
    /// The objective value on the α-scaled difference graph (average-degree or affinity
    /// difference, depending on the measure).
    pub objective: Weight,
    /// Full statistics of the subset, evaluated on the *plain* (α = 1) difference graph
    /// so points are comparable across α.
    pub report: ContrastReport,
}

/// The result of a bounded α-sweep: the mined grid points plus job-level telemetry.
#[derive(Debug, Clone)]
pub struct AlphaSweep {
    /// One point per completed α value, in grid order.  A truncated sweep holds the
    /// points completed before the bound tripped (the truncated point's best-so-far
    /// included).
    pub points: Vec<AlphaPoint>,
    /// Aggregated stats across all grid points.
    pub stats: SolveStats,
    /// [`Termination::Converged`] when every grid point ran to completion.
    pub termination: Termination,
}

/// Runs a DCS algorithm for every α in `alphas` under a [`SolveContext`].
///
/// `measure` selects the solver through [`MeasureSolver`]:
/// [`DensityMeasure::AverageDegree`] runs DCSGreedy, anything else runs NewSEA.  Both
/// graphs must be valid DCS inputs (same vertex set, non-negative weights); α values
/// must be non-negative and finite, and α times the largest `g1` weight must be
/// finite ([`DcsError::InvalidConfig`] otherwise).  Each grid point's solve is
/// warm-started from the previous point's support.
///
/// The α-scaled difference graph is **reweighted in place** per grid point: the
/// merged edge structure is built once ([`ScaledDifferenceTemplate`]) and each α
/// writes `w2 − α·w1` into the same recycled CSR buffers instead of merging both
/// graphs again into fresh arrays.  All grid points additionally share
/// one [`crate::workspace::SolverWorkspace`] (the caller's, when `cx` carries one).
pub fn alpha_sweep_in(
    g2: &SignedGraph,
    g1: &SignedGraph,
    alphas: &[Weight],
    measure: DensityMeasure,
    cx: &SolveContext,
) -> Result<AlphaSweep, DcsError> {
    let solver = MeasureSolver::for_measure(measure);
    let cx = cx.ensure_workspace();
    let template = ScaledDifferenceTemplate::new(g2, g1)?;
    let plain = template.materialize(1.0);
    let mut points = Vec::with_capacity(alphas.len());
    let mut stats = SolveStats::default();
    let mut seed: Vec<VertexId> = Vec::new();
    let mut buffers = CsrBuffers::default();
    let heaviest = g1.max_edge_weight().unwrap_or(0.0);
    for &alpha in alphas {
        let gd = template.materialize_with(check_alpha(alpha, heaviest)?, buffers);
        let point_cx = cx.after_work(stats.iterations);
        let solution = solver.solve_bounded(&gd, &seed, &point_cx);
        let truncated = !solution.termination().is_converged();
        stats.absorb(&solution.stats);
        seed = solution.subset.clone();
        // Per-point reports go through the job's workspace scratch (the lock is
        // taken after the solve returned, never across it).
        let report = {
            let mut ws = cx.workspace();
            let crate::workspace::SolverWorkspace {
                marks,
                visited,
                stack,
                ..
            } = &mut *ws;
            ContrastReport::for_subset_scratch(&plain, &solution.subset, marks, visited, stack)
        };
        buffers = gd.into_raw_csr();
        points.push(AlphaPoint {
            alpha,
            subset: solution.subset,
            objective: solution.objective,
            report,
        });
        if truncated {
            break;
        }
    }
    let termination = stats.termination;
    Ok(AlphaSweep {
        points,
        stats,
        termination,
    })
}

/// Runs a DCS algorithm for every α in `alphas` and returns one point per value —
/// a thin [`SolveContext::unbounded`] wrapper over [`alpha_sweep_in`].
pub fn alpha_sweep(
    g2: &SignedGraph,
    g1: &SignedGraph,
    alphas: &[Weight],
    measure: DensityMeasure,
) -> Result<Vec<AlphaPoint>, DcsError> {
    alpha_sweep_in(g2, g1, alphas, measure, &SolveContext::unbounded()).map(|sweep| sweep.points)
}

/// A convenient default grid: `0, 0.25, 0.5, …, 2.0`.
pub fn default_alpha_grid() -> Vec<Weight> {
    (0..=8).map(|i| i as Weight * 0.25).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::CancelToken;
    use dcs_graph::GraphBuilder;

    /// G2 strengthens the triangle {0,1,2}; the pair {3,4} is strong in both graphs;
    /// {5,6} only exists in G1.
    fn pair() -> (SignedGraph, SignedGraph) {
        let g1 = GraphBuilder::from_edges(7, vec![(0, 1, 1.0), (3, 4, 10.0), (5, 6, 4.0)]);
        let g2 = GraphBuilder::from_edges(
            7,
            vec![
                (0, 1, 5.0),
                (0, 2, 5.0),
                (1, 2, 5.0),
                (3, 4, 11.0),
                (5, 6, 1.0),
            ],
        );
        (g1, g2)
    }

    #[test]
    fn zero_alpha_is_plain_densest_subgraph_of_g2() {
        let (g1, g2) = pair();
        let points = alpha_sweep(&g2, &g1, &[0.0], DensityMeasure::AverageDegree).unwrap();
        // With α = 0 the heavy stable pair {3,4} dominates (weight 11 ≈ degree 11 each).
        assert_eq!(points[0].subset, vec![3, 4]);
        assert!(points[0].objective > 10.0);
    }

    #[test]
    fn growing_alpha_prices_out_stable_structure() {
        let (g1, g2) = pair();
        let alphas = [0.0, 1.0, 2.0];
        let points = alpha_sweep(&g2, &g1, &alphas, DensityMeasure::GraphAffinity).unwrap();
        assert_eq!(points.len(), 3);
        // At α = 1 and above, the genuinely emerging triangle wins.
        assert_eq!(points[1].subset, vec![0, 1, 2]);
        assert_eq!(points[2].subset, vec![0, 1, 2]);
        // The α-scaled objective is non-increasing in α (more of G1 is subtracted).
        assert!(points[0].objective >= points[1].objective - 1e-9);
        assert!(points[1].objective >= points[2].objective - 1e-9);
        // Reports are evaluated on the plain difference graph, so the triangle's numbers
        // are identical in both points.
        assert!(
            (points[1].report.average_degree_difference
                - points[2].report.average_degree_difference)
                .abs()
                < 1e-12
        );
    }

    #[test]
    fn degree_measure_sweep_over_the_default_grid() {
        let (g1, g2) = pair();
        let grid = default_alpha_grid();
        assert_eq!(grid.len(), 9);
        assert_eq!(grid[0], 0.0);
        assert_eq!(*grid.last().unwrap(), 2.0);
        let points = alpha_sweep(&g2, &g1, &grid, DensityMeasure::AverageDegree).unwrap();
        assert_eq!(points.len(), grid.len());
        // The α-scaled objective is non-increasing in α and every point is non-empty.
        for window in points.windows(2) {
            assert!(window[0].objective >= window[1].objective - 1e-9);
        }
        assert!(points.iter().all(|p| !p.subset.is_empty()));
        // At α = 0 the stable heavy pair wins; by α = 2 only the emerging triangle is
        // left standing.
        assert_eq!(points[0].subset, vec![3, 4]);
        assert_eq!(points.last().unwrap().subset, vec![0, 1, 2]);
    }

    #[test]
    fn warm_started_sweep_matches_the_cold_grid_and_reports_stats() {
        let (g1, g2) = pair();
        let grid = default_alpha_grid();
        let sweep = alpha_sweep_in(
            &g2,
            &g1,
            &grid,
            DensityMeasure::GraphAffinity,
            &SolveContext::unbounded(),
        )
        .unwrap();
        assert_eq!(sweep.termination, Termination::Converged);
        assert_eq!(sweep.points.len(), grid.len());
        assert!(sweep.stats.iterations > 0);
        // Every point matches a from-scratch solve of the same α (warm starting never
        // changes the answer on this instance, only the work done).
        for point in &sweep.points {
            let cold = alpha_sweep(&g2, &g1, &[point.alpha], DensityMeasure::GraphAffinity)
                .unwrap()
                .remove(0);
            assert_eq!(point.subset, cold.subset);
        }
    }

    #[test]
    fn cancelled_sweep_stops_early_with_partial_points() {
        let (g1, g2) = pair();
        let token = CancelToken::new();
        token.cancel();
        let sweep = alpha_sweep_in(
            &g2,
            &g1,
            &default_alpha_grid(),
            DensityMeasure::AverageDegree,
            &SolveContext::unbounded().with_cancel(&token),
        )
        .unwrap();
        assert_eq!(sweep.termination, Termination::Cancelled);
        // The first point's truncated best-so-far is still reported, nothing more.
        assert!(sweep.points.len() <= 1);
    }

    #[test]
    fn invalid_inputs_are_rejected() {
        let (g1, g2) = pair();
        assert!(matches!(
            alpha_sweep(&g2, &g1, &[-0.5], DensityMeasure::AverageDegree),
            Err(DcsError::InvalidConfig(_))
        ));
        assert!(matches!(
            alpha_sweep(&g2, &g1, &[f64::NAN], DensityMeasure::GraphAffinity),
            Err(DcsError::InvalidConfig(_))
        ));
        let mismatched = GraphBuilder::from_edges(3, vec![(0, 1, 1.0)]);
        assert!(alpha_sweep(&g2, &mismatched, &[1.0], DensityMeasure::AverageDegree).is_err());
    }

    #[test]
    fn alpha_that_overflows_a_scaled_g1_weight_is_rejected() {
        let n = 4;
        let g1 = GraphBuilder::from_edges(n, vec![(0, 1, 1.7e308), (2, 3, 1.0)]);
        let g2 = GraphBuilder::from_edges(n, vec![(1, 2, 1.0)]);
        for measure in [DensityMeasure::AverageDegree, DensityMeasure::GraphAffinity] {
            let result =
                alpha_sweep_in(&g2, &g1, &[0.5, 10.0], measure, &SolveContext::unbounded());
            assert!(
                matches!(&result, Err(DcsError::InvalidConfig(msg)) if msg.contains("overflows")),
                "{result:?}"
            );
            // α = 1 keeps 1.7e308 finite.
            assert!(alpha_sweep_in(&g2, &g1, &[1.0], measure, &SolveContext::unbounded()).is_ok());
        }
    }
}
