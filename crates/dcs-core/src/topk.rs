//! Top-k density contrast subgraph mining.
//!
//! The paper's conclusion lists "how to mine multiple subgraphs with big density
//! difference" as future work.  This module implements the natural peeling strategy: mine
//! the best DCS, remove its vertices from the difference graph (dropping all their
//! incident edges), and repeat until `k` subgraphs have been reported or no positive
//! contrast remains.  The returned subgraphs are therefore vertex-disjoint and reported
//! in non-increasing order of their density difference.
//!
//! The peeling loop is an **engine driver**: solver choice comes from
//! [`MeasureSolver`], every round runs under the caller's [`SolveContext`] (a shared
//! budget is split across rounds, the deadline and cancellation token apply to the
//! whole job), and the outcome carries aggregated [`SolveStats`] plus a
//! [`Termination`] saying whether all `k` rounds completed.  The measure-specific
//! entry points remain as thin unbounded wrappers.
//!
//! Per-round shrinking is **mask-based**: mined vertices are cleared from a
//! [`VertexMask`] and the next round solves on a [`GraphView`] overlay — the CSR
//! arrays of the caller's `G_D` are borrowed for **both measures** and never
//! rewritten, where the previous driver ran an `O(n + m)`
//! [`SignedGraph::remove_vertices_in_place`] compaction per round.  Each round's
//! solver copies the alive, positive entries of the masked view into the
//! workspace's compact `G_{D+}` buffers once (DCSGreedy for its `G_{D+}` peel,
//! NewSEA for Theorem 5's `G_{D+}` restriction) and keeps the round's mask over
//! that copy.  All rounds share one [`crate::workspace::SolverWorkspace`] —
//! including those buffers and the dense DCSGA embedding arena — so
//! steady-state rounds allocate almost nothing.

use dcs_graph::{GraphView, SignedGraph, VertexMask};

use crate::dcsad::DcsadSolution;
use crate::dcsga::DcsgaSolution;
use crate::engine::{
    EngineSolution, MeasureSolver, SolveContext, SolveStats, SolverDetail, Termination,
};
use crate::solution::DensityMeasure;

/// The result of a bounded top-k mine: per-rank solutions plus job-level telemetry.
#[derive(Debug, Clone)]
pub struct TopKOutcome {
    /// The mined solutions, sorted by non-increasing objective.  On a truncated job
    /// this holds every round that finished (including the truncated round's
    /// best-so-far, when it found positive contrast).
    pub solutions: Vec<EngineSolution>,
    /// Aggregated stats across all rounds (iterations, candidates, prunes, wall).
    pub stats: SolveStats,
    /// [`Termination::Converged`] when every round ran to completion.
    pub termination: Termination,
}

/// Mines up to `k` vertex-disjoint contrast subgraphs under `measure`, bounded by
/// `cx`.
///
/// Solver dispatch goes through [`MeasureSolver`]; rounds shrink by masking mined
/// vertices out of a [`VertexMask`] and solving the next round on a [`GraphView`] —
/// no per-round CSR rewrite, and for the average-degree measure no working-graph
/// copy at all.  Every round reuses one [`crate::workspace::SolverWorkspace`]
/// (the caller's, when `cx` carries one).  Mining stops early when the remaining
/// contrast is no longer positive, when `k` rounds have run, or when a bound of `cx`
/// trips (the truncated round's best-so-far still counts when it has positive
/// contrast).
pub fn top_k_in(
    gd: &SignedGraph,
    k: usize,
    measure: DensityMeasure,
    cx: &SolveContext,
) -> TopKOutcome {
    let solver = MeasureSolver::for_measure(measure);
    let cx = cx.ensure_workspace();
    let mut mask = VertexMask::full(gd.num_vertices());
    let mut solutions: Vec<EngineSolution> = Vec::new();
    let mut stats = SolveStats::default();
    for _ in 0..k {
        let view = GraphView::masked(gd, &mask);
        if solver.view_exhausted(view) {
            break;
        }
        let round_cx = cx.after_work(stats.iterations);
        let solution = solver.solve_bounded(view, &[], &round_cx);
        let round_termination = solution.termination();
        let keep = solution.objective > 0.0 && !solution.subset.is_empty();
        stats.absorb(&solution.stats);
        if keep {
            mask.remove_all(&solution.subset);
            solutions.push(solution);
        }
        if !round_termination.is_converged() || !keep {
            break;
        }
    }
    // The solvers are heuristics, so a later (smaller) instance can occasionally
    // yield a denser subgraph than an earlier one; sort so the reported order matches
    // the documented non-increasing contract.  `total_cmp` keeps the comparator total
    // even for a pathological (NaN) objective.
    solutions.sort_by(|a, b| b.objective.total_cmp(&a.objective));
    let termination = stats.termination;
    TopKOutcome {
        solutions,
        stats,
        termination,
    }
}

/// Mines up to `k` vertex-disjoint DCS with respect to **average degree**, by iterating
/// [`crate::dcsad::DcsGreedy`] on the difference graph with previously reported
/// vertices removed.
///
/// Thin [`SolveContext::unbounded`] wrapper over [`top_k_in`]; mining stops early when
/// the best remaining density difference is no longer positive.
pub fn top_k_average_degree(gd: &SignedGraph, k: usize) -> Vec<DcsadSolution> {
    top_k_in(
        gd,
        k,
        DensityMeasure::AverageDegree,
        &SolveContext::unbounded(),
    )
    .solutions
    .into_iter()
    .map(|solution| match solution.detail {
        SolverDetail::Dcsad(typed) => typed,
        _ => unreachable!("the average-degree solver produces DCSAD solutions"),
    })
    .collect()
}

/// Mines up to `k` vertex-disjoint DCS with respect to **graph affinity**, by iterating
/// [`crate::dcsga::NewSea`] on the difference graph with previously reported supports
/// removed.
///
/// Thin [`SolveContext::unbounded`] wrapper over [`top_k_in`]; rounds shrink `G_D`
/// through masked views, and each round's solve compacts the masked view's
/// positive part into the shared workspace's buffers.
pub fn top_k_affinity(gd: &SignedGraph, k: usize) -> Vec<DcsgaSolution> {
    top_k_in(
        gd,
        k,
        DensityMeasure::GraphAffinity,
        &SolveContext::unbounded(),
    )
    .solutions
    .into_iter()
    .map(|solution| match solution.detail {
        SolverDetail::Dcsga(typed) => typed,
        _ => unreachable!("the affinity solver produces DCSGA solutions"),
    })
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::CancelToken;
    use dcs_graph::GraphBuilder;

    /// Three planted positive cliques of decreasing strength plus a negative bridge.
    fn three_cliques() -> SignedGraph {
        let mut b = GraphBuilder::new(12);
        for u in 0..3u32 {
            for v in (u + 1)..3u32 {
                b.add_edge(u, v, 9.0);
            }
        }
        for u in 3..7u32 {
            for v in (u + 1)..7u32 {
                b.add_edge(u, v, 4.0);
            }
        }
        for u in 7..11u32 {
            for v in (u + 1)..11u32 {
                b.add_edge(u, v, 1.5);
            }
        }
        b.add_edge(2, 3, -2.0);
        b.add_edge(6, 7, -2.0);
        b.build()
    }

    #[test]
    fn top_k_average_degree_returns_disjoint_decreasing_groups() {
        let gd = three_cliques();
        let results = top_k_average_degree(&gd, 3);
        assert_eq!(results.len(), 3);
        // Non-increasing density and pairwise disjoint subsets.
        for pair in results.windows(2) {
            assert!(pair[0].density_difference >= pair[1].density_difference - 1e-9);
            assert!(pair[0].subset.iter().all(|v| !pair[1].subset.contains(v)));
        }
        assert_eq!(results[0].subset, vec![0, 1, 2]);
        assert_eq!(results[1].subset, vec![3, 4, 5, 6]);
        assert_eq!(results[2].subset, vec![7, 8, 9, 10]);
    }

    #[test]
    fn top_k_affinity_returns_disjoint_cliques() {
        let gd = three_cliques();
        let results = top_k_affinity(&gd, 3);
        assert_eq!(results.len(), 3);
        assert_eq!(results[0].support(), vec![0, 1, 2]);
        assert_eq!(results[1].support(), vec![3, 4, 5, 6]);
        assert_eq!(results[2].support(), vec![7, 8, 9, 10]);
        for pair in results.windows(2) {
            assert!(pair[0].affinity_difference >= pair[1].affinity_difference - 1e-9);
        }
        // All are positive cliques of the original graph.
        for r in &results {
            assert!(gd.is_positive_clique(&r.support()));
        }
    }

    #[test]
    fn stops_early_when_contrast_is_exhausted() {
        let gd = GraphBuilder::from_edges(4, vec![(0, 1, 3.0), (2, 3, -1.0)]);
        let ad = top_k_average_degree(&gd, 5);
        assert_eq!(ad.len(), 1);
        let ga = top_k_affinity(&gd, 5);
        assert_eq!(ga.len(), 1);
        // A graph with no positive edge yields nothing.
        let negative = GraphBuilder::from_edges(3, vec![(0, 1, -1.0)]);
        assert!(top_k_average_degree(&negative, 2).is_empty());
        assert!(top_k_affinity(&negative, 2).is_empty());
    }

    #[test]
    fn k_zero_returns_nothing() {
        let gd = three_cliques();
        assert!(top_k_average_degree(&gd, 0).is_empty());
        assert!(top_k_affinity(&gd, 0).is_empty());
    }

    #[test]
    fn bounded_top_k_reports_outcome_and_disjointness() {
        let gd = three_cliques();
        let outcome = top_k_in(
            &gd,
            3,
            DensityMeasure::GraphAffinity,
            &SolveContext::unbounded(),
        );
        assert_eq!(outcome.termination, Termination::Converged);
        assert_eq!(outcome.solutions.len(), 3);
        assert!(outcome.stats.candidates > 0);
        assert!(outcome.stats.iterations > 0);

        // A cancelled job stops between rounds and still returns disjoint, in-range
        // subsets for whatever it mined.
        let token = CancelToken::new();
        token.cancel();
        let cancelled = top_k_in(
            &gd,
            3,
            DensityMeasure::AverageDegree,
            &SolveContext::unbounded().with_cancel(&token),
        );
        assert_eq!(cancelled.termination, Termination::Cancelled);
        for solution in &cancelled.solutions {
            assert!(solution
                .subset
                .iter()
                .all(|&v| (v as usize) < gd.num_vertices()));
        }
    }
}
