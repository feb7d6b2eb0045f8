//! # dcs-core — Mining Density Contrast Subgraphs
//!
//! This crate implements the algorithmic contribution of
//! *Mining Density Contrast Subgraphs* (Yang, Chu, Zhang, Wang, Pei, Chen — ICDE 2018,
//! arXiv:1802.06775).
//!
//! Given two undirected weighted graphs `G1` and `G2` over the same vertex set, a
//! *Density Contrast Subgraph* (DCS) is a subgraph whose density in `G2` minus its
//! density in `G1` is maximal.  Both variants studied by the paper reduce to densest
//! subgraph mining on the signed *difference graph* `G_D` with `D = A2 − A1`:
//!
//! * **DCSAD** (density = average degree, Eq. 5) — NP-hard and `O(n^{1-ε})`-inapproximable.
//!   Solved by [`dcsad::DcsGreedy`], the paper's Algorithm 2: an `O(n)`-approximation
//!   that also reports a data-dependent ratio (Theorem 2).
//! * **DCSGA** (density = graph affinity, Eq. 6) — NP-hard quadratic program.  Solved by
//!   [`dcsga::SeaCd`] (Algorithm 3: 2-coordinate-descent shrink + SEA expansion),
//!   [`dcsga::refine`] (Algorithm 4: refinement to a positive-clique solution,
//!   Theorem 5) and [`dcsga::NewSea`] (Algorithm 5: SEACD + refinement + the
//!   smart-initialisation upper bound of Theorem 6).
//!
//! Each solver has one entry point, `solve_bounded(graph, seed, &SolveContext)`,
//! taking a `&SignedGraph` or a masked [`dcs_graph::GraphView`]: a solve under an
//! [`engine::SolveContext`] can be cancelled, deadlined or budgeted and returns
//! best-so-far with [`engine::SolveStats`] telemetry.  The drivers layered on top
//! ([`top_k_in`], [`alpha_sweep_in`], [`streaming`]) all dispatch through
//! [`engine::MeasureSolver`].
//!
//! ## Quick start
//!
//! ```
//! use dcs_graph::GraphBuilder;
//! use dcs_core::{difference_graph, dcsad::DcsGreedy, dcsga::NewSea};
//!
//! // Two graphs over the same 6 vertices: in G2 the triangle {0,1,2} intensifies.
//! let g1 = GraphBuilder::from_edges(6, vec![(0, 1, 1.0), (3, 4, 5.0), (4, 5, 5.0)]);
//! let g2 = GraphBuilder::from_edges(
//!     6,
//!     vec![(0, 1, 4.0), (0, 2, 3.0), (1, 2, 3.0), (3, 4, 5.0), (4, 5, 4.0)],
//! );
//!
//! let gd = difference_graph(&g2, &g1).unwrap();
//!
//! // DCS w.r.t. average degree.
//! let ad = DcsGreedy::default().solve(&gd);
//! assert_eq!(ad.subset, vec![0, 1, 2]);
//!
//! // DCS w.r.t. graph affinity: a positive clique in G_D.
//! let ga = NewSea::default().solve(&gd);
//! assert_eq!(ga.embedding.support(), vec![0, 1, 2]);
//! assert!(gd.is_positive_clique(&ga.embedding.support()));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alpha_sweep;
pub mod dcsad;
pub mod dcsga;
pub mod diff;
pub mod engine;
pub mod error;
pub mod solution;
pub mod streaming;
pub mod topk;
pub mod workspace;

pub use alpha_sweep::{alpha_sweep, alpha_sweep_in, default_alpha_grid, AlphaPoint, AlphaSweep};
pub use diff::{
    clamp_weights, difference_graph, difference_graph_from_edges, difference_graph_with,
    scaled_difference_graph, CsrBuffers, DiscreteRule, ScaledDifferenceTemplate, WeightScheme,
};
pub use engine::{
    CancelToken, EngineSolution, MeasureSolver, SolveContext, SolveStats, Termination,
};
pub use error::DcsError;
pub use solution::{ContrastReport, DensityMeasure};
pub use streaming::{
    mine_difference_in, BatchOutcome, ContrastAlert, StreamingConfig, StreamingDcs,
};
pub use topk::{top_k_affinity, top_k_average_degree, top_k_in, TopKOutcome};
pub use workspace::{SharedWorkspace, SolverWorkspace, WorkspaceGuard};

// Re-export the embedding type: it is part of this crate's public API surface
// (DCSGA solutions are embeddings).
pub use dcs_densest::Embedding;

/// Convenience: mine the DCS with respect to **average degree** directly from a pair of
/// graphs (builds the difference graph internally).
///
/// Returns the [`dcsad::DcsadSolution`] together with the difference graph so callers
/// can compute further statistics.
pub fn mine_average_degree_dcs(
    g2: &dcs_graph::SignedGraph,
    g1: &dcs_graph::SignedGraph,
) -> Result<(dcsad::DcsadSolution, dcs_graph::SignedGraph), DcsError> {
    let gd = difference_graph(g2, g1)?;
    let solution = dcsad::DcsGreedy::default().solve(&gd);
    Ok((solution, gd))
}

/// Convenience: mine the DCS with respect to **graph affinity** directly from a pair of
/// graphs (builds the difference graph internally, runs NewSEA on `G_{D+}`).
pub fn mine_affinity_dcs(
    g2: &dcs_graph::SignedGraph,
    g1: &dcs_graph::SignedGraph,
) -> Result<(dcsga::DcsgaSolution, dcs_graph::SignedGraph), DcsError> {
    let gd = difference_graph(g2, g1)?;
    let solution = dcsga::NewSea::default().solve(&gd);
    Ok((solution, gd))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcs_graph::GraphBuilder;

    #[test]
    fn top_level_convenience_functions() {
        let g1 = GraphBuilder::from_edges(5, vec![(0, 1, 1.0), (3, 4, 2.0)]);
        let g2 = GraphBuilder::from_edges(5, vec![(0, 1, 3.0), (0, 2, 2.0), (1, 2, 2.0)]);
        let (ad, gd) = mine_average_degree_dcs(&g2, &g1).unwrap();
        assert!(ad.density_difference > 0.0);
        assert_eq!(gd.num_vertices(), 5);
        let (ga, _) = mine_affinity_dcs(&g2, &g1).unwrap();
        assert!(ga.affinity_difference > 0.0);
    }

    #[test]
    fn mismatched_vertex_sets_error() {
        let g1 = GraphBuilder::from_edges(3, vec![(0, 1, 1.0)]);
        let g2 = GraphBuilder::from_edges(4, vec![(0, 1, 1.0)]);
        assert!(mine_average_degree_dcs(&g2, &g1).is_err());
        assert!(mine_affinity_dcs(&g2, &g1).is_err());
    }
}
