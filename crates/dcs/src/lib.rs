//! # dcs — Density Contrast Subgraph mining
//!
//! Facade crate of the `density-contrast` workspace: it re-exports the full public API of
//! the underlying crates so applications can depend on a single crate.
//!
//! * [`graph`] — signed weighted graphs, components, cores, IO and graph packs
//!   (`dcs-graph`),
//! * [`densest`] — classical densest-subgraph machinery (`dcs-densest`),
//! * [`core`] — the DCS algorithms: difference graphs, DCSGreedy, SEACD, NewSEA
//!   (`dcs-core`),
//! * [`baselines`] — the EgoScan substitute, the paper's external comparator
//!   (`dcs-baselines`),
//! * [`datasets`] — synthetic graph-pair generators and recovery metrics
//!   (`dcs-datasets`),
//! * [`server`] — the long-running contrast-mining service: session registry,
//!   worker pool and NDJSON-over-TCP protocol (`dcs-server`).
//!
//! The most common entry points are also re-exported at the crate root.
//!
//! ```
//! use dcs::prelude::*;
//!
//! // Build two graphs over the same vertex set.
//! let g1 = GraphBuilder::from_edges(5, vec![(0, 1, 1.0), (3, 4, 4.0)]);
//! let g2 = GraphBuilder::from_edges(5, vec![(0, 1, 3.0), (1, 2, 3.0), (0, 2, 3.0)]);
//!
//! // Mine the density contrast subgraph under both measures.
//! let gd = difference_graph(&g2, &g1).unwrap();
//! let by_degree = DcsGreedy::default().solve(&gd);
//! let by_affinity = NewSea::default().solve(&gd);
//!
//! assert_eq!(by_degree.subset, vec![0, 1, 2]);
//! assert_eq!(by_affinity.support(), vec![0, 1, 2]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use dcs_baselines as baselines;
pub use dcs_core as core;
pub use dcs_datasets as datasets;
pub use dcs_densest as densest;
pub use dcs_graph as graph;
pub use dcs_server as server;

/// The most commonly used items of the whole workspace.
pub mod prelude {
    pub use dcs_baselines::EgoScan;
    pub use dcs_core::dcsad::DcsGreedy;
    pub use dcs_core::dcsga::{NewSea, SeaCd};
    pub use dcs_core::{
        difference_graph, difference_graph_with, mine_affinity_dcs, mine_average_degree_dcs,
        ContrastReport, DcsError, DiscreteRule, Embedding, WeightScheme,
    };
    pub use dcs_core::{
        CancelToken, EngineSolution, MeasureSolver, SolveContext, SolveStats, Termination,
    };
    pub use dcs_core::{StreamingConfig, StreamingDcs};
    pub use dcs_datasets::{GraphPair, Scale};
    pub use dcs_densest::greedy_peeling;
    pub use dcs_graph::{DeltaGraph, GraphBuilder, SignedGraph, VertexId, Weight};
    pub use dcs_server::{Client as DcsClient, Server as DcsServer, ServerConfig};
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_are_wired() {
        use crate::prelude::*;
        let g = GraphBuilder::from_edges(3, vec![(0, 1, 1.0), (1, 2, -1.0)]);
        assert_eq!(g.num_edges(), 2);
        let _ = DcsGreedy::default();
        let _ = NewSea::default();
        let _ = EgoScan::default();
        let _ = ServerConfig::default();
    }
}
