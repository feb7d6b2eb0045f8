//! # dcs-graph
//!
//! Signed, weighted, undirected graph substrate used by the
//! [density-contrast-subgraph](https://arxiv.org/abs/1802.06775) workspace.
//!
//! The central type is [`SignedGraph`]: an immutable, CSR-packed, undirected graph whose
//! edge weights may be **positive or negative**.  This is exactly the object the paper
//! calls the *difference graph* `G_D = <V, E_D, D = A2 - A1>`.  Ordinary weighted graphs
//! (all weights positive) are represented by the same type; the invariant is only that a
//! weight is non-zero.
//!
//! The crate provides the primitives the paper's algorithms need:
//!
//! * [`GraphBuilder`] — record an edge list and pack it into CSR form; memory is
//!   proportional to the insertions, and duplicates fold in insertion order at
//!   [`GraphBuilder::build`], or into the sorted edge list of
//!   [`GraphBuilder::into_sorted_edges`] without a CSR,
//! * [`DeltaGraph`] — an incrementally maintained graph with O(1) weight updates
//!   into one change map and cheap versioned `Arc<SignedGraph>` CSR snapshots
//!   that merge the changes into the last snapshot ([`delta`]), the substrate of
//!   the streaming difference-graph engine,
//! * induced-subgraph metrics over vertex subsets ([`SignedGraph::total_degree`],
//!   [`SignedGraph::average_degree`], [`SignedGraph::edge_density`], …),
//! * [`SignedGraph::positive_part`] — the graph `G_{D+}` containing only positive edges,
//! * string-labelled vertices and labelled edge-list IO for graphs over named entities
//!   such as authors or keywords ([`labels`]),
//! * connected components, both global and restricted to an induced subgraph
//!   ([`components`]),
//! * k-core decomposition / core numbers ([`cores`]), used by the NewSEA smart
//!   initialisation,
//! * k-hop neighbourhoods by breadth-first search ([`traversal`]),
//! * a dense [`VertexSubset`] set with O(1) membership tests used pervasively in the
//!   peeling and local-search algorithms,
//! * plain-text edge-list IO ([`io`]).
//!
//! ## Example
//!
//! ```
//! use dcs_graph::{GraphBuilder, SignedGraph};
//!
//! let mut b = GraphBuilder::new(4);
//! b.add_edge(0, 1, 2.0);
//! b.add_edge(1, 2, -1.0);
//! b.add_edge(2, 3, 3.0);
//! let g: SignedGraph = b.build();
//!
//! assert_eq!(g.num_vertices(), 4);
//! assert_eq!(g.num_edges(), 3);
//! // Average degree of the whole graph: 2 * (2 - 1 + 3) / 4 = 2.0
//! let all: Vec<u32> = (0..4).collect();
//! assert!((g.average_degree(&all) - 2.0).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
mod column;
pub mod components;
pub mod cores;
pub mod csr;
pub mod delta;
pub mod io;
pub mod labels;
pub mod mask;
pub mod pack;
pub mod subset;
pub mod traversal;
pub mod view;

pub use builder::GraphBuilder;
pub use components::{
    connected_components, connected_components_of, is_connected_scratch, ComponentLabels,
};
pub use cores::{
    core_decomposition, core_decomposition_view, core_numbers_view_into, degeneracy,
    CoreDecomposition, CoreScratch,
};
pub use csr::{CorruptGraph, CsrBuffers, EdgeRef, NeighborIter, SignedGraph};
pub use delta::DeltaGraph;
pub use labels::{LabeledGraphBuilder, VertexLabels};
pub use mask::VertexMask;
pub use pack::{GraphPack, PackError};
pub use subset::VertexSubset;
pub use view::GraphView;

/// Vertex identifier.
///
/// Vertices are dense integers in `0..n`.  `u32` keeps adjacency arrays compact (the
/// largest graphs in the paper have ~1.3M vertices and ~15M edges, far below `u32::MAX`).
pub type VertexId = u32;

/// Edge weight type.  Signed: the difference graph may carry negative weights.
pub type Weight = f64;

/// A `(u, v, w)` triple used when exchanging edge lists with builders and IO.
pub type EdgeTriple = (VertexId, VertexId, Weight);

/// Commonly used items, for glob import in downstream crates and examples.
pub mod prelude {
    pub use crate::builder::GraphBuilder;
    pub use crate::components::{connected_components, connected_components_of};
    pub use crate::cores::core_decomposition;
    pub use crate::csr::SignedGraph;
    pub use crate::delta::DeltaGraph;
    pub use crate::mask::VertexMask;
    pub use crate::subset::VertexSubset;
    pub use crate::view::GraphView;
    pub use crate::{EdgeTriple, VertexId, Weight};
}
