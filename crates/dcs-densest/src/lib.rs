//! # dcs-densest
//!
//! Classical densest-subgraph machinery that the density-contrast algorithms build on.
//! Everything here predates the DCS paper and is implemented from scratch as a substrate:
//!
//! * [`charikar`] — greedy peeling (Algorithm 1 of the paper, originally Charikar 2000),
//!   generalised to graphs with **signed** edge weights.  On non-negative graphs it is a
//!   2-approximation of the maximum average degree.
//! * [`peel`] — the priority structure used by peeling (an indexed 4-ary min-heap keyed
//!   by the current weighted degree, updated in place), plus the naive re-scan and
//!   segment-tree variants used for ablation benches.
//! * [`maxflow`] — Dinic's maximum-flow algorithm.
//! * [`goldberg`] — Goldberg's exact maximum-density-subgraph algorithm (binary search
//!   over the density combined with min-cut computations) for non-negative weights.
//! * [`quasi_clique`] — optimal α-quasi-clique extraction (edge-surplus objective,
//!   Tsourakakis et al. 2013), the problem Section III-D of the paper relates the
//!   α-scaled difference graph to; used as an ablation comparator.
//! * [`simplex`] — subgraph embeddings on the standard simplex `Δn` and the graph
//!   affinity objective `f(x) = xᵀAx`.
//! * [`replicator`] — replicator dynamics, the shrink-stage iteration of the original
//!   SEA algorithm (Liu et al., TPAMI 2013).  Only valid for non-negative matrices.
//! * [`expansion`] — the SEA expansion step shared by the original SEA and the paper's
//!   SEACD (it is derived for arbitrary symmetric matrices).
//! * [`sea`] — the original SEA algorithm (shrink via replicator dynamics + expansion),
//!   including the loose objective-improvement stopping rule the paper criticises; it is
//!   the `SEA+Refine` comparator of Tables VII and Fig. 2.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod charikar;
pub mod expansion;
pub mod goldberg;
pub mod maxflow;
pub mod peel;
pub mod quasi_clique;
pub mod replicator;
pub mod sea;
pub mod simplex;

pub use charikar::{greedy_peeling, greedy_peeling_view_into, PeelingResult};
pub use expansion::{expansion_candidates, expansion_step, ExpansionOutcome};
pub use goldberg::{densest_subgraph_exact, densest_subgraph_view_until, DensestSubgraph};
pub use maxflow::FlowNetwork;
pub use peel::PeelWorkspace;
pub use quasi_clique::{greedy_quasi_clique, local_search_quasi_clique, QuasiCliqueResult};
pub use replicator::{replicator_dynamics, ReplicatorStop};
pub use sea::{OriginalSea, SeaConfig, SeaResult};
pub use simplex::{DenseEmbedding, Embedding};

/// Compatibility shim, kept with [`greedy_peeling_view_auto`] for their one
/// caller: `peel_positive_part` in `benchmark/src/batch.rs`, a separate Cargo
/// workspace that still names both.  The benchmark change that moves that
/// function to [`greedy_peeling_view_into`] deletes the shim.
#[doc(hidden)]
#[derive(Debug, Default)]
pub struct ParallelPeelWorkspace;

impl ParallelPeelWorkspace {
    /// The (field-less) shim value.
    pub fn new() -> Self {
        ParallelPeelWorkspace
    }
}

/// [`greedy_peeling_view_into`]; `threads` is ignored (see [`ParallelPeelWorkspace`]).
#[doc(hidden)]
pub fn greedy_peeling_view_auto<F: FnMut(u64) -> bool>(
    view: dcs_graph::GraphView<'_>,
    ws: &mut PeelWorkspace,
    _par: &mut ParallelPeelWorkspace,
    _threads: usize,
    stop: F,
) -> (PeelingResult, bool) {
    greedy_peeling_view_into(view, ws, stop)
}
