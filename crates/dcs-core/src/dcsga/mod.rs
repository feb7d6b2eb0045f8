//! DCS with respect to **graph affinity** (DCSGA, Section V of the paper).
//!
//! The optimisation problem is `max_{x ∈ Δn} f_D(x) = xᵀDx` on the signed difference
//! graph.  It is an NP-hard, generally non-concave quadratic program (Theorem 3), so the
//! paper develops local-search machinery around Karush-Kuhn-Tucker (KKT) points:
//!
//! * the 2-coordinate-descent shrink that replaces the replicator dynamics of the
//!   original SEA (which cannot handle negative weights),
//! * [`kkt`] — verification of the (local) KKT conditions, Eq. 7/10,
//! * [`SeaCd`] — Algorithm 3: alternate the 2-CD shrink with the SEA expansion,
//! * [`refine`] — Algorithm 4: improve any KKT point to a *positive-clique* solution
//!   (Theorem 5 guarantees this never decreases the objective),
//! * [`NewSea`] — Algorithm 5: SEACD + refinement + the smart-initialisation order and
//!   early-exit bound `µ_u = τ_u·w_u/(τ_u+1)` (Theorem 6).
//!
//! All three solvers operate on `G_{D+}` internally (Theorem 5 shows an optimal solution
//! is always a positive clique of `G_D`, i.e. a clique of `G_{D+}`).  The kernels read
//! it through a [`dcs_graph::GraphView`]: NewSEA's sweep runs on a compact copy of the
//! view's positive entries, kept in the workspace and compacted once per solve
//! ([`dcs_graph::GraphView::positive_part_into`]); a positive-filtered view of the
//! signed difference graph gives the same results.
//!
//! ## Dense workspace-backed embeddings
//!
//! Every kernel in this module runs on one dense embedding arena: the working
//! embedding `x`, the shrink's linear form `(Dx)_k`, the expansion direction `γ` and
//! the candidate-dedup marks are indexed, dense arrays
//! ([`dcs_densest::DenseEmbedding`] + `Vec<f64>` + [`dcs_graph::VertexMask`]) owned
//! by the [`crate::SolverWorkspace`] ([`DcsgaScratch`]) and reused across SEACD
//! restarts, top-k rounds, α-sweep grid points and server jobs.  Every
//! floating-point reduction runs in explicit ascending-vertex order and every store
//! is reset at the start of its scope, so a solve on a reused workspace is
//! **bit-identical** to one on a fresh workspace (property-tested in
//! `dcsga_dense_properties.rs`; the arena's own unit tests check it against a map
//! model of its contract).

mod arena;
mod coord_descent;
pub mod kkt;
mod newsea;
mod parallel;
mod refine;
mod seacd;

pub use arena::DcsgaScratch;
pub use newsea::{smart_initialization_order_in, NewSea, SmartInitStats};
pub use parallel::parallel_sweep;
pub use refine::refine;
pub use seacd::{SeaCd, SeaCdRun, SeaCdSweep};

use dcs_densest::Embedding;
use dcs_graph::{SignedGraph, VertexId, Weight};

/// The shrink stage stops when the local KKT gap on the current support `S` drops
/// below `KKT_EPS_FACTOR / |S|` (the paper's `10⁻² · 1/|S|`).
const KKT_EPS_FACTOR: f64 = 1e-2;

/// Hard cap on 2-coordinate-descent iterations per shrink stage.
const MAX_CD_ITERATIONS: usize = 200_000;

/// Tolerance when selecting expansion candidates (`∇_i > λ + tol`).
const CANDIDATE_TOLERANCE: f64 = 1e-9;

/// Maximum number of shrink+expansion rounds per initialisation.
const MAX_ROUNDS: usize = 1_000;

/// Solution of the DCSGA problem.
#[derive(Debug, Clone)]
pub struct DcsgaSolution {
    /// The mined subgraph embedding (a positive-clique solution after refinement).
    pub embedding: Embedding,
    /// The affinity difference `xᵀDx`.
    pub affinity_difference: Weight,
    /// Statistics about the initialisation sweep that produced the solution.
    pub stats: SmartInitStats,
}

impl DcsgaSolution {
    /// The support set of the solution, sorted ascending.
    pub fn support(&self) -> Vec<VertexId> {
        self.embedding.support()
    }
}

/// A positive clique found during an all-initialisations sweep, used by the clique-census
/// experiments (Table V, Fig. 3).
#[derive(Debug, Clone)]
pub struct CliqueSolution {
    /// The clique's vertex set, sorted ascending.
    pub support: Vec<VertexId>,
    /// The embedding that produced it.
    pub embedding: Embedding,
    /// Its affinity difference.
    pub affinity: Weight,
}

/// Deduplicates the solutions of an all-initialisations sweep the way the paper does for
/// Table V and Fig. 3: exact duplicates are merged and cliques that are subsets of other
/// found cliques are dropped.  The result is sorted by descending affinity.
pub fn clique_census(gd: &SignedGraph, solutions: &[Embedding]) -> Vec<CliqueSolution> {
    let mut seen: rustc_hash::FxHashSet<Vec<VertexId>> = rustc_hash::FxHashSet::default();
    let mut cliques: Vec<CliqueSolution> = Vec::new();
    for x in solutions {
        if x.is_empty() {
            continue;
        }
        let support = x.support();
        if !seen.insert(support.clone()) {
            continue;
        }
        cliques.push(CliqueSolution {
            affinity: x.affinity(gd),
            support,
            embedding: x.clone(),
        });
    }
    // Drop cliques strictly contained in another clique.
    let mut keep = vec![true; cliques.len()];
    for i in 0..cliques.len() {
        if !keep[i] {
            continue;
        }
        for j in 0..cliques.len() {
            if i == j || !keep[i] {
                continue;
            }
            if cliques[j].support.len() > cliques[i].support.len()
                && is_subset(&cliques[i].support, &cliques[j].support)
            {
                keep[i] = false;
            }
        }
    }
    let mut out: Vec<CliqueSolution> = cliques
        .into_iter()
        .zip(keep)
        .filter_map(|(c, k)| k.then_some(c))
        .collect();
    out.sort_by(|a, b| {
        b.affinity
            .partial_cmp(&a.affinity)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    out
}

/// `true` if sorted slice `a` is a subset of sorted slice `b`.
fn is_subset(a: &[VertexId], b: &[VertexId]) -> bool {
    let mut it = b.iter();
    'outer: for x in a {
        for y in it.by_ref() {
            match y.cmp(x) {
                std::cmp::Ordering::Equal => continue 'outer,
                std::cmp::Ordering::Greater => return false,
                std::cmp::Ordering::Less => {}
            }
        }
        return false;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcs_graph::GraphBuilder;

    #[test]
    fn subset_helper() {
        assert!(is_subset(&[1, 3], &[1, 2, 3, 4]));
        assert!(is_subset(&[], &[1]));
        assert!(!is_subset(&[1, 5], &[1, 2, 3, 4]));
        assert!(!is_subset(&[0, 1], &[1, 2]));
        assert!(is_subset(&[2], &[2]));
    }

    #[test]
    fn census_dedups_and_drops_subsets() {
        let gd =
            GraphBuilder::from_edges(5, vec![(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0), (3, 4, 5.0)]);
        let solutions = vec![
            Embedding::uniform(&[0, 1, 2]),
            Embedding::uniform(&[0, 1]), // subset of the triangle → dropped
            Embedding::uniform(&[0, 1, 2]), // duplicate → dropped
            Embedding::uniform(&[3, 4]),
            Embedding::default(), // empty → ignored
        ];
        let census = clique_census(&gd, &solutions);
        assert_eq!(census.len(), 2);
        // Sorted by affinity: the heavy pair (2*0.25*5 = 2.5) before the triangle (2/3).
        assert_eq!(census[0].support, vec![3, 4]);
        assert_eq!(census[1].support, vec![0, 1, 2]);
        assert!(census[0].affinity > census[1].affinity);
    }
}
