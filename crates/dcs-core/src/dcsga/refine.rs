//! Refinement of a KKT point to a positive-clique solution (Algorithm 4, Theorem 5).
//!
//! Theorem 5 shows that any KKT point `x` whose support is *not* a positive clique of
//! `G_D` can be improved (without decreasing the objective) by repeatedly
//!
//! 1. picking two supported vertices `u, v` whose connecting edge is missing or has
//!    non-positive weight,
//! 2. transferring all of the pair's mass to the better endpoint (for a zero/missing edge
//!    at an exact KKT point both choices tie; for a negative edge the 1-D problem of
//!    Eq. 9 is convex so one endpoint strictly improves),
//! 3. re-running the 2-coordinate descent to a local KKT point on the reduced support.
//!
//! The support shrinks by at least one vertex per round, so the loop terminates with a
//! positive-clique solution whose objective is at least the input's.
//!
//! Like the shrink and expansion stages, the refinement loop ([`refine_in`]) runs in
//! the workspace's [`DenseArena`] over a [`GraphView`]: no embedding clones for the
//! two mass-transfer candidates, no materialised `G_{D+}`.

use dcs_densest::Embedding;
use dcs_graph::{GraphView, SignedGraph, VertexId};

use super::arena::{renormalize_in, DenseArena, KernelScratch};
use super::coord_descent::descend_in;
use super::{KKT_EPS_FACTOR, MAX_CD_ITERATIONS};

/// The arena-resident Algorithm 4: refines the arena's embedding into a
/// positive-clique solution of the view with objective ≥ the input's.
pub(super) fn refine_in(view: GraphView<'_>, arena: &mut DenseArena, scratch: &mut KernelScratch) {
    let mut refine_span = dcs_obs::trace::span(dcs_obs::trace::Phase::Refine);
    loop {
        arena.support_into(&mut scratch.support);
        if scratch.support.len() <= 1 {
            return;
        }
        let Some((u, v)) = find_non_clique_pair(view, &scratch.support) else {
            return; // already a positive clique
        };
        refine_span.add_units(1);

        // Transfer the pair's mass to the better endpoint: evaluate both options
        // without cloning the embedding.
        let c = arena.x(u) + arena.x(v);
        let keep_u = affinity_overridden(view, arena, &scratch.support, u, c, v);
        let keep_v = affinity_overridden(view, arena, &scratch.support, v, c, u);
        if keep_u >= keep_v {
            arena.set_x(u, c);
            arena.set_x(v, 0.0);
        } else {
            arena.set_x(v, c);
            arena.set_x(u, 0.0);
        }

        // Re-descend to a local KKT point on the reduced support.
        arena.support_into(&mut scratch.support);
        if scratch.support.is_empty() {
            return;
        }
        let eps = KKT_EPS_FACTOR / scratch.support.len() as f64;
        descend_in(view, arena, &scratch.support, eps, MAX_CD_ITERATIONS);
        renormalize_in(arena, &mut scratch.support);
    }
}

/// `f(x')` where `x'` equals the arena's embedding with `x'_boosted = c` and
/// `skipped` removed — the objective of one mass-transfer candidate, computed in
/// ascending support order without materialising `x'`.
fn affinity_overridden(
    view: GraphView<'_>,
    arena: &DenseArena,
    support: &[VertexId],
    boosted: VertexId,
    c: f64,
    skipped: VertexId,
) -> f64 {
    let value = |k: VertexId| {
        if k == boosted {
            c
        } else if k == skipped {
            0.0
        } else {
            arena.x(k)
        }
    };
    let mut total = 0.0;
    for &k in support {
        if k == skipped {
            continue;
        }
        let xk = value(k);
        if xk == 0.0 {
            continue;
        }
        let mut row = 0.0;
        for e in view.neighbors(k) {
            let xnb = value(e.neighbor);
            if xnb > 0.0 {
                row += e.weight * xnb;
            }
        }
        total += xk * row;
    }
    total
}

/// Finds a pair of supported vertices whose view edge is missing or has non-positive
/// weight, or `None` if the support induces a positive clique.
fn find_non_clique_pair(view: GraphView<'_>, support: &[VertexId]) -> Option<(VertexId, VertexId)> {
    for (idx, &u) in support.iter().enumerate() {
        for &v in &support[idx + 1..] {
            match view.edge_weight(u, v) {
                Some(w) if w > 0.0 => {}
                _ => return Some((u, v)),
            }
        }
    }
    None
}

/// Refines `x` into a positive-clique solution of `g` with objective ≥ `f(x)`.
///
/// `g` is typically `G_{D+}` (then "positive clique" simply means clique), but the
/// routine also accepts the signed `G_D` and treats non-positive edges like missing ones,
/// exactly as in the constructive proof of Theorem 5.  This standalone entry builds a
/// transient arena per call; the SEACD sweeps refine through their workspace's arena.
pub fn refine(g: &SignedGraph, x: Embedding) -> Embedding {
    let mut arena = DenseArena::default();
    let mut scratch = KernelScratch::default();
    refine_loaded(GraphView::full(g), x, &mut arena, &mut scratch)
}

/// [`refine`] against a caller-owned [`crate::workspace::SolverWorkspace`]: repeated
/// refinements (the sequential and parallel sweeps) reuse the dense arena instead of
/// allocating one per call.
pub(crate) fn refine_with_workspace(
    g: &SignedGraph,
    x: Embedding,
    ws: &mut crate::workspace::SolverWorkspace,
) -> Embedding {
    let dcsga = &mut ws.dcsga;
    refine_loaded(GraphView::full(g), x, &mut dcsga.arena, &mut dcsga.kernel)
}

fn refine_loaded(
    view: GraphView<'_>,
    x: Embedding,
    arena: &mut DenseArena,
    scratch: &mut KernelScratch,
) -> Embedding {
    arena.begin(view.num_vertices());
    for (v, value) in x.iter() {
        arena.set_x(v, value);
    }
    refine_in(view, arena, scratch);
    super::seacd::export_embedding(arena, scratch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcs_graph::GraphBuilder;

    #[test]
    fn already_a_clique_is_untouched() {
        let g = GraphBuilder::from_edges(3, vec![(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)]);
        let x = Embedding::uniform(&[0, 1, 2]);
        let y = refine(&g, x.clone());
        assert_eq!(y.support(), vec![0, 1, 2]);
        assert!((y.affinity(&g) - x.affinity(&g)).abs() < 1e-12);
    }

    #[test]
    fn missing_edge_is_removed_without_loss() {
        // Path 0-1-2 (no edge 0-2): the uniform embedding on {0,1,2} is not a clique
        // solution; refinement must end on a clique (an edge) with objective >= input.
        let g = GraphBuilder::from_edges(3, vec![(0, 1, 1.0), (1, 2, 1.0)]);
        let x = Embedding::uniform(&[0, 1, 2]);
        let before = x.affinity(&g);
        let y = refine(&g, x);
        assert!(g.is_positive_clique(&y.support()));
        assert!(y.affinity(&g) >= before - 1e-9);
        assert_eq!(y.support().len(), 2);
    }

    #[test]
    fn negative_edge_is_removed_and_objective_improves() {
        // Triangle where one edge is negative: dropping one endpoint of the negative
        // edge strictly improves the objective.
        let g = GraphBuilder::from_edges(3, vec![(0, 1, 2.0), (1, 2, 2.0), (0, 2, -1.0)]);
        let x = Embedding::uniform(&[0, 1, 2]);
        let before = x.affinity(&g);
        let y = refine(&g, x);
        assert!(g.is_positive_clique(&y.support()));
        assert!(y.affinity(&g) > before);
        assert_eq!(y.support().len(), 2);
    }

    #[test]
    fn collapses_to_best_edge_in_a_star() {
        // Star: centre 0 with leaves 1..4, leaf edges have different weights.  No pair of
        // leaves is adjacent, so refinement must end with the centre plus one leaf — and
        // picking greedily by objective keeps a heavy one.
        let g =
            GraphBuilder::from_edges(5, vec![(0, 1, 1.0), (0, 2, 5.0), (0, 3, 2.0), (0, 4, 1.0)]);
        let x = Embedding::uniform(&[0, 1, 2, 3, 4]);
        let y = refine(&g, x);
        let support = y.support();
        assert!(g.is_positive_clique(&support));
        assert_eq!(support.len(), 2);
        assert!(support.contains(&0));
        // Objective must be at least the best achievable from the input by Theorem 5 —
        // and in this star the best clique is the centre plus leaf 2 (affinity 2.5).
        assert!((y.affinity(&g) - 2.5).abs() < 1e-6);
    }

    #[test]
    fn singleton_and_empty_are_fixed_points() {
        let g = GraphBuilder::from_edges(2, vec![(0, 1, 1.0)]);
        let single = refine(&g, Embedding::singleton(0));
        assert_eq!(single.support(), vec![0]);
        let empty = refine(&g, Embedding::default());
        assert!(empty.is_empty());
    }

    #[test]
    fn disconnected_support_is_resolved() {
        // Two disjoint heavy edges in the support: not a clique, refinement keeps one.
        let g = GraphBuilder::from_edges(4, vec![(0, 1, 3.0), (2, 3, 2.0)]);
        let x = Embedding::uniform(&[0, 1, 2, 3]);
        let before = x.affinity(&g);
        let y = refine(&g, x);
        assert!(g.is_positive_clique(&y.support()));
        assert_eq!(y.support(), vec![0, 1]);
        assert!(y.affinity(&g) >= before - 1e-9);
        assert!((y.affinity(&g) - 1.5).abs() < 1e-6);
    }

    #[test]
    fn positive_view_refine_matches_materialized() {
        // Refining over a positive-filtered view of the signed graph equals refining
        // over the materialised positive part.
        let g = GraphBuilder::from_edges(4, vec![(0, 1, 2.0), (1, 2, 2.0), (0, 2, -1.0)]);
        let x = Embedding::uniform(&[0, 1, 2]);
        let mut arena = DenseArena::default();
        let mut scratch = KernelScratch::default();
        let via_view = refine_loaded(
            GraphView::full(&g).positive_part(),
            x.clone(),
            &mut arena,
            &mut scratch,
        );
        let via_materialized = refine(&g.positive_part(), x);
        assert_eq!(via_view.support(), via_materialized.support());
    }
}
