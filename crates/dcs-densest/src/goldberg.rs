//! Goldberg's exact maximum-density-subgraph algorithm (max-flow + binary search).
//!
//! For a graph with **non-negative** edge weights, the subgraph maximising the average
//! degree `ρ(S) = W(S)/|S|` can be found in polynomial time (Goldberg 1984).  We use the
//! classical reduction: for a density guess `g`, build the flow network
//!
//! ```text
//!   source s ──(d_v)──▶ v          for every vertex v, d_v = weighted degree of v
//!   v ──(2g)──▶ sink t             for every vertex v
//!   u ◀──(w_uv)──▶ v               for every edge, capacity in both directions
//! ```
//!
//! The min cut is `Σ_v d_v − max_S (W(S) − 2g·|S|)`, so a subgraph with average degree
//! `> g` exists iff the min cut is `< Σ_v d_v`, and the source side of the cut exhibits
//! one.  A binary search over `g` converges to the optimum; for the rational densities
//! arising from rational weights the search terminates exactly once the interval is
//! smaller than `1/(n(n-1))` times the weight granularity, but we simply run a fixed
//! number of iterations and return the best non-empty source side found, which is exact
//! for all practical purposes (and verified against brute force in the tests).
//!
//! This solver is a *substrate*: the paper's DCSAD problem cannot use it directly because
//! the difference graph has negative weights (that is the whole point of Theorem 1), but
//! it provides ground truth on `G_{D+}` for tests and an ablation baseline.

use dcs_graph::{GraphView, SignedGraph, VertexId, Weight};

use crate::maxflow::FlowNetwork;

/// Result of the exact densest-subgraph computation.
#[derive(Debug, Clone, PartialEq)]
pub struct DensestSubgraph {
    /// The optimal vertex subset (sorted ascending).
    pub subset: Vec<VertexId>,
    /// Its average degree `W(S)/|S|` (degree-sum convention).
    pub average_degree: Weight,
}

/// Number of binary-search iterations.  Each halves the candidate interval; 64 rounds
/// drive the interval below 1e-15 of the initial range, far below any meaningful density
/// difference for `f64` weights.
const BINARY_SEARCH_ROUNDS: usize = 64;

/// Computes the subgraph with maximum average degree of a non-negatively weighted graph.
///
/// # Panics
///
/// Panics if the graph contains a negative edge weight — the reduction is only valid for
/// non-negative weights (use the DCS algorithms for signed graphs).
pub fn densest_subgraph_exact(g: &SignedGraph) -> DensestSubgraph {
    assert!(
        g.num_negative_edges() == 0,
        "densest_subgraph_exact requires non-negative edge weights"
    );
    densest_subgraph_view_until(GraphView::full(g), &mut FlowNetwork::new(0), |_| false).0
}

/// [`densest_subgraph_exact`] on a [`GraphView`] with a **stop callback**, building
/// every min-cut instance into a reused [`FlowNetwork`] arena.
///
/// `stop(1)` is invoked before every binary-search round (each round is one max-flow
/// computation) and the search aborts as soon as it returns `true`, returning the
/// best subgraph certified so far.  The second component reports whether the search
/// was interrupted.  Interruption granularity is one max-flow round — a single flow
/// computation is never cut short.
///
/// The view's surviving edges must be non-negative (a positive-filtered view
/// guarantees this by construction; otherwise the routine panics on the first
/// negative surviving edge).  Dead vertices take no part: they enter the flow
/// network isolated and can never reach the source side of a cut.  The arena keeps
/// its arc storage across the ~64 binary-search rounds *and* across solves, which is
/// the allocation hot path of the exact comparator.
pub fn densest_subgraph_view_until<F: FnMut(u64) -> bool>(
    view: GraphView<'_>,
    net: &mut FlowNetwork,
    mut stop: F,
) -> (DensestSubgraph, bool) {
    let n = view.num_vertices();
    if view.alive_count() == 0 {
        return (
            DensestSubgraph {
                subset: Vec::new(),
                average_degree: 0.0,
            },
            false,
        );
    }
    let mut degrees: Vec<Weight> = vec![0.0; n];
    let mut has_edge = false;
    for v in view.vertices() {
        let mut d = 0.0;
        for e in view.neighbors(v) {
            assert!(
                e.weight >= 0.0,
                "densest_subgraph_exact requires non-negative edge weights"
            );
            d += e.weight;
            has_edge = true;
        }
        degrees[v as usize] = d;
    }
    if !has_edge {
        return (
            DensestSubgraph {
                subset: vec![view.first_alive().expect("alive vertex exists")],
                average_degree: 0.0,
            },
            false,
        );
    }
    let degree_sum: Weight = degrees.iter().sum();

    // The density (degree-sum convention) lies in [0, max over the peel]; the full-graph
    // density is a lower bound and the maximum weighted degree is an upper bound.
    let mut lo: Weight = 0.0;
    let mut hi: Weight = degrees.iter().cloned().fold(0.0, Weight::max);
    let mut best: Option<(Vec<VertexId>, Weight)> = None;

    let mut interrupted = false;
    let mut marks = dcs_graph::VertexSubset::new(0);
    let mut flow_span = dcs_obs::trace::span(dcs_obs::trace::Phase::Flow);
    for _ in 0..BINARY_SEARCH_ROUNDS {
        if stop(1) {
            interrupted = true;
            break;
        }
        flow_span.add_units(1);
        let guess = 0.5 * (lo + hi);
        let candidate = min_cut_candidate(view, net, &degrees, degree_sum, guess);
        match candidate {
            Some(subset) if !subset.is_empty() => {
                let density = view_average_degree(view, &subset, &mut marks);
                if best.as_ref().map(|(_, d)| density > *d).unwrap_or(true) {
                    best = Some((subset, density));
                }
                lo = guess;
            }
            _ => {
                hi = guess;
            }
        }
        if hi - lo < 1e-12 * hi.max(1.0) {
            break;
        }
    }

    let result = match best {
        Some((mut subset, density)) => {
            subset.sort_unstable();
            DensestSubgraph {
                subset,
                average_degree: density,
            }
        }
        None => {
            // All guesses were infeasible, which can only happen if the graph is
            // edgeless (handled above) or the search was interrupted before its first
            // round — return a safe default.
            DensestSubgraph {
                subset: vec![view.first_alive().expect("alive vertex exists")],
                average_degree: 0.0,
            }
        }
    };
    (result, interrupted)
}

/// Average degree of `subset` over the view's surviving edges (degree-sum
/// convention).  `marks` is reused scratch — one membership set serves all ~64
/// binary-search rounds of a solve.
fn view_average_degree(
    view: GraphView<'_>,
    subset: &[VertexId],
    marks: &mut dcs_graph::VertexSubset,
) -> Weight {
    if subset.is_empty() {
        return 0.0;
    }
    marks.reset_universe(view.num_vertices());
    marks.insert_all(subset);
    let mut sum = 0.0;
    for &u in subset {
        for e in view.neighbors(u) {
            if marks.contains(e.neighbor) {
                sum += e.weight;
            }
        }
    }
    sum / subset.len() as Weight
}

/// For a density guess, returns the source side of the min cut (excluding `s`/`t`) if it
/// certifies a subgraph with average degree >= guess, otherwise `None`.
fn min_cut_candidate(
    view: GraphView<'_>,
    net: &mut FlowNetwork,
    degrees: &[Weight],
    degree_sum: Weight,
    guess: Weight,
) -> Option<Vec<VertexId>> {
    let n = view.num_vertices();
    let source = n;
    let sink = n + 1;
    net.clear_and_resize(n + 2);
    for (v, &degree) in degrees.iter().enumerate() {
        net.add_edge(source, v, degree);
        net.add_edge(v, sink, guess); // 2g in the W(S)/(2|S|) formulation == g here:
                                      // with the degree-sum convention ρ(S) = W(S)/|S| where W counts each edge
                                      // twice, the classical construction's `2g` becomes exactly `guess`.
    }
    for (u, v, w) in view.edges() {
        net.add_undirected_edge(u as usize, v as usize, w);
    }
    let cut = net.max_flow(source, sink);
    if cut >= degree_sum - 1e-9 * degree_sum.max(1.0) {
        return None;
    }
    let side = net.min_cut_source_side(source);
    let subset: Vec<VertexId> = side
        .into_iter()
        .filter(|&v| v < n)
        .map(|v| v as VertexId)
        .collect();
    if subset.is_empty() {
        None
    } else {
        Some(subset)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcs_graph::GraphBuilder;

    fn brute_force_densest(g: &SignedGraph) -> (Vec<VertexId>, Weight) {
        let n = g.num_vertices();
        // u64 masks: `1 << n` / `1 << v` on a u32 silently overflows for n >= 32.
        debug_assert!(n < 64, "brute-force subset masks are u64");
        assert!(n <= 16, "exponential brute force is for tiny graphs only");
        let mut best: (Vec<VertexId>, Weight) = (vec![0], 0.0);
        for mask in 1u64..(1u64 << n) {
            let subset: Vec<VertexId> =
                (0..n as u32).filter(|&v| mask & (1u64 << v) != 0).collect();
            let d = g.average_degree(&subset);
            if d > best.1 {
                best = (subset, d);
            }
        }
        best
    }

    #[test]
    fn clique_with_tail_exact() {
        let mut b = GraphBuilder::new(8);
        for u in 0..4u32 {
            for v in (u + 1)..4u32 {
                b.add_edge(u, v, 1.0);
            }
        }
        b.add_edge(3, 4, 0.5);
        b.add_edge(4, 5, 0.5);
        b.add_edge(5, 6, 0.5);
        b.add_edge(6, 7, 0.5);
        let g = b.build();
        let exact = densest_subgraph_exact(&g);
        assert_eq!(exact.subset, vec![0, 1, 2, 3]);
        assert!((exact.average_degree - 3.0).abs() < 1e-6);
    }

    #[test]
    fn matches_brute_force_on_small_graphs() {
        // A handful of deterministic small weighted graphs.
        let cases: Vec<Vec<(u32, u32, f64)>> = vec![
            vec![(0, 1, 1.0), (1, 2, 2.0), (2, 0, 3.0), (2, 3, 1.0)],
            vec![
                (0, 1, 5.0),
                (1, 2, 1.0),
                (2, 3, 1.0),
                (3, 4, 1.0),
                (4, 0, 1.0),
                (1, 3, 2.0),
            ],
            vec![
                (0, 1, 1.0),
                (0, 2, 1.0),
                (0, 3, 1.0),
                (1, 2, 1.0),
                (1, 3, 1.0),
                (2, 3, 1.0),
                (4, 5, 3.5),
            ],
        ];
        for edges in cases {
            let n = edges
                .iter()
                .map(|&(u, v, _)| u.max(v) as usize + 1)
                .max()
                .unwrap();
            let g = GraphBuilder::from_edges(n, edges);
            let exact = densest_subgraph_exact(&g);
            let (brute_set, brute_density) = brute_force_densest(&g);
            assert!(
                (exact.average_degree - brute_density).abs() < 1e-6,
                "exact {} vs brute {brute_density} (set {brute_set:?})",
                exact.average_degree
            );
        }
    }

    #[test]
    fn greedy_is_within_factor_two() {
        let mut b = GraphBuilder::new(12);
        // Two overlapping communities with different weights.
        for u in 0..6u32 {
            for v in (u + 1)..6u32 {
                b.add_edge(u, v, 1.0);
            }
        }
        for u in 5..10u32 {
            for v in (u + 1)..10u32 {
                b.add_edge(u, v, 2.0);
            }
        }
        b.add_edge(10, 11, 0.5);
        let g = b.build();
        let exact = densest_subgraph_exact(&g);
        let greedy = crate::charikar::greedy_peeling(&g);
        assert!(greedy.average_degree >= exact.average_degree / 2.0 - 1e-9);
        assert!(greedy.average_degree <= exact.average_degree + 1e-9);
    }

    #[test]
    fn edgeless_and_empty() {
        let exact = densest_subgraph_exact(&SignedGraph::empty(4));
        assert_eq!(exact.average_degree, 0.0);
        assert_eq!(exact.subset, vec![0]);
        let exact = densest_subgraph_exact(&SignedGraph::empty(0));
        assert!(exact.subset.is_empty());
    }

    #[test]
    fn interruptible_search_returns_best_so_far() {
        let mut b = GraphBuilder::new(6);
        for u in 0..4u32 {
            for v in (u + 1)..4u32 {
                b.add_edge(u, v, 1.0);
            }
        }
        b.add_edge(4, 5, 0.25);
        let g = b.build();
        // A couple of rounds are enough to certify *some* non-empty subgraph.
        let search = |stop: &mut dyn FnMut(u64) -> bool| {
            densest_subgraph_view_until(GraphView::full(&g), &mut FlowNetwork::new(0), stop)
        };
        let mut rounds = 0u64;
        let (partial, interrupted) = search(&mut |_| {
            rounds += 1;
            rounds > 3
        });
        assert!(interrupted);
        assert!(!partial.subset.is_empty());
        assert!((g.average_degree(&partial.subset) - partial.average_degree).abs() < 1e-9);
        // Uninterrupted: identical to the plain call.
        let (full, interrupted) = search(&mut |_| false);
        assert!(!interrupted);
        assert_eq!(full, densest_subgraph_exact(&g));
    }

    #[test]
    fn view_search_with_reused_arena_matches_exact() {
        use dcs_graph::{GraphView, VertexMask};
        let mut b = GraphBuilder::new(8);
        for u in 0..4u32 {
            for v in (u + 1)..4u32 {
                b.add_edge(u, v, 1.0);
            }
        }
        b.add_edge(3, 4, 0.5);
        b.add_edge(4, 5, 0.5);
        b.add_edge(5, 6, -2.0); // filtered by the positive view
        b.add_edge(6, 7, 3.5);
        let g = b.build();
        let mut net = FlowNetwork::new(0);

        // Positive view == materialised positive part, arena reused across solves.
        let (of_view, _) =
            densest_subgraph_view_until(GraphView::full(&g).positive_part(), &mut net, |_| false);
        assert_eq!(of_view, densest_subgraph_exact(&g.positive_part()));

        // Masked positive view == induced-then-filtered materialisation (ids mapped).
        let mut mask = VertexMask::full(8);
        mask.remove_all(&[6, 7]);
        let view = GraphView::masked(&g, &mask).positive_part();
        let (masked, _) = densest_subgraph_view_until(view, &mut net, |_| false);
        let alive: Vec<u32> = mask.iter().collect();
        let (induced, back) = g.positive_part().induced_subgraph(&alive);
        let of_induced = densest_subgraph_exact(&induced);
        let mapped: Vec<u32> = of_induced
            .subset
            .iter()
            .map(|&v| back[v as usize])
            .collect();
        assert_eq!(masked.subset, mapped);
        assert!((masked.average_degree - of_induced.average_degree).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rejects_negative_weights() {
        let g = GraphBuilder::from_edges(2, vec![(0, 1, -1.0)]);
        densest_subgraph_exact(&g);
    }
}
