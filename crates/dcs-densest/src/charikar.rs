//! Greedy peeling for the maximum-average-degree subgraph (Algorithm 1 of the paper).
//!
//! Starting from the full vertex set, the algorithm repeatedly removes the vertex with
//! the minimum current weighted degree and remembers the best prefix by average degree
//! `ρ(S) = W(S)/|S|` (degree-sum convention, see [`dcs_graph::SignedGraph::total_degree`]).
//!
//! On graphs with non-negative weights this is Charikar's classical 2-approximation of
//! the densest subgraph.  On signed graphs (the difference graph `G_D`) no approximation
//! guarantee exists — the DCSAD problem is `O(n^{1-ε})`-inapproximable — but the peel is
//! still a useful candidate generator, which is exactly how `DCSGreedy` uses it.

use dcs_graph::{GraphView, SignedGraph, VertexId, Weight};

use crate::peel::PeelWorkspace;

/// Granularity (in vertices) of the partial sums used to fold the initial
/// total degree.  Float addition is not associative, so this fold fixes the
/// order of the additions behind every density: the peel accumulates per-chunk
/// sums over ascending vertex ids and folds them in ascending chunk order, which
/// keeps densities **bit-identical** to earlier results and to the test oracle.
const DEGREE_CHUNK: usize = 64;

/// Result of a greedy peeling run.
#[derive(Debug, Clone, PartialEq)]
pub struct PeelingResult {
    /// The best vertex subset encountered during the peel (sorted ascending).
    pub subset: Vec<VertexId>,
    /// Its average degree `ρ(S) = W(S)/|S|` (degree-sum convention).
    pub average_degree: Weight,
}

/// Runs greedy peeling with the indexed degree heap (see [`crate::peel`]).
pub fn greedy_peeling(g: &SignedGraph) -> PeelingResult {
    greedy_peeling_view_into(GraphView::full(g), &mut PeelWorkspace::new(), |_| false).0
}

/// Greedy peeling on a [`GraphView`] with a **stop callback**, writing all scratch
/// state into a reusable [`PeelWorkspace`] — the allocation-lean hot path behind
/// every other peel entry point.
///
/// Each step removes the alive vertex with the smallest `(current degree, vertex id)`
/// key, so the smaller id wins a degree tie.  The keys live in an indexed min-heap
/// that moves a neighbour's key in place when an edge to it goes, so it never holds
/// more than one entry per alive vertex.  [`PeelWorkspace::removal_order`] records
/// the sequence.
///
/// `stop(units)` is invoked once per vertex removal (with `units = 1`) and peeling
/// aborts as soon as it returns `true`.  The returned result is the best prefix seen
/// *so far* — always a valid subset of the graph, just not necessarily the full
/// peel's best.  The second component reports whether the peel was interrupted.
/// This is the interruption primitive the `dcs-core` engine layer builds its
/// deadline/cancellation/budget support on.
///
/// Peeling a view is peeling the **alive-induced** subgraph: dead vertices take no
/// part (they are not counted in the density denominators and cannot appear in the
/// result), exactly as if [`dcs_graph::SignedGraph::induced_subgraph`] had been
/// materialised on the alive set — but with zero allocation beyond the workspace's
/// first use, and with vertex ids unchanged.
pub fn greedy_peeling_view_into<F: FnMut(u64) -> bool>(
    view: GraphView<'_>,
    ws: &mut PeelWorkspace,
    mut stop: F,
) -> (PeelingResult, bool) {
    let n = view.num_vertices();
    let alive_at_start = view.alive_count();
    if alive_at_start == 0 {
        return (
            PeelingResult {
                subset: Vec::new(),
                average_degree: 0.0,
            },
            false,
        );
    }
    let mut peel_span = dcs_obs::trace::span(dcs_obs::trace::Phase::Peel);
    ws.reset(n);
    // Two-pass initialisation: aliveness first, then degrees from the raw CSR rows
    // with the `ws.alive` test standing in for the mask (identical filtering, one
    // indirection less per edge).
    for v in view.vertices() {
        ws.alive[v as usize] = true;
    }
    let init_positive_only = view.is_positive_only();
    // Chunked total-degree accumulation (see `DEGREE_CHUNK`): per-chunk sums in
    // ascending vertex order, folded in ascending chunk order.
    ws.chunk_sums.resize(n.div_ceil(DEGREE_CHUNK), 0.0);
    for v in view.vertices() {
        let (nbrs, nbr_weights) = view.graph().neighbor_slices(v);
        let mut d: Weight = 0.0;
        for (&u, &w) in nbrs.iter().zip(nbr_weights) {
            if (init_positive_only && w <= 0.0) || !ws.alive[u as usize] {
                continue;
            }
            d += w;
        }
        ws.heap.push_unordered(v, d);
        ws.chunk_sums[v as usize / DEGREE_CHUNK] += d;
    }
    ws.heap.heapify();
    let mut total_degree: Weight = 0.0;
    for &chunk in ws.chunk_sums.iter() {
        total_degree += chunk;
    }

    let mut alive_count = alive_at_start;
    let mut best_density = total_degree / alive_count as Weight;
    let mut best_size = alive_count;
    let mut interrupted = false;
    // The relax loop below iterates the raw CSR rows: the heap holds exactly the
    // alive vertices of the view, so its membership test subsumes the mask test and
    // the hottest pass of the peel pays no per-edge view indirection.  Only the sign
    // filter (for positive-filtered views) remains.
    let positive_only = view.is_positive_only();
    let graph = view.graph();
    while alive_count > 1 {
        if stop(1) {
            interrupted = true;
            break;
        }
        let (v, _) = ws
            .heap
            .pop_min()
            .expect("the heap holds every alive vertex");
        ws.alive[v as usize] = false;
        // Removing v removes every surviving edge (v, u): the degree-sum drops by
        // twice the degree of v within the remaining subgraph, and each surviving
        // neighbour's key moves in place.
        let mut removed_weight = 0.0;
        let (nbrs, nbr_weights) = graph.neighbor_slices(v);
        for (&u, &w) in nbrs.iter().zip(nbr_weights) {
            if positive_only && w <= 0.0 {
                continue;
            }
            if ws.heap.subtract(u, w) {
                removed_weight += w;
            }
        }
        total_degree -= 2.0 * removed_weight;
        alive_count -= 1;
        ws.removal_order.push(v);

        let density = total_degree / alive_count as Weight;
        if density > best_density {
            best_density = density;
            best_size = alive_count;
        }
    }
    peel_span.set_units((alive_at_start - alive_count) as u64);

    // A single vertex has density 0 by convention; if every encountered prefix had
    // negative density (possible on signed graphs) the best answer is the last
    // surviving vertex alone.
    if best_density < 0.0 {
        let last = (0..n as VertexId)
            .find(|&v| ws.alive[v as usize])
            .expect("one vertex remains");
        return (
            PeelingResult {
                subset: vec![last],
                average_degree: 0.0,
            },
            interrupted,
        );
    }

    // Reconstruct the best subset: the alive-at-start vertices not among the first
    // (alive_at_start - best_size) removals.
    let removed_prefix = alive_at_start - best_size;
    for v in view.vertices() {
        ws.in_best[v as usize] = true;
    }
    for &v in ws.removal_order.iter().take(removed_prefix) {
        ws.in_best[v as usize] = false;
    }
    let mut subset: Vec<VertexId> = Vec::with_capacity(best_size);
    subset.extend((0..n as VertexId).filter(|&v| ws.in_best[v as usize]));
    debug_assert_eq!(subset.len(), best_size);
    (
        PeelingResult {
            average_degree: best_density,
            subset,
        },
        interrupted,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcs_graph::GraphBuilder;

    /// A 4-clique with unit weights attached to a long path: the clique is the densest
    /// subgraph (average degree 3) and greedy peeling finds it exactly.
    fn clique_with_tail() -> SignedGraph {
        let mut b = GraphBuilder::new(10);
        for u in 0..4u32 {
            for v in (u + 1)..4u32 {
                b.add_edge(u, v, 1.0);
            }
        }
        for v in 3..9u32 {
            b.add_edge(v, v + 1, 0.1);
        }
        b.build()
    }

    #[test]
    fn finds_planted_clique() {
        let g = clique_with_tail();
        let res = greedy_peeling(&g);
        assert_eq!(res.subset, vec![0, 1, 2, 3]);
        assert!((res.average_degree - 3.0).abs() < 1e-9);
    }

    #[test]
    fn handles_negative_weights() {
        // Two vertices joined by a +10 edge, plus a hub connected to everything with -1:
        // the peel must shed the hub and keep the heavy pair.
        let mut b = GraphBuilder::new(5);
        b.add_edge(0, 1, 10.0);
        for v in 0..4u32 {
            b.add_edge(4, v, -1.0);
        }
        let g = b.build();
        let res = greedy_peeling(&g);
        assert_eq!(res.subset, vec![0, 1]);
        assert!((res.average_degree - 10.0).abs() < 1e-9);
    }

    #[test]
    fn single_vertex_and_empty() {
        let g = SignedGraph::empty(1);
        let res = greedy_peeling(&g);
        assert_eq!(res.subset, vec![0]);
        assert_eq!(res.average_degree, 0.0);

        let g = SignedGraph::empty(0);
        let res = greedy_peeling(&g);
        assert!(res.subset.is_empty());
    }

    #[test]
    fn interruptible_peel_returns_best_so_far() {
        let g = clique_with_tail();
        let peel = |stop: &mut dyn FnMut(u64) -> bool| {
            greedy_peeling_view_into(GraphView::full(&g), &mut PeelWorkspace::new(), stop)
        };
        // Never stopped: identical to the plain peel.
        let (full, interrupted) = peel(&mut |_| false);
        assert!(!interrupted);
        assert_eq!(full, greedy_peeling(&g));
        // Stopped after a few removals: still a valid subset with a consistent density.
        let mut budget = 3u64;
        let (partial, interrupted) = peel(&mut |units| {
            budget = budget.saturating_sub(units);
            budget == 0
        });
        assert!(interrupted);
        assert!(!partial.subset.is_empty());
        assert!(partial
            .subset
            .iter()
            .all(|&v| (v as usize) < g.num_vertices()));
        assert!((g.average_degree(&partial.subset) - partial.average_degree).abs() < 1e-9);
        // Stopped immediately: the full vertex set (nothing peeled yet).
        let (none, interrupted) = peel(&mut |_| true);
        assert!(interrupted);
        assert_eq!(none.subset.len(), g.num_vertices());
    }

    #[test]
    fn view_peel_equals_induced_subgraph_peel() {
        use dcs_graph::{GraphView, VertexMask};
        let g = clique_with_tail();
        let mut ws = PeelWorkspace::new();

        // Full view through a reused workspace: identical to the plain peel.
        let full = greedy_peeling_view_into(GraphView::full(&g), &mut ws, |_| false).0;
        assert_eq!(full, greedy_peeling(&g));

        // Masked view: equals peeling the materialised induced subgraph (ids mapped
        // back), with the workspace reused across both differently-shaped peels.
        let removed = [1u32, 7];
        let mut mask = VertexMask::full(g.num_vertices());
        mask.remove_all(&removed);
        let of_view = greedy_peeling_view_into(GraphView::masked(&g, &mask), &mut ws, |_| false).0;
        let alive: Vec<u32> = mask.iter().collect();
        let (induced, back) = g.induced_subgraph(&alive);
        let of_induced = greedy_peeling(&induced);
        let mapped: Vec<u32> = of_induced
            .subset
            .iter()
            .map(|&v| back[v as usize])
            .collect();
        assert_eq!(of_view.subset, mapped);
        assert!((of_view.average_degree - of_induced.average_degree).abs() < 1e-12);

        // Positive view: equals peeling the materialised positive part.
        let mut signed = clique_with_tail();
        signed = {
            let mut b = GraphBuilder::new(signed.num_vertices());
            for (u, v, w) in signed.edges() {
                b.add_edge(u, v, w);
            }
            b.add_edge(0, 9, -5.0);
            b.build()
        };
        let positive =
            greedy_peeling_view_into(GraphView::full(&signed).positive_part(), &mut ws, |_| false)
                .0;
        assert_eq!(positive, greedy_peeling(&signed.positive_part()));
    }

    #[test]
    fn two_approximation_on_positive_graphs() {
        // Random-ish small positive graph; compare against brute force.
        let mut b = GraphBuilder::new(8);
        let edges = [
            (0, 1, 3.0),
            (1, 2, 1.0),
            (2, 3, 2.0),
            (3, 0, 1.5),
            (0, 2, 0.5),
            (4, 5, 4.0),
            (5, 6, 1.0),
            (6, 7, 2.5),
            (4, 6, 3.5),
            (1, 5, 0.2),
        ];
        for (u, v, w) in edges {
            b.add_edge(u, v, w);
        }
        let random_ish = b.build();
        // Two overlapping communities with different weights, plus a light pair.
        let mut b = GraphBuilder::new(12);
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
        let communities = b.build();
        for g in [random_ish, communities] {
            // Brute-force optimum over every non-empty subset.  Masks are u64: a
            // 32-bit `1 << v` silently overflows for n >= 32.
            let n = g.num_vertices();
            debug_assert!(n < 64, "brute-force subset masks are u64");
            let mut best = 0.0f64;
            for mask in 1u64..(1u64 << n) {
                let subset: Vec<u32> = (0..n as u32).filter(|&v| mask & (1u64 << v) != 0).collect();
                best = best.max(g.average_degree(&subset));
            }
            let res = greedy_peeling(&g);
            assert!(res.average_degree * 2.0 + 1e-9 >= best);
            assert!(res.average_degree <= best + 1e-9);
        }
    }
}
