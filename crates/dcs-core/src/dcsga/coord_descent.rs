//! The 2-coordinate-descent shrink stage (Section V-B of the paper).
//!
//! Each iteration picks the two coordinates with the largest KKT violation,
//! `i = argmax_{k ∈ S, x_k < 1} ∇_k f_D(x)` and `j = argmin_{k ∈ S, x_k > 0} ∇_k f_D(x)`,
//! and redistributes their joint mass `C = x_i + x_j` by solving the one-dimensional
//! problem of Eq. 9 in closed form.  Unlike the replicator dynamics of the original SEA,
//! this works for matrices with **negative** entries and is guaranteed to converge to a
//! local KKT point on the working support `S` (the objective is non-decreasing and the
//! iterate stays on the simplex).
//!
//! The inner loop is generic over an [`super::arena::EmbeddingArena`]: the canonical
//! dense arena keeps `x` and the linear form `(Dx)_k` in workspace-owned arrays
//! (zero allocations in steady state, where the old implementation built two
//! `FxHashMap`s per call), and every edge read goes through a [`GraphView`], so the
//! same kernel serves the signed `G_D`, a materialised `G_{D+}`, the compact
//! `G_{D+}` of the NewSEA and top-k drivers under their masks, and
//! positive-filtered overlays.

use dcs_densest::Embedding;
use dcs_graph::{GraphView, SignedGraph, VertexId, Weight};

use super::arena::{DenseArena, EmbeddingArena, KernelScratch};

/// Outcome of a 2-coordinate-descent run.
#[derive(Debug, Clone)]
pub struct CoordDescentOutcome {
    /// The final embedding (a local KKT point on the working support, up to `epsilon`).
    pub embedding: Embedding,
    /// Final objective `f_D(x)`.
    pub objective: Weight,
    /// Number of coordinate updates performed.
    pub iterations: usize,
    /// Final KKT gap on the working support.
    pub kkt_gap: f64,
    /// Whether the gap criterion was met (as opposed to exhausting `max_iterations`).
    pub converged: bool,
}

/// Outcome of the in-arena shrink: the iterate itself stays in the arena.
#[derive(Debug, Clone, Copy)]
pub(super) struct DescendOutcome {
    /// Final objective `f_D(x)` (computed before renormalisation).
    pub objective: f64,
    /// Number of coordinate updates performed.
    pub iterations: usize,
    /// Final KKT gap on the working support.
    pub kkt_gap: f64,
    /// Whether the gap criterion was met.
    pub converged: bool,
}

/// The arena-resident 2-coordinate descent: shrinks the arena's embedding to a local
/// KKT point on `support` over the view's surviving edges.  `support` must be sorted
/// and deduplicated and contain the embedding's support.
pub(super) fn descend_in<A: EmbeddingArena>(
    view: GraphView<'_>,
    arena: &mut A,
    support: &[VertexId],
    epsilon: f64,
    max_iterations: usize,
) -> DescendOutcome {
    // Initialise the linear form (Dx)_k for every k in the working support.
    arena.dx_begin(support);
    for &u in support {
        let xu = arena.x(u);
        if xu == 0.0 {
            continue;
        }
        for e in view.neighbors(u) {
            arena.dx_add(e.neighbor, e.weight * xu);
        }
    }

    let mut iterations = 0usize;
    let mut converged = false;
    let mut kkt_gap = 0.0;

    loop {
        // Pick i = argmax over k ∈ S with x_k < 1, j = argmin over k ∈ S with x_k > 0.
        let mut best_i: Option<(VertexId, f64)> = None;
        let mut best_j: Option<(VertexId, f64)> = None;
        for &k in support {
            let grad = 2.0 * arena.dx(k);
            let xk = arena.x(k);
            if xk < 1.0 {
                match best_i {
                    None => best_i = Some((k, grad)),
                    Some((_, gi)) if grad > gi => best_i = Some((k, grad)),
                    _ => {}
                }
            }
            if xk > 0.0 {
                match best_j {
                    None => best_j = Some((k, grad)),
                    Some((_, gj)) if grad < gj => best_j = Some((k, grad)),
                    _ => {}
                }
            }
        }
        let (i, grad_i) = match best_i {
            Some(v) => v,
            None => {
                // All mass sits on a single vertex and S contains nothing else: the local
                // KKT conditions on S hold trivially.
                converged = true;
                break;
            }
        };
        let (j, grad_j) = match best_j {
            Some(v) => v,
            None => {
                // Empty embedding: nothing to move, trivially a fixed point.
                converged = true;
                break;
            }
        };
        kkt_gap = (grad_i - grad_j).max(0.0);
        if grad_i <= grad_j + epsilon || i == j {
            converged = true;
            break;
        }
        if iterations >= max_iterations {
            break;
        }
        iterations += 1;

        // Closed-form solution of Eq. 9 for the pair (i, j).
        let xi = arena.x(i);
        let xj = arena.x(j);
        let c = xi + xj;
        let dij = view.edge_weight(i, j).unwrap_or(0.0);
        let bi = arena.dx(i) - dij * xj;
        let bj = arena.dx(j) - dij * xi;

        let new_xi = if dij == 0.0 {
            // Linear in x_i: move all mass to the endpoint with the larger coefficient.
            if bi > bj {
                c
            } else if bi < bj {
                0.0
            } else {
                xi
            }
        } else {
            // g(x_i) = −dij·x_i² + B·x_i + const with B = dij·C + b_i − b_j; the best
            // of the endpoints {0, C} and (for concave g) the interior stationary
            // point r, later candidates winning ties.
            let b_coef = dij * c + bi - bj;
            let r = b_coef / (2.0 * dij);
            let eval = |t: f64| -dij * t * t + b_coef * t;
            let mut best_t = 0.0;
            let mut best_val = eval(0.0);
            if eval(c) >= best_val {
                best_t = c;
                best_val = eval(c);
            }
            if dij > 0.0 && r >= 0.0 && r <= c && eval(r) >= best_val {
                best_t = r;
            }
            best_t
        };
        let new_xj = c - new_xi;
        let delta_i = new_xi - xi;
        let delta_j = new_xj - xj;
        if delta_i == 0.0 && delta_j == 0.0 {
            // No progress possible for this pair (can happen at ties); we are done.
            converged = true;
            break;
        }
        arena.set_x(i, new_xi);
        arena.set_x(j, new_xj);
        // Update the linear forms of the support neighbours of i and j.
        if delta_i != 0.0 {
            for e in view.neighbors(i) {
                arena.dx_add(e.neighbor, e.weight * delta_i);
            }
        }
        if delta_j != 0.0 {
            for e in view.neighbors(j) {
                arena.dx_add(e.neighbor, e.weight * delta_j);
            }
        }
    }

    // f(x) = Σ_k x_k (Dx)_k, reduced in ascending support order.
    let mut objective = 0.0;
    for &k in support {
        objective += arena.x(k) * arena.dx(k);
    }
    DescendOutcome {
        objective,
        iterations,
        kkt_gap,
        converged,
    }
}

/// Runs 2-coordinate descent restricted to the working support `support` (the set `S` of
/// the paper's *local* KKT conditions, Eq. 10).  Vertices outside `support` keep value 0;
/// vertices inside `support` may gain or lose mass (including dropping to 0).
///
/// * `x0` — starting embedding; its support must be contained in `support`.
/// * `epsilon` — stop when
///   `max_{k∈S, x_k<1} ∇_k f − min_{k∈S, x_k>0} ∇_k f ≤ epsilon`.
/// * `max_iterations` — hard iteration cap.
///
/// This is the standalone entry point (a transient [`DenseArena`] per call); the
/// solvers run the same kernel on their workspace-owned arena instead.
pub fn descend_to_local_kkt(
    g: &SignedGraph,
    x0: &Embedding,
    support: &[VertexId],
    epsilon: f64,
    max_iterations: usize,
) -> CoordDescentOutcome {
    let mut support: Vec<VertexId> = support.to_vec();
    support.sort_unstable();
    support.dedup();
    debug_assert!(
        x0.support()
            .iter()
            .all(|v| support.binary_search(v).is_ok()),
        "the initial support must be contained in the working support"
    );

    let mut arena = DenseArena::default();
    arena.begin(g.num_vertices());
    for (v, value) in x0.iter() {
        arena.set_x(v, value);
    }
    let out = descend_in(
        GraphView::full(g),
        &mut arena,
        &support,
        epsilon,
        max_iterations,
    );
    let mut scratch = KernelScratch::default();
    arena.support_into(&mut scratch.support);
    let embedding = Embedding::from_weights(scratch.support.iter().map(|&v| (v, arena.x(v))));
    CoordDescentOutcome {
        objective: out.objective,
        embedding,
        iterations: out.iterations,
        kkt_gap: out.kkt_gap,
        converged: out.converged,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dcsga::kkt::local_kkt_gap;
    use dcs_graph::GraphBuilder;

    fn k4() -> SignedGraph {
        let mut b = GraphBuilder::new(4);
        for u in 0..4u32 {
            for v in (u + 1)..4u32 {
                b.add_edge(u, v, 1.0);
            }
        }
        b.build()
    }

    #[test]
    fn reaches_motzkin_straus_on_clique() {
        let g = k4();
        let support: Vec<u32> = vec![0, 1, 2, 3];
        let out = descend_to_local_kkt(&g, &Embedding::singleton(0), &support, 1e-9, 100_000);
        assert!(out.converged);
        assert!(
            (out.objective - 0.75).abs() < 1e-6,
            "objective {}",
            out.objective
        );
        assert!(local_kkt_gap(&g, &out.embedding, &support) <= 1e-6);
    }

    #[test]
    fn objective_non_decreasing_from_uniform() {
        let g = GraphBuilder::from_edges(
            5,
            vec![
                (0, 1, 3.0),
                (1, 2, -2.0),
                (2, 3, 4.0),
                (3, 4, 1.0),
                (0, 4, -1.0),
                (1, 3, 2.0),
            ],
        );
        let support: Vec<u32> = vec![0, 1, 2, 3, 4];
        let x0 = Embedding::uniform(&support);
        let f0 = x0.affinity(&g);
        let out = descend_to_local_kkt(&g, &x0, &support, 1e-8, 100_000);
        assert!(out.objective >= f0 - 1e-12);
        assert!((out.embedding.affinity(&g) - out.objective).abs() < 1e-9);
        assert!(out.converged);
    }

    #[test]
    fn handles_negative_weights_by_dropping_vertices() {
        // Heavy positive edge (0,1), vertex 2 attached only negatively: the optimum on
        // the full support puts zero mass on 2.
        let g = GraphBuilder::from_edges(3, vec![(0, 1, 4.0), (1, 2, -3.0), (0, 2, -3.0)]);
        let out = descend_to_local_kkt(
            &g,
            &Embedding::uniform(&[0, 1, 2]),
            &[0, 1, 2],
            1e-10,
            100_000,
        );
        assert!(out.converged);
        assert_eq!(out.embedding.support(), vec![0, 1]);
        assert!((out.objective - 2.0).abs() < 1e-6); // 2·(1/2)·(1/2)·4
    }

    #[test]
    fn restricted_support_is_respected() {
        let g = k4();
        // Only {0, 1} are allowed: the optimum is the uniform edge with affinity 0.5.
        let out = descend_to_local_kkt(&g, &Embedding::singleton(0), &[0, 1], 1e-10, 10_000);
        assert_eq!(out.embedding.support(), vec![0, 1]);
        assert!((out.objective - 0.5).abs() < 1e-9);
    }

    #[test]
    fn singleton_support_is_immediate_kkt() {
        let g = k4();
        let out = descend_to_local_kkt(&g, &Embedding::singleton(2), &[2], 1e-10, 10);
        assert!(out.converged);
        assert_eq!(out.iterations, 0);
        assert_eq!(out.objective, 0.0);
        assert_eq!(out.embedding.support(), vec![2]);
    }

    #[test]
    fn zero_mass_vertex_in_support_can_gain_mass() {
        let g = k4();
        // Start with mass only on 0 but allow {0, 1}: vertex 1 must receive mass.
        let out = descend_to_local_kkt(&g, &Embedding::singleton(0), &[0, 1], 1e-10, 10_000);
        assert!(out.embedding.get(1) > 0.4);
    }

    #[test]
    fn iteration_cap_is_respected() {
        let g = k4();
        let out = descend_to_local_kkt(&g, &Embedding::singleton(0), &[0, 1, 2, 3], 0.0, 3);
        assert!(out.iterations <= 3);
    }

    #[test]
    fn positive_view_hides_negative_edges_from_the_shrink() {
        // On the positive-filtered view the negative edges to vertex 2 vanish, so the
        // shrink treats {0,1,2} like a path-less pair plus an isolated vertex.
        let g = GraphBuilder::from_edges(3, vec![(0, 1, 4.0), (1, 2, -3.0), (0, 2, -3.0)]);
        let mut arena = DenseArena::default();
        arena.begin(3);
        let share = 1.0 / 3.0;
        for v in 0..3u32 {
            arena.set_x(v, share);
        }
        let out = descend_in(
            GraphView::full(&g).positive_part(),
            &mut arena,
            &[0, 1, 2],
            1e-10,
            100_000,
        );
        assert!(out.converged);
        // Identical to descending on the materialised positive part.
        let reference = descend_to_local_kkt(
            &g.positive_part(),
            &Embedding::uniform(&[0, 1, 2]),
            &[0, 1, 2],
            1e-10,
            100_000,
        );
        assert_eq!(out.objective, reference.objective);
    }
}
