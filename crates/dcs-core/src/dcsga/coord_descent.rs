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
//! The inner loop runs in the workspace's [`DenseArena`], which keeps `x` and the
//! linear form `(Dx)_k` in workspace-owned arrays (zero allocations in steady
//! state), and every edge read goes through a [`GraphView`], so the
//! same kernel serves the signed `G_D`, a materialised `G_{D+}`, the compact
//! `G_{D+}` of the NewSEA and top-k drivers under their masks, and
//! positive-filtered overlays.

use dcs_graph::{GraphView, VertexId};

use super::arena::DenseArena;

/// The arena-resident 2-coordinate descent: shrinks the arena's embedding to a local
/// KKT point on `support` (the set `S` of the paper's *local* KKT conditions, Eq. 10)
/// over the view's surviving edges, and returns the number of coordinate updates it
/// performed.
///
/// `support` must be sorted and deduplicated and contain the embedding's support;
/// vertices outside it keep value 0, vertices inside it may gain or lose mass
/// (including dropping to 0).  The descent stops when
/// `max_{k∈S, x_k<1} ∇_k f − min_{k∈S, x_k>0} ∇_k f ≤ epsilon`, or after
/// `max_iterations` updates.  The iterate stays in the arena, not renormalised.
pub(super) fn descend_in(
    view: GraphView<'_>,
    arena: &mut DenseArena,
    support: &[VertexId],
    epsilon: f64,
    max_iterations: usize,
) -> usize {
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
                break;
            }
        };
        let (j, grad_j) = match best_j {
            Some(v) => v,
            None => {
                // Empty embedding: nothing to move, trivially a fixed point.
                break;
            }
        };
        if grad_i <= grad_j + epsilon || i == j {
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

    iterations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dcsga::kkt::local_kkt_gap;
    use dcs_densest::Embedding;
    use dcs_graph::{GraphBuilder, SignedGraph};

    /// Descends from `x0` on `support` over `graph` in a fresh [`DenseArena`]:
    /// the final embedding (the arena's values as they stand) and the
    /// iteration count.
    fn descend<'a>(
        graph: impl Into<GraphView<'a>>,
        x0: &Embedding,
        support: &[VertexId],
        epsilon: f64,
        max_iterations: usize,
    ) -> (Embedding, usize) {
        let view = graph.into();
        let mut arena = DenseArena::default();
        arena.begin(view.num_vertices());
        for (v, value) in x0.iter() {
            arena.set_x(v, value);
        }
        let iterations = descend_in(view, &mut arena, support, epsilon, max_iterations);
        let mut kept = Vec::new();
        arena.support_into(&mut kept);
        let embedding = Embedding::from_weights(kept.iter().map(|&v| (v, arena.x(v))));
        (embedding, iterations)
    }

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
        let (x, iterations) = descend(&g, &Embedding::singleton(0), &support, 1e-9, 100_000);
        assert!(iterations < 100_000);
        let objective = x.affinity(&g);
        assert!((objective - 0.75).abs() < 1e-6, "objective {objective}");
        assert!(local_kkt_gap(&g, &x, &support) <= 1e-6);
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
        let (x, iterations) = descend(&g, &x0, &support, 1e-8, 100_000);
        assert!(x.affinity(&g) >= f0 - 1e-12);
        assert!(iterations < 100_000);
    }

    #[test]
    fn handles_negative_weights_by_dropping_vertices() {
        // Heavy positive edge (0,1), vertex 2 attached only negatively: the optimum on
        // the full support puts zero mass on 2.
        let g = GraphBuilder::from_edges(3, vec![(0, 1, 4.0), (1, 2, -3.0), (0, 2, -3.0)]);
        let (x, iterations) = descend(
            &g,
            &Embedding::uniform(&[0, 1, 2]),
            &[0, 1, 2],
            1e-10,
            100_000,
        );
        assert!(iterations < 100_000);
        assert_eq!(x.support(), vec![0, 1]);
        assert!((x.affinity(&g) - 2.0).abs() < 1e-6); // 2·(1/2)·(1/2)·4
    }

    #[test]
    fn restricted_support_is_respected() {
        let g = k4();
        // Only {0, 1} are allowed: the optimum is the uniform edge with affinity 0.5.
        let (x, _) = descend(&g, &Embedding::singleton(0), &[0, 1], 1e-10, 10_000);
        assert_eq!(x.support(), vec![0, 1]);
        assert!((x.affinity(&g) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn singleton_support_is_immediate_kkt() {
        let g = k4();
        let (x, iterations) = descend(&g, &Embedding::singleton(2), &[2], 1e-10, 10);
        assert_eq!(iterations, 0);
        assert_eq!(x.affinity(&g), 0.0);
        assert_eq!(x.support(), vec![2]);
    }

    #[test]
    fn zero_mass_vertex_in_support_can_gain_mass() {
        let g = k4();
        // Start with mass only on 0 but allow {0, 1}: vertex 1 must receive mass.
        let (x, _) = descend(&g, &Embedding::singleton(0), &[0, 1], 1e-10, 10_000);
        assert!(x.get(1) > 0.4);
    }

    #[test]
    fn iteration_cap_is_respected() {
        let g = k4();
        let (_, iterations) = descend(&g, &Embedding::singleton(0), &[0, 1, 2, 3], 0.0, 3);
        assert!(iterations <= 3);
    }

    #[test]
    fn positive_view_hides_negative_edges_from_the_shrink() {
        // On the positive-filtered view the negative edges to vertex 2 vanish, so the
        // shrink treats {0,1,2} like a path-less pair plus an isolated vertex.
        let g = GraphBuilder::from_edges(3, vec![(0, 1, 4.0), (1, 2, -3.0), (0, 2, -3.0)]);
        let x0 = Embedding::uniform(&[0, 1, 2]);
        let (on_view, iterations) = descend(
            GraphView::full(&g).positive_part(),
            &x0,
            &[0, 1, 2],
            1e-10,
            100_000,
        );
        assert!(iterations < 100_000);
        // Identical, bit for bit, to descending on the materialised positive part.
        let (reference, _) = descend(&g.positive_part(), &x0, &[0, 1, 2], 1e-10, 100_000);
        let bits = |x: &Embedding| -> Vec<(VertexId, u64)> {
            x.support()
                .into_iter()
                .map(|v| (v, x.get(v).to_bits()))
                .collect()
        };
        assert_eq!(bits(&on_view), bits(&reference));
    }
}
