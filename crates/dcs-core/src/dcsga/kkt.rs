//! Verification of the KKT conditions of the DCSGA problem (Eq. 7 and Eq. 10).
//!
//! A point `x ∈ Δn` is a KKT point of `max xᵀDx` iff there is a `λ` with
//!
//! ```text
//!   ∇_u f(x) = 2(Dx)_u  = λ   for every u with x_u > 0,
//!   ∇_u f(x) = 2(Dx)_u  ≤ λ   for every u with x_u = 0,
//! ```
//!
//! in which case `λ = 2·f(x)`.  The *local* KKT conditions on a working set `S`
//! (Eq. 10) are the same with the quantifier restricted to `u ∈ S`.
//!
//! These checks serve three purposes: unit/property tests of the solvers, the
//! expansion-error detection of the `SEA+Refine` comparator, and a public correctness
//! oracle for downstream users.

use dcs_densest::Embedding;
use dcs_graph::{GraphView, VertexId};

/// The (global) KKT violation of `x`: the amount by which the most violating vertex
/// breaks the conditions above, i.e.
/// `max( max_u |∇_u − λ| over supported u , max_u (∇_u − λ)⁺ over unsupported u )`
/// with `λ = 2 f(x)`.  A true KKT point has violation 0.
///
/// `graph` is a [`SignedGraph`](dcs_graph::SignedGraph) or any [`GraphView`] of one:
/// on a view the conditions are those of the filtered subgraph (dead vertices are
/// outside the problem, filtered edges contribute no gradient), so a view-based solve
/// can be certified without materialising the view.
pub fn kkt_violation<'a>(graph: impl Into<GraphView<'a>>, x: &Embedding) -> f64 {
    let view = graph.into();
    let lambda = 2.0 * x.affinity_view(view);
    let mut violation: f64 = 0.0;
    // Supported vertices: gradient must equal λ.
    for (u, _) in x.iter() {
        let grad = 2.0 * x.weighted_sum_at_view(view, u);
        violation = violation.max((grad - lambda).abs());
    }
    // Unsupported vertices: gradient must not exceed λ.  Only neighbours of the support
    // can have a non-zero gradient; for all the others ∇ = 0 which violates the condition
    // only if λ < 0 (then every vertex with ∇ = 0 > λ violates — check once).
    let mut checked_zero = false;
    for (u, _) in x.iter() {
        for e in view.neighbors(u) {
            let v = e.neighbor;
            if x.get(v) > 0.0 {
                continue;
            }
            let grad = 2.0 * x.weighted_sum_at_view(view, v);
            violation = violation.max((grad - lambda).max(0.0));
            checked_zero = true;
        }
    }
    if lambda < 0.0 && (!checked_zero || x.support_size() < view.alive_count()) {
        // Some vertex outside the support has gradient 0 > λ.
        violation = violation.max(-lambda);
    }
    violation
}

/// Returns `true` if `x` satisfies the KKT conditions of Eq. 7 within tolerance `eps`.
pub fn is_kkt_point<'a>(graph: impl Into<GraphView<'a>>, x: &Embedding, eps: f64) -> bool {
    kkt_violation(graph, x) <= eps
}

/// The local KKT gap of Eq. 11 restricted to the working set `support`:
/// `max_{k∈S, x_k<1} ∇_k f(x) − min_{k∈S, x_k>0} ∇_k f(x)` (clamped at 0).
pub fn local_kkt_gap<'a>(
    graph: impl Into<GraphView<'a>>,
    x: &Embedding,
    support: &[VertexId],
) -> f64 {
    let view = graph.into();
    let mut max_grad = f64::NEG_INFINITY;
    let mut min_grad = f64::INFINITY;
    for &k in support {
        let grad = 2.0 * x.weighted_sum_at_view(view, k);
        let xk = x.get(k);
        if xk < 1.0 {
            max_grad = max_grad.max(grad);
        }
        if xk > 0.0 {
            min_grad = min_grad.min(grad);
        }
    }
    if max_grad == f64::NEG_INFINITY || min_grad == f64::INFINITY {
        0.0
    } else {
        (max_grad - min_grad).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcs_graph::{GraphBuilder, SignedGraph};

    fn k3() -> SignedGraph {
        GraphBuilder::from_edges(3, vec![(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
    }

    #[test]
    fn uniform_clique_is_global_kkt() {
        let g = k3();
        let x = Embedding::uniform(&[0, 1, 2]);
        assert!(is_kkt_point(&g, &x, 1e-9));
        assert!(kkt_violation(&g, &x) < 1e-12);
    }

    #[test]
    fn sub_clique_is_local_but_not_global_kkt() {
        let g = k3();
        let x = Embedding::uniform(&[0, 1]);
        // Local KKT on {0, 1}: yes.
        assert!(local_kkt_gap(&g, &x, &[0, 1]) <= 1e-9);
        // Global: vertex 2 has gradient 2 > λ = 1 → violation 1.
        assert!(!is_kkt_point(&g, &x, 1e-6));
        assert!((kkt_violation(&g, &x) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn skewed_point_is_not_kkt() {
        let g = k3();
        let x = Embedding::from_weights(vec![(0, 0.7), (1, 0.3)]);
        assert!(local_kkt_gap(&g, &x, &[0, 1]) > 0.1);
    }

    #[test]
    fn singleton_is_local_kkt_on_itself() {
        let g = k3();
        let x = Embedding::singleton(0);
        assert!(local_kkt_gap(&g, &x, &[0]) <= 1e-12);
        // Globally it is not (neighbours have positive gradient vs λ = 0).
        assert!(!is_kkt_point(&g, &x, 1e-6));
    }

    #[test]
    fn negative_lambda_flags_outside_vertices() {
        // Support {0,1} joined by a negative edge: f < 0, so λ < 0 and any isolated
        // vertex (gradient 0) violates the KKT conditions.
        let g = GraphBuilder::from_edges(3, vec![(0, 1, -2.0)]);
        let x = Embedding::uniform(&[0, 1]);
        assert!(x.affinity(&g) < 0.0);
        assert!(kkt_violation(&g, &x) >= -2.0 * x.affinity(&g) - 1e-12);
        assert!(!is_kkt_point(&g, &x, 1e-6));
    }

    #[test]
    fn local_gap_zero_for_empty_support_slice() {
        let g = k3();
        let x = Embedding::uniform(&[0, 1]);
        assert_eq!(local_kkt_gap(&g, &x, &[]), 0.0);
    }
}
