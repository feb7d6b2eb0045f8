//! The SEA expansion step (Appendix A of the paper, originally Liu et al. 2013).
//!
//! Given a *local* KKT point `x` on its support `S_x` and a set `Z` of vertices whose
//! gradient exceeds `λ = 2f(x)`, the expansion moves mass from `S_x` onto `Z` along the
//! direction
//!
//! ```text
//!   b_i = −x_i·s   for i ∈ S_x,      b_i = γ_i   for i ∈ Z,
//!   γ_i = (Dx)_i − f(x),   s = Σ_{i∈Z} γ_i .
//! ```
//!
//! Since `Σ_i b_i = 0` the iterate stays on the simplex for any step `τ ∈ [0, 1/s]`.
//! The objective change is the quadratic
//! `f(x+τb) − f(x) = 2ζτ − a·τ²` with `ζ = Σ γ_i²` and
//! `a = f(x)·s² + 2sζ − ω`, `ω = Σ_{i,j∈Z} γ_i γ_j D(i,j)`  — note the paper's Appendix
//! states the linear term with a flipped sign; the derivation (and the original SEA
//! paper) give `+2ζτ`, which is what we implement, otherwise the step could never
//! increase the objective.
//!
//! The optimal step is `τ = 1/s` when `a ≤ 0` and `min(1/s, ζ/a)` otherwise.
//!
//! The step is valid for arbitrary symmetric matrices (no non-negativity needed), so the
//! same routine serves both the original SEA (`dcs-densest::sea`) and the paper's SEACD
//! (`dcs-core`).  **However**, the objective is only guaranteed to increase if `x` really
//! is a local KKT point on its support — when the shrink stage stops early (the loose
//! objective-improvement rule) the expansion may *decrease* the objective.  Those events
//! are the "errors in expansion" the paper reports in Table VII / Fig. 2(b), and the
//! caller can detect them by comparing [`ExpansionOutcome::objective_after`] with
//! [`ExpansionOutcome::objective_before`].

use dcs_graph::{GraphView, SignedGraph, VertexId};
use rustc_hash::FxHashMap;

use crate::simplex::Embedding;

/// Result of one expansion step.
#[derive(Debug, Clone)]
pub struct ExpansionOutcome {
    /// The embedding after the step.
    pub embedding: Embedding,
    /// Objective before the step.
    pub objective_before: f64,
    /// Objective after the step.
    pub objective_after: f64,
    /// The step length `τ` that was taken (0 when `Z` was empty).
    pub tau: f64,
}

impl ExpansionOutcome {
    /// `true` when the step decreased the objective (an "error in expansion").
    pub fn is_error(&self) -> bool {
        self.objective_after < self.objective_before - 1e-12
    }
}

/// Performs one SEA expansion step of `x` by the vertex set `expand_by` (the set `Z`).
///
/// Vertices of `expand_by` that are already in the support are ignored.  If `Z` is empty
/// (or the direction degenerates, `s ≤ 0`) the embedding is returned unchanged.
pub fn expansion_step(g: &SignedGraph, x: &Embedding, expand_by: &[VertexId]) -> ExpansionOutcome {
    let objective_before = x.affinity(g);
    let z: Vec<VertexId> = expand_by
        .iter()
        .copied()
        .filter(|&v| x.get(v) == 0.0)
        .collect();
    if z.is_empty() {
        return ExpansionOutcome {
            embedding: x.clone(),
            objective_before,
            objective_after: objective_before,
            tau: 0.0,
        };
    }

    // γ_i for i ∈ Z.
    let mut gamma: FxHashMap<VertexId, f64> = FxHashMap::default();
    for &i in &z {
        gamma.insert(i, x.weighted_sum_at(g, i) - objective_before);
    }
    let s: f64 = gamma.values().sum();
    if s <= 0.0 {
        return ExpansionOutcome {
            embedding: x.clone(),
            objective_before,
            objective_after: objective_before,
            tau: 0.0,
        };
    }
    let zeta: f64 = gamma.values().map(|g| g * g).sum();
    // ω = Σ_{i,j∈Z} γ_i γ_j D(i,j): iterate the adjacency of Z members.
    let mut omega = 0.0;
    for (&i, &gi) in &gamma {
        for e in g.neighbors(i) {
            if let Some(&gj) = gamma.get(&e.neighbor) {
                omega += gi * gj * e.weight;
            }
        }
    }
    let a = objective_before * s * s + 2.0 * s * zeta - omega;
    let tau = if a <= 0.0 {
        1.0 / s
    } else {
        (1.0 / s).min(zeta / a)
    };

    // Apply x ← x + τ·b.
    let mut new_x = x.clone();
    let shrink_factor = 1.0 - tau * s;
    for (v, xv) in x.iter() {
        new_x.set(v, xv * shrink_factor);
    }
    for (&i, &gi) in &gamma {
        new_x.set(i, tau * gi);
    }
    new_x.normalize();
    let objective_after = new_x.affinity(g);

    ExpansionOutcome {
        embedding: new_x,
        objective_before,
        objective_after,
        tau,
    }
}

/// Computes the expansion candidate set `Z = {i ∈ V | ∇_i f(x) > λ + tol}` with
/// `λ = 2 f(x)`, looking only at vertices adjacent to the support (all others have a zero
/// gradient on a non-negatively weighted graph, and cannot improve a KKT point on a
/// signed graph either).
///
/// `graph` is a [`SignedGraph`] or any [`GraphView`] of one: dead vertices are never
/// candidates and filtered edges do not contribute to gradients, so the set `Z` is
/// exactly the one the materialised view would produce.  The embedding's support must
/// be alive in the view (the solvers only ever seed alive vertices).
pub fn expansion_candidates<'a>(
    graph: impl Into<GraphView<'a>>,
    x: &Embedding,
    tol: f64,
) -> Vec<VertexId> {
    let view = graph.into();
    let lambda = 2.0 * x.affinity_view(view);
    let mut seen: FxHashMap<VertexId, ()> = FxHashMap::default();
    let mut z = Vec::new();
    for (u, _) in x.iter() {
        for e in view.neighbors(u) {
            let v = e.neighbor;
            if x.get(v) > 0.0 || seen.contains_key(&v) {
                continue;
            }
            seen.insert(v, ());
            if 2.0 * x.weighted_sum_at_view(view, v) > lambda + tol {
                z.push(v);
            }
        }
    }
    z.sort_unstable();
    z
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn expansion_from_edge_into_clique_improves() {
        // Uniform on {0,1} (a local KKT point of K4 restricted to {0,1}, f=0.5); vertices
        // 2 and 3 have gradient 2·(0.5+0.5)=2 > λ=1 → expanding should increase f.
        let g = k4();
        let x = Embedding::uniform(&[0, 1]);
        let z = expansion_candidates(&g, &x, 1e-12);
        assert_eq!(z, vec![2, 3]);
        let out = expansion_step(&g, &x, &z);
        assert!(out.objective_after > out.objective_before);
        assert!(!out.is_error());
        assert!(out.embedding.support_size() >= 3);
        // Mass is conserved.
        assert!((out.embedding.mass() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_z_is_noop() {
        let g = k4();
        let x = Embedding::uniform(&[0, 1, 2, 3]); // global optimum, no candidates
        let z = expansion_candidates(&g, &x, 1e-9);
        assert!(z.is_empty());
        let out = expansion_step(&g, &x, &z);
        assert_eq!(out.tau, 0.0);
        assert!((out.objective_after - out.objective_before).abs() < 1e-12);
    }

    #[test]
    fn already_supported_vertices_ignored() {
        let g = k4();
        let x = Embedding::uniform(&[0, 1]);
        let out = expansion_step(&g, &x, &[0, 1]);
        assert_eq!(out.tau, 0.0);
        assert_eq!(out.embedding, x);
    }

    #[test]
    fn expansion_error_detectable_when_not_kkt() {
        // Non-KKT starting point: heavily skewed mass on {0,1} of a path 0-1-2 with a
        // much heavier far edge; expanding towards 2 from a non-KKT x can reduce f.
        let g = GraphBuilder::from_edges(3, vec![(0, 1, 1.0), (1, 2, 10.0)]);
        // x is NOT a local KKT point on {0,1} (gradients differ).
        let x = Embedding::from_weights(vec![(0, 0.95), (1, 0.05)]);
        let z = expansion_candidates(&g, &x, 1e-12);
        assert_eq!(z, vec![2]);
        let out = expansion_step(&g, &x, &z);
        // Either it improves or it is flagged as an error — never silently wrong.
        if out.objective_after < out.objective_before {
            assert!(out.is_error());
        }
    }

    #[test]
    fn candidates_respect_tolerance() {
        let g = k4();
        let x = Embedding::uniform(&[0, 1]);
        // With an absurdly large tolerance nothing qualifies.
        assert!(expansion_candidates(&g, &x, 100.0).is_empty());
    }

    #[test]
    fn works_with_negative_weights() {
        // Vertex 2 is attached to the support by a positive and a negative edge; its
        // gradient is 2·(0.5·3 − 0.5·1) = 2 > λ = 2·f = 2·0.5 = 1, so it is a candidate,
        // and the expansion must still conserve mass and compute a finite objective.
        let g = GraphBuilder::from_edges(3, vec![(0, 1, 1.0), (0, 2, 3.0), (1, 2, -1.0)]);
        let x = Embedding::uniform(&[0, 1]);
        let z = expansion_candidates(&g, &x, 1e-12);
        assert_eq!(z, vec![2]);
        let out = expansion_step(&g, &x, &z);
        assert!((out.embedding.mass() - 1.0).abs() < 1e-9);
        assert!(out.objective_after.is_finite());
    }
}
