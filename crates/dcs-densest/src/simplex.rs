//! Subgraph embeddings on the standard simplex and the graph-affinity objective.
//!
//! A subgraph embedding is a vector `x ∈ Δn = {x | Σ xᵢ = 1, xᵢ ≥ 0}`; the entry `x_u`
//! is the participation of vertex `u` in the subgraph and the *support set*
//! `S_x = {u | x_u > 0}` is the subgraph itself.  The graph affinity of an embedding is
//! `f(x) = xᵀAx = Σ_{u,v} x_u x_v A(u,v)` (both orientations of every edge contribute,
//! matching Eq. 2 of the paper).
//!
//! [`Embedding`] stores only the non-zero entries, because the algorithms of the paper
//! keep supports small (that is the main reason graph affinity is preferred for
//! story/topic mining).

use rustc_hash::FxHashMap;

use dcs_graph::{GraphView, SignedGraph, VertexId, Weight};

/// A sparse embedding on the standard simplex `Δn`.
///
/// Invariants maintained by the constructors: all stored values are strictly positive and
/// sum to 1 (within floating-point tolerance).  An *empty* embedding (no support) is
/// allowed and represents "no subgraph"; its affinity is 0.
#[derive(Debug, Clone, Default)]
pub struct Embedding {
    values: FxHashMap<VertexId, f64>,
}

impl Embedding {
    /// The embedding `e_u`: all mass on a single vertex.
    pub fn singleton(u: VertexId) -> Self {
        let mut values = FxHashMap::default();
        values.insert(u, 1.0);
        Embedding { values }
    }

    /// The uniform embedding on a set of vertices (each gets `1/|S|`).
    ///
    /// Returns an empty embedding if the slice is empty.  Duplicate vertices are merged.
    pub fn uniform(subset: &[VertexId]) -> Self {
        let mut values = FxHashMap::default();
        if subset.is_empty() {
            return Embedding { values };
        }
        for &v in subset {
            values.insert(v, 0.0);
        }
        let share = 1.0 / values.len() as f64;
        for v in values.values_mut() {
            *v = share;
        }
        Embedding { values }
    }

    /// Builds an embedding from `(vertex, weight)` pairs, dropping non-positive entries
    /// and normalising the rest to sum to 1.  Returns an empty embedding if nothing
    /// positive remains.
    pub fn from_weights<I: IntoIterator<Item = (VertexId, f64)>>(pairs: I) -> Self {
        let mut values: FxHashMap<VertexId, f64> = FxHashMap::default();
        for (v, w) in pairs {
            if w > 0.0 {
                *values.entry(v).or_insert(0.0) += w;
            }
        }
        let total: f64 = values.values().sum();
        if total <= 0.0 {
            return Embedding::default();
        }
        for v in values.values_mut() {
            *v /= total;
        }
        Embedding { values }
    }

    /// The value `x_u` (0 if `u` is outside the support).
    #[inline]
    pub fn get(&self, u: VertexId) -> f64 {
        self.values.get(&u).copied().unwrap_or(0.0)
    }

    /// Number of vertices in the support set.
    pub fn support_size(&self) -> usize {
        self.values.len()
    }

    /// Returns `true` if the embedding has empty support.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The support set `S_x = {u | x_u > 0}`, sorted ascending.
    pub fn support(&self) -> Vec<VertexId> {
        let mut s: Vec<VertexId> = self.values.keys().copied().collect();
        s.sort_unstable();
        s
    }

    /// Iterates `(vertex, value)` pairs in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (VertexId, f64)> + '_ {
        self.values.iter().map(|(&v, &x)| (v, x))
    }

    /// Sum of the entries (should be ~1 unless the embedding is empty).
    pub fn mass(&self) -> f64 {
        self.values.values().sum()
    }

    /// Graph affinity `f(x) = xᵀAx` with respect to `graph`.
    pub fn affinity(&self, graph: &SignedGraph) -> Weight {
        let mut total = 0.0;
        for (&u, &xu) in &self.values {
            for e in graph.neighbors(u) {
                if let Some(&xv) = self.values.get(&e.neighbor) {
                    total += xu * xv * e.weight;
                }
            }
        }
        total
    }

    /// The gradient component `∇_u f(x) = 2(Ax)_u` for a single vertex.
    pub fn gradient_at(&self, graph: &SignedGraph, u: VertexId) -> Weight {
        2.0 * self.weighted_sum_at(graph, u)
    }

    /// `(Ax)_u = Σ_v A(u,v)·x_v`.
    pub fn weighted_sum_at(&self, graph: &SignedGraph, u: VertexId) -> Weight {
        let mut s = 0.0;
        for e in graph.neighbors(u) {
            if let Some(&xv) = self.values.get(&e.neighbor) {
                s += e.weight * xv;
            }
        }
        s
    }

    /// [`Self::affinity`] over a [`GraphView`]'s surviving edges: term for term the
    /// affinity on the view's materialisation.  Shared by the expansion candidates
    /// of the SEA solvers and the view-based KKT oracle.
    pub fn affinity_view(&self, view: GraphView<'_>) -> Weight {
        self.values
            .iter()
            .map(|(&u, &xu)| xu * self.weighted_sum_at_view(view, u))
            .sum()
    }

    /// [`Self::weighted_sum_at`] over a [`GraphView`]'s surviving edges.
    pub fn weighted_sum_at_view(&self, view: GraphView<'_>, u: VertexId) -> Weight {
        let mut s = 0.0;
        for e in view.neighbors(u) {
            if let Some(&xv) = self.values.get(&e.neighbor) {
                s += e.weight * xv;
            }
        }
        s
    }

    /// Sets `x_u` to `value` (removing the entry when `value <= 0`) **without**
    /// renormalising.  Callers are responsible for keeping the simplex invariant; the
    /// iterative algorithms move mass between coordinates so the sum is conserved.
    pub fn set(&mut self, u: VertexId, value: f64) {
        if value > 0.0 {
            self.values.insert(u, value);
        } else {
            self.values.remove(&u);
        }
    }

    /// Rescales all entries so they sum to 1 (no-op on an empty embedding).
    pub fn normalize(&mut self) {
        let total: f64 = self.values.values().sum();
        if total > 0.0 {
            for v in self.values.values_mut() {
                *v /= total;
            }
        }
    }

    /// Removes entries below `threshold` and renormalises.  Used to clean up numerical
    /// dust after iterative updates.
    pub fn prune(&mut self, threshold: f64) {
        self.values.retain(|_, v| *v >= threshold);
        self.normalize();
    }
}

/// A **dense, indexed** simplex embedding used as reusable solver scratch.
///
/// Where [`Embedding`] stores only the non-zero entries in an `FxHashMap` (the right
/// shape for *results*, whose supports are small), the iterative DCSGA kernels touch
/// their working embedding on every coordinate-descent step — and a fresh hash map
/// per solve is exactly the allocation the steady-state serving paths want to avoid.
/// A `DenseEmbedding` keeps one `f64` slot per vertex of the universe plus a
/// *touched list* of slots that may be non-zero, so
///
/// * reads and writes are direct array indexing,
/// * [`DenseEmbedding::begin`] resets in `O(|touched|)` (not `O(n)`), and
/// * re-solving on a same-sized universe allocates nothing.
///
/// Invariant: every slot outside `touched` holds `0.0`.  The touched list may
/// contain duplicates and zero-valued slots (a coordinate that gained and then lost
/// its mass); [`DenseEmbedding::support_into`] filters and sorts.  Solver
/// boundaries convert to and from the sparse [`Embedding`] by iterating one
/// representation and writing the other ([`DenseEmbedding::set`] /
/// [`Embedding::from_weights`] over the sorted support).
#[derive(Debug, Clone, Default)]
pub struct DenseEmbedding {
    values: Vec<f64>,
    touched: Vec<VertexId>,
}

impl DenseEmbedding {
    /// Resets to the empty embedding over an `n`-vertex universe, reusing storage.
    pub fn begin(&mut self, n: usize) {
        for &v in &self.touched {
            self.values[v as usize] = 0.0;
        }
        self.touched.clear();
        if self.values.len() < n {
            self.values.resize(n, 0.0);
        }
    }

    /// The value `x_u` (0 outside the support).
    #[inline]
    pub fn get(&self, u: VertexId) -> f64 {
        self.values[u as usize]
    }

    /// Sets `x_u` (non-positive values clear the slot), mirroring [`Embedding::set`].
    #[inline]
    pub fn set(&mut self, u: VertexId, value: f64) {
        let slot = &mut self.values[u as usize];
        if value > 0.0 {
            if *slot == 0.0 {
                self.touched.push(u);
            }
            *slot = value;
        } else {
            *slot = 0.0;
        }
    }

    /// Writes the support set `{u | x_u > 0}` into `out`, sorted ascending.
    pub fn support_into(&self, out: &mut Vec<VertexId>) {
        out.clear();
        out.extend(
            self.touched
                .iter()
                .copied()
                .filter(|&v| self.values[v as usize] > 0.0),
        );
        out.sort_unstable();
        out.dedup();
    }
}

impl PartialEq for Embedding {
    /// Two embeddings are equal when they have the same support and the same values up to
    /// 1e-9 (useful in tests; not a strict numerical identity).
    fn eq(&self, other: &Self) -> bool {
        if self.values.len() != other.values.len() {
            return false;
        }
        self.values
            .iter()
            .all(|(v, x)| (other.get(*v) - x).abs() < 1e-9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcs_graph::GraphBuilder;

    fn triangle() -> SignedGraph {
        GraphBuilder::from_edges(3, vec![(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
    }

    #[test]
    fn singleton_and_uniform() {
        let e = Embedding::singleton(2);
        assert_eq!(e.get(2), 1.0);
        assert_eq!(e.get(0), 0.0);
        assert_eq!(e.support(), vec![2]);

        let u = Embedding::uniform(&[0, 1, 2]);
        assert!((u.get(0) - 1.0 / 3.0).abs() < 1e-12);
        assert!((u.mass() - 1.0).abs() < 1e-12);

        let dup = Embedding::uniform(&[1, 1, 2]);
        assert_eq!(dup.support_size(), 2);
        assert!((dup.get(1) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn affinity_of_uniform_clique() {
        // Motzkin–Straus: uniform embedding on a k-clique has affinity (k-1)/k.
        let g = triangle();
        let x = Embedding::uniform(&[0, 1, 2]);
        assert!((x.affinity(&g) - 2.0 / 3.0).abs() < 1e-12);
        // A single edge {0,1} uniform: affinity = 2 * 0.5 * 0.5 * 1 = 0.5
        let x = Embedding::uniform(&[0, 1]);
        assert!((x.affinity(&g) - 0.5).abs() < 1e-12);
        // Singleton: affinity 0
        assert_eq!(Embedding::singleton(0).affinity(&g), 0.0);
    }

    #[test]
    fn gradient_matches_definition() {
        let g = triangle();
        let x = Embedding::uniform(&[0, 1]);
        // (Ax)_2 = 0.5*1 + 0.5*1 = 1 → ∇_2 = 2
        assert!((x.weighted_sum_at(&g, 2) - 1.0).abs() < 1e-12);
        assert!((x.gradient_at(&g, 2) - 2.0).abs() < 1e-12);
        // (Ax)_0 = x_1 * 1 = 0.5
        assert!((x.gradient_at(&g, 0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn from_weights_normalises_and_drops_nonpositive() {
        let x = Embedding::from_weights(vec![(0, 2.0), (1, 2.0), (2, -1.0), (3, 0.0)]);
        assert_eq!(x.support(), vec![0, 1]);
        assert!((x.get(0) - 0.5).abs() < 1e-12);
        let empty = Embedding::from_weights(vec![(0, -1.0)]);
        assert!(empty.is_empty());
        assert_eq!(empty.affinity(&triangle()), 0.0);
    }

    #[test]
    fn set_prune_normalize() {
        let mut x = Embedding::uniform(&[0, 1, 2]);
        x.set(2, 0.0);
        assert_eq!(x.support(), vec![0, 1]);
        x.normalize();
        assert!((x.mass() - 1.0).abs() < 1e-12);
        let mut y = Embedding::from_weights(vec![(0, 1.0), (1, 1e-15)]);
        y.prune(1e-9);
        assert_eq!(y.support(), vec![0]);
        assert!((y.mass() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn dense_embedding_set_support_and_reset() {
        let mut dense = DenseEmbedding::default();
        dense.begin(5);
        dense.set(3, 2.0);
        dense.set(1, 2.0);
        dense.set(1, 0.0); // dropped again
        dense.set(4, 6.0);
        let mut support = Vec::new();
        dense.support_into(&mut support);
        assert_eq!(support, vec![3, 4]);
        assert_eq!(dense.get(1), 0.0);
        // begin() clears every previously touched slot.
        dense.begin(5);
        dense.set(0, 0.5);
        dense.set(2, 0.5);
        dense.support_into(&mut support);
        assert_eq!(support, vec![0, 2]);
        assert_eq!(dense.get(3), 0.0);
        assert_eq!(dense.get(4), 0.0);
        // A re-gained slot does not duplicate in the support.
        dense.set(0, 0.0);
        dense.set(0, 0.5);
        dense.support_into(&mut support);
        assert_eq!(support, vec![0, 2]);
    }

    #[test]
    fn negative_weights_in_affinity() {
        let g = GraphBuilder::from_edges(3, vec![(0, 1, 2.0), (1, 2, -4.0)]);
        let x = Embedding::uniform(&[0, 1, 2]);
        // f = 2*(1/9)*2 + 2*(1/9)*(-4) = (4 - 8)/9
        assert!((x.affinity(&g) - (-4.0 / 9.0)).abs() < 1e-12);
    }
}
