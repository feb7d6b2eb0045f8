//! The embedding storage of the DCSGA kernels.
//!
//! Every DCSGA routine — the 2-coordinate-descent shrink, the SEA expansion, the
//! Algorithm-4 refinement and the NewSEA sweep that drives them — keeps its state in
//! one [`DenseArena`]: the working embedding `x`, the linear form `(Dx)_k` on the
//! working support, the expansion direction `γ`, and the candidate-dedup marks.  It is
//! a [`DenseEmbedding`] plus dense `f64` arrays indexed by vertex id, membership
//! tracked in [`VertexMask`] bitsets, all owned by the
//! [`crate::workspace::SolverWorkspace`], so steady-state solves (server jobs,
//! streaming re-mines, top-k rounds, α-sweep grid points) allocate nothing.
//!
//! Results do not depend on what the arena held before: every floating-point
//! reduction iterates an explicitly sorted vertex list, never a storage-order walk,
//! and each store is reset at the start of its scope.  The unit tests below check
//! every read against a map model of that contract, and `dcsga_dense_properties.rs`
//! checks that solves on a reused workspace are bit-identical to fresh-workspace
//! solves.
//!
//! [`KernelScratch`] carries the plain `Vec` buffers the kernels share (working
//! support, candidate set, incumbent snapshot).

use dcs_densest::DenseEmbedding;
use dcs_graph::{CoreScratch, GraphView, VertexId, VertexMask};

/// The DCSGA scratch bundle owned by a [`crate::workspace::SolverWorkspace`]: the
/// dense embedding arena, the kernels' `Vec` buffers, and the core-decomposition
/// scratch of the smart-initialisation bound.  One bundle serves every affinity
/// solve a workspace sees — SEACD restarts, NewSEA sweeps, top-k rounds, α-sweep
/// grid points, and back-to-back server jobs.
#[derive(Debug, Default)]
pub struct DcsgaScratch {
    /// The dense embedding arena (iterate, linear form, expansion direction, marks).
    pub(crate) arena: DenseArena,
    /// The kernels' shared list buffers (support, candidates, incumbent snapshot).
    pub(crate) kernel: KernelScratch,
    /// Core-number scratch of NewSEA's `µ_u` bound.
    pub(crate) cores: CoreScratch,
}

/// The dense, workspace-owned arena.  All buffers grow on first use and are reused
/// afterwards.
///
/// The arena owns four named stores, each with its own lifecycle:
/// `x` (the embedding, reset by [`Self::begin`]), `dx` (the linear form, scoped to
/// one shrink via [`Self::dx_begin`]), `gamma` (the expansion direction, scoped to
/// one expansion via [`Self::gamma_begin`]) and the candidate-dedup marks (scoped to
/// one candidate scan via [`Self::marks_begin`]).  After [`Self::begin`], `dx`,
/// `gamma` and the marks are read only once their own scope has begun.
#[derive(Debug, Default)]
pub(crate) struct DenseArena {
    /// The working embedding.
    x: DenseEmbedding,
    /// `(Dx)_v` per working-support member.
    dx: Vec<f64>,
    /// Working-support membership.
    in_dx: VertexMask,
    /// Working-support members (for O(|S|) resets).
    dx_members: Vec<VertexId>,
    /// `γ_v` per expansion candidate.
    gamma: Vec<f64>,
    /// Expansion-candidate membership.
    in_gamma: VertexMask,
    /// Expansion candidates (for O(|Z|) resets).
    gamma_members: Vec<VertexId>,
    /// Candidate-dedup marks.
    marks: VertexMask,
    /// Marked vertices (for O(marked) resets).
    marked: Vec<VertexId>,
}

impl DenseArena {
    /// Starts a fresh solve over an `n`-vertex universe: `x` becomes empty.
    pub(crate) fn begin(&mut self, n: usize) {
        self.x.begin(n);
        if self.dx.len() < n {
            self.dx.resize(n, 0.0);
            self.gamma.resize(n, 0.0);
        }
        if self.in_dx.universe_size() < n {
            self.in_dx.reset_empty(n);
            self.in_gamma.reset_empty(n);
            self.marks.reset_empty(n);
            self.dx_members.clear();
            self.gamma_members.clear();
            self.marked.clear();
        }
    }

    /// The value `x_v` (0 outside the support).
    #[inline]
    pub(crate) fn x(&self, v: VertexId) -> f64 {
        self.x.get(v)
    }

    /// Sets `x_v`; non-positive values clear the entry.
    #[inline]
    pub(crate) fn set_x(&mut self, v: VertexId, value: f64) {
        self.x.set(v, value);
    }

    /// Writes the support `{v | x_v > 0}` into `out`, sorted ascending.
    pub(crate) fn support_into(&self, out: &mut Vec<VertexId>) {
        self.x.support_into(out);
    }

    /// Scopes `dx` to the working support: every member's entry becomes 0.
    pub(crate) fn dx_begin(&mut self, support: &[VertexId]) {
        for &v in &self.dx_members {
            self.in_dx.remove(v);
        }
        self.dx_members.clear();
        self.dx_members.extend_from_slice(support);
        for &v in support {
            self.in_dx.insert(v);
            self.dx[v as usize] = 0.0;
        }
    }

    /// The linear form `(Dx)_v`; only meaningful for working-support members.
    #[inline]
    pub(crate) fn dx(&self, v: VertexId) -> f64 {
        // `dx` is scoped to the working support: reading a stale slot outside it is
        // always a kernel bug.
        debug_assert!(
            self.in_dx.contains(v),
            "dx read outside the working support"
        );
        self.dx[v as usize]
    }

    /// Adds `delta` to `(Dx)_v` **iff** `v` is in the working support.
    #[inline]
    pub(crate) fn dx_add(&mut self, v: VertexId, delta: f64) {
        if self.in_dx.contains(v) {
            self.dx[v as usize] += delta;
        }
    }

    /// Clears the expansion direction.
    pub(crate) fn gamma_begin(&mut self) {
        for &v in &self.gamma_members {
            self.in_gamma.remove(v);
        }
        self.gamma_members.clear();
    }

    /// Sets `γ_v`.
    pub(crate) fn set_gamma(&mut self, v: VertexId, value: f64) {
        if self.in_gamma.insert(v) {
            self.gamma_members.push(v);
        }
        self.gamma[v as usize] = value;
    }

    /// `γ_v`, or `None` when `v` got no value this expansion.
    #[inline]
    pub(crate) fn gamma(&self, v: VertexId) -> Option<f64> {
        if self.in_gamma.contains(v) {
            Some(self.gamma[v as usize])
        } else {
            None
        }
    }

    /// Clears the candidate-dedup marks.
    pub(crate) fn marks_begin(&mut self) {
        for &v in &self.marked {
            self.marks.remove(v);
        }
        self.marked.clear();
    }

    /// Marks `v`; returns `true` when it was not yet marked.
    pub(crate) fn mark(&mut self, v: VertexId) -> bool {
        if self.marks.insert(v) {
            self.marked.push(v);
            true
        } else {
            false
        }
    }
}

/// Plain `Vec` buffers shared by the kernels.
#[derive(Debug, Default)]
pub(crate) struct KernelScratch {
    /// Working support of the current shrink / refinement round.
    pub(crate) support: Vec<VertexId>,
    /// Expansion candidate set `Z`.
    pub(crate) z: Vec<VertexId>,
    /// Incumbent-best support snapshot of a sweep.
    pub(crate) best_support: Vec<VertexId>,
    /// Incumbent-best values snapshot, parallel to `best_support`.
    pub(crate) best_values: Vec<f64>,
    /// Deduplicated warm-start seed.
    pub(crate) seed: Vec<VertexId>,
}

/// `f(x) = xᵀAx` over the view's surviving edges, reduced in ascending support
/// order (the canonical summation order of every kernel).
pub(super) fn affinity_in(view: GraphView<'_>, arena: &DenseArena, support: &[VertexId]) -> f64 {
    let mut total = 0.0;
    for &u in support {
        total += arena.x(u) * weighted_sum_in(view, arena, u);
    }
    total
}

/// `(Ax)_u` over the view's surviving edges.
pub(super) fn weighted_sum_in(view: GraphView<'_>, arena: &DenseArena, u: VertexId) -> f64 {
    let mut s = 0.0;
    for e in view.neighbors(u) {
        let xv = arena.x(e.neighbor);
        if xv > 0.0 {
            s += e.weight * xv;
        }
    }
    s
}

/// Drops non-positive entries of `x` and rescales the rest to sum to 1 — the
/// deterministic equivalent of rebuilding through `Embedding::from_weights`.
/// Refreshes `support` to the resulting support set.
pub(super) fn renormalize_in(arena: &mut DenseArena, support: &mut Vec<VertexId>) {
    arena.support_into(support);
    let total: f64 = support.iter().map(|&v| arena.x(v)).sum();
    if total > 0.0 {
        for &v in support.iter() {
            let value = arena.x(v) / total;
            arena.set_x(v, value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, BTreeSet};

    /// A map model of the arena's contract: a non-positive `x` is absent, `dx` is
    /// scoped to the support given to `dx_begin` (an add outside it is ignored),
    /// `gamma` to one expansion and the marks to one candidate scan.
    #[derive(Default)]
    struct MapModel {
        x: BTreeMap<VertexId, f64>,
        dx: BTreeMap<VertexId, f64>,
        gamma: BTreeMap<VertexId, f64>,
        marks: BTreeSet<VertexId>,
    }

    impl MapModel {
        fn set_x(&mut self, v: VertexId, value: f64) {
            if value > 0.0 {
                self.x.insert(v, value);
            } else {
                self.x.remove(&v);
            }
        }

        fn x(&self, v: VertexId) -> f64 {
            self.x.get(&v).copied().unwrap_or(0.0)
        }

        fn support(&self) -> Vec<VertexId> {
            self.x.keys().copied().collect()
        }

        fn dx_begin(&mut self, support: &[VertexId]) {
            self.dx = support.iter().map(|&v| (v, 0.0)).collect();
        }

        fn dx_add(&mut self, v: VertexId, delta: f64) {
            if let Some(entry) = self.dx.get_mut(&v) {
                *entry += delta;
            }
        }
    }

    /// Which of the scoped stores have begun since the last `begin`.
    #[derive(Default)]
    struct Scopes {
        dx: bool,
        gamma: bool,
        marks: bool,
    }

    #[test]
    fn dense_arena_matches_map_model() {
        let mut state = 0x5eed_a4e4_u64;
        let mut next = move |bound: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % bound
        };
        let mut arena = DenseArena::default();
        let mut model = MapModel::default();
        let mut scopes = Scopes::default();
        let mut n = 0;
        let mut support = Vec::new();
        for step in 0..40_000 {
            // A new solve every few hundred operations, over a universe that grows
            // and shrinks (up to three mask words).
            if step % 300 == 0 {
                n = 1 + next(190) as usize;
                arena.begin(n);
                model.x.clear();
                scopes = Scopes::default();
            }
            let v = next(n as u64) as VertexId;
            // Values on a 1/8 grid from -1 to 2.875: zeros and negatives included.
            let value = next(32) as f64 / 8.0 - 1.0;
            match next(11) {
                0 | 1 => {
                    arena.set_x(v, value);
                    model.set_x(v, value);
                }
                2 => assert_eq!(arena.x(v).to_bits(), model.x(v).to_bits(), "x({v})"),
                3 => {
                    arena.support_into(&mut support);
                    assert_eq!(support, model.support());
                }
                4 => {
                    // A working support: the embedding's support plus a few
                    // zero-mass vertices, sorted and deduplicated.
                    let mut working = model.support();
                    working.extend((0..next(4)).map(|_| next(n as u64) as VertexId));
                    working.sort_unstable();
                    working.dedup();
                    arena.dx_begin(&working);
                    model.dx_begin(&working);
                    scopes.dx = true;
                }
                5 if scopes.dx => {
                    arena.dx_add(v, value);
                    model.dx_add(v, value);
                }
                6 if scopes.dx && !model.dx.is_empty() => {
                    let member = *model
                        .dx
                        .keys()
                        .nth(next(model.dx.len() as u64) as usize)
                        .unwrap();
                    assert_eq!(arena.dx(member).to_bits(), model.dx[&member].to_bits());
                }
                7 => {
                    arena.gamma_begin();
                    model.gamma.clear();
                    scopes.gamma = true;
                }
                8 if scopes.gamma => {
                    if next(2) == 0 {
                        arena.set_gamma(v, value);
                        model.gamma.insert(v, value);
                    } else {
                        let expected = model.gamma.get(&v).map(|g| g.to_bits());
                        assert_eq!(arena.gamma(v).map(f64::to_bits), expected, "gamma({v})");
                    }
                }
                9 => {
                    arena.marks_begin();
                    model.marks.clear();
                    scopes.marks = true;
                }
                10 if scopes.marks => assert_eq!(arena.mark(v), model.marks.insert(v)),
                _ => {}
            }
        }
    }

    #[test]
    fn dense_arena_grows_universe() {
        let mut arena = DenseArena::default();
        arena.begin(2);
        arena.set_x(1, 1.0);
        arena.begin(100);
        arena.set_x(99, 1.0);
        let mut support = Vec::new();
        arena.support_into(&mut support);
        assert_eq!(support, vec![99]);
    }
}
