//! SEACD — the Coordinate-Descent Shrink-and-Expansion algorithm (Algorithm 3).
//!
//! SEACD alternates two stages until no vertex can improve the solution:
//!
//! 1. **Shrink** — run the 2-coordinate descent of [`crate::dcsga::coord_descent`] on the
//!    current working support `S` until a local KKT point is reached (the support may
//!    shrink because coordinates can drop to 0),
//! 2. **Expansion** — compute `Z = {i | ∇_i f_D(x) > λ = 2 f_D(x)}` and, if non-empty,
//!    apply the SEA expansion step to pull those vertices into the support.
//!
//! Because the shrink stage really reaches a local KKT point (up to the paper's
//! tolerance `10⁻²·1/|S|`), the expansion step is guaranteed not to decrease the
//! objective — unlike the original SEA with its loose objective-improvement stopping
//! rule.  Expansion errors are still counted defensively and reported.
//!
//! The whole run lives in the workspace's [`DenseArena`]: the iterate, the shrink's
//! linear form, the expansion direction `γ` and the candidate dedup marks are all
//! arena state, and every edge read goes through a
//! [`GraphView`] — positive-filtered views included, and NewSEA's compact
//! `G_{D+}` under the caller's mask.  The sparse [`Embedding`] appears only at the
//! public entry points.

use dcs_densest::Embedding;
use dcs_graph::{GraphView, SignedGraph, VertexId, Weight};

use super::arena::{affinity_in, renormalize_in, weighted_sum_in, DenseArena, KernelScratch};
use super::coord_descent::descend_in;
use super::refine::refine_with_workspace;
use super::{CANDIDATE_TOLERANCE, KKT_EPS_FACTOR, MAX_CD_ITERATIONS, MAX_ROUNDS};
use crate::workspace::SolverWorkspace;

/// Result of one SEACD run (a single initialisation).
#[derive(Debug, Clone)]
pub struct SeaCdRun {
    /// Final embedding (a KKT point of Eq. 7 up to tolerance).
    pub embedding: Embedding,
    /// Final objective `f_D(x)`.
    pub objective: Weight,
    /// Number of shrink+expansion rounds.
    pub rounds: usize,
    /// Total 2-coordinate-descent iterations across all shrink stages.
    pub cd_iterations: usize,
    /// Number of expansion steps that decreased the objective (expected to stay 0).
    pub expansion_errors: usize,
}

/// Result of a sweep of SEACD over many initialisations (the `SEACD+Refine` comparator
/// runs one initialisation per vertex).
#[derive(Debug, Clone)]
pub struct SeaCdSweep {
    /// The best embedding found.
    pub best: Embedding,
    /// Its objective.
    pub best_objective: Weight,
    /// Number of initialisations performed.
    pub initializations: usize,
    /// Total expansion errors (expected 0).
    pub expansion_errors: usize,
    /// Every per-initialisation solution, kept only when requested (clique census).
    pub all_solutions: Vec<Embedding>,
}

/// The in-arena counterpart of [`SeaCdRun`]: the final iterate stays in the arena.
#[derive(Debug, Clone, Copy)]
pub(super) struct RunOutcome {
    /// Final objective `f_D(x)`.
    pub objective: f64,
    /// Number of shrink+expansion rounds.
    pub rounds: usize,
    /// Total 2-coordinate-descent iterations.
    pub cd_iterations: usize,
    /// Expansion steps that decreased the objective.
    pub expansion_errors: usize,
}

/// Gathers the expansion candidate set `Z = {i | ∇_i f(x) > λ + tol}` into
/// `scratch.z` (sorted ascending), looking only at view-surviving neighbours of the
/// support in `scratch.support`.
fn expansion_candidates_arena(
    view: GraphView<'_>,
    arena: &mut DenseArena,
    scratch: &mut KernelScratch,
) {
    let lambda = 2.0 * affinity_in(view, arena, &scratch.support);
    arena.marks_begin();
    scratch.z.clear();
    for i in 0..scratch.support.len() {
        let u = scratch.support[i];
        for e in view.neighbors(u) {
            let v = e.neighbor;
            if arena.x(v) > 0.0 || !arena.mark(v) {
                continue;
            }
            if 2.0 * weighted_sum_in(view, arena, v) > lambda + CANDIDATE_TOLERANCE {
                scratch.z.push(v);
            }
        }
    }
    scratch.z.sort_unstable();
}

/// One SEA expansion step by the candidate set `scratch.z` (Appendix A of the paper):
/// moves mass from the support onto `Z` along `b`, with the closed-form optimal step
/// `τ`.  Returns `(objective_before, objective_after)`; the iterate is updated (and
/// renormalised) in the arena, `scratch.support` is refreshed.
fn expansion_step_arena(
    view: GraphView<'_>,
    arena: &mut DenseArena,
    scratch: &mut KernelScratch,
) -> (f64, f64) {
    let before = affinity_in(view, arena, &scratch.support);
    // γ_i = (Dx)_i − f(x) for i ∈ Z (candidates are unsupported by construction).
    arena.gamma_begin();
    for i in 0..scratch.z.len() {
        let v = scratch.z[i];
        let gamma = weighted_sum_in(view, arena, v) - before;
        arena.set_gamma(v, gamma);
    }
    let s: f64 = scratch
        .z
        .iter()
        .map(|&v| arena.gamma(v).unwrap_or(0.0))
        .sum();
    if s <= 0.0 {
        return (before, before);
    }
    let zeta: f64 = scratch
        .z
        .iter()
        .map(|&v| {
            let g = arena.gamma(v).unwrap_or(0.0);
            g * g
        })
        .sum();
    // ω = Σ_{i,j∈Z} γ_i γ_j D(i,j): iterate the view adjacency of Z members.
    let mut omega = 0.0;
    for &i in &scratch.z {
        let gi = arena.gamma(i).unwrap_or(0.0);
        for e in view.neighbors(i) {
            if let Some(gj) = arena.gamma(e.neighbor) {
                omega += gi * gj * e.weight;
            }
        }
    }
    let a = before * s * s + 2.0 * s * zeta - omega;
    let tau = if a <= 0.0 {
        1.0 / s
    } else {
        (1.0 / s).min(zeta / a)
    };

    // Apply x ← x + τ·b and renormalise.
    let shrink_factor = 1.0 - tau * s;
    for i in 0..scratch.support.len() {
        let v = scratch.support[i];
        let value = arena.x(v) * shrink_factor;
        arena.set_x(v, value);
    }
    for i in 0..scratch.z.len() {
        let v = scratch.z[i];
        let value = tau * arena.gamma(v).unwrap_or(0.0);
        arena.set_x(v, value);
    }
    renormalize_in(arena, &mut scratch.support);
    let after = affinity_in(view, arena, &scratch.support);
    (before, after)
}

/// The arena-resident SEACD run: shrink–expand from the arena's current embedding
/// until a KKT point (or `stop`) is reached.  The final iterate stays in the arena.
pub(super) fn run_arena<F: FnMut(u64) -> bool>(
    view: GraphView<'_>,
    arena: &mut DenseArena,
    scratch: &mut KernelScratch,
    mut stop: F,
) -> RunOutcome {
    let mut rounds = 0usize;
    let mut cd_iterations = 0usize;
    let mut expansion_errors = 0usize;

    loop {
        rounds += 1;
        // Shrink: 2-coordinate descent to a local KKT point on the current support.
        arena.support_into(&mut scratch.support);
        if scratch.support.is_empty() {
            return RunOutcome {
                objective: 0.0,
                rounds,
                cd_iterations,
                expansion_errors,
            };
        }
        let eps = KKT_EPS_FACTOR / scratch.support.len() as f64;
        let mut shrink_span = dcs_obs::trace::span(dcs_obs::trace::Phase::CdShrink);
        let shrink_iterations = descend_in(view, arena, &scratch.support, eps, MAX_CD_ITERATIONS);
        shrink_span.set_units(shrink_iterations as u64);
        drop(shrink_span);
        cd_iterations += shrink_iterations;
        // The support may have shrunk (coordinates dropping to 0); renormalise the
        // survivors exactly like the sparse path's `Embedding::from_weights` did.
        renormalize_in(arena, &mut scratch.support);
        let interrupted = stop(shrink_iterations as u64 + 1);

        // Expansion candidates Z = {i | ∇_i > λ}; dead / filtered vertices never
        // qualify because every gradient is read through the view.
        expansion_candidates_arena(view, arena, scratch);
        if interrupted || scratch.z.is_empty() || rounds >= MAX_ROUNDS {
            let objective = affinity_in(view, arena, &scratch.support);
            return RunOutcome {
                objective,
                rounds,
                cd_iterations,
                expansion_errors,
            };
        }
        let mut expand_span = dcs_obs::trace::span(dcs_obs::trace::Phase::CdExpand);
        expand_span.set_units(scratch.z.len() as u64);
        let (before, after) = expansion_step_arena(view, arena, scratch);
        drop(expand_span);
        if after < before - 1e-12 {
            expansion_errors += 1;
        }
        // Drop numerical dust and renormalise, mirroring `Embedding::prune(1e-12)`.
        for i in 0..scratch.support.len() {
            let v = scratch.support[i];
            if arena.x(v) < 1e-12 {
                arena.set_x(v, 0.0);
            }
        }
        renormalize_in(arena, &mut scratch.support);
    }
}

/// The SEACD solver (Algorithm 3).  Stateless: its stopping rules are the paper's.
#[derive(Debug, Clone, Default)]
pub struct SeaCd {
    _private: (),
}

impl SeaCd {
    /// Runs SEACD from an initial embedding on `graph` — a [`SignedGraph`] (usually
    /// `G_{D+}`, but any signed graph is accepted: the shrink stage handles negative
    /// weights) or a [`GraphView`] of one.  On a view the run is confined to the
    /// alive vertices and surviving edges (shrink support, expansion candidates and
    /// objective are all those of the filtered subgraph) without materialising it;
    /// positive-filtered views are fully supported.
    ///
    /// The run borrows the dense embedding arena of the caller-owned
    /// [`SolverWorkspace`], so repeated runs (the sequential and parallel sweeps)
    /// allocate nothing in steady state.  The initial embedding's support
    /// must be alive in the view.
    ///
    /// After every shrink stage, `stop(units)` is invoked with the
    /// coordinate-descent iterations just performed (plus one for the round itself)
    /// and the run returns its current KKT point as soon as the callback says stop.
    /// The returned embedding is always a valid simplex point — just not necessarily
    /// a converged one.
    pub fn run_on_view_in<'a, F: FnMut(u64) -> bool>(
        &self,
        graph: impl Into<GraphView<'a>>,
        init: Embedding,
        ws: &mut SolverWorkspace,
        stop: F,
    ) -> SeaCdRun {
        let view = graph.into();
        debug_assert!(init.iter().all(|(u, _)| view.is_alive(u)));
        let dcsga = &mut ws.dcsga;
        dcsga.arena.begin(view.num_vertices());
        for (v, value) in init.iter() {
            dcsga.arena.set_x(v, value);
        }
        let out = run_arena(view, &mut dcsga.arena, &mut dcsga.kernel, stop);
        let embedding = export_embedding(&dcsga.arena, &mut dcsga.kernel);
        SeaCdRun {
            embedding,
            objective: out.objective,
            rounds: out.rounds,
            cd_iterations: out.cd_iterations,
            expansion_errors: out.expansion_errors,
        }
    }

    /// Runs SEACD from the singleton embedding `e_u`.
    pub fn run_from_vertex(&self, g: &SignedGraph, u: VertexId) -> SeaCdRun {
        self.run_on_view_in(
            g,
            Embedding::singleton(u),
            &mut SolverWorkspace::new(),
            |_| false,
        )
    }

    /// Runs one initialisation per vertex of `g` (skipping isolated vertices) and keeps
    /// the best solution — the exhaustive sweep of the `SEACD+Refine` comparator.
    ///
    /// Every per-initialisation solution is refined by Algorithm 4
    /// ([`refine`](super::refine())) before it is scored, through the sweep's own
    /// workspace arena.  `limit`
    /// optionally restricts the sweep to the vertex ids below it; isolated vertices
    /// are skipped there too, so fewer than `limit` initialisations can run.
    /// `collect_all` retains all refined solutions for clique-census analyses.
    pub fn sweep(&self, g: &SignedGraph, limit: Option<usize>, collect_all: bool) -> SeaCdSweep {
        let n = g.num_vertices();
        let limit = limit.unwrap_or(n).min(n);
        let mut ws = SolverWorkspace::new();
        let mut best = Embedding::default();
        let mut best_objective = 0.0;
        let mut expansion_errors = 0usize;
        let mut initializations = 0usize;
        let mut all_solutions = Vec::new();
        for u in 0..limit as VertexId {
            if g.degree(u) == 0 {
                continue;
            }
            initializations += 1;
            let run = self.run_on_view_in(g, Embedding::singleton(u), &mut ws, |_| false);
            expansion_errors += run.expansion_errors;
            let refined = refine_with_workspace(g, run.embedding, &mut ws);
            let objective = refined.affinity(g);
            if objective > best_objective {
                best_objective = objective;
                best = refined.clone();
            }
            if collect_all {
                all_solutions.push(refined);
            }
        }
        SeaCdSweep {
            best,
            best_objective,
            initializations,
            expansion_errors,
            all_solutions,
        }
    }
}

/// Snapshots the arena's current support/values into the scratch's incumbent buffers.
pub(super) fn snapshot_best(arena: &DenseArena, scratch: &mut KernelScratch) {
    scratch.best_support.clear();
    scratch.best_values.clear();
    for i in 0..scratch.support.len() {
        let v = scratch.support[i];
        scratch.best_support.push(v);
        scratch.best_values.push(arena.x(v));
    }
}

/// Exports the arena's current embedding as a sparse [`Embedding`], inserted in
/// ascending vertex order.
pub(super) fn export_embedding(arena: &DenseArena, scratch: &mut KernelScratch) -> Embedding {
    arena.support_into(&mut scratch.support);
    Embedding::from_weights(scratch.support.iter().map(|&v| (v, arena.x(v))))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dcsga::kkt::is_kkt_point;
    use dcs_graph::GraphBuilder;

    /// K5 (weight 1) plus a pendant path — affinity optimum 0.8 on the clique.
    fn k5_with_path() -> SignedGraph {
        let mut b = GraphBuilder::new(9);
        for u in 0..5u32 {
            for v in (u + 1)..5u32 {
                b.add_edge(u, v, 1.0);
            }
        }
        b.add_edge(4, 5, 0.4);
        b.add_edge(5, 6, 0.4);
        b.add_edge(6, 7, 0.4);
        b.add_edge(7, 8, 0.4);
        b.build()
    }

    #[test]
    fn finds_the_clique_from_inside() {
        let g = k5_with_path();
        let run = SeaCd::default().run_from_vertex(&g, 0);
        assert!(
            (run.objective - 0.8).abs() < 1e-3,
            "objective {}",
            run.objective
        );
        assert_eq!(run.embedding.support(), vec![0, 1, 2, 3, 4]);
        assert_eq!(run.expansion_errors, 0);
    }

    #[test]
    fn output_is_a_kkt_point() {
        let g = k5_with_path();
        for u in [0u32, 4, 6, 8] {
            let run = SeaCd::default().run_from_vertex(&g, u);
            // The tolerance of the check mirrors the shrink tolerance.
            assert!(
                is_kkt_point(&g, &run.embedding, 0.05),
                "init {u} gave a non-KKT output"
            );
        }
    }

    #[test]
    fn sweep_finds_global_best() {
        let g = k5_with_path();
        let sweep = SeaCd::default().sweep(&g, None, true);
        assert!((sweep.best_objective - 0.8).abs() < 1e-3);
        assert_eq!(sweep.expansion_errors, 0);
        assert_eq!(sweep.all_solutions.len(), sweep.initializations);
        assert!(sweep.initializations <= g.num_vertices());
    }

    #[test]
    fn works_on_signed_graphs() {
        // Positive triangle and a negative edge dangling off it; SEACD on the signed
        // graph itself must not put mass on the negative edge's far endpoint.
        let g =
            GraphBuilder::from_edges(4, vec![(0, 1, 2.0), (1, 2, 2.0), (0, 2, 2.0), (2, 3, -5.0)]);
        let run = SeaCd::default().run_from_vertex(&g, 2);
        assert_eq!(run.embedding.support(), vec![0, 1, 2]);
        assert!((run.objective - 4.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn isolated_vertex_initialisation() {
        let g = GraphBuilder::from_edges(3, vec![(0, 1, 1.0)]);
        let run = SeaCd::default().run_from_vertex(&g, 2);
        assert_eq!(run.objective, 0.0);
        assert_eq!(run.embedding.support(), vec![2]);
    }

    #[test]
    fn sweep_limit_and_isolated_skip() {
        let g = GraphBuilder::from_edges(5, vec![(0, 1, 1.0), (2, 3, 2.0)]);
        let sweep = SeaCd::default().sweep(&g, Some(3), false);
        // vertex 4 is isolated and outside the limit anyway; vertices 0..3 minus none.
        assert_eq!(sweep.initializations, 3);
        assert!(sweep.best_objective > 0.0);
    }

    #[test]
    fn positive_view_run_matches_materialized_positive_part() {
        let g =
            GraphBuilder::from_edges(4, vec![(0, 1, 2.0), (1, 2, 2.0), (0, 2, 2.0), (2, 3, -5.0)]);
        let on_view = SeaCd::default().run_on_view_in(
            GraphView::full(&g).positive_part(),
            Embedding::singleton(2),
            &mut SolverWorkspace::new(),
            |_| false,
        );
        let on_materialized = SeaCd::default().run_from_vertex(&g.positive_part(), 2);
        assert_eq!(
            on_view.embedding.support(),
            on_materialized.embedding.support()
        );
        assert_eq!(on_view.objective, on_materialized.objective);
        assert_eq!(on_view.rounds, on_materialized.rounds);
    }
}
