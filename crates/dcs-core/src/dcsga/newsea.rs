//! NewSEA — SEACD + Refinement + smart initialisation (Algorithm 5, Theorem 6).
//!
//! Running SEACD from every vertex is wasteful on large graphs.  Theorem 6 bounds the
//! affinity of any clique solution containing vertex `u` by
//!
//! ```text
//!   µ_u = τ_u · w_u / (τ_u + 1)
//! ```
//!
//! where `w_u` is an upper bound on the maximum edge weight within the ego net of `u` in
//! `G_{D+}` and `τ_u + 1` (the core number plus one) is an upper bound on the largest
//! clique of `G_{D+}` containing `u`.  NewSEA therefore initialises from vertices in
//! descending `µ_u` order and stops as soon as `µ_u` cannot beat the best solution found
//! so far.  In the paper this prunes 1–3 orders of magnitude of initialisations with no
//! observed loss of quality.
//!
//! A NewSEA solve is **compact and dense**: [`NewSea::solve_bounded`] takes
//! `G_D` or any [`GraphView`] of it, copies the view's alive, positive entries into
//! the workspace's CSR buffers once ([`GraphView::positive_part_into`]), and runs
//! the whole sweep (the Theorem-6 bound, core numbers, the seeded run, every SEACD
//! run and refinement) on that compact `G_{D+}` under the caller's mask, so no
//! pass tests an entry's sign.  The compact rows hold the same entries in the same
//! order as the sign-filtered view, so every float operation sees the same
//! operands.  The sweep's state lives in the workspace's dense embedding arena, so
//! steady-state solves allocate nothing but the returned solution, and a reused
//! workspace solves bit-identically to a fresh one.

use std::cmp::Reverse;

use dcs_densest::Embedding;
use dcs_graph::{core_numbers_view_into, CoreScratch, GraphView, SignedGraph, VertexId, Weight};

use super::arena::{affinity_in, DcsgaScratch};
use super::refine::refine_in;
use super::seacd::{run_arena, snapshot_best};
use super::DcsgaSolution;
use crate::engine::{SolveContext, SolveStats, WorkMeter};

/// Statistics of a smart-initialisation sweep.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SmartInitStats {
    /// Number of initialisations actually run (SEACD + refinement invocations).
    pub initializations_run: usize,
    /// Number of candidate vertices skipped thanks to the `µ_u` bound.
    pub initializations_skipped: usize,
    /// Expansion errors observed (expected 0 for the coordinate-descent shrink).
    pub expansion_errors: usize,
    /// Number of warm-start initialisations run from a caller-provided seed
    /// ([`NewSea::solve_bounded`]); 0 for cold solves.
    pub seeded_runs: usize,
}

/// The NewSEA solver (Algorithm 5).  Stateless: its stopping rules are the paper's.
#[derive(Debug, Clone, Default)]
pub struct NewSea {
    _private: (),
}

impl NewSea {
    /// Mines the DCS with respect to graph affinity from the difference graph `gd`.
    ///
    /// Internally the solver works on the positive part of `gd` (justified by
    /// Theorem 5) and returns a positive-clique solution.  If `G_D` has no
    /// positive edge the optimum is 0 and an empty embedding is returned.
    pub fn solve(&self, gd: &SignedGraph) -> DcsgaSolution {
        self.solve_bounded(gd, &[], &SolveContext::unbounded()).0
    }

    /// The NewSEA entry point: the µ_u-ordered sweep over the **positive part**
    /// of `graph`, under a [`SolveContext`].
    ///
    /// `graph` is the signed difference graph or a view of it (masked by the top-k
    /// driver, full everywhere else).  The solver compacts the view's alive,
    /// positive entries into the workspace's CSR buffers
    /// ([`GraphView::positive_part_into`]) and sweeps that `G_{D+}` under the
    /// caller's mask; the compaction ticks no work units.  An already-positive
    /// graph compacts to a copy of itself.
    ///
    /// `seed` is a **warm start**: before the sweep, one SEACD run is started from the
    /// uniform embedding on `seed` (typically the support of the previous mine on a
    /// slightly-changed graph).  A good seed establishes a strong incumbent objective
    /// immediately, so the Theorem-6 early-exit bound prunes far more
    /// initialisations; a useless seed costs one extra local search.  Seed vertices
    /// that are out of range, dead or isolated in `G_{D+}` are dropped; an empty seed
    /// is a cold solve.
    ///
    /// The context is checked before every initialisation and after every SEACD
    /// shrink round (work units are coordinate-descent iterations), so a deadline,
    /// cancellation or exhausted budget returns the best incumbent found so far.
    /// Theorem-6 early-exit prunes are reported through both [`SmartInitStats`] and
    /// [`SolveStats::prunes`].  All scratch state — the compact `G_{D+}`, the µ
    /// ordering, core numbers, and the dense embedding arena shared with SEACD, the
    /// KKT shrink and the refinement — lives in the context's workspace.
    pub fn solve_bounded<'a>(
        &self,
        graph: impl Into<GraphView<'a>>,
        seed: &[VertexId],
        cx: &SolveContext,
    ) -> (DcsgaSolution, SolveStats) {
        let view = graph.into();
        let mut meter = cx.meter();
        let threads = cx.threads();
        let mut ws = cx.workspace();
        let crate::workspace::SolverWorkspace {
            positive,
            init_order,
            max_incident,
            dcsga,
            ..
        } = &mut *ws;
        let gd_plus = view.positive_part_into(std::mem::take(positive));
        let solution = sweep_in(
            view.mask_over(&gd_plus),
            seed,
            &mut meter,
            init_order,
            max_incident,
            dcsga,
            threads,
        );
        *positive = gd_plus.into_raw_csr();
        (solution, meter.finish())
    }
}

/// Below this many alive vertices the µ_u ordering runs sequentially even under a
/// multi-thread budget: the scans are memory-bound and thread spawn overhead would
/// dominate.  Bit-identity makes the dispatch unobservable in results.
const PAR_INIT_MIN_VERTICES: usize = 2048;

/// The µ_u-ordered sweep over `pview`, a view of `G_{D+}`: the compact positive
/// graph under the caller's mask.
fn sweep_in(
    pview: GraphView<'_>,
    seed: &[VertexId],
    meter: &mut WorkMeter,
    order: &mut Vec<(VertexId, Weight)>,
    max_incident: &mut Vec<Weight>,
    dcsga: &mut DcsgaScratch,
    threads: usize,
) -> DcsgaSolution {
    let DcsgaScratch {
        arena,
        kernel,
        cores,
    } = dcsga;
    let n = pview.num_vertices();
    let mut stats = SmartInitStats::default();
    if pview.alive_count() == 0 || !pview.has_edge() {
        return DcsgaSolution {
            embedding: Embedding::default(),
            affinity_difference: 0.0,
            stats,
        };
    }

    // --- Smart-initialisation upper bounds (Theorem 6), into reused buffers. -----
    let init_threads = if pview.alive_count() >= PAR_INIT_MIN_VERTICES {
        threads
    } else {
        1
    };
    smart_initialization_order_in(pview, order, max_incident, cores, init_threads);

    // --- Warm start: one run from the seed to establish a strong incumbent. ------
    let mut best_objective: Weight = 0.0;
    kernel.best_support.clear();
    kernel.best_values.clear();
    kernel.seed.clear();
    kernel.seed.extend(
        seed.iter()
            .copied()
            .filter(|&u| (u as usize) < n && pview.is_alive(u) && pview.degree(u) > 0),
    );
    kernel.seed.sort_unstable();
    kernel.seed.dedup();
    if !kernel.seed.is_empty() && !meter.stopped() {
        stats.seeded_runs += 1;
        meter.note_candidates(1);
        arena.begin(n);
        let share = 1.0 / kernel.seed.len() as f64;
        for i in 0..kernel.seed.len() {
            let u = kernel.seed[i];
            arena.set_x(u, share);
        }
        let run = run_arena(pview, arena, kernel, |units| !meter.tick(units));
        stats.expansion_errors += run.expansion_errors;
        refine_in(pview, arena, kernel);
        arena.support_into(&mut kernel.support);
        let objective = affinity_in(pview, arena, &kernel.support);
        if objective > best_objective {
            best_objective = objective;
            snapshot_best(arena, kernel);
        }
    }

    // --- Sweep in descending µ_u order with the early-exit bound. ----------------
    let mut sweep_span = dcs_obs::trace::span(dcs_obs::trace::Phase::MuSweep);
    for i in 0..order.len() {
        let (u, mu) = order[i];
        if mu <= best_objective {
            let skipped = order.len() - stats.initializations_run;
            stats.initializations_skipped += skipped;
            meter.note_prunes(skipped as u64);
            break;
        }
        if meter.stopped() {
            break;
        }
        stats.initializations_run += 1;
        meter.note_candidates(1);
        arena.begin(n);
        arena.set_x(u, 1.0);
        let run = run_arena(pview, arena, kernel, |units| !meter.tick(units));
        stats.expansion_errors += run.expansion_errors;
        refine_in(pview, arena, kernel);
        arena.support_into(&mut kernel.support);
        let objective = affinity_in(pview, arena, &kernel.support);
        if objective > best_objective {
            best_objective = objective;
            snapshot_best(arena, kernel);
        }
    }
    sweep_span.set_units(stats.initializations_run as u64);
    drop(sweep_span);

    let embedding = Embedding::from_weights(
        kernel
            .best_support
            .iter()
            .copied()
            .zip(kernel.best_values.iter().copied()),
    );
    DcsgaSolution {
        embedding,
        affinity_difference: best_objective,
        stats,
    }
}

/// Computes the smart-initialisation order over a [`GraphView`] of `G_{D+}`, writing
/// into caller-owned buffers so nothing allocates in steady state: `order`
/// receives every alive non-isolated vertex paired with its upper bound
/// `µ_u = τ_u·w_u/(τ_u+1)`, `max_incident` and `cores` are scratch.  The order is
/// total: descending `µ_u`, ties by ascending vertex id, so it does not depend on
/// the sort's algorithm.  NewSEA passes its compact `G_{D+}` under the caller's
/// mask ([`GraphView::mask_over`]); the sign-filtered overlay of `G_D` yields the
/// same order.  On a view with non-positive edges the bound's `w_u` input would
/// see negative weights, which Theorem 6 does not cover, so callers must pass a
/// positive (or positively-weighted) view.
///
/// A view that [has exact rows](GraphView::rows_are_exact) — a full view, or the
/// caller's mask over the compact `G_{D+}` — is read on its raw CSR rows, with no
/// per-entry test; any other view through its filtered neighbour iterator.  The
/// rows hold the same entries in the same order either way.
///
/// With `threads > 1` the two vertex scans fan out over `threads` workers on
/// disjoint ranges.  **The order is bit-identical for every thread count.** The
/// per-vertex maximum incident weight is a `max` over the vertex's surviving row
/// (edge visibility is symmetric, so the row holds exactly the edges incident to
/// the vertex, and `max` is reorder-safe); each `µ_u` is computed from the same
/// operands whatever the range split, and the total order sorts the pairs the
/// same way whatever order they arrive in.  The integer core decomposition stays
/// sequential (it is inherently ordered and cheap relative to the weight scans).
pub fn smart_initialization_order_in(
    view: GraphView<'_>,
    order: &mut Vec<(VertexId, Weight)>,
    max_incident: &mut Vec<Weight>,
    cores: &mut CoreScratch,
    threads: usize,
) {
    let mut bound_span = dcs_obs::trace::span(dcs_obs::trace::Phase::MuBound);
    if view.rows_are_exact() {
        let graph = view.graph();
        let rows = |u| {
            let (nbrs, ws) = graph.neighbor_slices(u);
            nbrs.iter().copied().zip(ws.iter().copied())
        };
        bound_order(view, rows, order, max_incident, cores, threads);
    } else {
        let rows = |u| view.neighbors(u).map(|e| (e.neighbor, e.weight));
        bound_order(view, rows, order, max_incident, cores, threads);
    }
    bound_span.set_units(order.len() as u64);
}

/// The body of [`smart_initialization_order_in`] over the surviving row
/// `rows(u)` of each alive vertex `u`.
fn bound_order<I, R>(
    view: GraphView<'_>,
    rows: R,
    order: &mut Vec<(VertexId, Weight)>,
    max_incident: &mut Vec<Weight>,
    cores: &mut CoreScratch,
    threads: usize,
) where
    I: Iterator<Item = (VertexId, Weight)>,
    R: Fn(VertexId) -> I + Sync,
{
    let n = view.num_vertices();
    core_numbers_view_into(view, cores);
    max_incident.clear();
    max_incident.resize(n, 0.0);
    order.clear();
    if threads <= 1 {
        fill_max_incident(view, &rows, 0, max_incident);
        push_bounds(view, &rows, max_incident, &cores.core, 0..n, order);
    } else {
        let chunk = n.div_ceil(threads).max(1);
        // Phase 1: per-vertex maximum incident weight, written to disjoint ranges.
        std::thread::scope(|scope| {
            for (t, slots) in max_incident.chunks_mut(chunk).enumerate() {
                let rows = &rows;
                scope.spawn(move || fill_max_incident(view, rows, t * chunk, slots));
            }
        });
        // Phase 2: per-range `(u, µ_u)` lists, concatenated in ascending range order.
        let (max_incident, core): (&[Weight], &[u32]) = (max_incident, &cores.core);
        let per_range: Vec<Vec<(VertexId, Weight)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let rows = &rows;
                    scope.spawn(move || {
                        let range = (t * chunk).min(n)..((t + 1) * chunk).min(n);
                        let mut pairs = Vec::new();
                        push_bounds(view, rows, max_incident, core, range, &mut pairs);
                        pairs
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("µ_u scan worker panicked"))
                .collect()
        });
        for pairs in per_range {
            order.extend(pairs);
        }
    }
    // Every µ_u is a non-negative number (`+inf` where `τ_u·w_u` overflows), on
    // which the bits order like the values: descending bits, then ascending id,
    // is the order descending µ_u, then ascending id.  Unstable sort:
    // allocation-free, and the key is total, so no tie is left to it.
    order.sort_unstable_by_key(|&(u, mu)| (Reverse(mu.to_bits()), u));
}

/// Writes the maximum weight of each alive vertex's row into `slots`, which
/// start at vertex `base` (`0.0` for dead vertices and empty rows).
fn fill_max_incident<I: Iterator<Item = (VertexId, Weight)>>(
    view: GraphView<'_>,
    rows: impl Fn(VertexId) -> I,
    base: usize,
    slots: &mut [Weight],
) {
    for (i, slot) in slots.iter_mut().enumerate() {
        let u = (base + i) as VertexId;
        if view.is_alive(u) {
            *slot = rows(u).fold(0.0, |max, (_, w)| {
                debug_assert!(w > 0.0, "G_D+ must only contain positive edges");
                if w > max {
                    w
                } else {
                    max
                }
            });
        }
    }
}

/// Appends `(u, µ_u)` for every alive non-isolated vertex `u` in `range`, where
/// `w_u` is the maximum incident weight over the ego net of `u` — an upper bound
/// on the heaviest edge with at least one endpoint in it.
fn push_bounds<I: Iterator<Item = (VertexId, Weight)>>(
    view: GraphView<'_>,
    rows: impl Fn(VertexId) -> I,
    max_incident: &[Weight],
    core: &[u32],
    range: std::ops::Range<usize>,
    out: &mut Vec<(VertexId, Weight)>,
) {
    for u in range {
        let u = u as VertexId;
        if !view.is_alive(u) || view.degree(u) == 0 {
            continue;
        }
        let w_u = rows(u).fold(max_incident[u as usize], |w_u, (v, _)| {
            w_u.max(max_incident[v as usize])
        });
        let tau = core[u as usize] as Weight;
        let mu = tau * w_u / (tau + 1.0);
        debug_assert!(mu >= 0.0 && mu.is_sign_positive(), "µ_{u} = {mu}");
        out.push((u, mu));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dcsga::SeaCd;
    use dcs_graph::GraphBuilder;

    /// A heavy 4-clique (weight 3), a lighter 5-clique (weight 1) and some noise edges.
    fn two_cliques() -> SignedGraph {
        let mut b = GraphBuilder::new(12);
        for u in 0..4u32 {
            for v in (u + 1)..4u32 {
                b.add_edge(u, v, 3.0);
            }
        }
        for u in 4..9u32 {
            for v in (u + 1)..9u32 {
                b.add_edge(u, v, 1.0);
            }
        }
        b.add_edge(3, 4, 0.5);
        b.add_edge(9, 10, 0.2);
        b.add_edge(10, 11, -1.0); // one negative edge: must be ignored via G_D+
        b.build()
    }

    #[test]
    fn finds_the_heavy_clique() {
        let gd = two_cliques();
        let sol = NewSea::default().solve(&gd);
        // Uniform on the heavy 4-clique: affinity 3·(1 − 1/4) = 2.25.
        assert!(
            (sol.affinity_difference - 2.25).abs() < 1e-4,
            "{}",
            sol.affinity_difference
        );
        assert_eq!(sol.support(), vec![0, 1, 2, 3]);
        assert!(gd.is_positive_clique(&sol.support()));
        assert_eq!(sol.stats.expansion_errors, 0);
    }

    #[test]
    fn smart_init_prunes_but_matches_full_sweep() {
        let gd = two_cliques();
        let gd_plus = gd.positive_part();
        let newsea = NewSea::default().solve(&gd);
        let full = SeaCd::default().sweep(&gd_plus, None, false);
        assert!((newsea.affinity_difference - full.best_objective).abs() < 1e-6);
        // The smart initialisation runs strictly fewer initialisations than the full
        // sweep on this instance.
        assert!(newsea.stats.initializations_run < full.initializations);
        assert!(newsea.stats.initializations_skipped > 0);
    }

    #[test]
    fn mu_is_a_valid_upper_bound() {
        // For every vertex u of the heavy clique, µ_u must be at least the affinity of
        // the best clique containing u (which is 2.25 for u in 0..4).
        let gd = two_cliques();
        let compact = GraphView::full(&gd).positive_part_into(Default::default());
        let mut order = Vec::new();
        smart_initialization_order_in(
            GraphView::full(&compact),
            &mut order,
            &mut Vec::new(),
            &mut CoreScratch::default(),
            1,
        );
        for &(u, mu) in &order {
            if u < 4 {
                assert!(mu >= 2.25 - 1e-9, "µ_{u} = {mu}");
            }
        }
        // And the ordering is non-increasing.
        for pair in order.windows(2) {
            assert!(pair[0].1 >= pair[1].1 - 1e-12);
        }
    }

    #[test]
    fn tied_bounds_order_by_vertex_id_at_every_thread_count() {
        // 300 disjoint edges, the i-th weighted 2, 4 or 6 by i % 3, so every
        // vertex has τ_u = 1 and µ_u = w/2 ∈ {1, 2, 3}: each value is shared by
        // 200 vertices, interleaved in id order.  One negative edge must not
        // count.  A large slice, so ties are not left in input order by chance.
        let edges = 300u32;
        let mut b = GraphBuilder::new(2 * edges as usize);
        for i in 0..edges {
            b.add_edge(2 * i, 2 * i + 1, [2.0, 4.0, 6.0][i as usize % 3]);
        }
        b.add_edge(0, 2, -1.0);
        let gd = b.build();
        let mut expected = Vec::new();
        for (class, mu) in [(2, 3.0), (1, 2.0), (0, 1.0)] {
            for i in (0..edges).filter(|i| i % 3 == class) {
                expected.push((2 * i, mu));
                expected.push((2 * i + 1, mu));
            }
        }
        let compact = GraphView::full(&gd).positive_part_into(Default::default());
        for view in [
            GraphView::full(&gd).positive_part(),
            GraphView::full(&compact),
        ] {
            for threads in [1, 4] {
                let mut order = Vec::new();
                smart_initialization_order_in(
                    view,
                    &mut order,
                    &mut Vec::new(),
                    &mut CoreScratch::default(),
                    threads,
                );
                assert_eq!(order, expected, "threads = {threads}");
            }
        }
    }

    #[test]
    fn overflowing_and_subnormal_bounds_keep_their_order() {
        // A triangle at 1.5e308 (τ = 2, so τ·w overflows: µ = +inf), a 4-clique
        // at 1 (τ = 3, µ = 0.75) and a lone edge at the least subnormal weight
        // (τ = 1, µ = 5e-324 / 2, which rounds to 0).
        let mut b = GraphBuilder::new(9);
        for (u, v) in [(0, 1), (0, 2), (1, 2)] {
            b.add_edge(u, v, 1.5e308);
        }
        for u in 3..7u32 {
            for v in (u + 1)..7u32 {
                b.add_edge(u, v, 1.0);
            }
        }
        b.add_edge(7, 8, 5e-324);
        let compact = GraphView::full(&b.build()).positive_part_into(Default::default());
        let mut expected: Vec<(VertexId, Weight)> = (0..3).map(|u| (u, f64::INFINITY)).collect();
        expected.extend((3..7).map(|u| (u, 0.75)));
        expected.extend([(7, 0.0), (8, 0.0)]);
        for threads in [1, 4] {
            let mut order = Vec::new();
            smart_initialization_order_in(
                GraphView::full(&compact),
                &mut order,
                &mut Vec::new(),
                &mut CoreScratch::default(),
                threads,
            );
            assert_eq!(order, expected, "threads = {threads}");
        }
    }

    #[test]
    fn seeded_solve_matches_cold_solve_and_prunes_harder() {
        let gd = two_cliques();
        let cold = NewSea::default().solve(&gd);
        // Seeding with the known-good support reproduces the optimum while the
        // early-exit bound skips at least as many initialisations as the cold run.
        let cx = SolveContext::unbounded();
        let warm = NewSea::default().solve_bounded(&gd, &[0, 1, 2, 3], &cx).0;
        assert!((warm.affinity_difference - cold.affinity_difference).abs() < 1e-9);
        assert_eq!(warm.support(), cold.support());
        assert_eq!(warm.stats.seeded_runs, 1);
        assert!(warm.stats.initializations_run <= cold.stats.initializations_run);
        assert!(warm.stats.initializations_skipped >= cold.stats.initializations_skipped);
        // A useless seed (isolated / out-of-range vertices) degrades to a cold solve.
        let junk = NewSea::default().solve_bounded(&gd, &[99, 100], &cx).0;
        assert_eq!(junk.stats.seeded_runs, 0);
        assert!((junk.affinity_difference - cold.affinity_difference).abs() < 1e-9);
    }

    #[test]
    fn no_positive_edges_yields_empty_solution() {
        let gd = GraphBuilder::from_edges(3, vec![(0, 1, -1.0), (1, 2, -2.0)]);
        let sol = NewSea::default().solve(&gd);
        assert!(sol.embedding.is_empty());
        assert_eq!(sol.affinity_difference, 0.0);
        assert_eq!(sol.stats.initializations_run, 0);
    }

    #[test]
    fn single_heavy_edge() {
        let gd = GraphBuilder::from_edges(4, vec![(0, 1, 10.0), (1, 2, 1.0), (2, 3, 1.0)]);
        let sol = NewSea::default().solve(&gd);
        assert_eq!(sol.support(), vec![0, 1]);
        // Uniform on a single edge of weight 10: affinity 2·0.25·10 = 5.
        assert!((sol.affinity_difference - 5.0).abs() < 1e-6);
    }

    #[test]
    fn motzkin_straus_on_unweighted_graph() {
        // On an unweighted graph the DCSGA optimum equals 1 − 1/ω(G) (Motzkin–Straus).
        // Graph: K4 {0..3} plus a triangle {4,5,6} sharing no vertex, ω = 4.
        let mut b = GraphBuilder::new(7);
        for u in 0..4u32 {
            for v in (u + 1)..4u32 {
                b.add_edge(u, v, 1.0);
            }
        }
        b.add_edge(4, 5, 1.0);
        b.add_edge(5, 6, 1.0);
        b.add_edge(4, 6, 1.0);
        let gd = b.build();
        let sol = NewSea::default().solve(&gd);
        assert!((sol.affinity_difference - 0.75).abs() < 1e-4);
        assert_eq!(sol.support().len(), 4);
    }

    #[test]
    fn reference_solve_matches_canonical_exactly() {
        // The reference is a solve on a fresh workspace; the canonical serving path
        // reuses one workspace across jobs, here warmed first on a larger graph.
        let gd = two_cliques();
        let shared = crate::SharedWorkspace::new();
        let warm = SolveContext::unbounded().with_workspace(&shared);
        let mut larger = GraphBuilder::new(40);
        for u in 0..39u32 {
            larger.add_edge(u, u + 1, 1.0 + f64::from(u % 3));
        }
        NewSea::default().solve_bounded(&larger.build(), &[7, 8], &warm);
        for seed in [&[][..], &[0, 1, 2, 3][..], &[5, 6][..]] {
            let reused = NewSea::default().solve_bounded(&gd, seed, &warm).0;
            let reference = NewSea::default()
                .solve_bounded(&gd, seed, &SolveContext::unbounded())
                .0;
            assert_eq!(reused.support(), reference.support());
            for (u, x) in reused.embedding.iter() {
                assert_eq!(x.to_bits(), reference.embedding.get(u).to_bits());
            }
            assert_eq!(
                reused.affinity_difference.to_bits(),
                reference.affinity_difference.to_bits()
            );
            assert_eq!(reused.stats, reference.stats);
        }
    }

    #[test]
    fn view_solve_equals_materialized_positive_part() {
        let gd = two_cliques();
        let via_view = NewSea::default().solve(&gd);
        let via_materialized = NewSea::default()
            .solve_bounded(&gd.positive_part(), &[], &SolveContext::unbounded())
            .0;
        assert_eq!(via_view.support(), via_materialized.support());
        assert_eq!(
            via_view.affinity_difference.to_bits(),
            via_materialized.affinity_difference.to_bits()
        );
    }
}
