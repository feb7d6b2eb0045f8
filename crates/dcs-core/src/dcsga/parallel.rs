//! The parallel exhaustive initialisation sweep of the `SEACD+Refine` comparator.
//!
//! The SEACD initialisations are independent local searches, so they parallelise
//! naturally: each worker repeatedly claims the next candidate vertex and runs
//! SEACD + refinement from it.  [`parallel_sweep`] produces the same best solution as
//! [`SeaCd::sweep`] (ties between equal objectives break towards the lowest seed
//! vertex, whatever the scheduling).  NewSEA itself parallelises inside one solve
//! instead: see [`super::NewSea::solve_bounded`] under
//! [`crate::SolveContext::with_threads`].

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use dcs_densest::Embedding;
use dcs_graph::{SignedGraph, VertexId, Weight};

use super::refine::{refine, refine_with_workspace};
use super::seacd::{SeaCd, SeaCdSweep};
use super::DcsgaConfig;
use crate::engine::effective_threads;
use crate::workspace::SolverWorkspace;

/// Locks a sweep mutex.  A worker that panics takes the whole sweep down
/// with it (the scope re-raises the panic), so a poisoned value is never
/// read as a result.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Shared best-so-far state of a parallel sweep: `(objective, seed vertex of the
/// winning initialisation, embedding)`.
struct SharedBest {
    best: Mutex<(Weight, VertexId, Embedding)>,
}

/// Sentinel seed of the initial empty incumbent: a real offer never ties against it
/// (the incumbent must first be beaten on the objective, exactly as before).
const UNSEEDED: VertexId = VertexId::MAX;

impl SharedBest {
    fn new() -> Self {
        SharedBest {
            best: Mutex::new((0.0, UNSEEDED, Embedding::default())),
        }
    }

    /// Whether `(objective, seed)` replaces the incumbent: strictly better objective,
    /// or an exact objective tie broken towards the **lowest seed vertex** — so the
    /// winning embedding is deterministic under any scheduling and thread count.
    fn wins(objective: Weight, seed: VertexId, incumbent: &(Weight, VertexId, Embedding)) -> bool {
        objective > incumbent.0
            || (incumbent.1 != UNSEEDED && objective == incumbent.0 && seed < incumbent.1)
    }

    /// Offers the solution of the initialisation seeded at `seed`.  Losing offers
    /// never clone: the embedding is cloned outside the lock only after a first
    /// check says the offer currently wins, and installed only if it still wins on
    /// the re-check (another worker may have improved the incumbent in between).
    fn offer(&self, objective: Weight, seed: VertexId, embedding: &Embedding) {
        if !Self::wins(objective, seed, &lock(&self.best)) {
            return;
        }
        let owned = embedding.clone();
        let mut guard = lock(&self.best);
        if Self::wins(objective, seed, &guard) {
            *guard = (objective, seed, owned);
        }
    }

    fn into_best(self) -> (Weight, Embedding) {
        let (objective, _, embedding) = self
            .best
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        (objective, embedding)
    }
}

/// Runs the exhaustive SEACD+Refine sweep (one initialisation per non-isolated vertex of
/// `gd_plus`) across `threads` worker threads.
///
/// Returns the same [`SeaCdSweep`] shape as [`SeaCd::sweep`]; `all_solutions` is only
/// populated when `collect_all` is set, in vertex order (so the clique census is
/// deterministic regardless of scheduling).
pub fn parallel_sweep(
    gd_plus: &SignedGraph,
    config: DcsgaConfig,
    threads: usize,
    collect_all: bool,
) -> SeaCdSweep {
    let n = gd_plus.num_vertices();
    let threads = effective_threads(threads);
    if n == 0 || threads == 1 {
        return SeaCd::new(config).sweep(gd_plus, None, collect_all, |g, x| refine(g, x, &config));
    }

    let candidates: Vec<u32> = (0..n as u32).filter(|&u| gd_plus.degree(u) > 0).collect();
    let next = AtomicUsize::new(0);
    let shared = SharedBest::new();
    let errors = AtomicUsize::new(0);
    let per_candidate: Vec<Mutex<Option<Embedding>>> =
        (0..candidates.len()).map(|_| Mutex::new(None)).collect();

    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let solver = SeaCd::new(config);
                // One dense workspace per worker, reused across its initialisations.
                let mut ws = SolverWorkspace::new();
                loop {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&u) = candidates.get(index) else {
                        break;
                    };
                    let run =
                        solver.run_on_view_in(gd_plus, Embedding::singleton(u), &mut ws, |_| false);
                    errors.fetch_add(run.expansion_errors, Ordering::Relaxed);
                    let refined = refine_with_workspace(gd_plus, run.embedding, &config, &mut ws);
                    let objective = refined.affinity(gd_plus);
                    shared.offer(objective, u, &refined);
                    if collect_all {
                        *lock(&per_candidate[index]) = Some(refined);
                    }
                }
            });
        }
    });

    let initializations = candidates.len();
    let all_solutions = if collect_all {
        per_candidate
            .into_iter()
            .filter_map(|slot| slot.into_inner().unwrap_or_else(PoisonError::into_inner))
            .collect()
    } else {
        Vec::new()
    };
    let (best_objective, best) = shared.into_best();
    SeaCdSweep {
        best,
        best_objective,
        initializations,
        expansion_errors: errors.load(Ordering::Relaxed),
        all_solutions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcs_graph::GraphBuilder;

    /// A heavy 4-clique, a medium 5-clique and background noise.
    fn planted_graph() -> SignedGraph {
        let mut b = GraphBuilder::new(40);
        for u in 0..4u32 {
            for v in (u + 1)..4u32 {
                b.add_edge(u, v, 5.0);
            }
        }
        for u in 10..15u32 {
            for v in (u + 1)..15u32 {
                b.add_edge(u, v, 2.0);
            }
        }
        for i in 0..30u32 {
            b.add_edge(i, (i * 7 + 3) % 40, 0.3);
            b.add_edge((i * 5 + 1) % 40, (i * 11 + 2) % 40, -0.2);
        }
        b.build()
    }

    #[test]
    fn parallel_sweep_matches_sequential_best() {
        let gd = planted_graph();
        let gd_plus = gd.positive_part();
        let config = DcsgaConfig::default();
        let sequential =
            SeaCd::new(config).sweep(&gd_plus, None, false, |g, x| refine(g, x, &config));
        let parallel = parallel_sweep(&gd_plus, config, 4, false);
        assert!((sequential.best_objective - parallel.best_objective).abs() < 1e-9);
        assert_eq!(sequential.initializations, parallel.initializations);
        assert_eq!(parallel.expansion_errors, 0);
        assert_eq!(sequential.best.support(), parallel.best.support());
    }

    #[test]
    fn parallel_sweep_collects_one_solution_per_candidate() {
        let gd = planted_graph();
        let gd_plus = gd.positive_part();
        let parallel = parallel_sweep(&gd_plus, DcsgaConfig::default(), 3, true);
        assert_eq!(parallel.all_solutions.len(), parallel.initializations);
    }

    #[test]
    fn degenerate_inputs() {
        let config = DcsgaConfig::default();
        // Empty graph through the sweep path.
        let sweep = parallel_sweep(&SignedGraph::empty(0), config, 4, true);
        assert_eq!(sweep.initializations, 0);
    }
}
