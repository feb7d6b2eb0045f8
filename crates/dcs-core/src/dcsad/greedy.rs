//! The DCSGreedy algorithm (Algorithm 2 of the paper).
//!
//! DCSGreedy generates several candidate solutions and keeps the best:
//!
//! 1. the endpoints of the maximum-weight edge of `G_D` — a `1/(n−1)`-optimal certificate
//!    (Section IV-B, case 2),
//! 2. the greedy peel of `G_D` (Algorithm 1 run on the signed graph),
//! 3. the greedy peel of `G_{D+}` (Algorithm 1 run on the positive part), which is a
//!    2-approximation of the densest subgraph of `G_{D+}` and therefore yields the
//!    data-dependent ratio `β = 2·ρ_{D+}(S₂)/ρ_D(S)` of Theorem 2.
//!
//! If the winning candidate is disconnected in `G_D`, it is replaced by its best
//! connected component (justified by Property 1).

use dcs_densest::charikar::greedy_peeling;
use dcs_densest::greedy_peeling_view_into;
use dcs_graph::{components, GraphView, SignedGraph, VertexId, Weight};

use crate::engine::{SolveContext, SolveStats};

/// Which of the DCSGreedy candidates produced the final answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CandidateKind {
    /// The two endpoints of the maximum-weight edge of `G_D`.
    MaxWeightEdge,
    /// The greedy peel of the full signed difference graph `G_D`.
    GreedyOnGd,
    /// The greedy peel of the positive part `G_{D+}`.
    GreedyOnGdPlus,
    /// A single vertex when `G_D` has no positively weighted edge, or the empty set
    /// when it has no (alive) vertex at all; the density is 0 either way.
    SingleVertex,
    /// The warm-start seed passed to [`DcsGreedy::solve_bounded`] (the support of a
    /// previous mine on a slightly different graph).
    WarmStart,
}

/// Solution of the DCSAD problem returned by [`DcsGreedy`].
#[derive(Debug, Clone, PartialEq)]
pub struct DcsadSolution {
    /// The mined vertex set `S`, sorted ascending.
    pub subset: Vec<VertexId>,
    /// The density difference `ρ_D(S) = W_D(S)/|S|`.
    pub density_difference: Weight,
    /// The data-dependent approximation ratio `β = 2·ρ_{D+}(S₂)/ρ_D(S)` of Theorem 2
    /// (`1.0` when the difference graph has no positive edge — the solution is exactly
    /// optimal in that case).
    pub data_dependent_ratio: Weight,
    /// Which candidate won.
    pub winner: CandidateKind,
    /// Density of the greedy peel of `G_{D+}` measured in `G_{D+}` — the quantity
    /// `ρ_{D+}(S₂)` entering the data-dependent ratio.
    pub rho_gd_plus: Weight,
    /// Whether the returned subgraph needed to be replaced by one of its connected
    /// components (Algorithm 2, line 9).
    pub refined_to_component: bool,
}

/// The DCSGreedy solver (Algorithm 2).  Stateless apart from configuration; the default
/// configuration follows the paper exactly.
#[derive(Debug, Clone, Default)]
pub struct DcsGreedy {
    _private: (),
}

impl DcsGreedy {
    /// Creates a solver with the default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs DCSGreedy on a difference graph `G_D` (any signed graph is accepted).
    pub fn solve(&self, gd: &SignedGraph) -> DcsadSolution {
        self.solve_bounded(gd, &[], &SolveContext::unbounded()).0
    }

    /// The DCSGreedy entry point: mines `graph` — a [`SignedGraph`] or a masked
    /// [`GraphView`] of one — under a [`SolveContext`].
    ///
    /// A view mines the alive-induced difference graph without materialising it;
    /// this is how the top-k driver masks out previously mined subgraphs instead of
    /// rewriting the CSR.  The view must not be positive-filtered (candidates are
    /// evaluated in the signed graph).  The `G_{D+}` peel runs on a compact copy:
    /// [`GraphView::positive_part_into`] copies the view's alive, positive entries
    /// into the workspace's buffers once, and the peel walks those rows under the
    /// caller's mask with no sign test, visiting the same entries in the same order
    /// as the sign-filtered view would.  The max-weight-edge candidate is one scan
    /// of that copy's weight column ([`SignedGraph::max_weight_edge`]).  Scratch
    /// state (peel heaps, degree arrays, the compact `G_{D+}`) comes from the
    /// context's [`crate::workspace::SolverWorkspace`] and is reused across calls.
    ///
    /// `seed` is a **warm start**: the seed subset (typically the support of the
    /// previous mine on a slightly-changed graph) competes as an extra candidate, so
    /// the returned contrast is never worse than re-evaluating the previous solution
    /// on the current graph.  Out-of-range and dead seed vertices are dropped; an
    /// empty (or fully dropped) seed is a cold solve.
    ///
    /// The candidate peels check the context's cancellation token / deadline /
    /// budget once per vertex removal and return best-so-far when a bound trips.
    /// The returned subset is always valid; on a non-converged termination the
    /// data-dependent ratio of Theorem 2 is not a certificate (the `G_{D+}` peel may
    /// have been truncated) — check [`SolveStats::termination`] before trusting it.
    /// A graph with no (alive) vertex yields the empty subset with density 0.
    pub fn solve_bounded<'a>(
        &self,
        graph: impl Into<GraphView<'a>>,
        seed: &[VertexId],
        cx: &SolveContext,
    ) -> (DcsadSolution, SolveStats) {
        let view = graph.into();
        debug_assert!(
            !view.is_positive_only(),
            "DcsGreedy mines the signed difference graph"
        );
        let gd = view.graph();
        let n = gd.num_vertices();
        let mut meter = cx.meter();
        let mut ws = cx.workspace();
        let crate::workspace::SolverWorkspace {
            peel: peel_ws,
            positive,
            marks,
            visited,
            stack,
            ..
        } = &mut *ws;

        // The compact G_{D+}: the view's alive, positive entries, copied once into
        // the workspace's buffers.  It yields the max-edge candidate here and is
        // peeled under the caller's mask below.  The compaction ticks no work
        // units.
        let gd_plus = view.positive_part_into(std::mem::take(positive));

        // Case 1: no positive edges — any single alive vertex is optimal (density 0),
        // and with no alive vertex at all the answer is the empty set.  Otherwise
        // the heaviest edge of G_D is the heaviest of G_{D+}, and the first of
        // equally heavy edges in `edges()` order is the same in both.
        let Some((eu, ev, _)) = gd_plus.max_weight_edge() else {
            *positive = gd_plus.into_raw_csr();
            return (
                DcsadSolution {
                    subset: view.first_alive().into_iter().collect(),
                    density_difference: 0.0,
                    data_dependent_ratio: 1.0,
                    winner: CandidateKind::SingleVertex,
                    rho_gd_plus: 0.0,
                    refined_to_component: false,
                },
                meter.finish(),
            );
        };

        // Candidate A: the endpoints of the maximum weight edge.
        let edge_candidate: Vec<VertexId> = vec![eu.min(ev), eu.max(ev)];
        meter.note_candidates(1);

        // Candidate B: greedy peel of G_D (interruptible; best prefix so far).
        let s1 = {
            let (peel, _) = greedy_peeling_view_into(view, peel_ws, |units| !meter.tick(units));
            meter.note_candidates(1);
            peel.subset
        };

        // Candidate C: greedy peel of the compact G_{D+} under the caller's mask;
        // skipped entirely once a bound tripped.
        let (s2, rho_gd_plus) = if meter.stopped() {
            (Vec::new(), 0.0)
        } else {
            let (peel_plus, _) =
                greedy_peeling_view_into(view.mask_over(&gd_plus), peel_ws, |units| {
                    !meter.tick(units)
                });
            meter.note_candidates(1);
            (peel_plus.subset, peel_plus.average_degree)
        };
        *positive = gd_plus.into_raw_csr();

        // Candidate D (warm start): the seed support from a previous mine.  Seeds
        // from a slightly different (or less-masked) graph may reference dead
        // vertices; they are dropped.
        let seed_candidate: Vec<VertexId> = {
            let mut s: Vec<VertexId> = seed
                .iter()
                .copied()
                .filter(|&u| (u as usize) < n && view.is_alive(u))
                .collect();
            s.sort_unstable();
            s.dedup();
            s
        };
        if !seed_candidate.is_empty() {
            meter.note_candidates(1);
        }

        // Pick the candidate with the best density *in G_D* (evaluated through the
        // reused membership scratch; the winner is cloned exactly once).
        let mut eval = |cand: &[VertexId]| -> Weight {
            if cand.is_empty() {
                return 0.0;
            }
            marks.reset_universe(n);
            marks.insert_all(cand);
            gd.total_degree_marked(marks) / cand.len() as Weight
        };
        let mut best_density = eval(&edge_candidate);
        let mut winner = CandidateKind::MaxWeightEdge;
        let mut best_ref: &Vec<VertexId> = &edge_candidate;
        for (cand, kind) in [
            (&s1, CandidateKind::GreedyOnGd),
            (&s2, CandidateKind::GreedyOnGdPlus),
            (&seed_candidate, CandidateKind::WarmStart),
        ] {
            if cand.is_empty() {
                continue;
            }
            let density = eval(cand);
            if density > best_density {
                best_density = density;
                best_ref = cand;
                winner = kind;
            }
        }
        let mut best_subset = best_ref.clone();

        // Refine to the best connected component if necessary (Property 1 / line 9).
        // The common (connected) case is a scratch-buffer BFS; only a genuinely
        // disconnected winner pays for the full component labelling.
        let mut refined_to_component = false;
        marks.reset_universe(n);
        marks.insert_all(&best_subset);
        if !components::is_connected_scratch(gd, marks, visited, stack) {
            let cc = components::connected_components_of(gd, &best_subset);
            debug_assert!(cc.num_components > 1);
            refined_to_component = true;
            let mut best_cc: Option<(Vec<VertexId>, Weight)> = None;
            for group in cc.groups() {
                let density = gd.average_degree(&group);
                match &best_cc {
                    None => best_cc = Some((group, density)),
                    Some((_, d)) if density > *d => best_cc = Some((group, density)),
                    _ => {}
                }
            }
            let (subset, density) = best_cc.expect("at least one component");
            best_subset = subset;
            best_density = density;
        }
        best_subset.sort_unstable();

        // Data-dependent ratio of Theorem 2.
        let data_dependent_ratio = if best_density > 0.0 {
            2.0 * rho_gd_plus / best_density
        } else {
            Weight::INFINITY
        };

        (
            DcsadSolution {
                subset: best_subset,
                density_difference: best_density,
                data_dependent_ratio,
                winner,
                rho_gd_plus,
                refined_to_component,
            },
            meter.finish(),
        )
    }

    /// Runs only the greedy peel of `G_D` and evaluates it in `G_D` (the "GD only"
    /// comparator of Tables X and XII); the result is refined to its best connected
    /// component like the full algorithm.
    pub fn solve_gd_only(&self, gd: &SignedGraph) -> DcsadSolution {
        self.solve_peel_variant(gd, gd)
    }

    /// Runs only the greedy peel of `G_{D+}` and evaluates it in `G_D` (the "GD+ only"
    /// comparator of Tables X and XII).
    pub fn solve_gd_plus_only(&self, gd: &SignedGraph) -> DcsadSolution {
        let gd_plus = gd.positive_part();
        self.solve_peel_variant(gd, &gd_plus)
    }

    fn solve_peel_variant(&self, gd: &SignedGraph, peel_on: &SignedGraph) -> DcsadSolution {
        let peel = greedy_peeling(peel_on);
        let mut subset = peel.subset;
        if subset.is_empty() {
            subset.push(0);
        }
        let cc = components::connected_components_of(gd, &subset);
        let mut refined = false;
        if cc.num_components > 1 {
            refined = true;
            subset = cc
                .groups()
                .into_iter()
                .max_by(|a, b| {
                    gd.average_degree(a)
                        .partial_cmp(&gd.average_degree(b))
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
                .expect("at least one component");
        }
        subset.sort_unstable();
        let density = gd.average_degree(&subset);
        DcsadSolution {
            density_difference: density,
            data_dependent_ratio: Weight::NAN,
            winner: if std::ptr::eq(gd, peel_on) {
                CandidateKind::GreedyOnGd
            } else {
                CandidateKind::GreedyOnGdPlus
            },
            rho_gd_plus: Weight::NAN,
            refined_to_component: refined,
            subset,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcs_graph::GraphBuilder;

    /// Brute-force DCSAD optimum for tiny graphs.
    fn brute_force(gd: &SignedGraph) -> (Vec<VertexId>, Weight) {
        let n = gd.num_vertices();
        // u64 masks: `1 << n` / `1 << v` on a u32 silently overflows for n >= 32.
        debug_assert!(n < 64, "brute-force subset masks are u64");
        assert!(n <= 16, "exponential brute force is for tiny graphs only");
        let mut best: (Vec<VertexId>, Weight) = (vec![0], 0.0);
        for mask in 1u64..(1u64 << n) {
            let subset: Vec<VertexId> =
                (0..n as u32).filter(|&v| mask & (1u64 << v) != 0).collect();
            let d = gd.average_degree(&subset);
            if d > best.1 {
                best = (subset, d);
            }
        }
        best
    }

    fn fig1_gd() -> SignedGraph {
        GraphBuilder::from_edges(
            5,
            vec![
                (0, 1, 1.0),
                (0, 3, -2.0),
                (2, 3, 3.0),
                (2, 4, -1.0),
                (3, 4, 2.0),
            ],
        )
    }

    #[test]
    fn fig1_example() {
        let gd = fig1_gd();
        let sol = DcsGreedy::new().solve(&gd);
        let (brute_set, brute_density) = brute_force(&gd);
        // On this tiny instance the greedy is exact.
        assert_eq!(sol.subset, brute_set);
        assert!((sol.density_difference - brute_density).abs() < 1e-9);
        assert!(sol.data_dependent_ratio >= 1.0 - 1e-9);
        assert!(dcs_graph::components::is_connected(&gd, &sol.subset));
    }

    #[test]
    fn no_positive_edges() {
        let gd = GraphBuilder::from_edges(4, vec![(0, 1, -1.0), (1, 2, -3.0)]);
        let sol = DcsGreedy::new().solve(&gd);
        assert_eq!(sol.subset.len(), 1);
        assert_eq!(sol.density_difference, 0.0);
        assert_eq!(sol.winner, CandidateKind::SingleVertex);
        assert_eq!(sol.data_dependent_ratio, 1.0);
    }

    #[test]
    fn single_heavy_edge_beats_noisy_peel() {
        // One very heavy positive edge and a big mildly positive blob: the heavy edge has
        // higher average degree.
        let mut b = GraphBuilder::new(10);
        b.add_edge(0, 1, 100.0);
        for u in 2..8u32 {
            for v in (u + 1)..8u32 {
                b.add_edge(u, v, 1.0);
            }
        }
        let gd = b.build();
        let sol = DcsGreedy::new().solve(&gd);
        assert_eq!(sol.subset, vec![0, 1]);
        assert!((sol.density_difference - 100.0).abs() < 1e-9);
    }

    #[test]
    fn negative_bridge_forces_component_refinement() {
        // Two positive triangles joined only by a strongly negative edge: the raw peel of
        // G_D+ returns both triangles (disconnected in G_D+ but also in the induced
        // candidate), and the refinement keeps exactly one triangle.
        let gd = GraphBuilder::from_edges(
            6,
            vec![
                (0, 1, 2.0),
                (1, 2, 2.0),
                (0, 2, 2.0),
                (3, 4, 2.0),
                (4, 5, 2.0),
                (3, 5, 2.0),
            ],
        );
        let sol = DcsGreedy::new().solve(&gd);
        assert!(dcs_graph::components::is_connected(&gd, &sol.subset));
        assert_eq!(sol.subset.len(), 3);
        assert!((sol.density_difference - 4.0).abs() < 1e-9);
        assert!(sol.refined_to_component);
    }

    #[test]
    fn greedy_never_beats_brute_force_but_close_on_small_graphs() {
        // Deterministic pseudo-random small signed graphs; DCSGreedy must stay within its
        // data-dependent ratio of the optimum and never exceed it.
        let mut seed = 12345u64;
        let mut next = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 33) as f64 / (u32::MAX as f64 / 2.0) - 1.0
        };
        for case in 0..20 {
            let n = 6 + (case % 5);
            let mut b = GraphBuilder::new(n);
            for u in 0..n as u32 {
                for v in (u + 1)..n as u32 {
                    let r = next();
                    if r.abs() > 0.3 {
                        b.add_edge(u, v, (r * 5.0 * 100.0).round() / 100.0);
                    }
                }
            }
            let gd = b.build();
            let sol = DcsGreedy::new().solve(&gd);
            let (_, opt) = brute_force(&gd);
            assert!(sol.density_difference <= opt + 1e-9);
            if opt > 0.0 && sol.density_difference > 0.0 {
                let achieved_ratio = opt / sol.density_difference;
                assert!(
                    achieved_ratio <= sol.data_dependent_ratio + 1e-9,
                    "achieved ratio {achieved_ratio} vs certified {}",
                    sol.data_dependent_ratio
                );
            }
        }
    }

    #[test]
    fn seeded_solve_never_loses_to_its_seed() {
        let gd = fig1_gd();
        let cold = DcsGreedy::new().solve(&gd);
        // Any seed: the result is at least as dense as the seed itself (the seed
        // competes as a candidate and refinement never decreases density), and
        // never worse than the cold solve.
        for seed in [vec![2, 3], vec![0, 1, 2, 3, 4], vec![1, 4], vec![3, 99]] {
            let warm = DcsGreedy::new()
                .solve_bounded(&gd, &seed, &SolveContext::unbounded())
                .0;
            let in_range: Vec<_> = seed.iter().copied().filter(|&v| v < 5).collect();
            assert!(warm.density_difference >= gd.average_degree(&in_range) - 1e-9);
            assert!(warm.density_difference >= cold.density_difference - 1e-9);
        }
        // An empty seed is exactly the cold solve.
        let empty = DcsGreedy::new()
            .solve_bounded(&gd, &[], &SolveContext::unbounded())
            .0;
        assert_eq!(empty.subset, cold.subset);
        assert_eq!(empty.winner, cold.winner);
    }

    #[test]
    fn gd_only_and_gd_plus_only_variants() {
        let gd = fig1_gd();
        let full = DcsGreedy::new().solve(&gd);
        let gd_only = DcsGreedy::new().solve_gd_only(&gd);
        let plus_only = DcsGreedy::new().solve_gd_plus_only(&gd);
        assert!(gd_only.density_difference <= full.density_difference + 1e-9);
        assert!(plus_only.density_difference <= full.density_difference + 1e-9);
        assert!(dcs_graph::components::is_connected(&gd, &gd_only.subset));
        assert!(dcs_graph::components::is_connected(&gd, &plus_only.subset));
    }

    #[test]
    fn hardness_reduction_instance() {
        // The reduction of Theorem 1: G (unweighted) has a max clique of size k ⇒ the
        // DCSAD optimum of the constructed (G1, G2) pair is k − 1.  Build a small G with
        // max clique {0,1,2,3} (k=4) and check DCSGreedy reaches 3 here (it is not
        // guaranteed in general, but on this easy instance it is).
        let mut g_edges = vec![];
        for u in 0..4u32 {
            for v in (u + 1)..4u32 {
                g_edges.push((u, v));
            }
        }
        g_edges.push((3, 4));
        g_edges.push((4, 5));
        let n = 6usize;
        // G2 = G with unit weights; G1 = complement with weight |E|+1.
        let m = g_edges.len() as f64;
        let mut b2 = GraphBuilder::new(n);
        for &(u, v) in &g_edges {
            b2.add_edge(u, v, 1.0);
        }
        let g2 = b2.build();
        let mut b1 = GraphBuilder::new(n);
        for u in 0..n as u32 {
            for v in (u + 1)..n as u32 {
                if !g_edges.contains(&(u, v)) {
                    b1.add_edge(u, v, m + 1.0);
                }
            }
        }
        let g1 = b1.build();
        let gd = crate::difference_graph(&g2, &g1).unwrap();
        let sol = DcsGreedy::new().solve(&gd);
        assert!((sol.density_difference - 3.0).abs() < 1e-9);
        assert_eq!(sol.subset, vec![0, 1, 2, 3]);
    }
}
