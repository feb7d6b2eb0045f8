//! EgoScan-substitute: a heavy-subgraph baseline maximising the total degree `W_D(S)`.
//!
//! Cadena et al. (ICDM 2016) mine the subgraph of a signed "excess" graph whose **total**
//! edge weight is maximal, scanning ego nets and rounding a semidefinite relaxation in
//! each.  We reproduce the objective and the ego-net scanning structure but replace the
//! SDP by a greedy local search:
//!
//! 1. **Ego-net seeds** — for the highest-positive-degree seed vertices, grow a candidate
//!    inside the seed's ego net by adding vertices with positive marginal gain.
//! 2. **Global peel seed** — start from every vertex with a positive weighted degree and
//!    repeatedly discard the vertex with the most negative internal degree.
//! 3. **Local search** — from every candidate, alternately add any vertex with positive
//!    marginal gain and remove any vertex with negative internal degree until a local
//!    optimum of `W_D(S)` is reached.
//!
//! The result is a *large* subgraph with a high total-weight difference and (typically) a
//! much lower density than the DCS algorithms produce — exactly the qualitative contrast
//! of Tables VIII/IX.

use dcs_core::engine::{SolveContext, SolveStats};
use dcs_graph::{SignedGraph, VertexId, VertexSubset, Weight};

/// Number of ego-net seeds to expand (the highest positive-weighted-degree vertices).
const MAX_SEEDS: usize = 64;

/// Maximum number of add/remove sweeps in the local-search phase.
const MAX_SWEEPS: usize = 50;

/// Result of the EgoScan substitute.
#[derive(Debug, Clone)]
pub struct EgoScanResult {
    /// The mined vertex set, sorted ascending.
    pub subset: Vec<VertexId>,
    /// Its total degree `W_D(S)` (degree-sum convention, like the rest of the workspace).
    pub total_degree: Weight,
}

/// The EgoScan-substitute solver.  Stateless: it expands the ego nets of the 64
/// highest positive-degree vertices, with at most 50 local-search sweeps per
/// candidate.
#[derive(Debug, Clone, Default)]
pub struct EgoScan {
    _private: (),
}

impl EgoScan {
    /// Mines a subgraph with (locally) maximal total weight from the signed graph `gd`.
    pub fn solve(&self, gd: &SignedGraph) -> EgoScanResult {
        self.solve_bounded(gd, &SolveContext::unbounded()).0
    }

    /// [`Self::solve`] under a [`SolveContext`]: the context is checked once per
    /// local-search sweep and once per ego-net seed, so a deadline, cancellation or
    /// exhausted budget returns the best (valid, locally improved) candidate found so
    /// far together with [`SolveStats`] telemetry.
    pub fn solve_bounded(
        &self,
        gd: &SignedGraph,
        cx: &SolveContext,
    ) -> (EgoScanResult, SolveStats) {
        let mut meter = cx.meter();
        let n = gd.num_vertices();
        if n == 0 || gd.num_positive_edges() == 0 {
            return (
                EgoScanResult {
                    subset: Vec::new(),
                    total_degree: 0.0,
                },
                meter.finish(),
            );
        }

        // Seed 1: global "drop negative contributors" candidate starting from all
        // vertices incident to at least one positive edge.
        let positive_touched: Vec<VertexId> = gd
            .vertices()
            .filter(|&v| gd.neighbors(v).any(|e| e.weight > 0.0))
            .collect();
        meter.note_candidates(1);
        let mut best = self.local_search(gd, &positive_touched, &mut meter);

        // Seed 2: ego nets of the highest positive-degree vertices.
        let mut by_pos_degree: Vec<(VertexId, Weight)> = gd
            .vertices()
            .map(|v| {
                let pos: Weight = gd
                    .neighbors(v)
                    .filter(|e| e.weight > 0.0)
                    .map(|e| e.weight)
                    .sum();
                (v, pos)
            })
            .filter(|(_, w)| *w > 0.0)
            .collect();
        by_pos_degree.sort_by(|a, b| b.1.total_cmp(&a.1));
        for &(seed, _) in by_pos_degree.iter().take(MAX_SEEDS) {
            if meter.stopped() {
                break;
            }
            meter.note_candidates(1);
            let ego = gd.ego_net(seed);
            let candidate = self.local_search(gd, &ego, &mut meter);
            if candidate.total_degree > best.total_degree {
                best = candidate;
            }
        }
        (best, meter.finish())
    }

    /// Add/remove local search maximising `W_D(S)` starting from `initial`.  One
    /// meter unit per sweep; an interrupted search returns its current members (every
    /// completed pass only ever improved `W_D(S)`).
    fn local_search(
        &self,
        gd: &SignedGraph,
        initial: &[VertexId],
        meter: &mut dcs_core::engine::WorkMeter,
    ) -> EgoScanResult {
        let n = gd.num_vertices();
        let mut members = VertexSubset::from_slice(n, initial);

        for _ in 0..MAX_SWEEPS {
            if !meter.tick(1) {
                break;
            }
            let mut changed = false;

            // Removal pass: drop every vertex whose internal weighted degree is negative
            // (removing it increases W_D(S) by −2·degree > 0).  Iterate to a fixpoint
            // within the pass because removals change neighbours' degrees.
            let mut removal_progress = true;
            while removal_progress {
                removal_progress = false;
                let current: Vec<VertexId> = members.iter().copied().collect();
                for v in current {
                    let internal = gd.weighted_degree_in(v, &members);
                    if internal < 0.0 {
                        members.remove(v);
                        removal_progress = true;
                        changed = true;
                    }
                }
            }

            // Addition pass: add any outside vertex whose marginal gain is positive.
            // Candidates are restricted to neighbours of the current members.
            let mut candidates: Vec<VertexId> = Vec::new();
            {
                let mut seen = vec![false; n];
                for &u in members.iter() {
                    for e in gd.neighbors(u) {
                        let v = e.neighbor;
                        if !members.contains(v) && !seen[v as usize] {
                            seen[v as usize] = true;
                            candidates.push(v);
                        }
                    }
                }
            }
            for v in candidates {
                if members.contains(v) {
                    continue;
                }
                let gain = gd.weighted_degree_in(v, &members);
                if gain > 0.0 {
                    members.insert(v);
                    changed = true;
                }
            }

            if !changed {
                break;
            }
        }

        let subset = members.into_sorted_vec();
        let total_degree = gd.total_degree(&subset);
        EgoScanResult {
            subset,
            total_degree,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcs_graph::GraphBuilder;

    #[test]
    fn collects_all_positive_weight() {
        // Two positive communities joined by a positive bridge: the total-weight optimum
        // is everything positive.
        let gd = GraphBuilder::from_edges(
            6,
            vec![
                (0, 1, 1.0),
                (1, 2, 1.0),
                (0, 2, 1.0),
                (2, 3, 0.5),
                (3, 4, 1.0),
                (4, 5, 1.0),
                (3, 5, 1.0),
            ],
        );
        let res = EgoScan::default().solve(&gd);
        assert_eq!(res.subset, vec![0, 1, 2, 3, 4, 5]);
        assert!((res.total_degree - 13.0).abs() < 1e-9); // 2 * 6.5
    }

    #[test]
    fn drops_negative_appendage() {
        let gd = GraphBuilder::from_edges(
            5,
            vec![
                (0, 1, 2.0),
                (1, 2, 2.0),
                (0, 2, 2.0),
                (2, 3, -4.0),
                (3, 4, 1.0),
            ],
        );
        let res = EgoScan::default().solve(&gd);
        // Vertex 3 is a net negative for the triangle; {3,4} alone is worth 2 but the
        // triangle is worth 12, and joining them costs 8.  Expect the triangle plus
        // (possibly) the disconnected positive pair to NOT be merged through the negative
        // edge.  The local search keeps whichever start is better: the triangle.
        assert!(res.subset.contains(&0) && res.subset.contains(&1) && res.subset.contains(&2));
        assert!(!res.subset.contains(&3));
        assert!(res.total_degree >= 12.0 - 1e-9);
    }

    #[test]
    fn returns_bigger_subgraphs_than_dcs_density_would() {
        // A dense heavy core plus a halo of mildly positive edges: total-weight
        // maximisation includes the halo, density maximisation would not.
        let mut b = GraphBuilder::new(20);
        for u in 0..4u32 {
            for v in (u + 1)..4u32 {
                b.add_edge(u, v, 10.0);
            }
        }
        for v in 4..20u32 {
            b.add_edge(0, v, 0.5);
        }
        let gd = b.build();
        let res = EgoScan::default().solve(&gd);
        assert_eq!(res.subset.len(), 20);
        // Density of the EgoScan answer is far below the core's density (30).
        assert!(gd.average_degree(&res.subset) < 10.0);
    }

    #[test]
    fn empty_and_all_negative() {
        let res = EgoScan::default().solve(&SignedGraph::empty(4));
        assert!(res.subset.is_empty());
        let gd = GraphBuilder::from_edges(3, vec![(0, 1, -1.0)]);
        let res = EgoScan::default().solve(&gd);
        assert!(res.subset.is_empty());
        assert_eq!(res.total_degree, 0.0);
    }

    #[test]
    fn engine_solver_matches_direct_solve_and_respects_cancellation() {
        let gd = GraphBuilder::from_edges(
            6,
            vec![
                (0, 1, 1.0),
                (1, 2, 1.0),
                (0, 2, 1.0),
                (2, 3, 0.5),
                (3, 4, 1.0),
                (4, 5, 1.0),
                (3, 5, 1.0),
            ],
        );
        let direct = EgoScan::default().solve(&gd);
        let (engine, stats) = EgoScan::default().solve_bounded(&gd, &SolveContext::unbounded());
        assert_eq!(engine.subset, direct.subset);
        assert_eq!(engine.total_degree, direct.total_degree);
        assert!(stats.termination.is_converged());
        assert!(stats.candidates > 0);

        let token = dcs_core::engine::CancelToken::new();
        token.cancel();
        let (cancelled, stats) =
            EgoScan::default().solve_bounded(&gd, &SolveContext::unbounded().with_cancel(&token));
        assert_eq!(stats.termination, dcs_core::engine::Termination::Cancelled);
        assert!(cancelled
            .subset
            .iter()
            .all(|&v| (v as usize) < gd.num_vertices()));
    }

    #[test]
    fn total_degree_is_locally_optimal() {
        // At the returned solution no single vertex can be added with positive gain or
        // removed with negative internal degree.
        let gd = GraphBuilder::from_edges(
            7,
            vec![
                (0, 1, 3.0),
                (1, 2, -1.0),
                (2, 3, 2.0),
                (3, 4, -0.5),
                (4, 5, 1.0),
                (5, 6, 4.0),
                (0, 6, -2.0),
                (2, 5, 1.5),
            ],
        );
        let res = EgoScan::default().solve(&gd);
        let members = VertexSubset::from_slice(gd.num_vertices(), &res.subset);
        for v in gd.vertices() {
            let internal = gd.weighted_degree_in(v, &members);
            if members.contains(v) {
                assert!(internal >= 0.0, "vertex {v} should have been removed");
            } else {
                assert!(internal <= 0.0, "vertex {v} should have been added");
            }
        }
    }
}
