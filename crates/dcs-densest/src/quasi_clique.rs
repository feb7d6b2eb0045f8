//! Optimal quasi-clique extraction (Tsourakakis et al., KDD 2013).
//!
//! The DCS paper relates its α-scaled difference graph (Section III-D) to the *optimal
//! α-quasi-clique* problem, which maximises the **edge surplus**
//!
//! ```text
//! f_α(S) = w(E(S)) − α · |S|(|S|−1)/2
//! ```
//!
//! i.e. the total induced edge weight minus α times the number of vertex pairs.  Unlike
//! the average degree, this objective explicitly rewards near-clique structure, so it is
//! a useful comparison point between the paper's two density measures: it sits between
//! DCSAD (which favours large subgraphs) and DCSGA (whose optimum is a positive clique).
//!
//! Two standard heuristics are implemented, following the original paper:
//!
//! * [`greedy_quasi_clique`] — peel the vertex of minimum weighted degree, keep the best
//!   prefix by edge surplus (the `GreedyOQC` algorithm), and
//! * [`local_search_quasi_clique`] — iterated add/remove passes from a seed subset
//!   (the `LocalSearchOQC` algorithm), which never returns a worse subset than its seed.
//!
//! Both accept signed graphs; on a difference graph they optimise the *contrast* edge
//! surplus, which is how the ablation benches use them.

use dcs_graph::{SignedGraph, VertexId, VertexSubset, Weight};

use crate::peel::{DegreeHeap, MinDegreeQueue};

/// Result of a quasi-clique search.
#[derive(Debug, Clone, PartialEq)]
pub struct QuasiCliqueResult {
    /// The selected vertices, sorted ascending.
    pub subset: Vec<VertexId>,
    /// The edge surplus `w(E(S)) − α·|S|(|S|−1)/2` of the subset.
    pub edge_surplus: Weight,
    /// The induced total edge weight `w(E(S))` (each undirected edge counted once).
    pub total_edge_weight: Weight,
    /// The α used for the search.
    pub alpha: Weight,
}

impl QuasiCliqueResult {
    fn for_subset(g: &SignedGraph, subset: Vec<VertexId>, alpha: Weight) -> Self {
        let total_edge_weight = g.total_edge_weight(&subset);
        QuasiCliqueResult {
            edge_surplus: edge_surplus(total_edge_weight, subset.len(), alpha),
            total_edge_weight,
            subset,
            alpha,
        }
    }

    /// The fraction of present pair weight relative to a full unit-weight clique,
    /// `w(E(S)) / (|S|(|S|−1)/2)`; `0` for subsets smaller than two vertices.
    pub fn clique_ratio(&self) -> Weight {
        let pairs = pair_count(self.subset.len());
        if pairs == 0.0 {
            0.0
        } else {
            self.total_edge_weight / pairs
        }
    }
}

fn pair_count(size: usize) -> Weight {
    (size as Weight) * (size.saturating_sub(1) as Weight) / 2.0
}

fn edge_surplus(total_edge_weight: Weight, size: usize, alpha: Weight) -> Weight {
    total_edge_weight - alpha * pair_count(size)
}

/// `GreedyOQC`: peel the minimum-weighted-degree vertex, keep the best prefix by edge
/// surplus.
///
/// Runs in `O((n + m) log n)` like ordinary greedy peeling.  A single vertex has surplus
/// `0`, so the returned surplus is never negative.
pub fn greedy_quasi_clique(g: &SignedGraph, alpha: Weight) -> QuasiCliqueResult {
    let n = g.num_vertices();
    if n == 0 {
        return QuasiCliqueResult {
            subset: Vec::new(),
            edge_surplus: 0.0,
            total_edge_weight: 0.0,
            alpha,
        };
    }

    let degrees: Vec<Weight> = (0..n).map(|v| g.weighted_degree(v as VertexId)).collect();
    // Total *edge* weight of the current prefix (each edge once): half the degree sum.
    let mut total_edge_weight: Weight = degrees.iter().sum::<Weight>() / 2.0;
    let mut queue = DegreeHeap::from_degrees(&degrees);
    let mut alive_count = n;

    let mut best_size = n;
    let mut best_surplus = edge_surplus(total_edge_weight, n, alpha);
    let mut removal_order: Vec<VertexId> = Vec::with_capacity(n);

    while alive_count > 1 {
        let (v, degree) = queue
            .pop_min()
            .expect("queue holds every vertex that is still alive");
        alive_count -= 1;
        removal_order.push(v);
        total_edge_weight -= degree;
        for e in g.neighbors(v) {
            queue.subtract(e.neighbor, e.weight);
        }
        let surplus = edge_surplus(total_edge_weight, alive_count, alpha);
        if surplus > best_surplus {
            best_surplus = surplus;
            best_size = alive_count;
        }
    }

    // Reconstruct the best prefix: all vertices except the first `n - best_size` removed.
    let mut subset: Vec<VertexId> = (0..n as VertexId).collect();
    let removed: VertexSubset = VertexSubset::from_slice(n, &removal_order[..n - best_size]);
    subset.retain(|&v| !removed.contains(v));
    QuasiCliqueResult::for_subset(g, subset, alpha)
}

/// `LocalSearchOQC`: hill-climb the edge surplus from a seed subset by repeatedly adding
/// the best outside vertex or dropping the worst inside vertex until no single move
/// improves the objective (or `max_passes` full passes were made).
///
/// The returned subset never has a smaller edge surplus than the seed.
pub fn local_search_quasi_clique(
    g: &SignedGraph,
    alpha: Weight,
    seed: &[VertexId],
    max_passes: usize,
) -> QuasiCliqueResult {
    let n = g.num_vertices();
    let mut members = VertexSubset::from_slice(n, seed);
    if members.is_empty() && n > 0 {
        // An empty seed would never grow (adding to an empty set changes surplus by 0),
        // so seed with the heaviest edge instead.
        if let Some((u, v, _)) = g.max_weight_edge() {
            members.insert(u);
            members.insert(v);
        }
    }

    for _ in 0..max_passes {
        let mut improved = false;

        // Addition pass: adding v changes the surplus by deg_S(v) − α·|S|.
        for v in 0..n as VertexId {
            if members.contains(v) {
                continue;
            }
            let gain = g.weighted_degree_in(v, &members) - alpha * members.len() as Weight;
            if gain > 1e-12 {
                members.insert(v);
                improved = true;
            }
        }

        // Removal pass: removing v changes the surplus by α·(|S|−1) − deg_S(v).
        for v in members.to_sorted_vec() {
            if members.len() <= 1 {
                break;
            }
            let gain = alpha * (members.len() as Weight - 1.0) - g.weighted_degree_in(v, &members);
            if gain > 1e-12 {
                members.remove(v);
                improved = true;
            }
        }

        if !improved {
            break;
        }
    }

    QuasiCliqueResult::for_subset(g, members.into_sorted_vec(), alpha)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcs_graph::GraphBuilder;

    /// A 5-clique (unit weights) with a sparse tail attached.
    fn clique_with_tail() -> SignedGraph {
        let mut b = GraphBuilder::new(9);
        for u in 0..5u32 {
            for v in (u + 1)..5u32 {
                b.add_edge(u, v, 1.0);
            }
        }
        b.add_edge(4, 5, 1.0);
        b.add_edge(5, 6, 1.0);
        b.add_edge(6, 7, 1.0);
        b.add_edge(7, 8, 1.0);
        b.build()
    }

    #[test]
    fn surplus_arithmetic() {
        assert_eq!(pair_count(0), 0.0);
        assert_eq!(pair_count(1), 0.0);
        assert_eq!(pair_count(4), 6.0);
        assert_eq!(edge_surplus(10.0, 4, 0.5), 7.0);
    }

    #[test]
    fn greedy_extracts_the_planted_clique() {
        let g = clique_with_tail();
        let result = greedy_quasi_clique(&g, 1.0 / 3.0);
        assert_eq!(result.subset, vec![0, 1, 2, 3, 4]);
        // 10 edges − (1/3)·10 pairs.
        assert!((result.edge_surplus - (10.0 - 10.0 / 3.0)).abs() < 1e-9);
        assert!((result.clique_ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn alpha_controls_the_size() {
        let g = clique_with_tail();
        // With a tiny α the whole (connected) graph has the best surplus…
        let loose = greedy_quasi_clique(&g, 0.01);
        // …with a large α only the densest core survives.
        let strict = greedy_quasi_clique(&g, 0.9);
        assert!(loose.subset.len() >= strict.subset.len());
        assert!(strict.subset.len() >= 2);
        assert!(strict.clique_ratio() > 0.8);
    }

    #[test]
    fn empty_and_single_vertex_graphs() {
        let empty = SignedGraph::empty(0);
        let r = greedy_quasi_clique(&empty, 0.5);
        assert!(r.subset.is_empty());
        assert_eq!(r.edge_surplus, 0.0);

        let single = SignedGraph::empty(1);
        let r = greedy_quasi_clique(&single, 0.5);
        assert_eq!(r.subset.len(), 1);
        assert_eq!(r.edge_surplus, 0.0);
    }

    #[test]
    fn greedy_never_returns_negative_surplus() {
        // A graph with only a negative edge: the best subset is a single vertex.
        let g = GraphBuilder::from_edges(3, vec![(0, 1, -5.0)]);
        let r = greedy_quasi_clique(&g, 0.5);
        assert!(r.edge_surplus >= 0.0);
        assert!(r.subset.len() <= 1 || r.total_edge_weight >= 0.0);
    }

    #[test]
    fn local_search_improves_a_poor_seed() {
        let g = clique_with_tail();
        // Seed with a tail vertex only; local search should grow into the clique region
        // and never end up worse than the seed.
        let seed = vec![7u32];
        let seed_surplus = edge_surplus(g.total_edge_weight(&seed), seed.len(), 1.0 / 3.0);
        let result = local_search_quasi_clique(&g, 1.0 / 3.0, &seed, 50);
        assert!(result.edge_surplus >= seed_surplus - 1e-9);
        assert!(result.subset.len() >= 2);
    }

    #[test]
    fn local_search_with_empty_seed_uses_heaviest_edge() {
        let g = clique_with_tail();
        let result = local_search_quasi_clique(&g, 1.0 / 3.0, &[], 50);
        assert!(result.subset.len() >= 2);
        assert!(result.edge_surplus > 0.0);
    }

    #[test]
    fn local_search_refines_the_greedy_answer_on_signed_graphs() {
        // Difference-graph style input: a positive near-clique plus negative edges.
        let mut b = GraphBuilder::new(8);
        for u in 0..4u32 {
            for v in (u + 1)..4u32 {
                if (u, v) != (2, 3) {
                    b.add_edge(u, v, 2.0);
                }
            }
        }
        b.add_edge(3, 4, -3.0);
        b.add_edge(4, 5, 1.0);
        let g = b.build();

        let greedy = greedy_quasi_clique(&g, 0.5);
        let refined = local_search_quasi_clique(&g, 0.5, &greedy.subset, 50);
        assert!(refined.edge_surplus >= greedy.edge_surplus - 1e-9);
        // Vertices incident only to the negative edge must not be selected.
        assert!(!refined.subset.contains(&4) || refined.total_edge_weight > 0.0);
    }
}
