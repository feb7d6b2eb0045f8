//! Property-based tests of the classical densest-subgraph substrate.

use dcs_densest::charikar::greedy_peeling;
use dcs_densest::replicator::{kkt_gap_on_support, replicator_dynamics, ReplicatorStop};
use dcs_densest::{Embedding, OriginalSea};
use dcs_graph::{GraphBuilder, SignedGraph, VertexId, Weight};
use proptest::prelude::*;

/// Random non-negatively weighted graph on up to 14 vertices.
fn arb_positive_graph() -> impl Strategy<Value = SignedGraph> {
    (3usize..14).prop_flat_map(|n| {
        let edge = (0..n as u32, 0..n as u32, 0.1f64..6.0f64);
        (Just(n), proptest::collection::vec(edge, 0..60)).prop_map(|(n, edges)| {
            let mut b = GraphBuilder::new(n);
            for (u, v, w) in edges {
                if u != v {
                    b.add_edge(u, v, w);
                }
            }
            b.build()
        })
    })
}

/// Random signed graph on up to 14 vertices.
fn arb_signed_graph() -> impl Strategy<Value = SignedGraph> {
    (3usize..14).prop_flat_map(|n| {
        let edge = (0..n as u32, 0..n as u32, -5.0f64..5.0f64);
        (Just(n), proptest::collection::vec(edge, 0..60)).prop_map(|(n, edges)| {
            let mut b = GraphBuilder::new(n);
            for (u, v, w) in edges {
                if u != v && w != 0.0 {
                    b.add_edge(u, v, w);
                }
            }
            b.build()
        })
    })
}

/// The segment tree the paper suggests for Algorithm 1, kept as the oracle of the
/// library's degree heap: leaf `v` holds `(degree, v)`, every inner node the
/// smaller of its children's pairs (the left one on a tie, so the smaller id wins),
/// and a removed vertex `+inf`.
struct SegmentTree {
    /// Number of leaves (the vertex count padded to a power of two).
    size: usize,
    tree: Vec<(Weight, VertexId)>,
}

impl SegmentTree {
    fn new(degrees: &[Weight]) -> Self {
        let size = degrees.len().next_power_of_two().max(1);
        let mut tree = vec![(Weight::INFINITY, 0); 2 * size];
        for (v, &d) in degrees.iter().enumerate() {
            tree[size + v] = (d, v as VertexId);
        }
        for i in (1..size).rev() {
            tree[i] = Self::smaller(tree[2 * i], tree[2 * i + 1]);
        }
        SegmentTree { size, tree }
    }

    fn smaller(left: (Weight, VertexId), right: (Weight, VertexId)) -> (Weight, VertexId) {
        if left.0 <= right.0 {
            left
        } else {
            right
        }
    }

    /// Sets vertex `v`'s key to `degree` and repairs the path to the root.
    fn set(&mut self, v: VertexId, degree: Weight) {
        let mut i = self.size + v as usize;
        self.tree[i] = (degree, v);
        while i > 1 {
            i /= 2;
            self.tree[i] = Self::smaller(self.tree[2 * i], self.tree[2 * i + 1]);
        }
    }

    /// The vertex of minimum degree.
    fn min_vertex(&self) -> VertexId {
        self.tree[1].1
    }
}

/// Greedy peeling (Algorithm 1) on the [`SegmentTree`]: the best average degree
/// over the peel's prefixes, or 0 (a single vertex) if every prefix is negative.
fn segment_tree_peel(g: &SignedGraph) -> Weight {
    let n = g.num_vertices();
    if n == 0 {
        return 0.0;
    }
    let mut degree: Vec<Weight> = g.vertices().map(|v| g.weighted_degree(v)).collect();
    let mut total: Weight = degree.iter().sum();
    let mut tree = SegmentTree::new(&degree);
    let mut alive = vec![true; n];
    let mut best = total / n as Weight;
    for remaining in (1..n).rev() {
        let v = tree.min_vertex();
        alive[v as usize] = false;
        tree.set(v, Weight::INFINITY);
        for e in g.neighbors(v) {
            let u = e.neighbor as usize;
            if alive[u] {
                total -= 2.0 * e.weight;
                degree[u] -= e.weight;
                tree.set(e.neighbor, degree[u]);
            }
        }
        best = best.max(total / remaining as Weight);
    }
    best.max(0.0)
}

fn brute_force_densest(g: &SignedGraph) -> f64 {
    let n = g.num_vertices();
    let mut best = 0.0f64;
    for mask in 1u32..(1 << n) {
        let subset: Vec<u32> = (0..n as u32).filter(|&v| mask & (1 << v) != 0).collect();
        best = best.max(g.average_degree(&subset));
    }
    best
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Charikar's greedy peel is within a factor 2 of the brute-force optimum on
    /// non-negative graphs.
    #[test]
    fn charikar_within_two_of_brute_force(g in arb_positive_graph()) {
        let optimum = brute_force_densest(&g);
        let greedy = greedy_peeling(&g);
        prop_assert!(greedy.average_degree <= optimum + 1e-9);
        prop_assert!(2.0 * greedy.average_degree + 1e-9 >= optimum);
    }

    /// The library's heap peel and the paper's segment-tree peel reach the same
    /// density on signed graphs.
    #[test]
    fn peeling_structures_agree(g in arb_signed_graph()) {
        let heap = greedy_peeling(&g);
        prop_assert!((heap.average_degree - g.average_degree(&heap.subset)).abs() < 1e-9);
        prop_assert!((heap.average_degree - segment_tree_peel(&g)).abs() < 1e-9);
        prop_assert!(heap.average_degree >= 0.0);
    }

    /// Replicator dynamics never decreases the objective and ends (with the strict rule)
    /// at a local KKT point; the final objective never exceeds the Motzkin–Straus-style
    /// upper bound given by the densest subgraph (affinity ≤ max average degree).
    #[test]
    fn replicator_monotone_and_kkt(g in arb_positive_graph()) {
        if g.num_edges() == 0 {
            return Ok(());
        }
        let support: Vec<u32> = g
            .vertices()
            .filter(|&v| g.degree(v) > 0)
            .collect();
        let x0 = Embedding::uniform(&support);
        let before = x0.affinity(&g);
        let out = replicator_dynamics(&g, &x0, ReplicatorStop::KktGap { eps: 1e-8 }, 200_000);
        prop_assert!(out.objective >= before - 1e-9);
        if out.converged {
            prop_assert!(kkt_gap_on_support(&g, &out.embedding) <= 1e-6);
        }
        // xᵀAx ≤ max degree of the induced support ≤ exact densest average degree … a
        // loose sanity bound: affinity can never exceed the maximum weighted degree.
        let max_degree = g.vertices().map(|v| g.weighted_degree(v)).fold(0.0, f64::max);
        prop_assert!(out.objective <= max_degree + 1e-9);
    }

    /// The original SEA (with the strict KKT shrink rule) commits no expansion errors and
    /// never returns a worse objective than its best single-edge initialisation bound.
    #[test]
    fn original_sea_with_strict_shrink_is_error_free(g in arb_positive_graph()) {
        if g.num_edges() == 0 {
            return Ok(());
        }
        let sea = OriginalSea::new(dcs_densest::SeaConfig {
            shrink_stop: ReplicatorStop::KktGap { eps: 1e-9 },
            shrink_max_iters: 100_000,
            ..dcs_densest::SeaConfig::default()
        });
        let result = sea.run_all_vertices(&g, None, false);
        prop_assert_eq!(result.expansion_errors, 0);
        let wmax = g.max_edge_weight().unwrap_or(0.0);
        prop_assert!(result.best_objective + 1e-6 >= wmax / 2.0);
        // And the embedding really attains the reported objective.
        prop_assert!((result.best.affinity(&g) - result.best_objective).abs() < 1e-9);
    }

    /// Embeddings stay on the simplex through the SEA pipeline.
    #[test]
    fn sea_outputs_stay_on_the_simplex(g in arb_positive_graph(), seed in 0u32..14) {
        if g.num_edges() == 0 || seed as usize >= g.num_vertices() || g.degree(seed) == 0 {
            return Ok(());
        }
        let run = OriginalSea::default().run_from(&g, Embedding::singleton(seed));
        prop_assert!((run.embedding.mass() - 1.0).abs() < 1e-6);
        for (_, x) in run.embedding.iter() {
            prop_assert!(x > 0.0 && x <= 1.0 + 1e-9);
        }
    }
}
