//! Property-based tests for the library extensions that go beyond the paper's core
//! algorithms: weight schemes, top-k mining, streaming maintenance, quasi-clique
//! extraction, parallel sweeps and labelled IO.

use std::collections::BTreeMap;

use dcs::core::streaming::{StreamingConfig, StreamingDcs};
use dcs::core::{
    clamp_weights, difference_graph, difference_graph_with, scaled_difference_graph,
    top_k_affinity, top_k_average_degree, DensityMeasure, DiscreteRule, WeightScheme,
};
use dcs::densest::greedy_quasi_clique;
use dcs::graph::labels::LabeledGraphBuilder;
use dcs::graph::labels::{read_labeled_edge_list, write_labeled_edge_list, VertexLabels};
use dcs::prelude::*;
use proptest::prelude::*;

/// Offsets, neighbours and weight bits of a graph's CSR.
fn csr_bits(g: &SignedGraph) -> (Vec<usize>, Vec<VertexId>, Vec<u64>) {
    let (offsets, neighbors, weights) = g.clone().into_raw_csr();
    (
        offsets,
        neighbors,
        weights.into_iter().map(f64::to_bits).collect(),
    )
}

/// Strategy: a random signed graph over at most 16 vertices.
fn arb_signed_graph() -> impl Strategy<Value = SignedGraph> {
    (4usize..16).prop_flat_map(|n| {
        let edge = (0..n as u32, 0..n as u32, -4.0f64..4.0f64);
        (Just(n), proptest::collection::vec(edge, 0..60)).prop_map(|(n, edges)| {
            let mut b = GraphBuilder::new(n);
            for (u, v, w) in edges {
                if u != v && w.abs() > 0.05 {
                    b.add_edge(u, v, w);
                }
            }
            b.build()
        })
    })
}

/// Strategy: a random pair of non-negatively weighted graphs over the same vertex set.
fn arb_graph_pair() -> impl Strategy<Value = (SignedGraph, SignedGraph)> {
    (4usize..14).prop_flat_map(|n| {
        let edge = (0..n as u32, 0..n as u32, 0.1f64..8.0f64);
        (
            Just(n),
            proptest::collection::vec(edge.clone(), 0..40),
            proptest::collection::vec(edge, 0..40),
        )
            .prop_map(|(n, e1, e2)| {
                let build = |edges: Vec<(u32, u32, f64)>| {
                    let mut b = GraphBuilder::new(n);
                    for (u, v, w) in edges {
                        if u != v {
                            b.add_edge(u, v, w);
                        }
                    }
                    b.build()
                };
                (build(e1), build(e2))
            })
    })
}

/// Strategy: a random list of labelled edges drawn from a small label alphabet.
fn arb_labeled_edges() -> impl Strategy<Value = Vec<(String, String, f64)>> {
    let label = prop::sample::select(vec!["ada", "bob", "cat", "dan", "eve", "fay", "gil", "hal"]);
    proptest::collection::vec((label.clone(), label, -5.0f64..5.0), 1..30).prop_map(|edges| {
        edges
            .into_iter()
            .filter(|(u, v, w)| u != v && w.abs() > 0.05)
            .map(|(u, v, w)| (u.to_string(), v.to_string(), w))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // ----------------------------------------------------------------- weight schemes

    /// The Discrete scheme only emits weights in {−2, −1, +1, +2} and never creates an
    /// edge where the raw difference graph has none.
    #[test]
    fn discrete_scheme_bounds_weights((g1, g2) in arb_graph_pair()) {
        let raw = difference_graph(&g2, &g1).unwrap();
        let discrete = difference_graph_with(
            &g2, &g1, WeightScheme::Discrete(DiscreteRule::default())).unwrap();
        for (u, v, w) in discrete.edges() {
            prop_assert!([-2.0, -1.0, 1.0, 2.0].contains(&w), "unexpected weight {w}");
            prop_assert!(raw.edge_weight(u, v).is_some());
        }
    }

    /// α = 0 removes G1's influence entirely; α = 1 matches the plain difference; larger
    /// α never increases any edge weight.
    #[test]
    fn scaled_scheme_is_monotone_in_alpha((g1, g2) in arb_graph_pair()) {
        let alpha0 = scaled_difference_graph(&g2, &g1, 0.0).unwrap();
        let alpha1 = scaled_difference_graph(&g2, &g1, 1.0).unwrap();
        let alpha2 = scaled_difference_graph(&g2, &g1, 2.0).unwrap();
        let plain = difference_graph(&g2, &g1).unwrap();
        for (u, v, w) in g2.edges() {
            prop_assert!((alpha0.edge_weight(u, v).unwrap_or(0.0) - w).abs() < 1e-9);
            let w1 = alpha1.edge_weight(u, v).unwrap_or(0.0);
            prop_assert!((w1 - plain.edge_weight(u, v).unwrap_or(0.0)).abs() < 1e-9);
            prop_assert!(alpha2.edge_weight(u, v).unwrap_or(0.0) <= w1 + 1e-9);
        }
    }

    /// Clamping bounds every weight and is idempotent.
    #[test]
    fn clamping_is_idempotent(gd in arb_signed_graph(), max_abs in 0.5f64..3.0) {
        let clamped = clamp_weights(&gd, max_abs);
        for (_, _, w) in clamped.edges() {
            prop_assert!(w.abs() <= max_abs + 1e-12);
        }
        let twice = clamp_weights(&clamped, max_abs);
        prop_assert_eq!(clamped, twice);
    }

    // ----------------------------------------------------------------------- top-k

    /// Top-k subgraphs are pairwise vertex-disjoint, reported in non-increasing order of
    /// contrast, and each one has positive contrast.
    #[test]
    fn top_k_mining_invariants(gd in arb_signed_graph(), k in 1usize..5) {
        let by_degree = top_k_average_degree(&gd, k);
        prop_assert!(by_degree.len() <= k);
        for (i, sol) in by_degree.iter().enumerate() {
            prop_assert!(sol.density_difference > 0.0);
            for later in &by_degree[i + 1..] {
                prop_assert!(sol.density_difference >= later.density_difference - 1e-9);
                prop_assert!(sol.subset.iter().all(|v| !later.subset.contains(v)));
            }
        }

        let by_affinity = top_k_affinity(&gd, k);
        prop_assert!(by_affinity.len() <= k);
        for (i, sol) in by_affinity.iter().enumerate() {
            prop_assert!(sol.affinity_difference > 0.0);
            prop_assert!(gd.is_positive_clique(&sol.support()));
            for later in &by_affinity[i + 1..] {
                prop_assert!(sol.support().iter().all(|v| !later.support().contains(v)));
            }
        }
    }

    // -------------------------------------------------------------------- streaming

    /// After an arbitrary observe sequence — repeated touches of the same edge,
    /// deletions via clamping to zero, no-op updates — the incremental difference
    /// snapshot is *identical* (same CSR content) to a from-scratch rebuild, and an
    /// unchanged version returns the same pointer-equal Arc.
    #[test]
    fn incremental_snapshot_equals_scratch_rebuild(
        (g1, _) in arb_graph_pair(),
        updates in proptest::collection::vec((0u32..16, 0u32..16, -5.0f64..5.0), 0..80),
    ) {
        let config = StreamingConfig {
            remine_every: 0,
            alert_threshold: 0.0,
            measure: DensityMeasure::AverageDegree,
        };
        let n = g1.num_vertices() as u32;
        let mut monitor = StreamingDcs::new(g1, config).unwrap();
        for (i, (u, v, delta)) in updates.into_iter().enumerate() {
            // Fold endpoints into range; keep a few out-of-range/self-loop updates
            // as-is to exercise the ignored path.
            let (u, v) = if i % 7 == 0 { (u, v) } else { (u % n, v % n) };
            monitor.observe(u, v, delta);
            if i % 5 == 0 {
                prop_assert_eq!(
                    &*monitor.difference_snapshot(),
                    &monitor.rebuild_difference_snapshot()
                );
            }
        }
        let snapshot = monitor.difference_snapshot();
        prop_assert_eq!(&*snapshot, &monitor.rebuild_difference_snapshot());
        // Unchanged version: pointer-equal snapshot, no rebuild.
        let again = monitor.difference_snapshot();
        prop_assert!(std::sync::Arc::ptr_eq(&snapshot, &again));
    }

    /// Random observes — clamps to zero, sums that overflow, exact cancellations,
    /// self-loops and out-of-range ids — against a `BTreeMap` model folded by
    /// `observe`'s rule: `observed_edge_count()` after every observe, and every
    /// `observed_graph()` snapshot taken at random points between observes (so
    /// merges of many changes, of one and of none), match the model bit for bit.
    #[test]
    fn observed_snapshots_follow_the_observe_rule(
        (g1, g2) in arb_graph_pair(),
        start_observed in any::<bool>(),
        ops in proptest::collection::vec(
            (0u32..18, 0u32..18, 0u32..8, -6.0f64..6.0, 0u32..3),
            0..120,
        ),
    ) {
        let config = StreamingConfig {
            remine_every: 0,
            alert_threshold: 0.0,
            measure: DensityMeasure::AverageDegree,
        };
        let n = g1.num_vertices() as u32;
        let mut model: BTreeMap<(u32, u32), f64> = BTreeMap::new();
        let mut monitor = if start_observed {
            model.extend(g2.edges().map(|(u, v, w)| ((u, v), w)));
            StreamingDcs::with_initial_observation(g1, &g2, config).unwrap()
        } else {
            StreamingDcs::new(g1, config).unwrap()
        };
        let mut last = monitor.observed_graph();
        let mut changed = false;
        for (a, b, kind, w, snapshot) in ops {
            // Kind 7 keeps the raw ids, most of which fall past `n`.
            let (u, v) = if kind == 7 { (a, b) } else { (a % n, b % n) };
            let key = (u.min(v), u.max(v));
            let old = model.get(&key).copied().unwrap_or(0.0);
            let delta = match kind {
                0 => f64::MAX,
                1 => -old,
                2 => -1e9,
                _ => w,
            };
            // The rule: ignore self-loops and out-of-range ids, clamp at zero,
            // and change nothing when the weight stays or stops being finite.
            let new = (old + delta).max(0.0);
            let applies = u != v && u < n && v < n && new != old && new.is_finite();
            if applies {
                if new == 0.0 {
                    model.remove(&key);
                } else {
                    model.insert(key, new);
                }
            }
            let version = monitor.version();
            monitor.observe(u, v, delta);
            prop_assert_eq!(monitor.version(), version + u64::from(applies));
            prop_assert_eq!(monitor.observed_edge_count(), model.len());
            changed |= applies;
            if snapshot == 0 {
                // `G2` holds a merged base and the changes since: the `G_D`
                // reference walks both.
                prop_assert_eq!(
                    &*monitor.difference_snapshot(),
                    &monitor.rebuild_difference_snapshot()
                );
                let observed = monitor.observed_graph();
                prop_assert_eq!(std::sync::Arc::ptr_eq(&observed, &last), !changed);
                let edges: Vec<_> =
                    observed.edges().map(|(u, v, w)| (u, v, w.to_bits())).collect();
                let expected: Vec<_> =
                    model.iter().map(|(&(u, v), &w)| (u, v, w.to_bits())).collect();
                prop_assert_eq!(edges, expected);
                let built = GraphBuilder::from_edges(
                    n as usize,
                    model.iter().map(|(&(u, v), &w)| (u, v, w)),
                );
                prop_assert_eq!(csr_bits(&observed), csr_bits(&built));
                prop_assert_eq!(observed.num_negative_edges(), 0);
                last = observed;
                changed = false;
            }
        }
    }

    /// Replaying G2's edges through the streaming monitor reproduces exactly the batch
    /// difference graph, and the monitor's mined contrast matches batch mining.
    #[test]
    fn streaming_replay_matches_batch((g1, g2) in arb_graph_pair()) {
        let config = StreamingConfig {
            remine_every: 0,
            alert_threshold: 0.0,
            measure: DensityMeasure::AverageDegree,
        };
        let mut monitor = StreamingDcs::new(g1.clone(), config).unwrap();
        for (u, v, w) in g2.edges() {
            monitor.observe(u, v, w);
        }
        let streamed = monitor.difference_snapshot();
        let batch = difference_graph(&g2, &g1).unwrap();
        prop_assert_eq!(streamed.num_edges(), batch.num_edges());
        for (u, v, w) in batch.edges() {
            prop_assert!((streamed.edge_weight(u, v).unwrap() - w).abs() < 1e-9);
        }

        let alert = monitor.mine_now();
        let batch_solution = DcsGreedy::default().solve(&batch);
        prop_assert!((alert.density_difference - batch_solution.density_difference).abs() < 1e-9);
    }

    // ----------------------------------------------------------------- quasi-cliques

    /// The greedy quasi-clique surplus is never negative and matches a recomputation
    /// from its subset.
    #[test]
    fn quasi_clique_invariants(gd in arb_signed_graph(), alpha in 0.05f64..1.0) {
        let greedy = greedy_quasi_clique(&gd, alpha);
        prop_assert!(greedy.edge_surplus >= -1e-9);
        let pairs = greedy.subset.len() as f64 * (greedy.subset.len() as f64 - 1.0) / 2.0;
        let recomputed = gd.total_edge_weight(&greedy.subset) - alpha * pairs;
        prop_assert!((greedy.edge_surplus - recomputed).abs() < 1e-9);
    }

    // ------------------------------------------------------------------- parallelism

    /// NewSEA under a 4-thread budget returns exactly the sequential objective.
    #[test]
    fn parallel_newsea_equals_sequential(gd in arb_signed_graph()) {
        let sequential = NewSea::default().solve(&gd);
        let cx = SolveContext::unbounded().with_threads(4);
        let (parallel, _) = NewSea::default().solve_bounded(&gd, &[], &cx);
        prop_assert!((sequential.affinity_difference - parallel.affinity_difference).abs() < 1e-9);
    }

    // ------------------------------------------------------------------- labelled IO

    /// Building a labelled graph and writing/re-reading it preserves every edge weight
    /// (modulo the duplicate-merging that happens at build time).
    #[test]
    fn labeled_io_round_trip(edges in arb_labeled_edges()) {
        let mut builder = LabeledGraphBuilder::new();
        for (u, v, w) in &edges {
            builder.add_edge(u, v, *w);
        }
        let (graph, labels) = builder.build();

        let mut buffer = Vec::new();
        write_labeled_edge_list(&graph, &labels, &mut buffer).unwrap();
        let mut relabels = VertexLabels::new();
        let reread = read_labeled_edge_list(buffer.as_slice(), &mut relabels).unwrap();

        prop_assert_eq!(reread.num_edges(), graph.num_edges());
        for (u, v, w) in graph.edges() {
            let lu = labels.label_of(u).unwrap();
            let lv = labels.label_of(v).unwrap();
            let ru = relabels.id_of(lu).unwrap();
            let rv = relabels.id_of(lv).unwrap();
            prop_assert!((reread.edge_weight(ru, rv).unwrap() - w).abs() < 1e-9);
        }
    }
}

/// Non-property checks of the extension seams that do not need random inputs.
#[test]
fn streaming_rejects_mismatched_snapshot() {
    let baseline = GraphBuilder::from_edges(4, vec![(0, 1, 1.0)]);
    let wrong_size = SignedGraph::empty(6);
    assert!(StreamingDcs::with_initial_observation(
        baseline,
        &wrong_size,
        StreamingConfig::default()
    )
    .is_err());
}

#[test]
fn top_k_with_zero_k_is_empty() {
    let gd = GraphBuilder::from_edges(4, vec![(0, 1, 2.0), (2, 3, 1.0)]);
    assert!(top_k_average_degree(&gd, 0).is_empty());
    assert!(top_k_affinity(&gd, 0).is_empty());
}
