//! Property-based test of the parallel NewSEA µ_u sweep against its sequential
//! path — the contract the parallel solver rests on is **bit-identity**, not
//! approximate agreement: [`smart_initialization_order_in`] produces the same
//! `(vertex, µ_u)` order for every thread count, with the core/order/scratch
//! buffers reused across thread counts (the risky part: stale per-vertex maxima
//! leaking between sweeps).

use std::collections::BTreeMap;

use dcs_core::dcsga::smart_initialization_order_in;
use dcs_graph::{
    core_decomposition, CoreScratch, CsrBuffers, GraphBuilder, GraphView, SignedGraph, VertexId,
    VertexMask, Weight,
};
use proptest::prelude::*;

/// Strategy: a random signed graph over `n <= 40` vertices.
fn arb_graph() -> impl Strategy<Value = SignedGraph> {
    (4usize..40).prop_flat_map(|n| {
        let edge = (0..n as u32, 0..n as u32, -6.0f64..6.0);
        (Just(n), proptest::collection::vec(edge, 0..140)).prop_map(|(n, edges)| {
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

/// Strategy: a signed graph whose weights are drawn from a few values, so µ_u
/// ties are common, including two subnormal weights (a µ_u that rounds to 0 or
/// stays subnormal) and one near `f64::MAX` (`τ_u·w_u` overflows to `+inf` once
/// `τ_u ≥ 2`), each pair drawn at most once; plus a random vertex mask.
fn arb_bound_case() -> impl Strategy<Value = (SignedGraph, Vec<bool>)> {
    (4usize..40).prop_flat_map(|n| {
        let weight = prop::sample::select(vec![1.0, 2.0, 0.5, 5e-324, 1e-310, 1.5e308, -1.0, -3.0]);
        let edge = (0..n as u32, 0..n as u32, weight);
        (
            Just(n),
            proptest::collection::vec(edge, 0..140),
            proptest::collection::vec(any::<bool>(), n),
        )
            .prop_map(|(n, edges, dead)| {
                let mut unique = BTreeMap::new();
                for (u, v, w) in edges {
                    if u != v {
                        unique.entry((u.min(v), u.max(v))).or_insert(w);
                    }
                }
                let edges = unique.into_iter().map(|((u, v), w)| (u, v, w));
                (GraphBuilder::from_edges(n, edges), dead)
            })
    })
}

/// The sequential body of `smart_initialization_order_in` before it read raw
/// rows, kept as its oracle: maximum incident weights credited over
/// `edges()`, `w_u` and the degree test over the filtered neighbour iterator,
/// and the comparator sort.  Core numbers come from the allocating
/// decomposition of the materialised view (they do not depend on the peel's
/// order).
fn iterator_bound_order(view: GraphView<'_>) -> Vec<(VertexId, Weight)> {
    let n = view.num_vertices();
    let mut max_incident = vec![0.0; n];
    for (u, v, w) in view.edges() {
        if w > max_incident[u as usize] {
            max_incident[u as usize] = w;
        }
        if w > max_incident[v as usize] {
            max_incident[v as usize] = w;
        }
    }
    let core = core_decomposition(&view.materialize()).core;
    let mut order = Vec::new();
    for u in view.vertices() {
        if view.neighbors(u).count() == 0 {
            continue;
        }
        let mut w_u = max_incident[u as usize];
        for e in view.neighbors(u) {
            w_u = w_u.max(max_incident[e.neighbor as usize]);
        }
        let tau = core[u as usize] as Weight;
        order.push((u, tau * w_u / (tau + 1.0)));
    }
    order.sort_unstable_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.0.cmp(&b.0))
    });
    order
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `smart_initialization_order_in` at 1 and 4 threads equals the iterator
    /// body it replaced — vertex order and µ_u bits — and leaves the view's
    /// core numbers in its scratch, on sign-filtered views of `G_D`, on the
    /// compact `G_{D+}` as a full view, and under the caller's mask over it
    /// (the raw-row path), full and masked.  One set of scratch buffers serves
    /// every case.
    #[test]
    fn bound_order_matches_the_iterator_body((g, dead) in arb_bound_case()) {
        let n = g.num_vertices();
        let mut mask = VertexMask::full(n);
        mask.remove_all(&(0..n as VertexId).filter(|&v| dead[v as usize]).collect::<Vec<_>>());
        let (mut order, mut max_incident, mut cores) = (Vec::new(), Vec::new(), CoreScratch::default());
        let mut buffers = CsrBuffers::default();
        for base in [GraphView::full(&g), GraphView::masked(&g, &mask)] {
            let compact = base.positive_part_into(std::mem::take(&mut buffers));
            for view in [base.positive_part(), GraphView::full(&compact), base.mask_over(&compact)] {
                let expected = iterator_bound_order(view);
                let expected_cores = core_decomposition(&view.materialize()).core;
                for threads in [1usize, 4] {
                    smart_initialization_order_in(
                        view, &mut order, &mut max_incident, &mut cores, threads,
                    );
                    let bits = |o: &[(VertexId, Weight)]| -> Vec<(VertexId, u64)> {
                        o.iter().map(|&(u, mu)| (u, mu.to_bits())).collect()
                    };
                    prop_assert!(
                        bits(&order) == bits(&expected),
                        "threads = {}: {:?} vs {:?}", threads, order, expected
                    );
                    for v in view.vertices() {
                        prop_assert_eq!(cores.core[v as usize], expected_cores[v as usize]);
                    }
                }
            }
            buffers = compact.into_raw_csr();
        }
    }

    /// The NewSEA smart-initialisation µ_u sweep: identical `(vertex, µ_u)` pairs in
    /// identical order, with all four scratch buffers reused across thread counts.
    #[test]
    fn smart_init_order_par_is_bit_identical(g in arb_graph()) {
        let view = GraphView::full(&g).positive_part();

        let mut seq_order: Vec<(VertexId, Weight)> = Vec::new();
        let mut seq_incident: Vec<Weight> = Vec::new();
        let mut seq_cores = CoreScratch::default();
        smart_initialization_order_in(view, &mut seq_order, &mut seq_incident, &mut seq_cores, 1);

        let mut par_order: Vec<(VertexId, Weight)> = Vec::new();
        let mut par_incident: Vec<Weight> = Vec::new();
        let mut par_cores = CoreScratch::default();
        for threads in [1usize, 2, 4] {
            smart_initialization_order_in(
                view, &mut par_order, &mut par_incident, &mut par_cores, threads,
            );
            assert_eq!(seq_order.len(), par_order.len(), "threads={}", threads);
            for (i, (s, p)) in seq_order.iter().zip(&par_order).enumerate() {
                assert_eq!(s.0, p.0, "threads={} rank={}", threads, i);
                assert_eq!(
                    s.1.to_bits(), p.1.to_bits(),
                    "threads={} rank={} vertex={}: {} vs {}", threads, i, s.0, s.1, p.1
                );
            }
            assert_eq!(&seq_incident, &par_incident, "threads={}", threads);
        }
    }
}
