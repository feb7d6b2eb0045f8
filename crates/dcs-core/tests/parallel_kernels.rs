//! Property-based test of the parallel NewSEA µ_u sweep against its sequential
//! path — the contract the parallel solver rests on is **bit-identity**, not
//! approximate agreement: [`smart_initialization_order_in`] produces the same
//! `(vertex, µ_u)` order for every thread count, with the core/order/scratch
//! buffers reused across thread counts (the risky part: stale per-vertex maxima
//! leaking between sweeps).

use dcs_core::dcsga::smart_initialization_order_in;
use dcs_graph::{CoreScratch, GraphBuilder, GraphView, SignedGraph, VertexId, Weight};
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

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
