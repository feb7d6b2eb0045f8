//! Property tests of the graph-pack pipeline ([`dcs_graph::pack`]): writer
//! against reader, on arbitrary graphs and on a generated pair.
//!
//! Three contracts, over arbitrary graphs and arbitrary corruption:
//!
//! 1. **Roundtrip bit-identity** — write → open → decode reproduces the
//!    graph exactly ([`PartialEq`] on `SignedGraph` compares the raw CSR
//!    arrays, so weights must survive bit-for-bit).
//! 2. **Solver equivalence** — mining a pack-backed pair gives the same
//!    solution as mining the owned originals, for both density measures.
//!    (CI runs this suite under `DCS_SOLVER_THREADS=1` and `=4`.)
//! 3. **Corruption safety** — flipping any single bit, or truncating at any
//!    point, never panics and never yields a *silently different* graph:
//!    either some stage reports an error, or (the flip landed in inert
//!    padding) the decoded graph equals the original.  `verify()` passing
//!    always implies the decoded graph is the written one.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use dcs_datasets::LargeConfig;
use dcs_graph::{GraphBuilder, GraphPack, PackWriter, SignedGraph};
use proptest::prelude::*;

static CASE: AtomicUsize = AtomicUsize::new(0);

fn temp_pack(tag: &str) -> PathBuf {
    let case = CASE.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "dcs_pack_prop_{tag}_{}_{case}.pack",
        std::process::id()
    ))
}

/// An arbitrary valid signed graph: up to `max_n` vertices, signed weights,
/// duplicate edges allowed (the builder merges them by summing).
fn arb_graph(max_n: usize, max_edges: usize) -> impl Strategy<Value = SignedGraph> {
    (2..max_n + 1).prop_flat_map(move |n| {
        let edge = (0..n, 1..n, -10.0f64..10.0).prop_map(move |(a, step, w)| {
            let b = (a + step) % n;
            let w = if w == 0.0 { 1.0 } else { w };
            (a.min(b) as u32, a.max(b) as u32, w)
        });
        proptest::collection::vec(edge, 0..max_edges + 1).prop_map(move |edges| {
            let mut b = GraphBuilder::new(n);
            b.add_edges(edges);
            b.build()
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn roundtrip_is_bit_identical(g in arb_graph(40, 120)) {
        let path = temp_pack("roundtrip");
        PackWriter::write_graph(&g, &path).unwrap();
        let pack = GraphPack::open(&path).unwrap();
        prop_assert_eq!(pack.vertices(), g.num_vertices());
        prop_assert_eq!(pack.edges(), g.num_edges());
        pack.verify().unwrap();
        let decoded = pack.to_graph().unwrap();
        prop_assert_eq!(&decoded, &g);
        // The buffered (read-into-memory) path decodes identically.
        let buffered = GraphPack::open_buffered(&path).unwrap().to_graph().unwrap();
        prop_assert_eq!(&buffered, &g);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn single_bit_flips_are_never_silent(
        g in arb_graph(16, 40),
        flip_pos in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let path = temp_pack("flip");
        PackWriter::write_graph(&g, &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let index = ((flip_pos * bytes.len() as f64) as usize).min(bytes.len() - 1);
        bytes[index] ^= 1 << bit;
        std::fs::write(&path, &bytes).unwrap();

        // No stage may panic; a fully-verified pack must decode to the
        // original graph (only flips in alignment padding can get that far).
        if let Ok(pack) = GraphPack::open(&path) {
            let decoded = pack.to_graph();
            if pack.verify().is_ok() {
                prop_assert_eq!(decoded.unwrap(), g);
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncation_is_always_rejected(
        g in arb_graph(16, 40),
        cut in 0.0f64..1.0,
    ) {
        let path = temp_pack("trunc");
        PackWriter::write_graph(&g, &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let keep = (cut * bytes.len() as f64) as usize;
        prop_assume!(keep < bytes.len());
        bytes.truncate(keep);
        std::fs::write(&path, &bytes).unwrap();
        // The section table runs to the end of the file, so every strict
        // truncation is caught at open time.
        prop_assert!(GraphPack::open(&path).is_err());
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn pack_backed_solves_match_owned_solves() {
    let config = LargeConfig {
        vertices: 300,
        edges: 1_500,
        group_sizes: vec![10, 7],
        ..LargeConfig::tiny()
    };
    let pair = dcs_datasets::large::generate(&config);

    let p1 = temp_pack("solve_g1");
    let p2 = temp_pack("solve_g2");
    PackWriter::write_graph(&pair.g1, &p1).unwrap();
    PackWriter::write_graph(&pair.g2, &p2).unwrap();
    let g1 = GraphPack::open(&p1).unwrap().to_graph().unwrap();
    let g2 = GraphPack::open(&p2).unwrap().to_graph().unwrap();
    assert!(g1.is_pack_backed() || g2.is_pack_backed() || cfg!(not(target_pointer_width = "64")));

    let (owned_ad, _) = dcs_core::mine_average_degree_dcs(&pair.g2, &pair.g1).unwrap();
    let (pack_ad, _) = dcs_core::mine_average_degree_dcs(&g2, &g1).unwrap();
    assert_eq!(pack_ad.subset, owned_ad.subset);
    assert_eq!(pack_ad.density_difference, owned_ad.density_difference);

    let (owned_ga, _) = dcs_core::mine_affinity_dcs(&pair.g2, &pair.g1).unwrap();
    let (pack_ga, _) = dcs_core::mine_affinity_dcs(&g2, &g1).unwrap();
    assert_eq!(pack_ga.support(), owned_ga.support());
    assert_eq!(pack_ga.affinity_difference, owned_ga.affinity_difference);

    std::fs::remove_file(&p1).ok();
    std::fs::remove_file(&p2).ok();
}
