//! Million-edge benchmark pairs: a Chung–Lu power-law background with
//! community-planted contrast groups.
//!
//! The benchmark preset ([`LargeConfig::benchmark`]) targets the scale of the
//! paper's larger datasets — `n = 10⁵` vertices, `m = 10⁶` background edges —
//! which is where intra-solve parallelism (NewSEA's parallel µ_u scans) starts
//! to pay for its coordination overhead.  The topology is the
//! same heavy-tailed background the other generators use ([`crate::random`]), with
//! the contrast signal planted as dense near-cliques boosted in `G2` only:
//! the background's weight churn provides realistic noise in `G_D` while the
//! planted groups stay the unambiguous densest contrast structures.
//!
//! Everything is deterministic given [`LargeConfig::seed`].

use std::io;
use std::path::Path;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dcs_graph::{GraphBuilder, PackSummary, PackWriter};

use crate::planted::{allocate_groups, plant_dense_group};
use crate::random::{chung_lu_edges, collaboration_weight, power_law_weights};
use crate::{GraphPair, GroupKind, PlantedGroup};

/// Configuration of a large power-law + planted-contrast pair.
#[derive(Debug, Clone)]
pub struct LargeConfig {
    /// Number of vertices (background ids first, planted-group ids last).
    pub vertices: usize,
    /// Target number of background edges.
    pub edges: usize,
    /// Power-law exponent of the background degree sequence.
    pub gamma: f64,
    /// Sizes of the planted emerging groups (disjoint, at the top of the id
    /// range).
    pub group_sizes: Vec<usize>,
    /// Mean edge weight inside a planted group in `G2`.
    pub group_weight: f64,
    /// Probability of each within-group pair being connected.
    pub group_edge_probability: f64,
    /// Mean background edge weight (collaboration-count distributed).
    pub weight_mean: f64,
    /// RNG seed; the pair is a pure function of the config.
    pub seed: u64,
}

impl LargeConfig {
    /// The paper-scale benchmark preset: `10⁵` vertices, `10⁶` background
    /// edges, four planted contrast groups.
    pub fn benchmark() -> Self {
        LargeConfig {
            vertices: 100_000,
            edges: 1_000_000,
            gamma: 2.3,
            group_sizes: vec![48, 40, 32, 24],
            group_weight: 20.0,
            group_edge_probability: 0.9,
            weight_mean: 2.0,
            seed: 0xDC5_1A56E,
        }
    }

    /// A shrunken preset (hundreds of vertices) with the same shape, for
    /// tests and smoke runs.
    pub fn tiny() -> Self {
        LargeConfig {
            vertices: 600,
            edges: 4_000,
            gamma: 2.3,
            group_sizes: vec![12, 8],
            group_weight: 20.0,
            group_edge_probability: 0.9,
            weight_mean: 2.0,
            seed: 0xDC5_1A56E,
        }
    }
}

/// Generates the pair: both graphs share the Chung–Lu background topology
/// with independently jittered weights (contrast noise), and each planted
/// group is boosted in `G2` only (emerging).
pub fn generate(config: &LargeConfig) -> GraphPair {
    let group_total: usize = config.group_sizes.iter().sum();
    assert!(
        config.vertices > group_total,
        "vertices must exceed the planted-group total"
    );
    let mut rng = StdRng::seed_from_u64(config.seed);

    // Background over the low ids; planted groups live in a dedicated range
    // at the top so they stay disjoint from each other (background edges may
    // still touch them, as in the real datasets).
    let background_n = config.vertices - group_total;
    let weights = power_law_weights(background_n, config.gamma);
    let background = chung_lu_edges(&weights, config.edges, &mut rng);

    let mut b1 = GraphBuilder::new(config.vertices);
    let mut b2 = GraphBuilder::new(config.vertices);
    for &(u, v) in &background {
        let w = collaboration_weight(&mut rng, config.weight_mean);
        // Same topology, mildly churned weights: G_D carries dense noise
        // without a planted-size signal in the background.
        let jitter = 0.8 + 0.4 * rng.gen::<f64>();
        b1.add_edge(u, v, w);
        b2.add_edge(u, v, w * jitter);
    }

    let groups = allocate_groups(background_n as dcs_graph::VertexId, &config.group_sizes);
    let mut planted = Vec::with_capacity(groups.len());
    for (index, vertices) in groups.into_iter().enumerate() {
        plant_dense_group(
            &mut b2,
            &vertices,
            config.group_weight,
            config.group_edge_probability,
            &mut rng,
        );
        planted.push(PlantedGroup {
            name: format!("emerging-{index}"),
            vertices,
            kind: GroupKind::Emerging,
        });
    }

    GraphPair {
        g1: b1.build(),
        g2: b2.build(),
        planted,
    }
}

/// The result of [`generate_packs`]: one write summary per graph plus the
/// planted ground truth.
#[derive(Debug, Clone)]
pub struct PackPair {
    /// Write summary of the `G1` pack.
    pub g1: PackSummary,
    /// Write summary of the `G2` pack.
    pub g2: PackSummary,
    /// The planted contrast groups (same as [`generate`]'s).
    pub planted: Vec<PlantedGroup>,
}

/// Generates the pair and writes its two graphs as pack files through
/// [`PackWriter::write_graph`].
///
/// The packs decode ([`dcs_graph::GraphPack::to_graph`]) to exactly the
/// graphs [`generate`] returns, and — because the seed pins every draw —
/// regenerating with the same config produces **byte-identical** files,
/// which is what lets CI cache the benchmark pack as an artifact keyed only
/// on the generator and builder sources.
pub fn generate_packs(
    config: &LargeConfig,
    g1_path: impl AsRef<Path>,
    g2_path: impl AsRef<Path>,
) -> io::Result<PackPair> {
    let pair = generate(config);
    Ok(PackPair {
        g1: PackWriter::write_graph(&pair.g1, g1_path)?,
        g2: PackWriter::write_graph(&pair.g2, g2_path)?,
        planted: pair.planted,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_pair_is_deterministic() {
        let a = generate(&LargeConfig::tiny());
        let b = generate(&LargeConfig::tiny());
        assert_eq!(a.g1.num_edges(), b.g1.num_edges());
        assert_eq!(a.g2.num_edges(), b.g2.num_edges());
        let edges_a: Vec<_> = a.g2.edges().collect();
        let edges_b: Vec<_> = b.g2.edges().collect();
        assert_eq!(edges_a, edges_b);
    }

    #[test]
    fn planted_groups_are_disjoint_and_at_the_top() {
        let config = LargeConfig::tiny();
        let pair = generate(&config);
        let group_total: usize = config.group_sizes.iter().sum();
        let background_n = config.vertices - group_total;
        let mut seen = std::collections::HashSet::new();
        for group in &pair.planted {
            assert_eq!(group.kind, GroupKind::Emerging);
            for &v in &group.vertices {
                assert!((v as usize) >= background_n);
                assert!(seen.insert(v), "groups must be disjoint");
            }
        }
        assert_eq!(seen.len(), group_total);
    }

    #[test]
    fn planted_groups_dominate_the_difference() {
        // The first planted group must be denser in G_D = G2 − G1 than any
        // background vertex's neighbourhood: its average degree difference
        // should dwarf the background churn.
        let config = LargeConfig::tiny();
        let pair = generate(&config);
        let gd = dcs_core::difference_graph(&pair.g2, &pair.g1).unwrap();
        let group = &pair.planted[0].vertices;
        let density = gd.average_degree(group);
        assert!(
            density > config.group_weight,
            "planted group density {density} too weak"
        );
    }

    #[test]
    fn generated_packs_decode_to_the_generated_pair() {
        let config = LargeConfig::tiny();
        let dir = std::env::temp_dir();
        let p1 = dir.join(format!("dcs_large_g1_{}.pack", std::process::id()));
        let p2 = dir.join(format!("dcs_large_g2_{}.pack", std::process::id()));
        let pair = generate_packs(&config, &p1, &p2).unwrap();
        let expected = generate(&config);
        assert_eq!(pair.planted, expected.planted);
        assert_eq!(pair.g1.edges, expected.g1.num_edges());
        assert_eq!(pair.g2.edges, expected.g2.num_edges());

        let g1 = dcs_graph::GraphPack::open(&p1).unwrap().to_graph().unwrap();
        let g2 = dcs_graph::GraphPack::open(&p2).unwrap().to_graph().unwrap();
        assert_eq!(g1, expected.g1);
        assert_eq!(g2, expected.g2);

        // Regeneration from the pinned seed is byte-identical.
        let p1b = dir.join(format!("dcs_large_g1b_{}.pack", std::process::id()));
        let p2b = dir.join(format!("dcs_large_g2b_{}.pack", std::process::id()));
        generate_packs(&config, &p1b, &p2b).unwrap();
        assert_eq!(std::fs::read(&p1).unwrap(), std::fs::read(&p1b).unwrap());
        assert_eq!(std::fs::read(&p2).unwrap(), std::fs::read(&p2b).unwrap());
        for p in [p1, p2, p1b, p2b] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn scales_to_the_requested_edge_count() {
        let config = LargeConfig {
            vertices: 2_000,
            edges: 12_000,
            ..LargeConfig::tiny()
        };
        let pair = generate(&config);
        assert!(pair.g1.num_edges() >= config.edges * 9 / 10);
        assert!(pair.g2.num_edges() > pair.g1.num_edges());
    }
}
