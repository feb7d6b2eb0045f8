//! Helpers for planting ground-truth contrast groups into graph builders.

use dcs_graph::{GraphBuilder, VertexId};
use rand::Rng;

/// Adds a (near-)clique on `vertices` to `builder`.
///
/// * `weight_mean` — expected weight of each clique edge (sampled as
///   `weight_mean · Uniform(0.75, 1.25)` so planted groups are not perfectly regular),
/// * `edge_probability` — probability that each pair is connected (1.0 plants a full
///   clique; lower values plant a dense near-clique).
pub fn plant_dense_group<R: Rng>(
    builder: &mut GraphBuilder,
    vertices: &[VertexId],
    weight_mean: f64,
    edge_probability: f64,
    rng: &mut R,
) {
    for (idx, &u) in vertices.iter().enumerate() {
        for &v in &vertices[idx + 1..] {
            if rng.gen::<f64>() <= edge_probability {
                let jitter = 0.75 + 0.5 * rng.gen::<f64>();
                builder.add_edge(u, v, weight_mean * jitter);
            }
        }
    }
}

/// Picks `count` disjoint groups of the given sizes from the id range
/// `[start, start + Σ sizes)`, returning one sorted vertex list per group.
///
/// Using a dedicated id range keeps planted groups disjoint from each other; background
/// edges may still touch them, which is exactly what happens in the real datasets.
pub fn allocate_groups(start: VertexId, sizes: &[usize]) -> Vec<Vec<VertexId>> {
    let mut groups = Vec::with_capacity(sizes.len());
    let mut cursor = start;
    for &size in sizes {
        let group: Vec<VertexId> = (cursor..cursor + size as VertexId).collect();
        cursor += size as VertexId;
        groups.push(group);
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn plants_a_full_clique() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut b = GraphBuilder::new(10);
        plant_dense_group(&mut b, &[2, 3, 4, 5], 10.0, 1.0, &mut rng);
        let g = b.build();
        assert!(g.is_positive_clique(&[2, 3, 4, 5]));
        assert_eq!(g.num_edges(), 6);
        for (_, _, w) in g.edges() {
            assert!((7.5..=12.5).contains(&w));
        }
    }

    #[test]
    fn respects_edge_probability() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut b = GraphBuilder::new(40);
        let group: Vec<u32> = (0..30).collect();
        plant_dense_group(&mut b, &group, 1.0, 0.5, &mut rng);
        let g = b.build();
        let max_edges = 30 * 29 / 2;
        assert!(g.num_edges() > max_edges / 4);
        assert!(g.num_edges() < max_edges * 3 / 4);
    }

    #[test]
    fn allocates_disjoint_groups() {
        let groups = allocate_groups(100, &[3, 5, 2]);
        assert_eq!(groups.len(), 3);
        assert_eq!(groups[0], vec![100, 101, 102]);
        assert_eq!(groups[1], vec![103, 104, 105, 106, 107]);
        assert_eq!(groups[2], vec![108, 109]);
    }
}
