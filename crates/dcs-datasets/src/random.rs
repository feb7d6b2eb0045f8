//! Random-graph building blocks: Chung–Lu power-law backgrounds and weight samplers.
//!
//! The paper's datasets are collaboration / interaction networks with heavy-tailed degree
//! distributions and skewed weight distributions ("number of joint papers", "number of
//! reverts", …).  The generators in this crate use the classic Chung–Lu model for the
//! background topology: vertex `i` gets an expected-degree weight `θ_i ∝ (i + i₀)^{-α}`
//! and edges are sampled by picking endpoints proportionally to `θ`.

use rand::Rng;
use rand_distr::{Distribution, Geometric, Zipf};
use rustc_hash::FxHashSet;

use dcs_graph::VertexId;

/// Expected-degree weights of a power-law (Zipf-like) degree sequence with exponent
/// `gamma` (typical social networks: 2.0–3.0).  Larger `gamma` ⇒ lighter tail.
pub fn power_law_weights(n: usize, gamma: f64) -> Vec<f64> {
    assert!(n > 0, "need at least one vertex");
    assert!(gamma > 1.0, "power-law exponent must exceed 1");
    let alpha = 1.0 / (gamma - 1.0);
    let offset = 1.0;
    (0..n).map(|i| (i as f64 + offset).powf(-alpha)).collect()
}

/// Samples approximately `m_target` distinct undirected edges of a Chung–Lu graph with
/// the given expected-degree weights.  Self-loops and duplicates are rejected; the
/// routine gives up after `8·m_target` attempts so it always terminates (the attained
/// edge count is returned implicitly by the vector length).
pub fn chung_lu_edges<R: Rng>(
    weights: &[f64],
    m_target: usize,
    rng: &mut R,
) -> Vec<(VertexId, VertexId)> {
    let n = weights.len();
    assert!(n >= 2, "need at least two vertices");
    // Cumulative distribution for endpoint sampling.
    let mut cumulative = Vec::with_capacity(n);
    let mut acc = 0.0;
    for &w in weights {
        acc += w;
        cumulative.push(acc);
    }
    let total = acc;
    let sample_vertex = |rng: &mut R| -> VertexId {
        let target = rng.gen::<f64>() * total;
        cumulative.partition_point(|&c| c < target) as VertexId
    };

    let mut edges: FxHashSet<(VertexId, VertexId)> = FxHashSet::default();
    let mut out = Vec::with_capacity(m_target);
    let max_attempts = m_target.saturating_mul(8).max(64);
    let mut attempts = 0;
    while out.len() < m_target && attempts < max_attempts {
        attempts += 1;
        let mut u = sample_vertex(rng);
        let mut v = sample_vertex(rng);
        if u == v {
            continue;
        }
        if u > v {
            std::mem::swap(&mut u, &mut v);
        }
        if u as usize >= n || v as usize >= n {
            continue;
        }
        if edges.insert((u, v)) {
            out.push((u, v));
        }
    }
    out
}

/// Samples a collaboration-count style weight: `1 + Geometric(p)` (mean `1/p`), the
/// typical distribution of "number of papers written together".
pub fn collaboration_weight<R: Rng>(rng: &mut R, mean: f64) -> f64 {
    let mean = mean.max(1.0);
    let p = (1.0 / mean).clamp(1e-6, 1.0);
    let g = Geometric::new(p).expect("valid geometric parameter");
    1.0 + g.sample(rng) as f64
}

/// Samples a Zipf-distributed rank in `1..=n` with the given exponent (used to pick
/// "popular" keywords in the title generator).
pub fn zipf_rank<R: Rng>(rng: &mut R, n: usize, exponent: f64) -> usize {
    let z = Zipf::new(n as u64, exponent).expect("valid zipf parameters");
    z.sample(rng) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn power_law_weights_decrease() {
        let w = power_law_weights(100, 2.5);
        assert_eq!(w.len(), 100);
        for pair in w.windows(2) {
            assert!(pair[0] >= pair[1]);
        }
        assert!(w[0] <= 1.0 + 1e-12);
    }

    #[test]
    #[should_panic(expected = "exceed 1")]
    fn power_law_rejects_bad_gamma() {
        power_law_weights(10, 1.0);
    }

    #[test]
    fn chung_lu_produces_requested_edges() {
        let mut rng = StdRng::seed_from_u64(7);
        let w = power_law_weights(500, 2.2);
        let edges = chung_lu_edges(&w, 1500, &mut rng);
        assert!(edges.len() >= 1200, "got {} edges", edges.len());
        // No self loops, no duplicates, canonical orientation.
        let mut seen = std::collections::HashSet::new();
        for &(u, v) in &edges {
            assert!(u < v);
            assert!(seen.insert((u, v)));
            assert!((v as usize) < 500);
        }
    }

    #[test]
    fn chung_lu_is_deterministic_per_seed() {
        let w = power_law_weights(200, 2.5);
        let a = chung_lu_edges(&w, 400, &mut StdRng::seed_from_u64(1));
        let b = chung_lu_edges(&w, 400, &mut StdRng::seed_from_u64(1));
        let c = chung_lu_edges(&w, 400, &mut StdRng::seed_from_u64(2));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn low_ids_have_higher_degree() {
        // Power-law weights are decreasing in the vertex id, so low ids should appear in
        // more edges.
        let mut rng = StdRng::seed_from_u64(11);
        let w = power_law_weights(300, 2.0);
        let edges = chung_lu_edges(&w, 2000, &mut rng);
        let mut degree = vec![0usize; 300];
        for (u, v) in edges {
            degree[u as usize] += 1;
            degree[v as usize] += 1;
        }
        let head: usize = degree[..30].iter().sum();
        let tail: usize = degree[270..].iter().sum();
        assert!(head > tail * 3, "head {head} vs tail {tail}");
    }

    #[test]
    fn weight_samplers_are_positive() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..200 {
            assert!(collaboration_weight(&mut rng, 2.5) >= 1.0);
            let r = zipf_rank(&mut rng, 50, 1.2);
            assert!((1..=50).contains(&r));
        }
    }
}
