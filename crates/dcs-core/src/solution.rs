//! Reporting of mined contrast subgraphs.
//!
//! The paper's result tables report, for every mined subgraph, its size, whether it is a
//! positive clique in `G_D`, and its density difference under several measures (average
//! degree, graph affinity, edge density, total degree).  [`ContrastReport`] gathers all of
//! those numbers for an arbitrary vertex subset or embedding, so the experiment harness
//! and downstream users can print table rows with one call.

use dcs_densest::Embedding;
use dcs_graph::{components, SignedGraph, VertexId, VertexSubset, Weight};

use crate::DcsError;

/// The graph density measure under which a DCS was mined.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DensityMeasure {
    /// Average degree `ρ(S) = W(S)/|S|` (DCSAD).
    AverageDegree,
    /// Graph affinity `f(x) = xᵀAx` (DCSGA).
    GraphAffinity,
    /// Total degree `W(S)` — not a density in the paper's sense, but the objective of the
    /// EgoScan comparator; included so reports can be produced for the baseline too.
    TotalDegree,
}

impl std::fmt::Display for DensityMeasure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DensityMeasure::AverageDegree => write!(f, "average degree"),
            DensityMeasure::GraphAffinity => write!(f, "graph affinity"),
            DensityMeasure::TotalDegree => write!(f, "total degree"),
        }
    }
}

impl DensityMeasure {
    /// The short token naming the measure on the command line, on the wire
    /// and in durable session files: `"affinity"` or `"degree"`.  Cache keys
    /// depend on it, so it never changes.  `TotalDegree`, which no miner
    /// takes, shares `"degree"`.
    pub fn token(self) -> &'static str {
        match self {
            DensityMeasure::GraphAffinity => "affinity",
            DensityMeasure::AverageDegree | DensityMeasure::TotalDegree => "degree",
        }
    }
}

/// Parses a measure token, ignoring ASCII case: `affinity`, `graph-affinity`
/// or `ga` for graph affinity; `degree`, `average-degree` or `ad` for
/// average degree.
impl std::str::FromStr for DensityMeasure {
    type Err = DcsError;

    fn from_str(text: &str) -> Result<Self, DcsError> {
        match text.to_ascii_lowercase().as_str() {
            "affinity" | "graph-affinity" | "ga" => Ok(DensityMeasure::GraphAffinity),
            "degree" | "average-degree" | "ad" => Ok(DensityMeasure::AverageDegree),
            _ => Err(DcsError::InvalidConfig(format!("unknown measure {text:?}"))),
        }
    }
}

/// Density-difference statistics of a subgraph of the difference graph `G_D`, matching
/// the columns of the paper's result tables (Tables IV, VIII–XIV).
#[derive(Debug, Clone, PartialEq)]
pub struct ContrastReport {
    /// The vertex subset (support set for affinity solutions), sorted ascending.
    pub subset: Vec<VertexId>,
    /// Number of vertices.
    pub size: usize,
    /// Average-degree difference `ρ_D(S) = W_D(S)/|S|`.
    pub average_degree_difference: Weight,
    /// Graph-affinity difference `xᵀDx`.  For subsets (rather than embeddings) this is
    /// evaluated at the uniform embedding on the subset.
    pub affinity_difference: Weight,
    /// Edge-density difference `W_D(S)/|S|²`.
    pub edge_density_difference: Weight,
    /// Total-degree difference `W_D(S)` (the degree-sum convention of the paper).
    pub total_degree_difference: Weight,
    /// Whether `G_D(S)` is a clique with all-positive edge weights.
    pub is_positive_clique: bool,
    /// Whether `G_D(S)` is connected.
    pub is_connected: bool,
}

impl ContrastReport {
    /// Builds the report for a plain vertex subset (used for DCSAD and baseline results).
    pub fn for_subset(gd: &SignedGraph, subset: &[VertexId]) -> Self {
        Self::for_subset_scratch(
            gd,
            subset,
            &mut VertexSubset::new(0),
            &mut VertexSubset::new(0),
            &mut Vec::new(),
        )
    }

    /// [`Self::for_subset`] with caller-provided scratch buffers (membership marks,
    /// connectivity visited set and traversal stack) — the allocation-lean variant
    /// used with a [`crate::workspace::SolverWorkspace`] on the steady-state
    /// reporting path.  One membership pass feeds every density metric: the total
    /// degree `W_D(S)` determines the average degree (`/|S|`), the edge density
    /// (`/|S|²`) and the affinity of the **uniform** embedding, which equals the edge
    /// density exactly (`xᵀDx` at `x_u = 1/|S|` is `W_D(S)/|S|²` by definition).
    pub fn for_subset_scratch(
        gd: &SignedGraph,
        subset: &[VertexId],
        marks: &mut VertexSubset,
        visited: &mut VertexSubset,
        stack: &mut Vec<VertexId>,
    ) -> Self {
        let mut sorted: Vec<VertexId> = subset.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        marks.reset_universe(gd.num_vertices());
        marks.insert_all(&sorted);
        let size = sorted.len();
        let total = gd.total_degree_marked(marks);
        let (average, density) = if size == 0 {
            (0.0, 0.0)
        } else {
            (
                total / size as Weight,
                total / (size as Weight * size as Weight),
            )
        };
        ContrastReport {
            size,
            average_degree_difference: average,
            affinity_difference: density,
            edge_density_difference: density,
            total_degree_difference: total,
            is_positive_clique: gd.is_positive_clique_marked(marks),
            is_connected: components::is_connected_scratch(gd, marks, visited, stack),
            subset: sorted,
        }
    }

    /// Builds the report for an affinity solution; the affinity difference is evaluated
    /// at the embedding itself (not at the uniform embedding on the support).
    pub fn for_embedding(gd: &SignedGraph, x: &Embedding) -> Self {
        let support = x.support();
        let mut report = Self::for_subset(gd, &support);
        report.affinity_difference = x.affinity(gd);
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcs_graph::GraphBuilder;

    fn gd() -> SignedGraph {
        // Positive triangle {0,1,2} (weights 2), negative edge (2,3), isolated 4.
        GraphBuilder::from_edges(5, vec![(0, 1, 2.0), (1, 2, 2.0), (0, 2, 2.0), (2, 3, -1.0)])
    }

    #[test]
    fn subset_report() {
        let g = gd();
        let r = ContrastReport::for_subset(&g, &[0, 1, 2]);
        assert_eq!(r.size, 3);
        assert!((r.total_degree_difference - 12.0).abs() < 1e-12);
        assert!((r.average_degree_difference - 4.0).abs() < 1e-12);
        assert!((r.edge_density_difference - 12.0 / 9.0).abs() < 1e-12);
        // Uniform affinity on the triangle: 6 ordered pairs × (1/9) × 2 = 4/3.
        assert!((r.affinity_difference - 4.0 / 3.0).abs() < 1e-12);
        assert!(r.is_positive_clique);
        assert!(r.is_connected);
    }

    #[test]
    fn subset_with_negative_edge() {
        let g = gd();
        let r = ContrastReport::for_subset(&g, &[1, 2, 3]);
        assert!(!r.is_positive_clique);
        assert!(r.is_connected);
        assert!((r.total_degree_difference - 2.0).abs() < 1e-12); // 2*(2 - 1)
    }

    #[test]
    fn disconnected_subset() {
        let g = gd();
        let r = ContrastReport::for_subset(&g, &[0, 4]);
        assert!(!r.is_connected);
        assert_eq!(r.total_degree_difference, 0.0);
        assert!(!r.is_positive_clique); // missing edge
    }

    #[test]
    fn embedding_report_uses_embedding_affinity() {
        let g = gd();
        let x = Embedding::from_weights(vec![(0, 0.5), (1, 0.25), (2, 0.25)]);
        let r = ContrastReport::for_embedding(&g, &x);
        assert_eq!(r.subset, vec![0, 1, 2]);
        // f = 2*(0.5*0.25 + 0.5*0.25 + 0.25*0.25)*2 = 2*(0.3125)*2
        assert!((r.affinity_difference - 1.25).abs() < 1e-12);
        // but the subset-level numbers are unchanged
        assert!((r.average_degree_difference - 4.0).abs() < 1e-12);
    }

    #[test]
    fn dedups_and_sorts() {
        let g = gd();
        let r = ContrastReport::for_subset(&g, &[2, 0, 2, 1]);
        assert_eq!(r.subset, vec![0, 1, 2]);
        assert_eq!(r.size, 3);
    }

    #[test]
    fn measure_display() {
        assert_eq!(DensityMeasure::AverageDegree.to_string(), "average degree");
        assert_eq!(DensityMeasure::GraphAffinity.to_string(), "graph affinity");
        assert_eq!(DensityMeasure::TotalDegree.to_string(), "total degree");
    }

    #[test]
    fn measure_tokens() {
        for text in ["affinity", "Graph-Affinity", "GA", "ga"] {
            assert_eq!(text.parse(), Ok(DensityMeasure::GraphAffinity));
        }
        for text in ["degree", "Degree", "AVERAGE-DEGREE", "ad"] {
            assert_eq!(text.parse(), Ok(DensityMeasure::AverageDegree));
        }
        for text in ["entropy", "both", "total-degree", ""] {
            assert!(text.parse::<DensityMeasure>().is_err());
        }
        assert_eq!(DensityMeasure::GraphAffinity.token(), "affinity");
        assert_eq!(DensityMeasure::AverageDegree.token(), "degree");
        assert_eq!(DensityMeasure::TotalDegree.token(), "degree");
        for measure in [DensityMeasure::GraphAffinity, DensityMeasure::AverageDegree] {
            assert_eq!(measure.token().parse(), Ok(measure));
        }
    }
}
