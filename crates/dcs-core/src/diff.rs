//! Construction of the difference graph `G_D` from a pair of graphs (Section III-B/III-D).
//!
//! The standard difference graph has affinity matrix `D = A2 − A1`; the paper also uses
//! two practically important generalisations which are implemented here:
//!
//! * the **α-scaled** difference `D = A2 − α·A1` (Section III-D), which mines subgraphs
//!   whose density in `G2` exceeds `α` times their density in `G1`, and
//! * the **Discrete** setting (Section VI-B), which maps raw weight differences to small
//!   integers so that a handful of extremely heavy edges cannot dominate the DCS, plus
//!   the weight-clamping variant used for the Actor dataset.

use dcs_graph::{SignedGraph, VertexId, Weight};

use crate::error::DcsError;

/// How raw weight differences are turned into difference-graph weights.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WeightScheme {
    /// `D(u,v) = A2(u,v) − A1(u,v)` (the paper's "Weighted" setting).
    Weighted,
    /// `D(u,v) = A2(u,v) − α·A1(u,v)`.
    Scaled {
        /// The scaling factor `α` applied to `G1`.
        alpha: Weight,
    },
    /// Discretised differences (the paper's "Discrete" setting); see [`DiscreteRule`].
    Discrete(DiscreteRule),
}

/// The discretisation rule of Section VI-B.
///
/// With the paper's DBLP defaults (`strong = 5`, `weak = 2`, `negative_strong = 4`):
///
/// | raw difference `d = A2 − A1` | discrete weight |
/// |------------------------------|-----------------|
/// | `d ≥ 5`                      | `+2`            |
/// | `2 ≤ d < 5`                  | `+1`            |
/// | `−4 < d < 0`                 | `−1`            |
/// | `d ≤ −4`                     | `−2`            |
/// | otherwise (`0 ≤ d < 2`)      | `0` (no edge)   |
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiscreteRule {
    /// Differences at or above this become `+2`.
    pub strong: Weight,
    /// Differences at or above this (but below `strong`) become `+1`.
    pub weak: Weight,
    /// Differences at or below `−negative_strong` become `−2`; negative differences
    /// above that become `−1`.
    pub negative_strong: Weight,
}

impl Default for DiscreteRule {
    fn default() -> Self {
        DiscreteRule {
            strong: 5.0,
            weak: 2.0,
            negative_strong: 4.0,
        }
    }
}

impl DiscreteRule {
    /// Maps a raw difference to its discrete weight.
    pub fn apply(&self, d: Weight) -> Weight {
        if d >= self.strong {
            2.0
        } else if d >= self.weak {
            1.0
        } else if d <= -self.negative_strong {
            -2.0
        } else if d < 0.0 {
            -1.0
        } else {
            0.0
        }
    }
}

/// Builds the standard difference graph `G_D` with `D = A2 − A1`.
///
/// Both inputs must be non-negatively weighted graphs over the same vertex set; the
/// result may have edges of either sign.  Edges where the difference is exactly zero are
/// dropped (they are not in `E_D` by definition).
pub fn difference_graph(g2: &SignedGraph, g1: &SignedGraph) -> Result<SignedGraph, DcsError> {
    difference_graph_with(g2, g1, WeightScheme::Weighted)
}

/// Builds the α-scaled difference graph `D = A2 − α·A1`.
pub fn scaled_difference_graph(
    g2: &SignedGraph,
    g1: &SignedGraph,
    alpha: Weight,
) -> Result<SignedGraph, DcsError> {
    difference_graph_with(g2, g1, WeightScheme::Scaled { alpha })
}

/// Checks that `(g2, g1)` is a valid DCS input pair: one vertex count and no negative
/// weight.
fn check_pair(g2: &SignedGraph, g1: &SignedGraph) -> Result<(), DcsError> {
    if g1.num_vertices() != g2.num_vertices() {
        return Err(DcsError::VertexCountMismatch {
            g1_vertices: g1.num_vertices(),
            g2_vertices: g2.num_vertices(),
        });
    }
    if g1.min_edge_weight().unwrap_or(0.0) < 0.0 {
        return Err(DcsError::NegativeInputWeight { which: "G1" });
    }
    if g2.min_edge_weight().unwrap_or(0.0) < 0.0 {
        return Err(DcsError::NegativeInputWeight { which: "G2" });
    }
    Ok(())
}

/// Merges row `v` of `g2` with row `v` of `g1`, both sorted by neighbor: every
/// neighbor of either row goes to `write` in ascending order, with its weights
/// `A2(v, ·)` and `A1(v, ·)` (`0.0` where that graph lacks the edge) and the slot
/// `k` it is offered.  `k` starts at 0 and advances by one when `write` returns
/// `true`; the final `k` is returned.
///
/// Each step takes the smaller head, or both heads on a tie, by flags and
/// masks: no branch depends on the data, so interleaved rows cost no
/// mispredictions.  `write` is offered at most the two rows' combined length.
#[inline(always)]
fn merge_rows(
    g2: &SignedGraph,
    g1: &SignedGraph,
    v: VertexId,
    mut write: impl FnMut(usize, VertexId, Weight, Weight) -> bool,
) -> usize {
    let (n2, ws2) = g2.neighbor_slices(v);
    let (n1, ws1) = g1.neighbor_slices(v);
    debug_assert!(n2.windows(2).all(|w| w[0] < w[1]), "rows are sorted");
    debug_assert!(n1.windows(2).all(|w| w[0] < w[1]), "rows are sorted");
    // `w` where `take`, else `0.0`, by masking its bits.
    let keep =
        |w: Weight, take: bool| Weight::from_bits(w.to_bits() & (take as u64).wrapping_neg());
    let (mut i, mut j, mut k) = (0usize, 0usize, 0usize);
    while i < n2.len() && j < n1.len() {
        let (a, b) = (n2[i], n1[j]);
        let (take2, take1) = (a <= b, b <= a);
        k += write(k, a.min(b), keep(ws2[i], take2), keep(ws1[j], take1)) as usize;
        i += take2 as usize;
        j += take1 as usize;
    }
    for (&a, &w2) in n2[i..].iter().zip(&ws2[i..]) {
        k += write(k, a, w2, 0.0) as usize;
    }
    for (&b, &w1) in n1[j..].iter().zip(&ws1[j..]) {
        k += write(k, b, 0.0, w1) as usize;
    }
    k
}

/// Builds a difference graph under an explicit [`WeightScheme`].
///
/// Each vertex's rows of `g2` and `g1` are merged into `G_D`'s row, which gets
/// `w2 − α·w1` per neighbor (α = 1 unless [`WeightScheme::Scaled`]); exact zeros
/// are dropped.  Under [`WeightScheme::Discrete`] the rule maps the non-zero raw
/// differences, and the zeros it returns are dropped as well.  A scaled α must be
/// a non-negative finite number for which α times the largest `g1` weight is
/// finite ([`DcsError::InvalidConfig`] otherwise), so every `G_D` weight is
/// finite.
///
/// The merge writes every candidate entry into a reused row buffer and keeps it
/// by advancing past it only when its weight is non-zero; each row is then
/// appended to the CSR arrays with one slice copy per column.
pub fn difference_graph_with(
    g2: &SignedGraph,
    g1: &SignedGraph,
    scheme: WeightScheme,
) -> Result<SignedGraph, DcsError> {
    check_pair(g2, g1)?;
    if let WeightScheme::Scaled { alpha } = scheme {
        check_alpha(alpha, g1.max_edge_weight().unwrap_or(0.0))?;
    }
    let mut build_span = dcs_obs::trace::span(dcs_obs::trace::Phase::DiffBuild);
    let gd = match scheme {
        WeightScheme::Weighted => merge_difference(g2, g1, 1.0, |d| d),
        WeightScheme::Scaled { alpha } => merge_difference(g2, g1, alpha, |d| d),
        WeightScheme::Discrete(rule) => {
            merge_difference(g2, g1, 1.0, |d| if d != 0.0 { rule.apply(d) } else { d })
        }
    };
    build_span.set_units(2 * gd.num_edges() as u64);
    Ok(gd)
}

/// The body of [`difference_graph_with`]: `G_D` with weight `map(w2 − α·w1)` per
/// merged entry, exact zeros dropped.  One monomorphised copy per scheme.
fn merge_difference(
    g2: &SignedGraph,
    g1: &SignedGraph,
    alpha: Weight,
    map: impl Fn(Weight) -> Weight,
) -> SignedGraph {
    let n = g1.num_vertices();
    // Every entry of either graph yields at most one entry of G_D.  The columns
    // only reserve that bound: a page is touched when a kept entry lands on it.
    let capacity = 2 * (g1.num_edges() + g2.num_edges());
    let mut offsets = Vec::with_capacity(n + 1);
    offsets.push(0usize);
    let mut neighbors = Vec::with_capacity(capacity);
    let mut weights = Vec::with_capacity(capacity);
    let (mut row_neighbors, mut row_weights) = (Vec::new(), Vec::new());
    for v in 0..n as VertexId {
        let len = g2.degree(v) + g1.degree(v);
        if row_neighbors.len() < len {
            row_neighbors.resize(len, 0);
            row_weights.resize(len, 0.0);
        }
        let kept = merge_rows(g2, g1, v, |k, u, w2, w1| {
            let w = map(w2 - alpha * w1);
            row_neighbors[k] = u;
            row_weights[k] = w;
            w != 0.0
        });
        neighbors.extend_from_slice(&row_neighbors[..kept]);
        weights.extend_from_slice(&row_weights[..kept]);
        offsets.push(neighbors.len());
    }
    neighbors.shrink_to_fit();
    weights.shrink_to_fit();
    // The merged rows are sorted and symmetric and zeros are skipped above.
    SignedGraph::from_raw_csr_unchecked(offsets, neighbors, weights)
}

/// Returns `alpha` if it is a valid scaling factor for a `G1` whose largest weight is
/// `heaviest`: non-negative, finite, and small enough that `alpha · heaviest` is
/// finite.  The pair is already checked non-negative and finite, so every
/// `w2 − alpha · w1` is then finite too.
pub(crate) fn check_alpha(alpha: Weight, heaviest: Weight) -> Result<Weight, DcsError> {
    if alpha < 0.0 || !alpha.is_finite() {
        return Err(DcsError::InvalidConfig(format!(
            "alpha must be a non-negative finite number, got {alpha}"
        )));
    }
    if !(alpha * heaviest).is_finite() {
        return Err(DcsError::InvalidConfig(format!(
            "alpha {alpha} times the largest G1 weight {heaviest} overflows"
        )));
    }
    Ok(alpha)
}

/// Recycled CSR buffers handed back and forth between
/// [`ScaledDifferenceTemplate::materialize_with`] and
/// [`SignedGraph::into_raw_csr`], so a sweep re-uses one set of arrays for every α.
pub use dcs_graph::CsrBuffers;

/// The merged edge structure of a graph pair, built **once**, from which the
/// α-scaled difference graph `D = A2 − α·A1` can be materialised for any α without
/// re-walking either input.
///
/// [`scaled_difference_graph`] merges the two graphs' rows for one α; a sweep over
/// many α values would repeat that merge at every grid point.  The template keeps the
/// merged rows with both weights per slot, so every α is one linear pass writing
/// `w2 − α·w1` into recycled CSR buffers.  Entries whose scaled weight is exactly
/// zero are dropped, matching [`scaled_difference_graph`] bit for bit.
#[derive(Debug, Clone)]
pub struct ScaledDifferenceTemplate {
    /// `offsets[v]..offsets[v+1]` indexes the merged adjacency of vertex `v`.
    offsets: Vec<usize>,
    /// Merged neighbor ids (union of both graphs' rows, sorted).
    neighbors: Vec<VertexId>,
    /// `A2(v, neighbor)` per slot (0 where only `G1` has the edge).
    w2: Vec<Weight>,
    /// `A1(v, neighbor)` per slot (0 where only `G2` has the edge).
    w1: Vec<Weight>,
}

impl ScaledDifferenceTemplate {
    /// Merges the adjacency structures of `g2` and `g1` (validating them exactly like
    /// [`difference_graph`]: same vertex count, non-negative weights).
    pub fn new(g2: &SignedGraph, g1: &SignedGraph) -> Result<Self, DcsError> {
        check_pair(g2, g1)?;
        let n = g1.num_vertices();
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0usize);
        let mut neighbors = Vec::new();
        let mut w2 = Vec::new();
        let mut w1 = Vec::new();
        for v in 0..n as VertexId {
            merge_rows(g2, g1, v, |_, u, a2, a1| {
                neighbors.push(u);
                w2.push(a2);
                w1.push(a1);
                true
            });
            offsets.push(neighbors.len());
        }
        Ok(ScaledDifferenceTemplate {
            offsets,
            neighbors,
            w2,
            w1,
        })
    }

    /// Number of vertices of the pair.
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Materialises `D = A2 − α·A1` into the recycled `buffers`, returning the graph.
    ///
    /// Hand the previous grid point's graph back through
    /// [`SignedGraph::into_raw_csr`] and the sweep allocates nothing after the first
    /// α.  Zero-weight entries are dropped (both directions symmetrically), so the
    /// result equals [`scaled_difference_graph`] exactly.
    pub fn materialize_with(&self, alpha: Weight, buffers: CsrBuffers) -> SignedGraph {
        let (mut offsets, mut neighbors, mut weights) = buffers;
        offsets.clear();
        neighbors.clear();
        weights.clear();
        let n = self.num_vertices();
        offsets.reserve(n + 1);
        offsets.push(0);
        for v in 0..n {
            for slot in self.offsets[v]..self.offsets[v + 1] {
                let w = self.w2[slot] - alpha * self.w1[slot];
                if w != 0.0 {
                    neighbors.push(self.neighbors[slot]);
                    weights.push(w);
                }
            }
            offsets.push(neighbors.len());
        }
        // Invariants hold by construction (the template rows are sorted and
        // symmetric, zero weights are skipped above), so the validating
        // `from_raw_csr` scan would be pure overhead on this α-sweep hot path.
        SignedGraph::from_raw_csr_unchecked(offsets, neighbors, weights)
    }

    /// [`Self::materialize_with`] into fresh buffers.
    pub fn materialize(&self, alpha: Weight) -> SignedGraph {
        self.materialize_with(alpha, CsrBuffers::default())
    }
}

/// Clamps every edge weight of a (difference) graph to `[-max_abs, max_abs]`.
///
/// Section III-D recommends down-weighting extremely heavy edges so that a single edge
/// does not dominate the DCS; the paper's Actor "Discrete" setting caps weights at 10.
pub fn clamp_weights(gd: &SignedGraph, max_abs: Weight) -> SignedGraph {
    gd.map_weights(|w| w.clamp(-max_abs, max_abs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcs_graph::GraphBuilder;
    use proptest::prelude::*;

    /// The construction the row merge replaced, kept as its oracle: both graphs'
    /// edges summed through a [`GraphBuilder`] (`w2 + (−α·w1)`, exact zeros dropped),
    /// then the Discrete rule applied through `map_weights`.
    fn builder_difference_graph(
        g2: &SignedGraph,
        g1: &SignedGraph,
        scheme: WeightScheme,
    ) -> SignedGraph {
        let mut builder = GraphBuilder::new(g1.num_vertices());
        builder.add_edges(g2.edges());
        let alpha = match scheme {
            WeightScheme::Scaled { alpha } => alpha,
            _ => 1.0,
        };
        for (u, v, w) in g1.edges() {
            builder.add_edge(u, v, -alpha * w);
        }
        let raw = builder.build();
        match scheme {
            WeightScheme::Discrete(rule) => raw.map_weights(|d| rule.apply(d)),
            _ => raw,
        }
    }

    /// The CSR arrays of `g` with the weights as bit patterns.
    fn csr_bits(g: &SignedGraph) -> (Vec<usize>, Vec<VertexId>, Vec<u64>) {
        let (offsets, neighbors, weights) = g.clone().into_raw_csr();
        (
            offsets,
            neighbors,
            weights.into_iter().map(f64::to_bits).collect(),
        )
    }

    /// The example of Fig. 1: G1 and G2 over 5 vertices (0-indexed).
    /// G1: (v1,v4)=2, (v2,v3)... we use the figure's edge weights:
    ///   G1: (0,3)=2, (2,3)=2, (2,4)=3, (3,4)=1,  (0,1) missing, ...
    ///   G2: (0,1)=1, (2,3)=5, (2,4)=2, (3,4)=3, (0,3) missing...
    /// chosen so that GD matches Fig. 1: (0,1)=1, (0,3)=-2, (2,3)=3, (2,4)=-1, (3,4)=2.
    fn fig1_pair() -> (SignedGraph, SignedGraph) {
        let g1 =
            GraphBuilder::from_edges(5, vec![(0, 3, 2.0), (2, 3, 2.0), (2, 4, 3.0), (3, 4, 1.0)]);
        let g2 =
            GraphBuilder::from_edges(5, vec![(0, 1, 1.0), (2, 3, 5.0), (2, 4, 2.0), (3, 4, 3.0)]);
        (g1, g2)
    }

    #[test]
    fn weighted_difference_matches_fig1() {
        let (g1, g2) = fig1_pair();
        let gd = difference_graph(&g2, &g1).unwrap();
        assert_eq!(gd.num_vertices(), 5);
        assert_eq!(gd.num_edges(), 5);
        assert_eq!(gd.edge_weight(0, 1), Some(1.0));
        assert_eq!(gd.edge_weight(0, 3), Some(-2.0));
        assert_eq!(gd.edge_weight(2, 3), Some(3.0));
        assert_eq!(gd.edge_weight(2, 4), Some(-1.0));
        assert_eq!(gd.edge_weight(3, 4), Some(2.0));
        assert_eq!(gd.num_positive_edges(), 3);
        assert_eq!(gd.num_negative_edges(), 2);
    }

    #[test]
    fn identical_graphs_give_empty_difference() {
        let g = GraphBuilder::from_edges(3, vec![(0, 1, 2.0), (1, 2, 3.0)]);
        let gd = difference_graph(&g, &g).unwrap();
        assert_eq!(gd.num_edges(), 0);
    }

    #[test]
    fn scaled_difference() {
        let g1 = GraphBuilder::from_edges(2, vec![(0, 1, 2.0)]);
        let g2 = GraphBuilder::from_edges(2, vec![(0, 1, 3.0)]);
        let gd = scaled_difference_graph(&g2, &g1, 2.0).unwrap();
        assert_eq!(gd.edge_weight(0, 1), Some(-1.0)); // 3 - 2*2
        let gd = scaled_difference_graph(&g2, &g1, 0.5).unwrap();
        assert_eq!(gd.edge_weight(0, 1), Some(2.0)); // 3 - 0.5*2
    }

    #[test]
    fn discrete_rule_paper_defaults() {
        let rule = DiscreteRule::default();
        assert_eq!(rule.apply(7.0), 2.0);
        assert_eq!(rule.apply(5.0), 2.0);
        assert_eq!(rule.apply(4.9), 1.0);
        assert_eq!(rule.apply(2.0), 1.0);
        assert_eq!(rule.apply(1.0), 0.0);
        assert_eq!(rule.apply(0.0), 0.0);
        assert_eq!(rule.apply(-1.0), -1.0);
        assert_eq!(rule.apply(-3.9), -1.0);
        assert_eq!(rule.apply(-4.0), -2.0);
        assert_eq!(rule.apply(-10.0), -2.0);
    }

    #[test]
    fn discrete_difference_graph() {
        let g1 = GraphBuilder::from_edges(4, vec![(0, 1, 1.0), (1, 2, 10.0), (2, 3, 3.0)]);
        let g2 = GraphBuilder::from_edges(4, vec![(0, 1, 7.0), (1, 2, 1.0), (2, 3, 4.0)]);
        let gd = difference_graph_with(&g2, &g1, WeightScheme::Discrete(DiscreteRule::default()))
            .unwrap();
        assert_eq!(gd.edge_weight(0, 1), Some(2.0)); // diff 6 -> +2
        assert_eq!(gd.edge_weight(1, 2), Some(-2.0)); // diff -9 -> -2
        assert_eq!(gd.edge_weight(2, 3), None); // diff 1 -> dropped
    }

    #[test]
    fn template_matches_builder_path_for_every_alpha() {
        let (g1, g2) = fig1_pair();
        let template = ScaledDifferenceTemplate::new(&g2, &g1).unwrap();
        assert_eq!(template.num_vertices(), 5);
        let mut buffers = CsrBuffers::default();
        // α = 1.0 hits exact zero differences on none of the Fig. 1 edges; add a grid
        // point (2.5 for (2,4): 2 − 2.5·3 ≠ 0; but 1.0 for (2,3) etc.) plus the
        // cancellation cases α = w2/w1.
        for alpha in [0.0, 0.25, 2.0 / 3.0, 1.0, 2.5, 3.0] {
            let via_template = template.materialize_with(alpha, buffers);
            let via_merge = scaled_difference_graph(&g2, &g1, alpha).unwrap();
            assert_eq!(via_template, via_merge, "alpha = {alpha}");
            let via_builder = builder_difference_graph(&g2, &g1, WeightScheme::Scaled { alpha });
            assert_eq!(
                csr_bits(&via_template),
                csr_bits(&via_builder),
                "alpha = {alpha}"
            );
            buffers = via_template.into_raw_csr();
        }
        // Exact zero-drop: at α = 5/2 the (2,3) edge (A2=5, A1=2) vanishes.
        let gd = template.materialize(2.5);
        assert_eq!(gd.edge_weight(2, 3), None);
        assert_eq!(gd, scaled_difference_graph(&g2, &g1, 2.5).unwrap());
        // Validation is the one `difference_graph_with` runs.
        let mismatched = GraphBuilder::from_edges(3, vec![(0, 1, 1.0)]);
        assert!(ScaledDifferenceTemplate::new(&g2, &mismatched).is_err());
        let negative = GraphBuilder::from_edges(5, vec![(0, 1, -1.0)]);
        assert!(matches!(
            ScaledDifferenceTemplate::new(&g2, &negative),
            Err(DcsError::NegativeInputWeight { which: "G1" })
        ));
    }

    #[test]
    fn clamping() {
        let g1 = SignedGraph::empty(3);
        let g2 = GraphBuilder::from_edges(3, vec![(0, 1, 100.0), (1, 2, 3.0)]);
        let gd = difference_graph(&g2, &g1).unwrap();
        let clamped = clamp_weights(&gd, 10.0);
        assert_eq!(clamped.edge_weight(0, 1), Some(10.0));
        assert_eq!(clamped.edge_weight(1, 2), Some(3.0));
    }

    #[test]
    fn error_cases() {
        let g1 = GraphBuilder::from_edges(3, vec![(0, 1, 1.0)]);
        let g2 = GraphBuilder::from_edges(4, vec![(0, 1, 1.0)]);
        assert!(matches!(
            difference_graph(&g2, &g1),
            Err(DcsError::VertexCountMismatch { .. })
        ));
        let neg = GraphBuilder::from_edges(3, vec![(0, 1, -1.0)]);
        let ok = GraphBuilder::from_edges(3, vec![(0, 1, 1.0)]);
        assert!(matches!(
            difference_graph(&ok, &neg),
            Err(DcsError::NegativeInputWeight { which: "G1" })
        ));
        assert!(matches!(
            difference_graph(&neg, &ok),
            Err(DcsError::NegativeInputWeight { which: "G2" })
        ));
    }

    #[test]
    fn scaled_alpha_must_be_non_negative_and_finite() {
        let (g1, g2) = fig1_pair();
        for alpha in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN, -1.0] {
            assert!(
                matches!(
                    scaled_difference_graph(&g2, &g1, alpha),
                    Err(DcsError::InvalidConfig(_))
                ),
                "alpha = {alpha}"
            );
        }
        assert!(scaled_difference_graph(&g2, &g1, 0.0).is_ok());
    }

    #[test]
    fn scaled_alpha_must_keep_every_scaled_weight_finite() {
        let g1 = GraphBuilder::from_edges(3, vec![(0, 1, 1.7e308)]);
        let g2 = GraphBuilder::from_edges(3, vec![(1, 2, 1.0)]);
        let result = difference_graph_with(&g2, &g1, WeightScheme::Scaled { alpha: 10.0 });
        assert!(
            matches!(&result, Err(DcsError::InvalidConfig(msg)) if msg.contains("overflows")),
            "{result:?}"
        );
        let gd = difference_graph_with(&g2, &g1, WeightScheme::Scaled { alpha: 1.0 }).unwrap();
        assert_eq!(gd.edge_weight(0, 1), Some(-1.7e308));
    }

    /// A non-negative graph pair over one vertex set, with duplicate insertions and
    /// weights drawn from a small set so that differences often cancel exactly.
    fn arb_pair() -> impl Strategy<Value = (SignedGraph, SignedGraph)> {
        (2usize..14).prop_flat_map(|n| {
            let weight = prop::sample::select(vec![0.1, 0.2, 0.3, 0.5, 1.0, 1.5, 2.0, 3.0, 7.0]);
            let edge = (0..n as u32, 0..n as u32, weight);
            (
                Just(n),
                proptest::collection::vec(edge.clone(), 0..40),
                proptest::collection::vec(edge, 0..40),
            )
                .prop_map(|(n, e1, e2)| {
                    (
                        GraphBuilder::from_edges(n, e1),
                        GraphBuilder::from_edges(n, e2),
                    )
                })
        })
    }

    proptest! {
        /// The row merge builds the same `G_D` as the builder path, bit for bit, under
        /// every scheme: Weighted, Scaled at α ∈ {0, 0.5, 1} and at a cancelling
        /// α = w2/w1, and Discrete with the paper's rule and with a rule that maps a
        /// raw zero to +2 (so raw zeros must be dropped before the rule).
        #[test]
        fn merge_matches_builder_path((g1, g2) in arb_pair()) {
            let cancelling = g2
                .edges()
                .find_map(|(u, v, w2)| g1.edge_weight(u, v).map(|w1| w2 / w1));
            let mut schemes = vec![
                WeightScheme::Weighted,
                WeightScheme::Scaled { alpha: 0.0 },
                WeightScheme::Scaled { alpha: 0.5 },
                WeightScheme::Scaled { alpha: 1.0 },
                WeightScheme::Discrete(DiscreteRule::default()),
                WeightScheme::Discrete(DiscreteRule {
                    strong: -0.5,
                    weak: -1.0,
                    negative_strong: 2.0,
                }),
            ];
            if let Some(alpha) = cancelling {
                schemes.push(WeightScheme::Scaled { alpha });
            }
            for scheme in schemes {
                for (a, b) in [(&g2, &g1), (&g1, &g2)] {
                    let merged = difference_graph_with(a, b, scheme).unwrap();
                    let built = builder_difference_graph(a, b, scheme);
                    prop_assert!(csr_bits(&merged) == csr_bits(&built), "{:?}", scheme);
                    prop_assert_eq!(
                        (merged.num_positive_edges(), merged.num_negative_edges()),
                        (built.num_positive_edges(), built.num_negative_edges())
                    );
                }
            }
        }
    }

    /// Pairs shaped for the merge's edge cases: each drawn edge sits in `G2`
    /// only, in `G1` only, in both at one weight (an exact cancellation at
    /// α = 1) or in both at two weights, and one vertex keeps empty rows, so
    /// rows are one-sided, interleaved, cancelling or empty.
    fn arb_shaped_pair() -> impl Strategy<Value = (SignedGraph, SignedGraph)> {
        (2usize..16).prop_flat_map(|n| {
            let weight = prop::sample::select(vec![0.5, 1.0, 2.0, 3.0]);
            let edge = (0..n as u32, 0..n as u32, 0u8..4, weight.clone(), weight);
            (Just(n), proptest::collection::vec(edge, 0..48), 0..n as u32).prop_map(
                |(n, edges, isolated)| {
                    let (mut e2, mut e1) = (Vec::new(), Vec::new());
                    for (u, v, side, a, b) in edges {
                        if u == isolated || v == isolated {
                            continue;
                        }
                        match side {
                            0 => e2.push((u, v, a)),
                            1 => e1.push((u, v, a)),
                            2 => {
                                e2.push((u, v, a));
                                e1.push((u, v, a));
                            }
                            _ => {
                                e2.push((u, v, a));
                                e1.push((u, v, b));
                            }
                        }
                    }
                    (
                        GraphBuilder::from_edges(n, e1),
                        GraphBuilder::from_edges(n, e2),
                    )
                },
            )
        })
    }

    proptest! {
        /// The branch-free merge equals the builder oracle bit for bit under
        /// Weighted, Scaled (α = 0, 0.5, 1) and Discrete, on shaped pairs and
        /// against an edgeless graph on either side; the template's merged rows
        /// give the same scaled graphs.
        #[test]
        fn merge_matches_builder_path_on_shaped_rows((g1, g2) in arb_shaped_pair()) {
            let empty = SignedGraph::empty(g1.num_vertices());
            let schemes = [
                WeightScheme::Weighted,
                WeightScheme::Scaled { alpha: 0.0 },
                WeightScheme::Scaled { alpha: 0.5 },
                WeightScheme::Scaled { alpha: 1.0 },
                WeightScheme::Discrete(DiscreteRule::default()),
                WeightScheme::Discrete(DiscreteRule {
                    strong: 1.0,
                    weak: 0.5,
                    negative_strong: 1.0,
                }),
            ];
            for (a, b) in [(&g2, &g1), (&g1, &g2), (&g2, &empty), (&empty, &g1)] {
                let template = ScaledDifferenceTemplate::new(a, b).unwrap();
                for scheme in schemes {
                    let merged = difference_graph_with(a, b, scheme).unwrap();
                    let built = builder_difference_graph(a, b, scheme);
                    prop_assert!(csr_bits(&merged) == csr_bits(&built), "{:?}", scheme);
                    if let WeightScheme::Scaled { alpha } = scheme {
                        let scaled = template.materialize(alpha);
                        prop_assert!(csr_bits(&scaled) == csr_bits(&built), "{:?}", scheme);
                    }
                }
            }
        }
    }

    #[test]
    fn emerging_vs_disappearing_are_negations() {
        let (g1, g2) = fig1_pair();
        let emerging = difference_graph(&g2, &g1).unwrap();
        let disappearing = difference_graph(&g1, &g2).unwrap();
        for (u, v, w) in emerging.edges() {
            assert_eq!(disappearing.edge_weight(u, v), Some(-w));
        }
    }
}
