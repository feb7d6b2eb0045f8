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
//!
//! ## Two merges, one rule
//!
//! `G_D` is built by one of two merges of the inputs, and both give each merged entry
//! the same per-edge rule: weight `map(w2 − α·w1)`, with `0.0` standing for the input
//! that lacks the edge, and no entry where that weight is exactly zero.
//!
//! * [`difference_graph_with`] merges the two graphs' rows, vertex by vertex, into
//!   `G_D`'s rows.  Inputs that are graphs already take it: packs, a pack beside a
//!   text, labelled texts, server sessions, recovery.
//! * [`difference_graph_from_edges`] merges the two inputs' folded, sorted edge lists
//!   ([`GraphBuilder::into_sorted_edges`]) and scatters the kept edges once into
//!   `G_D`'s CSR.  A numeric text pair takes it, so the CSRs of `G1` and `G2` are
//!   never built: `dcs mine` builds one CSR where it built three.
//!
//! Graphs keep the row merge because, once the rows exist, it is the faster of the
//! two: it reads each row once and writes `G_D`'s rows in order, where the list merge
//! writes every kept edge into a second, scattered row.  On a benchmark pair (22,572
//! vertices, 120k edges per graph), warm and pinned to one core of a 2-core x86 box
//! (medians of 21 in three rounds), the row merge took 3.4–3.6 ms, the list merge
//! 4.4–4.6 ms over lists already at hand, and 11.6–12.1 ms with the lists first taken
//! from the graphs by [`SignedGraph::edges`].
//!
//! [`GraphBuilder::into_sorted_edges`]: dcs_graph::GraphBuilder::into_sorted_edges

use dcs_graph::{CorruptGraph, EdgeTriple, SignedGraph, VertexId, Weight};

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
    check_non_negative(g2.min_edge_weight(), g1.min_edge_weight())
}

/// Checks, `G1` first, that neither input has a negative weight, given each one's
/// smallest weight (`None` when it has no edge).
fn check_non_negative(
    g2_lightest: Option<Weight>,
    g1_lightest: Option<Weight>,
) -> Result<(), DcsError> {
    if g1_lightest.unwrap_or(0.0) < 0.0 {
        return Err(DcsError::NegativeInputWeight { which: "G1" });
    }
    if g2_lightest.unwrap_or(0.0) < 0.0 {
        return Err(DcsError::NegativeInputWeight { which: "G2" });
    }
    Ok(())
}

/// `w` where `take`, else `0.0`, by masking its bits: the weight a branch-free
/// merge step offers for a side whose head it may not have taken.
#[inline(always)]
fn masked(w: Weight, take: bool) -> Weight {
    Weight::from_bits(w.to_bits() & (take as u64).wrapping_neg())
}

/// The per-edge rule both merges apply: an entry whose input weights are `w2` and
/// `w1` (`0.0` for the graph that lacks the edge) gets the `G_D` weight
/// `map(w2 − α·w1)`, and is dropped when that weight is exactly zero.
#[inline(always)]
fn edge_rule(alpha: Weight, map: impl Fn(Weight) -> Weight) -> impl Fn(Weight, Weight) -> Weight {
    move |w2, w1| map(w2 - alpha * w1)
}

/// The rule of the Discrete scheme: the raw difference mapped by `rule`, a raw zero
/// kept zero (so it is dropped before the rule could map it elsewhere).
#[inline(always)]
fn discrete(rule: DiscreteRule) -> impl Fn(Weight) -> Weight {
    move |d| if d != 0.0 { rule.apply(d) } else { d }
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
    let (mut i, mut j, mut k) = (0usize, 0usize, 0usize);
    while i < n2.len() && j < n1.len() {
        let (a, b) = (n2[i], n1[j]);
        let (take2, take1) = (a <= b, b <= a);
        k += write(k, a.min(b), masked(ws2[i], take2), masked(ws1[j], take1)) as usize;
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
        WeightScheme::Weighted => merge_difference(g2, g1, edge_rule(1.0, |d| d)),
        WeightScheme::Scaled { alpha } => merge_difference(g2, g1, edge_rule(alpha, |d| d)),
        WeightScheme::Discrete(rule) => merge_difference(g2, g1, edge_rule(1.0, discrete(rule))),
    };
    build_span.set_units(2 * gd.num_edges() as u64);
    Ok(gd)
}

/// The body of [`difference_graph_with`]: `G_D` with weight `rule(w2, w1)` per
/// merged entry, exact zeros dropped.  One monomorphised copy per scheme.
fn merge_difference(
    g2: &SignedGraph,
    g1: &SignedGraph,
    rule: impl Fn(Weight, Weight) -> Weight,
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
            let w = rule(w2, w1);
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

/// Builds a difference graph under an explicit [`WeightScheme`] from the two inputs'
/// edge lists over `n` vertices, each in the form [`GraphBuilder::into_sorted_edges`]
/// returns: every edge once as `(u, v, w)` with `u < v < n`, strictly ascending by
/// `(u, v)`.
///
/// The result equals [`difference_graph_with`] on the graphs the lists describe,
/// each padded to `n` vertices, bit for bit, and so do its errors: a list not in
/// that form is a [`DcsError::CorruptGraph`], then come the checks of
/// [`difference_graph_with`] (a negative weight in `g1`, then in `g2`, then a
/// refused α), and every entry gets the same per-edge rule.
///
/// The two lists are merged twice, without a merged copy: the first pass counts
/// the entries each row of `G_D` keeps, the second writes each kept edge into both
/// endpoint rows.  Edges arrive in `(u, v)` order, so every row fills in ascending
/// neighbor order: its neighbors below it first, then those above.
///
/// [`GraphBuilder::into_sorted_edges`]: dcs_graph::GraphBuilder::into_sorted_edges
pub fn difference_graph_from_edges(
    n: usize,
    g2: &[EdgeTriple],
    g1: &[EdgeTriple],
    scheme: WeightScheme,
) -> Result<SignedGraph, DcsError> {
    let (range2, range1) = (weight_range(n, g2)?, weight_range(n, g1)?);
    check_non_negative(range2.map(|r| r.0), range1.map(|r| r.0))?;
    if let WeightScheme::Scaled { alpha } = scheme {
        check_alpha(alpha, range1.map_or(0.0, |r| r.1))?;
    }
    let mut build_span = dcs_obs::trace::span(dcs_obs::trace::Phase::DiffBuild);
    let gd = match scheme {
        WeightScheme::Weighted => scatter_difference(n, g2, g1, edge_rule(1.0, |d| d)),
        WeightScheme::Scaled { alpha } => scatter_difference(n, g2, g1, edge_rule(alpha, |d| d)),
        WeightScheme::Discrete(rule) => {
            scatter_difference(n, g2, g1, edge_rule(1.0, discrete(rule)))
        }
    };
    build_span.set_units(2 * gd.num_edges() as u64);
    Ok(gd)
}

/// The sort key of an edge `(u, v, _)`: `(u, v)` as one integer.
#[inline(always)]
fn edge_key(&(u, v, _): &EdgeTriple) -> u64 {
    (u64::from(u) << 32) | u64::from(v)
}

/// The smallest and largest weight of an edge list over `n` vertices (`None` when
/// it is empty), after checking that every edge is `(u, v)` with `u < v < n` and
/// that the list is strictly ascending by `(u, v)`.  The first edge that is not
/// names its vertex `u` as the row of `G_D` it would corrupt.
fn weight_range(n: usize, edges: &[EdgeTriple]) -> Result<Option<(Weight, Weight)>, CorruptGraph> {
    // Key 0 is `(0, 0)`, a self-loop, so it lies below every edge's key.
    let mut last = 0;
    let mut range: Option<(Weight, Weight)> = None;
    for edge @ &(u, v, w) in edges {
        if u == v {
            return Err(CorruptGraph::SelfLoop { vertex: u as usize });
        }
        if v as usize >= n {
            return Err(CorruptGraph::TargetOutOfRange {
                vertex: u as usize,
                target: v,
            });
        }
        if u > v || edge_key(edge) <= last {
            return Err(CorruptGraph::UnsortedRow { vertex: u as usize });
        }
        last = edge_key(edge);
        range = Some(range.map_or((w, w), |(lo, hi)| (lo.min(w), hi.max(w))));
    }
    Ok(range)
}

/// Merges two edge lists sorted by `(u, v)`: every edge of either list goes to
/// `visit` in ascending order, with its weights `A2(u, v)` and `A1(u, v)` (`0.0`
/// where that list lacks the edge).  Each step takes the smaller head, or both
/// heads on a tie, by flags and masks, as [`merge_rows`] does.
#[inline(always)]
fn merge_edge_lists(
    g2: &[EdgeTriple],
    g1: &[EdgeTriple],
    mut visit: impl FnMut(VertexId, VertexId, Weight, Weight),
) {
    let (mut i, mut j) = (0usize, 0usize);
    while i < g2.len() && j < g1.len() {
        let (a, b) = (edge_key(&g2[i]), edge_key(&g1[j]));
        let (take2, take1) = (a <= b, b <= a);
        let key = a.min(b);
        let (w2, w1) = (masked(g2[i].2, take2), masked(g1[j].2, take1));
        visit((key >> 32) as VertexId, key as VertexId, w2, w1);
        i += take2 as usize;
        j += take1 as usize;
    }
    for &(u, v, w2) in &g2[i..] {
        visit(u, v, w2, 0.0);
    }
    for &(u, v, w1) in &g1[j..] {
        visit(u, v, 0.0, w1);
    }
}

/// The body of [`difference_graph_from_edges`]: `G_D` with weight `rule(w2, w1)`
/// per merged edge, exact zeros dropped.  One monomorphised copy per scheme.
fn scatter_difference(
    n: usize,
    g2: &[EdgeTriple],
    g1: &[EdgeTriple],
    rule: impl Fn(Weight, Weight) -> Weight,
) -> SignedGraph {
    // `offsets[v]` first counts row v's kept entries, then holds the row's start,
    // and while scattering serves as its write cursor, ending at the row's end.
    let mut offsets = vec![0usize; n + 1];
    merge_edge_lists(g2, g1, |u, v, w2, w1| {
        let kept = (rule(w2, w1) != 0.0) as usize;
        offsets[u as usize] += kept;
        offsets[v as usize] += kept;
    });
    let mut total = 0;
    for slot in &mut offsets {
        let count = *slot;
        *slot = total;
        total += count;
    }
    // A dropped edge is written to the spare last slot instead of a row, so the
    // scatter takes no branch on the weight.
    let mut neighbors = vec![0 as VertexId; total + 1];
    let mut weights = vec![0.0 as Weight; total + 1];
    merge_edge_lists(g2, g1, |u, v, w2, w1| {
        let w = rule(w2, w1);
        let kept = w != 0.0;
        for (row, neighbor) in [(u, v), (v, u)] {
            let cursor = &mut offsets[row as usize];
            let slot = if kept { *cursor } else { total };
            neighbors[slot] = neighbor;
            weights[slot] = w;
            *cursor += kept as usize;
        }
    });
    neighbors.truncate(total);
    weights.truncate(total);
    // Each row's cursor ended at the next row's start.
    offsets.copy_within(0..n, 1);
    offsets[0] = 0;
    // The rows are sorted and symmetric and zeros are skipped above.
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

    /// Insertions for one input of a pair: each drawn edge once in either
    /// orientation, twice in both orientations, as a pair that cancels exactly, with
    /// an explicit zero weight, as a self-loop or, rarely, with a negative weight;
    /// the lines in any order, over ids below `ids`.
    fn arb_insertions(ids: u32) -> impl Strategy<Value = Vec<EdgeTriple>> {
        let weight = prop::sample::select(vec![0.0, 0.1, 0.2, 0.3, 0.5, 1.0, 2.0, 3.0, 5.0]);
        let line = (0..ids, 0..ids, 0u8..40, weight.clone(), weight);
        (
            proptest::collection::vec(line, 0..30),
            proptest::collection::vec(any::<u32>(), 60),
        )
            .prop_map(|(lines, keys)| {
                let mut insertions = Vec::new();
                for (u, v, kind, a, b) in lines {
                    match kind {
                        0..=9 => insertions.push((u, v, a)),
                        10..=19 => insertions.push((v, u, a)),
                        20..=27 => insertions.extend([(u, v, a), (v, u, b)]),
                        28..=33 => insertions.extend([(v, u, a), (u, v, -a)]),
                        34..=36 => insertions.push((u, v, 0.0)),
                        37 | 38 => insertions.push((u, u, a)),
                        _ => insertions.push((u, v, -b)),
                    }
                }
                let mut keyed: Vec<_> = insertions.into_iter().zip(keys).collect();
                keyed.sort_by_key(|&(_, key)| key);
                keyed.into_iter().map(|(edge, _)| edge).collect()
            })
    }

    proptest! {
        /// The edge-list merge builds what the row merge builds from the graphs of
        /// the same insertions, padded to the larger vertex count: the same `G_D` bit
        /// for bit, or the same error (a negative weight named by argument position,
        /// a refused α), under Weighted, Scaled and Discrete, in both argument orders.
        #[test]
        fn edge_list_merge_matches_row_merge(
            (i1, i2) in (2u32..14, 2u32..14)
                .prop_flat_map(|(ids1, ids2)| (arb_insertions(ids1), arb_insertions(ids2))),
        ) {
            let sides = |insertions: &[EdgeTriple]| {
                let mut builder = GraphBuilder::new(0);
                builder.add_edges(insertions.iter().copied());
                (builder.clone().build(), builder.into_sorted_edges())
            };
            let ((mut g1, (n1, e1)), (mut g2, (n2, e2))) = (sides(&i1), sides(&i2));
            let n = n1.max(n2);
            g1.pad_vertices(n);
            g2.pad_vertices(n);
            let mut schemes = vec![
                WeightScheme::Weighted,
                WeightScheme::Discrete(DiscreteRule::default()),
                WeightScheme::Discrete(DiscreteRule {
                    strong: -0.5,
                    weak: -1.0,
                    negative_strong: 2.0,
                }),
            ];
            for alpha in [0.0, 0.5, 2.5, -1.0, f64::INFINITY, f64::NAN, 1e308] {
                schemes.push(WeightScheme::Scaled { alpha });
            }
            for scheme in schemes {
                for ((a, list_a), (b, list_b)) in [((&g2, &e2), (&g1, &e1)), ((&g1, &e1), (&g2, &e2))] {
                    let merged = difference_graph_from_edges(n, list_a, list_b, scheme);
                    let rows = difference_graph_with(a, b, scheme);
                    let counts = |g: &SignedGraph| (g.num_positive_edges(), g.num_negative_edges());
                    prop_assert_eq!(merged.as_ref().map(csr_bits), rows.as_ref().map(csr_bits));
                    prop_assert_eq!(merged.as_ref().map(counts), rows.as_ref().map(counts));
                }
            }
        }
    }

    #[test]
    fn edge_lists_out_of_form_are_refused() {
        let refused = |n, list: &[EdgeTriple]| {
            let forward = difference_graph_from_edges(n, list, &[], WeightScheme::Weighted);
            let backward = difference_graph_from_edges(n, &[], list, WeightScheme::Weighted);
            assert_eq!(forward, backward, "{list:?}");
            forward.unwrap_err()
        };
        let corrupt = |e| DcsError::CorruptGraph(e);
        assert_eq!(
            refused(3, &[(1, 1, 1.0)]),
            corrupt(CorruptGraph::SelfLoop { vertex: 1 })
        );
        assert_eq!(
            refused(3, &[(0, 3, 1.0)]),
            corrupt(CorruptGraph::TargetOutOfRange {
                vertex: 0,
                target: 3
            })
        );
        for list in [
            &[(2, 1, 1.0)][..],
            &[(0, 2, 1.0), (0, 1, 1.0)],
            &[(0, 1, 1.0), (0, 1, 2.0)],
        ] {
            assert!(matches!(
                refused(3, list),
                DcsError::CorruptGraph(CorruptGraph::UnsortedRow { .. })
            ));
        }
        // The weight checks name the inputs by argument position, G1 first.
        let negative = [(0, 1, -1.0)];
        let positive = [(1, 2, 1.0)];
        let build = |g2: &[EdgeTriple], g1: &[EdgeTriple]| {
            difference_graph_from_edges(3, g2, g1, WeightScheme::Weighted)
        };
        assert_eq!(
            build(&negative, &negative),
            Err(DcsError::NegativeInputWeight { which: "G1" })
        );
        assert_eq!(
            build(&negative, &positive),
            Err(DcsError::NegativeInputWeight { which: "G2" })
        );
        let gd = build(&positive, &[(0, 1, 2.0)]).unwrap();
        assert_eq!(gd.edge_weight(0, 1), Some(-2.0));
        assert_eq!(gd.edge_weight(1, 2), Some(1.0));
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
