//! Masked (and sign-filtered) overlays on an immutable CSR graph.
//!
//! A [`GraphView`] is a zero-allocation lens over a [`SignedGraph`]: it iterates the
//! alive neighbors of an alive vertex without rebuilding adjacency rows.  Two
//! orthogonal filters compose:
//!
//! * a **vertex mask** ([`VertexMask`]) — dead vertices and every edge incident to
//!   them disappear, exactly the contract of
//!   [`SignedGraph::remove_vertices_in_place`] but in O(1) per removal instead of an
//!   O(n + m) CSR rewrite per peeling round;
//! * a **positive-only** flag — non-positive edges disappear, exactly the edge set of
//!   [`SignedGraph::positive_part`] but without materialising `G_{D+}`.
//!
//! The view is `Copy` (two pointers and a flag), so solver layers pass it by value.
//! [`GraphView::materialize`] builds the equivalent standalone graph; property tests
//! assert that peeling/solving on a view equals solving the materialised graph.

use crate::{EdgeRef, SignedGraph, VertexId, VertexMask, Weight};

/// A borrowed view of a [`SignedGraph`] restricted to alive vertices (and optionally
/// to positive edges).  See the module docs for the semantics.
#[derive(Debug, Clone, Copy)]
pub struct GraphView<'a> {
    graph: &'a SignedGraph,
    mask: Option<&'a VertexMask>,
    positive_only: bool,
}

impl<'a> GraphView<'a> {
    /// A view exposing the whole graph unchanged.
    pub fn full(graph: &'a SignedGraph) -> Self {
        GraphView {
            graph,
            mask: None,
            positive_only: false,
        }
    }

    /// A view restricted to the alive vertices of `mask`.
    ///
    /// The mask's universe must match the graph's vertex count.
    pub fn masked(graph: &'a SignedGraph, mask: &'a VertexMask) -> Self {
        debug_assert_eq!(mask.universe_size(), graph.num_vertices());
        GraphView {
            graph,
            mask: Some(mask),
            positive_only: false,
        }
    }

    /// The same view with non-positive edges additionally filtered out (`G_{D+}` of
    /// whatever this view exposes).
    pub fn positive_part(self) -> Self {
        GraphView {
            positive_only: true,
            ..self
        }
    }

    /// The underlying graph (unfiltered).
    #[inline]
    pub fn graph(self) -> &'a SignedGraph {
        self.graph
    }

    /// Whether this view filters non-positive edges.
    #[inline]
    pub fn is_positive_only(self) -> bool {
        self.positive_only
    }

    /// Size of the vertex universe (ids are stable: dead vertices keep their id).
    #[inline]
    pub fn num_vertices(self) -> usize {
        self.graph.num_vertices()
    }

    /// Whether `v` is alive in this view.
    #[inline]
    pub fn is_alive(self, v: VertexId) -> bool {
        match self.mask {
            Some(mask) => mask.contains(v),
            None => true,
        }
    }

    /// Number of alive vertices.
    #[inline]
    pub fn alive_count(self) -> usize {
        match self.mask {
            Some(mask) => mask.len(),
            None => self.graph.num_vertices(),
        }
    }

    /// The smallest alive vertex, or `None` when everything is masked out.
    pub fn first_alive(self) -> Option<VertexId> {
        match self.mask {
            Some(mask) => mask.first(),
            None => {
                if self.graph.num_vertices() > 0 {
                    Some(0)
                } else {
                    None
                }
            }
        }
    }

    /// Iterates the alive vertices in ascending order.
    pub fn vertices(self) -> impl Iterator<Item = VertexId> + 'a {
        let view = self;
        self.graph.vertices().filter(move |&v| view.is_alive(v))
    }

    #[inline]
    fn passes(self, e: &EdgeRef) -> bool {
        self.is_alive(e.neighbor) && (!self.positive_only || e.weight > 0.0)
    }

    /// Iterates the surviving `(neighbor, weight)` pairs of `v`.
    ///
    /// The caller is responsible for `v` itself being alive (neighbors of a dead
    /// vertex are still reported relative to the filters, mirroring how a
    /// materialised graph would answer for a vertex that was kept but isolated).
    #[inline]
    pub fn neighbors(self, v: VertexId) -> impl Iterator<Item = EdgeRef> + 'a {
        let view = self;
        self.graph.neighbors(v).filter(move |e| view.passes(e))
    }

    /// Weighted degree of `v` within the view.
    pub fn weighted_degree(self, v: VertexId) -> Weight {
        self.neighbors(v).map(|e| e.weight).sum()
    }

    /// Unweighted degree of `v` within the view.
    pub fn degree(self, v: VertexId) -> usize {
        self.neighbors(v).count()
    }

    /// The weight of the surviving edge `(u, v)`, or `None` when the edge is absent
    /// from the underlying graph, filtered by the positive-only flag, or incident to
    /// a dead vertex — exactly [`SignedGraph::edge_weight`] on
    /// [`Self::materialize`]'s output.
    pub fn edge_weight(self, u: VertexId, v: VertexId) -> Option<Weight> {
        if !self.is_alive(u) || !self.is_alive(v) {
            return None;
        }
        match self.graph.edge_weight(u, v) {
            Some(w) if !self.positive_only || w > 0.0 => Some(w),
            _ => None,
        }
    }

    /// Iterates every surviving undirected edge `(u, v, w)` once, with `u < v` and
    /// both endpoints alive.
    pub fn edges(self) -> impl Iterator<Item = (VertexId, VertexId, Weight)> + 'a {
        let view = self;
        self.vertices().flat_map(move |u| {
            view.neighbors(u)
                .filter(move |e| u < e.neighbor)
                .map(move |e| (u, e.neighbor, e.weight))
        })
    }

    /// The surviving edge with the maximum weight, or `None` if the view is edgeless.
    ///
    /// Edges are visited in [`Self::edges`] order and a later edge replaces the best
    /// only when strictly heavier, so the first of equally heavy edges wins.  The scan
    /// walks each alive vertex's raw CSR row from its first neighbour above the
    /// vertex (rows are sorted by neighbour).
    pub fn max_weight_edge(self) -> Option<(VertexId, VertexId, Weight)> {
        let mut best: Option<(VertexId, VertexId, Weight)> = None;
        for u in self.vertices() {
            let (nbrs, weights) = self.graph.neighbor_slices(u);
            let above = nbrs.partition_point(|&v| v <= u);
            for (&v, &w) in nbrs[above..].iter().zip(&weights[above..]) {
                if (self.positive_only && w <= 0.0) || !self.is_alive(v) {
                    continue;
                }
                if best.is_none_or(|(_, _, bw)| w > bw) {
                    best = Some((u, v, w));
                }
            }
        }
        best
    }

    /// Whether any edge survives the filters.
    pub fn has_edge(self) -> bool {
        self.edges().next().is_some()
    }

    /// Whether any **positive** edge survives the vertex mask (the top-k driver's
    /// "is there contrast left to mine" test).
    pub fn has_positive_edge(self) -> bool {
        self.positive_part().has_edge()
    }

    /// Builds the standalone [`SignedGraph`] this view is equivalent to: same vertex
    /// count (ids stable, dead vertices become isolated), only surviving edges.
    ///
    /// This is the reference semantics of the view — property tests peel/solve a view
    /// and the materialised graph and assert identical results.  It allocates; hot
    /// paths use the view directly.
    pub fn materialize(self) -> SignedGraph {
        let mut builder = crate::GraphBuilder::new(self.num_vertices());
        for (u, v, w) in self.edges() {
            builder.add_edge(u, v, w);
        }
        builder.build()
    }
}

/// A whole graph is its full view, so every solver entry taking
/// `impl Into<GraphView>` also accepts a plain `&SignedGraph`.
impl<'a> From<&'a SignedGraph> for GraphView<'a> {
    fn from(graph: &'a SignedGraph) -> Self {
        GraphView::full(graph)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn fig1_gd() -> SignedGraph {
        GraphBuilder::from_edges(
            5,
            vec![
                (0, 1, 1.0),
                (0, 3, -2.0),
                (2, 3, 3.0),
                (2, 4, -1.0),
                (3, 4, 2.0),
            ],
        )
    }

    #[test]
    fn full_view_is_transparent() {
        let g = fig1_gd();
        let view = GraphView::full(&g);
        assert_eq!(view.num_vertices(), 5);
        assert_eq!(view.alive_count(), 5);
        assert_eq!(view.first_alive(), Some(0));
        assert_eq!(view.edges().count(), 5);
        assert_eq!(view.degree(3), 3);
        assert!((view.weighted_degree(3) - 3.0).abs() < 1e-12);
        assert_eq!(view.max_weight_edge(), Some((2, 3, 3.0)));
        assert_eq!(view.materialize(), g);
    }

    #[test]
    fn masked_view_matches_remove_vertices_in_place() {
        let g = fig1_gd();
        let mut mask = VertexMask::full(5);
        mask.remove_all(&[3]);
        let view = GraphView::masked(&g, &mask);
        let mut reference = g.clone();
        reference.remove_vertices_in_place(&[3]);
        assert_eq!(view.materialize(), reference);
        assert_eq!(view.alive_count(), 4);
        assert!(!view.is_alive(3));
        assert_eq!(view.degree(0), 1);
        assert_eq!(view.edges().count(), 2);
        assert_eq!(view.max_weight_edge(), Some((0, 1, 1.0)));
    }

    #[test]
    fn positive_view_matches_positive_part() {
        let g = fig1_gd();
        let view = GraphView::full(&g).positive_part();
        assert!(view.is_positive_only());
        assert_eq!(view.materialize(), g.positive_part());
        assert_eq!(view.degree(0), 1); // the -2.0 edge to 3 is filtered
        assert!((view.weighted_degree(3) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn masked_positive_view_composes_both_filters() {
        let g = fig1_gd();
        let mut mask = VertexMask::full(5);
        mask.remove(2);
        let view = GraphView::masked(&g, &mask).positive_part();
        let mut reference = g.clone();
        reference.remove_vertices_in_place(&[2]);
        let reference = reference.positive_part();
        assert_eq!(view.materialize(), reference);
        assert!(view.has_edge());
        assert!(view.has_positive_edge());
    }

    #[test]
    fn exhaustion_checks() {
        let g = GraphBuilder::from_edges(3, vec![(0, 1, -1.0)]);
        let view = GraphView::full(&g);
        assert!(view.has_edge());
        assert!(!view.has_positive_edge());
        let mut mask = VertexMask::full(3);
        mask.remove(0);
        let view = GraphView::masked(&g, &mask);
        assert!(!view.has_edge());
        assert_eq!(view.first_alive(), Some(1));
    }
}
