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
//! The view is `Copy` (two pointers and two flags), so solver layers pass it by value.
//! [`GraphView::materialize`] builds the equivalent standalone graph; property tests
//! assert that peeling/solving on a view equals solving the materialised graph.
//!
//! A pass that walks `G_{D+}` many times pays the sign filter on every entry of
//! every walk.  [`GraphView::positive_part_into`] copies the surviving positive
//! entries once into recycled CSR buffers, and [`GraphView::mask_over`] puts the
//! caller's mask over that compact graph, so the later walks test no sign.  Such
//! a view, like a full one, [has exact rows](GraphView::rows_are_exact): a pass
//! may read its raw CSR rows with no per-entry test at all.

use crate::{CsrBuffers, EdgeRef, SignedGraph, VertexId, VertexMask, Weight};

/// A borrowed view of a [`SignedGraph`] restricted to alive vertices (and optionally
/// to positive edges).  See the module docs for the semantics.
#[derive(Debug, Clone, Copy)]
pub struct GraphView<'a> {
    graph: &'a SignedGraph,
    mask: Option<&'a VertexMask>,
    positive_only: bool,
    exact_rows: bool,
}

impl<'a> GraphView<'a> {
    /// A view exposing the whole graph unchanged.
    pub fn full(graph: &'a SignedGraph) -> Self {
        GraphView {
            graph,
            mask: None,
            positive_only: false,
            exact_rows: true,
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
            exact_rows: false,
        }
    }

    /// The same view with non-positive edges additionally filtered out (`G_{D+}` of
    /// whatever this view exposes).
    pub fn positive_part(self) -> Self {
        GraphView {
            positive_only: true,
            exact_rows: false,
            ..self
        }
    }

    /// This view's vertex mask over `graph`, a graph on the same vertex universe,
    /// with no sign filter.
    ///
    /// This is the view a solver runs on after [`Self::positive_part_into`]: the
    /// compact rows need no sign test, but the mask still decides which vertices
    /// are alive (a peel's densities count every alive vertex, isolated ones
    /// included).
    ///
    /// `graph` must be what [`Self::positive_part_into`] returned for this view:
    /// an alive vertex's row holds only positive entries to alive vertices and a
    /// dead vertex's row is empty (debug builds check this).  So the result
    /// [has exact rows](Self::rows_are_exact).
    pub fn mask_over<'b>(self, graph: &'b SignedGraph) -> GraphView<'b>
    where
        'a: 'b,
    {
        debug_assert_eq!(graph.num_vertices(), self.num_vertices());
        debug_assert!(
            graph.vertices().all(|u| {
                let (nbrs, ws) = graph.neighbor_slices(u);
                if self.is_alive(u) {
                    nbrs.iter()
                        .zip(ws)
                        .all(|(&v, &w)| w > 0.0 && self.is_alive(v))
                } else {
                    nbrs.is_empty()
                }
            }),
            "mask_over takes the compact positive part of this view"
        );
        GraphView {
            graph,
            mask: self.mask,
            positive_only: false,
            exact_rows: true,
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

    /// Whether the view's rows need no per-entry test: every entry of an alive
    /// vertex's CSR row survives the filters and a dead vertex's row is empty, so
    /// `graph().neighbor_slices(v)` holds exactly what [`Self::neighbors`] yields,
    /// in the same order.
    ///
    /// That holds for a [full](Self::full) view and for [`Self::mask_over`] of the
    /// compact positive part; a masked or sign-filtered view of an uncompacted
    /// graph tests its entries.
    #[inline]
    pub fn rows_are_exact(self) -> bool {
        self.exact_rows
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

    /// Unweighted degree of `v` within the view: the row's length when the view
    /// [has exact rows](Self::rows_are_exact), a count of its surviving entries
    /// otherwise.
    pub fn degree(self, v: VertexId) -> usize {
        if self.exact_rows {
            self.graph.degree(v)
        } else {
            self.neighbors(v).count()
        }
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

    /// Whether any edge survives the filters.
    pub fn has_edge(self) -> bool {
        self.edges().next().is_some()
    }

    /// Whether any **positive** edge survives the vertex mask (the top-k driver's
    /// "is there contrast left to mine" test).
    pub fn has_positive_edge(self) -> bool {
        self.positive_part().has_edge()
    }

    /// Copies the alive, positive entries of this view into `buffers` and returns
    /// them as a standalone graph: `G_{D+}` of whatever the view exposes, equal to
    /// `self.positive_part().materialize()`.  Vertex ids are unchanged, each row
    /// keeps its surviving entries in their original order, and a dead vertex's
    /// row is empty.
    ///
    /// The buffers are recycled: hand the result back through
    /// [`SignedGraph::into_raw_csr`] and a steady-state caller allocates nothing.
    /// They are sized from the graph's positive entries, not from all of its
    /// entries.  The per-entry copy has no data-dependent branch: every entry of an
    /// alive row is written at the next free slot, and the slot advances only when
    /// the entry survives.  The invariants of the result hold by construction: rows stay
    /// sorted, no weight is zero, and the keep rule is symmetric in `(u, v)`.
    pub fn positive_part_into(self, buffers: CsrBuffers) -> SignedGraph {
        match self.mask {
            Some(mask) => compact_positive(self.graph, |v| mask.contains(v), buffers),
            None => compact_positive(self.graph, |_| true, buffers),
        }
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

/// The body of [`GraphView::positive_part_into`], one copy per kind of mask.
fn compact_positive(
    graph: &SignedGraph,
    alive: impl Fn(VertexId) -> bool,
    buffers: CsrBuffers,
) -> SignedGraph {
    let (mut offsets, mut neighbors, mut weights) = buffers;
    let n = graph.num_vertices();
    // Kept entries are positive ones, of which the graph holds at most
    // `2·m⁺ + 1` (`m⁺` halves the positive entry count, which is odd only in a
    // raw CSR whose symmetry was never checked), and a row's last write may land
    // one slot past the kept entries.  Stale contents are overwritten
    // before they are read, and the truncation below drops the rest.
    let slots = 2 * graph.num_positive_edges() + 2;
    neighbors.resize(slots, 0);
    weights.resize(slots, 0.0);
    offsets.clear();
    offsets.reserve(n + 1);
    offsets.push(0);
    let mut kept = 0usize;
    for u in 0..n as VertexId {
        if alive(u) {
            let (nbrs, ws) = graph.neighbor_slices(u);
            for (&v, &w) in nbrs.iter().zip(ws) {
                neighbors[kept] = v;
                weights[kept] = w;
                kept += ((w > 0.0) & alive(v)) as usize;
            }
        }
        offsets.push(kept);
    }
    neighbors.truncate(kept);
    weights.truncate(kept);
    SignedGraph::from_raw_csr_unchecked(offsets, neighbors, weights)
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
        assert!(view.rows_are_exact());
        assert_eq!(view.degree(3), 3);
        assert!((view.weighted_degree(3) - 3.0).abs() < 1e-12);
        // DCSGreedy's max-edge candidate: the heaviest edge of the compact G_D+.
        let compact = view.positive_part_into(Default::default());
        assert_eq!(compact.max_weight_edge(), Some((2, 3, 3.0)));
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
        assert!(!view.rows_are_exact());
        assert_eq!(view.degree(0), 1);
        assert_eq!(view.edges().count(), 2);
        let compact = view.positive_part_into(Default::default());
        assert_eq!(compact.max_weight_edge(), Some((0, 1, 1.0)));
        assert!(view.mask_over(&compact).rows_are_exact());
    }

    #[test]
    fn positive_view_matches_positive_part() {
        let g = fig1_gd();
        let view = GraphView::full(&g).positive_part();
        assert!(view.is_positive_only());
        assert!(!view.rows_are_exact());
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
        // The compact copy keeps 0–1 and 3–4 in row order; 2's row is empty.
        let compact = view.positive_part_into(Default::default());
        assert_eq!(compact, reference);
        assert_eq!(
            compact.clone().into_raw_csr(),
            (
                vec![0, 1, 2, 2, 3, 4],
                vec![1, 0, 4, 3],
                vec![1.0, 1.0, 2.0, 2.0]
            )
        );
        let over = view.mask_over(&compact);
        assert!(!over.is_positive_only());
        assert!(!over.is_alive(2));
        assert_eq!(over.materialize(), reference);
    }

    /// A raw CSR whose symmetry nobody checked can hold an odd number of positive
    /// entries, all of them kept, followed by a dropped one: the copy still has a
    /// slot for that last write.  Debug builds refuse the odd result in
    /// `SignedGraph::from_csr`'s assertion, so this runs in release builds only.
    #[cfg(not(debug_assertions))]
    #[test]
    fn positive_part_into_stays_in_bounds_on_an_asymmetric_csr() {
        let g = SignedGraph::from_raw_csr(
            vec![0, 1, 4, 4, 4],
            vec![1, 0, 2, 3],
            vec![1.0, 1.0, 1.0, -1.0],
        )
        .unwrap();
        assert_eq!(g.num_positive_edges(), 1);
        let compact = GraphView::full(&g).positive_part_into(Default::default());
        assert_eq!(
            compact.into_raw_csr(),
            (vec![0, 1, 3, 3, 3], vec![1, 0, 2], vec![1.0, 1.0, 1.0])
        );
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
