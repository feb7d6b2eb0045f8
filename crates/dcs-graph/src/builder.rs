//! Construction of [`SignedGraph`]s from edge lists.

use crate::{EdgeTriple, SignedGraph, VertexId, Weight};

/// Builder that records an undirected edge list and packs it into CSR form.
///
/// Insertions are kept, in order, in a `Vec` until [`Self::build`], so memory is
/// proportional to the number of insertions (duplicates included).  At build time:
///
/// * Repeated insertions of one undirected edge are summed, left to right in
///   insertion order (the natural fold for co-occurrence and collaboration counts).
/// * Edges whose folded weight is exactly `0.0` are dropped — the paper defines
///   the edge set of the difference graph as `{(u,v) | D(u,v) ≠ 0}`.
///
/// Self-loops are ignored, and adding an edge with an endpoint `>= n` grows the vertex
/// set automatically.
///
/// A caller that needs the folded edges rather than a graph (the difference graph of a
/// text pair merges two edge lists into one CSR) takes them from
/// [`Self::into_sorted_edges`]: the list [`SignedGraph::edges`] of the built graph
/// would yield, without building its CSR.
///
/// ```
/// use dcs_graph::GraphBuilder;
/// let mut b = GraphBuilder::new(3);
/// b.add_edge(0, 1, 1.0);
/// b.add_edge(1, 0, 2.0);   // folded into the previous insertion at build time
/// b.add_edge(1, 2, -3.0);
/// b.add_edge(2, 2, 9.0);   // self loop: ignored
/// let g = b.build();
/// assert_eq!(g.num_edges(), 2);
/// assert_eq!(g.edge_weight(0, 1), Some(3.0));
/// ```
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    n: usize,
    /// Every insertion that is not a self-loop, in insertion order.
    edges: Vec<EdgeTriple>,
}

impl GraphBuilder {
    /// Creates a builder for a graph with `n` vertices.
    pub fn new(n: usize) -> Self {
        GraphBuilder {
            n,
            edges: Vec::new(),
        }
    }

    /// Number of vertices the built graph will have (grows as edges are added).
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Ensures the vertex set covers `0..n`.
    pub fn grow_to(&mut self, n: usize) {
        self.n = self.n.max(n);
    }

    /// Adds the undirected edge `(u, v)` with weight `w`; [`Self::build`] sums it with
    /// every other insertion of the same edge.
    ///
    /// Self-loops (`u == v`) are silently ignored.
    pub fn add_edge(&mut self, u: VertexId, v: VertexId, w: Weight) {
        if u == v {
            return;
        }
        self.grow_to(u.max(v) as usize + 1);
        self.edges.push((u, v, w));
    }

    /// Adds every edge of an iterator of `(u, v, w)` triples.
    pub fn add_edges<I: IntoIterator<Item = EdgeTriple>>(&mut self, edges: I) {
        for (u, v, w) in edges {
            self.add_edge(u, v, w);
        }
    }

    /// Finalises the builder into a CSR [`SignedGraph`].
    ///
    /// Every insertion is bucketed into both endpoint rows in insertion order; each
    /// row is then stable-sorted by neighbor id (enabling binary-search edge lookups),
    /// its duplicates are summed left to right and exact zeros are dropped while the
    /// rows are compacted in place.
    pub fn build(self) -> SignedGraph {
        let GraphBuilder { n, edges } = self;
        // `offsets[v]` first counts row v's insertions, then holds the row's start,
        // and while bucketing serves as its write cursor, ending at the row's end.
        let mut offsets = vec![0usize; n + 1];
        for &(u, v, _) in &edges {
            offsets[u as usize] += 1;
            offsets[v as usize] += 1;
        }
        let mut total = 0;
        for slot in &mut offsets {
            let count = *slot;
            *slot = total;
            total += count;
        }
        let mut neighbors = vec![0 as VertexId; total];
        let mut weights = vec![0.0 as Weight; total];
        for &(u, v, w) in &edges {
            for (row, neighbor) in [(u, v), (v, u)] {
                let cursor = &mut offsets[row as usize];
                neighbors[*cursor] = neighbor;
                weights[*cursor] = w;
                *cursor += 1;
            }
        }
        drop(edges);

        // Row v spans `row_start..offsets[v]`; its compacted copy starts at `out`,
        // which never passes `row_start`, so the rows can be rewritten in place.
        let mut scratch: Vec<(VertexId, Weight)> = Vec::new();
        let mut row_start = 0;
        let mut out = 0;
        for offset in &mut offsets[..n] {
            let row_end = *offset;
            *offset = out;
            let row = row_start..row_end;
            // Input sorted by `(u, v)` fills every row in neighbor order already.
            if !neighbors[row.clone()].windows(2).all(|p| p[0] <= p[1]) {
                scratch.clear();
                scratch.extend(
                    neighbors[row.clone()]
                        .iter()
                        .copied()
                        .zip(weights[row.clone()].iter().copied()),
                );
                scratch.sort_by_key(|&(neighbor, _)| neighbor);
                for (slot, &(neighbor, w)) in row.clone().zip(&scratch) {
                    neighbors[slot] = neighbor;
                    weights[slot] = w;
                }
            }
            let mut i = row.start;
            while i < row.end {
                let neighbor = neighbors[i];
                let mut w = weights[i];
                i += 1;
                while i < row.end && neighbors[i] == neighbor {
                    w += weights[i];
                    i += 1;
                }
                if w != 0.0 {
                    neighbors[out] = neighbor;
                    weights[out] = w;
                    out += 1;
                }
            }
            row_start = row_end;
        }
        offsets[n] = out;
        neighbors.truncate(out);
        neighbors.shrink_to_fit();
        weights.truncate(out);
        weights.shrink_to_fit();
        SignedGraph::from_csr(offsets, neighbors, weights)
    }

    /// Finalises the builder into its vertex count and the edge list that
    /// [`SignedGraph::edges`] of [`Self::build`]'s graph yields, bit for bit: each
    /// edge once as `(u, v, w)` with `u < v`, sorted by `(u, v)`, its insertions summed
    /// left to right in insertion order, exact zeros dropped.
    ///
    /// A list already in that form, as [`crate::io::write_edge_list`] prints one, is
    /// checked in one pass and returned in place.  Any other list has its endpoints
    /// ordered, is stable-sorted by `(u, v)` (so each edge's insertions stay in
    /// insertion order, the order [`Self::build`] sums them in) and is folded in place.
    pub fn into_sorted_edges(self) -> (usize, Vec<EdgeTriple>) {
        let GraphBuilder { n, mut edges } = self;
        let key = |&(u, v, _): &EdgeTriple| (u64::from(u) << 32) | u64::from(v);
        // Key 0 is `(0, 0)`, a self-loop, so it lies below every edge's key.
        let mut last = 0;
        let folded = edges.iter().all(|edge| {
            let ascending = key(edge) > last;
            last = key(edge);
            ascending && edge.0 < edge.1 && edge.2 != 0.0
        });
        if folded {
            return (n, edges);
        }
        for edge in &mut edges {
            if edge.0 > edge.1 {
                *edge = (edge.1, edge.0, edge.2);
            }
        }
        edges.sort_by_key(key);
        let mut out = 0;
        let mut i = 0;
        while i < edges.len() {
            let (u, v, mut w) = edges[i];
            i += 1;
            while i < edges.len() && (edges[i].0, edges[i].1) == (u, v) {
                w += edges[i].2;
                i += 1;
            }
            if w != 0.0 {
                edges[out] = (u, v, w);
                out += 1;
            }
        }
        edges.truncate(out);
        (n, edges)
    }

    /// Convenience: build a graph directly from an edge list.
    pub fn from_edges<I: IntoIterator<Item = EdgeTriple>>(n: usize, edges: I) -> SignedGraph {
        let mut b = GraphBuilder::new(n);
        b.add_edges(edges);
        b.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplicate_policies() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1, 1.0);
        b.add_edge(1, 0, 2.0);
        let g = b.build();
        assert_eq!(g.edge_weight(0, 1), Some(3.0));
    }

    #[test]
    fn zero_weight_edges_are_dropped() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 1.0);
        b.add_edge(0, 1, -1.0); // sums to zero → dropped
        b.add_edge(1, 2, 0.0); // exactly zero → dropped
        let g = b.build();
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.num_vertices(), 3);
    }

    #[test]
    fn grows_vertex_set() {
        let mut b = GraphBuilder::new(0);
        b.add_edge(4, 2, 1.5);
        let g = b.build();
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.degree(0), 0);
        assert_eq!(g.edge_weight(2, 4), Some(1.5));
    }

    #[test]
    fn self_loops_ignored() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(1, 1, 7.0);
        b.add_edge(4, 4, 7.0); // a self-loop does not grow the vertex set either
        let g = b.build();
        assert_eq!(g.num_vertices(), 2);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.neighbor_slices(1), (&[][..], &[][..]));
    }

    #[test]
    fn adjacency_sorted() {
        let mut b = GraphBuilder::new(5);
        b.add_edge(0, 4, 1.0);
        b.add_edge(0, 2, 1.0);
        b.add_edge(0, 3, 1.0);
        b.add_edge(0, 1, 1.0);
        let g = b.build();
        let (nbrs, _) = g.neighbor_slices(0);
        assert_eq!(nbrs, &[1, 2, 3, 4]);
    }

    #[test]
    fn sorted_edges_fold_as_the_build_folds() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(3, 1, 0.1);
        b.add_edge(0, 1, 1.0);
        b.add_edge(1, 3, 0.2);
        b.add_edge(1, 0, -1.0); // cancels (0, 1) exactly
        b.add_edge(2, 0, 0.0); // an explicit zero
        b.add_edge(5, 5, 1.0); // a self-loop does not grow the vertex count
        let built = b.clone().build();
        let (n, edges) = b.into_sorted_edges();
        assert_eq!(n, 4);
        assert_eq!(edges, vec![(1, 3, 0.1 + 0.2)]);
        assert_eq!(edges, built.edges().collect::<Vec<_>>());
    }

    #[test]
    fn folded_sorted_edges_stay_in_place() {
        let mut b = GraphBuilder::new(0);
        b.add_edges([(0, 1, 1.0), (0, 2, -2.0), (1, 2, 3.0)]);
        let before = b.edges.as_ptr();
        let (n, edges) = b.into_sorted_edges();
        assert_eq!((n, edges.as_ptr()), (3, before));
        assert_eq!(edges, vec![(0, 1, 1.0), (0, 2, -2.0), (1, 2, 3.0)]);
    }

    #[test]
    fn from_edges_convenience() {
        let g = GraphBuilder::from_edges(3, vec![(0, 1, 1.0), (1, 2, -2.0)]);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.num_negative_edges(), 1);
    }
}
