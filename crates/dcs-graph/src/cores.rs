//! k-core decomposition (core numbers) of the *unweighted* skeleton of a graph.
//!
//! The NewSEA smart-initialisation bound (Theorem 6 and the discussion that follows it)
//! needs, for every vertex `u`, an upper bound `τ_u + 1` on the size of the largest clique
//! of `G_{D+}` containing `u`, where `τ_u` is the core number of `u`.  Core numbers are
//! computed with the classical O(n + m) bucket peeling algorithm of Batagelj–Zaveršnik.

use crate::{GraphView, SignedGraph, VertexId};

/// Result of a core decomposition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoreDecomposition {
    /// `core[v]` is the core number of vertex `v`: the largest `k` such that `v` belongs
    /// to a subgraph in which every vertex has (unweighted) degree at least `k`.
    pub core: Vec<u32>,
    /// The degeneracy of the graph (the maximum core number; 0 for an edgeless graph).
    pub degeneracy: u32,
    /// Vertices in the order they were peeled (non-decreasing core number); this is a
    /// degeneracy ordering of the graph.
    pub peel_order: Vec<VertexId>,
}

impl CoreDecomposition {
    /// The vertices of the `k`-core (every vertex with core number >= `k`).
    pub fn k_core(&self, k: u32) -> Vec<VertexId> {
        self.core
            .iter()
            .enumerate()
            .filter(|(_, &c)| c >= k)
            .map(|(v, _)| v as VertexId)
            .collect()
    }
}

/// Computes core numbers of the unweighted skeleton of `g` (edge weights and signs are
/// ignored; every edge counts as 1).
///
/// Runs in O(n + m) time using bucket sort over degrees.
pub fn core_decomposition(g: &SignedGraph) -> CoreDecomposition {
    let n = g.num_vertices();
    if n == 0 {
        return CoreDecomposition {
            core: Vec::new(),
            degeneracy: 0,
            peel_order: Vec::new(),
        };
    }
    let mut degree: Vec<usize> = (0..n).map(|v| g.degree(v as VertexId)).collect();
    let max_degree = degree.iter().copied().max().unwrap_or(0);

    // Bucket sort vertices by degree.
    let mut bin = vec![0usize; max_degree + 2];
    for &d in &degree {
        bin[d] += 1;
    }
    let mut start = 0usize;
    for b in bin.iter_mut() {
        let count = *b;
        *b = start;
        start += count;
    }
    // pos[v] = position of v in vert; vert is sorted by current degree.
    let mut vert = vec![0 as VertexId; n];
    let mut pos = vec![0usize; n];
    {
        let mut cursor = bin.clone();
        for v in 0..n {
            let d = degree[v];
            pos[v] = cursor[d];
            vert[cursor[d]] = v as VertexId;
            cursor[d] += 1;
        }
    }

    let mut core: Vec<u32> = degree.iter().map(|&d| d as u32).collect();
    let mut peel_order = Vec::with_capacity(n);

    for i in 0..n {
        let v = vert[i];
        peel_order.push(v);
        core[v as usize] = degree[v as usize] as u32;
        for e in g.neighbors(v) {
            let u = e.neighbor as usize;
            if degree[u] > degree[v as usize] {
                // Move u one bucket down: swap it with the first vertex of its bucket.
                let du = degree[u];
                let pu = pos[u];
                let pw = bin[du];
                let w = vert[pw];
                if u as VertexId != w {
                    vert.swap(pu, pw);
                    pos[u] = pw;
                    pos[w as usize] = pu;
                }
                bin[du] += 1;
                degree[u] -= 1;
            }
        }
    }

    // Core numbers must be non-decreasing along the peel order; enforce the classical
    // post-condition core[v_i] = max(core[v_i], core[v_{i-1}]) is NOT needed because the
    // bucket algorithm already guarantees it; keep the maximum as degeneracy.
    let degeneracy = core.iter().copied().max().unwrap_or(0);
    CoreDecomposition {
        core,
        degeneracy,
        peel_order,
    }
}

/// Convenience: the degeneracy of `g` (maximum core number).
pub fn degeneracy(g: &SignedGraph) -> u32 {
    core_decomposition(g).degeneracy
}

/// Core numbers of the subgraph exposed by a [`GraphView`] — the alive-induced (and,
/// for positive views, sign-filtered) skeleton — without materialising it.
///
/// Dead vertices get core number 0 and do not appear in the peel order; alive
/// vertices get exactly the core number they would have in
/// [`GraphView::materialize`]'s output.  On a full view this is identical to
/// [`core_decomposition`].
pub fn core_decomposition_view(view: GraphView<'_>) -> CoreDecomposition {
    let mut scratch = CoreScratch::default();
    core_numbers_view_into(view, &mut scratch);
    let degeneracy = scratch.core.iter().copied().max().unwrap_or(0);
    CoreDecomposition {
        core: scratch.core,
        degeneracy,
        peel_order: scratch.peel_order,
    }
}

/// Reusable buffers of [`core_numbers_view_into`].
///
/// The output lands in [`CoreScratch::core`] / [`CoreScratch::peel_order`]; every
/// other field is internal bucket-sort scratch.  Re-running on graphs of the same
/// vertex count allocates nothing — this is the per-solve core-number seeding of
/// NewSEA's smart-initialisation bound, kept inside the solver workspace.
#[derive(Debug, Clone, Default)]
pub struct CoreScratch {
    /// `core[v]` after a run: the core number of `v` (0 for dead vertices).
    pub core: Vec<u32>,
    /// The peel order of the last run (alive vertices, non-decreasing core number).
    pub peel_order: Vec<VertexId>,
    degree: Vec<u32>,
    bin: Vec<u32>,
    cursor: Vec<u32>,
    vert: Vec<VertexId>,
    pos: Vec<u32>,
    alive: Vec<VertexId>,
}

/// [`core_decomposition_view`] into reusable buffers: computes the core numbers and
/// peel order of the view's alive-induced (and sign-filtered) skeleton without
/// allocating in steady state.  Results are identical to the allocating routine.
///
/// A view that [has exact rows](GraphView::rows_are_exact) (a full view, or the
/// caller's mask over a compact `G_{D+}`) is walked on its raw CSR rows; any other
/// view through its filtered neighbour iterator.
pub fn core_numbers_view_into(view: GraphView<'_>, s: &mut CoreScratch) {
    if view.rows_are_exact() {
        let graph = view.graph();
        bucket_cores(view, s, |v| graph.neighbor_slices(v).0.iter().copied())
    } else {
        bucket_cores(view, s, |v| view.neighbors(v).map(|e| e.neighbor))
    }
}

/// The Batagelj–Zaveršnik bucket peel of [`core_numbers_view_into`], over the
/// surviving neighbours `row(v)` of each alive vertex `v`.
fn bucket_cores<I: Iterator<Item = VertexId>>(
    view: GraphView<'_>,
    s: &mut CoreScratch,
    row: impl Fn(VertexId) -> I,
) {
    let n = view.num_vertices();
    s.core.clear();
    s.core.resize(n, 0);
    s.peel_order.clear();
    s.alive.clear();
    s.alive.extend(view.vertices());
    if s.alive.is_empty() {
        return;
    }
    // Vertex ids are `u32`, so degrees, bucket starts and positions fit one too.
    s.degree.clear();
    s.degree.resize(n, 0);
    let mut max_degree = 0u32;
    for &v in &s.alive {
        let d = view.degree(v) as u32;
        s.degree[v as usize] = d;
        max_degree = max_degree.max(d);
    }

    // Bucket sort the alive vertices by degree (same algorithm as the full-graph
    // routine; dead vertices never enter the buckets and no row yields them).
    let m = s.alive.len();
    s.bin.clear();
    s.bin.resize(max_degree as usize + 2, 0);
    for &v in &s.alive {
        s.bin[s.degree[v as usize] as usize] += 1;
    }
    let mut start = 0u32;
    for b in s.bin.iter_mut() {
        let count = *b;
        *b = start;
        start += count;
    }
    s.vert.clear();
    s.vert.resize(m, 0);
    s.pos.clear();
    s.pos.resize(n, 0);
    s.cursor.clear();
    s.cursor.extend_from_slice(&s.bin);
    for &v in &s.alive {
        let d = s.degree[v as usize] as usize;
        s.pos[v as usize] = s.cursor[d];
        s.vert[s.cursor[d] as usize] = v;
        s.cursor[d] += 1;
    }

    for i in 0..m {
        let v = s.vert[i];
        s.peel_order.push(v);
        // No row holds its own vertex, so `v`'s degree stays put below.
        let dv = s.degree[v as usize];
        s.core[v as usize] = dv;
        for u in row(v) {
            let u = u as usize;
            if s.degree[u] > dv {
                let du = s.degree[u] as usize;
                let pu = s.pos[u];
                let pw = s.bin[du];
                let w = s.vert[pw as usize];
                if u as VertexId != w {
                    s.vert.swap(pu as usize, pw as usize);
                    s.pos[u] = pw;
                    s.pos[w as usize] = pu;
                }
                s.bin[du] += 1;
                s.degree[u] -= 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    #[test]
    fn triangle_with_tail() {
        // Triangle {0,1,2} plus path 2-3-4.
        let g = GraphBuilder::from_edges(
            5,
            vec![
                (0, 1, 1.0),
                (1, 2, 1.0),
                (0, 2, 1.0),
                (2, 3, 1.0),
                (3, 4, 1.0),
            ],
        );
        let cd = core_decomposition(&g);
        assert_eq!(cd.core, vec![2, 2, 2, 1, 1]);
        assert_eq!(cd.degeneracy, 2);
        assert_eq!(cd.k_core(2), vec![0, 1, 2]);
        assert_eq!(cd.k_core(1).len(), 5);
        assert_eq!(cd.peel_order.len(), 5);
    }

    #[test]
    fn clique_core_numbers() {
        // K5: every vertex has core number 4.
        let mut b = GraphBuilder::new(5);
        for u in 0..5u32 {
            for v in (u + 1)..5u32 {
                b.add_edge(u, v, 1.0);
            }
        }
        let cd = core_decomposition(&b.build());
        assert!(cd.core.iter().all(|&c| c == 4));
        assert_eq!(cd.degeneracy, 4);
    }

    #[test]
    fn signs_are_ignored() {
        let pos = GraphBuilder::from_edges(3, vec![(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)]);
        let neg = GraphBuilder::from_edges(3, vec![(0, 1, -1.0), (1, 2, -5.0), (0, 2, 2.0)]);
        assert_eq!(core_decomposition(&pos).core, core_decomposition(&neg).core);
    }

    #[test]
    fn star_graph() {
        let g =
            GraphBuilder::from_edges(5, vec![(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0), (0, 4, 1.0)]);
        let cd = core_decomposition(&g);
        assert_eq!(cd.core, vec![1, 1, 1, 1, 1]);
        assert_eq!(cd.degeneracy, 1);
    }

    #[test]
    fn empty_and_edgeless() {
        let cd = core_decomposition(&crate::SignedGraph::empty(0));
        assert_eq!(cd.degeneracy, 0);
        let cd = core_decomposition(&crate::SignedGraph::empty(3));
        assert_eq!(cd.core, vec![0, 0, 0]);
        assert_eq!(degeneracy(&crate::SignedGraph::empty(3)), 0);
    }

    #[test]
    fn view_decomposition_matches_full_and_materialized() {
        let mut b = GraphBuilder::new(8);
        for u in 0..4u32 {
            for v in (u + 1)..4u32 {
                b.add_edge(u, v, 1.0);
            }
        }
        b.add_edge(3, 4, -2.0);
        b.add_edge(4, 5, 1.0);
        b.add_edge(6, 7, 1.0);
        let g = b.build();

        // Full view: identical to the direct routine, peel order included.
        let full = core_decomposition_view(crate::GraphView::full(&g));
        assert_eq!(full, core_decomposition(&g));

        // Masked view: alive cores match the materialised alive-induced graph.
        let mut mask = crate::VertexMask::full(8);
        mask.remove_all(&[0, 6]);
        let view = crate::GraphView::masked(&g, &mask);
        let of_view = core_decomposition_view(view);
        let of_materialized = core_decomposition(&view.materialize());
        assert_eq!(of_view.core, of_materialized.core);
        assert_eq!(of_view.degeneracy, of_materialized.degeneracy);
        assert_eq!(of_view.peel_order.len(), 6);
        assert_eq!(of_view.core[0], 0);

        // Positive view: the negative bridge does not link 3 and 4.
        let positive = core_decomposition_view(crate::GraphView::full(&g).positive_part());
        assert_eq!(positive.core, core_decomposition(&g.positive_part()).core);
    }

    #[test]
    fn clique_upper_bound_property() {
        // For every vertex u of the max clique K of size k, core(u) >= k - 1.
        // Build a K4 {0..3} plus some pendant edges.
        let mut b = GraphBuilder::new(8);
        for u in 0..4u32 {
            for v in (u + 1)..4u32 {
                b.add_edge(u, v, 1.0);
            }
        }
        b.add_edge(0, 4, 1.0);
        b.add_edge(4, 5, 1.0);
        b.add_edge(6, 7, 1.0);
        let cd = core_decomposition(&b.build());
        for u in 0..4 {
            assert!(cd.core[u] >= 3);
        }
    }
}
