//! Connected components, both of the whole graph and of induced subgraphs.
//!
//! The DCS algorithms need connectivity information in two places:
//!
//! * Property 1 / Property 2 of the paper show that an optimal density-contrast subgraph
//!   can always be taken connected in `G_D`; `DCSGreedy` (Algorithm 2, line 9) therefore
//!   refines a disconnected candidate to its best connected component, and
//! * effectiveness experiments verify that returned subgraphs are connected.

use crate::{SignedGraph, VertexId, VertexSubset};

/// Result of a connected-components computation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComponentLabels {
    /// `labels[v]` is the component id of vertex `v` (ids are dense, `0..num_components`),
    /// or `u32::MAX` when the computation was restricted to a subset and `v` is outside it.
    pub labels: Vec<u32>,
    /// Number of components found.
    pub num_components: usize,
}

impl ComponentLabels {
    /// Groups the vertices of each component into a `Vec` of vertex lists.
    pub fn groups(&self) -> Vec<Vec<VertexId>> {
        let mut out = vec![Vec::new(); self.num_components];
        for (v, &c) in self.labels.iter().enumerate() {
            if c != u32::MAX {
                out[c as usize].push(v as VertexId);
            }
        }
        out
    }
}

/// Connected components of the whole graph (isolated vertices form singleton components).
pub fn connected_components(g: &SignedGraph) -> ComponentLabels {
    let n = g.num_vertices();
    let all: Vec<VertexId> = (0..n as VertexId).collect();
    connected_components_of(g, &all)
}

/// Connected components of the subgraph induced by `subset`.
///
/// Vertices outside the subset get label `u32::MAX`.
pub fn connected_components_of(g: &SignedGraph, subset: &[VertexId]) -> ComponentLabels {
    let n = g.num_vertices();
    let members = VertexSubset::from_slice(n, subset);
    let mut labels = vec![u32::MAX; n];
    let mut num_components = 0u32;
    let mut stack: Vec<VertexId> = Vec::new();
    for &start in members.iter() {
        if labels[start as usize] != u32::MAX {
            continue;
        }
        labels[start as usize] = num_components;
        stack.push(start);
        while let Some(u) = stack.pop() {
            for e in g.neighbors(u) {
                let v = e.neighbor;
                if members.contains(v) && labels[v as usize] == u32::MAX {
                    labels[v as usize] = num_components;
                    stack.push(v);
                }
            }
        }
        num_components += 1;
    }
    ComponentLabels {
        labels,
        num_components: num_components as usize,
    }
}

/// Returns `true` if the subgraph induced by `subset` is connected (the empty subset and
/// singletons are considered connected).
pub fn is_connected(g: &SignedGraph, subset: &[VertexId]) -> bool {
    if subset.len() <= 1 {
        return true;
    }
    connected_components_of(g, subset).num_components == 1
}

/// [`is_connected`] with caller-provided membership and scratch buffers: `members`
/// is the (pre-built) subset, `visited` and `stack` are reusable scratch.  Performs
/// no allocation once the scratch has grown to the universe size — the connectivity
/// check of the solver hot path.
pub fn is_connected_scratch(
    g: &SignedGraph,
    members: &VertexSubset,
    visited: &mut VertexSubset,
    stack: &mut Vec<VertexId>,
) -> bool {
    if members.len() <= 1 {
        return true;
    }
    visited.reset_universe(g.num_vertices());
    stack.clear();
    let start = *members.iter().next().expect("non-empty subset");
    visited.insert(start);
    stack.push(start);
    let mut seen = 1usize;
    while let Some(u) = stack.pop() {
        for e in g.neighbors(u) {
            let v = e.neighbor;
            if members.contains(v) && visited.insert(v) {
                seen += 1;
                stack.push(v);
            }
        }
    }
    seen == members.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn two_triangles() -> SignedGraph {
        // {0,1,2} triangle and {3,4,5} triangle, vertex 6 isolated
        GraphBuilder::from_edges(
            7,
            vec![
                (0, 1, 1.0),
                (1, 2, 1.0),
                (0, 2, 1.0),
                (3, 4, -1.0),
                (4, 5, 2.0),
                (3, 5, 1.0),
            ],
        )
    }

    #[test]
    fn whole_graph_components() {
        let g = two_triangles();
        let cc = connected_components(&g);
        assert_eq!(cc.num_components, 3);
        let groups = cc.groups();
        let mut sizes: Vec<usize> = groups.iter().map(|g| g.len()).collect();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![1, 3, 3]);
    }

    #[test]
    fn induced_components() {
        let g = two_triangles();
        // Induce on {0, 2, 3, 4}: {0,2} connected via edge, {3,4} connected via edge
        let cc = connected_components_of(&g, &[0, 2, 3, 4]);
        assert_eq!(cc.num_components, 2);
        assert_eq!(cc.labels[1], u32::MAX);
        assert_eq!(cc.labels[0], cc.labels[2]);
        assert_eq!(cc.labels[3], cc.labels[4]);
        assert_ne!(cc.labels[0], cc.labels[3]);
    }

    #[test]
    fn scratch_connectivity_matches_plain() {
        let g = two_triangles();
        let mut visited = VertexSubset::new(0);
        let mut stack = Vec::new();
        for subset in [
            vec![0, 1, 2],
            vec![0, 1, 3],
            vec![6],
            vec![],
            vec![3, 4, 5, 6],
            (0..7).collect::<Vec<_>>(),
        ] {
            let members = VertexSubset::from_slice(g.num_vertices(), &subset);
            assert_eq!(
                is_connected_scratch(&g, &members, &mut visited, &mut stack),
                is_connected(&g, &subset),
                "subset {subset:?}"
            );
        }
    }

    #[test]
    fn connectivity_predicate() {
        let g = two_triangles();
        assert!(is_connected(&g, &[0, 1, 2]));
        assert!(!is_connected(&g, &[0, 1, 3]));
        assert!(is_connected(&g, &[6]));
        assert!(is_connected(&g, &[]));
    }

    #[test]
    fn empty_graph() {
        let g = SignedGraph::empty(4);
        let cc = connected_components(&g);
        assert_eq!(cc.num_components, 4);
        assert!(is_connected(&g, &[2]));
        assert!(!is_connected(&g, &[1, 2]));
    }
}
