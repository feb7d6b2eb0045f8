//! Breadth-first neighbourhood traversal.

use std::collections::VecDeque;

use crate::{SignedGraph, VertexId};

/// All vertices within `hops` hops of `start` (including `start` itself).
///
/// Used by the Douban-style generators, which connect users by interest similarity only
/// when they are within 2 hops in the social graph, and by the EgoScan-substitute
/// baseline when growing candidate sets around a seed.
pub fn k_hop_neighborhood(g: &SignedGraph, start: VertexId, hops: u32) -> Vec<VertexId> {
    let n = g.num_vertices();
    let mut dist = vec![u32::MAX; n];
    let mut queue = VecDeque::new();
    let mut out = Vec::new();
    dist[start as usize] = 0;
    queue.push_back(start);
    out.push(start);
    while let Some(u) = queue.pop_front() {
        let du = dist[u as usize];
        if du == hops {
            continue;
        }
        for e in g.neighbors(u) {
            let v = e.neighbor;
            if dist[v as usize] == u32::MAX {
                dist[v as usize] = du + 1;
                out.push(v);
                queue.push_back(v);
            }
        }
    }
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn path_graph(n: usize) -> SignedGraph {
        let mut b = GraphBuilder::new(n);
        for v in 0..(n - 1) as u32 {
            b.add_edge(v, v + 1, 1.0);
        }
        b.build()
    }

    #[test]
    fn k_hop() {
        let g = path_graph(6);
        assert_eq!(k_hop_neighborhood(&g, 0, 2), vec![0, 1, 2]);
        assert_eq!(k_hop_neighborhood(&g, 3, 1), vec![2, 3, 4]);
        assert_eq!(k_hop_neighborhood(&g, 3, 0), vec![3]);
    }
}
