//! The sequential greedy peel against an independent oracle.
//!
//! [`reference_peel`] is a test-local `O(n²)` peel: after the same chunked
//! initialisation as the library (per-vertex degrees over the view's neighbours,
//! summed into 64-vertex chunks that are folded in ascending order), each step
//! scans every alive vertex for the smallest `(degree, vertex id)` key, with
//! degrees compared by `<` (so `-0.0` ties `0.0`) and the smaller id winning
//! ties.  It shares no code with the library's degree heap, so agreement pins the
//! heap's order itself.
//!
//! Graphs carry small-integer signed weights: many vertices tie on degree, and
//! every negative edge raises a neighbour's key when its other end is removed.
//! Removal order, subset, density bits and the interruption flag must all be
//! equal, on full, masked and positive views, through one reused workspace, for
//! complete and interrupted peels.

use dcs_densest::{greedy_peeling_view_into, PeelWorkspace};
use dcs_graph::{GraphBuilder, GraphView, SignedGraph, VertexId, VertexMask, Weight};
use proptest::prelude::*;

/// What one peel produces: the removal order and the best prefix it found.
#[derive(Debug, PartialEq)]
struct Outcome {
    removal_order: Vec<VertexId>,
    subset: Vec<VertexId>,
    density_bits: u64,
    interrupted: bool,
}

/// The oracle.  `limit` interrupts the peel before removal number `limit + 1`,
/// as a `stop` callback that returns `true` on its `limit + 1`-th call does.
fn reference_peel(view: GraphView<'_>, limit: Option<usize>) -> Outcome {
    let n = view.num_vertices();
    let alive_at_start = view.alive_count();
    if alive_at_start == 0 {
        return Outcome {
            removal_order: Vec::new(),
            subset: Vec::new(),
            density_bits: 0.0f64.to_bits(),
            interrupted: false,
        };
    }
    let mut alive = vec![false; n];
    for v in view.vertices() {
        alive[v as usize] = true;
    }
    let mut degree: Vec<Weight> = vec![0.0; n];
    let mut chunk_sums: Vec<Weight> = vec![0.0; n.div_ceil(64)];
    for v in view.vertices() {
        let mut d: Weight = 0.0;
        for e in view.neighbors(v) {
            d += e.weight;
        }
        degree[v as usize] = d;
        chunk_sums[v as usize / 64] += d;
    }
    let mut total: Weight = 0.0;
    for &chunk in &chunk_sums {
        total += chunk;
    }

    let mut alive_count = alive_at_start;
    let mut best_density = total / alive_count as Weight;
    let mut best_size = alive_count;
    let mut removal_order = Vec::new();
    let mut interrupted = false;
    while alive_count > 1 {
        if limit == Some(removal_order.len()) {
            interrupted = true;
            break;
        }
        // Ascending ids, replaced only by a strictly smaller degree: the smallest
        // id wins every tie.
        let mut min: Option<usize> = None;
        for v in 0..n {
            if alive[v] && min.is_none_or(|m| degree[v] < degree[m]) {
                min = Some(v);
            }
        }
        let v = min.expect("an alive vertex remains");
        alive[v] = false;
        let mut removed: Weight = 0.0;
        for e in view.neighbors(v as VertexId) {
            let u = e.neighbor as usize;
            if alive[u] {
                removed += e.weight;
                degree[u] -= e.weight;
            }
        }
        total -= 2.0 * removed;
        alive_count -= 1;
        removal_order.push(v as VertexId);
        let density = total / alive_count as Weight;
        if density > best_density {
            best_density = density;
            best_size = alive_count;
        }
    }

    let (subset, density) = if best_density < 0.0 {
        // Every prefix had negative density: the lowest-id survivor alone.
        let last = (0..n).find(|&v| alive[v]).expect("one vertex remains");
        (vec![last as VertexId], 0.0)
    } else {
        let removed = &removal_order[..alive_at_start - best_size];
        let subset = view.vertices().filter(|v| !removed.contains(v)).collect();
        (subset, best_density)
    };
    Outcome {
        removal_order,
        subset,
        density_bits: density.to_bits(),
        interrupted,
    }
}

/// The library's sequential peel through `ws`, interrupted like the oracle.
fn library_peel(view: GraphView<'_>, ws: &mut PeelWorkspace, limit: Option<usize>) -> Outcome {
    let mut calls = 0usize;
    let (result, interrupted) = greedy_peeling_view_into(view, ws, |units| {
        calls += units as usize;
        limit.is_some_and(|limit| calls > limit)
    });
    Outcome {
        removal_order: ws.removal_order().to_vec(),
        subset: result.subset,
        density_bits: result.average_degree.to_bits(),
        interrupted,
    }
}

/// Strategy: a graph over `1..160` vertices whose edge weights are small
/// integers in `-3..=3` (duplicate pairs add up, so some edges cancel to zero).
fn arb_graph() -> impl Strategy<Value = SignedGraph> {
    (1usize..160).prop_flat_map(|n| {
        let edge = (0..n as u32, 0..n as u32, -3i32..=3);
        (Just(n), proptest::collection::vec(edge, 0..600)).prop_map(|(n, edges)| {
            let mut b = GraphBuilder::new(n);
            for (u, v, w) in edges {
                if u != v {
                    b.add_edge(u, v, Weight::from(w));
                }
            }
            b.build()
        })
    })
}

/// A mask with the listed vertices (those in range) removed.
fn mask_without(g: &SignedGraph, holes: &[u32]) -> VertexMask {
    let mut mask = VertexMask::full(g.num_vertices());
    for &v in holes {
        if (v as usize) < g.num_vertices() {
            mask.remove(v);
        }
    }
    mask
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Complete peels of the full, masked, positive and masked-positive views,
    /// all through one reused workspace, equal the oracle.
    #[test]
    fn sequential_peel_matches_the_oracle_on_every_view(
        g in arb_graph(),
        holes in proptest::collection::vec(0u32..160, 0..40),
    ) {
        let mask = mask_without(&g, &holes);
        let mut ws = PeelWorkspace::new();
        for view in [
            GraphView::full(&g),
            GraphView::masked(&g, &mask),
            GraphView::full(&g).positive_part(),
            GraphView::masked(&g, &mask).positive_part(),
        ] {
            prop_assert_eq!(library_peel(view, &mut ws, None), reference_peel(view, None));
        }
    }

    /// Peels interrupted after `limit` removals equal the oracle interrupted at
    /// the same point, including the best-so-far prefix and its density.
    #[test]
    fn interrupted_peels_match_the_oracle(
        g in arb_graph(),
        holes in proptest::collection::vec(0u32..160, 0..40),
        limit in 0usize..160,
    ) {
        let mask = mask_without(&g, &holes);
        let mut ws = PeelWorkspace::new();
        for view in [
            GraphView::full(&g),
            GraphView::masked(&g, &mask).positive_part(),
        ] {
            prop_assert_eq!(
                library_peel(view, &mut ws, Some(limit)),
                reference_peel(view, Some(limit))
            );
        }
    }
}

/// One workspace carried across peels of graphs of different sizes, in both
/// directions (larger then smaller), still equals the oracle every time.
#[test]
fn one_workspace_across_graph_sizes_matches_the_oracle() {
    let mut state = 0x0DD5_EED5u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut ws = PeelWorkspace::new();
    for n in [700u32, 3, 250, 1, 0, 1024, 90] {
        let mut b = GraphBuilder::new(n as usize);
        for _ in 0..4 * n {
            let (u, v) = ((next() % n as u64) as u32, (next() % n as u64) as u32);
            let w = (next() % 7) as Weight - 3.0;
            if u != v {
                b.add_edge(u, v, w);
            }
        }
        let g = b.build();
        for view in [GraphView::full(&g), GraphView::full(&g).positive_part()] {
            assert_eq!(
                library_peel(view, &mut ws, None),
                reference_peel(view, None),
                "n = {n}"
            );
        }
    }
}
