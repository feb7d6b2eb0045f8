//! Property-based tests for the graph substrate.

use std::io::BufRead;

use dcs_graph::io::IoError;
use dcs_graph::{
    connected_components, core_decomposition, DeltaGraph, DuplicatePolicy, GraphBuilder,
    SignedGraph, VertexId, Weight,
};
use proptest::prelude::*;
use rustc_hash::FxHashMap;

/// The hash-map build that `GraphBuilder` replaced, kept as its oracle: insertions are
/// folded per `(min, max)` key in insertion order, the non-zero results are bucketed
/// into both endpoint rows and each row is sorted by neighbor.
fn reference_build(
    n: usize,
    policy: DuplicatePolicy,
    insertions: &[(VertexId, VertexId, Weight)],
) -> SignedGraph {
    let mut n = n;
    let mut edges: FxHashMap<(VertexId, VertexId), Weight> = FxHashMap::default();
    for &(u, v, w) in insertions {
        if u == v {
            continue;
        }
        n = n.max(u.max(v) as usize + 1);
        let key = if u < v { (u, v) } else { (v, u) };
        edges
            .entry(key)
            .and_modify(|cur| match policy {
                DuplicatePolicy::Sum => *cur += w,
                DuplicatePolicy::Overwrite => *cur = w,
                DuplicatePolicy::Max => *cur = cur.max(w),
                DuplicatePolicy::Min => *cur = cur.min(w),
            })
            .or_insert(w);
    }
    let mut rows: Vec<Vec<(VertexId, Weight)>> = vec![Vec::new(); n];
    for (&(u, v), &w) in &edges {
        if w != 0.0 {
            rows[u as usize].push((v, w));
            rows[v as usize].push((u, w));
        }
    }
    let mut offsets = vec![0usize];
    let mut neighbors = Vec::new();
    let mut weights = Vec::new();
    for mut row in rows {
        row.sort_unstable_by_key(|&(neighbor, _)| neighbor);
        for (neighbor, w) in row {
            neighbors.push(neighbor);
            weights.push(w);
        }
        offsets.push(neighbors.len());
    }
    SignedGraph::from_raw_csr(offsets, neighbors, weights).unwrap()
}

/// The line-at-a-time numeric reader that `io::read_edge_list` replaced, kept as its
/// oracle (`BufRead::lines`, one `String` per line), building through
/// [`reference_build`].
fn reference_read(text: &str) -> Result<SignedGraph, IoError> {
    let vertex = |token: &str| -> Option<VertexId> {
        if token.is_empty() || !token.bytes().all(|b| b.is_ascii_digit()) {
            return None;
        }
        token.parse().ok()
    };
    let weight = |token: &str| token.parse::<Weight>().ok().filter(|w| w.is_finite());
    let mut insertions = Vec::new();
    for (idx, line) in text.as_bytes().lines().enumerate() {
        let line = line.map_err(IoError::Io)?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with('%') {
            continue;
        }
        let mut it = trimmed.split_whitespace();
        let u = it.next().and_then(vertex);
        let v = it.next().and_then(vertex);
        let w = it.next().map(weight);
        match (u, v, w) {
            (Some(u), Some(v), None) => insertions.push((u, v, 1.0)),
            (Some(u), Some(v), Some(Some(w))) => insertions.push((u, v, w)),
            _ => {
                return Err(IoError::Parse {
                    line_number: idx + 1,
                    line,
                })
            }
        }
    }
    Ok(reference_build(0, DuplicatePolicy::Sum, &insertions))
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

/// Weights that make duplicate folds interesting: exact cancellations, signed zeros,
/// and sums whose rounding depends on their order (`0.1 + 0.2 + 0.3`).
fn arb_weight() -> impl Strategy<Value = Weight> {
    prop_oneof![
        3 => prop::sample::select(vec![1.0, -1.0, 0.5, -0.5, 2.0, 0.0, -0.0, 0.1, 0.2, 0.3, -0.3]),
        1 => -5.0f64..5.0f64,
    ]
}

/// One generated line of an edge-list text: `(kind, u, v, weight, crlf)`.
type LineSpec = (u32, u32, u32, Weight, bool);

/// Renders generated lines into an edge-list text: edges with and without weights,
/// space- and tab-separated, padded, `#`/`%` comments, blank lines, CRLF endings and,
/// rarely, a malformed line.
fn render_edge_list(lines: &[LineSpec], trailing_newline: bool) -> String {
    let mut text = String::new();
    for (i, &(kind, u, v, w, crlf)) in lines.iter().enumerate() {
        let line = match kind {
            0..=5 => format!("{u} {v} {w}"),
            6 | 7 => format!("{u}\t{v}\t{w}"),
            8 | 9 => format!("{u} {v}"),
            10 => format!("  {u}  {v} \t{w}  "),
            11 => format!("# {u} {v} {w}"),
            12 => format!("%{u} {v}"),
            13 => String::new(),
            14 => " \t ".to_owned(),
            15 => format!("{u} {v} {w} trailing tokens"),
            16 => format!("{u}"),
            17 => format!("{u} {v} nan"),
            18 => format!("-{u} {v} {w}"),
            _ => format!("{u} x{v} {w}"),
        };
        text.push_str(&line);
        if i + 1 < lines.len() || trailing_newline {
            text.push_str(if crlf { "\r\n" } else { "\n" });
        }
    }
    text
}

/// Strategy: a random edge list over `n <= 24` vertices with signed weights.
fn arb_graph() -> impl Strategy<Value = SignedGraph> {
    (2usize..24).prop_flat_map(|n| {
        let edge = (0..n as u32, 0..n as u32, -5.0f64..5.0f64);
        (Just(n), proptest::collection::vec(edge, 0..80)).prop_map(|(n, edges)| {
            let mut b = GraphBuilder::new(n);
            for (u, v, w) in edges {
                if u != v && w != 0.0 {
                    b.add_edge(u, v, w);
                }
            }
            b.build()
        })
    })
}

proptest! {
    /// Adjacency is symmetric: the weight of (u, v) equals the weight of (v, u), and
    /// every stored neighbor relation exists in both directions.
    #[test]
    fn adjacency_is_symmetric(g in arb_graph()) {
        for u in g.vertices() {
            for e in g.neighbors(u) {
                prop_assert_eq!(g.edge_weight(e.neighbor, u), Some(e.weight));
            }
        }
    }

    /// The positive part contains exactly the positive edges and no vertex is lost.
    #[test]
    fn positive_part_keeps_positive_edges(g in arb_graph()) {
        let gp = g.positive_part();
        prop_assert_eq!(gp.num_vertices(), g.num_vertices());
        prop_assert_eq!(gp.num_edges(), g.num_positive_edges());
        prop_assert_eq!(gp.num_negative_edges(), 0);
        for (u, v, w) in g.edges() {
            if w > 0.0 {
                prop_assert_eq!(gp.edge_weight(u, v), Some(w));
            } else {
                prop_assert_eq!(gp.edge_weight(u, v), None);
            }
        }
    }

    /// Negating twice is the identity (up to edge order).
    #[test]
    fn double_negation_is_identity(g in arb_graph()) {
        let gg = g.negated().negated();
        prop_assert_eq!(gg.num_edges(), g.num_edges());
        for (u, v, w) in g.edges() {
            prop_assert_eq!(gg.edge_weight(u, v), Some(w));
        }
    }

    /// The sum of weighted degrees equals twice the total weight.
    #[test]
    fn handshake_lemma(g in arb_graph()) {
        let degree_sum: f64 = g.vertices().map(|v| g.weighted_degree(v)).sum();
        prop_assert!((degree_sum - 2.0 * g.total_weight()).abs() < 1e-9);
    }

    /// total_degree over the full vertex set equals the degree sum, and average degree
    /// of the full set equals degree-sum / n.
    #[test]
    fn full_set_metrics(g in arb_graph()) {
        let all: Vec<u32> = g.vertices().collect();
        let w = g.total_degree(&all);
        let degree_sum: f64 = g.vertices().map(|v| g.weighted_degree(v)).sum();
        prop_assert!((w - degree_sum).abs() < 1e-9);
        prop_assert!((g.average_degree(&all) - degree_sum / all.len() as f64).abs() < 1e-9);
    }

    /// Core numbers are upper-bounded by degree and the k-core is non-empty for k <=
    /// degeneracy.
    #[test]
    fn core_numbers_are_sane(g in arb_graph()) {
        let cd = core_decomposition(&g);
        for v in g.vertices() {
            prop_assert!(cd.core[v as usize] as usize <= g.degree(v));
        }
        prop_assert!(!cd.k_core(cd.degeneracy).is_empty() || g.num_vertices() == 0);
        // Within the degeneracy-core, every vertex has induced degree >= degeneracy.
        let kcore = cd.k_core(cd.degeneracy);
        let marks = dcs_graph::VertexSubset::from_slice(g.num_vertices(), &kcore);
        for &v in &kcore {
            let deg_in = g
                .neighbors(v)
                .filter(|e| marks.contains(e.neighbor))
                .count() as u32;
            prop_assert!(deg_in >= cd.degeneracy);
        }
    }

    /// Every connected component is indeed connected and components partition the
    /// vertex set.
    #[test]
    fn components_partition(g in arb_graph()) {
        let cc = connected_components(&g);
        let groups = cc.groups();
        let total: usize = groups.iter().map(|grp| grp.len()).sum();
        prop_assert_eq!(total, g.num_vertices());
        for grp in &groups {
            prop_assert!(dcs_graph::components::is_connected(&g, grp));
        }
        // No edge crosses two components.
        for (u, v, _) in g.edges() {
            prop_assert_eq!(cc.labels[u as usize], cc.labels[v as usize]);
        }
    }

    /// Extracting an induced subgraph preserves induced metrics.
    #[test]
    fn induced_subgraph_preserves_metrics(g in arb_graph(), bits in proptest::collection::vec(any::<bool>(), 24)) {
        let subset: Vec<u32> = g
            .vertices()
            .filter(|&v| bits.get(v as usize).copied().unwrap_or(false))
            .collect();
        let (sub, map) = g.induced_subgraph(&subset);
        let all_new: Vec<u32> = sub.vertices().collect();
        prop_assert_eq!(map.len(), sub.num_vertices());
        prop_assert!((sub.total_degree(&all_new) - g.total_degree(&subset)).abs() < 1e-9);
        prop_assert_eq!(sub.induced_edge_count(&all_new), g.induced_edge_count(&subset));
    }

    /// Edge-list IO round-trips.
    #[test]
    fn io_roundtrip(g in arb_graph()) {
        let mut buf = Vec::new();
        dcs_graph::io::write_edge_list(&g, &mut buf).unwrap();
        let g2 = dcs_graph::io::read_edge_list(buf.as_slice()).unwrap();
        prop_assert_eq!(g2.num_edges(), g.num_edges());
        for (u, v, w) in g.edges() {
            let w2 = g2.edge_weight(u, v).unwrap();
            prop_assert!((w - w2).abs() < 1e-9);
        }
    }

    /// A DeltaGraph driven by an arbitrary mutation sequence (absolute sets,
    /// relative adds, removals via zero, repeated touches of the same edge)
    /// always snapshots to exactly the graph a from-scratch build produces —
    /// including across interleaved snapshots, where clean rows are copied
    /// from the previous snapshot instead of rebuilt.
    #[test]
    fn delta_snapshots_equal_scratch_builds(
        n in 2usize..20,
        ops in proptest::collection::vec((0u32..20, 0u32..20, -4.0f64..4.0, any::<bool>(), any::<bool>()), 0..120),
    ) {
        let mut delta = DeltaGraph::new(n);
        let mut reference: std::collections::BTreeMap<(u32, u32), f64> = std::collections::BTreeMap::new();
        for (i, (u, v, w, absolute, snapshot_now)) in ops.into_iter().enumerate() {
            let (u, v) = (u % n as u32, v % n as u32);
            if u == v {
                continue;
            }
            let key = if u < v { (u, v) } else { (v, u) };
            let value = if absolute {
                delta.set_weight(u, v, w);
                w
            } else {
                delta.add_weight(u, v, w)
            };
            if value == 0.0 {
                reference.remove(&key);
            } else {
                reference.insert(key, value);
            }
            // Snapshot mid-sequence on roughly a third of the operations so the
            // incremental (partially-dirty) rebuild path is exercised.
            if snapshot_now || i % 3 == 0 {
                let snap = delta.snapshot();
                let scratch = GraphBuilder::from_edges(
                    n,
                    reference.iter().map(|(&(a, b), &wt)| (a, b, wt)),
                );
                prop_assert_eq!(&*snap, &scratch);
            }
        }
        let snap = delta.snapshot();
        let scratch = GraphBuilder::from_edges(n, reference.iter().map(|(&(a, b), &wt)| (a, b, wt)));
        prop_assert_eq!(&*snap, &scratch);
        prop_assert_eq!(snap.num_edges(), delta.num_edges());
        // An unchanged version returns the cached snapshot, pointer-equal.
        let again = delta.snapshot();
        prop_assert!(std::sync::Arc::ptr_eq(&snap, &again));
    }
}

proptest! {
    /// The insertion-order CSR build equals the hash-map build bit for bit (offsets,
    /// neighbors, weight bits) under every duplicate policy, on insertion sequences
    /// with duplicates, self-loops, cancelling sums, signed zeros and endpoints past
    /// the initial vertex count.
    #[test]
    fn build_matches_hash_map_reference(
        n in 0usize..10,
        insertions in proptest::collection::vec((0u32..14, 0u32..14, arb_weight()), 0..70),
        policy in prop::sample::select(vec![
            DuplicatePolicy::Sum,
            DuplicatePolicy::Overwrite,
            DuplicatePolicy::Max,
            DuplicatePolicy::Min,
        ]),
    ) {
        let mut builder = GraphBuilder::with_policy(n, policy);
        builder.add_edges(insertions.iter().copied());
        let built = builder.build();
        let reference = reference_build(n, policy, &insertions);
        prop_assert_eq!(csr_bits(&built), csr_bits(&reference));
        prop_assert_eq!(
            (built.num_edges(), built.num_positive_edges(), built.num_negative_edges()),
            (reference.num_edges(), reference.num_positive_edges(), reference.num_negative_edges())
        );
    }

    /// The whole-text reader equals the line-at-a-time reader: the same graph bit for
    /// bit, or the same `IoError::Parse` line number and line text.
    #[test]
    fn reader_matches_line_reader_reference(
        lines in proptest::collection::vec(
            (0u32..20, 0u32..12, 0u32..12, arb_weight(), any::<bool>()),
            0..40,
        ),
        malformed in prop::sample::select(vec![false, false, false, true]),
        trailing_newline in any::<bool>(),
    ) {
        // Kinds 16.. are malformed; most texts keep to the well-formed kinds.
        let lines: Vec<LineSpec> = lines
            .into_iter()
            .map(|(kind, u, v, w, crlf)| (if malformed { kind } else { kind % 16 }, u, v, w, crlf))
            .collect();
        let text = render_edge_list(&lines, trailing_newline);
        match (dcs_graph::io::read_edge_list(text.as_bytes()), reference_read(&text)) {
            (Ok(read), Ok(reference)) => prop_assert_eq!(csr_bits(&read), csr_bits(&reference)),
            (
                Err(IoError::Parse { line_number, line }),
                Err(IoError::Parse { line_number: expected_number, line: expected_line }),
            ) => {
                prop_assert_eq!(line_number, expected_number);
                prop_assert_eq!(line, expected_line);
            }
            (read, reference) => {
                prop_assert!(false, "reader {:?} vs reference {:?}", read, reference);
            }
        }
    }

    /// A masked view is exactly the in-place vertex removal it replaces: same edge
    /// set, same degrees, same metrics — without touching the CSR arrays.
    #[test]
    fn masked_view_equals_in_place_removal(
        g in arb_graph(),
        removal in proptest::collection::vec(0u32..24, 0..12),
    ) {
        use dcs_graph::{GraphView, VertexMask};
        let n = g.num_vertices();
        let removal: Vec<u32> = removal.into_iter().filter(|&v| (v as usize) < n).collect();
        let mut mask = VertexMask::full(n);
        mask.remove_all(&removal);
        let view = GraphView::masked(&g, &mask);
        let mut reference = g.clone();
        reference.remove_vertices_in_place(&removal);
        prop_assert_eq!(view.materialize(), reference.clone());
        prop_assert_eq!(view.edges().count(), reference.num_edges());
        for v in view.vertices() {
            prop_assert_eq!(view.degree(v), reference.degree(v));
            let dv: f64 = view.weighted_degree(v);
            prop_assert!((dv - reference.weighted_degree(v)).abs() < 1e-12);
        }
        // The positive filter composes: view == materialised positive part.
        prop_assert_eq!(
            view.positive_part().materialize(),
            reference.positive_part()
        );
        // Mask bookkeeping is exact.
        let mut unique = removal.clone();
        unique.sort_unstable();
        unique.dedup();
        prop_assert_eq!(mask.len(), n - unique.len());
        prop_assert_eq!(mask.iter().count(), mask.len());
    }

    /// The view's maximum-weight edge is the first strictly heaviest edge in
    /// `edges()` order, on full, masked and positive-filtered views; weights are
    /// drawn from a few values, so ties are common.
    #[test]
    fn max_weight_edge_is_the_first_heaviest_edge(
        n in 2usize..24,
        edges in proptest::collection::vec(
            (0u32..24, 0u32..24, prop::sample::select(vec![2.0, 1.0, 0.5, -1.0, -2.0])),
            0..80,
        ),
        removal in proptest::collection::vec(0u32..24, 0..12),
    ) {
        use dcs_graph::{GraphView, VertexMask};
        let mut b = GraphBuilder::new(n);
        for (u, v, w) in edges {
            if (u as usize) < n && (v as usize) < n && u != v {
                b.add_edge(u, v, w);
            }
        }
        let g = b.build();
        let mut mask = VertexMask::full(n);
        mask.remove_all(&removal.into_iter().filter(|&v| (v as usize) < n).collect::<Vec<_>>());
        for view in [
            GraphView::full(&g),
            GraphView::masked(&g, &mask),
            GraphView::full(&g).positive_part(),
            GraphView::masked(&g, &mask).positive_part(),
        ] {
            let mut first_heaviest: Option<(u32, u32, Weight)> = None;
            for (u, v, w) in view.edges() {
                if first_heaviest.is_none_or(|(_, _, best)| w > best) {
                    first_heaviest = Some((u, v, w));
                }
            }
            prop_assert_eq!(view.max_weight_edge(), first_heaviest);
        }
    }

    /// View-based core decomposition equals the decomposition of the materialised
    /// view for the alive vertices.
    #[test]
    fn view_cores_match_materialized(
        g in arb_graph(),
        removal in proptest::collection::vec(0u32..24, 0..12),
    ) {
        use dcs_graph::{core_decomposition_view, GraphView, VertexMask};
        let n = g.num_vertices();
        let removal: Vec<u32> = removal.into_iter().filter(|&v| (v as usize) < n).collect();
        let mut mask = VertexMask::full(n);
        mask.remove_all(&removal);
        let view = GraphView::masked(&g, &mask);
        let of_view = core_decomposition_view(view);
        let of_materialized = core_decomposition(&view.materialize());
        for v in view.vertices() {
            prop_assert_eq!(of_view.core[v as usize], of_materialized.core[v as usize]);
        }
        prop_assert_eq!(of_view.degeneracy, of_materialized.degeneracy);
    }
}
