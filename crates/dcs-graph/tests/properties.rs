//! Property-based tests for the graph substrate.

use std::collections::BTreeMap;
use std::io::BufRead;

use dcs_graph::io::{IoError, MAX_VERTICES};
use dcs_graph::labels::read_labeled_edge_list;
use dcs_graph::{
    connected_components, core_decomposition, CorruptGraph, DeltaGraph, GraphBuilder, SignedGraph,
    VertexId, VertexLabels, Weight,
};
use proptest::prelude::*;
use rustc_hash::FxHashMap;

/// The hash-map build that `GraphBuilder` replaced, kept as its oracle: insertions are
/// summed per `(min, max)` key in insertion order, the non-zero results are bucketed
/// into both endpoint rows and each row is sorted by neighbor.
fn reference_build(n: usize, insertions: &[(VertexId, VertexId, Weight)]) -> SignedGraph {
    let mut n = n;
    let mut edges: FxHashMap<(VertexId, VertexId), Weight> = FxHashMap::default();
    for &(u, v, w) in insertions {
        if u == v {
            continue;
        }
        n = n.max(u.max(v) as usize + 1);
        let key = if u < v { (u, v) } else { (v, u) };
        edges.entry(key).and_modify(|cur| *cur += w).or_insert(w);
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
/// [`reference_build`].  A well-formed line whose id is not below `MAX_VERTICES` is
/// refused as the reader refuses it, first endpoint first.
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
        let (u, v, w) = match (u, v, w) {
            (Some(u), Some(v), None) => (u, v, 1.0),
            (Some(u), Some(v), Some(Some(w))) => (u, v, w),
            _ => {
                return Err(IoError::Parse {
                    line_number: idx + 1,
                    line,
                })
            }
        };
        if let Some(id) = [u, v].into_iter().find(|&id| id as usize >= MAX_VERTICES) {
            return Err(IoError::VertexLimit {
                line_number: idx + 1,
                id,
                limit: MAX_VERTICES,
            });
        }
        insertions.push((u, v, w));
    }
    Ok(reference_build(0, &insertions))
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

/// The `str::lines` / `trim` / `split_whitespace` walker that the byte walker of
/// `io::for_each_edge` replaced, kept as its oracle.  `edge` returns whether it accepts
/// a line's endpoints, or the id that breaks the vertex limit.
fn reference_for_each_edge<'t>(
    text: &'t str,
    mut edge: impl FnMut(&'t str, &'t str, Weight) -> Result<bool, VertexId>,
) -> Result<(), IoError> {
    let weight = |token: &str| token.parse::<Weight>().ok().filter(|w| w.is_finite());
    for (idx, line) in text.lines().enumerate() {
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with('%') {
            continue;
        }
        let mut tokens = trimmed.split_whitespace();
        let accepted = match (tokens.next(), tokens.next(), tokens.next().map(weight)) {
            (Some(u), Some(v), None) => edge(u, v, 1.0),
            (Some(u), Some(v), Some(Some(w))) => edge(u, v, w),
            _ => Ok(false),
        };
        match accepted {
            Ok(true) => {}
            Ok(false) => {
                return Err(IoError::Parse {
                    line_number: idx + 1,
                    line: line.to_owned(),
                })
            }
            Err(id) => {
                return Err(IoError::VertexLimit {
                    line_number: idx + 1,
                    id,
                    limit: MAX_VERTICES,
                })
            }
        }
    }
    Ok(())
}

/// The numeric reader over [`reference_for_each_edge`], feeding `GraphBuilder`: ids are
/// ASCII digits that fit a `u32` (checked with `str::parse`), then below the limit.
fn reference_numeric_read(text: &str) -> Result<SignedGraph, IoError> {
    let vertex = |token: &str| -> Option<VertexId> {
        if token.is_empty() || !token.bytes().all(|b| b.is_ascii_digit()) {
            return None;
        }
        token.parse().ok()
    };
    let mut builder = GraphBuilder::new(0);
    reference_for_each_edge(text, |u, v, w| {
        let (Some(u), Some(v)) = (vertex(u), vertex(v)) else {
            return Ok(false);
        };
        for id in [u, v] {
            if id as usize >= MAX_VERTICES {
                return Err(id);
            }
        }
        builder.add_edge(u, v, w);
        Ok(true)
    })?;
    Ok(builder.build())
}

/// The labelled reader over [`reference_for_each_edge`], feeding `GraphBuilder`.
fn reference_labeled_read(text: &str, labels: &mut VertexLabels) -> Result<SignedGraph, IoError> {
    let mut builder = GraphBuilder::new(0);
    reference_for_each_edge(text, |u, v, w| {
        let u = labels.intern(u);
        let v = labels.intern(v);
        builder.add_edge(u, v, w);
        Ok(true)
    })?;
    builder.grow_to(labels.len());
    Ok(builder.build())
}

/// Whether a reader and its oracle agree: the same graph bit for bit, or the same
/// error with the same line number and line text (or id and limit).
fn same_read(
    read: Result<SignedGraph, IoError>,
    reference: Result<SignedGraph, IoError>,
) -> Result<(), TestCaseError> {
    match (read, reference) {
        (Ok(read), Ok(reference)) => prop_assert_eq!(csr_bits(&read), csr_bits(&reference)),
        (
            Err(IoError::Parse { line_number, line }),
            Err(IoError::Parse {
                line_number: expected_number,
                line: expected_line,
            }),
        ) => {
            prop_assert_eq!(line_number, expected_number);
            prop_assert_eq!(line, expected_line);
        }
        (
            Err(IoError::VertexLimit {
                line_number,
                id,
                limit,
            }),
            Err(IoError::VertexLimit {
                line_number: expected_number,
                id: expected_id,
                limit: expected_limit,
            }),
        ) => prop_assert_eq!(
            (line_number, id, limit),
            (expected_number, expected_id, expected_limit)
        ),
        (read, reference) => {
            prop_assert!(false, "reader {:?} vs reference {:?}", read, reference);
        }
    }
    Ok(())
}

/// Every separator character of the token rules: the six ASCII whitespace bytes
/// (vertical tab and form feed included), `\r` and Unicode whitespace beyond ASCII.
const SEPARATORS: [&str; 11] = [
    " ", "\t", "\u{0B}", "\u{0C}", "\r", " ", "\u{85}", "\u{A0}", "\u{2028}", "\u{3000}", "\t ",
];

/// Tokens for the structured edge-list texts: ids (leading zeros too), integer and
/// other weights, non-finite weights, comment starters, labels with non-ASCII
/// characters that are not whitespace, and ids past the vertex limit or past `u32`.
const TOKENS: [&str; 32] = [
    "0",
    "1",
    "2",
    "3",
    "5",
    "8",
    "13",
    "007",
    "0",
    "1",
    "2",
    "4",
    "2.5",
    "-1",
    "+3",
    "1e1",
    "-0",
    "-0.5",
    "010",
    "nan",
    "inf",
    "#",
    "%",
    "#1",
    "%x",
    "x",
    "é",
    "中",
    "1\u{200B}",
    "a-b",
    "4000000000",
    "99999999999",
];

/// A structured edge-list text: lines of tokens joined by runs of separators, with
/// leading and trailing separators, `\n`, `\r\n` and `\r\r\n` endings and a last line
/// that may be unterminated or end in a bare `\r`.
fn arb_token_text() -> impl Strategy<Value = String> {
    let separators = proptest::collection::vec(prop::sample::select(SEPARATORS.to_vec()), 1..3);
    let token = (prop::sample::select(TOKENS.to_vec()), separators.clone());
    let line = (
        proptest::collection::vec(prop::sample::select(SEPARATORS.to_vec()), 0..2),
        proptest::collection::vec(token, 0..5),
        prop::sample::select(vec!["\n", "\n", "\n", "\r\n", "\r\r\n"]),
    );
    (
        proptest::collection::vec(line, 0..12),
        prop::sample::select(vec!["", "", "\r", " "]),
    )
        .prop_map(|(lines, tail)| {
            let mut text = String::new();
            for (lead, tokens, ending) in lines {
                text.extend(lead);
                for (token, separators) in tokens {
                    text.push_str(token);
                    text.extend(separators);
                }
                text.push_str(ending);
            }
            if !tail.is_empty() {
                text.push('7');
                text.push_str(tail);
            }
            text
        })
}

/// Characters that never join into a digit run: separators, line endings, the
/// characters of number syntax, letters, comment starters and non-ASCII characters.
const TEXT_CHARS: [&str; 26] = [
    " ", "\t", "\n", "\n", "\u{0B}", "\u{0C}", "\r", "\r\n", "\u{85}", "\u{A0}", "\u{2028}",
    "\u{3000}", ".", "-", "+", "e", "a", "Z", "#", "%", "é", "中", "\u{200B}", " ", " ", "\n",
];

/// A character soup over [`TEXT_CHARS`] and digit runs.  A digit run is at most three
/// digits (leading zeros too), or an id past the vertex limit or past `u32`, and is
/// always followed by a character of [`TEXT_CHARS`], so no run can address a vertex
/// array larger than 1,000 entries.
fn arb_char_text() -> impl Strategy<Value = String> {
    let digits = prop_oneof![
        3 => "[0-9]{0,3}".prop_map(|d| d),
        1 => prop::sample::select(vec!["4000000000".to_owned(), "99999999999".to_owned()]),
    ];
    proptest::collection::vec((digits, prop::sample::select(TEXT_CHARS.to_vec())), 0..60).prop_map(
        |atoms| {
            atoms
                .into_iter()
                .flat_map(|(digits, c)| [digits, c.to_owned()])
                .collect()
        },
    )
}

/// The per-row CSR check that `validate_csr` ran before its fast pass,
/// kept as its oracle: the first violation in row order, or the entry counts.
fn reference_validate(
    offsets: &[usize],
    neighbors: &[VertexId],
    weights: &[Weight],
) -> Result<(usize, usize), CorruptGraph> {
    let (&last, _) = offsets.split_last().ok_or(CorruptGraph::EmptyOffsets)?;
    if offsets[0] != 0 {
        return Err(CorruptGraph::NonzeroFirstOffset { first: offsets[0] });
    }
    if neighbors.len() != weights.len() {
        return Err(CorruptGraph::LengthMismatch {
            neighbors: neighbors.len(),
            weights: weights.len(),
        });
    }
    if last != neighbors.len() {
        return Err(CorruptGraph::OffsetEndMismatch {
            last,
            entries: neighbors.len(),
        });
    }
    if !neighbors.len().is_multiple_of(2) {
        return Err(CorruptGraph::OddEntryCount {
            entries: neighbors.len(),
        });
    }
    let n = offsets.len() - 1;
    let mut positive = 0usize;
    let mut negative = 0usize;
    for v in 0..n {
        let start = offsets[v];
        let end = offsets[v + 1];
        if end < start || end > neighbors.len() {
            return Err(CorruptGraph::NonMonotoneOffsets { vertex: v });
        }
        let mut prev: Option<VertexId> = None;
        for &t in &neighbors[start..end] {
            if (t as usize) >= n {
                return Err(CorruptGraph::TargetOutOfRange {
                    vertex: v,
                    target: t,
                });
            }
            if (t as usize) == v {
                return Err(CorruptGraph::SelfLoop { vertex: v });
            }
            if let Some(p) = prev {
                if t <= p {
                    return Err(CorruptGraph::UnsortedRow { vertex: v });
                }
            }
            prev = Some(t);
        }
        for &w in &weights[start..end] {
            if !w.is_finite() {
                return Err(CorruptGraph::NonFiniteWeight { vertex: v });
            }
            if w == 0.0 {
                return Err(CorruptGraph::ZeroWeight { vertex: v });
            }
            if w > 0.0 {
                positive += 1;
            } else {
                negative += 1;
            }
        }
    }
    Ok((positive, negative))
}

/// A CSR triple as `from_raw_csr` takes it.
type RawCsr = (Vec<usize>, Vec<VertexId>, Vec<Weight>);

/// `from_raw_csr` on a triple, as `(edges, positive edges, negative edges)` or the
/// rejection; the triple determines the directed entry counts exactly.
fn checked_counts(csr: &RawCsr) -> Result<(usize, usize, usize), CorruptGraph> {
    let (offsets, neighbors, weights) = csr.clone();
    SignedGraph::from_raw_csr(offsets, neighbors, weights).map(|g| {
        (
            g.num_edges(),
            g.num_positive_edges(),
            g.num_negative_edges(),
        )
    })
}

/// [`reference_validate`] in the shape of [`checked_counts`].
fn reference_counts(csr: &RawCsr) -> Result<(usize, usize, usize), CorruptGraph> {
    reference_validate(&csr.0, &csr.1, &csr.2).map(|(pos, neg)| ((pos + neg) / 2, pos / 2, neg / 2))
}

/// Strategy: a valid CSR triple over `1..12` vertices whose rows are random strictly
/// ascending neighbor sets (not necessarily symmetric, so a row often starts below
/// where the previous one ended) with weights of both signs from subnormal to
/// `f64::MAX`; the last entry is dropped when the entry count is odd.
fn arb_valid_csr() -> impl Strategy<Value = RawCsr> {
    (1usize..12).prop_flat_map(|n| {
        let weight = prop_oneof![
            3 => -5.0f64..5.0f64,
            1 => prop::sample::select(vec![
                f64::MAX, -f64::MAX, f64::MIN_POSITIVE, -f64::MIN_POSITIVE, 5e-324, -5e-324,
            ]),
        ];
        let entry = (any::<bool>(), weight);
        (
            Just(n),
            proptest::collection::vec(proptest::collection::vec(entry, n..n + 1), n..n + 1),
        )
            .prop_map(|(n, rows)| {
                let mut offsets = vec![0];
                let mut neighbors = Vec::new();
                let mut weights = Vec::new();
                for (v, row) in rows.into_iter().enumerate() {
                    for (t, (present, w)) in row.into_iter().enumerate() {
                        if present && t != v && w != 0.0 {
                            neighbors.push(t as VertexId);
                            weights.push(w);
                        }
                    }
                    offsets.push(neighbors.len());
                }
                if !neighbors.len().is_multiple_of(2) {
                    neighbors.pop();
                    weights.pop();
                    let end = neighbors.len();
                    for offset in offsets.iter_mut().rev() {
                        if *offset <= end {
                            break;
                        }
                        *offset = end;
                    }
                }
                debug_assert_eq!(offsets.len(), n + 1);
                (offsets, neighbors, weights)
            })
    })
}

/// Applies corruption `kind` at position `at` (taken modulo the array it lands in) to
/// a valid CSR triple.
fn corrupt(csr: &mut RawCsr, kind: u32, at: usize) {
    let (offsets, neighbors, weights) = csr;
    let n = offsets.len() - 1;
    let entries = neighbors.len();
    match kind {
        0 => offsets.clear(),
        1 => offsets[0] = 1 + at % 3,
        2 => {
            // A bad interior offset: below its predecessor or past the end.
            if n >= 2 {
                let i = 1 + at % (n - 1);
                offsets[i] = if at.is_multiple_of(2) {
                    entries + 1 + at % 3
                } else {
                    0
                };
            }
        }
        3 => *offsets.last_mut().unwrap() += 2,
        4 => {
            weights.push(1.0);
        }
        5 => {
            neighbors.push(0);
            weights.push(1.0);
            *offsets.last_mut().unwrap() += 1;
        }
        _ if entries == 0 => {}
        6 => neighbors[at % entries] = (n + at % 3) as VertexId,
        7 => {
            // A self-loop: the entry takes its own row's vertex.
            let i = at % entries;
            let v = offsets.partition_point(|&o| o <= i) - 1;
            neighbors[i] = v as VertexId;
        }
        8 => {
            // A duplicate neighbor: an entry repeats its predecessor.
            let i = at % entries;
            if i > 0 {
                neighbors[i] = neighbors[i - 1];
            }
        }
        9 => weights[at % entries] = 0.0,
        10 => weights[at % entries] = -0.0,
        11 => weights[at % entries] = f64::from_bits(f64::NAN.to_bits() | 1 << 63),
        12 => weights[at % entries] = f64::NAN,
        13 => weights[at % entries] = f64::INFINITY,
        _ => weights[at % entries] = f64::NEG_INFINITY,
    }
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

/// Vertex ids for the fast-line boundary texts: small ids, zero-padded to the 9 digits
/// a fast line takes and to 10 that it leaves to the token walker, the last id below
/// the vertex limit, the limit itself, a 9-digit id past it and `2^32`.
fn arb_boundary_id() -> impl Strategy<Value = String> {
    prop_oneof![
        12 => (0u32..12).prop_map(|id| id.to_string()),
        3 => (0u32..12).prop_map(|id| format!("{id:09}")),
        3 => (0u32..12).prop_map(|id| format!("{id:010}")),
        1 => prop::sample::select(vec![
            "49999999".to_owned(),
            "50000000".to_owned(),
            "999999999".to_owned(),
            "4294967296".to_owned(),
        ]),
    ]
}

/// Weights for the fast-line boundary texts: short integers, the 15 digits a fast
/// line takes (zero-padded, and the largest) and 16 that it leaves to the token
/// walker (zero-padded, and values `str::parse` rounds), zero, and tokens that are
/// not integers.
fn arb_boundary_weight() -> impl Strategy<Value = String> {
    prop_oneof![
        8 => (1u32..10).prop_map(|w| w.to_string()),
        2 => (0u32..10).prop_map(|w| format!("{w:015}")),
        2 => (0u32..10).prop_map(|w| format!("{w:016}")),
        1 => prop::sample::select(vec![
            "999999999999999".to_owned(),
            "9007199254740993".to_owned(),
            "1234567890123457".to_owned(),
            "0".to_owned(),
            "2.5".to_owned(),
            "-1".to_owned(),
        ]),
    ]
}

/// A fast-line boundary text: mostly plain `u v w` and `u v` lines, the form the
/// numeric reader takes in one pass, mixed line by line with its near misses (a
/// doubled or trailing space, a tab, `\r\n`, comments) and with the boundary ids and
/// weights above; the last line may lack its newline.  A text that names the id
/// 49,999,999 ends in a malformed line, so that neither reader sizes a graph by it.
fn arb_fast_line_text() -> impl Strategy<Value = String> {
    let line = (
        (
            prop::sample::select(vec![0u8, 0, 0, 0, 0, 1, 1, 2]),
            arb_boundary_id(),
            arb_boundary_id(),
            arb_boundary_weight(),
        ),
        (
            prop::sample::select(vec![" ", " ", " ", " ", " ", " ", "  ", "\t"]),
            prop::sample::select(vec!["", "", "", "", "", " ", "\t"]),
            prop::sample::select(vec!["\n", "\n", "\n", "\n", "\n", "\r\n"]),
        ),
    );
    (proptest::collection::vec(line, 0..16), any::<bool>()).prop_map(|(lines, final_newline)| {
        let mut text = String::new();
        let count = lines.len();
        for (i, ((kind, u, v, w), (separator, trailing, ending))) in lines.into_iter().enumerate() {
            match kind {
                0 => text.push_str(&format!("{u}{separator}{v} {w}{trailing}")),
                1 => text.push_str(&format!("{u} {v}{separator}{trailing}")),
                _ => text.push_str(if w.len() % 2 == 0 { "# 0 1 2" } else { "%x" }),
            }
            if i + 1 < count || final_newline {
                text.push_str(ending);
            }
        }
        if text.contains("49999999") {
            text.push_str("\n0 x\n");
        }
        text
    })
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

/// Strategy: a sparse graph over up to 64 vertices, so most draws have
/// empty rows (first, last and in between).
fn arb_sparse_graph() -> impl Strategy<Value = SignedGraph> {
    (1usize..64).prop_flat_map(|n| {
        let edge = (0..n as u32, 0..n as u32, -5.0f64..5.0f64);
        (Just(n), proptest::collection::vec(edge, 0..24)).prop_map(|(n, edges)| {
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
    /// `edges` walks each row from its first neighbour above the row; it
    /// yields the same sequence, weights bit for bit, as filtering every
    /// neighbour of every row, including on graphs with empty rows.
    #[test]
    fn edges_equal_the_filtered_walk(g in arb_sparse_graph()) {
        let filtered: Vec<(VertexId, VertexId, u64)> = g
            .vertices()
            .flat_map(|u| {
                g.neighbors(u)
                    .filter(move |e| u < e.neighbor)
                    .map(move |e| (u, e.neighbor, e.weight.to_bits()))
            })
            .collect();
        let walked: Vec<(VertexId, VertexId, u64)> =
            g.edges().map(|(u, v, w)| (u, v, w.to_bits())).collect();
        prop_assert_eq!(walked.len(), g.num_edges());
        prop_assert_eq!(walked, filtered);
    }

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

    /// A DeltaGraph started from a random graph and driven by an arbitrary
    /// mutation sequence (absolute sets, relative adds, removals via zero,
    /// cancelling sums, repeated touches of the same edge, and bulk phases that
    /// change every row) always snapshots to exactly the graph a from-scratch
    /// build produces, bit for bit — including across interleaved snapshots,
    /// where unchanged rows are copied from the previous snapshot and changed
    /// rows merged with their changes.
    #[test]
    fn delta_snapshots_equal_scratch_builds(
        start in arb_graph(),
        ops in proptest::collection::vec(
            (0u32..24, 0u32..24, arb_weight(), any::<bool>(), any::<bool>(), 0u32..12),
            0..120,
        ),
    ) {
        let n = start.num_vertices() as u32;
        let mut delta = DeltaGraph::from_graph(start.clone());
        let mut reference: BTreeMap<(u32, u32), f64> =
            start.edges().map(|(u, v, w)| ((u, v), w)).collect();
        prop_assert!(std::sync::Arc::ptr_eq(&delta.snapshot(), &delta.snapshot()));
        prop_assert_eq!(&*delta.snapshot(), &start);
        for (i, (u, v, w, absolute, snapshot_now, bulk)) in ops.into_iter().enumerate() {
            // One operation in twelve is a bulk phase: an edge at every vertex
            // changes, so every row of the next snapshot is merged.
            let touched: Vec<(u32, u32, f64)> = if bulk == 0 {
                (0..n)
                    .map(|a| (a, (a + 1 + u % (n - 1)) % n, w + f64::from(a % 3)))
                    .collect()
            } else {
                vec![(u % n, v % n, w)]
            };
            for (a, b, w) in touched {
                if a == b {
                    continue;
                }
                let value = if absolute {
                    w
                } else {
                    delta.weight(a, b).unwrap_or(0.0) + w
                };
                delta.set_weight(a, b, value);
                let key = (a.min(b), a.max(b));
                if value == 0.0 {
                    reference.remove(&key);
                } else {
                    reference.insert(key, value);
                }
                prop_assert_eq!(delta.weight(a, b), reference.get(&key).copied());
            }
            prop_assert_eq!(delta.num_edges(), reference.len());
            // Snapshot mid-sequence on roughly a third of the operations so the
            // merge of a partly changed graph is exercised.  The unmerged walk
            // reads the same edges first.
            if snapshot_now || i % 3 == 0 {
                let mut walked: Vec<_> =
                    delta.edges().map(|(u, v, w)| ((u, v), w.to_bits())).collect();
                walked.sort_unstable();
                let expected: Vec<_> =
                    reference.iter().map(|(&key, &w)| (key, w.to_bits())).collect();
                prop_assert_eq!(walked, expected);
                let snap = delta.snapshot();
                let scratch = scratch_build(n as usize, &reference);
                prop_assert_eq!(csr_bits(&snap), csr_bits(&scratch));
                prop_assert_eq!(&*snap, &scratch);
            }
        }
        let snap = delta.snapshot();
        let scratch = scratch_build(n as usize, &reference);
        prop_assert_eq!(csr_bits(&snap), csr_bits(&scratch));
        prop_assert_eq!(&*snap, &scratch);
        prop_assert_eq!(snap.num_edges(), delta.num_edges());
        // An unchanged version returns the cached snapshot, pointer-equal.
        let again = delta.snapshot();
        prop_assert!(std::sync::Arc::ptr_eq(&snap, &again));
    }

    /// A snapshot a caller still holds is never rewritten.  Every k-th snapshot
    /// is kept alive while the graph keeps changing and snapshotting; at the end
    /// each held one still equals the scratch build of its moment, and no two
    /// live snapshots share buffers, so only unheld snapshots were recycled.
    #[test]
    fn held_snapshots_are_never_rewritten(
        start in arb_graph(),
        rounds in proptest::collection::vec(
            proptest::collection::vec((0u32..24, 0u32..24, arb_weight()), 1..8),
            1..30,
        ),
        k in 1usize..4,
    ) {
        let n = start.num_vertices() as u32;
        let mut delta = DeltaGraph::from_graph(start.clone());
        let mut reference: BTreeMap<(u32, u32), f64> =
            start.edges().map(|(u, v, w)| ((u, v), w)).collect();
        let mut held: Vec<(std::sync::Arc<SignedGraph>, SignedGraph)> = Vec::new();
        for (i, round) in rounds.into_iter().enumerate() {
            for (u, v, w) in round {
                let (u, v) = (u % n, v % n);
                if u == v {
                    continue;
                }
                delta.set_weight(u, v, w);
                if w == 0.0 {
                    reference.remove(&(u.min(v), u.max(v)));
                } else {
                    reference.insert((u.min(v), u.max(v)), w);
                }
            }
            let snap = delta.snapshot();
            for (other, _) in &held {
                if !std::sync::Arc::ptr_eq(other, &snap) && snap.num_edges() > 0 {
                    prop_assert!(weights_at(other) != weights_at(&snap));
                }
            }
            if i % k == 0 {
                held.push((snap, scratch_build(n as usize, &reference)));
            }
        }
        for (snap, expected) in &held {
            prop_assert_eq!(csr_bits(snap), csr_bits(expected));
        }
    }
}

/// Insertions shaped for [`GraphBuilder::into_sorted_edges`]: each drawn edge is
/// inserted once, twice in both orientations, as a pair that cancels exactly, with an
/// explicit zero weight, or as a self-loop, over ids past the initial vertex count;
/// the insertions are then shuffled, kept as drawn, or replaced by the folded edges of
/// their graph (the list that is returned in place).
fn arb_edge_insertions() -> impl Strategy<Value = (usize, Vec<(VertexId, VertexId, Weight)>)> {
    (
        0usize..10,
        proptest::collection::vec(
            (0u32..14, 0u32..14, 0u8..5, arb_weight(), arb_weight()),
            0..40,
        ),
        proptest::collection::vec(any::<u32>(), 80),
        0u8..3,
    )
        .prop_map(|(n, drawn, keys, order)| {
            let mut insertions = Vec::new();
            for (u, v, kind, a, b) in drawn {
                match kind {
                    0 => insertions.push((u, v, a)),
                    1 => insertions.extend([(u, v, a), (v, u, b)]),
                    2 => insertions.extend([(v, u, a), (u, v, -a)]),
                    3 => insertions.push((v, u, 0.0)),
                    _ => insertions.push((u, u, a)),
                }
            }
            match order {
                0 => {
                    let mut keyed: Vec<_> = insertions.into_iter().zip(keys).collect();
                    keyed.sort_by_key(|&(_, key)| key);
                    insertions = keyed.into_iter().map(|(edge, _)| edge).collect();
                }
                1 => {}
                _ => insertions = GraphBuilder::from_edges(n, insertions).edges().collect(),
            }
            (n, insertions)
        })
}

proptest! {
    /// `into_sorted_edges` returns the built graph's vertex count and `edges()`, weight
    /// bits included, and `from_edges` over that list builds the same graph again.
    #[test]
    fn sorted_edges_are_the_built_graphs_edges((n, insertions) in arb_edge_insertions()) {
        let mut builder = GraphBuilder::new(n);
        builder.add_edges(insertions.iter().copied());
        let built = builder.clone().build();
        let (vertices, edges) = builder.into_sorted_edges();
        prop_assert_eq!(vertices, built.num_vertices());
        let bits = |edges: &mut dyn Iterator<Item = (VertexId, VertexId, Weight)>| {
            edges.map(|(u, v, w)| (u, v, w.to_bits())).collect::<Vec<_>>()
        };
        prop_assert_eq!(bits(&mut edges.iter().copied()), bits(&mut built.edges()));
        let rebuilt = GraphBuilder::from_edges(vertices, edges.iter().copied());
        prop_assert_eq!(csr_bits(&rebuilt), csr_bits(&built));
    }
}

/// The graph a from-scratch build gives for the `(min, max)`-keyed edges of
/// `reference`.
fn scratch_build(n: usize, reference: &BTreeMap<(u32, u32), f64>) -> SignedGraph {
    GraphBuilder::from_edges(n, reference.iter().map(|(&(a, b), &w)| (a, b, w)))
}

/// Where the weight column of `g` starts (row 0 starts at offset 0).
fn weights_at(g: &SignedGraph) -> *const Weight {
    g.neighbor_slices(0).1.as_ptr()
}

proptest! {
    /// The insertion-order CSR build equals the hash-map build bit for bit (offsets,
    /// neighbors, weight bits), on insertion sequences with duplicates, self-loops,
    /// cancelling sums, signed zeros and endpoints past the initial vertex count.
    #[test]
    fn build_matches_hash_map_reference(
        n in 0usize..10,
        insertions in proptest::collection::vec((0u32..14, 0u32..14, arb_weight()), 0..70),
    ) {
        let mut builder = GraphBuilder::new(n);
        builder.add_edges(insertions.iter().copied());
        let built = builder.build();
        let reference = reference_build(n, &insertions);
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

    /// The maximum-weight edge DCSGreedy takes (the flat weight-column scan of
    /// `SignedGraph::max_weight_edge`, on the compact positive part of its view)
    /// is the first strictly heaviest positive edge in `edges()` order, as the
    /// row scan it replaced found it, on full and masked views; on a whole graph
    /// or a materialised view it is the first heaviest edge of any sign.  Weights
    /// are drawn from a few values, so ties are common.
    #[test]
    fn max_weight_edge_is_the_first_heaviest_edge(
        n in 2usize..24,
        edges in proptest::collection::vec(
            (0u32..24, 0u32..24, prop::sample::select(vec![2.0, 1.0, 0.5, -1.0, -2.0])),
            0..80,
        ),
        removal in proptest::collection::vec(0u32..24, 0..12),
    ) {
        use dcs_graph::{CsrBuffers, GraphView, VertexMask};
        let mut b = GraphBuilder::new(n);
        for (u, v, w) in edges {
            if (u as usize) < n && (v as usize) < n && u != v {
                b.add_edge(u, v, w);
            }
        }
        let g = b.build();
        let mut mask = VertexMask::full(n);
        mask.remove_all(&removal.into_iter().filter(|&v| (v as usize) < n).collect::<Vec<_>>());
        let first_heaviest = |view: GraphView<'_>| {
            let mut best: Option<(u32, u32, Weight)> = None;
            for (u, v, w) in view.edges() {
                if best.is_none_or(|(_, _, bw)| w > bw) {
                    best = Some((u, v, w));
                }
            }
            best
        };
        prop_assert_eq!(g.max_weight_edge(), first_heaviest(GraphView::full(&g)));
        let mut buffers = CsrBuffers::default();
        for view in [GraphView::full(&g), GraphView::masked(&g, &mask)] {
            prop_assert_eq!(view.materialize().max_weight_edge(), row_scan_max_edge(view));
            let positive = view.positive_part();
            prop_assert_eq!(row_scan_max_edge(positive), first_heaviest(positive));
            let compact = view.positive_part_into(buffers);
            prop_assert_eq!(compact.max_weight_edge(), row_scan_max_edge(positive));
            buffers = compact.into_raw_csr();
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

    /// `core_numbers_view_into` equals the iterator body it replaced, core
    /// numbers and peel order, on every kind of view: full, masked and
    /// sign-filtered views of the signed graph, and the compact positive part
    /// under the mask (full and masked).  The raw-row walk serves the full view
    /// and the mask over the compact copy; one scratch serves every case.
    #[test]
    fn core_numbers_match_the_iterator_body(
        g in arb_graph(),
        dead in proptest::collection::vec(any::<bool>(), 24),
    ) {
        use dcs_graph::{core_numbers_view_into, CoreScratch, CsrBuffers, GraphView, VertexMask};
        let n = g.num_vertices();
        let mut mask = VertexMask::full(n);
        mask.remove_all(&(0..n as VertexId).filter(|&v| dead[v as usize]).collect::<Vec<_>>());
        let mut scratch = CoreScratch::default();
        let mut buffers = CsrBuffers::default();
        for view in [GraphView::full(&g), GraphView::masked(&g, &mask)] {
            let compact = view.positive_part_into(std::mem::take(&mut buffers));
            for case in [
                view,
                view.positive_part(),
                view.mask_over(&compact),
                GraphView::full(&compact),
            ] {
                core_numbers_view_into(case, &mut scratch);
                let (core, peel_order) = iterator_core_numbers(case);
                prop_assert_eq!(&scratch.core, &core);
                prop_assert_eq!(&scratch.peel_order, &peel_order);
            }
            buffers = compact.into_raw_csr();
        }
    }

    /// The compact positive part of a full or masked view equals the materialised
    /// sign-filtered view: the same offsets, neighbour ids, weight bits and edge
    /// counts.  One set of buffers serves a sequence of graphs that grow and
    /// shrink, so an entry left over from an earlier graph would show.
    #[test]
    fn positive_part_into_matches_the_materialized_positive_view(
        cases in proptest::collection::vec(
            (arb_graph(), proptest::collection::vec(any::<bool>(), 24), any::<bool>()),
            1..6,
        ),
    ) {
        use dcs_graph::{CsrBuffers, GraphView, VertexMask};
        let mut buffers = CsrBuffers::default();
        for (g, dead, masked) in cases {
            let n = g.num_vertices();
            let mut mask = VertexMask::full(n);
            mask.remove_all(&(0..n as VertexId).filter(|&v| dead[v as usize]).collect::<Vec<_>>());
            let view = if masked { GraphView::masked(&g, &mask) } else { GraphView::full(&g) };
            let compact = view.positive_part_into(buffers);
            let reference = view.positive_part().materialize();
            prop_assert_eq!(csr_bits(&compact), csr_bits(&reference));
            prop_assert_eq!(compact.num_edges(), reference.num_edges());
            prop_assert_eq!(compact.num_positive_edges(), reference.num_positive_edges());
            prop_assert_eq!(compact.num_negative_edges(), 0);
            // The caller's mask over the compact graph exposes the same edges as
            // the sign-filtered view.
            let over = view.mask_over(&compact);
            prop_assert!(!over.is_positive_only());
            prop_assert_eq!(over.alive_count(), view.alive_count());
            prop_assert!(over.edges().eq(view.positive_part().edges()));
            buffers = compact.into_raw_csr();
        }
    }
}

/// The compaction's edge cases, through one set of recycled buffers: no vertex, no
/// positive edge, every vertex dead, and a large graph followed by smaller ones.
#[test]
fn positive_part_into_edge_cases() {
    use dcs_graph::{CsrBuffers, GraphView, VertexMask};
    let dense = GraphBuilder::from_edges(
        6,
        (0..6u32).flat_map(|u| (u + 1..6).map(move |v| (u, v, 1.0 + (u * 6 + v) as Weight))),
    );
    let negative = GraphBuilder::from_edges(4, vec![(0, 1, -1.0), (1, 2, -2.0), (2, 3, -0.5)]);
    let mixed = GraphBuilder::from_edges(4, vec![(0, 1, 2.0), (1, 2, -2.0), (2, 3, 3.0)]);
    let empty = SignedGraph::empty(0);
    let all_dead = VertexMask::empty(6);
    let mut buffers = CsrBuffers::default();
    let views = [
        GraphView::full(&dense),
        GraphView::full(&empty),
        GraphView::full(&negative),
        GraphView::masked(&dense, &all_dead),
        GraphView::full(&mixed),
        GraphView::full(&dense).positive_part(),
    ];
    for view in views {
        let compact = view.positive_part_into(buffers);
        assert_eq!(compact, view.positive_part().materialize());
        assert_eq!(compact.num_vertices(), view.num_vertices());
        buffers = compact.into_raw_csr();
    }
    // After the last graph, the buffers hold exactly its entries.
    assert_eq!(
        (buffers.0.len(), buffers.1.len(), buffers.2.len()),
        (7, 30, 30)
    );
    let compact = GraphView::full(&negative).positive_part_into(buffers);
    assert_eq!(compact.num_edges(), 0);
    assert_eq!(compact.into_raw_csr(), (vec![0; 5], Vec::new(), Vec::new()));
}

proptest! {
    /// The byte walker equals the `str::lines` / `trim` / `split_whitespace` walker on
    /// structured texts with every separator character: the numeric and the labelled
    /// reader give the same graph bits and label table, or the same error.
    #[test]
    fn byte_walker_matches_the_line_walker_on_token_texts(text in arb_token_text()) {
        same_read(dcs_graph::io::read_edge_list(text.as_bytes()), reference_numeric_read(&text))?;
        let mut labels = VertexLabels::new();
        let mut expected_labels = VertexLabels::new();
        same_read(
            read_labeled_edge_list(text.as_bytes(), &mut labels),
            reference_labeled_read(&text, &mut expected_labels),
        )?;
        prop_assert!(labels.iter().eq(expected_labels.iter()));
    }

    /// The same on character soups, where tokens, comments and line endings fall
    /// anywhere.
    #[test]
    fn byte_walker_matches_the_line_walker_on_character_soups(text in arb_char_text()) {
        same_read(dcs_graph::io::read_edge_list(text.as_bytes()), reference_numeric_read(&text))?;
        let mut labels = VertexLabels::new();
        let mut expected_labels = VertexLabels::new();
        same_read(
            read_labeled_edge_list(text.as_bytes(), &mut labels),
            reference_labeled_read(&text, &mut expected_labels),
        )?;
        prop_assert!(labels.iter().eq(expected_labels.iter()));
    }

    /// The one-pass fast lines and the token walker they fall back to read as the
    /// line-at-a-time reader reads: the same graph bits, or the same error variant,
    /// line number and line text (or id), on texts that put fast lines next to their
    /// near misses.
    #[test]
    fn fast_lines_read_as_the_line_reader_reads(text in arb_fast_line_text()) {
        same_read(dcs_graph::io::read_edge_list(text.as_bytes()), reference_read(&text))?;
    }

    /// Integer weight tokens of 1–20 digits, leading zeros included, read as the bits
    /// `str::parse::<f64>` gives: exact below 16 digits, rounded above.
    #[test]
    fn integer_weights_read_as_str_parse_reads_them(
        digits in "[0-9]{1,20}",
        zeros in 0usize..4,
    ) {
        let token = format!("{}{digits}", "0".repeat(zeros));
        let expected = token.parse::<f64>().unwrap();
        let g = dcs_graph::io::read_edge_list(format!("0 1 {token}\n").as_bytes()).unwrap();
        let read = g.edge_weight(0, 1).unwrap_or(0.0);
        prop_assert!(read.to_bits() == expected.to_bits(), "token {}: {} vs {}", token, read, expected);
    }

    /// The fast CSR check accepts exactly what the per-row loop accepts, with the same
    /// counts, including descending steps across row boundaries.
    #[test]
    fn csr_check_matches_the_row_loop_on_valid_input(csr in arb_valid_csr()) {
        prop_assert_eq!(checked_counts(&csr), reference_counts(&csr));
        prop_assert!(checked_counts(&csr).is_ok());
    }

    /// A single corruption gets the same `CorruptGraph` value from the fast check as
    /// from the per-row loop.
    #[test]
    fn csr_check_names_the_first_corruption_as_the_row_loop(
        csr in arb_valid_csr(),
        kind in 0u32..15,
        at in 0usize..1000,
    ) {
        let mut csr = csr;
        corrupt(&mut csr, kind, at);
        prop_assert_eq!(checked_counts(&csr), reference_counts(&csr));
    }
}

/// Each `CorruptGraph` variant, and the legal descending step across a row boundary,
/// on hand-made triples: the fast check and the per-row loop agree on every one.
#[test]
fn csr_check_names_every_variant_as_the_row_loop() {
    // 0 - 1, 0 - 2, 1 - 2: rows [1, 2], [0, 2], [0, 1].
    let valid: RawCsr = (
        vec![0, 2, 4, 6],
        vec![1, 2, 0, 2, 0, 1],
        vec![1.0, -2.0, 1.0, 3.0, -2.0, 3.0],
    );
    assert_eq!(checked_counts(&valid), Ok((3, 2, 1)));
    // Legal steps of the flat pass: a descent across one and across two empty rows
    // (rows [4], [], [3], [], [], [0, 2]), and an equal pair that straddles two rows
    // (rows [2], [2], [0, 1]).
    let legal: Vec<(RawCsr, (usize, usize, usize))> = vec![
        (
            (
                vec![0, 1, 1, 2, 2, 2, 4],
                vec![4, 3, 0, 2],
                vec![1.0, -1.0, -2.0, 2.0],
            ),
            (2, 1, 1),
        ),
        (
            (vec![0, 1, 2, 4], vec![2, 2, 0, 1], vec![1.0, 1.0, 1.0, 1.0]),
            (2, 2, 0),
        ),
    ];
    for (csr, counts) in legal {
        assert_eq!(reference_counts(&csr), Ok(counts), "{csr:?}");
        assert_eq!(checked_counts(&csr), Ok(counts), "{csr:?}");
    }
    let cases: Vec<(RawCsr, CorruptGraph)> = vec![
        ((vec![], vec![], vec![]), CorruptGraph::EmptyOffsets),
        (
            (vec![1, 2], vec![0, 0], vec![1.0, 1.0]),
            CorruptGraph::NonzeroFirstOffset { first: 1 },
        ),
        (
            (vec![0, 2, 1, 6], valid.1.clone(), valid.2.clone()),
            CorruptGraph::NonMonotoneOffsets { vertex: 1 },
        ),
        (
            (vec![0, 9, 2, 6], valid.1.clone(), valid.2.clone()),
            CorruptGraph::NonMonotoneOffsets { vertex: 0 },
        ),
        (
            (vec![0, 2, 4, 8], valid.1.clone(), valid.2.clone()),
            CorruptGraph::OffsetEndMismatch {
                last: 8,
                entries: 6,
            },
        ),
        (
            (valid.0.clone(), valid.1.clone(), vec![1.0; 5]),
            CorruptGraph::LengthMismatch {
                neighbors: 6,
                weights: 5,
            },
        ),
        (
            (vec![0, 1, 2, 3], vec![1, 0, 0], vec![1.0; 3]),
            CorruptGraph::OddEntryCount { entries: 3 },
        ),
        (
            (valid.0.clone(), vec![1, 2, 0, 2, 0, 3], valid.2.clone()),
            CorruptGraph::TargetOutOfRange {
                vertex: 2,
                target: 3,
            },
        ),
        (
            (valid.0.clone(), vec![1, 2, 0, 1, 0, 1], valid.2.clone()),
            CorruptGraph::SelfLoop { vertex: 1 },
        ),
        (
            (valid.0.clone(), vec![1, 2, 2, 0, 0, 1], valid.2.clone()),
            CorruptGraph::UnsortedRow { vertex: 1 },
        ),
        (
            (valid.0.clone(), vec![1, 1, 0, 2, 0, 1], valid.2.clone()),
            CorruptGraph::UnsortedRow { vertex: 0 },
        ),
        (
            (
                valid.0.clone(),
                valid.1.clone(),
                vec![1.0, 1.0, 1.0, f64::NAN, 1.0, 1.0],
            ),
            CorruptGraph::NonFiniteWeight { vertex: 1 },
        ),
        (
            (
                valid.0.clone(),
                valid.1.clone(),
                vec![1.0, 1.0, 1.0, 1.0, -f64::NAN, 1.0],
            ),
            CorruptGraph::NonFiniteWeight { vertex: 2 },
        ),
        (
            (
                valid.0.clone(),
                valid.1.clone(),
                vec![f64::INFINITY, 1.0, 1.0, 1.0, 1.0, 1.0],
            ),
            CorruptGraph::NonFiniteWeight { vertex: 0 },
        ),
        (
            (
                valid.0.clone(),
                valid.1.clone(),
                vec![1.0, 1.0, 1.0, 1.0, 1.0, f64::NEG_INFINITY],
            ),
            CorruptGraph::NonFiniteWeight { vertex: 2 },
        ),
        (
            (
                valid.0.clone(),
                valid.1.clone(),
                vec![1.0, 1.0, 0.0, 1.0, 1.0, 1.0],
            ),
            CorruptGraph::ZeroWeight { vertex: 1 },
        ),
        (
            (
                valid.0.clone(),
                valid.1.clone(),
                vec![1.0, -0.0, 1.0, 1.0, 1.0, 1.0],
            ),
            CorruptGraph::ZeroWeight { vertex: 0 },
        ),
        // An equal pair inside a row beside one that straddles two rows: rows
        // [1, 2], [2, 3], [3, 3], [].
        (
            (vec![0, 2, 4, 6, 6], vec![1, 2, 2, 3, 3, 3], vec![1.0; 6]),
            CorruptGraph::UnsortedRow { vertex: 2 },
        ),
        // A self-loop as a row's first entry, and as its last.
        (
            (valid.0.clone(), vec![1, 2, 1, 2, 0, 1], valid.2.clone()),
            CorruptGraph::SelfLoop { vertex: 1 },
        ),
        (
            (valid.0.clone(), vec![1, 2, 0, 2, 0, 2], valid.2.clone()),
            CorruptGraph::SelfLoop { vertex: 2 },
        ),
        // A last target equal to `n` in the last row, after an empty row.
        (
            (vec![0, 1, 1, 2], vec![2, 3], vec![1.0, 1.0]),
            CorruptGraph::TargetOutOfRange {
                vertex: 2,
                target: 3,
            },
        ),
        // The first offending row is named, whatever a later row holds.
        (
            (
                valid.0.clone(),
                vec![1, 2, 0, 0, 0, 3],
                vec![1.0, 0.0, 1.0, 1.0, 1.0, 1.0],
            ),
            CorruptGraph::ZeroWeight { vertex: 0 },
        ),
    ];
    for (csr, expected) in cases {
        assert_eq!(reference_counts(&csr), Err(expected.clone()), "{csr:?}");
        assert_eq!(checked_counts(&csr), Err(expected), "{csr:?}");
    }
}

/// A triple of 240,000 entries, whose adjacent pairs the fast check counts in
/// several chunks: valid, and with every corruption of [`corrupt`] at the start,
/// inside and at the end of each array, the check agrees with the row loop.
#[test]
fn csr_check_of_a_large_triple_matches_the_row_loop() {
    // The circulant graph joining each vertex to the three on either side.
    let n = 40_000usize;
    let mut valid: RawCsr = (vec![0], Vec::new(), Vec::new());
    for v in 0..n {
        let mut row: Vec<usize> = (1..=3)
            .flat_map(|d| [(v + d) % n, (v + n - d) % n])
            .collect();
        row.sort_unstable();
        for u in row {
            valid.1.push(u as VertexId);
            valid.2.push(((u + v) % 4) as f64 - 1.5);
        }
        valid.0.push(valid.1.len());
    }
    assert_eq!(checked_counts(&valid), Ok((120_000, 60_000, 60_000)));
    let entries = valid.1.len();
    for kind in 0..=14 {
        for at in [1, 2, n / 2 + 3, entries / 2 + 1, entries - 1] {
            let mut csr = valid.clone();
            corrupt(&mut csr, kind, at);
            let expected = reference_counts(&csr);
            assert!(expected.is_err(), "kind {kind} at {at}");
            assert_eq!(checked_counts(&csr), expected, "kind {kind} at {at}");
        }
    }
}

/// The maximum-weight-edge scan DCSGreedy ran on its view before it took the
/// candidate from the compact `G_{D+}`, kept as the oracle of
/// `SignedGraph::max_weight_edge`: each alive vertex's row from its first
/// neighbour above the vertex, filtered per entry; a strictly heavier entry
/// replaces the best, so the first heaviest edge in `edges()` order wins.
fn row_scan_max_edge(view: dcs_graph::GraphView<'_>) -> Option<(VertexId, VertexId, Weight)> {
    let mut best: Option<(VertexId, VertexId, Weight)> = None;
    for u in view.vertices() {
        let (nbrs, weights) = view.graph().neighbor_slices(u);
        let above = nbrs.partition_point(|&v| v <= u);
        for (&v, &w) in nbrs[above..].iter().zip(&weights[above..]) {
            if (view.is_positive_only() && w <= 0.0) || !view.is_alive(v) {
                continue;
            }
            if best.is_none_or(|(_, _, bw)| w > bw) {
                best = Some((u, v, w));
            }
        }
    }
    best
}

/// The body of `core_numbers_view_into` before it read raw rows, kept as its
/// oracle: the Batagelj–Zaveršnik bucket peel over the view's filtered
/// neighbour iterator, with `usize` scratch.  Returns the core numbers and the
/// peel order.
fn iterator_core_numbers(view: dcs_graph::GraphView<'_>) -> (Vec<u32>, Vec<VertexId>) {
    let n = view.num_vertices();
    let mut core = vec![0u32; n];
    let mut peel_order = Vec::new();
    let alive: Vec<VertexId> = view.vertices().collect();
    if alive.is_empty() {
        return (core, peel_order);
    }
    let mut degree = vec![0usize; n];
    let mut max_degree = 0usize;
    for &v in &alive {
        let d = view.neighbors(v).count();
        degree[v as usize] = d;
        max_degree = max_degree.max(d);
    }
    let m = alive.len();
    let mut bin = vec![0usize; max_degree + 2];
    for &v in &alive {
        bin[degree[v as usize]] += 1;
    }
    let mut start = 0usize;
    for b in bin.iter_mut() {
        let count = *b;
        *b = start;
        start += count;
    }
    let mut vert = vec![0 as VertexId; m];
    let mut pos = vec![0usize; n];
    let mut cursor = bin.clone();
    for &v in &alive {
        let d = degree[v as usize];
        pos[v as usize] = cursor[d];
        vert[cursor[d]] = v;
        cursor[d] += 1;
    }
    for i in 0..m {
        let v = vert[i];
        peel_order.push(v);
        core[v as usize] = degree[v as usize] as u32;
        for e in view.neighbors(v) {
            let u = e.neighbor as usize;
            if degree[u] > degree[v as usize] {
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
    (core, peel_order)
}
