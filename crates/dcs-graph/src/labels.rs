//! Labelled vertices: mapping between external string names and dense [`VertexId`]s.
//!
//! The paper's inputs are graphs over named entities — authors, keywords, Wikipedia
//! editors — while every algorithm in this workspace works on dense integer vertex ids.
//! This module provides the bridge:
//!
//! * [`VertexLabels`] — a bidirectional map `label ↔ VertexId` that assigns ids densely in
//!   insertion order,
//! * [`LabeledGraphBuilder`] — a [`GraphBuilder`] that accepts labelled edges and interns
//!   the labels into a shared [`VertexLabels`] table,
//! * [`read_labeled_edge_list`] / [`write_labeled_edge_list`] — plain-text IO in the
//!   `label label weight` format.
//!
//! The important property for DCS mining is that **both** input graphs must share one
//! vertex numbering.  The intended pattern is therefore to build a single
//! [`VertexLabels`] (or a single [`LabeledGraphBuilder`] per graph sharing one table via
//! [`LabeledGraphBuilder::with_labels`]) and load both graphs through it; see
//! [`read_labeled_graph_pair`].

use std::io::{self, BufRead, BufWriter, Write};

use rustc_hash::FxHashMap;

use crate::io::{for_each_edge, IoError};
use crate::{GraphBuilder, SignedGraph, VertexId, Weight};

/// A bidirectional mapping between string labels and dense vertex ids.
///
/// Ids are handed out in first-seen order starting from 0, so a table shared between two
/// graphs guarantees a common vertex numbering — the prerequisite of every DCS problem.
#[derive(Debug, Clone, Default)]
pub struct VertexLabels {
    by_label: FxHashMap<String, VertexId>,
    by_id: Vec<String>,
}

impl VertexLabels {
    /// Creates an empty label table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct labels interned so far (equivalently, the vertex count).
    pub fn len(&self) -> usize {
        self.by_id.len()
    }

    /// Whether no label has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.by_id.is_empty()
    }

    /// Interns `label`, returning its vertex id (allocating a fresh one on first sight).
    pub fn intern(&mut self, label: &str) -> VertexId {
        if let Some(&id) = self.by_label.get(label) {
            return id;
        }
        let id = self.by_id.len() as VertexId;
        self.by_id.push(label.to_owned());
        self.by_label.insert(label.to_owned(), id);
        id
    }

    /// Looks up the id of an already-interned label.
    pub fn id_of(&self, label: &str) -> Option<VertexId> {
        self.by_label.get(label).copied()
    }

    /// Looks up the label of a vertex id.
    pub fn label_of(&self, id: VertexId) -> Option<&str> {
        self.by_id.get(id as usize).map(String::as_str)
    }

    /// Translates a slice of vertex ids into their labels.
    ///
    /// Ids without a label (possible when the graph was grown past the label table) are
    /// rendered as `v<id>`.
    pub fn labels_of(&self, ids: &[VertexId]) -> Vec<String> {
        ids.iter()
            .map(|&id| {
                self.label_of(id)
                    .map(str::to_owned)
                    .unwrap_or_else(|| format!("v{id}"))
            })
            .collect()
    }

    /// Iterates over `(id, label)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (VertexId, &str)> + '_ {
        self.by_id
            .iter()
            .enumerate()
            .map(|(i, l)| (i as VertexId, l.as_str()))
    }
}

/// A graph builder that accepts labelled edges.
///
/// Internally this is a [`GraphBuilder`] plus a [`VertexLabels`] table.  The table can be
/// supplied up front ([`LabeledGraphBuilder::with_labels`]) so that several graphs share
/// one numbering, and is handed back by [`LabeledGraphBuilder::build`].
#[derive(Debug, Clone, Default)]
pub struct LabeledGraphBuilder {
    labels: VertexLabels,
    edges: Vec<(VertexId, VertexId, Weight)>,
}

impl LabeledGraphBuilder {
    /// Creates a builder with an empty label table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a builder that continues an existing label table.
    ///
    /// Use this to load a second graph over the same vertex set as a first one.
    pub fn with_labels(labels: VertexLabels) -> Self {
        LabeledGraphBuilder {
            labels,
            edges: Vec::new(),
        }
    }

    /// Adds an undirected edge between two labelled vertices.
    ///
    /// Duplicate edges are merged by summation when the graph is built (the same policy
    /// a difference-graph construction relies on).
    pub fn add_edge(&mut self, u: &str, v: &str, w: Weight) {
        let u = self.labels.intern(u);
        let v = self.labels.intern(v);
        self.edges.push((u, v, w));
    }

    /// Number of labelled vertices seen so far.
    pub fn num_vertices(&self) -> usize {
        self.labels.len()
    }

    /// Finishes the graph.
    ///
    /// The graph has `max(n, labels.len())` vertices where `n` is the optional minimum
    /// vertex count, so that two graphs built from the same evolving table can be aligned
    /// afterwards with [`align_vertex_counts`].
    pub fn build(self) -> (SignedGraph, VertexLabels) {
        let mut builder = GraphBuilder::new(self.labels.len());
        builder.add_edges(self.edges);
        (builder.build(), self.labels)
    }
}

/// Pads the smaller of two graphs with isolated vertices so both have the same count.
///
/// DCS inputs must share a vertex set; when two graphs are loaded through a shared,
/// growing label table the first graph may have been built before the table saw every
/// label, so it can be smaller.  Padding with isolated vertices changes neither densities
/// nor any algorithm's output.  Both graphs are copied in full, the larger one too; a
/// caller that owns both graphs pads the smaller one in place with
/// [`SignedGraph::pad_vertices`] instead.
pub fn align_vertex_counts(g1: &SignedGraph, g2: &SignedGraph) -> (SignedGraph, SignedGraph) {
    let n = g1.num_vertices().max(g2.num_vertices());
    let pad = |g: &SignedGraph| {
        let mut g = g.clone();
        g.pad_vertices(n);
        g
    };
    (pad(g1), pad(g2))
}

/// Parses a labelled edge-list text (see [`read_labeled_edge_list`]).
fn parse_labeled_edge_list(text: &str, labels: &mut VertexLabels) -> Result<SignedGraph, IoError> {
    let mut span = dcs_obs::trace::span(dcs_obs::trace::Phase::Parse);
    let mut builder = GraphBuilder::new(0);
    let mut edge_lines = 0u64;
    for_each_edge(text, |u, v, w| {
        let u = labels.intern(u);
        let v = labels.intern(v);
        builder.add_edge(u, v, w);
        edge_lines += 1;
        Ok(())
    })?;
    span.set_units(edge_lines);
    builder.grow_to(labels.len());
    Ok(builder.build())
}

/// Reads a labelled edge list (`label label [weight]` per line) into a graph.
///
/// Lines starting with `#` or `%` are comments; a missing weight defaults to `1.0`, and
/// a given weight must be a finite number.  Labels may not contain whitespace.  The
/// supplied `labels` table is extended in place, so reading a second file with the
/// same table yields a graph over a shared numbering.  The graph has one vertex per
/// label in the table.
pub fn read_labeled_edge_list<R: BufRead>(
    mut reader: R,
    labels: &mut VertexLabels,
) -> Result<SignedGraph, IoError> {
    let mut text = String::new();
    reader.read_to_string(&mut text)?;
    parse_labeled_edge_list(&text, labels)
}

/// Reads a labelled edge list from a file path, extending `labels` in place.
pub fn read_labeled_edge_list_file<P: AsRef<std::path::Path>>(
    path: P,
    labels: &mut VertexLabels,
) -> Result<SignedGraph, IoError> {
    parse_labeled_edge_list(&std::fs::read_to_string(path)?, labels)
}

/// Loads a `(G1, G2)` pair of labelled edge lists over a single shared vertex numbering.
///
/// Both graphs are padded to the same vertex count so they can be fed directly to a
/// difference-graph construction.  Returns `(g1, g2, labels)`.
pub fn read_labeled_graph_pair<R1: BufRead, R2: BufRead>(
    reader1: R1,
    reader2: R2,
) -> Result<(SignedGraph, SignedGraph, VertexLabels), IoError> {
    let mut labels = VertexLabels::new();
    let mut g1 = read_labeled_edge_list(reader1, &mut labels)?;
    let g2 = read_labeled_edge_list(reader2, &mut labels)?;
    // The second read only grows the shared table, so only `g1` can be smaller.
    g1.pad_vertices(g2.num_vertices());
    Ok((g1, g2, labels))
}

/// Loads a `(G1, G2)` pair of labelled edge-list files over a shared vertex numbering.
pub fn read_labeled_graph_pair_files<P1: AsRef<std::path::Path>, P2: AsRef<std::path::Path>>(
    path1: P1,
    path2: P2,
) -> Result<(SignedGraph, SignedGraph, VertexLabels), IoError> {
    let f1 = std::fs::File::open(path1)?;
    let f2 = std::fs::File::open(path2)?;
    read_labeled_graph_pair(io::BufReader::new(f1), io::BufReader::new(f2))
}

/// Writes a graph as a labelled edge list (`label label weight` per line).
///
/// Vertices without a label are written as `v<id>`.
pub fn write_labeled_edge_list<W: Write>(
    g: &SignedGraph,
    labels: &VertexLabels,
    writer: W,
) -> io::Result<()> {
    let mut w = BufWriter::new(writer);
    writeln!(
        w,
        "# {} vertices, {} edges",
        g.num_vertices(),
        g.num_edges()
    )?;
    for (u, v, weight) in g.edges() {
        let lu = labels
            .label_of(u)
            .map(str::to_owned)
            .unwrap_or_else(|| format!("v{u}"));
        let lv = labels
            .label_of(v)
            .map(str::to_owned)
            .unwrap_or_else(|| format!("v{v}"));
        writeln!(w, "{lu} {lv} {weight}")?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent_and_dense() {
        let mut labels = VertexLabels::new();
        let a = labels.intern("alice");
        let b = labels.intern("bob");
        let a2 = labels.intern("alice");
        assert_eq!(a, 0);
        assert_eq!(b, 1);
        assert_eq!(a, a2);
        assert_eq!(labels.len(), 2);
        assert_eq!(labels.label_of(0), Some("alice"));
        assert_eq!(labels.id_of("bob"), Some(1));
        assert_eq!(labels.id_of("carol"), None);
        assert_eq!(labels.label_of(7), None);
    }

    #[test]
    fn labels_of_falls_back_to_numeric_names() {
        let mut labels = VertexLabels::new();
        labels.intern("alice");
        assert_eq!(
            labels.labels_of(&[0, 3]),
            vec!["alice".to_owned(), "v3".to_owned()]
        );
    }

    #[test]
    fn iter_returns_id_order() {
        let mut labels = VertexLabels::new();
        labels.intern("x");
        labels.intern("y");
        let collected: Vec<(VertexId, &str)> = labels.iter().collect();
        assert_eq!(collected, vec![(0, "x"), (1, "y")]);
    }

    #[test]
    fn labeled_builder_merges_duplicates_by_sum() {
        let mut b = LabeledGraphBuilder::new();
        b.add_edge("alice", "bob", 1.0);
        b.add_edge("bob", "alice", 2.0);
        b.add_edge("bob", "carol", -1.0);
        assert_eq!(b.num_vertices(), 3);
        let (g, labels) = b.build();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 2);
        let alice = labels.id_of("alice").unwrap();
        let bob = labels.id_of("bob").unwrap();
        assert_eq!(g.edge_weight(alice, bob), Some(3.0));
    }

    #[test]
    fn shared_table_gives_shared_numbering() {
        let mut b1 = LabeledGraphBuilder::new();
        b1.add_edge("a", "b", 1.0);
        let (g1, labels) = b1.build();

        let mut b2 = LabeledGraphBuilder::with_labels(labels);
        b2.add_edge("b", "c", 2.0);
        b2.add_edge("a", "b", 5.0);
        let (g2, labels) = b2.build();

        // "a" and "b" keep the ids they received in the first graph.
        assert_eq!(labels.id_of("a"), Some(0));
        assert_eq!(labels.id_of("b"), Some(1));
        assert_eq!(labels.id_of("c"), Some(2));
        assert_eq!(g1.num_vertices(), 2);
        assert_eq!(g2.num_vertices(), 3);

        let (g1, g2) = align_vertex_counts(&g1, &g2);
        assert_eq!(g1.num_vertices(), 3);
        assert_eq!(g2.num_vertices(), 3);
        // The padded graph is the one its edges build over the larger vertex set.
        assert_eq!(g1, GraphBuilder::from_edges(3, g1.edges()));
        assert_eq!(g1.edge_weight(0, 1), Some(1.0));
        assert_eq!(g2.edge_weight(0, 1), Some(5.0));
    }

    #[test]
    fn read_labeled_edge_list_basic() {
        let text = "# co-authors\nalice bob 2\nbob carol\n% trailing comment\n";
        let mut labels = VertexLabels::new();
        let g = read_labeled_edge_list(text.as_bytes(), &mut labels).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 2);
        let bob = labels.id_of("bob").unwrap();
        let carol = labels.id_of("carol").unwrap();
        assert_eq!(g.edge_weight(bob, carol), Some(1.0));
    }

    #[test]
    fn read_labeled_edge_list_errors() {
        let mut labels = VertexLabels::new();
        let missing_endpoint = "alice\n";
        assert!(matches!(
            read_labeled_edge_list(missing_endpoint.as_bytes(), &mut labels),
            Err(IoError::Parse { line_number: 1, .. })
        ));
        let bad_weight = "alice bob heavy\n";
        assert!(matches!(
            read_labeled_edge_list(bad_weight.as_bytes(), &mut labels),
            Err(IoError::Parse { line_number: 1, .. })
        ));
    }

    #[test]
    fn pair_loader_aligns_vertex_sets() {
        let early = "alice bob 3\nbob carol 1\n";
        let late = "alice bob 1\ncarol dave 4\n";
        let (g1, g2, labels) = read_labeled_graph_pair(early.as_bytes(), late.as_bytes()).unwrap();
        assert_eq!(g1.num_vertices(), 4);
        assert_eq!(g2.num_vertices(), 4);
        assert_eq!(labels.len(), 4);
        let carol = labels.id_of("carol").unwrap();
        let dave = labels.id_of("dave").unwrap();
        assert_eq!(g1.edge_weight(carol, dave), None);
        assert_eq!(g2.edge_weight(carol, dave), Some(4.0));
    }

    #[test]
    fn labeled_roundtrip() {
        let mut b = LabeledGraphBuilder::new();
        b.add_edge("x", "y", 1.5);
        b.add_edge("y", "z", -2.0);
        let (g, labels) = b.build();

        let mut buf = Vec::new();
        write_labeled_edge_list(&g, &labels, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("x y 1.5"));

        let mut labels2 = VertexLabels::new();
        let g2 = read_labeled_edge_list(text.as_bytes(), &mut labels2).unwrap();
        assert_eq!(g2.num_edges(), g.num_edges());
        let y = labels2.id_of("y").unwrap();
        let z = labels2.id_of("z").unwrap();
        assert_eq!(g2.edge_weight(y, z), Some(-2.0));
    }

    #[test]
    fn file_pair_roundtrip() {
        let dir = std::env::temp_dir().join("dcs_graph_labels_test");
        std::fs::create_dir_all(&dir).unwrap();
        let p1 = dir.join("g1.edges");
        let p2 = dir.join("g2.edges");
        std::fs::write(&p1, "a b 1\n").unwrap();
        std::fs::write(&p2, "a b 2\nb c 3\n").unwrap();
        let (g1, g2, labels) = read_labeled_graph_pair_files(&p1, &p2).unwrap();
        assert_eq!(g1.num_vertices(), 3);
        assert_eq!(g2.num_edges(), 2);
        assert_eq!(labels.len(), 3);
        std::fs::remove_file(&p1).ok();
        std::fs::remove_file(&p2).ok();
    }
}
