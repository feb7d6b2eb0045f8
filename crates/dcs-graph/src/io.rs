//! Plain-text edge-list input/output.
//!
//! The format is one edge per line, whitespace separated: `u v w`.  Lines starting with
//! `#` or `%` are comments.  This matches the common SNAP / KONECT export formats used by
//! the datasets referenced in the paper (DBLP, wikiconflict, …), so users who do have the
//! original data can load it directly.
//!
//! A reader takes its whole input into one `String` and walks its lines as `&str`
//! slices, so no line is copied; the numeric reader here and the labelled reader in
//! [`crate::labels`] share one line walker, and with it the comment, weight and error
//! rules.  The parsed edges go through a [`GraphBuilder`], which folds duplicates.

use std::io::{self, BufRead, BufWriter, Write};
use std::path::Path;

use crate::{GraphBuilder, SignedGraph, VertexId, Weight};

/// Errors produced by edge-list parsing.
#[derive(Debug)]
pub enum IoError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// A line could not be parsed; carries the 1-based line number and the line content.
    Parse {
        /// 1-based line number of the offending line.
        line_number: usize,
        /// The offending line.
        line: String,
    },
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "I/O error: {e}"),
            IoError::Parse { line_number, line } => {
                write!(f, "cannot parse edge on line {line_number}: {line:?}")
            }
        }
    }
}

impl std::error::Error for IoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IoError::Io(e) => Some(e),
            IoError::Parse { .. } => None,
        }
    }
}

impl From<io::Error> for IoError {
    fn from(e: io::Error) -> Self {
        IoError::Io(e)
    }
}

/// Parses an edge weight token; `None` unless it is a finite number (`nan`, `inf` and
/// overflowing literals such as `1e999` are rejected, as the pack reader rejects them).
pub(crate) fn parse_weight(token: &str) -> Option<Weight> {
    token.parse::<Weight>().ok().filter(|w| w.is_finite())
}

/// Parses a vertex id token; `None` unless it is ASCII decimal digits whose value fits a
/// `u32` (fractions, signs, exponents and overflow are rejected, never rounded or clamped).
fn parse_vertex(token: &str) -> Option<VertexId> {
    if token.is_empty() || !token.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    token.parse().ok()
}

/// Walks the edge lines of an edge-list text.
///
/// Blank lines and lines starting with `#` or `%` (after trimming) are skipped.  Every
/// other line must hold two endpoint tokens and an optional weight (default `1.0`, and
/// a given weight must be a finite number); further tokens are ignored.  `edge`
/// receives each line's endpoints and weight and returns `false` to reject the
/// endpoints.  A line that breaks these rules ends the walk with an
/// [`IoError::Parse`] carrying its 1-based number and its text.
pub(crate) fn for_each_edge<'t>(
    text: &'t str,
    mut edge: impl FnMut(&'t str, &'t str, Weight) -> bool,
) -> Result<(), IoError> {
    for (idx, line) in text.lines().enumerate() {
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with('%') {
            continue;
        }
        let mut tokens = trimmed.split_whitespace();
        let accepted = match (
            tokens.next(),
            tokens.next(),
            tokens.next().map(parse_weight),
        ) {
            (Some(u), Some(v), None) => edge(u, v, 1.0),
            (Some(u), Some(v), Some(Some(w))) => edge(u, v, w),
            _ => false,
        };
        if !accepted {
            return Err(IoError::Parse {
                line_number: idx + 1,
                line: line.to_owned(),
            });
        }
    }
    Ok(())
}

/// Parses a numeric edge-list text (see [`read_edge_list`]).
fn parse_edge_list(text: &str) -> Result<SignedGraph, IoError> {
    let mut builder = GraphBuilder::new(0);
    for_each_edge(text, |u, v, w| match (parse_vertex(u), parse_vertex(v)) {
        (Some(u), Some(v)) => {
            builder.add_edge(u, v, w);
            true
        }
        _ => false,
    })?;
    Ok(builder.build())
}

/// Parses an edge list from a reader.
///
/// Each non-comment, non-empty line must contain `u v [w]`; a missing weight defaults to
/// `1.0`, and a given weight must be a finite number.  Vertex ids are unsigned decimal
/// integers that fit a `u32`; the resulting graph has `max id + 1` vertices.  The whole
/// input is read before parsing starts, so input that is not UTF-8 is an
/// [`IoError::Io`] wherever it occurs.
pub fn read_edge_list<R: BufRead>(mut reader: R) -> Result<SignedGraph, IoError> {
    let mut text = String::new();
    reader.read_to_string(&mut text)?;
    parse_edge_list(&text)
}

/// Reads an edge list from a file path (see [`read_edge_list`]).
pub fn read_edge_list_file<P: AsRef<Path>>(path: P) -> Result<SignedGraph, IoError> {
    parse_edge_list(&std::fs::read_to_string(path)?)
}

/// Writes the graph as an edge list (`u v w` per line, each undirected edge once).
pub fn write_edge_list<W: Write>(g: &SignedGraph, writer: W) -> io::Result<()> {
    let mut w = BufWriter::new(writer);
    writeln!(
        w,
        "# {} vertices, {} edges",
        g.num_vertices(),
        g.num_edges()
    )?;
    for (u, v, weight) in g.edges() {
        writeln!(w, "{u} {v} {weight}")?;
    }
    w.flush()
}

/// Writes the graph to a file path.
pub fn write_edge_list_file<P: AsRef<Path>>(g: &SignedGraph, path: P) -> io::Result<()> {
    let file = std::fs::File::create(path)?;
    write_edge_list(g, file)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_basic() {
        let text = "# comment\n0 1 2.5\n1 2 -1\n\n% another comment\n2 3\n";
        let g = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.edge_weight(0, 1), Some(2.5));
        assert_eq!(g.edge_weight(1, 2), Some(-1.0));
        assert_eq!(g.edge_weight(2, 3), Some(1.0));
    }

    #[test]
    fn parse_error_reports_line() {
        let text = "0 1 1.0\nnot an edge\n";
        match read_edge_list(text.as_bytes()) {
            Err(IoError::Parse { line_number, .. }) => assert_eq!(line_number, 2),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn parse_bad_weight() {
        let text = "0 1 abc\n";
        assert!(read_edge_list(text.as_bytes()).is_err());
    }

    #[test]
    fn non_finite_weights_are_parse_errors() {
        for weight in ["nan", "NaN", "inf", "-inf", "infinity", "1e999", "-1e999"] {
            let text = format!("0 1 2.0\n1 2 {weight}\n");
            match read_edge_list(text.as_bytes()) {
                Err(IoError::Parse { line_number, .. }) => assert_eq!(line_number, 2, "{weight}"),
                other => panic!("{weight}: expected a parse error, got {other:?}"),
            }
            let mut labels = crate::VertexLabels::new();
            let labeled = format!("a b 2.0\nb c {weight}\n");
            match crate::labels::read_labeled_edge_list(labeled.as_bytes(), &mut labels) {
                Err(IoError::Parse { line_number, .. }) => assert_eq!(line_number, 2, "{weight}"),
                other => panic!("{weight}: expected a parse error, got {other:?}"),
            }
        }
        // The largest finite magnitudes still parse.
        let g = read_edge_list("0 1 1.7e308\n1 2 -1.7e308\n".as_bytes()).unwrap();
        assert_eq!(g.edge_weight(0, 1), Some(1.7e308));
    }

    #[test]
    fn non_integer_vertex_ids_are_parse_errors() {
        for id in ["1.7", "-1", "+1", "1e3", "1e300", "4294967296"] {
            for text in [
                format!("0 1 2.0\n{id} 2 1.0\n"),
                format!("0 1 2.0\n2 {id}\n"),
            ] {
                match read_edge_list(text.as_bytes()) {
                    Err(IoError::Parse { line_number, .. }) => assert_eq!(line_number, 2, "{id}"),
                    other => panic!("{id}: expected a parse error, got {other:?}"),
                }
            }
        }
        // The largest id still parses (checked on the token: a graph that large would
        // not fit in memory).
        assert_eq!(parse_vertex("4294967295"), Some(u32::MAX));
    }

    #[test]
    fn roundtrip() {
        let g = crate::GraphBuilder::from_edges(4, vec![(0, 1, 1.5), (1, 2, -2.0), (0, 3, 4.0)]);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let g2 = read_edge_list(buf.as_slice()).unwrap();
        assert_eq!(g2.num_vertices(), g.num_vertices());
        assert_eq!(g2.num_edges(), g.num_edges());
        assert_eq!(g2.edge_weight(1, 2), Some(-2.0));
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("dcs_graph_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.edges");
        let g = crate::GraphBuilder::from_edges(3, vec![(0, 2, 7.0)]);
        write_edge_list_file(&g, &path).unwrap();
        let g2 = read_edge_list_file(&path).unwrap();
        assert_eq!(g2.edge_weight(0, 2), Some(7.0));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn error_display() {
        let err = IoError::Parse {
            line_number: 3,
            line: "x".into(),
        };
        assert!(format!("{err}").contains("line 3"));
    }
}
