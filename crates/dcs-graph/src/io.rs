//! Plain-text edge-list input/output.
//!
//! The format is one edge per line, whitespace separated: `u v w`.  Lines starting with
//! `#` or `%` are comments.  This matches the common SNAP / KONECT export formats used by
//! the datasets referenced in the paper (DBLP, wikiconflict, …), so users who do have the
//! original data can load it directly.
//!
//! A reader takes its whole input into one `String` and walks it once, byte by byte; the
//! numeric reader here and the labelled reader in [`crate::labels`] share that walker,
//! and with it the comment, weight and error rules.  A line ends at `\n`.  A token ends
//! at any character for which [`char::is_whitespace`] holds: an ASCII byte is compared
//! directly with U+0009–U+000D and U+0020 (a wider set than
//! [`u8::is_ascii_whitespace`], which leaves out vertical tab), and only a byte at or
//! above `0x80` decodes its character, so U+0085, U+00A0, U+2028, U+3000 and the other
//! Unicode separators split tokens too.  Tokens are `&str` slices of the input, so no
//! line or token is copied.  The parsed edges go through a [`GraphBuilder`], which folds
//! duplicates.
//!
//! A numeric edge list may name vertex ids below [`MAX_VERTICES`]; a larger id is refused
//! with [`IoError::VertexLimit`] before any vertex array is sized by it.

use std::io::{self, BufRead, BufWriter, Write};
use std::path::Path;

use crate::{GraphBuilder, SignedGraph, VertexId, Weight};

/// The number of vertices a numeric edge list may address: its vertex ids must lie
/// below this.  A graph of this many vertices needs 400 MB of CSR offsets alone; the
/// server applies the same bound to the `vertices` of a session.
pub const MAX_VERTICES: usize = 50_000_000;

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
    /// A well-formed vertex id at or above the vertex limit ([`MAX_VERTICES`]).
    VertexLimit {
        /// 1-based line number of the offending line.
        line_number: usize,
        /// The refused vertex id.
        id: VertexId,
        /// The limit the id must stay below.
        limit: usize,
    },
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "I/O error: {e}"),
            IoError::Parse { line_number, line } => {
                write!(f, "cannot parse edge on line {line_number}: {line:?}")
            }
            IoError::VertexLimit {
                line_number,
                id,
                limit,
            } => write!(
                f,
                "vertex id {id} on line {line_number} is not below the limit of {limit} vertices"
            ),
        }
    }
}

impl std::error::Error for IoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IoError::Io(e) => Some(e),
            IoError::Parse { .. } | IoError::VertexLimit { .. } => None,
        }
    }
}

impl From<io::Error> for IoError {
    fn from(e: io::Error) -> Self {
        IoError::Io(e)
    }
}

/// Why an edge callback of [`for_each_edge`] refused a line.
#[derive(Debug, PartialEq)]
pub(crate) enum Rejected {
    /// An endpoint token is not a vertex: an [`IoError::Parse`].
    Malformed,
    /// An endpoint id is at or above [`MAX_VERTICES`]: an [`IoError::VertexLimit`].
    OverLimit(VertexId),
}

/// Parses an edge weight token; `None` unless it is a finite number (`nan`, `inf` and
/// overflowing literals such as `1e999` are rejected, as the pack reader rejects them).
///
/// A token of 1–15 ASCII digits, the common case of count-weighted edge lists, is
/// converted as an integer: its value is below 10^15 < 2^53, so the `u64` holds it
/// exactly and the conversion to `f64` is exact too, which is the value the correctly
/// rounded `str::parse::<f64>` returns for it.  Every other token (signs, fractions,
/// exponents, 16 or more digits) goes through `str::parse`.
pub(crate) fn parse_weight(token: &str) -> Option<Weight> {
    match exact_integer(token) {
        Some(value) => Some(value as Weight),
        None => token.parse::<Weight>().ok().filter(|w| w.is_finite()),
    }
}

/// The value of a token of 1–15 ASCII digits; `None` for any other token.
#[inline]
fn exact_integer(token: &str) -> Option<u64> {
    if !(1..=15).contains(&token.len()) {
        return None;
    }
    token.bytes().try_fold(0u64, |value, b| {
        let digit = b.wrapping_sub(b'0');
        (digit <= 9).then(|| value * 10 + u64::from(digit))
    })
}

/// Parses a vertex id token; `None` unless it is ASCII decimal digits whose value fits a
/// `u32` (fractions, signs, exponents and overflow are rejected, never rounded or
/// clamped; leading zeros are allowed).
fn parse_vertex(token: &str) -> Option<VertexId> {
    if token.is_empty() {
        return None;
    }
    token.bytes().try_fold(0 as VertexId, |id, b| {
        let digit = b.wrapping_sub(b'0');
        if digit > 9 {
            return None;
        }
        id.checked_mul(10)?.checked_add(VertexId::from(digit))
    })
}

/// Passes a vertex id below [`MAX_VERTICES`] through; refuses a larger one.
fn below_limit(id: VertexId) -> Result<VertexId, Rejected> {
    if (id as usize) < MAX_VERTICES {
        Ok(id)
    } else {
        Err(Rejected::OverLimit(id))
    }
}

/// Whether an ASCII byte separates tokens: U+0009–U+000D or U+0020, exactly the ASCII
/// characters for which [`char::is_whitespace`] holds.
#[inline]
fn is_ascii_separator(b: u8) -> bool {
    b == b' ' || b.wrapping_sub(b'\t') <= b'\r' - b'\t'
}

/// Decodes the non-ASCII character that starts at byte `at` of `text`; returns whether it
/// is whitespace and its length in bytes.
#[cold]
fn wide_char(text: &str, at: usize) -> (bool, usize) {
    let c = text[at..]
        .chars()
        .next()
        .expect("a character starts at `at`");
    (c.is_whitespace(), c.len_utf8())
}

/// The tokens of one line of an edge-list text, from byte `at` on; a walk that never
/// passes the `\n` ending the line.
struct LineTokens<'t> {
    text: &'t str,
    at: usize,
}

impl<'t> LineTokens<'t> {
    /// The character at `at`: whether it separates tokens, and its length in bytes;
    /// `None` at the `\n` ending the line or at the end of the text.
    #[inline]
    fn char_at(&self) -> Option<(bool, usize)> {
        match *self.text.as_bytes().get(self.at)? {
            b'\n' => None,
            b if b < 0x80 => Some((is_ascii_separator(b), 1)),
            _ => Some(wide_char(self.text, self.at)),
        }
    }

    /// The next token of the line, or `None` (from then on) once only separators are left
    /// before the line's end.
    #[inline]
    fn next(&mut self) -> Option<&'t str> {
        while let (true, len) = self.char_at()? {
            self.at += len;
        }
        let start = self.at;
        while let Some((false, len)) = self.char_at() {
            self.at += len;
        }
        Some(&self.text[start..self.at])
    }

    /// The byte position of the `\n` that ends the line, or the text's length when the
    /// line is the last and unterminated.
    fn line_end(&self) -> usize {
        let rest = &self.text.as_bytes()[self.at..];
        self.at + rest.iter().position(|&b| b == b'\n').unwrap_or(rest.len())
    }
}

/// Walks the edge lines of an edge-list text.
///
/// Blank lines and lines whose first token starts with `#` or `%` are skipped.  Every
/// other line must hold two endpoint tokens and an optional weight (default `1.0`, and
/// a given weight must be a finite number, see [`parse_weight`]); further tokens are
/// ignored.  `edge` receives each line's endpoint tokens and weight and may refuse
/// them.  A line that breaks these rules, or whose endpoints `edge` refuses, ends the
/// walk with an [`IoError::Parse`] carrying its 1-based number and its text (without
/// the line ending: a `\r` before the `\n` is dropped, as [`str::lines`] drops it), or
/// with an [`IoError::VertexLimit`].
pub(crate) fn for_each_edge<'t>(
    text: &'t str,
    mut edge: impl FnMut(&'t str, &'t str, Weight) -> Result<(), Rejected>,
) -> Result<(), IoError> {
    let mut line_start = 0;
    let mut line_number = 0;
    while line_start < text.len() {
        line_number += 1;
        let mut tokens = LineTokens {
            text,
            at: line_start,
        };
        let outcome = match tokens.next() {
            None => Ok(()),
            Some(first) if first.starts_with(['#', '%']) => Ok(()),
            Some(u) => match (tokens.next(), tokens.next().map(parse_weight)) {
                (Some(v), None) => edge(u, v, 1.0),
                (Some(v), Some(Some(w))) => edge(u, v, w),
                _ => Err(Rejected::Malformed),
            },
        };
        let line_end = tokens.line_end();
        if let Err(rejected) = outcome {
            return Err(match rejected {
                Rejected::Malformed => {
                    let line = &text[line_start..line_end];
                    let line = if line_end < text.len() {
                        line.strip_suffix('\r').unwrap_or(line)
                    } else {
                        line
                    };
                    IoError::Parse {
                        line_number,
                        line: line.to_owned(),
                    }
                }
                Rejected::OverLimit(id) => IoError::VertexLimit {
                    line_number,
                    id,
                    limit: MAX_VERTICES,
                },
            });
        }
        line_start = line_end + 1;
    }
    Ok(())
}

/// Parses a numeric edge-list text (see [`read_edge_list`]).
fn parse_edge_list(text: &str) -> Result<SignedGraph, IoError> {
    let mut builder = GraphBuilder::new(0);
    for_each_edge(text, |u, v, w| match (parse_vertex(u), parse_vertex(v)) {
        (Some(u), Some(v)) => {
            builder.add_edge(below_limit(u)?, below_limit(v)?, w);
            Ok(())
        }
        _ => Err(Rejected::Malformed),
    })?;
    Ok(builder.build())
}

/// Parses an edge list from a reader.
///
/// Each non-comment, non-empty line must contain `u v [w]`; a missing weight defaults to
/// `1.0`, and a given weight must be a finite number.  Vertex ids are unsigned decimal
/// integers that fit a `u32`, and must lie below [`MAX_VERTICES`]; the resulting graph
/// has `max id + 1` vertices.  The whole input is read before parsing starts, so input
/// that is not UTF-8 is an [`IoError::Io`] wherever it occurs.
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
    fn vertex_ids_must_lie_below_the_limit() {
        // The bound itself, at the check: a graph of `MAX_VERTICES` vertices is not built.
        let last = (MAX_VERTICES - 1) as VertexId;
        assert_eq!(below_limit(last), Ok(last));
        assert_eq!(below_limit(last + 1), Err(Rejected::OverLimit(last + 1)));
        // Through the reader, a typed error that names the line, the id and the limit.
        for text in ["0 1\n0 4000000000 1\n", "0 1\n50000000 0\n"] {
            match read_edge_list(text.as_bytes()) {
                Err(IoError::VertexLimit {
                    line_number: 2,
                    limit: MAX_VERTICES,
                    ..
                }) => {}
                other => panic!("{text:?}: expected a vertex-limit error, got {other:?}"),
            }
        }
        let err = read_edge_list("0 4000000000 1".as_bytes()).unwrap_err();
        assert_eq!(
            err.to_string(),
            "vertex id 4000000000 on line 1 is not below the limit of 50000000 vertices"
        );
        // A malformed line stays a parse error whatever the size of its other id.
        assert!(matches!(
            read_edge_list("4000000000 x\n".as_bytes()),
            Err(IoError::Parse { line_number: 1, .. })
        ));
    }

    #[test]
    fn integer_weights_take_the_exact_branch() {
        for token in ["0", "7", "000000000000042", "999999999999999"] {
            assert_eq!(exact_integer(token), token.parse().ok(), "{token}");
            assert_eq!(
                parse_weight(token).map(f64::to_bits),
                token.parse::<f64>().ok().map(f64::to_bits)
            );
        }
        // Signs, fractions, exponents and 16 digits go through `str::parse`.
        for token in ["-1", "+1", "1.5", "1e3", "9007199254740993", ""] {
            assert_eq!(exact_integer(token), None, "{token}");
        }
        assert_eq!(parse_weight("9007199254740993"), Some(9007199254740992.0));
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
