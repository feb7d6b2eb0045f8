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
//! The numeric reader first tries each line as a *fast line*:
//! `digits SP digits [SP digits] LF`, with ids of at most 9 digits below
//! [`MAX_VERTICES`] and a weight of at most 15 digits, the form of an unweighted or
//! integer-weighted (count) line as [`write_edge_list`] prints it.  A fast line is read
//! in one pass over its bytes, each digit run stopping at its cap, and its weight is
//! converted as the walker converts a 1–15 digit token, exactly.  Any other line (a
//! comment, a tab, a doubled or trailing space, `\r\n`, a missing final newline, a
//! real-valued, signed or longer number, an id past the limit) goes, alone, to the
//! walker, so every token rule, error, line number and output bit is the walker's.
//! After 16 lines in a row that are not fast lines, only every 16th line is tried
//! until one is, so a text of real-valued weights costs little more than the walker.
//!
//! A numeric edge list may name vertex ids below [`MAX_VERTICES`]; a larger id is refused
//! with [`IoError::VertexLimit`] before any vertex array is sized by it.

use std::io::{self, BufRead, BufWriter, Write};
use std::path::Path;

use dcs_obs::trace::Phase;

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

/// The most digits of an integer weight token converted exactly: its value is below
/// 10^15 < 2^53.
const EXACT_DIGITS: usize = 15;

/// The value of a token of 1–15 ASCII digits; `None` for any other token.
#[inline]
fn exact_integer(token: &str) -> Option<u64> {
    digit_run(token.as_bytes(), 0, EXACT_DIGITS)
        .and_then(|(value, end)| (end == token.len()).then_some(value))
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
        line_start = walk_line(text, line_start, line_number, &mut edge)?;
    }
    Ok(())
}

/// Walks the one line of `text` that starts at byte `line_start` under the rules of
/// [`for_each_edge`], as its line `line_number`; returns where the next line starts.
fn walk_line<'t>(
    text: &'t str,
    line_start: usize,
    line_number: usize,
    edge: impl FnOnce(&'t str, &'t str, Weight) -> Result<(), Rejected>,
) -> Result<usize, IoError> {
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
    match outcome {
        Ok(()) => Ok(line_end + 1),
        Err(Rejected::Malformed) => {
            let line = &text[line_start..line_end];
            let line = if line_end < text.len() {
                line.strip_suffix('\r').unwrap_or(line)
            } else {
                line
            };
            Err(IoError::Parse {
                line_number,
                line: line.to_owned(),
            })
        }
        Err(Rejected::OverLimit(id)) => Err(IoError::VertexLimit {
            line_number,
            id,
            limit: MAX_VERTICES,
        }),
    }
}

/// The most digits a vertex id of a fast line may have: every 9-digit value fits a
/// `u32`, so the run needs no overflow check.
const FAST_ID_DIGITS: usize = 9;

/// The value of the run of 1 to `cap` ASCII digits at byte `at` of `bytes`, and the
/// position after it; `None` when no digit is there or the run is longer than `cap`.
/// No digit past the cap is accumulated, so the value cannot overflow.
#[inline]
fn digit_run(bytes: &[u8], at: usize, cap: usize) -> Option<(u64, usize)> {
    let end = bytes.len().min(at + cap);
    let mut value = 0u64;
    let mut i = at;
    while i < end {
        let digit = bytes[i].wrapping_sub(b'0');
        if digit > 9 {
            break;
        }
        value = value * 10 + u64::from(digit);
        i += 1;
    }
    let longer = bytes.get(i).is_some_and(u8::is_ascii_digit);
    (i > at && !longer).then_some((value, i))
}

/// Reads the *fast line* that starts at byte `at`, a line of the exact form
/// `digits SP digits [SP digits] LF` whose ids have at most [`FAST_ID_DIGITS`] digits
/// and lie below [`MAX_VERTICES`] and whose weight has at most [`EXACT_DIGITS`];
/// returns its edge and where the next line starts, or `None` for any other line.
/// On a fast line the token walker would read the same ids, and the same weight bits,
/// since [`parse_weight`] converts such a token with [`exact_integer`], the same run.
#[inline]
fn fast_line(bytes: &[u8], at: usize) -> Option<(VertexId, VertexId, Weight, usize)> {
    let (u, at) = digit_run(bytes, at, FAST_ID_DIGITS)?;
    if bytes.get(at) != Some(&b' ') {
        return None;
    }
    let (v, at) = digit_run(bytes, at + 1, FAST_ID_DIGITS)?;
    let (w, at) = match *bytes.get(at)? {
        b'\n' => (1.0, at),
        b' ' => {
            let (w, at) = digit_run(bytes, at + 1, EXACT_DIGITS)?;
            (w as Weight, at)
        }
        _ => return None,
    };
    let limit = MAX_VERTICES as u64;
    if bytes.get(at) != Some(&b'\n') || u >= limit || v >= limit {
        return None;
    }
    Some((u as VertexId, v as VertexId, w, at + 1))
}

/// Parses a numeric edge-list text (see [`read_edge_list`]).
///
/// Each [`fast_line`] is read in one pass; any other line goes, alone, to the token
/// walker of [`for_each_edge`], so the rules, errors and line numbers are the walker's.
/// After [`FAST_RETRY_LINES`] lines in a row that are not fast, only every
/// [`FAST_RETRY_LINES`]th line is tried until one is a fast line again, so a text of
/// real-valued weights pays for few failed attempts, while a text that mixes the two
/// kinds of line tries every line.
fn parse_edge_list(text: &str) -> Result<SignedGraph, IoError> {
    let mut span = dcs_obs::trace::span(Phase::Parse);
    let mut builder = GraphBuilder::new(0);
    let bytes = text.as_bytes();
    let mut edge_lines = 0u64;
    let mut line_start = 0;
    let mut line_number = 0;
    let mut misses = 0usize;
    while line_start < bytes.len() {
        line_number += 1;
        let fast = if misses < FAST_RETRY_LINES || line_number % FAST_RETRY_LINES == 0 {
            fast_line(bytes, line_start)
        } else {
            None
        };
        line_start = match fast {
            Some((u, v, w, next)) => {
                misses = 0;
                builder.add_edge(u, v, w);
                edge_lines += 1;
                next
            }
            None => {
                misses += 1;
                walk_line(text, line_start, line_number, |u, v, w| {
                    match (parse_vertex(u), parse_vertex(v)) {
                        (Some(u), Some(v)) => {
                            builder.add_edge(below_limit(u)?, below_limit(v)?, w);
                            edge_lines += 1;
                            Ok(())
                        }
                        _ => Err(Rejected::Malformed),
                    }
                })?
            }
        };
    }
    span.set_units(edge_lines);
    Ok(builder.build())
}

/// How many lines in a row may fail to be fast lines before [`parse_edge_list`] tries
/// only every line whose number is a multiple of it.
const FAST_RETRY_LINES: usize = 16;

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
    fn fast_lines_stop_at_their_caps() {
        let fast = |line: &str| fast_line(line.as_bytes(), 0).map(|(u, v, w, _)| (u, v, w));
        assert_eq!(fast("1 2 3\n"), Some((1, 2, 3.0)));
        assert_eq!(fast("1 2\n"), Some((1, 2, 1.0)));
        assert_eq!(
            fast("000000001 49999999 000000000000003\n"),
            Some((1, 49_999_999, 3.0))
        );
        assert_eq!(
            fast("7 7 999999999999999\n"),
            Some((7, 7, 999_999_999_999_999.0))
        );
        // Longer runs, ids at the limit, other separators and endings are left to the
        // token walker; a 20-digit run stops at its cap instead of overflowing.
        for line in [
            "0000000001 2 3\n",
            "1 0000000002 3\n",
            "1 2 0000000000000003\n",
            "1 2 99999999999999999999\n",
            "50000000 1\n",
            "1 999999999\n",
            "1 2 3",
            "1 2 3\r\n",
            "1  2 3\n",
            "1 2 3 \n",
            "1\t2 3\n",
            "1 2 -3\n",
            "1 2 3.5\n",
            "# 1 2\n",
            "\n",
        ] {
            assert_eq!(fast(line), None, "{line:?}");
        }
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
