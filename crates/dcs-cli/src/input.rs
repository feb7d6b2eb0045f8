//! Loading graph pairs and interpreting the shared mining options.
//!
//! Every mining subcommand takes the same inputs: two edge-list files over the same
//! entities, an optional weight scheme (`--scheme weighted|discrete|scaled`), the mining
//! direction (`--direction emerging|disappearing|both`) and an optional weight clamp.
//! This module centralises the loading and option interpretation so the subcommands stay
//! small.
//!
//! A numeric text pair is loaded as two folded, sorted edge lists, which the
//! difference graph merges into its one CSR ([`difference_graph_from_edges`]); every
//! other pair (packs, a pack beside a text, labelled texts) is loaded as two graphs,
//! whose rows the difference graph merges ([`difference_graph_with`]).

use std::borrow::Cow;
use std::path::Path;
use std::time::Duration;

use dcs_core::{
    clamp_weights, difference_graph_from_edges, difference_graph_with, DcsError, DiscreteRule,
    SolveContext, WeightScheme,
};
use dcs_graph::labels::{read_labeled_graph_pair_files, VertexLabels};
use dcs_graph::{io as graph_io, EdgeTriple, GraphBuilder, SignedGraph, VertexId, Weight};

use crate::args::ParsedArgs;
use crate::error::CliError;

/// A loaded pair of input graphs plus (when labelled input was used) the label table.
#[derive(Debug, Clone)]
pub struct PairInput {
    /// `G1` (the first, "early"/"expected" graph) and `G2` (the second,
    /// "recent"/"observed" one), over one vertex count.
    inputs: Inputs,
    /// Label table; `None` when the files were loaded as numeric edge lists.
    pub labels: Option<VertexLabels>,
}

/// The two graphs of a pair in the form they were loaded in.
#[derive(Debug, Clone)]
enum Inputs {
    /// A numeric text pair: each file's edge list as
    /// [`GraphBuilder::into_sorted_edges`] returns it, over the larger of the two
    /// files' vertex counts.
    Edges {
        n: usize,
        g1: Vec<EdgeTriple>,
        g2: Vec<EdgeTriple>,
    },
    /// Any other pair: the two graphs, the smaller padded to the other's count.
    Graphs { g1: SignedGraph, g2: SignedGraph },
}

impl PairInput {
    /// Loads the pair a command names by its first two positionals (`G1`,
    /// then `G2`), each either a text edge list or a binary graph pack
    /// (auto-detected by the pack magic bytes — see [`dcs_graph::pack`]).
    ///
    /// Text endpoints are treated as string labels interned into a shared
    /// table by default; with `--numeric` they are parsed as integer vertex
    /// ids directly, both files read through one reused buffer.  Packs are
    /// always id-addressed, so as soon as either input is a pack the whole
    /// pair is loaded numerically (a pack written from one graph of a pair
    /// shares its numbering with the other by construction).  When both
    /// inputs are packs carrying identical vertex-name tables, the names are
    /// used for rendering.
    pub fn from_args(args: &ParsedArgs) -> Result<Self, CliError> {
        let g1 = args.positional(0, "G1 edge-list file")?;
        let g2 = args.positional(1, "G2 edge-list file")?;
        Self::load(g1, g2, args.flag("numeric"))
    }

    /// Loads the pair at `path1` and `path2` as [`Self::from_args`] describes.
    fn load<P: AsRef<Path>>(path1: P, path2: P, numeric: bool) -> Result<Self, CliError> {
        // An unreadable file sniffs as "not a pack" so the edge-list loader
        // reports the I/O problem with its usual error shape.
        let pack1 = dcs_graph::pack::file_is_pack(&path1).unwrap_or(false);
        let pack2 = dcs_graph::pack::file_is_pack(&path2).unwrap_or(false);
        if !pack1 && !pack2 {
            return if numeric {
                let mut text = String::new();
                let mut read = |path: P| -> Result<_, CliError> {
                    graph_io::read_text_file(path, &mut text)?;
                    Ok(graph_io::parse_sorted_edges(&text)?)
                };
                let (n1, g1) = read(path1)?;
                let (n2, g2) = read(path2)?;
                Ok(PairInput {
                    inputs: Inputs::Edges {
                        n: n1.max(n2),
                        g1,
                        g2,
                    },
                    labels: None,
                })
            } else {
                let (g1, g2, labels) = read_labeled_graph_pair_files(path1, path2)?;
                Ok(PairInput {
                    inputs: Inputs::Graphs { g1, g2 },
                    labels: Some(labels),
                })
            };
        }
        let (g1, names1) = Self::load_side(path1, pack1)?;
        let (g2, names2) = Self::load_side(path2, pack2)?;
        let labels = match (names1, names2) {
            (Some(a), Some(b)) if a == b => Self::labels_from_names(&a),
            _ => None,
        };
        let (g1, g2) = aligned(g1, g2);
        Ok(PairInput {
            inputs: Inputs::Graphs { g1, g2 },
            labels,
        })
    }

    /// Loads one side of a mixed pair: a pack (with its optional name table)
    /// or a numeric edge list.
    fn load_side<P: AsRef<Path>>(
        path: P,
        is_pack: bool,
    ) -> Result<(SignedGraph, Option<Vec<String>>), CliError> {
        if is_pack {
            let pack = dcs_graph::GraphPack::open(path)?;
            let names = pack.read_names()?;
            Ok((pack.to_graph()?, names))
        } else {
            Ok((graph_io::read_edge_list_file(path)?, None))
        }
    }

    /// Builds a label table from a pack name table; `None` when the names are
    /// not unique (interning would misalign ids).
    fn labels_from_names(names: &[String]) -> Option<VertexLabels> {
        let mut labels = VertexLabels::new();
        for name in names {
            labels.intern(name);
        }
        (labels.len() == names.len()).then_some(labels)
    }

    /// The pair as two graphs `(G1, G2)` over one vertex count; a numeric text
    /// pair builds them from its edge lists.
    pub fn graphs(&self) -> (Cow<'_, SignedGraph>, Cow<'_, SignedGraph>) {
        match &self.inputs {
            Inputs::Edges { n, g1, g2 } => {
                let build = |edges: &[EdgeTriple]| {
                    Cow::Owned(GraphBuilder::from_edges(*n, edges.iter().copied()))
                };
                (build(g1), build(g2))
            }
            Inputs::Graphs { g1, g2 } => (Cow::Borrowed(g1), Cow::Borrowed(g2)),
        }
    }

    /// Checks, `G1` first, that neither input has a negative weight, naming
    /// each by its file's role.
    fn check_non_negative(&self) -> Result<(), DcsError> {
        let lightest = |edges: &[EdgeTriple]| edges.iter().fold(0.0, |lo: Weight, e| lo.min(e.2));
        let lightest = match &self.inputs {
            Inputs::Edges { g1, g2, .. } => [lightest(g1), lightest(g2)],
            Inputs::Graphs { g1, g2 } => [g1, g2].map(|g| g.min_edge_weight().unwrap_or(0.0)),
        };
        for (which, lightest) in ["G1", "G2"].into_iter().zip(lightest) {
            if lightest < 0.0 {
                return Err(DcsError::NegativeInputWeight { which });
            }
        }
        Ok(())
    }

    /// Renders a vertex subset using labels when available, ids otherwise.
    pub fn render_vertices(&self, vertices: &[VertexId]) -> Vec<String> {
        match &self.labels {
            Some(labels) => labels.labels_of(vertices),
            None => vertices.iter().map(|v| v.to_string()).collect(),
        }
    }
}

/// Pads the smaller graph of a pair in place to the other's vertex count, as
/// [`dcs_graph::labels::align_vertex_counts`] pads copies of both.
fn aligned(mut g1: SignedGraph, mut g2: SignedGraph) -> (SignedGraph, SignedGraph) {
    let n = g1.num_vertices().max(g2.num_vertices());
    g1.pad_vertices(n);
    g2.pad_vertices(n);
    (g1, g2)
}

/// Which difference graph(s) to mine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// `G_D = G2 − G1` — subgraphs denser in the second graph.
    Emerging,
    /// `G_D = G1 − G2` — subgraphs denser in the first graph.
    Disappearing,
    /// Both directions, reported one after the other.
    Both,
}

impl Direction {
    /// Parses a `--direction` value.
    pub fn parse(text: &str) -> Option<Direction> {
        match text.to_ascii_lowercase().as_str() {
            "emerging" => Some(Direction::Emerging),
            "disappearing" => Some(Direction::Disappearing),
            "both" => Some(Direction::Both),
            _ => None,
        }
    }

    /// The concrete directions to run.
    pub fn expand(self) -> Vec<Direction> {
        match self {
            Direction::Both => vec![Direction::Emerging, Direction::Disappearing],
            d => vec![d],
        }
    }

    /// The pair `(g1, g2)` as the direction's `(minuend, subtrahend)`: `(g2, g1)`,
    /// or `(g1, g2)` when disappearing.
    fn orient<T>(self, g1: T, g2: T) -> (T, T) {
        match self {
            Direction::Emerging | Direction::Both => (g2, g1),
            Direction::Disappearing => (g1, g2),
        }
    }

    /// Human-readable name used in section headers.
    pub fn name(self) -> &'static str {
        match self {
            Direction::Emerging => "Emerging (G2 - G1)",
            Direction::Disappearing => "Disappearing (G1 - G2)",
            Direction::Both => "Both",
        }
    }
}

/// The shared mining options of the `stats`, `mine` and `topk` subcommands.
#[derive(Debug, Clone, Copy)]
pub struct MiningOptions {
    /// The weight scheme used to build the difference graph.
    pub scheme: WeightScheme,
    /// The direction(s) to mine.
    pub direction: Direction,
    /// Optional symmetric clamp on difference-graph weights.
    pub clamp: Option<f64>,
}

impl MiningOptions {
    /// Interprets `--scheme`, `--alpha`, `--direction` and `--clamp`.
    pub fn from_args(args: &ParsedArgs) -> Result<Self, CliError> {
        let scheme = match args.option("scheme").unwrap_or("weighted") {
            "weighted" => WeightScheme::Weighted,
            "discrete" => WeightScheme::Discrete(DiscreteRule::default()),
            "scaled" => WeightScheme::Scaled {
                alpha: args.parse_option("alpha", 1.0)?,
            },
            other => {
                return Err(CliError::InvalidValue {
                    option: "scheme".to_string(),
                    value: other.to_string(),
                })
            }
        };
        let direction = match args.option("direction") {
            None => Direction::Emerging,
            Some(raw) => Direction::parse(raw).ok_or_else(|| CliError::InvalidValue {
                option: "direction".to_string(),
                value: raw.to_string(),
            })?,
        };
        // The clamp bounds weights to `[-c, c]`: `c` must be finite and non-negative
        // (`f64::clamp` panics on a NaN or negative bound).
        let clamp = match args.option("clamp") {
            None => None,
            Some(raw) => Some(
                raw.parse::<f64>()
                    .ok()
                    .filter(|c| c.is_finite() && *c >= 0.0)
                    .ok_or_else(|| CliError::InvalidValue {
                        option: "clamp".to_string(),
                        value: raw.to_string(),
                    })?,
            ),
        };
        Ok(MiningOptions {
            scheme,
            direction,
            clamp,
        })
    }

    /// Interprets the shared solver-bound options `--timeout SECONDS` (wall-clock
    /// deadline), `--budget UNITS` (solver-specific work budget) and
    /// `--threads N` (intra-solve parallelism for NewSEA's µ_u scans, capped at
    /// the available cores; 0 or absent inherits the `DCS_SOLVER_THREADS`
    /// environment default) into a [`SolveContext`].  With no flags the context
    /// is unbounded.
    pub fn solve_context(args: &ParsedArgs) -> Result<SolveContext, CliError> {
        let mut cx = SolveContext::unbounded();
        if let Some(raw) = args.option("threads") {
            let threads: usize = raw.parse().map_err(|_| CliError::InvalidValue {
                option: "threads".to_string(),
                value: raw.to_string(),
            })?;
            cx = cx.with_threads(threads);
        }
        if let Some(raw) = args.option("timeout") {
            let seconds: f64 = raw.parse().map_err(|_| CliError::InvalidValue {
                option: "timeout".to_string(),
                value: raw.to_string(),
            })?;
            // try_from_secs_f64 rejects NaN, negatives and values past u64 seconds
            // (a plain from_secs_f64 would panic on e.g. `--timeout 1e20`).
            let after =
                Duration::try_from_secs_f64(seconds).map_err(|_| CliError::InvalidValue {
                    option: "timeout".to_string(),
                    value: raw.to_string(),
                })?;
            cx = cx.with_deadline(after);
        }
        if let Some(raw) = args.option("budget") {
            let units: u64 = raw.parse().map_err(|_| CliError::InvalidValue {
                option: "budget".to_string(),
                value: raw.to_string(),
            })?;
            cx = cx.with_budget(units);
        }
        Ok(cx)
    }

    /// Builds the difference graph for one direction, applying the scheme and clamp.
    pub fn difference_graph(
        &self,
        pair: &PairInput,
        direction: Direction,
    ) -> Result<SignedGraph, CliError> {
        if direction == Direction::Disappearing {
            // The library names a negative-weighted input by its argument
            // position, which this direction swaps: check the files by role.
            pair.check_non_negative()?;
        }
        let gd = match &pair.inputs {
            Inputs::Edges { n, g1, g2 } => {
                let (minuend, subtrahend) = direction.orient(g1, g2);
                difference_graph_from_edges(*n, minuend, subtrahend, self.scheme)?
            }
            Inputs::Graphs { g1, g2 } => {
                let (minuend, subtrahend) = direction.orient(g1, g2);
                difference_graph_with(minuend, subtrahend, self.scheme)?
            }
        };
        Ok(match self.clamp {
            Some(max_abs) => clamp_weights(&gd, max_abs),
            None => gd,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::{parse_args, ArgSpec};

    fn temp_pair_files(dir_name: &str) -> (std::path::PathBuf, std::path::PathBuf) {
        let dir = std::env::temp_dir().join(dir_name);
        std::fs::create_dir_all(&dir).unwrap();
        let p1 = dir.join("g1.edges");
        let p2 = dir.join("g2.edges");
        std::fs::write(&p1, "alice bob 1\nbob carol 2\n").unwrap();
        std::fs::write(&p2, "alice bob 4\nalice carol 3\nbob carol 3\n").unwrap();
        (p1, p2)
    }

    fn mining_args(raw: &[&str]) -> ParsedArgs {
        let spec = ArgSpec::new(&["scheme", "alpha", "direction", "clamp"], &["numeric"]);
        let raw: Vec<String> = raw.iter().map(|s| s.to_string()).collect();
        parse_args(&raw, &spec).unwrap()
    }

    #[test]
    fn loads_labeled_pair() {
        let (p1, p2) = temp_pair_files("dcs_cli_input_labeled");
        let pair = PairInput::load(&p1, &p2, false).unwrap();
        let (g1, g2) = pair.graphs();
        assert_eq!(g1.num_vertices(), 3);
        assert_eq!(g2.num_vertices(), 3);
        let rendered = pair.render_vertices(&[0, 1]);
        assert_eq!(rendered, vec!["alice".to_string(), "bob".to_string()]);
    }

    #[test]
    fn loads_numeric_pair() {
        let dir = std::env::temp_dir().join("dcs_cli_input_numeric");
        std::fs::create_dir_all(&dir).unwrap();
        let p1 = dir.join("g1.edges");
        let p2 = dir.join("g2.edges");
        std::fs::write(&p1, "0 1 1\n").unwrap();
        std::fs::write(&p2, "0 1 2\n1 2 3\n").unwrap();
        let pair = PairInput::load(&p1, &p2, true).unwrap();
        assert!(pair.labels.is_none());
        assert_eq!(pair.graphs().0.num_vertices(), 3); // aligned to the larger graph
        assert_eq!(pair.render_vertices(&[2]), vec!["2".to_string()]);
    }

    #[test]
    fn pairs_whose_largest_ids_differ_load_and_mine_as_padded_copies() {
        use dcs_graph::labels::align_vertex_counts;
        let dir = std::env::temp_dir().join("dcs_cli_input_padding");
        std::fs::create_dir_all(&dir).unwrap();
        let small = dir.join("small.edges");
        let large = dir.join("large.edges");
        std::fs::write(&small, "0 1 1\n1 2 5\n0 2 1\n").unwrap();
        std::fs::write(&large, "0 1 4\n1 2 1\n0 2 3\n3 5 2\n4 5 2\n").unwrap();
        for (p1, p2) in [(&small, &large), (&large, &small)] {
            // The in-place padding gives the graphs the copying alignment gives.
            let pair = PairInput::load(p1, p2, true).unwrap();
            let (g1, g2) = align_vertex_counts(
                &graph_io::read_edge_list_file(p1).unwrap(),
                &graph_io::read_edge_list_file(p2).unwrap(),
            );
            let (loaded1, loaded2) = pair.graphs();
            assert_eq!((loaded1.num_vertices(), loaded2.num_vertices()), (6, 6));
            assert_eq!((&*loaded1, &*loaded2), (&g1, &g2));
            // And mines the bytes that packs of the copies mine (a pack keeps its
            // vertex count, so that pair needs no padding).
            let (pack1, pack2) = (dir.join("g1.dcspack"), dir.join("g2.dcspack"));
            dcs_graph::PackWriter::write_graph(&g1, &pack1).unwrap();
            dcs_graph::PackWriter::write_graph(&g2, &pack2).unwrap();
            let mine = |a: &Path, b: &Path| {
                let args = [a, b].map(|p| p.to_string_lossy().into_owned());
                crate::commands::mine::run(&[&args[..], &["--numeric".to_owned()]].concat())
                    .unwrap()
            };
            assert_eq!(mine(p1, p2), mine(&pack1, &pack2));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn loads_pack_pairs_and_mixed_pairs() {
        let dir = std::env::temp_dir().join("dcs_cli_input_pack");
        std::fs::create_dir_all(&dir).unwrap();
        let text1 = dir.join("g1.edges");
        let text2 = dir.join("g2.edges");
        std::fs::write(&text1, "0 1 1\n1 2 2\n").unwrap();
        std::fs::write(&text2, "0 1 4\n0 2 3\n1 2 3\n").unwrap();
        let text_pair = PairInput::load(&text1, &text2, true).unwrap();
        let (text_g1, text_g2) = text_pair.graphs();

        let pack1 = dir.join("g1.pack");
        let pack2 = dir.join("g2.pack");
        dcs_graph::PackWriter::write_graph(&text_g1, &pack1).unwrap();
        dcs_graph::PackWriter::write_graph(&text_g2, &pack2).unwrap();

        // Both packs: same graphs as the text pair, no labels without names.
        let pack_pair = PairInput::load(&pack1, &pack2, false).unwrap();
        assert_eq!(pack_pair.graphs(), (text_g1.clone(), text_g2.clone()));
        assert!(pack_pair.labels.is_none());

        // Mixed pack + text: the text side falls back to numeric parsing.
        let mixed = PairInput::load(&pack1, &text2, false).unwrap();
        assert_eq!(mixed.graphs(), (text_g1.clone(), text_g2.clone()));

        // Packs with identical name tables surface them as labels.
        let names: Vec<String> = ["ann", "bob", "cat"].map(String::from).to_vec();
        dcs_graph::PackWriter::write_graph_with_names(&text_g1, &names, &pack1).unwrap();
        dcs_graph::PackWriter::write_graph_with_names(&text_g2, &names, &pack2).unwrap();
        let named = PairInput::load(&pack1, &pack2, false).unwrap();
        assert_eq!(named.render_vertices(&[0, 2]), vec!["ann", "cat"]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn direction_parsing_and_expansion() {
        assert_eq!(Direction::parse("emerging"), Some(Direction::Emerging));
        assert_eq!(Direction::parse("BOTH"), Some(Direction::Both));
        assert_eq!(Direction::parse("sideways"), None);
        assert_eq!(Direction::Both.expand().len(), 2);
        assert_eq!(Direction::Emerging.expand(), vec![Direction::Emerging]);
    }

    #[test]
    fn options_defaults_and_scaled_scheme() {
        let options = MiningOptions::from_args(&mining_args(&[])).unwrap();
        assert_eq!(options.scheme, WeightScheme::Weighted);
        assert_eq!(options.direction, Direction::Emerging);
        assert!(options.clamp.is_none());

        let options = MiningOptions::from_args(&mining_args(&[
            "--scheme",
            "scaled",
            "--alpha",
            "0.5",
            "--direction",
            "both",
            "--clamp",
            "10",
        ]))
        .unwrap();
        assert_eq!(options.scheme, WeightScheme::Scaled { alpha: 0.5 });
        assert_eq!(options.direction, Direction::Both);
        assert_eq!(options.clamp, Some(10.0));
    }

    #[test]
    fn invalid_options_are_rejected() {
        assert!(MiningOptions::from_args(&mining_args(&["--scheme", "wild"])).is_err());
        assert!(MiningOptions::from_args(&mining_args(&["--direction", "up"])).is_err());
        for clamp in ["big", "-1", "nan", "inf", "1e999"] {
            assert!(
                MiningOptions::from_args(&mining_args(&["--clamp", clamp])).is_err(),
                "{clamp}"
            );
        }
        let zero = MiningOptions::from_args(&mining_args(&["--clamp", "0"])).unwrap();
        assert_eq!(zero.clamp, Some(0.0));
    }

    #[test]
    fn difference_graph_respects_direction_and_clamp() {
        let (p1, p2) = temp_pair_files("dcs_cli_input_diff");
        let pair = PairInput::load(&p1, &p2, false).unwrap();
        let mut options = MiningOptions::from_args(&mining_args(&[])).unwrap();

        let emerging = options
            .difference_graph(&pair, Direction::Emerging)
            .unwrap();
        let disappearing = options
            .difference_graph(&pair, Direction::Disappearing)
            .unwrap();
        // alice-bob went from 1 to 4: +3 emerging, -3 disappearing.
        let (a, b) = (0, 1);
        assert_eq!(emerging.edge_weight(a, b), Some(3.0));
        assert_eq!(disappearing.edge_weight(a, b), Some(-3.0));

        options.clamp = Some(1.5);
        let clamped = options
            .difference_graph(&pair, Direction::Emerging)
            .unwrap();
        assert_eq!(clamped.edge_weight(a, b), Some(1.5));
    }
}
