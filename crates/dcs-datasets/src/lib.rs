//! # dcs-datasets
//!
//! Synthetic graph-*pair* generators that stand in for the datasets used in the DCS
//! paper's evaluation (DBLP co-authorships, data-mining paper titles, Wikipedia editor
//! interactions, Douban social/interest graphs, DBLP-C and Actor collaboration
//! networks).  The real datasets are not redistributable with this repository, so every
//! generator produces a pair `(G1, G2)` with
//!
//! 1. a heavy-tailed random background whose size and weight distribution can be dialled
//!    to match the statistics of Table II,
//! 2. **planted contrast groups** — near-cliques whose connection strength is boosted in
//!    exactly one of the two graphs — which provide measurable ground truth for the
//!    effectiveness experiments, and
//! 3. the paper's Weighted/Discrete re-weighting rules (implemented in `dcs-core::diff`).
//!
//! Every generator is deterministic given its seed.
//!
//! | Paper dataset | Generator |
//! |---|---|
//! | DBLP co-author graphs (before/after 2010) | [`coauthor`] |
//! | DM keyword-association graphs (1998–2007 vs 2008–2017) | [`keywords`] |
//! | Wikipedia editor interaction graphs (positive/negative) | [`conflict`] |
//! | Douban social vs Movie/Book interest graphs | [`social_interest`] |
//! | DBLP-C / Actor collaboration graphs | [`collab`] |
//!
//! Two further generators cover the anomaly-detection applications the paper's
//! introduction motivates but does not evaluate on (no such public datasets exist):
//! expected-vs-observed road traffic on a grid network ([`traffic`]) and
//! expected-vs-observed transaction volumes with planted laundering rings
//! ([`transactions`]).
//!
//! [`large::generate_packs`] writes the million-edge benchmark pair as graph
//! packs; the format and its writer belong to [`dcs_graph::pack`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coauthor;
pub mod collab;
pub mod conflict;
pub mod keywords;
pub mod large;
pub mod planted;
pub mod random;
pub mod recovery;
pub mod social_interest;
pub mod stats;
pub mod traffic;
pub mod transactions;

pub use coauthor::CoauthorConfig;
pub use collab::CollabConfig;
pub use conflict::ConflictConfig;
// The pack writer lives with the format in `dcs_graph::pack`; this re-export
// keeps the benchmark's data preparation (`benchmark/src/data.rs`, its one
// importer) building.
pub use dcs_graph::pack::{PackSummary, PackWriter};
pub use keywords::{KeywordConfig, TopicSpec};
pub use large::LargeConfig;
pub use recovery::{best_match, jaccard, RecoveryReport};
pub use social_interest::SocialInterestConfig;
pub use stats::DiffStats;
pub use traffic::{GridWindow, TrafficConfig};
pub use transactions::TransactionConfig;

use dcs_graph::{SignedGraph, VertexId};

/// Whether a planted group is denser in `G2` (emerging) or in `G1` (disappearing).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroupKind {
    /// Denser in `G2` than in `G1` — found by mining `G_D = G2 − G1`.
    Emerging,
    /// Denser in `G1` than in `G2` — found by mining `G_D = G1 − G2`.
    Disappearing,
}

/// A planted ground-truth group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlantedGroup {
    /// Human-readable name ("emerging-0", "conflicting", …).
    pub name: String,
    /// The group's vertices, sorted ascending.
    pub vertices: Vec<VertexId>,
    /// Whether the group is emerging or disappearing.
    pub kind: GroupKind,
}

/// A generated pair of graphs over the same vertex set, plus the planted ground truth.
#[derive(Debug, Clone)]
pub struct GraphPair {
    /// The "early"/"expected"/"first" graph (`G1` of the paper).
    pub g1: SignedGraph,
    /// The "recent"/"observed"/"second" graph (`G2` of the paper).
    pub g2: SignedGraph,
    /// Ground-truth planted groups.
    pub planted: Vec<PlantedGroup>,
}

impl GraphPair {
    /// The planted groups of a given kind.
    pub fn planted_of_kind(&self, kind: GroupKind) -> Vec<&PlantedGroup> {
        self.planted.iter().filter(|g| g.kind == kind).collect()
    }
}

/// Scaling presets shared by every generator: the paper's graphs range from ~10k to
/// ~1.3M vertices; the presets shrink them so the full experiment suite runs on a laptop
/// while `Full` approaches the published sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scale {
    /// Minimal sizes for unit/integration tests (hundreds of vertices).
    Tiny,
    /// Default experiment scale (thousands of vertices).
    #[default]
    Default,
    /// Paper-scale graphs (tens of thousands to millions of vertices) — slow.
    Full,
}

impl Scale {
    /// Parses a `--scale` command-line value.
    pub fn parse(text: &str) -> Option<Scale> {
        match text.to_ascii_lowercase().as_str() {
            "tiny" => Some(Scale::Tiny),
            "default" => Some(Scale::Default),
            "full" => Some(Scale::Full),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing() {
        assert_eq!(Scale::parse("tiny"), Some(Scale::Tiny));
        assert_eq!(Scale::parse("DEFAULT"), Some(Scale::Default));
        assert_eq!(Scale::parse("Full"), Some(Scale::Full));
        assert_eq!(Scale::parse("huge"), None);
    }

    #[test]
    fn planted_group_filtering() {
        let pair = GraphPair {
            g1: SignedGraph::empty(3),
            g2: SignedGraph::empty(3),
            planted: vec![
                PlantedGroup {
                    name: "a".into(),
                    vertices: vec![0, 1],
                    kind: GroupKind::Emerging,
                },
                PlantedGroup {
                    name: "b".into(),
                    vertices: vec![2],
                    kind: GroupKind::Disappearing,
                },
            ],
        };
        assert_eq!(pair.planted_of_kind(GroupKind::Emerging).len(), 1);
        assert_eq!(pair.planted_of_kind(GroupKind::Disappearing)[0].name, "b");
    }
}
