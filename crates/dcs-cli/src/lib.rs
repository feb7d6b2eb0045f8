//! # dcs-cli
//!
//! The `dcs` command-line tool: mine density contrast subgraphs from plain edge-list
//! files without writing any Rust.
//!
//! ```text
//! dcs stats    <G1.edges> <G2.edges> ...   difference-graph statistics (Table II style)
//! dcs mine     <G1.edges> <G2.edges> ...   the DCS under average degree / graph affinity
//! dcs topk     <G1.edges> <G2.edges> ...   up to k vertex-disjoint contrast subgraphs
//! dcs sweep    <G1.edges> <G2.edges> ...   α-sweep of the scaled difference graph
//! dcs compare  <G1.edges> <G2.edges> ...   DCS vs EgoScan vs quasi-clique side by side
//! dcs census   <G1.edges> <G2.edges> ...   positive-clique census of the difference graph
//! dcs generate <dataset> --out <dir> ...   synthetic benchmark pairs with ground truth
//! dcs pack     <EDGES> --out <PACK> ...    convert an edge list to a zero-copy graph pack
//! dcs pack-info <PACK> [--verify]          inspect (and optionally verify) a graph pack
//! dcs serve    [--addr H:P] ...            run the NDJSON contrast-mining server
//! dcs client   <H:P> [REQUEST] ...         send requests to a running server
//! dcs sessions --data-dir DIR              list durable sessions in a data directory
//! ```
//!
//! Edge lists are `label label [weight]` per line by default (`--numeric` switches to
//! integer vertex ids); both graphs are interned into a shared vertex numbering so that
//! the difference graph is well defined.  Mining commands also accept binary graph
//! packs (written by `dcs pack` or `dcs-datasets`) anywhere an edge list is expected —
//! the format is auto-detected per file and packs are memory-mapped instead of
//! parsed.  The library surface of this crate is
//! [`run`], which maps raw arguments to the text a command prints — the binary in
//! `main.rs` is a thin wrapper, and tests call [`run`] directly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod commands;
pub mod error;
pub mod input;
pub mod output;

pub use error::CliError;

/// The overall usage text printed by `dcs help` / `dcs --help`.
pub fn usage() -> String {
    format!(
        "dcs — density contrast subgraph mining\n\
         \n\
         Usage:\n  {}\n  {}\n  {}\n  {}\n  {}\n  {}\n  {}\n  {}\n  {}\n  {}\n  {}\n  {}\n\
         \n\
         Every command accepts exactly the options shown above.\n\
         Edge lists are `label label [weight]` per line; `--numeric` reads integer vertex ids.\n\
         Mining commands accept `--timeout SECS` and `--budget N`: a tripped bound returns\n\
         the best result found so far instead of running to convergence, and\n\
         `--trace-json FILE` dumps a phase timeline (input read and parse, G_D build,\n\
         peel, CD shrink/expand, µ_u bound and sweep, …) as JSON.  `dcs stats --connect\n\
         HOST:PORT` reads a running server's observability surface (queue, latency\n\
         percentiles, cache hit rate).\n\
         The serve/client protocol is documented in the `dcs-server` crate docs.\n",
        commands::stats::USAGE,
        commands::mine::USAGE,
        commands::topk::USAGE,
        commands::sweep::USAGE,
        commands::compare::USAGE,
        commands::census::USAGE,
        commands::generate::USAGE,
        commands::pack::USAGE,
        commands::pack_info::USAGE,
        commands::serve::USAGE,
        commands::client::USAGE,
        commands::sessions::USAGE,
    )
}

/// Dispatches a full argument list (excluding the program name) to the subcommands and
/// returns the text to print on stdout.
pub fn run(args: &[String]) -> Result<String, CliError> {
    let (command, rest) = match args.split_first() {
        None => return Err(CliError::MissingCommand),
        Some((first, rest)) => (first.as_str(), rest),
    };
    match command {
        "stats" => commands::stats::run(rest),
        "mine" => commands::mine::run(rest),
        "topk" => commands::topk::run(rest),
        "sweep" => commands::sweep::run(rest),
        "compare" => commands::compare::run(rest),
        "census" => commands::census::run(rest),
        "generate" => commands::generate::run(rest),
        "pack" => commands::pack::run(rest),
        "pack-info" => commands::pack_info::run(rest),
        "serve" => commands::serve::run(rest),
        "client" => commands::client::run(rest),
        "sessions" => commands::sessions::run(rest),
        "help" | "--help" | "-h" => Ok(usage()),
        other => Err(CliError::UnknownCommand(other.to_string())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(raw: &[&str]) -> Vec<String> {
        raw.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn help_lists_every_command() {
        let text = run(&strings(&["help"])).unwrap();
        for command in [
            "stats",
            "mine",
            "topk",
            "sweep",
            "compare",
            "census",
            "generate",
            "pack",
            "pack-info",
            "serve",
            "client",
            "sessions",
        ] {
            assert!(text.contains(command), "usage mentions {command}");
        }
        assert_eq!(run(&strings(&["--help"])).unwrap(), text);
    }

    #[test]
    fn missing_and_unknown_commands() {
        assert!(matches!(run(&[]), Err(CliError::MissingCommand)));
        assert!(matches!(
            run(&strings(&["compress"])),
            Err(CliError::UnknownCommand(_))
        ));
    }
}
