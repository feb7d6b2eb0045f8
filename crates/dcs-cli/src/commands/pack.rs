//! `dcs pack` — convert a text edge list into a binary graph pack.
//!
//! Packs are the zero-copy input format: `dcs mine|topk|sweep|stats` and the
//! server open them by memory-mapping instead of parsing text (the format
//! and its writer are specified in the [`dcs_graph::pack`] module docs).  By
//! default the input is read as a labelled edge list and the labels are
//! embedded as the pack's vertex-name section; `--numeric` reads integer
//! vertex ids and writes no names.

use dcs_graph::io as graph_io;
use dcs_graph::labels::{read_labeled_edge_list_file, VertexLabels};
use dcs_graph::PackWriter;

use crate::args::{parse_args, ArgSpec};
use crate::error::CliError;

/// Usage string shown by `dcs help`.
pub const USAGE: &str = "dcs pack <EDGES> --out <PACK> [--numeric]";

fn spec() -> ArgSpec {
    ArgSpec::new(&["out"], &["numeric"])
}

/// Runs the subcommand and returns the text to print.
pub fn run(raw_args: &[String]) -> Result<String, CliError> {
    let args = parse_args(raw_args, &spec())?;
    let input = args.positional(0, "edge-list file")?.to_string();
    let out = args
        .option("out")
        .ok_or_else(|| CliError::MissingPositional("--out pack file".to_string()))?
        .to_string();

    let summary = if args.flag("numeric") {
        let g = graph_io::read_edge_list_file(&input)?;
        PackWriter::write_graph(&g, &out)?
    } else {
        let mut labels = VertexLabels::new();
        let g = read_labeled_edge_list_file(&input, &mut labels)?;
        let names: Vec<String> = (0..g.num_vertices() as dcs_graph::VertexId)
            .map(|v| {
                labels
                    .label_of(v)
                    .map(str::to_string)
                    .unwrap_or_else(|| format!("v{v}"))
            })
            .collect();
        PackWriter::write_graph_with_names(&g, &names, &out)?
    };

    Ok(format!(
        "packed {input} -> {out}\n\
         vertices: {}\nedges: {} ({} positive, {} negative)\nbytes: {}\n",
        summary.vertices,
        summary.edges,
        summary.positive_edges,
        summary.negative_edges,
        summary.bytes
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(raw: &[&str]) -> Vec<String> {
        raw.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn packs_a_labeled_edge_list_with_names() {
        let dir = std::env::temp_dir().join("dcs_cli_pack_labeled");
        std::fs::create_dir_all(&dir).unwrap();
        let edges = dir.join("g.edges");
        let pack = dir.join("g.pack");
        std::fs::write(&edges, "alice bob 2\nbob carol -1\n").unwrap();
        let out = run(&strings(&[
            edges.to_str().unwrap(),
            "--out",
            pack.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("vertices: 3"));
        assert!(out.contains("edges: 2 (1 positive, 1 negative)"));

        let opened = dcs_graph::GraphPack::open(&pack).unwrap();
        opened.verify().unwrap();
        assert_eq!(
            opened.read_names().unwrap().unwrap(),
            vec!["alice", "bob", "carol"]
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn packs_a_numeric_edge_list_without_names() {
        let dir = std::env::temp_dir().join("dcs_cli_pack_numeric");
        std::fs::create_dir_all(&dir).unwrap();
        let edges = dir.join("g.edges");
        let pack = dir.join("g.pack");
        std::fs::write(&edges, "0 1 1.5\n1 2 2.5\n").unwrap();
        run(&strings(&[
            edges.to_str().unwrap(),
            "--out",
            pack.to_str().unwrap(),
            "--numeric",
        ]))
        .unwrap();
        let opened = dcs_graph::GraphPack::open(&pack).unwrap();
        assert!(!opened.has_names());
        assert_eq!(opened.edges(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn requires_input_and_out() {
        assert!(matches!(
            run(&strings(&[])),
            Err(CliError::MissingPositional(_))
        ));
        assert!(matches!(
            run(&strings(&["g.edges"])),
            Err(CliError::MissingPositional(_))
        ));
    }
}
