//! `dcs pack-info` — inspect a binary graph pack without decoding it.
//!
//! Prints the header counts and the section table (the O(header) view the
//! zero-copy open validates); `--verify` additionally recomputes every
//! section checksum, decodes the CSR arrays and audits adjacency symmetry —
//! the full integrity sweep, priced at a read of the whole file.

use dcs_graph::GraphPack;

use crate::args::{parse_args, ArgSpec};
use crate::error::CliError;

/// Usage string shown by `dcs help`.
pub const USAGE: &str = "dcs pack-info <PACK> [--verify]";

fn spec() -> ArgSpec {
    ArgSpec::new(&[], &["verify"])
}

/// Runs the subcommand and returns the text to print.
pub fn run(raw_args: &[String]) -> Result<String, CliError> {
    let args = parse_args(raw_args, &spec())?;
    let path = args.positional(0, "pack file")?.to_string();
    let pack = GraphPack::open(&path)?;

    let mut out = String::new();
    out.push_str(&format!("pack: {path}\n"));
    out.push_str(&format!("format version: {}\n", pack.format_version()));
    out.push_str(&format!("vertices: {}\n", pack.vertices()));
    out.push_str(&format!(
        "edges: {} ({} positive, {} negative)\n",
        pack.edges(),
        pack.positive_edges(),
        pack.negative_edges()
    ));
    out.push_str(&format!(
        "names: {}\n",
        if pack.has_names() { "yes" } else { "no" }
    ));
    out.push_str(&format!(
        "backing: {}\n",
        if pack.is_mapped() { "mmap" } else { "buffered" }
    ));
    out.push_str(&format!("file bytes: {}\n", pack.file_len()));
    out.push_str("sections:\n");
    for section in pack.sections() {
        out.push_str(&format!(
            "  {:<8} offset {:>10}  bytes {:>10}  checksum {:016x}\n",
            section.name, section.offset, section.len, section.checksum
        ));
    }

    if args.flag("verify") {
        pack.verify()?;
        out.push_str("verify: ok (checksums, CSR invariants, adjacency symmetry)\n");
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcs_graph::{GraphBuilder, PackWriter};

    fn strings(raw: &[&str]) -> Vec<String> {
        raw.iter().map(|s| s.to_string()).collect()
    }

    fn write_sample_pack(name: &str) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(format!("dcs_cli_packinfo_{name}.pack"));
        let g = GraphBuilder::from_edges(4, vec![(0, 1, 2.0), (1, 2, -1.0), (2, 3, 3.0)]);
        PackWriter::write_graph(&g, &path).unwrap();
        path
    }

    #[test]
    fn reports_header_and_sections() {
        let path = write_sample_pack("basic");
        let out = run(&strings(&[path.to_str().unwrap()])).unwrap();
        assert!(out.contains("format version: 1"));
        assert!(out.contains("vertices: 4"));
        assert!(out.contains("edges: 3 (2 positive, 1 negative)"));
        assert!(out.contains("names: no"));
        assert!(out.contains("offsets"));
        assert!(out.contains("targets"));
        assert!(out.contains("weights"));
        assert!(!out.contains("verify: ok"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn verify_flag_runs_the_full_sweep() {
        let path = write_sample_pack("verify");
        let out = run(&strings(&[path.to_str().unwrap(), "--verify"])).unwrap();
        assert!(out.contains("verify: ok"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_packs_fail_verification() {
        let path = write_sample_pack("corrupt");
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF; // a weights-payload byte: caught by --verify only
        std::fs::write(&path, &bytes).unwrap();
        assert!(run(&strings(&[path.to_str().unwrap()])).is_ok());
        assert!(matches!(
            run(&strings(&[path.to_str().unwrap(), "--verify"])),
            Err(CliError::Pack(_))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn non_pack_files_are_rejected() {
        let path = std::env::temp_dir().join("dcs_cli_packinfo_text.edges");
        std::fs::write(&path, "0 1 1\n").unwrap();
        assert!(matches!(
            run(&strings(&[path.to_str().unwrap()])),
            Err(CliError::Pack(_))
        ));
        std::fs::remove_file(&path).ok();
    }
}
