//! `dcs census` — positive-clique census of the difference graph.
//!
//! Runs the exhaustive SEACD+Refine sweep (one initialisation per vertex), deduplicates
//! the refined positive cliques and reports the top ones plus a clique-size histogram —
//! the construction behind Table V ("top emerging/disappearing topics") and Fig. 3
//! ("clique counts") of the paper, available on user-supplied edge lists.

use dcs_core::dcsga::{clique_census, parallel_sweep};
use serde_json::json;

use crate::args::{parse_args, ArgSpec};
use crate::error::CliError;
use crate::input::{MiningOptions, PairInput};
use crate::output::json_to_string;

/// Usage string shown by `dcs help`.
pub const USAGE: &str = "dcs census <G1.edges> <G2.edges> [--top N] [--threads N] [--numeric] \
[--scheme weighted|discrete|scaled] [--alpha X] [--direction emerging|disappearing|both] [--clamp X] [--json]";

fn spec() -> ArgSpec {
    ArgSpec::new(
        &["top", "threads", "scheme", "alpha", "direction", "clamp"],
        &["numeric", "json"],
    )
}

/// Runs the subcommand and returns the text to print.
pub fn run(raw_args: &[String]) -> Result<String, CliError> {
    let args = parse_args(raw_args, &spec())?;
    let pair = PairInput::from_args(&args)?;
    let options = MiningOptions::from_args(&args)?;
    let top: usize = args.parse_option("top", 5)?;
    let threads = MiningOptions::solve_context(&args)?.threads();

    let mut out = String::new();
    let mut json_sections = Vec::new();
    for direction in options.direction.expand() {
        let gd = options.difference_graph(&pair, direction)?;
        let gd_plus = gd.positive_part();
        let sweep = parallel_sweep(&gd_plus, threads, true);
        let census = clique_census(&gd_plus, &sweep.all_solutions);

        out.push_str(&format!(
            "{} — {} initialisations, {} distinct positive cliques\n\n",
            direction.name(),
            sweep.initializations,
            census.len()
        ));

        // Top cliques by affinity difference.
        out.push_str(&format!("top {} cliques by affinity difference:\n", top));
        for (rank, clique) in census.iter().take(top).enumerate() {
            let members = pair.render_vertices(&clique.support);
            out.push_str(&format!(
                "  #{:<2} affinity {:>9.3}  size {:>3}  {{{}}}\n",
                rank + 1,
                clique.affinity,
                clique.support.len(),
                members.join(", ")
            ));
        }

        // Clique-size histogram (Fig. 3 style).
        let mut histogram: Vec<(usize, usize)> = Vec::new();
        for clique in &census {
            let size = clique.support.len();
            match histogram.iter_mut().find(|(s, _)| *s == size) {
                Some((_, count)) => *count += 1,
                None => histogram.push((size, 1)),
            }
        }
        histogram.sort_unstable();
        out.push_str("\nclique-size histogram:\n");
        for (size, count) in &histogram {
            out.push_str(&format!("  size {size:>3}: {count}\n"));
        }
        out.push('\n');

        json_sections.push(json!({
            "direction": direction.name(),
            "initializations": sweep.initializations,
            "distinct_cliques": census.len(),
            "top": census.iter().take(top).map(|c| json!({
                "affinity": c.affinity,
                "size": c.support.len(),
                "vertices": c.support,
                "members": pair.render_vertices(&c.support),
            })).collect::<Vec<_>>(),
            "histogram": histogram.iter().map(|(size, count)| json!({
                "size": size,
                "count": count,
            })).collect::<Vec<_>>(),
        }));
    }

    if args.flag("json") {
        out.push_str(&json_to_string(&json!({ "census": json_sections })));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two disjoint emerging cliques of different sizes plus one disappearing pair.
    fn write_pair(dir_name: &str) -> (String, String) {
        let dir = std::env::temp_dir().join(dir_name);
        std::fs::create_dir_all(&dir).unwrap();
        let p1 = dir.join("g1.edges");
        let p2 = dir.join("g2.edges");
        let mut g1 = String::from("p q 9\n");
        let mut g2 = String::from("p q 1\n");
        // Emerging triangle.
        for (u, v) in [("a", "b"), ("a", "c"), ("b", "c")] {
            g1.push_str(&format!("{u} {v} 1\n"));
            g2.push_str(&format!("{u} {v} 6\n"));
        }
        // Emerging 4-clique.
        let quad = ["w", "x", "y", "z"];
        for i in 0..4 {
            for j in (i + 1)..4 {
                g2.push_str(&format!("{} {} 4\n", quad[i], quad[j]));
            }
        }
        std::fs::write(&p1, g1).unwrap();
        std::fs::write(&p2, g2).unwrap();
        (
            p1.to_string_lossy().into_owned(),
            p2.to_string_lossy().into_owned(),
        )
    }

    fn strings(raw: &[&str]) -> Vec<String> {
        raw.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn census_reports_both_planted_cliques() {
        let (p1, p2) = write_pair("dcs_cli_census_basic");
        let out = run(&strings(&[&p1, &p2, "--top", "3"])).unwrap();
        assert!(out.contains("distinct positive cliques"));
        assert!(out.contains("a, b, c"));
        assert!(out.contains("w, x, y, z"));
        assert!(out.contains("clique-size histogram"));
        assert!(out.contains("size   3"));
        assert!(out.contains("size   4"));
    }

    #[test]
    fn disappearing_direction_and_json_histogram() {
        let (p1, p2) = write_pair("dcs_cli_census_json");
        let out = run(&strings(&[
            &p1,
            &p2,
            "--direction",
            "disappearing",
            "--json",
            "--threads",
            "2",
        ]))
        .unwrap();
        assert!(out.contains("p, q"));
        let json_start = out.find("{\n").unwrap();
        let value: serde_json::Value = serde_json::from_str(&out[json_start..]).unwrap();
        let section = &value["census"][0];
        assert_eq!(section["direction"], "Disappearing (G1 - G2)");
        assert!(section["distinct_cliques"].as_u64().unwrap() >= 1);
        assert!(!section["histogram"].as_array().unwrap().is_empty());
    }

    #[test]
    fn rejects_bad_top_and_threads() {
        let (p1, p2) = write_pair("dcs_cli_census_bad");
        assert!(matches!(
            run(&strings(&[&p1, &p2, "--top", "few"])),
            Err(CliError::InvalidValue { .. })
        ));
        assert!(matches!(
            run(&strings(&[&p1, &p2, "--threads", "-2"])),
            Err(CliError::InvalidValue { .. })
        ));
    }
}
