//! `dcs compare` — side-by-side comparison of the contrast-mining objectives.
//!
//! Runs the two DCS algorithms (average degree and graph affinity), the EgoScan-style
//! total-weight baseline and the greedy α-quasi-clique on the same difference graph and
//! prints one row per method — the workflow behind Tables VIII/IX of the paper, available
//! on user-supplied edge lists.

use dcs_baselines::EgoScan;
use dcs_core::dcsad::DcsGreedy;
use dcs_core::dcsga::NewSea;
use dcs_core::ContrastReport;
use dcs_densest::greedy_quasi_clique;
use serde_json::json;

use crate::args::{parse_args, ArgSpec};
use crate::error::CliError;
use crate::input::{MiningOptions, PairInput};
use crate::output::{json_to_string, report_to_json};

/// Usage string shown by `dcs help`.
pub const USAGE: &str = "dcs compare <G1.edges> <G2.edges> [--quasi-alpha X] [--numeric] \
[--scheme weighted|discrete|scaled] [--alpha X] [--direction emerging|disappearing|both] [--clamp X] [--json]";

fn spec() -> ArgSpec {
    ArgSpec::new(
        &["scheme", "alpha", "direction", "clamp", "quasi-alpha"],
        &["numeric", "json"],
    )
}

/// One comparison row.
struct Row {
    method: &'static str,
    report: ContrastReport,
}

/// Runs the subcommand and returns the text to print.
pub fn run(raw_args: &[String]) -> Result<String, CliError> {
    let args = parse_args(raw_args, &spec())?;
    let pair = PairInput::from_args(&args)?;
    let options = MiningOptions::from_args(&args)?;
    let quasi_alpha: f64 = args.parse_option("quasi-alpha", 1.0)?;

    let mut out = String::new();
    let mut json_rows = Vec::new();
    for direction in options.direction.expand() {
        let gd = options.difference_graph(&pair, direction)?;

        let degree = DcsGreedy::default().solve(&gd);
        let affinity = NewSea::default().solve(&gd);
        let ego = EgoScan::default().solve(&gd);
        let quasi = greedy_quasi_clique(&gd, quasi_alpha);

        let rows = vec![
            Row {
                method: "DCS (average degree)",
                report: ContrastReport::for_subset(&gd, &degree.subset),
            },
            Row {
                method: "DCS (graph affinity)",
                report: ContrastReport::for_embedding(&gd, &affinity.embedding),
            },
            Row {
                method: "EgoScan (total weight)",
                report: ContrastReport::for_subset(&gd, &ego.subset),
            },
            Row {
                method: "Quasi-clique (edge surplus)",
                report: ContrastReport::for_subset(&gd, &quasi.subset),
            },
        ];

        out.push_str(&format!("{}\n", direction.name()));
        out.push_str(&format!(
            "{:<28} {:>6} {:>14} {:>14} {:>14} {:>8}\n",
            "method", "size", "avg-degree", "affinity", "total-weight", "clique?"
        ));
        out.push_str(&"-".repeat(92));
        out.push('\n');
        for row in &rows {
            out.push_str(&format!(
                "{:<28} {:>6} {:>14.3} {:>14.3} {:>14.3} {:>8}\n",
                row.method,
                row.report.size,
                row.report.average_degree_difference,
                row.report.affinity_difference,
                row.report.total_degree_difference,
                if row.report.is_positive_clique {
                    "yes"
                } else {
                    "no"
                },
            ));
            let mut value = report_to_json(&row.report, &pair.render_vertices(&row.report.subset));
            value["method"] = json!(row.method);
            value["direction"] = json!(direction.name());
            json_rows.push(value);
        }
        out.push('\n');
    }

    if args.flag("json") {
        out.push_str(&json_to_string(&json!({ "comparison": json_rows })));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A pair with an emerging clique and a large loosely-strengthened region, so the
    /// total-weight objective and the density objectives disagree.
    fn write_pair(dir_name: &str) -> (String, String) {
        let dir = std::env::temp_dir().join(dir_name);
        std::fs::create_dir_all(&dir).unwrap();
        let p1 = dir.join("g1.edges");
        let p2 = dir.join("g2.edges");
        let mut g1 = String::new();
        let mut g2 = String::new();
        // Emerging triangle a,b,c.
        g1.push_str("a b 1\n");
        g2.push_str("a b 9\na c 8\nb c 8\n");
        // A long chain that strengthens a little everywhere (lots of total weight, low
        // density).
        for i in 0..30 {
            g1.push_str(&format!("chain{} chain{} 1\n", i, i + 1));
            g2.push_str(&format!("chain{} chain{} 2\n", i, i + 1));
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
    fn compares_all_four_methods() {
        let (p1, p2) = write_pair("dcs_cli_compare_basic");
        let out = run(&strings(&[&p1, &p2])).unwrap();
        for method in [
            "DCS (average degree)",
            "DCS (graph affinity)",
            "EgoScan (total weight)",
            "Quasi-clique (edge surplus)",
        ] {
            assert!(out.contains(method), "missing row for {method}");
        }
    }

    #[test]
    fn egoscan_row_has_more_total_weight_but_lower_density() {
        let (p1, p2) = write_pair("dcs_cli_compare_shape");
        let out = run(&strings(&[&p1, &p2, "--json"])).unwrap();
        let json_start = out.find("{\n").unwrap();
        let value: serde_json::Value = serde_json::from_str(&out[json_start..]).unwrap();
        let rows = value["comparison"].as_array().unwrap();
        let find = |method: &str| {
            rows.iter()
                .find(|r| r["method"] == method)
                .unwrap_or_else(|| panic!("row {method}"))
        };
        let dcs = find("DCS (average degree)");
        let ego = find("EgoScan (total weight)");
        assert!(
            ego["total_degree_difference"].as_f64().unwrap()
                >= dcs["total_degree_difference"].as_f64().unwrap() - 1e-9
        );
        assert!(
            ego["average_degree_difference"].as_f64().unwrap()
                <= dcs["average_degree_difference"].as_f64().unwrap() + 1e-9
        );
        // The affinity DCS is always a positive clique.
        assert!(find("DCS (graph affinity)")["is_positive_clique"]
            .as_bool()
            .unwrap());
    }

    #[test]
    fn quasi_alpha_is_configurable_and_validated() {
        let (p1, p2) = write_pair("dcs_cli_compare_alpha");
        assert!(run(&strings(&[&p1, &p2, "--quasi-alpha", "0.2"])).is_ok());
        assert!(matches!(
            run(&strings(&[&p1, &p2, "--quasi-alpha", "soft"])),
            Err(CliError::InvalidValue { .. })
        ));
    }
}
