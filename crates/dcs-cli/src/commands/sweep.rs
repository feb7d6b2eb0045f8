//! `dcs sweep` — α-sweep of the scaled difference graph `A2 − α·A1`.
//!
//! Section III-D of the paper generalises the difference graph to `A2 − α·A1`; this
//! subcommand mines a grid of α values (warm-starting each point from the previous
//! α's support) and prints how the mined subgraph shrinks towards the genuinely
//! contrasting core as α grows.  The whole sweep runs under one optional
//! `--timeout`/`--budget` bound, reporting best-so-far grid prefixes when it trips.

use dcs_core::{alpha_sweep_in, default_alpha_grid, DensityMeasure};
use serde_json::json;

use crate::args::{parse_args, ArgSpec, ParsedArgs};
use crate::error::CliError;
use crate::input::{MiningOptions, PairInput};
use crate::output::{json_to_string, report_to_json, TraceGuard};

/// Usage string shown by `dcs help`.
pub const USAGE: &str =
    "dcs sweep <G1.edges> <G2.edges> [--alphas a,b,c] [--measure degree|affinity] \
[--numeric] [--timeout SECS] [--budget N] [--threads N] [--trace-json FILE] [--json]";

fn spec() -> ArgSpec {
    ArgSpec::new(
        &[
            "alphas",
            "measure",
            "timeout",
            "budget",
            "threads",
            "trace-json",
        ],
        &["numeric", "json"],
    )
}

fn parse_alphas(args: &ParsedArgs) -> Result<Vec<f64>, CliError> {
    match args.option("alphas") {
        None => Ok(default_alpha_grid()),
        Some(raw) => raw
            .split(',')
            .map(|piece| {
                piece.trim().parse().map_err(|_| CliError::InvalidValue {
                    option: "alphas".to_string(),
                    value: raw.to_string(),
                })
            })
            .collect(),
    }
}

/// Runs the subcommand and returns the text to print.
pub fn run(raw_args: &[String]) -> Result<String, CliError> {
    let args = parse_args(raw_args, &spec())?;
    let pair = PairInput::from_args(&args)?;
    let cx = MiningOptions::solve_context(&args)?;
    let alphas = parse_alphas(&args)?;
    let measure = args.parse_option("measure", DensityMeasure::GraphAffinity)?;

    let tracing = TraceGuard::new(args.option("trace-json"));
    let (g1, g2) = pair.graphs();
    let sweep = alpha_sweep_in(&g2, &g1, &alphas, measure, &cx)?;

    let mut out = String::new();
    out.push_str(&format!(
        "α-sweep over {} grid points ({measure})\n",
        alphas.len(),
    ));
    if !sweep.termination.is_converged() {
        out.push_str(&format!(
            "termination  {} ({} of {} points mined, {:.1} ms)\n",
            sweep.termination,
            sweep.points.len(),
            alphas.len(),
            sweep.stats.wall.as_secs_f64() * 1e3
        ));
    }
    out.push('\n');
    out.push_str(&format!(
        "{:>8} {:>6} {:>14} {:>14}  members\n",
        "alpha", "size", "objective", "avg-degree"
    ));
    out.push_str(&"-".repeat(78));
    out.push('\n');
    let mut json_points = Vec::new();
    for point in &sweep.points {
        let members = pair.render_vertices(&point.subset);
        out.push_str(&format!(
            "{:>8.3} {:>6} {:>14.3} {:>14.3}  {}\n",
            point.alpha,
            point.subset.len(),
            point.objective,
            point.report.average_degree_difference,
            members.join(", "),
        ));
        let mut value = report_to_json(&point.report, &members);
        value["alpha"] = json!(point.alpha);
        value["objective"] = json!(point.objective);
        json_points.push(value);
    }

    out.push_str(&tracing.finish()?);
    if args.flag("json") {
        out.push_str(&json_to_string(&json!({
            "points": json_points,
            "termination": sweep.termination.as_str(),
        })));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// G2 strengthens the triangle a,b,c; the pair p,q is strong in both graphs.
    fn write_pair(dir_name: &str) -> (String, String) {
        let dir = std::env::temp_dir().join(dir_name);
        std::fs::create_dir_all(&dir).unwrap();
        let p1 = dir.join("g1.edges");
        let p2 = dir.join("g2.edges");
        std::fs::write(&p1, "a b 1\np q 10\n").unwrap();
        std::fs::write(&p2, "a b 5\na c 5\nb c 5\np q 11\n").unwrap();
        (
            p1.to_string_lossy().into_owned(),
            p2.to_string_lossy().into_owned(),
        )
    }

    fn strings(raw: &[&str]) -> Vec<String> {
        raw.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn sweeps_the_default_grid_and_prices_out_stable_structure() {
        let (p1, p2) = write_pair("dcs_cli_sweep_default");
        let out = run(&strings(&[&p1, &p2, "--measure", "degree"])).unwrap();
        assert!(out.contains("α-sweep over 9 grid points"));
        // At α = 0 the stable heavy pair wins; at high α the emerging triangle does.
        assert!(out.contains("p, q"));
        assert!(out.contains("a, b, c"));
        assert!(!out.contains("termination"));
    }

    #[test]
    fn custom_grid_json_and_truncation() {
        let (p1, p2) = write_pair("dcs_cli_sweep_json");
        let out = run(&strings(&[&p1, &p2, "--alphas", "0,1.5", "--json"])).unwrap();
        let json_start = out.find("{\n").unwrap();
        let value: serde_json::Value = serde_json::from_str(&out[json_start..]).unwrap();
        assert_eq!(value["points"].as_array().unwrap().len(), 2);
        assert_eq!(value["termination"], "converged");

        // A one-unit budget truncates the sweep but still reports a valid prefix.
        let out = run(&strings(&[&p1, &p2, "--budget", "1", "--json"])).unwrap();
        assert!(out.contains("termination  budget_exhausted"));

        // Bad inputs are rejected.
        assert!(matches!(
            run(&strings(&[&p1, &p2, "--alphas", "0,fast"])),
            Err(CliError::InvalidValue { .. })
        ));
        assert!(matches!(
            run(&strings(&[&p1, &p2, "--measure", "volume"])),
            Err(CliError::InvalidValue { .. })
        ));
        assert!(matches!(
            run(&strings(&[&p1])),
            Err(CliError::MissingPositional(_))
        ));
    }
}
