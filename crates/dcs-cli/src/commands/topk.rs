//! `dcs topk` — mine up to `k` vertex-disjoint density contrast subgraphs.
//!
//! The paper's conclusion lists mining several high-contrast subgraphs as future work;
//! the library implements the peeling strategy in `dcs-core::topk` and this subcommand
//! exposes it on edge-list inputs.

use dcs_core::{top_k_in, DensityMeasure, SolveStats};
use dcs_server::stats_to_json;
use serde_json::json;

use crate::args::{parse_args, ArgSpec};
use crate::error::CliError;
use crate::input::{MiningOptions, PairInput};
use crate::output::{json_to_string, render_report, report_to_json, TraceGuard};

/// Usage string shown by `dcs help`.
pub const USAGE: &str = "dcs topk <G1.edges> <G2.edges> [--k N] [--measure degree|affinity] [--numeric] \
[--scheme weighted|discrete|scaled] [--alpha X] [--direction emerging|disappearing|both] [--clamp X] \
[--timeout SECS] [--budget N] [--threads N] [--trace-json FILE] [--json]";

fn spec() -> ArgSpec {
    ArgSpec::new(
        &[
            "k",
            "measure",
            "scheme",
            "alpha",
            "direction",
            "clamp",
            "timeout",
            "budget",
            "threads",
            "trace-json",
        ],
        &["numeric", "json"],
    )
}

/// Runs the subcommand and returns the text to print.
pub fn run(raw_args: &[String]) -> Result<String, CliError> {
    let args = parse_args(raw_args, &spec())?;
    let pair = PairInput::from_args(&args)?;
    let options = MiningOptions::from_args(&args)?;
    let cx = MiningOptions::solve_context(&args)?;
    let k: usize = args.parse_option("k", 5)?;
    let measure = args.parse_option("measure", DensityMeasure::GraphAffinity)?;

    let tracing = TraceGuard::new(args.option("trace-json"));
    let mut out = String::new();
    let mut json_results = Vec::new();
    let mut job_stats = SolveStats::default();
    for direction in options.direction.expand() {
        let gd = options.difference_graph(&pair, direction)?;
        // Solver dispatch lives in the engine: `top_k_in` drives the measure's
        // solver under the shared deadline/budget context; `after_work` makes the
        // budget job-wide across directions.
        let outcome = top_k_in(&gd, k, measure, &cx.after_work(job_stats.iterations));

        out.push_str(&format!(
            "{} — top {} of {} requested ({measure})\n",
            direction.name(),
            outcome.solutions.len(),
            k,
        ));
        if !outcome.termination.is_converged() {
            out.push_str(&format!(
                "termination  {} (best-so-far after {} iterations, {:.1} ms)\n",
                outcome.termination,
                outcome.stats.iterations,
                outcome.stats.wall.as_secs_f64() * 1e3
            ));
        }
        out.push('\n');
        job_stats.absorb(&outcome.stats);
        for (rank, solution) in outcome.solutions.iter().enumerate() {
            let report = solution.report(&gd);
            let members = pair.render_vertices(&report.subset);
            out.push_str(&render_report(&format!("#{}", rank + 1), &report, &members));
            out.push('\n');
            let mut value = report_to_json(&report, &members);
            value["rank"] = json!(rank + 1);
            value["direction"] = json!(direction.name());
            json_results.push(value);
        }
    }

    out.push_str(&tracing.finish()?);
    if args.flag("json") {
        out.push_str(&json_to_string(&json!({
            "results": json_results,
            "termination": job_stats.termination.as_str(),
            "stats": stats_to_json(&job_stats),
        })));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// G2 contains two disjoint intensifying groups: a triangle and a heavy pair.
    fn write_pair(dir_name: &str) -> (String, String) {
        let dir = std::env::temp_dir().join(dir_name);
        std::fs::create_dir_all(&dir).unwrap();
        let p1 = dir.join("g1.edges");
        let p2 = dir.join("g2.edges");
        std::fs::write(&p1, "a b 1\nd e 1\nf g 1\n").unwrap();
        std::fs::write(&p2, "a b 6\na c 5\nb c 5\nd e 4\nf g 1\n").unwrap();
        (
            p1.to_string_lossy().into_owned(),
            p2.to_string_lossy().into_owned(),
        )
    }

    fn strings(raw: &[&str]) -> Vec<String> {
        raw.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn finds_both_planted_groups_under_affinity() {
        let (p1, p2) = write_pair("dcs_cli_topk_affinity");
        let out = run(&strings(&[&p1, &p2, "--k", "3"])).unwrap();
        assert!(out.contains("#1"));
        assert!(out.contains("#2"));
        assert!(out.contains("a, b, c"));
        assert!(out.contains("d, e"));
        // The f-g pair did not change, so it must not appear as a third group.
        assert!(!out.contains("#3"));
    }

    #[test]
    fn degree_measure_and_json() {
        let (p1, p2) = write_pair("dcs_cli_topk_degree");
        let out = run(&strings(&[
            &p1,
            &p2,
            "--measure",
            "degree",
            "--k",
            "2",
            "--json",
        ]))
        .unwrap();
        assert!(out.contains("average degree"));
        let json_start = out.find("{\n").unwrap();
        let value: serde_json::Value = serde_json::from_str(&out[json_start..]).unwrap();
        assert_eq!(value["results"].as_array().unwrap().len(), 2);
        assert_eq!(value["results"][0]["rank"], 1);
    }

    #[test]
    fn json_reports_termination_and_stats() {
        let (p1, p2) = write_pair("dcs_cli_topk_termination");
        let out = run(&strings(&[&p1, &p2, "--json"])).unwrap();
        let json_start = out.find("{\n").unwrap();
        let value: serde_json::Value = serde_json::from_str(&out[json_start..]).unwrap();
        assert_eq!(value["termination"], "converged");
        assert!(value["stats"]["iterations"].as_u64().unwrap() > 0);

        // A truncated job is machine-distinguishable from a converged one.
        let out = run(&strings(&[&p1, &p2, "--budget", "1", "--json"])).unwrap();
        let json_start = out.find("{\n").unwrap();
        let value: serde_json::Value = serde_json::from_str(&out[json_start..]).unwrap();
        assert_eq!(value["termination"], "budget_exhausted");
    }

    #[test]
    fn rejects_bad_measure_and_bad_k() {
        let (p1, p2) = write_pair("dcs_cli_topk_bad");
        assert!(matches!(
            run(&strings(&[&p1, &p2, "--measure", "mass"])),
            Err(CliError::InvalidValue { .. })
        ));
        assert!(matches!(
            run(&strings(&[&p1, &p2, "--k", "many"])),
            Err(CliError::InvalidValue { .. })
        ));
    }
}
