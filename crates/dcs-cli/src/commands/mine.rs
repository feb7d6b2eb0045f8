//! `dcs mine` — mine the density contrast subgraph of a graph pair.

use dcs_core::dcsad::DcsGreedy;
use dcs_core::dcsga::NewSea;
use dcs_core::{ContrastReport, DensityMeasure, SolveStats};
// The stats shape is the same wire contract the server speaks — one serializer.
use dcs_server::stats_to_json;
use serde_json::json;

use crate::args::{parse_args, ArgSpec};
use crate::error::CliError;
use crate::input::{MiningOptions, PairInput};
use crate::output::{json_to_string, render_report, report_to_json, TraceGuard};

/// Usage string shown by `dcs help`.
pub const USAGE: &str = "dcs mine <G1.edges> <G2.edges> [--measure degree|affinity|both] [--numeric] \
[--scheme weighted|discrete|scaled] [--alpha X] [--direction emerging|disappearing|both] [--clamp X] \
[--timeout SECS] [--budget N] [--threads N] [--trace-json FILE] [--json]";

/// Which density measure(s) to mine under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Measure {
    Degree,
    Affinity,
    Both,
}

impl Measure {
    fn parse(text: &str) -> Option<Measure> {
        if text.eq_ignore_ascii_case("both") {
            return Some(Measure::Both);
        }
        match text.parse().ok()? {
            DensityMeasure::GraphAffinity => Some(Measure::Affinity),
            DensityMeasure::AverageDegree | DensityMeasure::TotalDegree => Some(Measure::Degree),
        }
    }

    fn wants_degree(self) -> bool {
        matches!(self, Measure::Degree | Measure::Both)
    }

    fn wants_affinity(self) -> bool {
        matches!(self, Measure::Affinity | Measure::Both)
    }
}

fn spec() -> ArgSpec {
    ArgSpec::new(
        &[
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

fn termination_line(stats: &SolveStats) -> String {
    if stats.termination.is_converged() {
        String::new()
    } else {
        format!(
            "termination  {} (best-so-far after {} iterations, {:.1} ms)\n",
            stats.termination,
            stats.iterations,
            stats.wall.as_secs_f64() * 1e3
        )
    }
}

/// Runs the subcommand and returns the text to print.
pub fn run(raw_args: &[String]) -> Result<String, CliError> {
    let args = parse_args(raw_args, &spec())?;
    // Started before the inputs load, so the timeline shows their parse.
    let tracing = TraceGuard::new(args.option("trace-json"));
    let pair = PairInput::from_args(&args)?;
    let options = MiningOptions::from_args(&args)?;
    let cx = MiningOptions::solve_context(&args)?;
    let measure = match args.option("measure") {
        None => Measure::Both,
        Some(raw) => Measure::parse(raw).ok_or_else(|| CliError::InvalidValue {
            option: "measure".to_string(),
            value: raw.to_string(),
        })?,
    };

    let mut out = String::new();
    let mut json_results = Vec::new();
    // The deadline is naturally job-wide (absolute instant); splitting the budget
    // via `after_work` makes `--budget` job-wide too, across measures × directions.
    let mut job_used = 0u64;
    for direction in options.direction.expand() {
        let gd = options.difference_graph(&pair, direction)?;

        if measure.wants_degree() {
            let (solution, stats) =
                DcsGreedy::default().solve_bounded(&gd, &[], &cx.after_work(job_used));
            job_used += stats.iterations;
            let report = ContrastReport::for_subset(&gd, &solution.subset);
            let members = pair.render_vertices(&report.subset);
            let title = format!("DCS by average degree — {}", direction.name());
            out.push_str(&render_report(&title, &report, &members));
            out.push_str(&format!(
                "data-dependent approximation ratio  {:.3}\n",
                solution.data_dependent_ratio
            ));
            out.push_str(&termination_line(&stats));
            out.push('\n');
            let mut value = report_to_json(&report, &members);
            value["measure"] = json!("average-degree");
            value["direction"] = json!(direction.name());
            value["data_dependent_ratio"] = json!(solution.data_dependent_ratio);
            value["stats"] = stats_to_json(&stats);
            json_results.push(value);
        }

        if measure.wants_affinity() {
            let (solution, stats) =
                NewSea::default().solve_bounded(&gd, &[], &cx.after_work(job_used));
            job_used += stats.iterations;
            let report = ContrastReport::for_embedding(&gd, &solution.embedding);
            let members = pair.render_vertices(&report.subset);
            let title = format!("DCS by graph affinity — {}", direction.name());
            out.push_str(&render_report(&title, &report, &members));
            let weights: Vec<String> = report
                .subset
                .iter()
                .zip(&members)
                .map(|(&v, name)| format!("{name} ({:.3})", solution.embedding.get(v)))
                .collect();
            out.push_str(&format!("embedding  {}\n", weights.join(", ")));
            out.push_str(&termination_line(&stats));
            out.push('\n');
            let mut value = report_to_json(&report, &members);
            value["measure"] = json!("graph-affinity");
            value["direction"] = json!(direction.name());
            value["embedding"] = json!(report
                .subset
                .iter()
                .map(|&v| solution.embedding.get(v))
                .collect::<Vec<f64>>());
            value["stats"] = stats_to_json(&stats);
            json_results.push(value);
        }
    }

    out.push_str(&tracing.finish()?);
    if args.flag("json") {
        out.push_str(&json_to_string(&json!({ "results": json_results })));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A pair where the triangle {x,y,z} intensifies in G2 and the pair {p,q} weakens.
    fn write_pair(dir_name: &str) -> (String, String) {
        let dir = std::env::temp_dir().join(dir_name);
        std::fs::create_dir_all(&dir).unwrap();
        let p1 = dir.join("g1.edges");
        let p2 = dir.join("g2.edges");
        std::fs::write(&p1, "x y 1\np q 9\nq r 1\n").unwrap();
        std::fs::write(&p2, "x y 5\nx z 4\ny z 4\np q 2\nq r 1\n").unwrap();
        (
            p1.to_string_lossy().into_owned(),
            p2.to_string_lossy().into_owned(),
        )
    }

    fn strings(raw: &[&str]) -> Vec<String> {
        raw.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn measure_parsing() {
        assert_eq!(Measure::parse("degree"), Some(Measure::Degree));
        assert_eq!(Measure::parse("GA"), Some(Measure::Affinity));
        assert_eq!(Measure::parse("both"), Some(Measure::Both));
        assert_eq!(Measure::parse("area"), None);
        assert!(Measure::Both.wants_degree() && Measure::Both.wants_affinity());
        assert!(!Measure::Degree.wants_affinity());
    }

    #[test]
    fn mines_the_emerging_triangle_under_both_measures() {
        let (p1, p2) = write_pair("dcs_cli_mine_emerging");
        let out = run(&strings(&[&p1, &p2])).unwrap();
        assert!(out.contains("DCS by average degree"));
        assert!(out.contains("DCS by graph affinity"));
        // The emerging group is the x/y/z triangle.
        assert!(out.contains("x, y, z"));
        let clique_line = out
            .lines()
            .find(|l| l.starts_with("positive clique"))
            .unwrap();
        assert!(clique_line.ends_with("yes"));
        assert!(out.contains("data-dependent approximation ratio"));
        assert!(out.contains("embedding"));
    }

    #[test]
    fn disappearing_direction_finds_the_weakened_pair() {
        let (p1, p2) = write_pair("dcs_cli_mine_disappearing");
        let out = run(&strings(&[
            &p1,
            &p2,
            "--direction",
            "disappearing",
            "--measure",
            "affinity",
        ]))
        .unwrap();
        assert!(!out.contains("average degree"));
        assert!(out.contains("p, q"));
    }

    #[test]
    fn json_output_is_parseable_and_complete() {
        let (p1, p2) = write_pair("dcs_cli_mine_json");
        let out = run(&strings(&[&p1, &p2, "--direction", "both", "--json"])).unwrap();
        let json_start = out.find("{\n").unwrap();
        let value: serde_json::Value = serde_json::from_str(&out[json_start..]).unwrap();
        // 2 directions × 2 measures.
        assert_eq!(value["results"].as_array().unwrap().len(), 4);
        assert!(value["results"][0]["size"].as_u64().unwrap() >= 2);
    }

    #[test]
    fn timeout_and_budget_flags_bound_the_solve() {
        let (p1, p2) = write_pair("dcs_cli_mine_bounds");
        // A generous timeout converges normally (no termination banner).
        let out = run(&strings(&[&p1, &p2, "--timeout", "30"])).unwrap();
        assert!(!out.contains("termination"));
        // A one-unit budget truncates: the banner names the termination and the
        // result is still a valid report.
        let out = run(&strings(&[&p1, &p2, "--budget", "1", "--json"])).unwrap();
        assert!(out.contains("termination  budget_exhausted"));
        let json_start = out.find("{\n").unwrap();
        let value: serde_json::Value = serde_json::from_str(&out[json_start..]).unwrap();
        assert_eq!(
            value["results"][0]["stats"]["termination"],
            "budget_exhausted"
        );
        // Invalid values are rejected.
        assert!(matches!(
            run(&strings(&[&p1, &p2, "--timeout", "-1"])),
            Err(CliError::InvalidValue { .. })
        ));
        assert!(matches!(
            run(&strings(&[&p1, &p2, "--budget", "lots"])),
            Err(CliError::InvalidValue { .. })
        ));
    }

    #[test]
    fn trace_json_dumps_a_solver_phase_timeline() {
        let _serial = crate::output::trace_test_lock();
        let (p1, p2) = write_pair("dcs_cli_mine_trace");
        let trace_path = std::env::temp_dir()
            .join("dcs_cli_mine_trace")
            .join("trace.json");
        let trace_str = trace_path.to_string_lossy().into_owned();
        let out = run(&strings(&[&p1, &p2, "--trace-json", &trace_str])).unwrap();
        assert!(out.contains("trace timeline"));

        let value: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&trace_path).unwrap()).unwrap();
        let events = value["events"].as_array().unwrap();
        let phases: Vec<&str> = events
            .iter()
            .map(|e| e["phase"].as_str().unwrap())
            .collect();
        // Both inputs were read and parsed (at least two `read` and two `parse`
        // events: tests on other threads may read while tracing is on, and the
        // timeline holds every thread's events), and both solver families ran:
        // greedy peeling and the NewSEA µ_u sweep, after the G_D build and the
        // Theorem-6 bound.
        for phase in ["read", "parse"] {
            assert!(
                phases.iter().filter(|&&p| p == phase).count() >= 2,
                "{phase}: {phases:?}"
            );
        }
        for phase in ["diff_build", "peel", "mu_bound", "mu_sweep"] {
            assert!(phases.contains(&phase), "{phase} missing: {phases:?}");
        }
        // The guard switched tracing back off after the run.
        assert!(!dcs_obs::trace::enabled());
    }

    #[test]
    fn a_negative_weight_is_named_by_its_files_role_in_every_direction() {
        let dir = std::env::temp_dir().join("dcs_cli_mine_negative");
        std::fs::create_dir_all(&dir).unwrap();
        let plain = dir.join("plain.edges");
        let negative = dir.join("negative.edges");
        std::fs::write(&plain, "0 1 2\n1 2 1\n").unwrap();
        std::fs::write(&negative, "0 1 2\n1 2 -1\n").unwrap();
        // `--numeric` merges the two edge lists, labelled input the two graphs.
        for numeric in [true, false] {
            for (g1, g2, which) in [
                (&plain, &negative, "G2"),
                (&negative, &plain, "G1"),
                (&negative, &negative, "G1"),
            ] {
                for direction in ["emerging", "disappearing", "both"] {
                    let mut args = strings(&["--direction", direction]);
                    args.extend([g1, g2].map(|p| p.to_string_lossy().into_owned()));
                    if numeric {
                        args.push("--numeric".to_owned());
                    }
                    let err = run(&args).unwrap_err();
                    assert_eq!(
                        err.to_string(),
                        format!("input graph {which} must have non-negative edge weights"),
                        "{args:?}"
                    );
                }
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rejects_unknown_measure() {
        let (p1, p2) = write_pair("dcs_cli_mine_bad_measure");
        assert!(matches!(
            run(&strings(&[&p1, &p2, "--measure", "volume"])),
            Err(CliError::InvalidValue { .. })
        ));
    }
}
