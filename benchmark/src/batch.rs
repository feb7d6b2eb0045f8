//! `batch-mine`: one `dcs mine --measure both` process at a time on the text
//! edge lists, plus the in-process replay of the same mine layer by layer.

use std::io;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use dcs_cli::output::{json_to_string, render_report, report_to_json};
use dcs_core::dcsad::DcsGreedy;
use dcs_core::dcsga::NewSea;
use dcs_core::{difference_graph_with, ContrastReport, SolveContext, WeightScheme};
use dcs_densest::{greedy_peeling_view_auto, ParallelPeelWorkspace, PeelWorkspace};
use dcs_graph::labels::align_vertex_counts;
use dcs_graph::{io as graph_io, GraphView, SignedGraph, VertexId};
use serde_json::{json, Value};

use crate::data::Inputs;
use crate::machine;
use crate::trace::Tracer;

pub const REP: &str = "batch-mine.rep";
pub const PARSE: &str = "dcs-graph.io.parse";
pub const DIFF: &str = "dcs-core.diff.build";
pub const DCSAD: &str = "dcs-core.dcsad.solve";
pub const PEEL: &str = "dcs-densest.peel";
pub const DCSGA: &str = "dcs-core.dcsga.solve";
pub const REPORT: &str = "dcs-core.report";
pub const OUTPUT: &str = "dcs-cli.output";
/// The replay rows that make up one CLI mine.  The standalone peel is left
/// out: it re-runs work that `dcs-core.dcsad.solve` already contains.
pub const MINE_ROWS: [&str; 6] = [PARSE, DIFF, DCSAD, DCSGA, REPORT, OUTPUT];

/// Warm-up mines (the set-up) and timed mines of one run.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub setups: usize,
    pub samples: usize,
}

/// What the CLI must print: per measure, the subset and its density.
#[derive(Debug, Clone, PartialEq)]
pub struct Reference {
    pub degree: (Vec<VertexId>, f64),
    pub affinity: (Vec<VertexId>, f64),
}

/// Solver counters of the replayed mine.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub dcsad_iterations: u64,
    pub dcsga_iterations: u64,
    pub dcsga_candidates: u64,
    pub dcsga_prunes: u64,
}

fn mine_command(dcs: &Path, inputs: &Inputs) -> Command {
    let mut command = Command::new(dcs);
    command
        .arg("mine")
        .arg(&inputs.g1_edges)
        .arg(&inputs.g2_edges)
        .args(["--numeric", "--measure", "both", "--json"])
        .env("DCS_SOLVER_THREADS", "1")
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    command
}

/// Runs one `dcs mine`; returns its wall time from spawn to exit (ms) and
/// its standard output.
pub fn mine_once(dcs: &Path, inputs: &Inputs) -> io::Result<(f64, String)> {
    let mut command = mine_command(dcs, inputs);
    let start = Instant::now();
    let output = command.output()?;
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    if !output.status.success() {
        return Err(io::Error::other(format!(
            "dcs mine exited with {}",
            output.status
        )));
    }
    let stdout = String::from_utf8(output.stdout).map_err(io::Error::other)?;
    Ok((wall_ms, stdout))
}

/// The flag that runs this binary as the peak-memory helper.
pub const PEAK_RSS_FLAG: &str = "--peak-rss";

/// Peak resident set (MB) of one untimed `dcs mine`.  A process inherits
/// the peak of the process that spawned it (Linux carries it over `exec`),
/// so the mine is spawned by a small helper, this binary run with
/// [`PEAK_RSS_FLAG`], and not by the benchmark, whose own peak includes
/// the generated inputs.
pub fn peak_rss_mb(dcs: &Path, inputs: &Inputs) -> io::Result<f64> {
    let mine = mine_command(dcs, inputs);
    let output = Command::new(std::env::current_exe()?)
        .arg(PEAK_RSS_FLAG)
        .arg(mine.get_program())
        .args(mine.get_args())
        .env("DCS_SOLVER_THREADS", "1")
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()?;
    let text = String::from_utf8_lossy(&output.stdout);
    match (output.status.success(), text.trim().parse::<f64>()) {
        (true, Ok(mb)) => Ok(mb),
        _ => Err(io::Error::other(format!(
            "peak-memory helper failed ({}): {text:?}",
            output.status
        ))),
    }
}

/// The helper: runs `command` with its output discarded and prints the
/// command's peak resident set (MB).
pub fn peak_rss_helper(command: &[String]) -> ExitCode {
    let Some((program, args)) = command.split_first() else {
        return ExitCode::from(2);
    };
    let status = Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .status();
    match status {
        Ok(status) if status.success() => {
            println!("{}", machine::children_peak_rss_mb());
            ExitCode::SUCCESS
        }
        _ => ExitCode::FAILURE,
    }
}

/// The diagnostic standalone peel: `greedy_peeling_view_auto` on the
/// positive part of `gd`, one thread, fresh workspaces.
pub fn peel_positive_part(gd: &SignedGraph) {
    std::hint::black_box(greedy_peeling_view_auto(
        GraphView::full(gd).positive_part(),
        &mut PeelWorkspace::new(),
        &mut ParallelPeelWorkspace::new(),
        1,
        |_| false,
    ));
}

/// The in-process replay of one `dcs mine --numeric --measure both --json`,
/// `reps` times, each layer call in its own span.
pub fn replay(
    inputs: &Inputs,
    tracer: &mut Tracer,
    reps: usize,
) -> io::Result<(Reference, Counters)> {
    let cx = SolveContext::unbounded().with_threads(1);
    let mut last = None;
    for rep in 0..reps as u64 {
        let root = tracer.enter(REP, rep);
        let (g1, g2) = tracer.span(PARSE, rep, || -> io::Result<_> {
            let g1 = graph_io::read_edge_list_file(&inputs.g1_edges).map_err(io::Error::other)?;
            let g2 = graph_io::read_edge_list_file(&inputs.g2_edges).map_err(io::Error::other)?;
            Ok(align_vertex_counts(&g1, &g2))
        })?;
        let gd = tracer
            .span(DIFF, rep, || {
                difference_graph_with(&g2, &g1, WeightScheme::Weighted)
            })
            .map_err(io::Error::other)?;
        let (degree, degree_stats) = tracer.span(DCSAD, rep, || {
            DcsGreedy::default().solve_bounded(&gd, &[], &cx)
        });
        tracer.span(PEEL, rep, || peel_positive_part(&gd));
        let (affinity, affinity_stats) = tracer.span(DCSGA, rep, || {
            NewSea::default().solve_bounded(&gd, &[], &cx)
        });
        let (degree_report, affinity_report) = tracer.span(REPORT, rep, || {
            (
                ContrastReport::for_subset(&gd, &degree.subset),
                ContrastReport::for_embedding(&gd, &affinity.embedding),
            )
        });
        let text = tracer.span(OUTPUT, rep, || {
            let mut text = String::new();
            let mut results = Vec::new();
            for (title, report, stats) in [
                ("DCS by average degree", &degree_report, &degree_stats),
                ("DCS by graph affinity", &affinity_report, &affinity_stats),
            ] {
                let members: Vec<String> = report.subset.iter().map(|v| v.to_string()).collect();
                text.push_str(&render_report(title, report, &members));
                let mut value = report_to_json(report, &members);
                value["stats"] = dcs_server::stats_to_json(stats);
                results.push(value);
            }
            text.push_str(&json_to_string(&json!({ "results": results })));
            text
        });
        std::hint::black_box(text);
        tracer.exit(root);
        last = Some((
            Reference {
                degree: (
                    degree_report.subset.clone(),
                    degree_report.average_degree_difference,
                ),
                affinity: (
                    affinity_report.subset.clone(),
                    affinity_report.affinity_difference,
                ),
            },
            Counters {
                dcsad_iterations: degree_stats.iterations,
                dcsga_iterations: affinity_stats.iterations,
                dcsga_candidates: affinity_stats.candidates,
                dcsga_prunes: affinity_stats.prunes,
            },
        ));
    }
    Ok(last.expect("at least one repetition"))
}

fn subset_of(value: &Value) -> Option<Vec<VertexId>> {
    value
        .as_array()?
        .iter()
        .map(|v| v.as_u64().and_then(|v| VertexId::try_from(v).ok()))
        .collect()
}

/// Checks one `dcs mine --json` output against the replay's result: the
/// subset and density of each measure must match exactly.
pub fn check(stdout: &str, reference: &Reference) -> Result<(), String> {
    let start = stdout
        .rfind("\n{\n")
        .map(|i| i + 1)
        .or_else(|| stdout.starts_with("{\n").then_some(0))
        .ok_or("no JSON document in dcs mine output")?;
    let parsed: Value = serde_json::from_str(&stdout[start..])
        .map_err(|e| format!("unparsable dcs mine JSON: {e}"))?;
    let results = parsed["results"].as_array().ok_or("no results array")?;
    if results.len() != 2 {
        return Err(format!("expected 2 results, got {}", results.len()));
    }
    for (result, measure, field, (subset, density)) in [
        (
            &results[0],
            "average-degree",
            "average_degree_difference",
            &reference.degree,
        ),
        (
            &results[1],
            "graph-affinity",
            "affinity_difference",
            &reference.affinity,
        ),
    ] {
        if result["measure"] != measure {
            return Err(format!("result measure {} != {measure}", result["measure"]));
        }
        if subset_of(&result["vertices"]).as_ref() != Some(subset) {
            return Err(format!(
                "{measure} subset {} != {subset:?}",
                result["vertices"]
            ));
        }
        match result[field].as_f64() {
            Some(got) if got.to_bits() == density.to_bits() => {}
            got => return Err(format!("{measure} {field} {got:?} != {density}")),
        }
        if result["stats"]["termination"] != "converged" {
            return Err(format!("{measure} did not converge"));
        }
    }
    Ok(())
}
