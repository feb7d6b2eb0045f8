//! `dcs stats` — difference-graph statistics for a pair of edge lists, or the
//! observability surface of a running `dcs serve` instance (`--connect`).

use dcs_datasets::DiffStats;
use dcs_server::Client;
use serde_json::{json, Value};

use crate::args::{parse_args, ArgSpec};
use crate::error::CliError;
use crate::input::{MiningOptions, PairInput};
use crate::output::{json_to_string, render_block};

/// Usage string shown by `dcs help`.
pub const USAGE: &str =
    "dcs stats <G1.edges> <G2.edges> [--numeric] [--scheme weighted|discrete|scaled] \
[--alpha X] [--direction emerging|disappearing|both] [--clamp X] [--json] | \
dcs stats --connect HOST:PORT [--session NAME] [--json]";

fn spec() -> ArgSpec {
    ArgSpec::new(
        &[
            "scheme",
            "alpha",
            "direction",
            "clamp",
            "connect",
            "session",
        ],
        &["numeric", "json"],
    )
}

/// Runs the subcommand and returns the text to print.
pub fn run(raw_args: &[String]) -> Result<String, CliError> {
    let args = parse_args(raw_args, &spec())?;
    if let Some(addr) = args.option("connect") {
        return server_stats(addr, args.option("session"), args.flag("json"));
    }
    let pair = PairInput::from_args(&args)?;
    let options = MiningOptions::from_args(&args)?;

    let mut out = String::new();
    let mut json_sections = Vec::new();
    for direction in options.direction.expand() {
        let gd = options.difference_graph(&pair, direction)?;
        let stats = DiffStats::compute(&gd);
        out.push_str(&render_block(
            &format!("Difference graph — {}", direction.name()),
            &[
                ("vertices (n)", stats.n.to_string()),
                ("positive edges (m+)", stats.m_plus.to_string()),
                ("negative edges (m-)", stats.m_minus.to_string()),
                ("max weight", format!("{:.4}", stats.max_weight)),
                ("min weight", format!("{:.4}", stats.min_weight)),
                ("average weight", format!("{:.4}", stats.average_weight)),
                ("m+/n", format!("{:.4}", stats.positive_density())),
            ],
        ));
        out.push('\n');
        json_sections.push(json!({
            "direction": direction.name(),
            "n": stats.n,
            "m_plus": stats.m_plus,
            "m_minus": stats.m_minus,
            "max_weight": stats.max_weight,
            "min_weight": stats.min_weight,
            "average_weight": stats.average_weight,
            "positive_density": stats.positive_density(),
        }));
    }
    if args.flag("json") {
        out.push_str(&json_to_string(&json!({ "stats": json_sections })));
    }
    Ok(out)
}

/// Fetches and renders the `stats` payload of a running server: the
/// server-wide observability surface, or one session's counters with
/// `--session`.
fn server_stats(addr: &str, session: Option<&str>, as_json: bool) -> Result<String, CliError> {
    let mut client = Client::connect(addr).map_err(|e| {
        let reason = match e {
            dcs_server::ServerError::Io(io) => io.to_string(),
            other => other.to_string(),
        };
        CliError::Io(std::io::Error::other(format!(
            "cannot connect to {addr}: {reason}"
        )))
    })?;
    let mut request = json!({ "cmd": "stats" });
    if let Some(name) = session {
        request["session"] = json!(name);
    }
    let payload = client
        .request(request)
        .map_err(|e| CliError::Io(std::io::Error::other(format!("stats request failed: {e}"))))?;

    if as_json {
        return Ok(json_to_string(&payload));
    }
    Ok(match session {
        Some(name) => render_session_stats(name, &payload),
        None => render_server_stats(addr, &payload),
    })
}

fn u64_at(value: &Value, keys: &[&str]) -> u64 {
    keys.iter().fold(value, |v, k| &v[*k]).as_u64().unwrap_or(0)
}

/// Renders a latency summary (`{count, mean_us, p50_us, p95_us, p99_us,
/// max_us}`) as one line.
fn latency_line(summary: &Value) -> String {
    format!(
        "n={} mean={:.0}µs p50={}µs p95={}µs p99={}µs max={}µs",
        u64_at(summary, &["count"]),
        summary["mean_us"].as_f64().unwrap_or(0.0),
        u64_at(summary, &["p50_us"]),
        u64_at(summary, &["p95_us"]),
        u64_at(summary, &["p99_us"]),
        u64_at(summary, &["max_us"]),
    )
}

fn render_session_stats(name: &str, payload: &Value) -> String {
    render_block(
        &format!("Session {name}"),
        &[
            ("vertices", u64_at(payload, &["vertices"]).to_string()),
            (
                "observations",
                u64_at(payload, &["observations"]).to_string(),
            ),
            ("graph version", u64_at(payload, &["version"]).to_string()),
            (
                "observed edges",
                u64_at(payload, &["observed_edges"]).to_string(),
            ),
            (
                "baseline edges",
                u64_at(payload, &["baseline_edges"]).to_string(),
            ),
            (
                "cache entries",
                u64_at(payload, &["cache", "entries"]).to_string(),
            ),
            (
                "cache hits / misses",
                format!(
                    "{} / {}",
                    u64_at(payload, &["cache", "hits"]),
                    u64_at(payload, &["cache", "misses"])
                ),
            ),
            (
                "cache evictions",
                u64_at(payload, &["cache", "evictions"]).to_string(),
            ),
        ],
    )
}

fn render_server_stats(addr: &str, payload: &Value) -> String {
    let mut out = render_block(
        &format!("Server {addr}"),
        &[
            (
                "uptime",
                format!("{:.1}s", u64_at(payload, &["uptime_ms"]) as f64 / 1e3),
            ),
            ("sessions", u64_at(payload, &["sessions"]).to_string()),
            (
                "requests (errors)",
                format!(
                    "{} ({})",
                    u64_at(payload, &["requests", "total"]),
                    u64_at(payload, &["requests", "errors"])
                ),
            ),
            (
                "queue depth / inflight",
                format!(
                    "{} / {} (capacity {}, {} workers)",
                    u64_at(payload, &["queue", "depth"]),
                    u64_at(payload, &["queue", "inflight"]),
                    u64_at(payload, &["queue", "capacity"]),
                    u64_at(payload, &["queue", "workers"])
                ),
            ),
            (
                "jobs executed / rejected",
                format!(
                    "{} / {}",
                    u64_at(payload, &["queue", "executed"]),
                    u64_at(payload, &["queue", "rejected"])
                ),
            ),
            (
                "jobs completed (cached)",
                format!(
                    "{} ({})",
                    u64_at(payload, &["jobs", "completed"]),
                    u64_at(payload, &["jobs", "cached"])
                ),
            ),
            (
                "cache hit rate",
                format!(
                    "{:.1}% ({} hits, {} misses, {} evictions)",
                    payload["cache"]["hit_rate"].as_f64().unwrap_or(0.0) * 100.0,
                    u64_at(payload, &["cache", "hits"]),
                    u64_at(payload, &["cache", "misses"]),
                    u64_at(payload, &["cache", "evictions"])
                ),
            ),
            (
                "observe batches",
                format!(
                    "{} ({} updates, {:.1}/s)",
                    u64_at(payload, &["observes", "batches"]),
                    u64_at(payload, &["observes", "updates"]),
                    payload["observes"]["per_sec"].as_f64().unwrap_or(0.0)
                ),
            ),
            (
                "terminations",
                format!(
                    "converged {} / deadline {} / cancelled {} / budget {}",
                    u64_at(payload, &["terminations", "converged"]),
                    u64_at(payload, &["terminations", "deadline"]),
                    u64_at(payload, &["terminations", "cancelled"]),
                    u64_at(payload, &["terminations", "budget_exhausted"])
                ),
            ),
            ("queue wait", latency_line(&payload["queue"]["wait_us"])),
            (
                "io events",
                format!(
                    "accepts {} / reads {} / writes {} ({} threads, {})",
                    u64_at(payload, &["io", "accepts"]),
                    u64_at(payload, &["io", "read_events"]),
                    u64_at(payload, &["io", "write_events"]),
                    u64_at(payload, &["io", "threads"]),
                    payload["io"]["backend"].as_str().unwrap_or("?")
                ),
            ),
            (
                "connections open",
                format!(
                    "{} (of {} opened)",
                    u64_at(payload, &["io", "connections_open"]),
                    u64_at(payload, &["io", "connections_opened"])
                ),
            ),
            ("load shed", u64_at(payload, &["io", "shed"]).to_string()),
            (
                "observe mailboxes",
                format!(
                    "{} pending (hw {}, shed {})",
                    u64_at(payload, &["mailbox", "pending"]),
                    u64_at(payload, &["mailbox", "high_water"]),
                    u64_at(payload, &["mailbox", "shed"])
                ),
            ),
        ],
    );
    out.push('\n');

    let mut latency_rows: Vec<(&str, String)> = Vec::new();
    for kind in ["mine", "topk", "sweep"] {
        latency_rows.push((
            kind,
            latency_line(&payload["jobs"]["wall_us_by_kind"][kind]),
        ));
    }
    latency_rows.push((
        "measure affinity",
        latency_line(&payload["jobs"]["wall_us_by_measure"]["affinity"]),
    ));
    latency_rows.push((
        "measure degree",
        latency_line(&payload["jobs"]["wall_us_by_measure"]["degree"]),
    ));
    out.push_str(&render_block("Job wall time", &latency_rows));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcs_server::{CreateSessionRequest, Server, ServerConfig};

    fn write_pair(dir_name: &str) -> (String, String) {
        let dir = std::env::temp_dir().join(dir_name);
        std::fs::create_dir_all(&dir).unwrap();
        let p1 = dir.join("g1.edges");
        let p2 = dir.join("g2.edges");
        std::fs::write(&p1, "a b 1\nb c 5\n").unwrap();
        std::fs::write(&p2, "a b 4\na c 2\nb c 1\n").unwrap();
        (
            p1.to_string_lossy().into_owned(),
            p2.to_string_lossy().into_owned(),
        )
    }

    fn strings(raw: &[&str]) -> Vec<String> {
        raw.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn reports_counts_for_one_direction() {
        let (p1, p2) = write_pair("dcs_cli_stats_basic");
        let out = run(&strings(&[&p1, &p2])).unwrap();
        assert!(out.contains("Emerging"));
        assert!(!out.contains("Disappearing"));
        // a-b: +3, a-c: +2, b-c: -4 -> 2 positive, 1 negative.
        assert!(out.contains("positive edges (m+)  2"));
        assert!(out.contains("negative edges (m-)  1"));
    }

    #[test]
    fn both_directions_and_json() {
        let (p1, p2) = write_pair("dcs_cli_stats_both");
        let out = run(&strings(&[&p1, &p2, "--direction", "both", "--json"])).unwrap();
        assert!(out.contains("Emerging"));
        assert!(out.contains("Disappearing"));
        assert!(out.contains("\"stats\""));
        let json_start = out.find('{').unwrap();
        let value: serde_json::Value = serde_json::from_str(&out[json_start..]).unwrap();
        assert_eq!(value["stats"].as_array().unwrap().len(), 2);
    }

    #[test]
    fn missing_file_argument_is_an_error() {
        let (p1, _) = write_pair("dcs_cli_stats_missing");
        assert!(matches!(
            run(&strings(&[&p1])),
            Err(CliError::MissingPositional(_))
        ));
    }

    #[test]
    fn unreadable_file_is_an_error() {
        let out = run(&strings(&["/nonexistent/a.edges", "/nonexistent/b.edges"]));
        assert!(matches!(out, Err(CliError::Graph(_))));
    }

    #[test]
    fn connect_mode_renders_server_and_session_stats() {
        let handle = Server::bind("127.0.0.1:0", ServerConfig::default())
            .unwrap()
            .start();
        let addr = handle.local_addr().to_string();

        let mut client = Client::connect(&addr).unwrap();
        client
            .create(CreateSessionRequest {
                session: "s".into(),
                vertices: Some(8),
                ..Default::default()
            })
            .unwrap();
        let mut session = client.session("s");
        session
            .observe(&[(0, 1, 3.0), (1, 2, 2.0), (0, 2, 2.0)])
            .unwrap();
        session.mine().unwrap();
        session.mine().unwrap(); // cache hit

        let out = run(&strings(&["--connect", &addr])).unwrap();
        assert!(out.contains(&format!("Server {addr}")));
        assert!(out.contains("queue depth / inflight"));
        let completed = out
            .lines()
            .find(|l| l.starts_with("jobs completed (cached)"))
            .unwrap();
        assert!(completed.ends_with("2 (1)"), "line: {completed:?}");
        assert!(out.contains("cache hit rate"));
        assert!(out.contains("Job wall time"));
        assert!(out.contains("io events"));
        let mailboxes = out
            .lines()
            .find(|l| l.starts_with("observe mailboxes"))
            .unwrap();
        assert!(
            mailboxes.ends_with("0 pending (hw 0, shed 0)"),
            "line: {mailboxes:?}"
        );
        assert!(out.contains("load shed"));

        let session_out = run(&strings(&["--connect", &addr, "--session", "s"])).unwrap();
        assert!(session_out.contains("Session s"));
        let observations = session_out
            .lines()
            .find(|l| l.starts_with("observations"))
            .unwrap();
        assert!(observations.ends_with('3'), "line: {observations:?}");
        assert!(session_out.contains("cache hits / misses  1 / 1"));

        let json_out = run(&strings(&["--connect", &addr, "--json"])).unwrap();
        let value: Value = serde_json::from_str(&json_out).unwrap();
        assert_eq!(value["sessions"], 1);
        assert_eq!(value["jobs"]["completed"], 2);
        assert_eq!(
            value["jobs"]["wall_us_by_kind"]["mine"]["count"]
                .as_u64()
                .unwrap(),
            1
        );

        client.shutdown().unwrap();
        handle.join();
    }

    #[test]
    fn connect_mode_reports_unreachable_servers() {
        let out = run(&strings(&["--connect", "127.0.0.1:1"]));
        match out {
            Err(CliError::Io(e)) => assert!(e.to_string().contains("cannot connect")),
            other => panic!("expected an Io error, got {other:?}"),
        }
    }
}
