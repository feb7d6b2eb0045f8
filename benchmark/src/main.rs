//! The repository benchmark.  See `benchmark/README.md` for the workloads,
//! the metrics and why they were chosen.
//!
//! ```text
//! dcs-benchmark --dcs PATH --workload batch-mine|stream-remine|durable-ingest
//!               --seed N --seconds S --trace 0|1
//! dcs-benchmark --dcs PATH --self-test
//! ```
//!
//! With `--trace 0` the chosen workload drives the release `dcs` binary and
//! prints its end-to-end metrics; the in-process replay then runs (untimed)
//! only to produce the reference the outputs are checked against.  With
//! `--trace 1` every workload runs at a smaller size and the traced replay
//! of each prints the per-layer metrics, named `<workload>.<layer metric>`.
//! The last line of standard output is always the JSON result.
//!
//! The benchmark pins itself and every process it starts to one CPU, and
//! reports its CPU-bound times host-adjusted by the probe in `probe.rs`.

mod batch;
mod data;
mod durable;
mod machine;
mod probe;
mod server;
mod stats;
mod stream;
mod trace;

use std::io;
use std::path::PathBuf;
use std::process::ExitCode;

use dcs_datasets::Scale;
use dcs_graph::GraphPack;
use serde_json::{json, Map, Value};

use crate::data::Inputs;
use crate::probe::{Probe, Timed};
use crate::stats::{median, percentile, Summary};
use crate::trace::Tracer;

/// End-to-end metrics every measuring run prints.  `latency_ms_*` is the
/// workload's own operation: a `dcs mine` process (batch-mine), an
/// observe-then-mine cycle (stream-remine), an observe from its scheduled
/// send time (durable-ingest).  Times are host-adjusted (see `probe.rs`).
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("rss_peak_mb", "MB"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_tail", "ms"),
];

/// The write path's flush policy: the server's defaults.
const FLUSH_POLICY: &str = "wal-sync group: fsync every 25 ms; checkpoint every 256 WAL records";

const PACK_OPEN: &str = "dcs-graph.pack.open";
/// Repetitions of the G1 pack open in the traced replay.
const PACK_OPEN_REPS: usize = 5;
/// p99 of the open-loop sender's lateness beyond which a run is void.
const LAG_VOID_MS: f64 = 50.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    BatchMine,
    StreamRemine,
    DurableIngest,
}

const WORKLOADS: [Workload; 3] = [
    Workload::BatchMine,
    Workload::StreamRemine,
    Workload::DurableIngest,
];

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::BatchMine => "batch-mine",
            Workload::StreamRemine => "stream-remine",
            Workload::DurableIngest => "durable-ingest",
        }
    }

    fn parse(raw: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name() == raw)
    }
}

/// Fixed, seeded operation counts of one run.
#[derive(Debug, Clone, Copy)]
struct Plans {
    batch: batch::Plan,
    replay_reps: usize,
    stream: stream::Plan,
    durable: durable::Plan,
}

impl Plans {
    /// Counts of a measuring run: sized so that each workload measures for
    /// about `seconds` on a 2-core box, and fixed by `seconds` alone.
    fn measure(seconds: usize) -> Plans {
        Plans {
            batch: batch::Plan {
                setups: 10,
                samples: 8 * seconds,
            },
            replay_reps: 1,
            stream: stream::Plan {
                setups: 16,
                warmup: 10,
                cycles: 20 * seconds,
            },
            // Fixed, not scaled by `seconds`: below 10,000 samples the tail
            // is p99, which tracks how long a checkpoint stall lasts; p99.9
            // would hang on the single longest stall of the run.
            durable: durable::Plan {
                setups: 16,
                warmup: 500,
                observes: 9_500,
                rate_hz: 1000.0,
            },
        }
    }

    /// Counts of a traced run, which replays all three workloads.
    fn trace() -> Plans {
        Plans {
            batch: batch::Plan {
                setups: 1,
                samples: 10,
            },
            replay_reps: 5,
            stream: stream::Plan {
                setups: 1,
                warmup: 5,
                cycles: 60,
            },
            durable: durable::Plan {
                setups: 1,
                warmup: 200,
                observes: 3000,
                rate_hz: 1000.0,
            },
        }
    }

    /// Counts of the tiny-scale self-test.
    fn self_test() -> Plans {
        Plans {
            batch: batch::Plan {
                setups: 2,
                samples: 3,
            },
            replay_reps: 2,
            stream: stream::Plan {
                setups: 2,
                warmup: 2,
                cycles: 8,
            },
            durable: durable::Plan {
                setups: 2,
                warmup: 20,
                observes: 600,
                rate_hz: 1000.0,
            },
        }
    }
}

struct Ctx {
    dcs: PathBuf,
    /// The one CPU the run and its children are pinned to.
    pinning: machine::Pinning,
    /// Scratch space of this run (the durable data dirs); removed at exit.
    work: PathBuf,
    inputs: Inputs,
    seed: u64,
}

/// One workload's share of a run.
#[derive(Default)]
struct Section {
    attempted: usize,
    failed: usize,
    messages: Vec<String>,
    e2e: Vec<(String, f64, &'static str)>,
    layers: Vec<(String, f64, &'static str)>,
    details: Map,
    /// The timed latency samples in the order they were taken.
    samples: Vec<Timed>,
    tracer: Option<Tracer>,
}

impl Section {
    fn layer(&mut self, workload: Workload, name: &str, value: f64, unit: &'static str) {
        self.layers
            .push((format!("{}.{name}", workload.name()), value, unit));
    }

    /// Records the end-to-end metrics from host-adjusted times.  The figures
    /// as measured and the probe's go into the details.
    fn end_to_end(&mut self, setup_s: &[Timed], rss_mb: f64, latency_ms: &[Timed], probe: &Probe) {
        self.samples = latency_ms.to_vec();
        let adjusted =
            |times: &[Timed]| -> Vec<f64> { times.iter().map(|t| t.adjusted()).collect() };
        let raw = |times: &[Timed]| -> Vec<f64> { times.iter().map(|t| t.raw).collect() };
        let summary = Summary::of(&adjusted(latency_ms));
        let raw_summary = Summary::of(&raw(latency_ms));
        let values = [
            median(&adjusted(setup_s)),
            rss_mb,
            summary.p50,
            summary.tail,
        ];
        for ((name, unit), value) in END_TO_END.iter().zip(values) {
            self.e2e.push((name.to_string(), value, unit));
        }
        let mut sorted = adjusted(latency_ms);
        sorted.sort_by(f64::total_cmp);
        for p in [90.0, 99.0, 99.9, 100.0] {
            self.details
                .insert(format!("latency_ms_p{p}"), json!(percentile(&sorted, p)));
        }
        self.details.insert("samples".into(), json!(summary.count));
        self.details
            .insert("tail_percentile".into(), json!(summary.tail_pct));
        self.details.insert("setups".into(), json!(setup_s.len()));
        self.details.insert(
            "raw".into(),
            json!({
                "setup_s": median(&raw(setup_s)),
                "latency_ms_p50": raw_summary.p50,
                "latency_ms_tail": raw_summary.tail,
            }),
        );
        self.details.insert(
            "probe".into(),
            json!({
                "reference_ms": probe::REFERENCE_MS,
                "runs": probe.times_ms.len(),
                "median_ms": median(&probe.times_ms),
            }),
        );
    }

    fn absorb(&mut self, (failed, messages): (usize, Vec<String>)) {
        self.failed += failed;
        self.messages.extend(messages);
    }
}

fn pack_open(inputs: &Inputs, tracer: &mut Tracer) -> io::Result<f64> {
    for rep in 0..PACK_OPEN_REPS as u64 {
        tracer
            .span(PACK_OPEN, rep, || {
                GraphPack::open(&inputs.g1_pack).and_then(|pack| pack.to_graph())
            })
            .map_err(io::Error::other)?;
    }
    Ok(tracer.median_ms(PACK_OPEN))
}

fn batch_section(ctx: &Ctx, plans: &Plans, traced: bool) -> io::Result<Section> {
    let plan = plans.batch;
    let mut section = Section::default();
    let mut probe = Probe::new();
    let (mut setup_s, mut wall_ms, mut outputs) = (Vec::new(), Vec::new(), Vec::new());
    // Warm-up mines are the set-up: half before the timed mines, half after,
    // so that `setup_s` sees the same host phases as the latencies do.
    let before = plan.setups.div_ceil(2);
    for index in 0..plan.setups + plan.samples {
        let warm_up = index < before || index >= before + plan.samples;
        match probe.around(|| batch::mine_once(&ctx.dcs, &ctx.inputs)) {
            (Ok((ms, stdout)), scale) => {
                if warm_up {
                    setup_s.push(Timed {
                        raw: ms / 1e3,
                        scale,
                    });
                } else {
                    wall_ms.push(Timed { raw: ms, scale });
                }
                outputs.push(stdout);
            }
            (Err(e), _) => {
                section.failed += 1;
                section.messages.push(format!("mine {index}: {e}"));
            }
        }
    }
    let rss_mb = batch::peak_rss_mb(&ctx.dcs, &ctx.inputs)?;
    section.attempted = plan.setups + plan.samples;

    let mut tracer = Tracer::new();
    let (replay, replay_scale) =
        probe.around(|| batch::replay(&ctx.inputs, &mut tracer, plans.replay_reps));
    let (reference, counters) = replay?;
    for (index, stdout) in outputs.iter().enumerate() {
        if let Err(e) = batch::check(stdout, &reference) {
            section.failed += 1;
            section.messages.push(format!("mine output {index}: {e}"));
        }
    }
    if setup_s.is_empty() || wall_ms.is_empty() {
        return Err(io::Error::other(format!(
            "batch-mine: every dcs mine failed: {:?}",
            section.messages
        )));
    }
    section.end_to_end(&setup_s, rss_mb, &wall_ms, &probe);
    if traced {
        let w = Workload::BatchMine;
        for (row, name) in [
            (batch::PARSE, "dcs-graph.io.parse_ms"),
            (batch::DIFF, "dcs-core.diff.build_ms"),
            (batch::DCSAD, "dcs-core.dcsad.solve_ms"),
            (batch::PEEL, "dcs-densest.peel_ms"),
            (batch::DCSGA, "dcs-core.dcsga.solve_ms"),
            (batch::REPORT, "dcs-core.report_ms"),
            (batch::OUTPUT, "dcs-cli.output_ms"),
        ] {
            section.layer(w, name, tracer.median_ms(row), "ms");
        }
        section.layer(
            w,
            "dcs-core.dcsad.iterations",
            counters.dcsad_iterations as f64,
            "count",
        );
        section.layer(
            w,
            "dcs-core.dcsga.iterations",
            counters.dcsga_iterations as f64,
            "count",
        );
        section.layer(
            w,
            "dcs-core.dcsga.candidates",
            counters.dcsga_candidates as f64,
            "count",
        );
        section.layer(
            w,
            "dcs-core.dcsga.prunes",
            counters.dcsga_prunes as f64,
            "count",
        );
        // Both sides of a remainder are host-adjusted: the replay by the
        // probes around it.
        let replayed = tracer.median_child_sum_ms(batch::REP, &batch::MINE_ROWS) * replay_scale;
        let p50 = median(&wall_ms.iter().map(|t| t.adjusted()).collect::<Vec<_>>());
        section.layer(w, "process.unattributed_ms", p50 - replayed, "ms");
    }
    section.tracer = Some(tracer);
    Ok(section)
}

fn stream_section(ctx: &Ctx, plans: &Plans, traced: bool) -> io::Result<Section> {
    let plan = plans.stream;
    let mut section = Section::default();
    let req = stream::requests(&ctx.inputs, ctx.seed, &plan);
    let mut probe = Probe::new();
    let e2e = stream::run_e2e(&ctx.dcs, &req, &plan, &mut probe)?;
    let mut tracer = Tracer::new();
    let (expect, replay_scale) =
        probe.around(|| stream::replay(&ctx.inputs, &req, &mut tracer, traced));
    let expect = expect?;
    section.attempted = plan.warmup + plan.cycles;
    section.absorb(stream::check(&e2e, &expect, &plan));
    if e2e.latency_ms.is_empty() {
        return Err(io::Error::other(format!(
            "stream-remine: no cycle completed: {:?}",
            section.messages
        )));
    }
    section.end_to_end(&e2e.setup_s, e2e.rss_mb, &e2e.latency_ms, &probe);
    if traced {
        let w = Workload::StreamRemine;
        section.layer(
            w,
            "dcs-graph.pack.open_ms",
            pack_open(&ctx.inputs, &mut tracer)?,
            "ms",
        );
        section.layer(
            w,
            "dcs-server.protocol.decode_us",
            tracer.median_ms(stream::DECODE) * 1e3,
            "us",
        );
        section.layer(
            w,
            "dcs-server.session.observe_us",
            tracer.median_ms(stream::OBSERVE) * 1e3,
            "us",
        );
        section.layer(
            w,
            "dcs-graph.delta.snapshot_ms",
            tracer.median_ms(stream::SNAPSHOT),
            "ms",
        );
        section.layer(
            w,
            "dcs-core.streaming.mine_ms",
            tracer.median_ms(stream::MINE),
            "ms",
        );
        section.layer(
            w,
            "dcs-densest.peel_ms",
            tracer.median_ms(stream::PEEL),
            "ms",
        );
        section.layer(
            w,
            "dcs-server.protocol.encode_us",
            tracer.median_ms(stream::ENCODE) * 1e3,
            "us",
        );
        let replayed =
            tracer.median_child_sum_ms(stream::CYCLE, &stream::CYCLE_ROWS) * replay_scale;
        let p50 = median(
            &e2e.latency_ms
                .iter()
                .map(|t| t.adjusted())
                .collect::<Vec<_>>(),
        );
        section.layer(w, "dcs-server.serving_ms", p50 - replayed, "ms");
        section.layer(
            w,
            "dcs-server.cache.hits",
            e2e.counters.cache_hits as f64,
            "count",
        );
        section.layer(
            w,
            "dcs-server.jobs.completed",
            e2e.counters.jobs_completed as f64,
            "count",
        );
        section.layer(
            w,
            "dcs-server.io.shed",
            e2e.counters.io_shed as f64,
            "count",
        );
    }
    section.tracer = Some(tracer);
    Ok(section)
}

fn durable_section(ctx: &Ctx, plans: &Plans, traced: bool) -> io::Result<Section> {
    let plan = plans.durable;
    let mut section = Section::default();
    let req = durable::requests(&ctx.inputs, ctx.seed, &plan);
    let mut probe = Probe::new();
    let e2e = durable::run_e2e(&ctx.dcs, &ctx.work, &req, &plan, &mut probe)?;
    let mut tracer = Tracer::new();
    let mut twin = durable::twin(&ctx.inputs, &req, &mut tracer)?;
    section.attempted = plan.warmup + plan.observes;
    section.absorb(durable::check(&e2e, &mut twin));
    if e2e.latency_ms.is_empty() || e2e.lag_ms.is_empty() {
        return Err(io::Error::other(format!(
            "durable-ingest: no observe completed: {:?}",
            section.messages
        )));
    }
    let mut lag = e2e.lag_ms.clone();
    lag.sort_by(f64::total_cmp);
    let lag_p99 = percentile(&lag, 99.0);
    if lag_p99 > LAG_VOID_MS {
        section.messages.push(format!(
            "the generator ran late (p99 {lag_p99:.1} ms > {LAG_VOID_MS} ms): run void"
        ));
    }
    section.end_to_end(&e2e.setup_s, e2e.rss_mb, &e2e.latency_ms, &probe);
    section
        .details
        .insert("rate_hz".into(), json!(plan.rate_hz));
    section
        .details
        .insert("generator_lag_p99_ms".into(), json!(lag_p99));
    if traced {
        let w = Workload::DurableIngest;
        let sizes = durable::replay(&ctx.inputs, &req, &ctx.work, &mut tracer)?;
        section.layer(
            w,
            "dcs-graph.pack.open_ms",
            pack_open(&ctx.inputs, &mut tracer)?,
            "ms",
        );
        section.layer(
            w,
            "dcs-server.protocol.decode_us",
            tracer.median_ms(durable::DECODE) * 1e3,
            "us",
        );
        section.layer(
            w,
            "dcs-server.session.observe_us",
            tracer.median_ms(durable::OBSERVE) * 1e3,
            "us",
        );
        section.layer(
            w,
            "dcs-server.durable.observe_us",
            tracer.median_ms(durable::DURABLE_OBSERVE) * 1e3,
            "us",
        );
        section.layer(
            w,
            "dcs-server.durable.checkpoint_ms",
            tracer.median_ms(durable::CHECKPOINT),
            "ms",
        );
        section.layer(
            w,
            "dcs-server.durable.checkpoint_bytes",
            median(&sizes.checkpoint_bytes),
            "bytes",
        );
        section.layer(
            w,
            "dcs-server.durable.wal_bytes_per_update",
            median(&sizes.wal_bytes_per_update),
            "bytes/update",
        );
        section.layer(
            w,
            "dcs-server.protocol.encode_us",
            tracer.median_ms(durable::ENCODE) * 1e3,
            "us",
        );
        section.layer(
            w,
            "dcs-server.io.shed",
            e2e.counters.io_shed as f64,
            "count",
        );
        section.layer(w, "generator.lag_ms", lag_p99, "ms");
    }
    section.tracer = Some(tracer);
    Ok(section)
}

fn section(ctx: &Ctx, workload: Workload, plans: &Plans, traced: bool) -> io::Result<Section> {
    match workload {
        Workload::BatchMine => batch_section(ctx, plans, traced),
        Workload::StreamRemine => stream_section(ctx, plans, traced),
        Workload::DurableIngest => durable_section(ctx, plans, traced),
    }
}

struct Args {
    dcs: PathBuf,
    workload: Option<Workload>,
    seed: u64,
    seconds: usize,
    trace: bool,
    self_test: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        dcs: PathBuf::new(),
        workload: None,
        seed: 1,
        seconds: 10,
        trace: false,
        self_test: false,
    };
    let mut raw = std::env::args().skip(1);
    while let Some(flag) = raw.next() {
        if flag == "--self-test" {
            args.self_test = true;
            continue;
        }
        let value = raw.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("bad {flag} {value:?}"))
        };
        match flag.as_str() {
            "--dcs" => args.dcs = PathBuf::from(&value),
            "--workload" => {
                args.workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1) as usize,
            "--trace" => args.trace = number()? == 1,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !args.dcs.is_file() {
        return Err(format!("--dcs {:?} is not the dcs binary", args.dcs));
    }
    if args.workload.is_none() && !args.self_test {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// `.bench_data` in the working directory: inputs (kept per seed), per-run
/// scratch (removed at exit), results and span files.
fn bench_root() -> io::Result<PathBuf> {
    Ok(std::env::current_dir()?.join(".bench_data"))
}

fn context(args: &Args, scale: Scale) -> io::Result<Ctx> {
    // First, so that every thread and child process inherits the pinning.
    let pinning = machine::pin_to_one_cpu()?;
    let root = bench_root()?;
    let inputs = data::prepare(&root.join("inputs"), scale, args.seed)?;
    let work = root.join("run").join(std::process::id().to_string());
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work)?;
    machine::settle_disk(&work)?;
    Ok(Ctx {
        dcs: args.dcs.canonicalize()?,
        pinning,
        work,
        inputs,
        seed: args.seed,
    })
}

fn measure(args: &Args, ctx: &Ctx) -> io::Result<Value> {
    let workload = args.workload.expect("checked in parse_args");
    let sections: Vec<(Workload, Section)> = if args.trace {
        WORKLOADS
            .into_iter()
            .map(|w| section(ctx, w, &Plans::trace(), true).map(|s| (w, s)))
            .collect::<io::Result<_>>()?
    } else {
        vec![(
            workload,
            section(ctx, workload, &Plans::measure(args.seconds), false)?,
        )]
    };

    let out_dir = bench_root()?.join("out");
    std::fs::create_dir_all(&out_dir)?;
    let tag = format!(
        "{}-seed{}-trace{}",
        workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    let (mut attempted, mut failed, mut messages) = (0, 0, Vec::new());
    let mut metrics = Map::new();
    let mut details = Map::new();
    for (w, section) in &sections {
        attempted += section.attempted;
        failed += section.failed;
        messages.extend(
            section
                .messages
                .iter()
                .map(|m| format!("{}: {m}", w.name())),
        );
        let emitted = if args.trace {
            &section.layers
        } else {
            &section.e2e
        };
        for (name, value, unit) in emitted {
            metrics.insert(name.clone(), json!({ "value": value, "unit": unit }));
        }
        details.insert(w.name().into(), Value::Object(section.details.clone()));
        let samples = json!({
            "raw": section.samples.iter().map(|t| t.raw).collect::<Vec<_>>(),
            "scale": section.samples.iter().map(|t| t.scale).collect::<Vec<_>>(),
        });
        std::fs::write(
            out_dir.join(format!("samples-{tag}-{}.json", w.name())),
            serde_json::to_string(&samples).expect("serializes"),
        )?;
        if let (true, Some(tracer)) = (args.trace, &section.tracer) {
            tracer.write_ndjson(&out_dir.join(format!("spans-{tag}-{}.ndjson", w.name())))?;
        }
    }
    let result = json!({
        "correct": messages.is_empty() && failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    });
    let record = json!({
        "workload": workload.name(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "fingerprint": machine::fingerprint(&ctx.work, ctx.pinning),
        "flush_policy": FLUSH_POLICY,
        "details": details,
        "messages": messages,
        "result": result.clone(),
    });
    std::fs::write(
        out_dir.join(format!("result-{tag}.json")),
        serde_json::to_string_pretty(&record).expect("serializes"),
    )?;
    println!("fingerprint {}", record["fingerprint"]);
    println!("flush policy: {FLUSH_POLICY}");
    println!("details {}", record["details"]);
    for message in messages.iter().take(20) {
        println!("check failed: {message}");
    }
    Ok(result)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().collect();
    if raw.get(1).map(String::as_str) == Some(batch::PEAK_RSS_FLAG) {
        return batch::peak_rss_helper(&raw[2..]);
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("dcs-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let scale = if args.self_test {
        Scale::Tiny
    } else {
        Scale::Full
    };
    let ctx = match context(&args, scale) {
        Ok(ctx) => ctx,
        Err(e) => {
            eprintln!("dcs-benchmark: cannot prepare inputs: {e}");
            return ExitCode::FAILURE;
        }
    };
    let outcome = if args.self_test {
        self_test(&ctx).map(|()| None)
    } else {
        measure(&args, &ctx).map_err(|e| e.to_string()).map(Some)
    };
    let _ = std::fs::remove_dir_all(&ctx.work);
    match outcome {
        Ok(Some(result)) => {
            println!("{}", serde_json::to_string(&result).expect("serializes"));
            ExitCode::SUCCESS
        }
        Ok(None) => {
            println!("self-test passed");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("dcs-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Names and units a `BENCHMARK.json` list declares.
fn declared(benchmark: &Value, list: &str) -> Result<Vec<(String, String)>, String> {
    benchmark[list]
        .as_array()
        .ok_or(format!("BENCHMARK.json lacks {list}"))?
        .iter()
        .map(|m| match (m["name"].as_str(), m["unit"].as_str()) {
            (Some(name), Some(unit)) => Ok((name.to_string(), unit.to_string())),
            _ => Err(format!("malformed {list} entry {m}")),
        })
        .collect()
}

fn emitted(metrics: &[(String, f64, &'static str)]) -> Vec<(String, String)> {
    let mut pairs: Vec<(String, String)> = metrics
        .iter()
        .map(|(name, _, unit)| (name.clone(), unit.to_string()))
        .collect();
    pairs.sort();
    pairs
}

fn ensure(condition: bool, message: impl FnOnce() -> String) -> Result<(), String> {
    if condition {
        Ok(())
    } else {
        Err(message())
    }
}

/// Tiny-scale run of every workload, measuring and traced: every metric
/// `BENCHMARK.json` names is emitted with its unit, the checks pass on the
/// real references and fail on deliberately wrong ones.
fn self_test(ctx: &Ctx) -> Result<(), String> {
    let text =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let benchmark: Value =
        serde_json::from_str(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let mut want_e2e = declared(&benchmark, "end_to_end")?;
    let mut want_layers = declared(&benchmark, "per_layer")?;
    want_e2e.sort();
    want_layers.sort();

    let plans = Plans::self_test();
    let mut layers = Vec::new();
    for workload in WORKLOADS {
        for traced in [false, true] {
            let section = section(ctx, workload, &plans, traced).map_err(|e| e.to_string())?;
            ensure(section.failed == 0 && section.messages.is_empty(), || {
                format!("{} checks failed: {:?}", workload.name(), section.messages)
            })?;
            ensure(emitted(&section.e2e) == want_e2e, || {
                format!(
                    "{} end-to-end metrics {:?}",
                    workload.name(),
                    emitted(&section.e2e)
                )
            })?;
            if traced {
                layers.extend(section.layers);
            }
        }
    }
    ensure(emitted(&layers) == want_layers, || {
        format!(
            "per-layer metrics {:?} != BENCHMARK.json {want_layers:?}",
            emitted(&layers)
        )
    })?;

    // Wrong references must fail the checks.
    let mut tracer = Tracer::new();
    let io = |e: io::Error| e.to_string();
    let (_, stdout) = batch::mine_once(&ctx.dcs, &ctx.inputs).map_err(io)?;
    let (reference, _) = batch::replay(&ctx.inputs, &mut tracer, 1).map_err(io)?;
    batch::check(&stdout, &reference)?;
    let mut wrong = reference.clone();
    wrong.degree.1 += 1.0;
    ensure(batch::check(&stdout, &wrong).is_err(), || {
        "batch check accepted a wrong density".into()
    })?;
    let mut wrong = reference;
    wrong.affinity.0.push(0);
    ensure(batch::check(&stdout, &wrong).is_err(), || {
        "batch check accepted a wrong subset".into()
    })?;

    let plan = plans.stream;
    let req = stream::requests(&ctx.inputs, ctx.seed, &plan);
    let e2e = stream::run_e2e(&ctx.dcs, &req, &plan, &mut Probe::new()).map_err(io)?;
    let mut expect = stream::replay(&ctx.inputs, &req, &mut tracer, false).map_err(io)?;
    ensure(stream::check(&e2e, &expect, &plan).0 == 0, || {
        "stream check rejected the replay".into()
    })?;
    expect.last_mut().expect("cycles").density += 1.0;
    ensure(stream::check(&e2e, &expect, &plan).0 == 1, || {
        "stream check accepted a wrong density".into()
    })?;

    let plan = plans.durable;
    let req = durable::requests(&ctx.inputs, ctx.seed, &plan);
    let e2e = durable::run_e2e(&ctx.dcs, &ctx.work, &req, &plan, &mut Probe::new()).map_err(io)?;
    let mut twin = durable::twin(&ctx.inputs, &req, &mut tracer).map_err(io)?;
    let (failed, messages) = durable::check(&e2e, &mut twin);
    ensure(failed == 0 && messages.is_empty(), || {
        format!("durable check rejected the twin: {messages:?}")
    })?;
    twin.outcomes[0].applied += 1;
    twin.session
        .observe(&req.batches[0])
        .map_err(|e| e.to_string())?;
    let (failed, messages) = durable::check(&e2e, &mut twin);
    ensure(failed == 1, || {
        "durable check accepted a wrong applied count".into()
    })?;
    ensure(
        messages.iter().any(|m| m.contains("recovered version")),
        || "durable check accepted a diverged recovery".into(),
    )?;
    Ok(())
}
