//! `stream-remine`: one connection, closed loop.  Each cycle sends a seeded
//! 64-update observe and a `mine` of the ephemeral degree session, so every
//! mine misses the result cache; plus the in-process replay of each cycle.

use std::io;
use std::path::Path;
use std::time::Instant;

use dcs_core::{mine_difference_in, DensityMeasure, SolveContext, StreamingConfig};
use dcs_graph::VertexId;
use dcs_server::{alert_to_json, Session};
use serde_json::json;

use crate::data::{self, Inputs};
use crate::probe::{Probe, Timed};
use crate::server::{self, ServerCounters};
use crate::trace::Tracer;

pub const SESSION: &str = "remine";
/// Updates per observe batch.
pub const BATCH: usize = 64;
/// Cycles timed between two host-speed probes.
pub const BLOCK: usize = 5;

pub const CYCLE: &str = "stream-remine.cycle";
pub const DECODE: &str = "dcs-server.protocol.decode";
pub const OBSERVE: &str = "dcs-server.session.observe";
pub const SNAPSHOT: &str = "dcs-graph.delta.snapshot";
pub const MINE: &str = "dcs-core.streaming.mine";
pub const PEEL: &str = "dcs-densest.peel";
pub const ENCODE: &str = "dcs-server.protocol.encode";
/// The replay rows on a cycle's critical path (the diagnostic peel is not).
pub const CYCLE_ROWS: [&str; 5] = [DECODE, OBSERVE, SNAPSHOT, MINE, ENCODE];

pub fn config() -> StreamingConfig {
    StreamingConfig {
        remine_every: 0,
        alert_threshold: 0.0,
        measure: DensityMeasure::AverageDegree,
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub setups: usize,
    pub warmup: usize,
    pub cycles: usize,
}

/// Every request of a run, encoded before any clock starts.
pub struct Requests {
    pub setup: data::SessionSetup,
    /// One observe line per cycle, warm-up cycles first.
    pub observes: Vec<Vec<u8>>,
    pub mine: Vec<u8>,
}

pub fn requests(inputs: &Inputs, seed: u64, plan: &Plan) -> Requests {
    let batches = data::update_batches(seed, 1, inputs, plan.warmup + plan.cycles, BATCH);
    Requests {
        setup: data::session_setup(SESSION, inputs, false),
        observes: data::observe_lines(SESSION, &batches),
        mine: data::mine_line(SESSION),
    }
}

pub struct E2e {
    pub setup_s: Vec<Timed>,
    /// Remine latency of each timed cycle (ms).
    pub latency_ms: Vec<Timed>,
    /// The (observe, mine) reply lines of every cycle that completed.
    pub replies: Vec<(String, String)>,
    pub counters: ServerCounters,
    pub rss_mb: f64,
    /// Set when the loop stopped early (timeout or closed connection).
    pub aborted: Option<String>,
}

pub fn run_e2e(dcs: &Path, req: &Requests, plan: &Plan, probe: &mut Probe) -> io::Result<E2e> {
    let before = plan.setups.div_ceil(2);
    let mut setup_s = server::discarded_setups(
        dcs,
        None,
        &req.setup.create,
        &req.setup.preload,
        before - 1,
        probe,
    )?;
    let (server, mut conn, seconds) =
        server::set_up(dcs, None, &req.setup.create, &req.setup.preload, probe)?;
    setup_s.push(seconds);

    let mut latency_ms = Vec::with_capacity(plan.cycles);
    let mut replies = Vec::with_capacity(req.observes.len());
    let mut aborted = None;
    for (block, observes) in req.observes.chunks(BLOCK).enumerate() {
        let (elapsed, scale) = probe.around(|| {
            let mut elapsed = Vec::with_capacity(BLOCK);
            for (offset, observe) in observes.iter().enumerate() {
                let index = block * BLOCK + offset;
                let start = Instant::now();
                // Strict request-reply, like a client awaiting each answer:
                // with the mine pipelined behind the observe, the server's
                // Nagle-delayed mine reply would wait on the client's
                // delayed ACK of the observe reply.
                let cycle = (|| -> io::Result<(String, String)> {
                    conn.send(observe)?;
                    let observed = conn.recv_line()?;
                    conn.send(&req.mine)?;
                    Ok((observed, conn.recv_line()?))
                })();
                match cycle {
                    Ok(pair) => {
                        elapsed.push((index, start.elapsed().as_secs_f64() * 1e3));
                        replies.push(pair);
                    }
                    Err(e) => {
                        aborted = Some(format!("cycle {index}: {e}"));
                        break;
                    }
                }
            }
            elapsed
        });
        latency_ms.extend(
            elapsed
                .into_iter()
                .filter(|&(index, _)| index >= plan.warmup)
                .map(|(_, raw)| Timed { raw, scale }),
        );
        if aborted.is_some() {
            break;
        }
    }
    let (rss_mb, counters) = if aborted.is_none() {
        let rss = server.peak_rss_mb()?;
        let counters = server::counters(&mut conn)?;
        server.shutdown(&mut conn)?;
        let after = plan.setups - before;
        setup_s.extend(server::discarded_setups(
            dcs,
            None,
            &req.setup.create,
            &req.setup.preload,
            after,
            probe,
        )?);
        (rss, counters)
    } else {
        (0.0, ServerCounters::default())
    };
    Ok(E2e {
        setup_s,
        latency_ms,
        replies,
        counters,
        rss_mb,
        aborted,
    })
}

/// What the server must answer for one cycle.
#[derive(Debug, Clone, PartialEq)]
pub struct Expect {
    pub applied: usize,
    pub version: u64,
    pub subset: Vec<VertexId>,
    pub density: f64,
}

/// Replays every cycle in-process through the layers the server runs for it,
/// recording a span per call; returns what each cycle's replies must hold.
/// `peel` adds the diagnostic standalone peel of each snapshot's positive part.
pub fn replay(
    inputs: &Inputs,
    req: &Requests,
    tracer: &mut Tracer,
    peel: bool,
) -> io::Result<Vec<Expect>> {
    let config = config();
    let mut session = Session::from_pack(&inputs.g1_pack.to_string_lossy(), config, usize::MAX)
        .map_err(io::Error::other)?;
    for batch in &req.setup.preload_batches {
        session.observe(batch).map_err(io::Error::other)?;
    }
    let workspace = dcs_core::SharedWorkspace::new();
    let cx = SolveContext::unbounded()
        .with_threads(1)
        .with_workspace(&workspace);
    let mut expect = Vec::with_capacity(req.observes.len());
    for (index, line) in req.observes.iter().enumerate() {
        let cycle = index as u64;
        let root = tracer.enter(CYCLE, cycle);
        let updates = tracer.span(DECODE, cycle, || data::decode_observe(line))?;
        let outcome = tracer
            .span(OBSERVE, cycle, || session.observe(&updates))
            .map_err(io::Error::other)?;
        let version = session.version();
        let observed = tracer.span(ENCODE, cycle, || data::encode_observed(&outcome, version));
        std::hint::black_box(observed);
        tracer.span(DECODE, cycle, || data::decode_line(&req.mine))?;
        let seed = session.monitor().last_support().map(<[VertexId]>::to_vec);
        let observations = session.monitor().observations();
        let gd = tracer.span(SNAPSHOT, cycle, || {
            session.monitor_mut().difference_snapshot()
        });
        let alert = tracer.span(MINE, cycle, || {
            mine_difference_in(&gd, &config, observations, seed.as_deref(), &cx)
        });
        if peel {
            tracer.span(PEEL, cycle, || crate::batch::peel_positive_part(&gd));
        }
        let mined = tracer.span(ENCODE, cycle, || {
            let body = json!({
                "version": version,
                "result": alert_to_json(&alert),
                "termination": alert.stats.termination.as_str(),
                "cached": false,
            });
            serde_json::to_string(&body).expect("serializes")
        });
        std::hint::black_box(mined);
        tracer.exit(root);
        expect.push(Expect {
            applied: outcome.applied,
            version,
            subset: alert.report.subset.clone(),
            density: alert.density_difference,
        });
    }
    Ok(expect)
}

fn check_cycle(observe: &str, mine: &str, expect: &Expect) -> Result<(), String> {
    let observe = server::parse_reply(observe).map_err(|e| e.to_string())?;
    let mine = server::parse_reply(mine).map_err(|e| e.to_string())?;
    if observe["ok"] != true || mine["ok"] != true {
        return Err(format!("error reply: {observe} / {mine}"));
    }
    if observe["applied"].as_u64() != Some(expect.applied as u64) {
        return Err(format!(
            "applied {} != {}",
            observe["applied"], expect.applied
        ));
    }
    if mine["version"].as_u64() != Some(expect.version) {
        return Err(format!(
            "mined version {} != {}",
            mine["version"], expect.version
        ));
    }
    if mine["cached"] != false {
        return Err("mine answered from the cache".into());
    }
    let subset: Option<Vec<VertexId>> = mine["result"]["subset"].as_array().and_then(|raw| {
        raw.iter()
            .map(|v| v.as_u64().and_then(|v| VertexId::try_from(v).ok()))
            .collect()
    });
    if subset.as_ref() != Some(&expect.subset) {
        return Err(format!(
            "subset {} != {:?}",
            mine["result"]["subset"], expect.subset
        ));
    }
    match mine["result"]["density_difference"].as_f64() {
        Some(got) if got.to_bits() == expect.density.to_bits() => Ok(()),
        got => Err(format!("density_difference {got:?} != {}", expect.density)),
    }
}

/// Checks every completed cycle against the replay; returns the number of
/// failed cycles (a cycle that never completed counts as failed) and the
/// first few failure messages.
pub fn check(e2e: &E2e, expect: &[Expect], plan: &Plan) -> (usize, Vec<String>) {
    let mut failed = expect.len().saturating_sub(e2e.replies.len());
    let mut messages: Vec<String> = e2e.aborted.iter().cloned().collect();
    for (index, ((observe, mine), expect)) in e2e.replies.iter().zip(expect).enumerate() {
        if let Err(e) = check_cycle(observe, mine, expect) {
            failed += 1;
            messages.push(format!("cycle {index}: {e}"));
        }
    }
    if e2e.aborted.is_none() {
        let counters = e2e.counters;
        let cycles = (plan.warmup + plan.cycles) as u64;
        if counters.cache_hits != 0 || counters.jobs_completed != cycles || counters.io_shed != 0 {
            messages.push(format!(
                "server counters {counters:?}: expected 0 cache hits, {cycles} completed jobs, 0 shed"
            ));
        }
    }
    (failed, messages)
}
