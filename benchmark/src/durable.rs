//! `durable-ingest`: an open loop of seeded 16-update observes, pipelined on
//! one connection at a fixed rate, against a durable pack-backed session on
//! a server started with `--data-dir` and the default group commit; plus the
//! in-process replay of the write path (WAL append and checkpoints).

use std::io::{self, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use dcs_core::BatchOutcome;
use dcs_graph::{GraphPack, SignedGraph};
use dcs_server::durable::{create_durable_session, encode_session_dir, open_session_dir};
use dcs_server::{Session, WalSync};

use crate::data::{self, Inputs, Update};
use crate::probe::{Probe, Timed};
use crate::server::{self, Conn, ServerCounters};
use crate::stream::config;
use crate::trace::Tracer;

pub const SESSION: &str = "ingest";
/// Updates per observe batch.
pub const BATCH: usize = 16;
/// WAL records between checkpoints: the server's default trigger.
pub const CHECKPOINT_EVERY: u64 = 256;
/// A reply this late (ms after its send was due) means the backlog grew
/// past what the rate can drain; the request counts as failed.
pub const BACKLOG_MS: f64 = 1_000.0;
/// Observes sent on one schedule.  Between segments the loop waits until
/// the write path is quiet and probes the host speed; each segment's times
/// are adjusted by the probes around it.
pub const SEGMENT: usize = 500;
/// Longer than one group-commit tick (25 ms), so that a checkpoint due when
/// a segment ends has started before the quiet check waits for it.
const SETTLE: Duration = Duration::from_millis(30);

pub const DECODE: &str = "dcs-server.protocol.decode";
pub const OBSERVE: &str = "dcs-server.session.observe";
pub const DURABLE_OBSERVE: &str = "dcs-server.durable.observe";
pub const CHECKPOINT: &str = "dcs-server.durable.checkpoint";
pub const ENCODE: &str = "dcs-server.protocol.encode";

#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub setups: usize,
    pub warmup: usize,
    pub observes: usize,
    /// Observe batches per second.
    pub rate_hz: f64,
}

/// Every request of a run, encoded before any clock starts.
pub struct Requests {
    pub setup: data::SessionSetup,
    /// Warm-up batches first.
    pub batches: Vec<Vec<Update>>,
    pub observes: Vec<Vec<u8>>,
}

pub fn requests(inputs: &Inputs, seed: u64, plan: &Plan) -> Requests {
    let batches = data::update_batches(seed, 2, inputs, plan.warmup + plan.observes, BATCH);
    Requests {
        setup: data::session_setup(SESSION, inputs, true),
        observes: data::observe_lines(SESSION, &batches),
        batches,
    }
}

pub struct E2e {
    pub setup_s: Vec<Timed>,
    /// Observe latency from the scheduled send time, timed requests only (ms).
    pub latency_ms: Vec<Timed>,
    /// How late the sender wrote each timed request (ms).
    pub lag_ms: Vec<f64>,
    /// Reply lines, warm-up first; shorter than the request list when the
    /// connection failed.
    pub replies: Vec<String>,
    pub counters: ServerCounters,
    pub rss_mb: f64,
    pub aborted: Option<String>,
    /// The server's session directory, recovered after shutdown.
    pub session_dir: PathBuf,
}

/// What the open loop saw, in ms after the first send was due: when each
/// request was written and when each reply arrived.
struct Timeline {
    sent_ms: Vec<f64>,
    replies: Vec<(f64, String)>,
    error: Option<String>,
}

/// Sends every observe on its schedule from this thread while a second
/// thread reads and timestamps the replies.  The receiver acknowledges every
/// reply at once: the server does not set `TCP_NODELAY`, so with delayed
/// ACKs each reply would wait for the next request to carry the ACK of the
/// one before, and whether the connection fell into that mode changed from
/// segment to segment.
fn open_loop(
    writer: &mut TcpStream,
    reader: &mut io::BufReader<TcpStream>,
    lines: &[Vec<u8>],
    period: Duration,
) -> Timeline {
    // The sender's lateness counts in every latency, so its sleeps must end
    // on time.
    let _ = crate::machine::precise_sleeps();
    let t0 = Instant::now() + Duration::from_millis(5);
    let since = |at: Instant| at.saturating_duration_since(t0).as_secs_f64() * 1e3;
    let mut sent_ms = Vec::with_capacity(lines.len());
    let (replies, error) = std::thread::scope(|scope| {
        let receiver = scope.spawn(|| {
            let mut replies = Vec::with_capacity(lines.len());
            for _ in lines {
                let _ = crate::machine::quick_ack(reader.get_ref());
                match server::read_reply(reader) {
                    Ok(line) => replies.push((since(Instant::now()), line)),
                    Err(e) => {
                        let error = format!("reply {}: {e}", replies.len());
                        return (replies, Some(error));
                    }
                }
            }
            (replies, None)
        });
        let mut send_error = None;
        for (index, line) in lines.iter().enumerate() {
            let due = t0 + period * index as u32;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            sent_ms.push(since(Instant::now()));
            if let Err(e) = writer.write_all(line) {
                send_error = Some(format!("send {index}: {e}"));
                let _ = writer.shutdown(std::net::Shutdown::Both);
                break;
            }
        }
        let (replies, receive_error) = receiver.join().expect("receiver thread");
        (replies, send_error.or(receive_error))
    });
    Timeline {
        sent_ms,
        replies,
        error,
    }
}

/// Waits until no checkpoint runs: a session `stats` request takes the
/// session lock, which a checkpoint holds until it ends.
fn wait_quiet(writer: &mut TcpStream, reader: &mut io::BufReader<TcpStream>) -> io::Result<()> {
    std::thread::sleep(SETTLE);
    writer.write_all(format!("{{\"cmd\":\"stats\",\"session\":\"{SESSION}\"}}\n").as_bytes())?;
    let reply = server::parse_reply(&server::read_reply(reader)?)?;
    if reply["ok"] != true {
        return Err(io::Error::other(format!("stats refused: {reply}")));
    }
    Ok(())
}

pub fn run_e2e(
    dcs: &Path,
    work: &Path,
    req: &Requests,
    plan: &Plan,
    probe: &mut Probe,
) -> io::Result<E2e> {
    let setup_dir = work.join("durable-setup");
    let before = plan.setups.div_ceil(2);
    let mut setup_s = server::discarded_setups(
        dcs,
        Some(&setup_dir),
        &req.setup.create,
        &req.setup.preload,
        before - 1,
        probe,
    )?;
    let data_dir = work.join("durable-data");
    let _ = std::fs::remove_dir_all(&data_dir);
    std::fs::create_dir_all(&data_dir)?;
    let (server, conn, seconds) = server::set_up(
        dcs,
        Some(&data_dir),
        &req.setup.create,
        &req.setup.preload,
        probe,
    )?;
    setup_s.push(seconds);
    crate::machine::settle_disk(&data_dir)?;

    let period = Duration::from_secs_f64(1.0 / plan.rate_hz);
    let due_ms = |index: usize| (period * index as u32).as_secs_f64() * 1e3;
    let (mut writer, mut reader) = conn.split();
    let (mut latency_ms, mut lag_ms, mut replies) = (Vec::new(), Vec::new(), Vec::new());
    let mut aborted = None;
    for (segment, lines) in req.observes.chunks(SEGMENT).enumerate() {
        let (timeline, scale) = probe.around(|| {
            let mut timeline = open_loop(&mut writer, &mut reader, lines, period);
            if timeline.error.is_none() {
                if let Err(e) = wait_quiet(&mut writer, &mut reader) {
                    timeline.error = Some(format!("quiet check: {e}"));
                }
            }
            timeline
        });
        let first = segment * SEGMENT;
        for (offset, (at, line)) in timeline.replies.into_iter().enumerate() {
            if first + offset >= plan.warmup {
                latency_ms.push(Timed {
                    raw: at - due_ms(offset),
                    scale,
                });
            }
            replies.push(line);
        }
        for (offset, sent) in timeline.sent_ms.into_iter().enumerate() {
            if first + offset >= plan.warmup {
                lag_ms.push(sent - due_ms(offset));
            }
        }
        if let Some(e) = timeline.error {
            aborted = Some(format!("segment {segment}: {e}"));
            break;
        }
    }

    let mut conn = Conn::join(writer, reader);
    let (rss_mb, counters) = if aborted.is_none() {
        let rss = server.peak_rss_mb()?;
        let counters = server::counters(&mut conn)?;
        server.shutdown(&mut conn)?;
        let after = plan.setups - before;
        setup_s.extend(server::discarded_setups(
            dcs,
            Some(&setup_dir),
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
        lag_ms,
        replies,
        counters,
        rss_mb,
        aborted,
        session_dir: data_dir.join(encode_session_dir(SESSION)),
    })
}

/// The ephemeral twin: the same pack, preload and batches applied to an
/// in-memory session.  Its outcomes and final state are the reference.
pub struct Twin {
    pub session: Session,
    pub outcomes: Vec<BatchOutcome>,
}

pub fn twin(inputs: &Inputs, req: &Requests, tracer: &mut Tracer) -> io::Result<Twin> {
    let mut session = Session::from_pack(&inputs.g1_pack.to_string_lossy(), config(), usize::MAX)
        .map_err(io::Error::other)?;
    for batch in &req.setup.preload_batches {
        session.observe(batch).map_err(io::Error::other)?;
    }
    let mut outcomes = Vec::with_capacity(req.batches.len());
    for (index, batch) in req.batches.iter().enumerate() {
        let outcome = tracer
            .span(OBSERVE, index as u64, || session.observe(batch))
            .map_err(io::Error::other)?;
        outcomes.push(outcome);
    }
    Ok(Twin { session, outcomes })
}

/// Checks every reply's `applied` count against the twin, and the session
/// recovered from the server's directory against the twin's final state.
/// Returns the failed-operation count and the first messages.
pub fn check(e2e: &E2e, twin: &mut Twin) -> (usize, Vec<String>) {
    let mut failed = twin.outcomes.len().saturating_sub(e2e.replies.len());
    let mut messages: Vec<String> = e2e.aborted.iter().cloned().collect();
    for (index, (line, outcome)) in e2e.replies.iter().zip(&twin.outcomes).enumerate() {
        let verdict = match server::parse_reply(line) {
            Ok(reply) if reply["ok"] != true => Err(format!("error reply {reply}")),
            Ok(reply) if reply["applied"].as_u64() != Some(outcome.applied as u64) => Err(format!(
                "applied {} != {}",
                reply["applied"], outcome.applied
            )),
            Ok(_) => Ok(()),
            Err(e) => Err(e.to_string()),
        };
        if let Err(e) = verdict {
            failed += 1;
            messages.push(format!("observe {index}: {e}"));
        }
    }
    let late = e2e.latency_ms.iter().filter(|t| t.raw > BACKLOG_MS).count();
    if late > 0 {
        failed += late;
        messages.push(format!(
            "{late} replies more than {BACKLOG_MS} ms late: the backlog grew"
        ));
    }
    if e2e.aborted.is_some() {
        return (failed, messages);
    }
    if e2e.counters.io_shed != 0 {
        messages.push(format!(
            "{} observes shed as overloaded",
            e2e.counters.io_shed
        ));
    }
    match open_session_dir(&e2e.session_dir, WalSync::None) {
        Err(e) => messages.push(format!("recovery failed: {e}")),
        Ok((_, mut recovered)) => {
            if recovered.version() != twin.session.version() {
                messages.push(format!(
                    "recovered version {} != {}",
                    recovered.version(),
                    twin.session.version()
                ));
            }
            let ours = twin.session.monitor_mut().difference_snapshot();
            if *recovered.monitor_mut().difference_snapshot() != *ours {
                messages.push("recovered difference snapshot differs from the twin".into());
            }
        }
    }
    (failed, messages)
}

fn newest(dir: &Path, prefix: &str, ext: &str) -> Option<PathBuf> {
    std::fs::read_dir(dir)
        .ok()?
        .flatten()
        .filter_map(|entry| {
            let name = entry.file_name().into_string().ok()?;
            let generation: u64 = name.strip_prefix(prefix)?.strip_suffix(ext)?.parse().ok()?;
            Some((generation, entry.path()))
        })
        .max_by_key(|(generation, _)| *generation)
        .map(|(_, path)| path)
}

fn file_len(path: Option<PathBuf>) -> f64 {
    path.and_then(|p| std::fs::metadata(p).ok())
        .map_or(0.0, |m| m.len() as f64)
}

/// Sizes the replay measured on disk.
#[derive(Debug, Clone, Default)]
pub struct DiskSizes {
    pub checkpoint_bytes: Vec<f64>,
    pub wal_bytes_per_update: Vec<f64>,
}

/// Replays the write path in-process: a durable session from
/// `create_durable_session` plus `load_baseline(G1)`, the preload, then each
/// batch decoded, observed (apply + WAL append) and its reply encoded, with
/// a checkpoint after every [`CHECKPOINT_EVERY`] WAL records.
pub fn replay(
    inputs: &Inputs,
    req: &Requests,
    work: &Path,
    tracer: &mut Tracer,
) -> io::Result<DiskSizes> {
    let data_dir = work.join("replay-data");
    let _ = std::fs::remove_dir_all(&data_dir);
    std::fs::create_dir_all(&data_dir)?;
    let g1: SignedGraph = GraphPack::open(&inputs.g1_pack)
        .and_then(|pack| pack.to_graph())
        .map_err(io::Error::other)?;
    let baseline: Vec<Update> = g1.edges().collect();
    let mut session = create_durable_session(
        &data_dir,
        SESSION,
        inputs.vertices,
        config(),
        WalSync::Group,
    )
    .map_err(io::Error::other)?;
    session.load_baseline(&baseline).map_err(io::Error::other)?;
    let mut records = 1u64;
    for batch in &req.setup.preload_batches {
        session.observe(batch).map_err(io::Error::other)?;
        records += 1;
    }
    let dir = data_dir.join(encode_session_dir(SESSION));
    let mut sizes = DiskSizes::default();
    let mut segment_updates = 0usize;
    let mut first_segment = true;
    for (index, line) in req.observes.iter().enumerate() {
        let cycle = index as u64;
        let updates = tracer.span(DECODE, cycle, || data::decode_observe(line))?;
        let outcome = tracer
            .span(DURABLE_OBSERVE, cycle, || session.observe(&updates))
            .map_err(io::Error::other)?;
        let version = session.version();
        let reply = tracer.span(ENCODE, cycle, || data::encode_observed(&outcome, version));
        std::hint::black_box(reply);
        if outcome.applied > 0 {
            records += 1;
            segment_updates += updates.len();
        }
        if records >= CHECKPOINT_EVERY {
            if !first_segment {
                let wal = file_len(newest(&dir, "wal-", ".ndjson"));
                sizes
                    .wal_bytes_per_update
                    .push(wal / segment_updates as f64);
            }
            tracer
                .span(CHECKPOINT, cycle, || session.checkpoint())
                .map_err(io::Error::other)?;
            sizes
                .checkpoint_bytes
                .push(file_len(newest(&dir, "ckpt-", ".dcspack")));
            records = 0;
            segment_updates = 0;
            first_segment = false;
        }
    }
    drop(session);
    let _ = std::fs::remove_dir_all(&data_dir);
    Ok(sizes)
}
