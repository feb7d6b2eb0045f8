//! Mining jobs and the work-stealing worker pool that executes them.
//!
//! Mining is CPU-bound, so I/O threads never solve anything themselves: they
//! submit a [`JobSpec`] together with a completion callback
//! ([`WorkerPool::submit_with`]) — the callback renders the response on the
//! worker thread and posts it back to the owning event loop, so no I/O thread
//! ever blocks on a job.  The pool has a fixed number of workers and a
//! **bounded** admission count — when too many jobs are pending, submission
//! fails immediately with [`ServerError::Busy`] and the caller decides how to
//! shed the load.
//!
//! Scheduling is **work-stealing with snapshot batching**: mining jobs park in
//! a per-session pending list, and the worker that claims a session drains its
//! whole list in *one* session-lock pass — every claimed job sees the same
//! graph version and shares the same `Arc<SignedGraph>` snapshot handles.
//! Jobs with the same cache key are **coalesced** into one group solved once
//! (followers are answered with the leader's result, marked
//! `"coalesced": true`); distinct groups beyond the first are pushed onto the
//! claiming worker's deque, where idle workers steal them.  Batch sizes,
//! steal counts and coalesced-job counts are exported through the pool's
//! accessors into the server's `stats` payload.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::deque::{Injector, Steal, Stealer, Worker as WorkerDeque};

use dcs_core::dcsga::DcsgaConfig;
use dcs_core::{
    alpha_sweep_in, default_alpha_grid, mine_difference_in, top_k_in, CancelToken, DensityMeasure,
    SharedWorkspace, SolveContext, Termination,
};
use dcs_graph::VertexId;
use dcs_obs::metrics::{Gauge, Histogram, HistogramSnapshot};
use dcs_obs::trace;
use serde_json::{json, Value};

use crate::error::ServerError;
use crate::protocol::{alert_to_json, measure_token, report_to_json, stats_to_json};
use crate::session::SharedSession;

/// Description of one mining job; doubles as the cache key.
#[derive(Debug, Clone, PartialEq)]
pub enum JobSpec {
    /// Mine the current DCS (the `mine` command).
    Mine {
        /// Measure override; `None` uses the session's configured measure.
        measure: Option<DensityMeasure>,
    },
    /// Mine up to `k` vertex-disjoint contrast subgraphs (the `topk` command).
    TopK {
        /// Maximum number of subgraphs.
        k: usize,
        /// Measure override.
        measure: Option<DensityMeasure>,
    },
    /// α-sweep of the scaled difference graph (the `sweep` command).
    Sweep {
        /// α grid; `None` uses [`default_alpha_grid`].
        alphas: Option<Vec<f64>>,
        /// Measure override.
        measure: Option<DensityMeasure>,
    },
}

impl JobSpec {
    /// Stable lowercase token naming the job kind (`"mine"` / `"topk"` /
    /// `"sweep"`) — the label latency metrics are aggregated under.
    pub fn kind_token(&self) -> &'static str {
        match self {
            JobSpec::Mine { .. } => "mine",
            JobSpec::TopK { .. } => "topk",
            JobSpec::Sweep { .. } => "sweep",
        }
    }

    /// The measure this job will solve with, given the session's default.
    pub fn resolved_measure(&self, default_measure: DensityMeasure) -> DensityMeasure {
        let measure = match self {
            JobSpec::Mine { measure } => measure,
            JobSpec::TopK { measure, .. } => measure,
            JobSpec::Sweep { measure, .. } => measure,
        };
        measure.unwrap_or(default_measure)
    }

    /// The cache key of this job given the session's default measure.  Two
    /// requests with the same key against the same graph version are
    /// interchangeable.
    pub fn cache_key(&self, default_measure: DensityMeasure) -> String {
        let resolved = |m: &Option<DensityMeasure>| measure_token(m.unwrap_or(default_measure));
        match self {
            JobSpec::Mine { measure } => format!("mine|{}", resolved(measure)),
            JobSpec::TopK { k, measure } => format!("topk|{k}|{}", resolved(measure)),
            JobSpec::Sweep { alphas, measure } => {
                let grid = match alphas {
                    None => "default".to_string(),
                    Some(values) => values
                        .iter()
                        .map(|a| format!("{a}"))
                        .collect::<Vec<_>>()
                        .join(","),
                };
                format!("sweep|{grid}|{}", resolved(measure))
            }
        }
    }

    /// Executes the job against a session under a [`SolveContext`].
    ///
    /// The session lock is held only while snapshotting inputs and while
    /// storing the result — never while solving — so observers keep streaming
    /// into the session during long mines.  Snapshots are `Arc` handles to the
    /// session's incrementally maintained difference graph: an unchanged
    /// session hands out the same graph pointer to every worker, and even a
    /// changed one only rebuilds the adjacency rows its updates dirtied.
    ///
    /// The context's deadline / budget / cancellation token bound the solve:
    /// a tripped bound returns the best-so-far result with a non-`converged`
    /// `termination` field instead of blocking a worker indefinitely.  Only
    /// **converged** results enter the session cache — a truncated result is
    /// never served to another client.
    pub fn execute(
        &self,
        session: &SharedSession,
        cx: &SolveContext,
    ) -> Result<Value, ServerError> {
        // Snapshot under the lock.
        let (key, version, body, converged) = {
            let mut guard = session.lock().unwrap_or_else(PoisonError::into_inner);
            let default_measure = guard.monitor().config().measure;
            let key = self.cache_key(default_measure);
            let version = guard.version();
            if let Some(mut hit) = guard.cache_mut().lookup(&key, version) {
                hit["cached"] = json!(true);
                return Ok(hit);
            }
            let snapshot = self.snapshot(&mut guard);
            drop(guard);

            // Solve without holding the session lock.
            let (body, termination) = self.solve(snapshot, version, cx)?;
            (key, version, body, termination.is_converged())
        };

        // Store for future identical queries at this version — converged
        // results only (a deadline/cancel/budget-truncated result is partial).
        if converged {
            let mut guard = session.lock().unwrap_or_else(PoisonError::into_inner);
            if guard.version() == version {
                guard.cache_mut().store(key, version, body.clone());
            }
        }

        let mut response = body;
        response["cached"] = json!(false);
        Ok(response)
    }

    fn snapshot(&self, session: &mut crate::session::Session) -> Snapshot {
        let monitor = session.monitor_mut();
        match self {
            JobSpec::Mine { measure } => {
                let mut config = *monitor.config();
                if let Some(m) = measure {
                    config.measure = *m;
                }
                Snapshot::Mine {
                    seed: monitor.last_support().map(<[VertexId]>::to_vec),
                    observations: monitor.observations(),
                    gd: monitor.difference_snapshot(),
                    config,
                }
            }
            JobSpec::TopK { k, measure } => Snapshot::TopK {
                k: *k,
                measure: measure.unwrap_or(monitor.config().measure),
                gd: monitor.difference_snapshot(),
            },
            JobSpec::Sweep { alphas, measure } => Snapshot::Sweep {
                g2: monitor.observed_graph(),
                g1: monitor.baseline_arc(),
                alphas: alphas.clone().unwrap_or_else(default_alpha_grid),
                measure: measure.unwrap_or(monitor.config().measure),
            },
        }
    }

    fn solve(
        &self,
        snapshot: Snapshot,
        version: u64,
        cx: &SolveContext,
    ) -> Result<(Value, Termination), ServerError> {
        match snapshot {
            Snapshot::Mine {
                gd,
                config,
                observations,
                seed,
            } => {
                let alert = mine_difference_in(&gd, &config, observations, seed.as_deref(), cx);
                let termination = alert.stats.termination;
                Ok((
                    json!({
                        "version": version,
                        "result": alert_to_json(&alert),
                        "termination": termination.as_str(),
                    }),
                    termination,
                ))
            }
            Snapshot::TopK { gd, k, measure } => {
                // Measure dispatch lives in the engine (`MeasureSolver` inside
                // `top_k_in`) — the server no longer hard-codes solver choice.
                let outcome = top_k_in(&gd, k, measure, DcsgaConfig::default(), cx);
                let results: Vec<Value> = outcome
                    .solutions
                    .iter()
                    .enumerate()
                    .map(|(rank, solution)| {
                        let mut value = report_to_json(&solution.report_in(&gd, cx));
                        value["rank"] = json!(rank + 1);
                        value["objective"] = json!(solution.objective);
                        value
                    })
                    .collect();
                Ok((
                    json!({
                        "version": version,
                        "results": results,
                        "termination": outcome.termination.as_str(),
                        "stats": stats_to_json(&outcome.stats),
                    }),
                    outcome.termination,
                ))
            }
            Snapshot::Sweep {
                g2,
                g1,
                alphas,
                measure,
            } => {
                let sweep = alpha_sweep_in(&g2, &g1, &alphas, measure, cx)?;
                let rendered: Vec<Value> = sweep
                    .points
                    .iter()
                    .map(|point| {
                        let mut value = report_to_json(&point.report);
                        value["alpha"] = json!(point.alpha);
                        value["objective"] = json!(point.objective);
                        value
                    })
                    .collect();
                Ok((
                    json!({
                        "version": version,
                        "points": rendered,
                        "termination": sweep.termination.as_str(),
                        "stats": stats_to_json(&sweep.stats),
                    }),
                    sweep.termination,
                ))
            }
        }
    }
}

/// Inputs captured under the session lock, solved outside it.
///
/// Graphs are `Arc` handles into the session's delta engine (and baseline) —
/// capturing a snapshot clones pointers, not adjacency arrays.  Only the
/// observed graph of a sweep is materialised, because the sweep re-scales the
/// raw `(G2, G1)` pair rather than consuming `G_D`.
enum Snapshot {
    Mine {
        gd: Arc<dcs_graph::SignedGraph>,
        config: dcs_core::StreamingConfig,
        observations: usize,
        /// Warm-start seed: the support of the session's last cadence mine.
        seed: Option<Vec<VertexId>>,
    },
    TopK {
        gd: Arc<dcs_graph::SignedGraph>,
        k: usize,
        measure: DensityMeasure,
    },
    Sweep {
        g2: dcs_graph::SignedGraph,
        g1: Arc<dcs_graph::SignedGraph>,
        alphas: Vec<f64>,
        measure: DensityMeasure,
    },
}

/// Any unit of work the pool can run (mining queries, cadence observes).
///
/// The argument is the executing **worker thread's** [`SharedWorkspace`]: each worker
/// owns one workspace for its whole lifetime, so back-to-back jobs on a thread reuse
/// the same solver scratch buffers — peel heaps for average-degree jobs, the dense
/// DCSGA embedding arena for affinity jobs, which also mine the snapshot's positive
/// part as a filtered view instead of copying the CSR (mining tasks thread the
/// workspace into their [`SolveContext`]; observe tasks ignore it).
pub type Task = Box<dyn FnOnce(&SharedWorkspace) -> Result<Value, ServerError> + Send + 'static>;

/// A completion callback invoked with the job's outcome on a worker thread —
/// the only way a job replies.
///
/// The serving tier's I/O threads must never block on a job, so they hand the
/// pool a callback that renders the response and posts it back to the owning
/// event loop.
pub type Completion = Box<dyn FnOnce(Result<Value, ServerError>) + Send + 'static>;

/// A mining job waiting in its session's pending list.
struct MiningJob {
    session: SharedSession,
    spec: JobSpec,
    cx: SolveContext,
    reply: Completion,
    /// When the job was accepted — the claiming worker records the wait into
    /// the pool's queue-wait histogram (and, when tracing is enabled, a
    /// [`trace::Phase::QueueWait`] event).
    enqueued: Instant,
}

/// An opaque task (cadence observes) — unbatchable, runs as-is.
struct OpaqueJob {
    task: Task,
    reply: Completion,
    enqueued: Instant,
}

/// A coalesced group snapshotted under the session lock and ready to solve.
/// Groups beyond the first of a claim are pushed onto the claiming worker's
/// deque, where idle workers steal them — the snapshot travels with the
/// ticket, so the thief never touches the session lock before solving.
struct ReadyGroup {
    session: SharedSession,
    spec: JobSpec,
    key: String,
    version: u64,
    snapshot: Snapshot,
    /// The leader's context: the whole group solves under its bounds.
    cx: SolveContext,
    /// Reply callbacks in arrival order; the first is the leader, the rest are
    /// answered with the leader's result marked `"coalesced": true`.
    members: Vec<Completion>,
}

/// A unit of scheduling in the pool's deques.
enum Ticket {
    /// "Session `key` has pending mining jobs" — the claiming worker drains
    /// them all in one lock pass.  Later tickets for an already-drained
    /// session are no-ops.
    Session(usize),
    /// A snapshotted group ready to solve (stealable).
    Group(Box<ReadyGroup>),
    /// An opaque task.
    Opaque(OpaqueJob),
}

/// State shared between the pool handle and its workers.
struct PoolShared {
    /// Global FIFO all submissions enter; workers take from it when their own
    /// deque is empty, and steal from each other when it is empty too.
    injector: Injector<Ticket>,
    stealers: Vec<Stealer<Ticket>>,
    /// Pending mining jobs per session (keyed by `Arc` pointer identity),
    /// sharded so submissions from many I/O threads do not serialize on one
    /// map lock.  `pending_depths[i]` mirrors shard `i`'s queued job count
    /// for the `stats` surface.
    pending_mining: Vec<Mutex<HashMap<usize, Vec<MiningJob>>>>,
    pending_depths: Vec<AtomicUsize>,
    /// Jobs accepted but not yet claimed by a worker — the admission counter.
    pending: AtomicUsize,
    /// Parking lot: a generation counter bumped on every submission, so idle
    /// workers sleep instead of spinning and wake promptly on new work.
    park: (Mutex<u64>, Condvar),
    shutdown: AtomicBool,
    executed: AtomicU64,
    steals: AtomicU64,
    coalesced: AtomicU64,
    queued: Gauge,
    inflight: Gauge,
    queue_wait_us: Histogram,
    /// Jobs per executed solve group (1 = no coalescing happened).
    batch_size: Histogram,
}

impl PoolShared {
    /// The pending-map shard of a session key.  Fibonacci multiplicative hash
    /// over the `Arc` address: the low bits are allocator-aligned zeros, so
    /// take the high bits of the product.
    fn mining_shard(&self, key: usize) -> usize {
        let hash = (key as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 48;
        (hash % self.pending_mining.len() as u64) as usize
    }

    fn generation(&self) -> u64 {
        *self.park.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn wake(&self) {
        let mut generation = self.park.0.lock().unwrap_or_else(PoisonError::into_inner);
        *generation = generation.wrapping_add(1);
        self.park.1.notify_all();
    }

    /// Sleeps until the generation moves past `seen` (or a short timeout, as
    /// a lost-wakeup backstop).
    fn park(&self, seen: u64) {
        let guard = self.park.0.lock().unwrap_or_else(PoisonError::into_inner);
        if *guard != seen {
            return;
        }
        let _ = self
            .park
            .1
            .wait_timeout(guard, Duration::from_millis(50))
            .unwrap_or_else(PoisonError::into_inner);
    }

    /// Counts one job as dequeued and records its queue wait.
    fn note_claimed(&self, enqueued: Instant) {
        self.pending.fetch_sub(1, Ordering::Relaxed);
        self.queued.dec();
        self.inflight.inc();
        let wait = enqueued.elapsed();
        self.queue_wait_us.record_duration(wait);
        trace::record(trace::Phase::QueueWait, enqueued, wait, 1);
    }

    /// Replies to one claimed job and closes its inflight accounting.
    fn finish(&self, reply: Completion, outcome: Result<Value, ServerError>) {
        self.executed.fetch_add(1, Ordering::Relaxed);
        self.inflight.dec();
        reply(outcome);
    }
}

/// A fixed set of work-stealing worker threads behind a bounded admission
/// count, with same-session mining jobs batched onto shared snapshots.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
    rejected: AtomicU64,
    threads: usize,
    capacity: usize,
}

impl WorkerPool {
    /// Spawns `threads` workers admitting up to `capacity` pending jobs.
    pub fn new(threads: usize, capacity: usize) -> Self {
        let threads = threads.max(1);
        let capacity = capacity.max(1);
        let deques: Vec<WorkerDeque<Ticket>> =
            (0..threads).map(|_| WorkerDeque::new_fifo()).collect();
        let stealers: Vec<Stealer<Ticket>> = deques.iter().map(WorkerDeque::stealer).collect();
        let shared = Arc::new(PoolShared {
            injector: Injector::new(),
            stealers,
            pending_mining: (0..threads).map(|_| Mutex::new(HashMap::new())).collect(),
            pending_depths: (0..threads).map(|_| AtomicUsize::new(0)).collect(),
            pending: AtomicUsize::new(0),
            park: (Mutex::new(0), Condvar::new()),
            shutdown: AtomicBool::new(false),
            executed: AtomicU64::new(0),
            steals: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            queued: Gauge::new(),
            inflight: Gauge::new(),
            queue_wait_us: Histogram::new(),
            batch_size: Histogram::new(),
        });
        let workers = deques
            .into_iter()
            .enumerate()
            .map(|(index, deque)| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared, &deque, index))
            })
            .collect();
        WorkerPool {
            shared,
            workers,
            rejected: AtomicU64::new(0),
            threads,
            capacity,
        }
    }

    /// Bounded admission: rejects with [`ServerError::Busy`] when `capacity`
    /// jobs are already pending (accepted but unclaimed) or the pool is
    /// shutting down.
    fn admit(&self) -> Result<(), ServerError> {
        if self.shared.shutdown.load(Ordering::SeqCst) {
            self.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(ServerError::Busy);
        }
        let mut current = self.shared.pending.load(Ordering::Relaxed);
        loop {
            if current >= self.capacity {
                self.rejected.fetch_add(1, Ordering::Relaxed);
                return Err(ServerError::Busy);
            }
            match self.shared.pending.compare_exchange_weak(
                current,
                current + 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(actual) => current = actual,
            }
        }
        self.shared.queued.inc();
        Ok(())
    }

    /// Submits a mining job bounded by `cx`; fails with [`ServerError::Busy`]
    /// when too many jobs are pending.  On success, `done` runs exactly once
    /// with the job's outcome **on the worker thread** that finishes it; the
    /// serving tier's completion renders the response and posts it back to
    /// the connection's I/O thread.  The context's deadline is absolute, so
    /// time spent waiting in the queue counts against the job's deadline — an
    /// overloaded server answers "deadline, best-so-far" rather than holding
    /// the client for queue time plus solve time.
    ///
    /// Jobs against the same session are **batched**: the worker that claims
    /// them drains every pending job for that session in one session-lock
    /// pass, so all of them share one graph version and one set of
    /// `Arc<SignedGraph>` snapshots.  Jobs with the same cache key are solved
    /// once; the followers receive the leader's result with
    /// `"coalesced": true`.
    pub fn submit_with(
        &self,
        session: SharedSession,
        spec: JobSpec,
        cx: SolveContext,
        done: Completion,
    ) -> Result<(), ServerError> {
        self.admit()?;
        let key = Arc::as_ptr(&session) as usize;
        let job = MiningJob {
            session,
            spec,
            cx,
            reply: done,
            enqueued: Instant::now(),
        };
        let shard = self.shared.mining_shard(key);
        self.shared.pending_mining[shard]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .entry(key)
            .or_default()
            .push(job);
        self.shared.pending_depths[shard].fetch_add(1, Ordering::Relaxed);
        // The ticket is pushed after the job is visible in the map, so every
        // ticket's job is claimable by the time the ticket is.
        self.shared.injector.push(Ticket::Session(key));
        self.shared.wake();
        Ok(())
    }

    /// Submits an arbitrary task (used for observes on cadence-mining
    /// sessions, which can trigger a solve and therefore must not run on
    /// I/O threads), answered through `done` like [`Self::submit_with`].
    /// Same bounded-admission semantics; opaque tasks are never batched.
    pub fn submit_task_with(&self, task: Task, done: Completion) -> Result<(), ServerError> {
        self.admit()?;
        self.shared.injector.push(Ticket::Opaque(OpaqueJob {
            task,
            reply: done,
            enqueued: Instant::now(),
        }));
        self.shared.wake();
        Ok(())
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Pending-job capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Jobs executed so far (each coalesced follower counts as one job).
    pub fn executed(&self) -> u64 {
        self.shared.executed.load(Ordering::Relaxed)
    }

    /// Jobs rejected because too many were pending.
    pub fn rejected(&self) -> u64 {
        self.rejected.load(Ordering::Relaxed)
    }

    /// Jobs accepted but not yet claimed by a worker.  Racy by nature (a
    /// point-in-time gauge); may transiently over-report by one per worker.
    pub fn queue_depth(&self) -> i64 {
        self.shared.queued.get().max(0)
    }

    /// Jobs claimed by workers and not yet answered (members of a group that
    /// is queued for stealing count as in flight).
    pub fn inflight(&self) -> i64 {
        self.shared.inflight.get().max(0)
    }

    /// Snapshot of the queue-wait distribution (microseconds).
    pub fn queue_wait_snapshot(&self) -> HistogramSnapshot {
        self.queue_wait_us_snapshot()
    }

    fn queue_wait_us_snapshot(&self) -> HistogramSnapshot {
        self.shared.queue_wait_us.snapshot()
    }

    /// Snapshot of the batch-size distribution: jobs answered per executed
    /// solve group (1 = no coalescing).
    pub fn batch_size_snapshot(&self) -> HistogramSnapshot {
        self.shared.batch_size.snapshot()
    }

    /// Tickets a worker obtained by stealing from another worker's deque.
    pub fn steals(&self) -> u64 {
        self.shared.steals.load(Ordering::Relaxed)
    }

    /// Jobs answered from another job's solve (batch followers).
    pub fn coalesced(&self) -> u64 {
        self.shared.coalesced.load(Ordering::Relaxed)
    }

    /// Point-in-time pending mining jobs per internal session shard (the
    /// shard count equals the worker thread count).  Exposed through the
    /// server-wide `stats` surface as `queue.shard_depths`.
    pub fn shard_depths(&self) -> Vec<usize> {
        self.shared
            .pending_depths
            .iter()
            .map(|depth| depth.load(Ordering::Relaxed))
            .collect()
    }

    /// Stops admissions, drains the remaining work and joins every worker.
    pub fn shutdown(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.wake();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One worker thread: drain the local deque, then the injector, then steal;
/// park when everything is empty.  On shutdown the loop exits only once no
/// work is findable, so accepted jobs are drained, not dropped.
fn worker_loop(shared: &Arc<PoolShared>, deque: &WorkerDeque<Ticket>, index: usize) {
    // One solver workspace per worker, alive across jobs: the steady-state
    // serving path re-mines into the same scratch buffers instead of
    // allocating them per job.
    let workspace = SharedWorkspace::new();
    loop {
        // Read the generation *before* scanning, so a submission racing the
        // scan bumps it and the park below returns immediately.
        let generation = shared.generation();
        match find_ticket(shared, deque, index) {
            Some(ticket) => process_ticket(shared, deque, ticket, &workspace),
            None => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                shared.park(generation);
            }
        }
    }
}

/// Local deque first (FIFO), then the shared injector, then stealing from the
/// other workers' deques (counted into the steal telemetry).
fn find_ticket(shared: &PoolShared, deque: &WorkerDeque<Ticket>, index: usize) -> Option<Ticket> {
    if let Some(ticket) = deque.pop() {
        return Some(ticket);
    }
    if let Steal::Success(ticket) = shared.injector.steal() {
        return Some(ticket);
    }
    for (other, stealer) in shared.stealers.iter().enumerate() {
        if other == index {
            continue;
        }
        if let Steal::Success(ticket) = stealer.steal() {
            shared.steals.fetch_add(1, Ordering::Relaxed);
            return Some(ticket);
        }
    }
    None
}

fn process_ticket(
    shared: &Arc<PoolShared>,
    deque: &WorkerDeque<Ticket>,
    ticket: Ticket,
    workspace: &SharedWorkspace,
) {
    match ticket {
        Ticket::Session(key) => claim_session(shared, deque, key, workspace),
        Ticket::Group(group) => solve_group(shared, *group, workspace),
        Ticket::Opaque(job) => {
            shared.note_claimed(job.enqueued);
            let outcome = (job.task)(workspace);
            shared.finish(job.reply, outcome);
        }
    }
}

/// Drains every pending mining job of `key`'s session and serves the batch:
/// one session-lock pass answers cache hits and snapshots one [`ReadyGroup`]
/// per distinct cache key (all sharing the lock pass's graph version and
/// `Arc` snapshot handles).  The first group is solved on this worker; the
/// rest go onto its deque for other workers to steal.
fn claim_session(
    shared: &Arc<PoolShared>,
    deque: &WorkerDeque<Ticket>,
    key: usize,
    workspace: &SharedWorkspace,
) {
    let shard = shared.mining_shard(key);
    let jobs = shared.pending_mining[shard]
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .remove(&key);
    let Some(jobs) = jobs else {
        return; // an earlier ticket already drained this session
    };
    if jobs.is_empty() {
        return;
    }
    shared.pending_depths[shard].fetch_sub(jobs.len(), Ordering::Relaxed);
    for job in &jobs {
        shared.note_claimed(job.enqueued);
    }

    let session = Arc::clone(&jobs[0].session);
    let mut groups: Vec<Box<ReadyGroup>> = Vec::new();
    {
        let mut guard = session.lock().unwrap_or_else(PoisonError::into_inner);
        let default_measure = guard.monitor().config().measure;
        let version = guard.version();
        for job in jobs {
            let cache_key = job.spec.cache_key(default_measure);
            if let Some(mut hit) = guard.cache_mut().lookup(&cache_key, version) {
                hit["cached"] = json!(true);
                shared.finish(job.reply, Ok(hit));
                continue;
            }
            if let Some(group) = groups.iter_mut().find(|g| g.key == cache_key) {
                group.members.push(job.reply);
            } else {
                let snapshot = job.spec.snapshot(&mut guard);
                groups.push(Box::new(ReadyGroup {
                    session: Arc::clone(&session),
                    spec: job.spec,
                    key: cache_key,
                    version,
                    snapshot,
                    cx: job.cx,
                    members: vec![job.reply],
                }));
            }
        }
    }

    let mut groups = groups.into_iter();
    let first = groups.next();
    let mut pushed = false;
    for extra in groups {
        deque.push(Ticket::Group(extra));
        pushed = true;
    }
    if pushed {
        shared.wake(); // idle workers can steal the extra groups
    }
    if let Some(group) = first {
        solve_group(shared, *group, workspace);
    }
}

/// Solves one coalesced group: one solve under the leader's context, one
/// cache store (converged results at an unchanged version only), one reply
/// per member — followers marked `"coalesced": true`.
fn solve_group(shared: &PoolShared, group: ReadyGroup, workspace: &SharedWorkspace) {
    let ReadyGroup {
        session,
        spec,
        key,
        version,
        snapshot,
        cx,
        members,
    } = group;
    shared.batch_size.record(members.len() as u64);
    match spec.solve(snapshot, version, &cx.with_workspace(workspace)) {
        Ok((body, termination)) => {
            if termination.is_converged() {
                let mut guard = session.lock().unwrap_or_else(PoisonError::into_inner);
                if guard.version() == version {
                    guard.cache_mut().store(key, version, body.clone());
                }
            }
            for (position, reply) in members.into_iter().enumerate() {
                let mut response = body.clone();
                response["cached"] = json!(false);
                if position > 0 {
                    response["coalesced"] = json!(true);
                    shared.coalesced.fetch_add(1, Ordering::Relaxed);
                }
                shared.finish(reply, Ok(response));
            }
        }
        Err(error) => {
            // `ServerError` is not `Clone`: the leader gets the error itself,
            // followers a rendered copy.
            let message = error.to_string();
            let mut members = members.into_iter();
            if let Some(leader) = members.next() {
                shared.finish(leader, Err(error));
            }
            for reply in members {
                shared.finish(reply, Err(ServerError::Remote(message.clone())));
            }
        }
    }
}

/// Cancellation tokens of in-flight jobs, keyed by the client-supplied job id.
///
/// A mining request may carry a `"job"` field; the connection registers the job's
/// [`CancelToken`] here before submitting, so any *other* connection can abort it
/// with the `cancel` command.  Entries are removed when the job completes.
#[derive(Debug, Default)]
pub struct JobTable {
    tokens: Mutex<HashMap<String, CancelToken>>,
}

impl JobTable {
    /// An empty table.
    pub fn new() -> Self {
        JobTable::default()
    }

    /// Registers an in-flight job; fails when the id is already in use (ids are
    /// client-chosen, so a duplicate is a client error, not a hash collision).
    pub fn register(&self, id: &str, token: CancelToken) -> Result<(), ServerError> {
        let mut tokens = self.tokens.lock().unwrap_or_else(PoisonError::into_inner);
        if tokens.contains_key(id) {
            return Err(ServerError::BadRequest(format!(
                "job id {id:?} is already in flight"
            )));
        }
        tokens.insert(id.to_string(), token);
        Ok(())
    }

    /// Cancels a registered job; returns whether the id was found.
    pub fn cancel(&self, id: &str) -> bool {
        let tokens = self.tokens.lock().unwrap_or_else(PoisonError::into_inner);
        match tokens.get(id) {
            Some(token) => {
                token.cancel();
                true
            }
            None => false,
        }
    }

    /// Removes a completed job's token.
    pub fn remove(&self, id: &str) {
        let mut tokens = self.tokens.lock().unwrap_or_else(PoisonError::into_inner);
        tokens.remove(id);
    }

    /// Number of registered (named, in-flight) jobs.
    pub fn len(&self) -> usize {
        self.tokens
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Whether no named job is in flight.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Session;
    use dcs_core::StreamingConfig;
    use std::sync::mpsc::{sync_channel, Receiver};

    /// Submits a mining job through the completion callback and returns a
    /// channel that yields its outcome, so a test can wait on each job.
    fn submit(
        pool: &WorkerPool,
        session: SharedSession,
        spec: JobSpec,
        cx: SolveContext,
    ) -> Result<Receiver<Result<Value, ServerError>>, ServerError> {
        let (reply, receiver) = sync_channel(1);
        pool.submit_with(
            session,
            spec,
            cx,
            Box::new(move |outcome| {
                let _ = reply.send(outcome);
            }),
        )?;
        Ok(receiver)
    }

    fn shared_session(vertices: usize) -> SharedSession {
        let config = StreamingConfig {
            remine_every: 0,
            alert_threshold: 1.0,
            measure: DensityMeasure::GraphAffinity,
        };
        Arc::new(Mutex::new(Session::new(vertices, config).unwrap()))
    }

    fn seed_triangle(session: &SharedSession) {
        session
            .lock()
            .unwrap()
            .observe(&[(0, 1, 4.0), (0, 2, 4.0), (1, 2, 4.0), (3, 4, 0.5)])
            .unwrap();
    }

    #[test]
    fn mine_job_finds_the_triangle_and_caches() {
        let session = shared_session(6);
        seed_triangle(&session);
        let spec = JobSpec::Mine { measure: None };
        let first = spec.execute(&session, &SolveContext::unbounded()).unwrap();
        assert_eq!(first["cached"], false);
        assert_eq!(first["result"]["subset"], serde_json::json!([0, 1, 2]));
        assert_eq!(first["result"]["triggered"], true);
        let second = spec.execute(&session, &SolveContext::unbounded()).unwrap();
        assert_eq!(second["cached"], true);
        assert_eq!(second["result"]["subset"], serde_json::json!([0, 1, 2]));
        // New observations invalidate the cache.
        session.lock().unwrap().observe(&[(3, 4, 1.0)]).unwrap();
        let third = spec.execute(&session, &SolveContext::unbounded()).unwrap();
        assert_eq!(third["cached"], false);
    }

    #[test]
    fn distinct_specs_do_not_share_cache_entries() {
        let session = shared_session(6);
        seed_triangle(&session);
        let mine = JobSpec::Mine { measure: None };
        let mine_degree = JobSpec::Mine {
            measure: Some(DensityMeasure::AverageDegree),
        };
        assert_ne!(
            mine.cache_key(DensityMeasure::GraphAffinity),
            mine_degree.cache_key(DensityMeasure::GraphAffinity)
        );
        mine.execute(&session, &SolveContext::unbounded()).unwrap();
        let degree = mine_degree
            .execute(&session, &SolveContext::unbounded())
            .unwrap();
        assert_eq!(degree["cached"], false);
        // But an explicit measure equal to the default shares the key.
        let explicit = JobSpec::Mine {
            measure: Some(DensityMeasure::GraphAffinity),
        };
        assert_eq!(
            explicit
                .execute(&session, &SolveContext::unbounded())
                .unwrap()["cached"],
            true
        );
    }

    #[test]
    fn topk_and_sweep_jobs_produce_ranked_output() {
        let session = shared_session(8);
        session
            .lock()
            .unwrap()
            .observe(&[(0, 1, 6.0), (0, 2, 6.0), (1, 2, 6.0), (4, 5, 3.0)])
            .unwrap();
        let topk = JobSpec::TopK {
            k: 3,
            measure: None,
        }
        .execute(&session, &SolveContext::unbounded())
        .unwrap();
        let results = topk["results"].as_array().unwrap();
        assert_eq!(results.len(), 2);
        assert_eq!(results[0]["rank"], 1);
        assert_eq!(results[0]["subset"], serde_json::json!([0, 1, 2]));
        assert_eq!(results[1]["subset"], serde_json::json!([4, 5]));

        let sweep = JobSpec::Sweep {
            alphas: Some(vec![0.0, 1.0]),
            measure: None,
        }
        .execute(&session, &SolveContext::unbounded())
        .unwrap();
        let points = sweep["points"].as_array().unwrap();
        assert_eq!(points.len(), 2);
        assert_eq!(points[0]["alpha"], 0);
        assert_eq!(points[1]["alpha"], 1);
    }

    #[test]
    fn pool_executes_submitted_jobs() {
        let pool = WorkerPool::new(2, 8);
        let session = shared_session(6);
        seed_triangle(&session);
        let receivers: Vec<_> = (0..6)
            .map(|_| {
                submit(
                    &pool,
                    Arc::clone(&session),
                    JobSpec::Mine { measure: None },
                    SolveContext::unbounded(),
                )
                .unwrap()
            })
            .collect();
        let mut shared = 0;
        for receiver in receivers {
            let value = receiver.recv().unwrap().unwrap();
            assert_eq!(value["result"]["subset"], serde_json::json!([0, 1, 2]));
            // Identical jobs are answered either from the cache or from a
            // coalesced batch — exactly one of the six pays for a solve.
            if value["cached"] == true || value["coalesced"] == true {
                shared += 1;
            }
        }
        assert!(shared >= 4, "later identical jobs share the first solve");
        assert_eq!(pool.executed(), 6);
        assert_eq!(pool.threads(), 2);
        assert_eq!(pool.capacity(), 8);
    }

    #[test]
    fn same_version_jobs_coalesce_into_one_batch() {
        // One worker.  The first job blocks the worker on the session lock
        // (held by the test); three more identical jobs pile up behind it.
        // A budget of 0 units keeps every result non-converged, so nothing
        // enters the cache and the pile-up must be answered by coalescing —
        // one solve, followers marked "coalesced".
        let pool = WorkerPool::new(1, 16);
        let session = shared_session(6);
        seed_triangle(&session);
        let cx = || SolveContext::unbounded().with_budget(0);
        let guard = session.lock().unwrap();
        let first = submit(
            &pool,
            Arc::clone(&session),
            JobSpec::Mine { measure: None },
            cx(),
        )
        .unwrap();
        // Give the worker time to claim the first job and block on the lock.
        std::thread::sleep(Duration::from_millis(100));
        let rest: Vec<_> = (0..3)
            .map(|_| {
                submit(
                    &pool,
                    Arc::clone(&session),
                    JobSpec::Mine { measure: None },
                    cx(),
                )
                .unwrap()
            })
            .collect();
        drop(guard);
        let value = first.recv().unwrap().unwrap();
        assert_eq!(value["cached"], false);
        let mut coalesced = 0;
        for receiver in rest {
            let value = receiver.recv().unwrap().unwrap();
            assert_eq!(value["cached"], false, "budget-0 results must not cache");
            if value["coalesced"] == true {
                coalesced += 1;
            }
        }
        assert!(
            coalesced >= 2,
            "piled-up identical jobs must share one solve, got {coalesced}"
        );
        assert_eq!(pool.coalesced(), coalesced as u64);
        let batches = pool.batch_size_snapshot();
        assert!(batches.count >= 1, "batch sizes must be recorded");
        assert!(batches.max >= 3, "the pile-up forms a batch of at least 3");
        assert_eq!(pool.executed(), 4);
    }

    #[test]
    fn callback_submissions_complete_without_a_channel() {
        let pool = WorkerPool::new(2, 8);
        let session = shared_session(6);
        seed_triangle(&session);
        let (tx, rx) = std::sync::mpsc::channel();
        for _ in 0..3 {
            let tx = tx.clone();
            pool.submit_with(
                Arc::clone(&session),
                JobSpec::Mine { measure: None },
                SolveContext::unbounded(),
                Box::new(move |outcome| {
                    let value = outcome.unwrap();
                    tx.send(value["result"]["subset"].clone()).unwrap();
                }),
            )
            .unwrap();
        }
        for _ in 0..3 {
            let subset = rx.recv_timeout(Duration::from_secs(30)).unwrap();
            assert_eq!(subset, serde_json::json!([0, 1, 2]));
        }
        // Opaque-task callbacks run too.
        let (tx, rx) = std::sync::mpsc::channel();
        pool.submit_task_with(
            Box::new(|_| Ok(json!({"done": true}))),
            Box::new(move |outcome| tx.send(outcome.unwrap()).unwrap()),
        )
        .unwrap();
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(10)).unwrap()["done"],
            true
        );
        // The sharded pending maps drained back to empty.
        let depths = pool.shard_depths();
        assert_eq!(depths.len(), pool.threads());
        assert_eq!(depths.iter().sum::<usize>(), 0);
        assert_eq!(pool.executed(), 4);
    }

    #[test]
    fn full_queue_rejects_with_busy() {
        // One worker, capacity-1 queue, and jobs that block on the session
        // lock held by the test.  At most one job can sit in the worker's
        // hands (blocked on the lock) and one in the queue, so among three
        // submissions at least one must bounce with Busy — independent of
        // how the worker thread is scheduled.
        let pool = WorkerPool::new(1, 1);
        let session = shared_session(6);
        seed_triangle(&session);
        let guard = session.lock().unwrap();
        let mut receivers = Vec::new();
        let mut busy = 0usize;
        for _ in 0..3 {
            match submit(
                &pool,
                Arc::clone(&session),
                JobSpec::Mine { measure: None },
                SolveContext::unbounded(),
            ) {
                Ok(receiver) => receivers.push(receiver),
                Err(ServerError::Busy) => busy += 1,
                Err(other) => panic!("unexpected submit error: {other}"),
            }
        }
        assert!(busy >= 1, "bounded queue must reject overload");
        assert!(pool.rejected() >= 1);
        // Unblock the session: every accepted job completes successfully.
        drop(guard);
        for receiver in receivers {
            assert!(receiver.recv().unwrap().is_ok());
        }
    }
}
