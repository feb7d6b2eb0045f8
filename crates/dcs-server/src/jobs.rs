//! Mining jobs and the worker pool that executes them.
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
//! Scheduling is **one FIFO queue with snapshot batching**.  The queue, the
//! per-session lists of pending mining jobs and the admission count sit
//! behind one mutex, and idle workers sleep on one condition variable.  The
//! worker that claims a session drains its whole pending list in *one*
//! session-lock pass — every claimed job sees the same graph version and
//! shares the same `Arc<SignedGraph>` snapshot handles.  Jobs with the same
//! cache key are **coalesced** into one group solved once (followers are
//! answered with the leader's result, marked `"coalesced": true`); distinct
//! groups beyond the first go to the front of the queue, where idle workers
//! take them.  Batch sizes and coalesced-job counts are exported through the
//! pool's accessors into the server's `stats` payload.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

use dcs_core::{
    alpha_sweep_in, default_alpha_grid, mine_difference_in, top_k_in, CancelToken, DensityMeasure,
    SharedWorkspace, SolveContext, Termination,
};
use dcs_graph::VertexId;
use dcs_obs::metrics::{Gauge, Histogram, HistogramSnapshot};
use dcs_obs::trace;
use serde_json::{json, Value};

use crate::error::ServerError;
use crate::protocol::{alert_to_json, report_to_json, stats_to_json};
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
        let resolved = |m: &Option<DensityMeasure>| m.unwrap_or(default_measure).token();
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

    /// Captures the job's inputs under the session lock.  Snapshots are
    /// `Arc` handles to the session's incrementally maintained difference
    /// graph (a sweep's, to its observed graph): an unchanged session hands
    /// out the same graph pointer to every worker, and a changed one only
    /// merges the edges its updates changed into the previous snapshot.
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

    /// Solves a snapshot without holding the session lock.  The context's
    /// deadline / budget / cancellation token bound the solve: a tripped
    /// bound returns the best-so-far result with a non-`converged`
    /// `termination` field instead of blocking a worker indefinitely.
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
                let outcome = top_k_in(&gd, k, measure, cx);
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
/// Graphs are `Arc` handles into the session's delta graphs (and baseline) —
/// capturing a snapshot clones pointers, not adjacency arrays.  A sweep takes
/// the observed graph `G2`'s snapshot rather than `G_D`'s, because it
/// re-scales the raw `(G2, G1)` pair.
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
        g2: Arc<dcs_graph::SignedGraph>,
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
/// Groups beyond the first of a claim go to the front of the queue — the
/// snapshot travels with the ticket, so the worker that takes it never
/// touches the session lock before solving.
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

/// A unit of scheduling in the pool's queue.
enum Ticket {
    /// "Session `key` has pending mining jobs" — queued when the session's
    /// pending list is created; the claiming worker drains the whole list in
    /// one lock pass.
    Session(usize),
    /// A snapshotted group ready to solve.
    Group(Box<ReadyGroup>),
    /// An opaque task.
    Opaque(OpaqueJob),
}

/// The pool's scheduling state, behind one lock.
#[derive(Default)]
struct Queue {
    tickets: VecDeque<Ticket>,
    /// Pending mining jobs per session (keyed by `Arc` pointer identity).  A
    /// session has an entry exactly while its [`Ticket::Session`] is queued.
    mining: HashMap<usize, Vec<MiningJob>>,
    /// Jobs accepted but not yet claimed by a worker — the admission count.
    pending: usize,
    shutdown: bool,
}

/// State shared between the pool handle and its workers.
struct PoolShared {
    queue: Mutex<Queue>,
    /// Signalled when a ticket is queued or the pool shuts down.
    ready: Condvar,
    executed: AtomicU64,
    coalesced: AtomicU64,
    inflight: Gauge,
    queue_wait_us: Histogram,
    /// Jobs per executed solve group (1 = no coalescing happened).
    batch_size: Histogram,
}

impl PoolShared {
    fn lock(&self) -> MutexGuard<'_, Queue> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Counts one job as in flight and records its queue wait.
    fn note_claimed(&self, enqueued: Instant) {
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

/// A fixed set of worker threads sharing one FIFO queue behind a bounded
/// admission count, with same-session mining jobs batched onto shared
/// snapshots.
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
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(Queue::default()),
            ready: Condvar::new(),
            executed: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            inflight: Gauge::new(),
            queue_wait_us: Histogram::new(),
            batch_size: Histogram::new(),
        });
        let workers = (0..threads)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
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

    /// Bounded admission: queues one job through `push`, or rejects with
    /// [`ServerError::Busy`] when `capacity` jobs are already pending
    /// (accepted but unclaimed) or the pool is shutting down.
    fn enqueue(&self, push: impl FnOnce(&mut Queue)) -> Result<(), ServerError> {
        let mut queue = self.shared.lock();
        if queue.shutdown || queue.pending >= self.capacity {
            drop(queue);
            self.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(ServerError::Busy);
        }
        queue.pending += 1;
        push(&mut queue);
        // Notified before the unlock: a worker woken after it can preempt the
        // submitting I/O thread mid-dispatch when the two share a CPU, which
        // read ~2% higher on the stream-remine benchmark's p50.
        self.shared.ready.notify_one();
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
    /// `"coalesced": true`.  Only **converged** results enter the session
    /// cache — a truncated result is never served to another client.
    pub fn submit_with(
        &self,
        session: SharedSession,
        spec: JobSpec,
        cx: SolveContext,
        done: Completion,
    ) -> Result<(), ServerError> {
        let key = Arc::as_ptr(&session) as usize;
        let job = MiningJob {
            session,
            spec,
            cx,
            reply: done,
            enqueued: Instant::now(),
        };
        self.enqueue(|queue| match queue.mining.entry(key) {
            Entry::Occupied(mut pending) => pending.get_mut().push(job),
            Entry::Vacant(slot) => {
                slot.insert(vec![job]);
                queue.tickets.push_back(Ticket::Session(key));
            }
        })
    }

    /// Submits an arbitrary task (used for observes on cadence-mining
    /// sessions, which can trigger a solve and therefore must not run on
    /// I/O threads), answered through `done` like [`Self::submit_with`].
    /// Same bounded-admission semantics; opaque tasks are never batched.
    pub fn submit_task_with(&self, task: Task, done: Completion) -> Result<(), ServerError> {
        let job = OpaqueJob {
            task,
            reply: done,
            enqueued: Instant::now(),
        };
        self.enqueue(|queue| queue.tickets.push_back(Ticket::Opaque(job)))
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

    /// Jobs accepted but not yet claimed by a worker.
    pub fn queue_depth(&self) -> usize {
        self.shared.lock().pending
    }

    /// Jobs claimed by workers and not yet answered (members of a group that
    /// waits in the queue count as in flight).
    pub fn inflight(&self) -> i64 {
        self.shared.inflight.get().max(0)
    }

    /// Snapshot of the queue-wait distribution (microseconds).
    pub fn queue_wait_snapshot(&self) -> HistogramSnapshot {
        self.shared.queue_wait_us.snapshot()
    }

    /// Snapshot of the batch-size distribution: jobs answered per executed
    /// solve group (1 = no coalescing).
    pub fn batch_size_snapshot(&self) -> HistogramSnapshot {
        self.shared.batch_size.snapshot()
    }

    /// Jobs answered from another job's solve (batch followers).
    pub fn coalesced(&self) -> u64 {
        self.shared.coalesced.load(Ordering::Relaxed)
    }

    /// Stops admissions, drains the remaining work and joins every worker.
    pub fn shutdown(&mut self) {
        self.shared.lock().shutdown = true;
        self.shared.ready.notify_all();
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

/// One worker thread: take the queue's front ticket, or sleep until one is
/// queued.  On shutdown the loop exits only once the queue is empty, so
/// accepted jobs are drained, not dropped (a claim that queues extra groups
/// is itself still running, and takes them after its own group).
fn worker_loop(shared: &PoolShared) {
    // One solver workspace per worker, alive across jobs: the steady-state
    // serving path re-mines into the same scratch buffers instead of
    // allocating them per job.
    let workspace = SharedWorkspace::new();
    let mut queue = shared.lock();
    loop {
        let Some(ticket) = queue.tickets.pop_front() else {
            if queue.shutdown {
                return;
            }
            queue = shared
                .ready
                .wait(queue)
                .unwrap_or_else(PoisonError::into_inner);
            continue;
        };
        match ticket {
            Ticket::Session(key) => {
                let jobs = queue.mining.remove(&key).unwrap_or_default();
                queue.pending -= jobs.len();
                drop(queue);
                claim_session(shared, jobs, &workspace);
            }
            Ticket::Group(group) => {
                drop(queue);
                solve_group(shared, *group, &workspace);
            }
            Ticket::Opaque(job) => {
                queue.pending -= 1;
                drop(queue);
                shared.note_claimed(job.enqueued);
                let outcome = (job.task)(&workspace);
                shared.finish(job.reply, outcome);
            }
        }
        queue = shared.lock();
    }
}

/// Serves one session's drained pending list: one session-lock pass answers
/// cache hits and snapshots one [`ReadyGroup`] per distinct cache key (all
/// sharing the lock pass's graph version and `Arc` snapshot handles).  The
/// first group is solved on this worker; the rest go to the front of the
/// queue, in arrival order, for idle workers to take.
fn claim_session(shared: &PoolShared, jobs: Vec<MiningJob>, workspace: &SharedWorkspace) {
    let Some(session) = jobs.first().map(|job| Arc::clone(&job.session)) else {
        return;
    };
    for job in &jobs {
        shared.note_claimed(job.enqueued);
    }

    let mut groups: Vec<ReadyGroup> = Vec::new();
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
                groups.push(ReadyGroup {
                    session: Arc::clone(&session),
                    spec: job.spec,
                    key: cache_key,
                    version,
                    snapshot,
                    cx: job.cx,
                    members: vec![job.reply],
                });
            }
        }
    }

    let mut groups = groups.into_iter();
    let Some(first) = groups.next() else {
        return;
    };
    if !groups.as_slice().is_empty() {
        let mut queue = shared.lock();
        for group in groups.rev() {
            queue.tickets.push_front(Ticket::Group(Box::new(group)));
        }
        drop(queue);
        shared.ready.notify_all();
    }
    solve_group(shared, first, workspace);
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
    use std::time::Duration;

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

    /// Submits one unbounded mining job and waits for its response.
    fn run(pool: &WorkerPool, session: &SharedSession, spec: JobSpec) -> Value {
        submit(pool, Arc::clone(session), spec, SolveContext::unbounded())
            .unwrap()
            .recv()
            .unwrap()
            .unwrap()
    }

    #[test]
    fn mine_job_finds_the_triangle_and_caches() {
        let pool = WorkerPool::new(1, 8);
        let session = shared_session(6);
        seed_triangle(&session);
        let spec = JobSpec::Mine { measure: None };
        let first = run(&pool, &session, spec.clone());
        assert_eq!(first["cached"], false);
        assert_eq!(first["result"]["subset"], serde_json::json!([0, 1, 2]));
        assert_eq!(first["result"]["triggered"], true);
        let second = run(&pool, &session, spec.clone());
        assert_eq!(second["cached"], true);
        assert_eq!(second["result"]["subset"], serde_json::json!([0, 1, 2]));
        // New observations invalidate the cache.
        session.lock().unwrap().observe(&[(3, 4, 1.0)]).unwrap();
        let third = run(&pool, &session, spec);
        assert_eq!(third["cached"], false);
    }

    #[test]
    fn distinct_specs_do_not_share_cache_entries() {
        let pool = WorkerPool::new(1, 8);
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
        run(&pool, &session, mine);
        let degree = run(&pool, &session, mine_degree);
        assert_eq!(degree["cached"], false);
        // But an explicit measure equal to the default shares the key.
        let explicit = JobSpec::Mine {
            measure: Some(DensityMeasure::GraphAffinity),
        };
        assert_eq!(run(&pool, &session, explicit)["cached"], true);
    }

    #[test]
    fn topk_and_sweep_jobs_produce_ranked_output() {
        let pool = WorkerPool::new(1, 8);
        let session = shared_session(8);
        session
            .lock()
            .unwrap()
            .observe(&[(0, 1, 6.0), (0, 2, 6.0), (1, 2, 6.0), (4, 5, 3.0)])
            .unwrap();
        let topk = run(
            &pool,
            &session,
            JobSpec::TopK {
                k: 3,
                measure: None,
            },
        );
        let results = topk["results"].as_array().unwrap();
        assert_eq!(results.len(), 2);
        assert_eq!(results[0]["rank"], 1);
        assert_eq!(results[0]["subset"], serde_json::json!([0, 1, 2]));
        assert_eq!(results[1]["subset"], serde_json::json!([4, 5]));

        let sweep = run(
            &pool,
            &session,
            JobSpec::Sweep {
                alphas: Some(vec![0.0, 1.0]),
                measure: None,
            },
        );
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
        // The pending count drained back to empty.
        assert_eq!(pool.queue_depth(), 0);
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

    #[test]
    fn shutdown_drains_accepted_jobs_and_rejects_later_ones() {
        // One worker, blocked on the session lock held by the test, with two
        // mining groups of distinct keys and one opaque task accepted behind
        // it.  Shutdown must answer all three before the worker exits.
        let mut pool = WorkerPool::new(1, 8);
        let session = shared_session(6);
        seed_triangle(&session);
        let guard = session.lock().unwrap();
        let mut receivers: Vec<_> = [
            JobSpec::Mine { measure: None },
            JobSpec::Mine {
                measure: Some(DensityMeasure::AverageDegree),
            },
        ]
        .into_iter()
        .map(|spec| submit(&pool, Arc::clone(&session), spec, SolveContext::unbounded()).unwrap())
        .collect();
        let (reply, receiver) = sync_channel(1);
        pool.submit_task_with(
            Box::new(|_| Ok(json!({"done": true}))),
            Box::new(move |outcome| {
                let _ = reply.send(outcome);
            }),
        )
        .unwrap();
        receivers.push(receiver);
        std::thread::scope(|scope| {
            let stopping = scope.spawn(|| pool.shutdown());
            // Give shutdown time to close admissions while all three jobs
            // still wait (the assertions below hold either way).
            std::thread::sleep(Duration::from_millis(100));
            drop(guard);
            stopping.join().unwrap();
        });
        for receiver in receivers {
            assert!(receiver.recv().unwrap().is_ok());
        }
        assert_eq!(pool.executed(), 3);
        assert!(matches!(
            submit(
                &pool,
                Arc::clone(&session),
                JobSpec::Mine { measure: None },
                SolveContext::unbounded()
            ),
            Err(ServerError::Busy)
        ));
    }
}
