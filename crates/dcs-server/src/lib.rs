//! # dcs-server — a long-running density-contrast mining service
//!
//! The paper motivates DCS mining with always-on workloads: traffic-anomaly
//! detection, emerging-community discovery, dark-network monitoring.  In all
//! of them the historical baseline `G1` is fixed while the observed graph `G2`
//! arrives as a stream.  This crate turns the batch algorithms of `dcs-core`
//! into a service:
//!
//! * a [`SessionRegistry`] of named **sessions**, each holding a baseline
//!   graph, a live observed graph fed by incremental weight updates
//!   (a [`dcs_core::StreamingDcs`] over an incrementally maintained
//!   difference graph), and a monotone **graph version** bumped only by
//!   updates that actually change the graph; mining jobs receive
//!   `Arc<SignedGraph>` snapshot handles — no per-job graph clones, and an
//!   unchanged session hands every worker the same pointer-equal snapshot;
//! * a fixed-size [`WorkerPool`] with a bounded job queue, so many clients
//!   can mine concurrently without oversubscribing cores (excess load is
//!   shed with a structured `overloaded` error instead of piling up);
//! * a **nonblocking serving tier**: a small fixed set of I/O threads run
//!   readiness event loops (epoll on Linux, `poll(2)` elsewhere) over the
//!   connections an accept thread deals out to them — see *Serving
//!   architecture* below;
//! * a per-session **result cache** keyed by `(graph version, job spec)` —
//!   repeated queries against an unchanged graph are answered without
//!   re-mining and marked `"cached": true`;
//! * a **newline-delimited JSON protocol over TCP** served by [`Server`],
//!   with a matching blocking [`Client`].
//!
//! ## Wire protocol
//!
//! One request per line, one response per line, both JSON objects (NDJSON).
//! Every request carries a `"cmd"` field; every response carries
//! `"ok": true|false` and `"proto": 1` (the protocol version this server
//! speaks), and failed responses carry `"error": "<message>"`.
//! If a request has an `"id"` field it is echoed verbatim in the response so
//! pipelined clients can match responses to requests.
//!
//! A request may declare its own `"proto"`: the server accepts (and echoes,
//! like every response) version 1 and rejects anything else with the
//! structured error `unsupported proto N (server speaks proto 1)` — the
//! hook future wire or on-disk format bumps will negotiate through.
//! Requests without `"proto"` are treated as version 1.
//!
//! In-process, the protocol is a **typed layer**: [`Request`] and
//! [`Response`] enums (tagged on `"cmd"`) round-trip to the wire shapes
//! above via `Request::from_value` / `Request::to_value` and
//! `Response::into_body`.  The server's dispatcher and the [`Client`] both
//! speak the typed layer; raw `serde_json::Value` remains the wire truth,
//! and unknown-command / missing-field error strings are stable.
//!
//! | `cmd`            | request fields                                             | response fields (besides `ok`) |
//! |------------------|------------------------------------------------------------|--------------------------------|
//! | `ping`           | —                                                          | `pong: true`                   |
//! | `create_session` | `session`, `vertices` *or* `pack` (a graph-pack path on the server's filesystem; `vertices` becomes optional and is cross-checked against the pack header when given), opt. `remine_every` (default 0), `alert_threshold` (default 0), `measure` (`"affinity"` \| `"degree"`, default affinity), `durable: true` (requires a server `--data-dir`; recovers the named session's directory when one exists) | `session`, `vertices`, `backing: "memory"\|"pack"`; durable creates add `durable: true`, `recovered: bool` |
//! | `load_baseline`  | `session`, `edges: [[u, v, w], …]` — replaces the baseline and resets observations (the version advances, never resets) | `baseline_edges`, `version` |
//! | `observe`        | `session`, `updates: [[u, v, delta], …]` — batched weight updates to the observed graph | `applied`, `ignored`, `version`, `alerts: [alert…]` |
//! | `mine`           | `session`, opt. `measure`, *bounds* — mine the current DCS (runs on the worker pool) | `cached`, `version`, `termination`, `result: alert` |
//! | `topk`           | `session`, `k`, opt. `measure`, *bounds* — up to `k` vertex-disjoint contrast subgraphs | `cached`, `version`, `termination`, `stats`, `results: [group…]` |
//! | `sweep`          | `session`, opt. `alphas: [f…]` (default grid), `measure`, *bounds* — α-sweep of `A2 − α·A1` | `cached`, `version`, `termination`, `stats`, `points: [point…]` |
//! | `cancel`         | `job` — cancel the in-flight job registered under that id (from any connection) | `cancelled: bool` (whether the id was found) |
//! | `stats`          | opt. `session` — with one, that session's counters; without, the server-wide observability payload | per-session: `vertices`, `observations`, `version`, `observed_edges`, `baseline_edges`, `backing: "memory"\|"pack"`, `pack_open_ms` (open + decode wall time; `null` for memory-backed), `cache: {entries, hits, misses, evictions}`, `durable: bool`; server-wide: see below |
//! | `list_sessions`  | —                                                          | `sessions: [name…]`            |
//! | `drop_session`   | `session`                                                  | `dropped: true`                |
//! | `server_stats`   | —                                                          | `sessions`, `worker_threads`, `solver_threads`, `io_threads`, `queue_capacity`, `jobs_executed`, `jobs_rejected`, `jobs_inflight_named` |
//! | `shutdown`       | —                                                          | `shutting_down: true`          |
//!
//! Every mining command accepts the optional *bounds* fields
//! `deadline_ms` (wall-clock deadline in milliseconds, measured from request
//! receipt — queue time counts), `budget` (a solver-specific work budget) and
//! `job` (a client-chosen id under which the job's cancellation token is
//! registered for the `cancel` command).  A job whose bound trips returns the
//! **best result found so far** with `"termination"` set to `"deadline"`,
//! `"budget_exhausted"` or `"cancelled"` instead of `"converged"` — a worker
//! can no longer be wedged indefinitely by one adversarial request, and a
//! client disconnect cancels its in-flight job (best-effort).  Only converged
//! results enter the per-session cache.
//!
//! ## Pack-backed sessions
//!
//! A `create_session` carrying a `pack` field opens a binary **graph pack**
//! (the zero-copy CSR format of `dcs_graph::pack`, written by `dcs pack` or
//! `dcs-datasets`) from the server's filesystem as the session baseline.
//! The file is memory-mapped where the platform allows, and its CSR arrays
//! back the baseline graph directly — no edge-list upload, no
//! graph rebuild.  Per-session `stats` report `backing: "pack"` and the
//! open + decode wall time as `pack_open_ms`; a later `load_baseline`
//! replaces the baseline from protocol edges and reverts the session to
//! `backing: "memory"`.
//!
//! One caveat on disconnect detection, which observes EOF / hangup on the
//! request stream: clients must keep their **write side open** while awaiting
//! a mining response (a half-close — `shutdown(SHUT_WR)`, `nc -N`, closing
//! the writer to signal end-of-input — is indistinguishable from abandonment
//! and cancels the in-flight job; the response, carrying the best result
//! found so far, is still written if the read side of the peer survives).
//! The *hard* anti-wedge guarantee is [`ServerConfig::max_job_ms`] (default
//! 5 minutes): every job runs under a server-imposed deadline no looser than
//! that cap, client-supplied or not.
//!
//! ## Durability
//!
//! A server started with a **data directory** ([`ServerConfig::data_dir`],
//! `dcs serve --data-dir`) can host **durable sessions**: `create_session`
//! with `"durable": true` gives the session a per-session **write-ahead
//! log** of accepted observe batches plus periodic pack-format
//! **checkpoints**, and the server **recovers** every session directory it
//! finds under the data dir at start.  A recovered session is
//! observation-for-observation identical to one that never stopped — same
//! version counter, same difference snapshot, same warm-start support.
//! See the [`durable`] module docs for the on-disk layout (`session.json`,
//! `wal-<G>.ndjson`, `ckpt-<G>.dcspack`, `baseline-<B>.dcspack`), the
//! recovery procedure (newest valid checkpoint + WAL tail replay, with
//! torn-tail truncation and corrupt-checkpoint generation fallback) and
//! the sync modes ([`WalSync`]: `always` / `group` / `none`;
//! [`ServerConfig::group_commit_ms`] sets the group-commit interval,
//! [`ServerConfig::checkpoint_every`] the checkpoint trigger).  Ephemeral
//! sessions on the same server pay nothing.  `dcs sessions --data-dir`
//! inspects a data directory offline.
//!
//! ## Serving architecture
//!
//! Connections are not one-thread-each.  A blocking accept thread hands
//! fresh sockets round-robin to [`ServerConfig::io_threads`] I/O threads
//! (default: up to 4); each runs a **readiness event loop** — epoll on
//! Linux, portable `poll(2)` elsewhere — over the connections it owns:
//!
//! * requests are framed **incrementally**: partial reads accumulate until a
//!   newline completes a request, so a slow or trickling sender never holds
//!   a thread;
//! * per connection, requests dispatch **one at a time** (responses stay in
//!   request order) while different connections progress independently;
//! * cheap commands run inline on the I/O thread; mining commands (and
//!   observes that can trigger a solve) are handed to the worker pool with a
//!   **completion callback** that renders the response and posts it back to
//!   the owning event loop — I/O threads never block on a solve or a reply
//!   channel;
//! * responses are **write-buffered** with backpressure: past a high-water
//!   mark of unflushed output the loop stops reading (and therefore parsing
//!   and dispatching) from that connection until the peer drains it, without
//!   stalling any other connection.
//!
//! **Admission control** is end to end.  The worker pool's bounded queue and
//! each session's bounded **observe mailbox** ([`ServerConfig::observe_mailbox`])
//! shed excess load immediately with
//! `{"ok": false, "error": "overloaded", "retry_after_ms": n}` — the hint
//! scales with queue depth so well-behaved clients back off harder as
//! pressure rises.  Shed counts, queue depth, mailbox high-water marks and
//! accept/read/write event counters are all exported in the server-wide
//! `stats` payload (the `queue`, `io` and `mailbox` blocks below).
//!
//! ## The server-wide `stats` payload
//!
//! A `stats` request **without** a `session` field returns the server's
//! observability surface, assembled from lock-free instrumentation
//! (`dcs-obs`) on the dispatch, worker-pool and job paths plus a brief
//! walk of the session registry:
//!
//! * `uptime_ms`, `sessions`, `requests: {total, errors}`;
//! * `queue: {depth, inflight, capacity, workers, executed, rejected,
//!   wait_us}` — the bounded job queue right now, lifetime execute/reject
//!   counts, and the queue-wait latency summary;
//! * `batching: {solves, size_mean, size_p50, size_p95, size_p99, size_max,
//!   coalesced}` — snapshot-batch telemetry: how many solve groups ran, the
//!   distribution of jobs answered per group (1 = no coalescing), and how
//!   many jobs were answered as followers of another job's solve;
//! * `jobs: {completed, cached, inflight_named, wall_us_by_kind,
//!   wall_us_by_measure}` — client-observed wall time (queue wait + solve)
//!   of solved jobs, as one latency summary per kind (`mine` / `topk` /
//!   `sweep`) and per measure (`affinity` / `degree`); cache hits are counted
//!   in `cached` but excluded from the latency histograms;
//! * `terminations: {converged, deadline, cancelled, budget_exhausted}` —
//!   how solved jobs ended;
//! * `cache: {entries, hits, misses, evictions, hit_rate}` — aggregated over
//!   every session's result cache;
//! * `observes: {batches, updates, per_sec}` — observe throughput since the
//!   server started;
//! * `mailbox: {pending, high_water, shed}` — observe-mailbox pressure
//!   summed over every session: observe batches queued now, the highest
//!   depth any one session's mailbox has reached, and observe batches
//!   answered `overloaded` because their session's mailbox was full;
//! * `io: {threads, backend, accepts, read_events, write_events,
//!   connections_opened, connections_open, shed}` — the serving tier:
//!   event-loop backend (`"epoll"` / `"poll"`), accepted connections,
//!   readiness events handled, and how many requests were answered
//!   `overloaded`.
//!
//! Every **latency summary** is
//! `{"count": n, "mean_us": f, "p50_us": n, "p95_us": n, "p99_us": n,
//!   "max_us": n}`, sourced from fixed-bucket log-scale histograms — the
//! quantiles have ≤2× relative error by construction and `count`/`mean_us`/
//! `max_us` are exact.
//!
//! An **alert** object is
//! `{"triggered": bool, "density_difference": f, "observations": n,
//!   "subset": [v…], "size": n, "average_degree_difference": f,
//!   "affinity_difference": f, "edge_density_difference": f,
//!   "total_degree_difference": f, "is_positive_clique": bool,
//!   "is_connected": bool, "stats": stats}`;
//! a **group** (top-k) is the report shape plus `"rank"` and `"objective"`;
//! a **point** (sweep) is the report shape plus `"alpha"` and `"objective"`;
//! a **stats** object is solver telemetry:
//! `{"iterations": n, "candidates": n, "prunes": n, "wall_ms": f,
//!   "termination": "converged"|"deadline"|"cancelled"|"budget_exhausted"}`.
//!
//! The mining commands (`mine`, `topk`, `sweep`) — and `observe` on sessions
//! with `remine_every > 0`, since completing a period triggers a solve — are
//! executed by the worker pool; when too many jobs are pending the server
//! answers `{"ok": false, "error": "overloaded", "retry_after_ms": n}`
//! immediately rather than queueing unboundedly.  All other commands are
//! handled inline by the I/O threads.
//!
//! ## Snapshot batching and coalescing
//!
//! The worker pool's workers share **one FIFO queue** and serve it
//! **snapshot-batched**: the worker that claims a session's pending mining
//! jobs drains *all* of them in one session-lock pass, so every job in the
//! batch sees the same graph version and shares `Arc` handles to one
//! snapshot of the difference graph.  Within a batch, jobs with the same
//! cache key (same command, parameters and measure) are **coalesced** —
//! solved once, with every duplicate answered from the one solve.  Coalesced
//! followers carry `"coalesced": true` next to `"cached": false` in their
//! response; the leader and un-duplicated jobs carry neither.  Distinct-key
//! groups beyond the first go to the front of the queue where idle workers
//! take them, so a batch of different commands still fans out across the
//! pool.  Batch sizes and coalesced counts are exported under `batching` in
//! the server-wide `stats` payload.  Intra-solve parallelism (how many
//! threads one solve may use for NewSEA's µ_u scans) is configured
//! separately via [`ServerConfig::solver_threads`].
//!
//! ## Example
//!
//! ```
//! use dcs_server::{Client, Server, ServerConfig};
//! use serde_json::json;
//!
//! let handle = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap().start();
//! let mut client = Client::connect(handle.local_addr()).unwrap();
//!
//! client.create_session("demo", 5, json!({"alert_threshold": 1.0})).unwrap();
//! client.load_baseline("demo", &[(0, 1, 1.0)]).unwrap();
//! client.observe("demo", &[(0, 1, 4.0), (0, 2, 3.0), (1, 2, 3.0)]).unwrap();
//!
//! let mined = client.mine("demo").unwrap();
//! assert_eq!(mined["result"]["subset"], serde_json::json!([0, 1, 2]));
//! assert_eq!(mined["cached"], false);
//! // Same graph version, same job: served from the session cache.
//! assert_eq!(client.mine("demo").unwrap()["cached"], true);
//!
//! client.shutdown().unwrap();
//! handle.join();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod client;
pub mod durable;
mod error;
mod jobs;
mod metrics;
mod protocol;
mod server;
mod session;

pub use cache::ResultCache;
pub use client::{Client, SessionHandle};
pub use durable::WalSync;
pub use error::ServerError;
pub use jobs::{Completion, JobSpec, JobTable, WorkerPool};
pub use metrics::{histogram_summary, ServerMetrics};
pub use protocol::{
    alert_to_json, parse_measure, report_to_json, stats_to_json, CreateSessionRequest, JobBounds,
    Request, Response, PROTO_VERSION,
};
pub use server::{Server, ServerHandle};
pub use session::{ObserveMailbox, Session, SessionRegistry, SessionStats};

/// Configuration of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Number of mining worker threads (clamped to at least 1).  Defaults to
    /// the machine's available parallelism.
    pub worker_threads: usize,
    /// Capacity of the bounded mining-job queue; a full queue rejects further
    /// mining requests with a `busy` error.
    pub queue_capacity: usize,
    /// Maximum vertices accepted by `create_session` (guards the server
    /// against a single request allocating unbounded memory).
    pub max_vertices: usize,
    /// Server-imposed cap on any single mining job's wall time, in
    /// milliseconds (`None` disables it).  Applied as a deadline tighter than
    /// any client-supplied `deadline_ms`, it is the hard guarantee that no
    /// job — however adversarial — wedges a worker: cancel-on-disconnect is
    /// best-effort (unread bytes on the socket mask the disconnect), this cap
    /// is not.
    pub max_job_ms: Option<u64>,
    /// Intra-solve parallelism: the number of threads each mining job may use
    /// *inside* a single solve (NewSEA's parallel µ_u scans), capped at the
    /// available cores.  `0` (the default) inherits the process-wide
    /// `DCS_SOLVER_THREADS` environment default (itself defaulting to 1).
    /// Distinct from [`ServerConfig::worker_threads`], which controls how many
    /// jobs run concurrently.
    pub solver_threads: usize,
    /// Number of I/O threads running readiness event loops over the accepted
    /// connections.  `0` (the default) reads the `DCS_IO_THREADS` environment
    /// variable, itself defaulting to the machine's available parallelism
    /// capped at 4 — I/O threads multiplex many connections each and almost
    /// never need to scale with cores the way workers do.
    pub io_threads: usize,
    /// Per-session bound on pooled observes in flight (cadence-mining
    /// sessions only — plain observes are applied inline and never queue).
    /// A session at its bound sheds further observes with `overloaded`
    /// rather than letting one hot stream starve the pool.  Clamped to at
    /// least 1.
    pub observe_mailbox: usize,
    /// Directory holding durable session state (`serve --data-dir`).  `None`
    /// (the default) disables durability: `create_session` requests carrying
    /// `"durable": true` are rejected.  When set, the server recovers every
    /// session directory found under it at start.
    pub data_dir: Option<std::path::PathBuf>,
    /// When durable sessions' write-ahead logs reach stable storage — see
    /// [`WalSync`].  Defaults to group commit.
    pub wal_sync: WalSync,
    /// Interval of the background durability thread, in milliseconds: each
    /// tick `fsync`s group-committed WAL bytes and checks the checkpoint
    /// trigger.  Clamped to at least 1.  Default 25.
    pub group_commit_ms: u64,
    /// Checkpoint after this many WAL records accumulate in a session's live
    /// segment (0 disables automatic checkpoints).  Default 256.
    pub checkpoint_every: u64,
}

impl ServerConfig {
    /// The effective I/O thread count: the configured value, or — when 0 —
    /// the `DCS_IO_THREADS` environment variable, or — when unset or
    /// unparsable — available parallelism capped at 4.  Always at least 1.
    pub fn resolved_io_threads(&self) -> usize {
        let configured = if self.io_threads > 0 {
            self.io_threads
        } else {
            std::env::var("DCS_IO_THREADS")
                .ok()
                .and_then(|raw| raw.trim().parse::<usize>().ok())
                .filter(|&n| n > 0)
                .unwrap_or_else(|| {
                    std::thread::available_parallelism()
                        .map(|n| n.get())
                        .unwrap_or(1)
                        .min(4)
                })
        };
        configured.max(1)
    }
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            worker_threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(2),
            queue_capacity: 64,
            max_vertices: 50_000_000,
            max_job_ms: Some(300_000),
            solver_threads: 0,
            io_threads: 0,
            observe_mailbox: 1024,
            data_dir: None,
            wal_sync: WalSync::default(),
            group_commit_ms: 25,
            checkpoint_every: 256,
        }
    }
}
