//! Server-wide observability: every counter, gauge and histogram behind the
//! server-level `stats` command.
//!
//! One [`ServerMetrics`] lives in the server's shared state.  The hot paths
//! (dispatch, job completion, observes) touch only lock-free handles from
//! `dcs-obs`; rendering the `stats` payload takes snapshots and walks the
//! session registry, and is the only place that locks anything.

use std::sync::Arc;
use std::time::{Duration, Instant};

use dcs_obs::metrics::{Counter, HistogramSnapshot, MetricsRegistry};
use serde_json::{json, Value};

use crate::jobs::JobTable;
use crate::jobs::WorkerPool;
use crate::session::SessionRegistry;

/// The `termination` tokens the `stats` payload always reports, even at zero.
const TERMINATION_TOKENS: [&str; 4] = ["converged", "deadline", "cancelled", "budget_exhausted"];

/// The per-kind latency histograms the `stats` payload always reports.
const KIND_TOKENS: [&str; 3] = ["mine", "topk", "sweep"];

/// The per-measure latency histograms the `stats` payload always reports.
const MEASURE_TOKENS: [&str; 2] = ["affinity", "degree"];

/// Aggregated server-side instrumentation (requests, jobs, observes,
/// terminations, latency distributions).
#[derive(Debug)]
pub struct ServerMetrics {
    registry: MetricsRegistry,
    started: Instant,
    requests: Arc<Counter>,
    errors: Arc<Counter>,
    observe_batches: Arc<Counter>,
    observe_updates: Arc<Counter>,
    jobs_completed: Arc<Counter>,
    jobs_cached: Arc<Counter>,
}

impl ServerMetrics {
    /// Fresh instrumentation; the clock for `uptime_ms` and the observe rate
    /// starts now.
    pub fn new() -> Self {
        let registry = MetricsRegistry::new();
        ServerMetrics {
            started: Instant::now(),
            requests: registry.counter("requests"),
            errors: registry.counter("errors"),
            observe_batches: registry.counter("observe_batches"),
            observe_updates: registry.counter("observe_updates"),
            jobs_completed: registry.counter("jobs_completed"),
            jobs_cached: registry.counter("jobs_cached"),
            registry,
        }
    }

    /// Counts one dispatched request (any command).
    pub fn note_request(&self) {
        self.requests.inc();
    }

    /// Counts one request that produced an error response.
    pub fn note_error(&self) {
        self.errors.inc();
    }

    /// Counts one observe batch and the updates it applied.
    pub fn note_observe(&self, applied: u64) {
        self.observe_batches.inc();
        self.observe_updates.add(applied);
    }

    /// Records one completed mining job: wall time into the per-kind and
    /// per-measure latency histograms, its termination, and whether it was
    /// answered from the session cache (cache hits skip the histograms — a
    /// sub-millisecond lookup would drown the solve distribution).
    pub fn record_job(
        &self,
        kind: &'static str,
        measure: &'static str,
        wall: Duration,
        termination: Option<&str>,
        cached: bool,
    ) {
        self.jobs_completed.inc();
        if cached {
            self.jobs_cached.inc();
            return;
        }
        if let Some(token) = termination {
            self.registry
                .counter(&format!("terminations.{token}"))
                .inc();
        }
        self.registry
            .histogram(&format!("job_wall_us.kind.{kind}"))
            .record_duration(wall);
        self.registry
            .histogram(&format!("job_wall_us.measure.{measure}"))
            .record_duration(wall);
    }

    /// Milliseconds since the server started.
    pub fn uptime_ms(&self) -> u64 {
        u64::try_from(self.started.elapsed().as_millis()).unwrap_or(u64::MAX)
    }

    /// Completed mining jobs (cached or solved).
    pub fn jobs_completed(&self) -> u64 {
        self.jobs_completed.get()
    }

    /// Renders the server-wide `stats` payload: queue state from `pool`,
    /// named in-flight jobs from `jobs`, cache and observe-mailbox counters
    /// aggregated over every session of `registry`, plus this struct's own
    /// counters and latency summaries.
    pub fn render(&self, pool: &WorkerPool, jobs: &JobTable, registry: &SessionRegistry) -> Value {
        let uptime_ms = self.uptime_ms();

        // Aggregate per-session counters under brief per-session locks.
        let mut sessions = 0u64;
        let (mut entries, mut hits, mut misses, mut evictions) = (0u64, 0u64, 0u64, 0u64);
        let (mut mailbox_pending, mut mailbox_high_water, mut mailbox_shed) =
            (0usize, 0usize, 0u64);
        for (_, session) in registry.sessions() {
            let guard = session
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            let stats = guard.stats();
            let mailbox = guard.mailbox();
            sessions += 1;
            entries += stats.cache_entries as u64;
            hits += stats.cache_hits;
            misses += stats.cache_misses;
            evictions += stats.cache_evictions;
            mailbox_pending += mailbox.pending();
            mailbox_high_water = mailbox_high_water.max(mailbox.high_water());
            mailbox_shed += mailbox.shed();
        }
        let lookups = hits + misses;
        let hit_rate = if lookups > 0 {
            hits as f64 / lookups as f64
        } else {
            0.0
        };

        let terminations = Value::Object(
            TERMINATION_TOKENS
                .iter()
                .map(|token| {
                    let count = self
                        .registry
                        .counter(&format!("terminations.{token}"))
                        .get();
                    (token.to_string(), json!(count))
                })
                .collect(),
        );
        let by_kind = Value::Object(
            KIND_TOKENS
                .iter()
                .map(|kind| {
                    let snap = self
                        .registry
                        .histogram(&format!("job_wall_us.kind.{kind}"))
                        .snapshot();
                    (kind.to_string(), histogram_summary(&snap))
                })
                .collect(),
        );
        let by_measure = Value::Object(
            MEASURE_TOKENS
                .iter()
                .map(|measure| {
                    let snap = self
                        .registry
                        .histogram(&format!("job_wall_us.measure.{measure}"))
                        .snapshot();
                    (measure.to_string(), histogram_summary(&snap))
                })
                .collect(),
        );

        let batch_sizes = pool.batch_size_snapshot();
        let observe_batches = self.observe_batches.get();
        let observes_per_sec = if uptime_ms > 0 {
            observe_batches as f64 * 1e3 / uptime_ms as f64
        } else {
            0.0
        };

        json!({
            "uptime_ms": uptime_ms,
            "sessions": sessions,
            "requests": { "total": self.requests.get(), "errors": self.errors.get() },
            "queue": {
                "depth": pool.queue_depth(),
                "inflight": pool.inflight(),
                "capacity": pool.capacity(),
                "workers": pool.threads(),
                "executed": pool.executed(),
                "rejected": pool.rejected(),
                "wait_us": histogram_summary(&pool.queue_wait_snapshot()),
            },
            "batching": {
                "solves": batch_sizes.count,
                "size_mean": batch_sizes.mean(),
                "size_p50": batch_sizes.p50(),
                "size_p95": batch_sizes.p95(),
                "size_p99": batch_sizes.p99(),
                "size_max": batch_sizes.max,
                "coalesced": pool.coalesced(),
            },
            "jobs": {
                "completed": self.jobs_completed.get(),
                "cached": self.jobs_cached.get(),
                "inflight_named": jobs.len(),
                "wall_us_by_kind": by_kind,
                "wall_us_by_measure": by_measure,
            },
            "terminations": terminations,
            "cache": {
                "entries": entries,
                "hits": hits,
                "misses": misses,
                "evictions": evictions,
                "hit_rate": hit_rate,
            },
            "observes": {
                "batches": observe_batches,
                "updates": self.observe_updates.get(),
                "per_sec": observes_per_sec,
            },
            "mailbox": {
                "pending": mailbox_pending,
                "high_water": mailbox_high_water,
                "shed": mailbox_shed,
            },
        })
    }
}

impl Default for ServerMetrics {
    fn default() -> Self {
        Self::new()
    }
}

/// Renders a histogram snapshot as the protocol's latency-summary shape:
/// `{count, mean_us, p50_us, p95_us, p99_us, max_us}`.
pub fn histogram_summary(snapshot: &HistogramSnapshot) -> Value {
    json!({
        "count": snapshot.count,
        "mean_us": snapshot.mean(),
        "p50_us": snapshot.p50(),
        "p95_us": snapshot.p95(),
        "p99_us": snapshot.p99(),
        "max_us": snapshot.max,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_job_feeds_kind_measure_and_termination() {
        let metrics = ServerMetrics::new();
        metrics.record_job(
            "mine",
            "affinity",
            Duration::from_millis(3),
            Some("converged"),
            false,
        );
        metrics.record_job(
            "mine",
            "affinity",
            Duration::from_millis(5),
            Some("deadline"),
            false,
        );
        // A cache hit counts as a completed job but not as solve latency.
        metrics.record_job("mine", "affinity", Duration::from_micros(40), None, true);

        let pool = WorkerPool::new(1, 1);
        let jobs = JobTable::new();
        let registry = SessionRegistry::new();
        let stats = metrics.render(&pool, &jobs, &registry);

        assert_eq!(stats["jobs"]["completed"], 3);
        assert_eq!(stats["jobs"]["cached"], 1);
        assert_eq!(stats["terminations"]["converged"], 1);
        assert_eq!(stats["terminations"]["deadline"], 1);
        assert_eq!(stats["terminations"]["cancelled"], 0);
        let mine = &stats["jobs"]["wall_us_by_kind"]["mine"];
        assert_eq!(mine["count"], 2);
        assert!(mine["p50_us"].as_u64().unwrap() >= 2_000);
        assert_eq!(stats["jobs"]["wall_us_by_kind"]["topk"]["count"], 0);
        assert_eq!(stats["jobs"]["wall_us_by_measure"]["affinity"]["count"], 2);
        assert_eq!(stats["queue"]["capacity"], 1);
        assert_eq!(stats["queue"]["workers"], 1);
        assert_eq!(stats["cache"]["hit_rate"], 0.0);
        assert_eq!(stats["batching"]["solves"], 0);
        assert_eq!(stats["batching"]["coalesced"], 0);
    }

    #[test]
    fn observe_and_request_counters_advance() {
        let metrics = ServerMetrics::new();
        metrics.note_request();
        metrics.note_request();
        metrics.note_error();
        metrics.note_observe(7);
        metrics.note_observe(3);

        let pool = WorkerPool::new(1, 1);
        let stats = metrics.render(&pool, &JobTable::new(), &SessionRegistry::new());
        assert_eq!(stats["requests"]["total"], 2);
        assert_eq!(stats["requests"]["errors"], 1);
        assert_eq!(stats["observes"]["batches"], 2);
        assert_eq!(stats["observes"]["updates"], 10);
    }
}
