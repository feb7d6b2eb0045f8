//! # dcs-obs — first-party observability for the DCS mining stack
//!
//! Everything above the solvers (the streaming server, the CLI, the benches)
//! needs to *see* the system run: how deep the job queue is, how long mines
//! take at p99, which solver phase a slow job spends its time in.  This crate
//! is the shared substrate for that, deliberately **dependency-free** (std
//! only) so even `dcs-graph` at the bottom of the stack can link it without
//! widening the offline `compat/` surface.
//!
//! Two pillars:
//!
//! * [`metrics`] — a registry of named **atomic counters, gauges and
//!   fixed-bucket log-scale histograms**.  Updates through the returned
//!   handles are lock-free (single atomic RMW ops); only registration takes a
//!   lock.  Snapshots are plain data, mergeable across registries/shards, and
//!   histograms summarise to p50/p95/p99.
//! * [`trace`] — a **phase tracer**: span-style begin/end events for solver
//!   phases (`G_D` build, peel, CD shrink/expand, the µ_u bound and sweep,
//!   refinement, snapshot rebuilds, queue wait) recorded into bounded
//!   per-thread ring buffers.
//!   Tracing is off by default and gated behind one relaxed atomic load —
//!   an instrumented-but-disabled build pays a branch per *phase* (not per
//!   iteration), which is unmeasurable next to the phases themselves.  The
//!   collected timeline exports as a JSON string with no serializer
//!   dependency.
//!
//! ```
//! use dcs_obs::metrics::MetricsRegistry;
//! use dcs_obs::trace::{self, Phase};
//!
//! let registry = MetricsRegistry::new();
//! let jobs = registry.counter("jobs_completed");
//! let wall = registry.histogram("job_wall_us");
//! jobs.inc();
//! wall.record(1500); // µs
//! let snap = registry.snapshot();
//! assert_eq!(snap.counters["jobs_completed"], 1);
//!
//! trace::set_enabled(true);
//! {
//!     let mut span = trace::span(Phase::Peel);
//!     span.set_units(42); // e.g. vertices removed
//! }
//! trace::set_enabled(false);
//! let events = trace::take_timeline();
//! assert_eq!(events.last().unwrap().phase, Phase::Peel);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod metrics;
pub mod trace;

pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry, RegistrySnapshot,
};
pub use trace::{span, Phase, Span, TraceEvent};
