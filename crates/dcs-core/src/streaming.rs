//! Streaming anomaly detection against a historical baseline.
//!
//! The introduction of the paper motivates DCS with "detecting current anomalies against
//! historical data": build a weighted graph `G1` of *expected* connection strengths from
//! history, observe the *current* connection strengths as `G2`, and mine the subgraph
//! whose density gap is largest (emerging traffic hot-spot clutters, emerging
//! communities, money-laundering dark networks).
//!
//! In that scenario `G2` is not a static file but a stream of observations.  This module
//! maintains the observed graph and the **difference graph** incrementally, as two
//! [`DeltaGraph`]s (each the last CSR snapshot plus the edges changed since), and
//! re-mines the DCS on a configurable cadence:
//!
//! * [`StreamingDcs::observe`] applies one weight update in `O(1)` amortized: it reads
//!   the old observed weight from `G2`'s delta graph and stores the new one, then
//!   records `D(u,v) = obs(u,v) − A1(u,v)` in `G_D`'s.  `G2`'s starts empty (or from
//!   the initial observation itself, which is not copied when it is pack-backed) and
//!   `G_D`'s from the negated baseline (or from `G2 − G1`), so an update reads one
//!   baseline weight and never re-walks `G1`.  Updates that do not change the
//!   observed graph (a zero delta, or a negative delta on an edge already clamped
//!   at zero) are **no-ops**: they bump neither the version nor the observation
//!   counter and are reported as `ignored` in [`BatchOutcome`].  An update whose
//!   new weight overflows to infinity is a no-op too;
//! * [`StreamingDcs::difference_snapshot`] returns the current `G_D` as a cheap
//!   `Arc<SignedGraph>` **delta snapshot**: the edges changed since the last snapshot
//!   are merged into its CSR (unchanged rows are copied in runs, changed rows merged
//!   with their sorted changes), and when the [`StreamingDcs::version`] is unchanged
//!   the previous snapshot is returned pointer-equal, with no work at all.  Consumers
//!   (the mining server's workers) hold the `Arc` and solve without copying the
//!   graph or blocking further observations;
//! * [`StreamingDcs::observed_graph`] returns the current `G2` the same way, for the
//!   callers that need the raw observations rather than `G_D`: the serving layer's
//!   checkpoints (which write it as a pack) and α-sweep jobs (which re-scale the
//!   `(G2, G1)` pair);
//! * every [`StreamingConfig::remine_every`] updates — or on demand via
//!   [`StreamingDcs::mine_now`] — the current difference snapshot is mined, and when
//!   the mined density difference exceeds [`StreamingConfig::alert_threshold`] the
//!   result is reported as a [`ContrastAlert`] with `triggered = true`;
//! * re-mines are **warm-started**: the support of the previous alert is passed to
//!   the solver as a seed ([`crate::dcsga::NewSea::solve_bounded`] /
//!   [`crate::dcsad::DcsGreedy::solve_bounded`]), so on a slightly-changed graph the
//!   sweep starts from a strong incumbent and the Theorem-6 early-exit bound prunes
//!   most initialisations.
//!
//! Mining itself is still a batch solve per snapshot (the paper's algorithms are batch
//! algorithms); what is incremental is everything around it — difference-graph
//! maintenance, snapshot materialisation, and the solver's starting point.

use std::sync::Arc;

use dcs_graph::{DeltaGraph, GraphBuilder, SignedGraph, VertexId, Weight};

use crate::diff::{difference_graph_with, WeightScheme};
use crate::engine::{MeasureSolver, SolveContext, SolveStats};
use crate::error::DcsError;
use crate::solution::{ContrastReport, DensityMeasure};
use crate::workspace::SharedWorkspace;

/// Configuration of a [`StreamingDcs`] monitor.
#[derive(Debug, Clone, Copy)]
pub struct StreamingConfig {
    /// Re-mine after this many observations (`0` disables automatic re-mining; call
    /// [`StreamingDcs::mine_now`] explicitly instead).
    pub remine_every: usize,
    /// Report `triggered = true` when the mined density difference reaches this value.
    pub alert_threshold: Weight,
    /// Which density measure to mine with.  [`DensityMeasure::TotalDegree`] is not a
    /// supported mining measure and falls back to average degree.
    pub measure: DensityMeasure,
}

impl Default for StreamingConfig {
    fn default() -> Self {
        StreamingConfig {
            remine_every: 100,
            alert_threshold: 0.0,
            measure: DensityMeasure::GraphAffinity,
        }
    }
}

/// The result of one (automatic or explicit) re-mining pass.
#[derive(Debug, Clone)]
pub struct ContrastAlert {
    /// Statistics of the mined subgraph on the current difference graph.
    pub report: ContrastReport,
    /// Whether the configured alert threshold was reached.
    pub triggered: bool,
    /// The density difference under the configured measure (average degree or affinity).
    pub density_difference: Weight,
    /// How many observations have been applied in total when this alert was produced.
    pub observations: usize,
    /// Solver telemetry of the mine that produced this alert, including the
    /// [`crate::engine::Termination`] status (best-so-far when not converged).
    pub stats: SolveStats,
}

/// Maintains an observed graph against a fixed historical baseline and periodically mines
/// the density contrast subgraph of the pair.
#[derive(Debug, Clone)]
pub struct StreamingDcs {
    baseline: Arc<SignedGraph>,
    /// The observed graph `G2`, maintained incrementally: the last snapshot plus
    /// the edges changed since.  Every weight is positive; a zero weight is an
    /// absent edge.  Only checkpoints, α-sweeps and [`Self::observed_graph`]
    /// snapshot it.
    observed: DeltaGraph,
    /// The difference graph `G_D = G2 − G1`, maintained the same way and
    /// changed at the same `(u, v)` as `observed` on every applied observation.
    delta: DeltaGraph,
    config: StreamingConfig,
    observations: usize,
    updates_since_mine: usize,
    /// Monotone counter bumped on every observation that changed the observed
    /// graph.  Consumers (e.g. the mining server's result cache) use it to
    /// detect whether the graph moved between two queries.
    version: u64,
    /// Support of the last mined alert, used to warm-start the next mine.
    last_support: Option<Vec<VertexId>>,
    /// Reusable solver scratch shared by every re-mine of this monitor, so the
    /// steady-state cadence path stops allocating per mine — peel buffers for the
    /// average-degree measure, the dense DCSGA embedding arena (and `µ_u`
    /// order/core scratch) for the affinity measure.  Clones of the monitor share
    /// the workspace (solves serialise on its lock); contents are pure scratch, so
    /// sharing never changes results.
    workspace: SharedWorkspace,
}

/// Outcome of a batched observation ([`StreamingDcs::apply_batch`]).
#[derive(Debug, Clone, Default)]
pub struct BatchOutcome {
    /// Number of updates that were applied (in-range, non-self-loop).
    pub applied: usize,
    /// Number of updates that were ignored (self-loops, out-of-range endpoints, and
    /// no-ops, among them updates whose new weight would overflow).
    pub ignored: usize,
    /// Every alert raised by re-mining periods completed during the batch.
    pub alerts: Vec<ContrastAlert>,
}

impl StreamingDcs {
    /// Creates a monitor over a historical baseline graph `G1`.
    ///
    /// The baseline must be non-negatively weighted (it is an expectation of connection
    /// strengths, like any DCS input graph).
    pub fn new(baseline: SignedGraph, config: StreamingConfig) -> Result<Self, DcsError> {
        if baseline.min_edge_weight().unwrap_or(0.0) < 0.0 {
            return Err(DcsError::NegativeInputWeight { which: "G1" });
        }
        // With no observations yet, D(u,v) = 0 − A1(u,v) = −A1(u,v): the negated
        // baseline is the first snapshot.  Snapshots never re-walk G1 after this.
        let delta = DeltaGraph::from_graph(baseline.negated());
        let observed = DeltaGraph::new(baseline.num_vertices());
        Ok(Self::from_parts(baseline, observed, delta, config))
    }

    /// Starts the observed graph from an initial snapshot `G2` instead of from empty.
    ///
    /// Like the baseline (and like any DCS input graph), the initial `G2` must be
    /// non-negatively weighted.  A clone of it becomes the first snapshot of the
    /// observed graph: a pack-backed `initial` (a recovered checkpoint) shares its
    /// mapping, no edge is copied.
    pub fn with_initial_observation(
        baseline: SignedGraph,
        initial: &SignedGraph,
        config: StreamingConfig,
    ) -> Result<Self, DcsError> {
        if initial.num_vertices() != baseline.num_vertices() {
            return Err(DcsError::VertexCountMismatch {
                g1_vertices: baseline.num_vertices(),
                g2_vertices: initial.num_vertices(),
            });
        }
        if initial.min_edge_weight().unwrap_or(0.0) < 0.0 {
            return Err(DcsError::NegativeInputWeight { which: "G2" });
        }
        if baseline.min_edge_weight().unwrap_or(0.0) < 0.0 {
            return Err(DcsError::NegativeInputWeight { which: "G1" });
        }
        // D(u,v) = obs(u,v) − A1(u,v) over the union of both edge sets, merged row
        // by row: the first snapshot.
        let gd = difference_graph_with(initial, &baseline, WeightScheme::Weighted)?;
        Ok(Self::from_parts(
            baseline,
            DeltaGraph::from_graph(initial.clone()),
            DeltaGraph::from_graph(gd),
            config,
        ))
    }

    /// A fresh monitor over `baseline` whose observed graph is `observed` and
    /// whose difference graph is `delta`.
    fn from_parts(
        baseline: SignedGraph,
        observed: DeltaGraph,
        delta: DeltaGraph,
        config: StreamingConfig,
    ) -> Self {
        StreamingDcs {
            baseline: Arc::new(baseline),
            observed,
            delta,
            config,
            observations: 0,
            updates_since_mine: 0,
            version: 0,
            last_support: None,
            workspace: SharedWorkspace::new(),
        }
    }

    /// Number of vertices of the monitored pair.
    pub fn num_vertices(&self) -> usize {
        self.baseline.num_vertices()
    }

    /// Total number of observations applied so far.
    pub fn observations(&self) -> usize {
        self.observations
    }

    /// Version of the observed graph: bumped once per applied observation,
    /// stable across queries that do not change the graph.  Together with a
    /// job description this uniquely identifies a mining result, which is how
    /// the serving layer keys its per-session cache.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The monitor's configuration.
    pub fn config(&self) -> &StreamingConfig {
        &self.config
    }

    /// The historical baseline graph `G1`.
    pub fn baseline(&self) -> &SignedGraph {
        &self.baseline
    }

    /// A shared handle to the baseline graph, for consumers that solve outside
    /// the monitor's lock (the serving layer) — cloning the `Arc`, not the graph.
    pub fn baseline_arc(&self) -> Arc<SignedGraph> {
        Arc::clone(&self.baseline)
    }

    /// The support of the most recently mined alert, used as the warm-start seed
    /// for the next mine.  `None` until the first mine (or after a clone of a
    /// never-mined monitor).
    pub fn last_support(&self) -> Option<&[VertexId]> {
        self.last_support.as_deref()
    }

    /// Number of edges currently present in the observed graph.
    pub fn observed_edge_count(&self) -> usize {
        self.observed.num_edges()
    }

    /// Observations applied since the last mine — how far into the current
    /// re-mining period the monitor is.  Checkpointing code persists this so
    /// a restored monitor fires its next cadence mine at the same
    /// observation a never-interrupted one would.
    pub fn updates_since_mine(&self) -> usize {
        self.updates_since_mine
    }

    /// Restores the streaming counters and warm-start seed of a monitor that
    /// was just rebuilt from persisted state ([`Self::with_initial_observation`]
    /// leaves them at zero).  This is the checkpoint-recovery hook: the graph
    /// state is reconstructed through the ordinary constructors (so every
    /// invariant check still runs), then the counters are stamped back so the
    /// recovered monitor is indistinguishable — version, observation count,
    /// cadence phase, warm-start seed — from one that never stopped.
    pub fn restore_counters(
        &mut self,
        version: u64,
        observations: usize,
        updates_since_mine: usize,
        last_support: Option<Vec<VertexId>>,
    ) {
        self.version = version;
        self.observations = observations;
        self.updates_since_mine = updates_since_mine;
        self.last_support = last_support;
    }

    /// Adds `delta` to the observed weight of the edge `(u, v)`.
    ///
    /// Observed weights are clamped at zero from below — `G2` is an ordinary
    /// non-negatively weighted graph; a negative cumulative observation means "no
    /// connection", not a negative connection.  Updates that leave the observed
    /// graph unchanged — a zero `delta`, or a negative `delta` on an edge already
    /// clamped at (or absent from) zero — are no-ops: they bump neither the version
    /// nor the observation counter.  So is an update whose new weight would not be
    /// finite (finite deltas whose sum overflows), which keeps every `G_D` weight
    /// finite.  Returns a [`ContrastAlert`] when this observation completed a
    /// re-mining period.
    pub fn observe(&mut self, u: VertexId, v: VertexId, delta: Weight) -> Option<ContrastAlert> {
        if u == v || (u as usize) >= self.num_vertices() || (v as usize) >= self.num_vertices() {
            return None; // self-loops and out-of-range endpoints are ignored
        }
        let old = self.observed.weight(u, v).unwrap_or(0.0);
        let new = (old + delta).max(0.0);
        if new == old || !new.is_finite() {
            // No-op: the observed graph did not change, or the sum overflowed (a
            // G_D weight must stay finite).
            return None;
        }
        // A new weight of zero removes the edge.
        self.observed.set_weight(u, v, new);
        // Maintain the difference weight directly: D(u,v) = obs(u,v) − A1(u,v).
        let base = self.baseline_weight(u, v);
        self.delta.set_weight(u, v, new - base);
        self.observations += 1;
        self.updates_since_mine += 1;
        // The version tracks *observed-graph* changes, deliberately not the delta
        // engine's version: sweep consumers are keyed by this version but read G2
        // directly, so a G2 change whose difference weight happens to round to the
        // previous value must still invalidate their caches.
        self.version += 1;
        if self.config.remine_every > 0 && self.updates_since_mine >= self.config.remine_every {
            Some(self.mine_now())
        } else {
            None
        }
    }

    /// Applies a batch of observations and reports how many were applied vs
    /// ignored alongside the raised alerts — the accounting the serving layer
    /// returns to remote clients.
    pub fn apply_batch<I: IntoIterator<Item = (VertexId, VertexId, Weight)>>(
        &mut self,
        updates: I,
    ) -> BatchOutcome {
        let mut outcome = BatchOutcome::default();
        for (u, v, delta) in updates {
            let before = self.observations;
            if let Some(alert) = self.observe(u, v, delta) {
                outcome.alerts.push(alert)
            }
            if self.observations > before {
                outcome.applied += 1;
            } else {
                outcome.ignored += 1;
            }
        }
        outcome
    }

    /// The current observed graph `G2` as a shared CSR snapshot, maintained like
    /// [`Self::difference_snapshot`]: the edges changed since the last one are
    /// merged into it, and with no change since, the same `Arc` comes back.
    pub fn observed_graph(&mut self) -> Arc<SignedGraph> {
        self.observed.snapshot()
    }

    /// The current difference graph `G_D = G2 − G1` as a shared CSR snapshot.
    ///
    /// The snapshot is maintained incrementally: the edges changed since the
    /// previous snapshot are merged into its CSR, and when the [`Self::version`]
    /// is unchanged the cached snapshot is returned **pointer-equal** (no
    /// allocation, no copying).  Callers keep the `Arc` for as long as they need
    /// the graph — this is how the mining server hands graphs to its workers
    /// without cloning.
    pub fn difference_snapshot(&mut self) -> Arc<SignedGraph> {
        self.delta.snapshot()
    }

    /// Rebuilds the difference graph from scratch through a [`GraphBuilder`],
    /// re-walking every observed and every baseline edge.
    ///
    /// This is the pre-delta-engine snapshot path, kept as the reference
    /// implementation: property tests assert the incremental snapshot is
    /// identical to it, and the `solver_hotpath` benchmark's `delta_vs_scratch`
    /// gate fails unless [`Self::difference_snapshot`] is faster.  It reads the
    /// observed edges with [`DeltaGraph::edges`], not through a `G2` snapshot:
    /// `G2` and `G_D` change the same edges, so a fault in the snapshot merge
    /// would corrupt both alike and a comparison of the two would not see it.
    pub fn rebuild_difference_snapshot(&self) -> SignedGraph {
        let mut builder = GraphBuilder::new(self.num_vertices());
        for (u, v, w) in self.observed.edges() {
            builder.add_edge(u, v, w);
        }
        for (u, v, w) in self.baseline.edges() {
            builder.add_edge(u, v, -w);
        }
        builder.build()
    }

    /// Mines the DCS of the current difference graph immediately and resets the
    /// re-mining counter.
    ///
    /// The mine is warm-started from the support of the previous alert (if any):
    /// on a graph that changed only slightly since then, the previous support is
    /// usually still a strong solution, which lets the affinity solver's
    /// early-exit bound prune most initialisations.
    pub fn mine_now(&mut self) -> ContrastAlert {
        self.updates_since_mine = 0;
        let gd = self.delta.snapshot();
        let seed = self.last_support.take();
        // Steady-state re-mines run with the monitor's persistent workspace: the
        // peel buffers, heaps and removal orders of the previous mine are reused.
        let cx = SolveContext::unbounded().with_workspace(&self.workspace);
        let alert = mine_difference_in(&gd, &self.config, self.observations, seed.as_deref(), &cx);
        self.last_support = Some(alert.report.subset.clone());
        alert
    }

    fn baseline_weight(&self, u: VertexId, v: VertexId) -> Weight {
        self.baseline.edge_weight(u, v).unwrap_or(0.0)
    }
}

/// Mines an already-materialised difference graph under `config` and `cx`,
/// producing the same [`ContrastAlert`] shape as [`StreamingDcs::mine_now`].
///
/// Exposed so callers that snapshot the difference graph themselves (the
/// mining server's worker pool, which must not hold a session lock while
/// solving) share one implementation with the in-process monitor.  `seed` is an
/// optional **warm start**: the support of a previous mine on a slightly-changed
/// graph, handed to the solver ([`crate::dcsga::NewSea::solve_bounded`] /
/// [`crate::dcsad::DcsGreedy::solve_bounded`]); a good seed makes re-mines converge
/// faster, a stale one costs a single extra candidate.  The solve observes the
/// context's cancellation token / deadline / budget and the returned alert carries
/// best-so-far results plus [`SolveStats`] telemetry when a bound trips.  Solver
/// dispatch goes through [`MeasureSolver`] — the single measure-to-solver mapping.
pub fn mine_difference_in(
    gd: &SignedGraph,
    config: &StreamingConfig,
    observations: usize,
    seed: Option<&[VertexId]>,
    cx: &SolveContext,
) -> ContrastAlert {
    let solver = MeasureSolver::for_measure(config.measure);
    let solution = solver.solve_bounded(gd, seed.unwrap_or(&[]), cx);
    let report = solution.report_in(gd, cx);
    ContrastAlert {
        triggered: solution.objective >= config.alert_threshold,
        density_difference: solution.objective,
        observations,
        report,
        stats: solution.stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcs_graph::GraphBuilder;

    /// Historical baseline: a uniform ring of expected strength 1.
    fn baseline(n: usize) -> SignedGraph {
        let mut b = GraphBuilder::new(n);
        for v in 0..n as VertexId {
            b.add_edge(v, (v + 1) % n as VertexId, 1.0);
        }
        b.build()
    }

    fn affinity_config(remine_every: usize, threshold: Weight) -> StreamingConfig {
        StreamingConfig {
            remine_every,
            alert_threshold: threshold,
            measure: DensityMeasure::GraphAffinity,
        }
    }

    #[test]
    fn rejects_invalid_baselines_and_snapshots() {
        let signed = GraphBuilder::from_edges(3, vec![(0, 1, -1.0)]);
        assert!(StreamingDcs::new(signed, StreamingConfig::default()).is_err());

        let base = baseline(4);
        let mismatched = SignedGraph::empty(5);
        assert!(StreamingDcs::with_initial_observation(
            base,
            &mismatched,
            StreamingConfig::default()
        )
        .is_err());

        // An initial G2 with a negative edge is rejected just like a negative G1.
        let negative_initial = GraphBuilder::from_edges(4, vec![(0, 1, -2.0)]);
        assert_eq!(
            StreamingDcs::with_initial_observation(
                baseline(4),
                &negative_initial,
                StreamingConfig::default()
            )
            .unwrap_err(),
            DcsError::NegativeInputWeight { which: "G2" }
        );
    }

    #[test]
    fn no_op_observations_are_ignored() {
        let mut monitor = StreamingDcs::new(baseline(6), affinity_config(0, 0.0)).unwrap();
        monitor.observe(0, 1, 2.0);
        assert_eq!(monitor.version(), 1);
        assert_eq!(monitor.observations(), 1);
        // A zero delta changes nothing.
        monitor.observe(0, 1, 0.0);
        // A negative delta on an absent edge clamps to zero: still absent.
        monitor.observe(2, 4, -3.0);
        // A negative delta on an edge already clamped at zero.
        monitor.observe(0, 2, 1.0);
        monitor.observe(0, 2, -5.0); // applied: removes the edge
        monitor.observe(0, 2, -5.0); // no-op: already absent
        assert_eq!(monitor.version(), 3);
        assert_eq!(monitor.observations(), 3);

        // Batched accounting reports the no-ops as ignored.
        let outcome = monitor.apply_batch(vec![
            (0, 1, 1.0),  // applied
            (0, 1, 0.0),  // no-op: ignored
            (3, 4, -1.0), // clamped at absent: ignored
            (3, 3, 1.0),  // self-loop: ignored
        ]);
        assert_eq!(outcome.applied, 1);
        assert_eq!(outcome.ignored, 3);
        assert_eq!(monitor.version(), 4);
    }

    #[test]
    fn overflowing_observations_are_ignored() {
        let mut monitor = StreamingDcs::new(baseline(6), affinity_config(0, 0.0)).unwrap();
        monitor.observe(0, 1, 1e308);
        monitor.observe(2, 3, 1.0);
        assert_eq!(monitor.version(), 2);
        let before = monitor.difference_snapshot();
        // 1e308 + 1e308 overflows: the update changes nothing.
        let outcome = monitor.apply_batch(vec![(0, 1, 1e308), (2, 3, 1.0)]);
        assert_eq!(outcome.applied, 1);
        assert_eq!(outcome.ignored, 1);
        assert_eq!(monitor.version(), 3);
        assert_eq!(monitor.observed_graph().edge_weight(0, 1), Some(1e308));
        let after = monitor.difference_snapshot();
        assert_eq!(after.edge_weight(0, 1), before.edge_weight(0, 1));
        assert!(after.edges().all(|(_, _, w)| w.is_finite()));
    }

    #[test]
    fn unchanged_version_returns_pointer_equal_snapshot() {
        let mut monitor = StreamingDcs::new(baseline(6), affinity_config(0, 0.0)).unwrap();
        monitor.observe(0, 1, 2.0);
        let first = monitor.difference_snapshot();
        // Same version: the very same Arc comes back, no rebuild.
        let second = monitor.difference_snapshot();
        assert!(std::sync::Arc::ptr_eq(&first, &second));
        // No-op observations keep the snapshot valid too.
        monitor.observe(0, 1, 0.0);
        monitor.observe(2, 4, -1.0);
        assert!(std::sync::Arc::ptr_eq(
            &first,
            &monitor.difference_snapshot()
        ));
        // An applied observation produces a fresh snapshot...
        monitor.observe(1, 2, 1.0);
        let third = monitor.difference_snapshot();
        assert!(!std::sync::Arc::ptr_eq(&first, &third));
        // ...that matches the from-scratch rebuild exactly.
        assert_eq!(*third, monitor.rebuild_difference_snapshot());
    }

    #[test]
    fn incremental_snapshot_tracks_scratch_rebuild() {
        let mut monitor = StreamingDcs::new(baseline(8), affinity_config(0, 0.0)).unwrap();
        let updates = [
            (0u32, 1u32, 3.0),
            (0, 2, 1.5),
            (0, 1, -10.0), // deletes the observation; baseline edge resurfaces
            (6, 7, 2.0),
            (6, 7, -2.0), // exact cancel: difference returns to -baseline
            (3, 4, 0.75),
            (3, 4, 0.25),
        ];
        for (u, v, delta) in updates {
            monitor.observe(u, v, delta);
            assert_eq!(
                *monitor.difference_snapshot(),
                monitor.rebuild_difference_snapshot()
            );
        }
    }

    #[test]
    fn warm_start_seed_follows_the_last_alert() {
        let mut monitor = StreamingDcs::new(baseline(8), affinity_config(0, 0.0)).unwrap();
        assert!(monitor.last_support().is_none());
        monitor.apply_batch(vec![(0, 1, 9.0), (0, 2, 9.0), (1, 2, 9.0)]);
        let alert = monitor.mine_now();
        assert_eq!(alert.report.subset, vec![0, 1, 2]);
        assert_eq!(monitor.last_support(), Some(&[0, 1, 2][..]));
        // A slightly-changed graph re-mines to the same answer from the seed.
        monitor.observe(4, 5, 0.5);
        let alert = monitor.mine_now();
        assert_eq!(alert.report.subset, vec![0, 1, 2]);
    }

    #[test]
    fn observation_accumulates_and_clamps_at_zero() {
        let mut monitor = StreamingDcs::new(baseline(6), affinity_config(0, 0.0)).unwrap();
        monitor.observe(0, 1, 2.0);
        monitor.observe(1, 0, 1.5);
        assert_eq!(monitor.observed_graph().edge_weight(0, 1), Some(3.5));
        // Driving the weight negative removes the edge instead.
        monitor.observe(0, 1, -10.0);
        assert_eq!(monitor.observed_graph().edge_weight(0, 1), None);
        // Self-loops and out-of-range endpoints are ignored.
        monitor.observe(2, 2, 5.0);
        monitor.observe(0, 99, 5.0);
        assert_eq!(monitor.observations(), 3);
    }

    #[test]
    fn difference_snapshot_subtracts_the_baseline() {
        let mut monitor = StreamingDcs::new(baseline(4), affinity_config(0, 0.0)).unwrap();
        monitor.observe(0, 1, 3.0); // expected 1 -> difference +2
        monitor.observe(0, 2, 1.0); // expected 0 -> difference +1
        let gd = monitor.difference_snapshot();
        assert_eq!(gd.edge_weight(0, 1), Some(2.0));
        assert_eq!(gd.edge_weight(0, 2), Some(1.0));
        // Unobserved baseline edges show up as fully "missing" (negative difference).
        assert_eq!(gd.edge_weight(2, 3), Some(-1.0));
    }

    #[test]
    fn automatic_remine_fires_every_period_and_respects_threshold() {
        let mut monitor = StreamingDcs::new(baseline(8), affinity_config(3, 1.0)).unwrap();
        // Two quiet observations, no alert yet.
        assert!(monitor.observe(0, 1, 1.1).is_none());
        assert!(monitor.observe(2, 3, 1.1).is_none());
        // Third observation closes the period: an alert is produced but the contrast is
        // still small, so it is not triggered.
        let alert = monitor.observe(4, 5, 1.1).expect("period completed");
        assert!(!alert.triggered);
        assert_eq!(alert.observations, 3);

        // Now a dense anomalous triangle forms among {0,1,2}.
        let alerts = monitor
            .apply_batch(vec![(0, 1, 9.0), (0, 2, 9.0), (1, 2, 9.0)])
            .alerts;
        assert_eq!(alerts.len(), 1);
        let alert = &alerts[0];
        assert!(
            alert.triggered,
            "affinity difference {}",
            alert.density_difference
        );
        assert_eq!(alert.report.subset, vec![0, 1, 2]);
        assert!(alert.report.is_positive_clique);
    }

    #[test]
    fn mine_now_resets_the_period_counter() {
        let mut monitor = StreamingDcs::new(baseline(6), affinity_config(2, 0.0)).unwrap();
        assert!(monitor.observe(0, 2, 5.0).is_none());
        let _ = monitor.mine_now();
        // The explicit mine reset the counter, so the next observation does not fire.
        assert!(monitor.observe(1, 3, 5.0).is_none());
        assert!(monitor.observe(2, 4, 5.0).is_some());
    }

    #[test]
    fn average_degree_measure_is_supported() {
        let config = StreamingConfig {
            remine_every: 0,
            alert_threshold: 2.0,
            measure: DensityMeasure::AverageDegree,
        };
        let mut monitor = StreamingDcs::new(baseline(10), config).unwrap();
        for &(u, v) in &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)] {
            monitor.observe(u, v, 4.0);
        }
        let alert = monitor.mine_now();
        assert!(alert.triggered);
        assert_eq!(alert.report.subset, vec![0, 1, 2, 3]);
        // Degree-sum convention: each of the 4 vertices gains 3 edges of ~+3..4.
        assert!(alert.density_difference > 2.0);
    }

    #[test]
    fn version_counts_applied_observations_only() {
        let mut monitor = StreamingDcs::new(baseline(6), affinity_config(0, 0.0)).unwrap();
        assert_eq!(monitor.version(), 0);
        monitor.observe(0, 1, 2.0);
        assert_eq!(monitor.version(), 1);
        // Ignored updates (self-loop, out of range) do not move the version.
        monitor.observe(3, 3, 1.0);
        monitor.observe(0, 42, 1.0);
        assert_eq!(monitor.version(), 1);
        // Mining does not move the version either: same graph, same version.
        let _ = monitor.mine_now();
        assert_eq!(monitor.version(), 1);
        monitor.observe(0, 1, -5.0);
        assert_eq!(monitor.version(), 2);
    }

    #[test]
    fn apply_batch_reports_applied_ignored_and_alerts() {
        let mut monitor = StreamingDcs::new(baseline(8), affinity_config(2, 0.5)).unwrap();
        let outcome = monitor.apply_batch(vec![
            (0, 1, 6.0),
            (2, 2, 1.0),  // self-loop: ignored
            (0, 2, 6.0),  // completes the first period
            (0, 99, 1.0), // out of range: ignored
            (1, 2, 6.0),
            (3, 4, 0.1), // completes the second period
        ]);
        assert_eq!(outcome.applied, 4);
        assert_eq!(outcome.ignored, 2);
        assert_eq!(outcome.alerts.len(), 2);
        assert!(outcome.alerts[0].triggered);
        assert_eq!(monitor.version(), 4);
        assert_eq!(monitor.observations(), 4);
    }

    #[test]
    fn accessors_expose_config_baseline_and_edges() {
        let base = baseline(5);
        let config = affinity_config(7, 1.25);
        let mut monitor = StreamingDcs::new(base.clone(), config).unwrap();
        assert_eq!(monitor.config().remine_every, 7);
        assert_eq!(monitor.config().alert_threshold, 1.25);
        assert_eq!(monitor.baseline(), &base);
        assert_eq!(monitor.observed_edge_count(), 0);
        monitor.observe(0, 1, 1.0);
        monitor.observe(1, 2, 1.0);
        assert_eq!(monitor.observed_edge_count(), 2);
        monitor.observe(0, 1, -1.0); // drops the edge again
        assert_eq!(monitor.observed_edge_count(), 1);
    }

    #[test]
    fn alert_threshold_separates_quiet_from_anomalous_batches() {
        let mut monitor = StreamingDcs::new(baseline(10), affinity_config(0, 3.0)).unwrap();
        // Quiet traffic close to the baseline: mined alert must not trigger.
        for v in 0..9u32 {
            monitor.observe(v, v + 1, 1.05);
        }
        let quiet = monitor.mine_now();
        assert!(
            !quiet.triggered,
            "quiet contrast {}",
            quiet.density_difference
        );
        // A hot clique forms: the same threshold now triggers.
        monitor.apply_batch(vec![(0, 1, 9.0), (0, 2, 9.0), (1, 2, 9.0)]);
        let hot = monitor.mine_now();
        assert!(hot.triggered);
        assert_eq!(hot.report.subset, vec![0, 1, 2]);
    }

    #[test]
    fn restored_counters_reproduce_an_uninterrupted_monitor() {
        // Drive a control monitor, then rebuild a twin from its observable
        // state the way checkpoint recovery does: observed graph through
        // with_initial_observation, counters through restore_counters.
        let mut control = StreamingDcs::new(baseline(8), affinity_config(3, 0.0)).unwrap();
        control.apply_batch(vec![(0, 1, 9.0), (0, 2, 9.0), (1, 2, 9.0), (4, 5, 1.0)]);

        let observed = control.observed_graph();
        let mut recovered =
            StreamingDcs::with_initial_observation(baseline(8), &observed, affinity_config(3, 0.0))
                .unwrap();
        // The initial observation is the recovered monitor's first `G2` snapshot.
        assert_eq!(
            recovered.observed_edge_count(),
            control.observed_edge_count()
        );
        recovered.restore_counters(
            control.version(),
            control.observations(),
            control.updates_since_mine(),
            control.last_support().map(|s| s.to_vec()),
        );
        assert_eq!(recovered.version(), control.version());
        assert_eq!(recovered.observations(), control.observations());
        assert_eq!(recovered.updates_since_mine(), control.updates_since_mine());
        assert_eq!(
            *recovered.difference_snapshot(),
            *control.difference_snapshot()
        );
        // Both fire the cadence mine on the same observation with the same
        // outcome, and the next observe after that behaves identically.
        let a = recovered.observe(6, 7, 2.0);
        let b = control.observe(6, 7, 2.0);
        assert_eq!(a.is_some(), b.is_some());
        if let (Some(a), Some(b)) = (a, b) {
            assert_eq!(a.report.subset, b.report.subset);
            assert_eq!(a.observations, b.observations);
        }
        assert_eq!(recovered.last_support(), control.last_support());
        // The observed graphs match bit for bit.
        assert_eq!(
            csr_bits(&recovered.observed_graph()),
            csr_bits(&control.observed_graph())
        );
    }

    /// The per-edge fold `new` replaced: `D = −A1`, one `set_weight` per baseline
    /// edge into an empty delta graph.
    fn folded_baseline(baseline: &SignedGraph) -> DeltaGraph {
        let mut delta = DeltaGraph::new(baseline.num_vertices());
        for (u, v, w) in baseline.edges() {
            delta.set_weight(u, v, -w);
        }
        delta
    }

    /// The per-edge fold `with_initial_observation` replaced: the baseline fold,
    /// then `D = A2 − A1` set for every edge of the initial observation.
    fn folded_initial(baseline: &SignedGraph, initial: &SignedGraph) -> DeltaGraph {
        let mut delta = folded_baseline(baseline);
        for (u, v, w) in initial.edges() {
            delta.set_weight(u, v, w - baseline.edge_weight(u, v).unwrap_or(0.0));
        }
        delta
    }

    /// Offsets, neighbours, weight bits and edge counts of a graph.
    type CsrBits = (Vec<usize>, Vec<VertexId>, Vec<u64>, [usize; 3]);

    fn csr_bits(g: &SignedGraph) -> CsrBits {
        let (offsets, neighbors, weights) = g.clone().into_raw_csr();
        let weights = weights.into_iter().map(f64::to_bits).collect();
        let counts = [
            g.num_edges(),
            g.num_positive_edges(),
            g.num_negative_edges(),
        ];
        (offsets, neighbors, weights, counts)
    }

    /// `graph` written to a pack and opened again: its CSR columns alias the
    /// pack where the platform maps it.
    fn pack_backed(graph: &SignedGraph, name: &str) -> SignedGraph {
        let dir = std::env::temp_dir().join(format!("dcs-streaming-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.dcspack");
        dcs_graph::PackWriter::write_graph(graph, &path).unwrap();
        let opened = dcs_graph::GraphPack::open(&path)
            .unwrap()
            .to_graph()
            .unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        #[cfg(all(target_pointer_width = "64", target_endian = "little"))]
        assert!(opened.is_pack_backed());
        opened
    }

    /// A pair with shared, `G1`-only and `G2`-only edges, shared edges of equal
    /// weight (which cancel) and weights whose difference rounds.
    fn oracle_pair() -> (SignedGraph, SignedGraph) {
        let mut g1 = Vec::new();
        let mut g2 = Vec::new();
        for u in 0..40u32 {
            for v in u + 1..40 {
                let h = (u * 31 + v * 17) % 11;
                let w = 0.1 * f64::from(h) + 0.3;
                match h % 4 {
                    0 => g1.push((u, v, w)),
                    1 => g2.push((u, v, w * 1.7)),
                    2 => {
                        g1.push((u, v, w));
                        g2.push((u, v, w));
                    }
                    _ if h > 6 => {
                        g1.push((u, v, w));
                        g2.push((u, v, w + 0.7));
                    }
                    _ => {}
                }
            }
        }
        (
            GraphBuilder::from_edges(40, g1),
            GraphBuilder::from_edges(40, g2),
        )
    }

    #[test]
    fn constructions_match_the_per_edge_folds() {
        let (g1, g2) = oracle_pair();
        let config = affinity_config(0, 0.0);
        for (baseline, initial) in [
            (g1.clone(), g2.clone()),
            (pack_backed(&g1, "g1"), pack_backed(&g2, "g2")),
        ] {
            let mut fresh = StreamingDcs::new(baseline.clone(), config).unwrap();
            assert_eq!(
                csr_bits(&fresh.difference_snapshot()),
                csr_bits(&folded_baseline(&baseline).snapshot())
            );
            let mut started =
                StreamingDcs::with_initial_observation(baseline.clone(), &initial, config).unwrap();
            assert_eq!(
                csr_bits(&started.difference_snapshot()),
                csr_bits(&folded_initial(&baseline, &initial).snapshot())
            );
            assert_eq!(started.observed_edge_count(), initial.num_edges());
            // The initial observation is `G2`'s first snapshot, its mapping shared.
            let observed = started.observed_graph();
            assert_eq!(csr_bits(&observed), csr_bits(&initial));
            assert_eq!(observed.is_pack_backed(), initial.is_pack_backed());
            // Later observations merge into the same bits as the fold.
            let mut folded = folded_initial(&baseline, &initial);
            for (u, v) in [(0u32, 1u32), (2, 9), (5, 39), (0, 1)] {
                started.observe(u, v, 0.25);
                let observed = started.observed_graph().edge_weight(u, v).unwrap();
                folded.set_weight(u, v, observed - baseline.edge_weight(u, v).unwrap_or(0.0));
                assert_eq!(
                    csr_bits(&started.difference_snapshot()),
                    csr_bits(&folded.snapshot())
                );
            }
        }
    }

    #[test]
    fn initial_observation_snapshot_is_used() {
        let base = baseline(5);
        let initial = GraphBuilder::from_edges(5, vec![(0, 1, 4.0), (1, 2, 4.0), (0, 2, 4.0)]);
        let mut monitor =
            StreamingDcs::with_initial_observation(base, &initial, affinity_config(0, 0.0))
                .unwrap();
        let alert = monitor.mine_now();
        assert_eq!(alert.report.subset, vec![0, 1, 2]);
        assert!(alert.density_difference > 0.0);
    }
}
