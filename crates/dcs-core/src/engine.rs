//! The solver engine: bounds, telemetry and measure dispatch shared by every solver.
//!
//! Each mining algorithm in this workspace has one entry point,
//! `solve_bounded(graph, seed, &SolveContext)`: [`DcsGreedy::solve_bounded`] (DCSAD,
//! Algorithm 2) and [`NewSea::solve_bounded`] (DCSGA, Algorithm 5).  `graph` is a
//! `&SignedGraph` or any masked [`GraphView`] of one, `seed` is an optional warm
//! start, and the context carries every bound and capability of the solve:
//!
//! * [`SolveContext`] — a cooperative [`CancelToken`], an optional wall-clock
//!   **deadline**, an optional **work budget** (solver-specific iteration units), an
//!   optional shared scratch workspace and the intra-solve thread budget;
//! * [`SolveStats`] — telemetry of the solve (iterations, candidates examined,
//!   Theorem-6 early-exit prunes, wall time) and a [`Termination`] status: bounded
//!   solves never fail, they return the incumbent with `Deadline` / `Cancelled` /
//!   `BudgetExhausted` instead of `Converged`;
//! * [`MeasureSolver`] — the single place a [`DensityMeasure`] is mapped to a solver,
//!   used by the top-k / α-sweep / streaming drivers and everything above them; its
//!   [`EngineSolution`] is the best solution found *so far* plus its stats.
//!
//! Solvers check the context **cooperatively** through a [`WorkMeter`]: one check per
//! coarse work unit (a peel removal, a SEACD shrink round, a local-search sweep).  A
//! single unit is never cut short, so interruption latency is one unit, not zero —
//! which is exactly what makes best-so-far results always valid.
//!
//! ```
//! use dcs_core::engine::{MeasureSolver, SolveContext, Termination};
//! use dcs_core::DensityMeasure;
//! use dcs_graph::GraphBuilder;
//!
//! let gd = GraphBuilder::from_edges(4, vec![(0, 1, 3.0), (1, 2, -1.0)]);
//! let solver = MeasureSolver::for_measure(DensityMeasure::AverageDegree);
//! let solution = solver.solve_bounded(&gd, &[], &SolveContext::unbounded());
//! assert_eq!(solution.stats.termination, Termination::Converged);
//! assert_eq!(solution.subset, vec![0, 1]);
//! ```

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use dcs_graph::{GraphView, SignedGraph, VertexId, Weight};

use crate::dcsad::{DcsGreedy, DcsadSolution};
use crate::dcsga::{DcsgaConfig, DcsgaSolution, NewSea};
use crate::solution::{ContrastReport, DensityMeasure};
use crate::workspace::{SharedWorkspace, WorkspaceGuard};

/// Why a solve stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Termination {
    /// The solver ran to completion; the result is its final answer.
    Converged,
    /// The wall-clock deadline expired; the result is the best found so far.
    Deadline,
    /// The [`CancelToken`] was cancelled; the result is the best found so far.
    Cancelled,
    /// The work budget was exhausted; the result is the best found so far.
    BudgetExhausted,
}

impl Termination {
    /// Whether the solve ran to completion (the result is not truncated).
    pub fn is_converged(self) -> bool {
        matches!(self, Termination::Converged)
    }

    /// Stable lowercase token, used on the server wire protocol and in bench output.
    pub fn as_str(self) -> &'static str {
        match self {
            Termination::Converged => "converged",
            Termination::Deadline => "deadline",
            Termination::Cancelled => "cancelled",
            Termination::BudgetExhausted => "budget_exhausted",
        }
    }
}

impl std::fmt::Display for Termination {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A shared cooperative cancellation flag.
///
/// Cloning is cheap (an `Arc` bump); cancelling any clone cancels them all.  Solvers
/// observe cancellation at their next work-unit boundary and return best-so-far.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, not-yet-cancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Requests cancellation; all clones observe it.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

/// Bounds and control for one solve: cancellation, deadline, work budget.
///
/// Built fluently; the default is fully unbounded:
///
/// ```
/// use std::time::Duration;
/// use dcs_core::engine::{CancelToken, SolveContext};
///
/// let token = CancelToken::new();
/// let cx = SolveContext::unbounded()
///     .with_deadline(Duration::from_millis(250))
///     .with_budget(10_000)
///     .with_cancel(&token);
/// assert!(!cx.is_unbounded());
/// ```
#[derive(Debug, Clone, Default)]
pub struct SolveContext {
    cancel: Option<CancelToken>,
    deadline: Option<Instant>,
    budget: Option<u64>,
    workspace: Option<SharedWorkspace>,
    threads: Option<usize>,
}

/// Reads the process-wide default solver thread count from the
/// `DCS_SOLVER_THREADS` environment variable once (unset, empty or unparsable
/// values mean 1 = sequential).
fn default_solver_threads() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        std::env::var("DCS_SOLVER_THREADS")
            .ok()
            .and_then(|raw| raw.trim().parse::<usize>().ok())
            .unwrap_or(1)
    })
}

/// Clamps a requested thread count to `1..=available_parallelism` (read once):
/// kernels start one thread per unit of budget, so an unbounded request would
/// exhaust the process's threads.  A budget of at most 1 skips the read, which
/// parses cgroup files (and allocates) on Linux.
pub(crate) fn effective_threads(requested: usize) -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    if requested <= 1 {
        return 1;
    }
    let cores = *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
    requested.min(cores)
}

impl SolveContext {
    /// A context with no bounds: the solve runs to convergence, exactly like the
    /// pre-engine `solve()` entry points (which are now thin wrappers over this).
    pub fn unbounded() -> Self {
        SolveContext::default()
    }

    /// Bounds the solve by a wall-clock duration from now.
    pub fn with_deadline(self, after: Duration) -> Self {
        self.with_deadline_at(Instant::now() + after)
    }

    /// Bounds the solve by an absolute deadline (useful when queueing time should
    /// count against the job, as in the mining server).
    pub fn with_deadline_at(mut self, at: Instant) -> Self {
        self.deadline = Some(at);
        self
    }

    /// Attaches a cancellation token (stores a clone; cancel the original to stop the
    /// solve).
    pub fn with_cancel(mut self, token: &CancelToken) -> Self {
        self.cancel = Some(token.clone());
        self
    }

    /// Bounds the solve by a work budget in solver-specific units (peel removals for
    /// DCSAD, coordinate-descent iterations and shrink rounds for DCSGA, local-search
    /// sweeps for EgoScan).
    pub fn with_budget(mut self, units: u64) -> Self {
        self.budget = Some(units);
        self
    }

    /// Attaches a [`SharedWorkspace`]: every solve under this context reuses the
    /// workspace's scratch buffers (degree heaps, removal orders, the
    /// embedding arena) instead of allocating them.  The workspace never affects
    /// results — only where the scratch memory comes from.
    pub fn with_workspace(mut self, workspace: &SharedWorkspace) -> Self {
        self.workspace = Some(workspace.clone());
        self
    }

    /// Sets the intra-solve parallelism budget: the number of worker threads
    /// NewSEA's µ_u range scans may use (the greedy peel is sequential at every
    /// budget).  `1` forces the sequential reference paths; higher values are
    /// safe on any machine because every parallel kernel is **bit-identical** to
    /// its sequential counterpart, and [`Self::threads`] caps the budget at the
    /// machine's available parallelism.  `0` restores the default (the
    /// `DCS_SOLVER_THREADS` environment variable, else 1).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = if threads == 0 { None } else { Some(threads) };
        self
    }

    /// The effective parallelism budget of this context: the explicit
    /// [`Self::with_threads`] value, else the process-wide `DCS_SOLVER_THREADS`
    /// default, else 1 — clamped to `1..=available_parallelism`.
    pub fn threads(&self) -> usize {
        effective_threads(self.threads.unwrap_or_else(default_solver_threads))
    }

    /// Whether this context carries a shared workspace.
    pub fn has_workspace(&self) -> bool {
        self.workspace.is_some()
    }

    /// A clone of this context that is guaranteed to carry a workspace: drivers that
    /// run many solves under one job (top-k rounds, α-sweep grid points) call this
    /// once so all their solves share scratch buffers even when the caller did not
    /// attach any.
    pub fn ensure_workspace(&self) -> Self {
        if self.workspace.is_some() {
            self.clone()
        } else {
            self.clone().with_workspace(&SharedWorkspace::new())
        }
    }

    /// The scratch workspace for one solve: a lock on the shared workspace when the
    /// context carries one, a transient workspace otherwise.  Leaf solvers hold the
    /// guard for the duration of the solve; drivers must not call this around solver
    /// invocations (see the locking discipline in [`crate::workspace`]).
    pub fn workspace(&self) -> WorkspaceGuard<'_> {
        match &self.workspace {
            Some(shared) => WorkspaceGuard::Shared(shared.lock()),
            None => WorkspaceGuard::Owned(Box::default()),
        }
    }

    /// Whether this context carries no bound at all.
    pub fn is_unbounded(&self) -> bool {
        self.cancel.is_none() && self.deadline.is_none() && self.budget.is_none()
    }

    /// The context for a follow-up solve after `used` units of the budget were spent
    /// by earlier phases of the same job (drivers like top-k and the α-sweep run many
    /// solves under one budget).  Deadline and cancel token carry over unchanged.
    pub fn after_work(&self, used: u64) -> Self {
        let mut next = self.clone();
        if let Some(budget) = next.budget {
            next.budget = Some(budget.saturating_sub(used));
        }
        next
    }

    /// Starts metering one solve against this context.
    pub fn meter(&self) -> WorkMeter {
        WorkMeter {
            cancel: self.cancel.clone(),
            deadline: self.deadline,
            budget_left: self.budget,
            started: Instant::now(),
            stats: SolveStats::default(),
            verdict: None,
        }
    }
}

/// Telemetry of one solve (or of one driver phase aggregating several solves).
#[derive(Debug, Clone, PartialEq)]
pub struct SolveStats {
    /// Work units metered (solver-specific: peel removals, CD iterations + shrink
    /// rounds, local-search sweeps).  This is the quantity the budget bounds; the
    /// tick that trips the budget is still recorded, so the count can exceed the
    /// budget by at most one tick's units.
    pub iterations: u64,
    /// Candidate solutions examined (DCSGreedy candidates, SEACD initialisations,
    /// EgoScan seeds).
    pub candidates: u64,
    /// Candidates skipped by an early-exit bound (the Theorem-6 `µ_u` prune of
    /// NewSEA).
    pub prunes: u64,
    /// Wall time of the solve.
    pub wall: Duration,
    /// Why the solve stopped.
    pub termination: Termination,
}

impl Default for SolveStats {
    fn default() -> Self {
        SolveStats {
            iterations: 0,
            candidates: 0,
            prunes: 0,
            wall: Duration::ZERO,
            termination: Termination::Converged,
        }
    }
}

impl SolveStats {
    /// Folds another solve's stats into this one (drivers aggregate per-round solves).
    /// Wall times add; the first non-converged termination wins.
    pub fn absorb(&mut self, other: &SolveStats) {
        self.iterations += other.iterations;
        self.candidates += other.candidates;
        self.prunes += other.prunes;
        self.wall += other.wall;
        if self.termination.is_converged() {
            self.termination = other.termination;
        }
    }
}

/// Meters one solve against a [`SolveContext`]: counts work, checks the bounds, and
/// produces the final [`SolveStats`].
///
/// Solvers call [`WorkMeter::tick`] once per work unit batch; a `false` return means
/// "stop now, return best-so-far".  The verdict is sticky — once a bound trips, every
/// further check reports stop.
#[derive(Debug)]
pub struct WorkMeter {
    cancel: Option<CancelToken>,
    deadline: Option<Instant>,
    budget_left: Option<u64>,
    started: Instant,
    stats: SolveStats,
    verdict: Option<Termination>,
}

impl WorkMeter {
    /// Records `units` of work and checks every bound.  Returns `true` to keep going,
    /// `false` to stop (best-so-far).
    ///
    /// Once a verdict is set, further ticks stop without recording — solvers that
    /// pre-check before a work unit never inflate the count past the bound.  The
    /// tick that trips the budget is still recorded (post-work callers like the
    /// SEACD shrink meter units that were already performed), so `iterations` can
    /// exceed the budget by at most one tick's units.
    pub fn tick(&mut self, units: u64) -> bool {
        if self.verdict.is_some() {
            return false;
        }
        self.stats.iterations += units;
        if let Some(token) = &self.cancel {
            if token.is_cancelled() {
                self.verdict = Some(Termination::Cancelled);
                return false;
            }
        }
        if let Some(budget) = &mut self.budget_left {
            if *budget <= units {
                *budget = 0;
                self.verdict = Some(Termination::BudgetExhausted);
                return false;
            }
            *budget -= units;
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                self.verdict = Some(Termination::Deadline);
                return false;
            }
        }
        true
    }

    /// Whether a bound has already tripped (checks without recording work).
    pub fn stopped(&mut self) -> bool {
        if self.verdict.is_some() {
            return true;
        }
        // A zero-unit tick performs every check without consuming budget.
        !self.tick(0)
    }

    /// Records candidates examined.
    pub fn note_candidates(&mut self, n: u64) {
        self.stats.candidates += n;
    }

    /// Records candidates pruned by an early-exit bound.
    pub fn note_prunes(&mut self, n: u64) {
        self.stats.prunes += n;
    }

    /// Finalises the stats: stamps the wall time and the termination status
    /// (`Converged` when no bound tripped).
    pub fn finish(mut self) -> SolveStats {
        self.stats.wall = self.started.elapsed();
        self.stats.termination = self.verdict.unwrap_or(Termination::Converged);
        self.stats
    }
}

/// Solver-specific detail preserved alongside the engine-level solution shape.
#[derive(Debug, Clone)]
pub enum SolverDetail {
    /// A DCSAD solution (winner candidate, data-dependent ratio, …).
    Dcsad(DcsadSolution),
    /// A DCSGA solution (embedding, smart-initialisation stats).
    Dcsga(DcsgaSolution),
}

/// What [`MeasureSolver::solve_bounded`] returns: the best solution found so far
/// plus telemetry.  Truncated solves (deadline, cancellation, exhausted budget) still
/// return a valid vertex subset — check [`SolveStats::termination`] to know whether
/// it is the converged answer.
#[derive(Debug, Clone)]
pub struct EngineSolution {
    /// The mined vertex set (support set for affinity solutions), sorted ascending.
    pub subset: Vec<VertexId>,
    /// The objective value under the solver's measure (density difference or
    /// affinity difference).
    pub objective: Weight,
    /// The typed DCSAD/DCSGA solution.
    pub detail: SolverDetail,
    /// Telemetry, including the [`Termination`] status.
    pub stats: SolveStats,
}

impl EngineSolution {
    /// Why the solve stopped.
    pub fn termination(&self) -> Termination {
        self.stats.termination
    }

    /// The affinity embedding, for solutions produced by a DCSGA solver.
    pub fn embedding(&self) -> Option<&dcs_densest::Embedding> {
        match &self.detail {
            SolverDetail::Dcsga(solution) => Some(&solution.embedding),
            SolverDetail::Dcsad(_) => None,
        }
    }

    /// Full contrast statistics of the solution, evaluated on `gd`.  Affinity
    /// solutions are reported at their embedding, everything else at the subset.
    pub fn report(&self, gd: &SignedGraph) -> ContrastReport {
        self.report_in(gd, &SolveContext::unbounded())
    }

    /// [`Self::report`] under a [`SolveContext`]: when the context carries a
    /// workspace, the report's membership and connectivity scratch comes from it
    /// instead of being allocated — the steady-state reporting path of the streaming
    /// monitor and the serving layer.
    pub fn report_in(&self, gd: &SignedGraph, cx: &SolveContext) -> ContrastReport {
        let mut ws = cx.workspace();
        let crate::workspace::SolverWorkspace {
            marks,
            visited,
            stack,
            ..
        } = &mut *ws;
        let mut report =
            ContrastReport::for_subset_scratch(gd, &self.subset, marks, visited, stack);
        if let SolverDetail::Dcsga(solution) = &self.detail {
            report.affinity_difference = solution.embedding.affinity(gd);
        }
        report
    }
}

/// The single place a [`DensityMeasure`] picks a solver.  Every measure-dispatched
/// layer (top-k, α-sweep, streaming re-mines, the server, the CLI) goes through
/// this enum instead of matching on the measure itself.
#[derive(Debug, Clone)]
pub enum MeasureSolver {
    /// DCSAD: [`DcsGreedy`] (average degree; total degree falls back here too).
    AverageDegree(DcsGreedy),
    /// DCSGA: [`NewSea`] (graph affinity).
    Affinity(NewSea),
}

impl MeasureSolver {
    /// The solver for a measure with default configuration.
    pub fn for_measure(measure: DensityMeasure) -> Self {
        Self::with_config(measure, DcsgaConfig::default())
    }

    /// The solver for a measure, with an explicit DCSGA configuration (ignored by the
    /// average-degree solver, which has none).
    pub fn with_config(measure: DensityMeasure, config: DcsgaConfig) -> Self {
        match measure {
            DensityMeasure::GraphAffinity => MeasureSolver::Affinity(NewSea::new(config)),
            DensityMeasure::AverageDegree | DensityMeasure::TotalDegree => {
                MeasureSolver::AverageDegree(DcsGreedy::default())
            }
        }
    }

    /// The measure this solver mines under.
    pub fn measure(&self) -> DensityMeasure {
        match self {
            MeasureSolver::AverageDegree(_) => DensityMeasure::AverageDegree,
            MeasureSolver::Affinity(_) => DensityMeasure::GraphAffinity,
        }
    }

    /// Mines `graph` — a [`SignedGraph`] or a masked [`GraphView`] of one (the
    /// peeling drivers' per-round entry) — with the measure's solver under `cx`,
    /// warm-started from `seed` (see [`DcsGreedy::solve_bounded`] and
    /// [`NewSea::solve_bounded`]).
    pub fn solve_bounded<'a>(
        &self,
        graph: impl Into<GraphView<'a>>,
        seed: &[VertexId],
        cx: &SolveContext,
    ) -> EngineSolution {
        match self {
            MeasureSolver::AverageDegree(solver) => {
                let (solution, stats) = solver.solve_bounded(graph, seed, cx);
                EngineSolution {
                    subset: solution.subset.clone(),
                    objective: solution.density_difference,
                    detail: SolverDetail::Dcsad(solution),
                    stats,
                }
            }
            MeasureSolver::Affinity(solver) => {
                let (solution, stats) = solver.solve_bounded(graph, seed, cx);
                EngineSolution {
                    subset: solution.support(),
                    objective: solution.affinity_difference,
                    detail: SolverDetail::Dcsga(solution),
                    stats,
                }
            }
        }
    }

    /// Whether a peeling driver has any contrast left to mine on the view.
    ///
    /// This is a short-circuiting scan (it stops at the first surviving qualifying
    /// edge, i.e. essentially O(1) while contrast remains); the terminating round
    /// pays one full O(n + m) pass, which is still cheaper than the wasted solve it
    /// avoids, and cheaper than maintaining a surviving-edge counter would be — that
    /// would need a per-removal adjacency walk, exactly the per-round cost the
    /// masked views eliminate.
    pub fn view_exhausted(&self, view: GraphView<'_>) -> bool {
        // Both measures mine positive contrast: the working graph is the signed
        // `G_D` for either, and an all-non-positive remainder is exhausted.
        !view.has_positive_edge()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcs_graph::GraphBuilder;

    fn triangle_and_pair() -> SignedGraph {
        GraphBuilder::from_edges(
            6,
            vec![
                (0, 1, 4.0),
                (0, 2, 4.0),
                (1, 2, 4.0),
                (3, 4, 1.0),
                (2, 5, -2.0),
            ],
        )
    }

    #[test]
    fn thread_budget_is_capped_at_available_parallelism() {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let threads = SolveContext::unbounded().with_threads(usize::MAX).threads();
        assert!(
            (1..=cores).contains(&threads),
            "{threads} threads on {cores} cores"
        );
        assert_eq!(SolveContext::unbounded().with_threads(1).threads(), 1);
    }

    #[test]
    fn cancel_token_is_shared() {
        let token = CancelToken::new();
        let clone = token.clone();
        assert!(!clone.is_cancelled());
        token.cancel();
        assert!(clone.is_cancelled());
    }

    #[test]
    fn meter_enforces_budget_and_cancellation() {
        let cx = SolveContext::unbounded().with_budget(3);
        let mut meter = cx.meter();
        assert!(meter.tick(1));
        assert!(meter.tick(1));
        assert!(!meter.tick(1)); // third unit exhausts the budget
        assert!(!meter.tick(1)); // sticky, and no longer recorded
        let stats = meter.finish();
        assert_eq!(stats.termination, Termination::BudgetExhausted);
        assert_eq!(stats.iterations, 3);

        let token = CancelToken::new();
        let cx = SolveContext::unbounded().with_cancel(&token);
        let mut meter = cx.meter();
        assert!(meter.tick(5));
        token.cancel();
        assert!(!meter.tick(1));
        assert_eq!(meter.finish().termination, Termination::Cancelled);
    }

    #[test]
    fn expired_deadline_stops_on_first_tick() {
        let cx = SolveContext::unbounded().with_deadline(Duration::ZERO);
        let mut meter = cx.meter();
        assert!(!meter.tick(1));
        assert_eq!(meter.finish().termination, Termination::Deadline);
    }

    #[test]
    fn unbounded_engine_matches_direct_solvers() {
        let gd = triangle_and_pair();
        let cx = SolveContext::unbounded();

        let direct = DcsGreedy::default().solve(&gd);
        let engine =
            MeasureSolver::AverageDegree(DcsGreedy::default()).solve_bounded(&gd, &[], &cx);
        assert_eq!(engine.subset, direct.subset);
        assert_eq!(engine.objective, direct.density_difference);
        assert!(engine.termination().is_converged());

        let direct = NewSea::default().solve(&gd);
        let engine = MeasureSolver::Affinity(NewSea::default()).solve_bounded(&gd, &[], &cx);
        assert_eq!(engine.subset, direct.support());
        assert!((engine.objective - direct.affinity_difference).abs() < 1e-12);
        assert!(engine.embedding().is_some());
    }

    #[test]
    fn empty_and_fully_masked_inputs_yield_empty_results() {
        let empty = SignedGraph::empty(0);
        let gd = triangle_and_pair();
        let none_alive = dcs_graph::VertexMask::empty(gd.num_vertices());
        for measure in [DensityMeasure::AverageDegree, DensityMeasure::GraphAffinity] {
            let solver = MeasureSolver::for_measure(measure);
            for view in [GraphView::full(&empty), GraphView::masked(&gd, &none_alive)] {
                let solution = solver.solve_bounded(view, &[0, 1], &SolveContext::unbounded());
                assert!(solution.subset.is_empty(), "{measure:?}");
                assert_eq!(solution.objective, 0.0);
                assert_eq!(solution.termination(), Termination::Converged);
            }
        }
    }

    #[test]
    fn cancelled_solve_returns_valid_best_so_far() {
        let gd = triangle_and_pair();
        let token = CancelToken::new();
        token.cancel();
        let cx = SolveContext::unbounded().with_cancel(&token);
        for measure in [DensityMeasure::AverageDegree, DensityMeasure::GraphAffinity] {
            let solution = MeasureSolver::for_measure(measure).solve_bounded(&gd, &[], &cx);
            assert_eq!(
                solution.stats.termination,
                Termination::Cancelled,
                "{measure:?} did not observe the pre-cancelled token"
            );
            assert!(solution
                .subset
                .iter()
                .all(|&v| (v as usize) < gd.num_vertices()));
        }
    }

    #[test]
    fn measure_solver_dispatch() {
        let degree = MeasureSolver::for_measure(DensityMeasure::AverageDegree);
        assert_eq!(degree.measure(), DensityMeasure::AverageDegree);
        let total = MeasureSolver::for_measure(DensityMeasure::TotalDegree);
        assert_eq!(total.measure(), DensityMeasure::AverageDegree);
        let affinity = MeasureSolver::for_measure(DensityMeasure::GraphAffinity);
        assert_eq!(affinity.measure(), DensityMeasure::GraphAffinity);

        let gd = triangle_and_pair();
        // Both measures mine G_D itself: the affinity solver positive-filters
        // through the view.
        let view = GraphView::full(&gd);
        assert!(!affinity.view_exhausted(view));
        let solution = affinity.solve_bounded(view, &[], &SolveContext::unbounded());
        assert_eq!(solution.subset, vec![0, 1, 2]);
        // A graph whose only remaining edges are negative is exhausted for both.
        let spent = GraphBuilder::from_edges(3, vec![(0, 1, -1.0)]);
        assert!(affinity.view_exhausted(GraphView::full(&spent)));
        assert!(degree.view_exhausted(GraphView::full(&spent)));
    }

    #[test]
    fn workspace_reuse_is_transparent() {
        let gd = triangle_and_pair();
        let shared = crate::workspace::SharedWorkspace::new();
        let warm_cx = SolveContext::unbounded().with_workspace(&shared);
        assert!(warm_cx.has_workspace());
        assert!(warm_cx.is_unbounded(), "a workspace is not a bound");
        let cold_cx = SolveContext::unbounded();
        for measure in [DensityMeasure::AverageDegree, DensityMeasure::GraphAffinity] {
            let solver = MeasureSolver::for_measure(measure);
            let cold = solver.solve_bounded(&gd, &[], &cold_cx);
            // Repeated warm solves over one workspace: identical answers.
            for _ in 0..3 {
                let warm = solver.solve_bounded(&gd, &[], &warm_cx);
                assert_eq!(warm.subset, cold.subset, "{measure:?} diverged");
                assert_eq!(warm.objective, cold.objective);
            }
        }
        // ensure_workspace attaches one exactly when missing.
        assert!(cold_cx.ensure_workspace().has_workspace());
        let kept = warm_cx.ensure_workspace();
        assert!(kept.has_workspace());
    }

    #[test]
    fn after_work_reduces_only_the_budget() {
        let cx = SolveContext::unbounded().with_budget(100);
        let next = cx.after_work(60);
        let mut meter = next.meter();
        assert!(meter.tick(30));
        assert!(!meter.tick(30)); // 40 − 30 − 30 < 0
                                  // An unbounded context is unaffected.
        assert!(SolveContext::unbounded()
            .after_work(1_000_000)
            .is_unbounded());
    }

    #[test]
    fn stats_absorb_aggregates_and_keeps_first_failure() {
        let mut total = SolveStats::default();
        let converged_first = SolveStats {
            iterations: 2,
            candidates: 1,
            wall: Duration::from_millis(3),
            ..Default::default()
        };
        total.absorb(&converged_first);
        // Converged rounds leave the aggregate converged.
        assert_eq!(total.termination, Termination::Converged);
        assert_eq!(total.wall, Duration::from_millis(3));

        let truncated = SolveStats {
            iterations: 10,
            prunes: 4,
            wall: Duration::from_millis(7),
            termination: Termination::Deadline,
            ..Default::default()
        };
        total.absorb(&truncated);
        assert_eq!(total.termination, Termination::Deadline);

        // A later failure does not displace the first one, and a later
        // converged round does not reset it; counters and wall time keep
        // adding throughout.
        let cancelled = SolveStats {
            iterations: 3,
            wall: Duration::from_millis(5),
            termination: Termination::Cancelled,
            ..Default::default()
        };
        total.absorb(&cancelled);
        assert_eq!(total.termination, Termination::Deadline);
        let converged = SolveStats {
            iterations: 5,
            wall: Duration::from_millis(1),
            ..Default::default()
        };
        total.absorb(&converged);
        assert_eq!(total.iterations, 20);
        assert_eq!(total.candidates, 1);
        assert_eq!(total.prunes, 4);
        assert_eq!(total.wall, Duration::from_millis(16));
        assert_eq!(total.termination, Termination::Deadline);
    }
}
