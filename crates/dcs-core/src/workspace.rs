//! Reusable solver scratch state, carried through [`crate::engine::SolveContext`].
//!
//! Every solve used to allocate its working buffers from scratch: a degree heap and
//! alive and removal-order arrays per greedy peel, smart-initialisation order
//! vectors per NewSEA sweep, and `FxHashMap`-backed embeddings per SEACD shrink,
//! expansion and refinement stage.  For a one-off batch mine that is noise; for the
//! steady-state paths — the streaming monitor's cadence re-mines, the top-k
//! driver's per-round solves, the α-sweep's grid points, the mining server's
//! back-to-back jobs — it is the dominant allocation source.
//!
//! A [`SolverWorkspace`] owns all of that scratch state once.  It is carried as a
//! [`SharedWorkspace`] (an `Arc<Mutex<_>>`) inside the [`crate::engine::SolveContext`],
//! so every `solve_bounded(graph, seed, cx)` entry and every layer that already
//! threads a context through — drivers, the server's job pool, the CLI — gets buffer
//! reuse for free.  Solvers lock the workspace for the duration of
//! one solve; a context without a workspace simply builds a transient one (exactly
//! the pre-workspace behaviour).
//!
//! Locking discipline: **only leaf solvers lock** (DCSGreedy and NewSEA), plus the
//! drivers' report step after a solve has returned.  Drivers (top-k, α-sweep,
//! streaming) never hold the lock across a solver call, so the mutex is uncontended
//! and never re-entered.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use dcs_densest::PeelWorkspace;
use dcs_graph::{VertexId, VertexSubset, Weight};

use crate::dcsga::DcsgaScratch;

/// The reusable scratch state of one solver thread.
///
/// All fields are buffers: their *contents* carry no meaning between solves, only
/// their capacity.  Reusing a workspace therefore never changes results — property
/// tests assert workspace-reusing solves are identical to fresh-workspace solves.
#[derive(Debug)]
pub struct SolverWorkspace {
    /// Greedy-peel scratch (indexed degree heap, alive flags, removal order).
    pub peel: PeelWorkspace,
    /// NewSEA smart-initialisation order `(vertex, µ_u)`, sorted descending.
    pub init_order: Vec<(VertexId, Weight)>,
    /// Per-vertex maximum incident edge weight (NewSEA's `w_u` bound input).
    pub max_incident: Vec<Weight>,
    /// Membership scratch for candidate evaluation and report metrics.
    pub marks: VertexSubset,
    /// Visited scratch of the connectivity checks.
    pub visited: VertexSubset,
    /// Traversal stack of the connectivity checks.
    pub stack: Vec<VertexId>,
    /// Dense DCSGA scratch: the embedding arena of the SEACD / refinement / NewSEA
    /// kernels, their list buffers, and the core-number scratch of the `µ_u` bound.
    pub dcsga: DcsgaScratch,
}

impl Default for SolverWorkspace {
    fn default() -> Self {
        SolverWorkspace {
            peel: PeelWorkspace::new(),
            init_order: Vec::new(),
            max_incident: Vec::new(),
            marks: VertexSubset::new(0),
            visited: VertexSubset::new(0),
            stack: Vec::new(),
            dcsga: DcsgaScratch::default(),
        }
    }
}

impl SolverWorkspace {
    /// A fresh workspace; buffers grow on first use.
    pub fn new() -> Self {
        SolverWorkspace::default()
    }
}

/// A cloneable handle to a [`SolverWorkspace`] shared between solves (and, in the
/// mining server, owned by one worker thread across jobs).
///
/// Cloning is an `Arc` bump; all clones lock the same workspace.  Lock poisoning is
/// ignored (the buffers carry no cross-solve invariants, so a solve that panicked
/// mid-way leaves nothing to protect).
#[derive(Clone, Default)]
pub struct SharedWorkspace {
    inner: Arc<Mutex<SolverWorkspace>>,
}

impl SharedWorkspace {
    /// A handle to a fresh workspace.
    pub fn new() -> Self {
        SharedWorkspace::default()
    }

    /// Locks the workspace for one solve.
    pub fn lock(&self) -> MutexGuard<'_, SolverWorkspace> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl std::fmt::Debug for SharedWorkspace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedWorkspace").finish_non_exhaustive()
    }
}

/// Either a lock on a shared workspace or a transient owned one — what a leaf solver
/// gets from [`crate::engine::SolveContext::workspace`].
pub enum WorkspaceGuard<'a> {
    /// A locked shared workspace (buffer reuse across solves).
    Shared(MutexGuard<'a, SolverWorkspace>),
    /// A transient workspace built for this solve only (no context workspace).
    Owned(Box<SolverWorkspace>),
}

impl std::ops::Deref for WorkspaceGuard<'_> {
    type Target = SolverWorkspace;
    fn deref(&self) -> &SolverWorkspace {
        match self {
            WorkspaceGuard::Shared(guard) => guard,
            WorkspaceGuard::Owned(ws) => ws,
        }
    }
}

impl std::ops::DerefMut for WorkspaceGuard<'_> {
    fn deref_mut(&mut self) -> &mut SolverWorkspace {
        match self {
            WorkspaceGuard::Shared(guard) => guard,
            WorkspaceGuard::Owned(ws) => ws,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_workspace_is_cloneable_and_lockable() {
        let shared = SharedWorkspace::new();
        let clone = shared.clone();
        {
            let mut ws = shared.lock();
            ws.max_incident.push(1.5);
        }
        assert_eq!(clone.lock().max_incident, vec![1.5]);
        assert!(format!("{shared:?}").contains("SharedWorkspace"));
    }

    #[test]
    fn guard_derefs_to_workspace() {
        let shared = SharedWorkspace::new();
        let mut guard = WorkspaceGuard::Shared(shared.lock());
        guard.init_order.push((3, 0.5));
        assert_eq!(guard.init_order.len(), 1);
        let mut owned = WorkspaceGuard::Owned(Box::default());
        owned.init_order.push((1, 1.0));
        assert_eq!(owned.init_order.len(), 1);
    }
}
