//! Named mining sessions and the registry that owns them.
//!
//! The registry is one `RwLock`-protected map from session name to session:
//! lookups (every request on a session) take the read lock, which readers
//! share, and only create and drop take the write lock.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

use dcs_core::{BatchOutcome, StreamingConfig, StreamingDcs};
use dcs_graph::{GraphBuilder, SignedGraph, VertexId, Weight};

use crate::cache::ResultCache;
use crate::durable::{CheckpointState, DurableSession};
use crate::error::ServerError;

/// Admission counters for one session's pooled (cadence) observes.
///
/// The mailbox bounds how many observe batches a session may have queued in
/// the worker pool at once: a flood of observes against one session sheds
/// with `overloaded` instead of monopolizing the shared job queue.  Counters
/// are plain atomics — entering and leaving the mailbox is on the observe
/// hot path.
#[derive(Debug, Default)]
pub struct ObserveMailbox {
    pending: AtomicUsize,
    high_water: AtomicUsize,
    shed: AtomicU64,
}

impl ObserveMailbox {
    /// Tries to reserve a mailbox slot.  Returns `false` (and counts a shed)
    /// when `capacity` observes are already pending for this session.
    pub fn try_enter(&self, capacity: usize) -> bool {
        let mut pending = self.pending.load(Ordering::Relaxed);
        loop {
            if pending >= capacity {
                self.shed.fetch_add(1, Ordering::Relaxed);
                return false;
            }
            match self.pending.compare_exchange_weak(
                pending,
                pending + 1,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    self.high_water.fetch_max(pending + 1, Ordering::Relaxed);
                    return true;
                }
                Err(seen) => pending = seen,
            }
        }
    }

    /// Releases a slot reserved by [`ObserveMailbox::try_enter`] (called from
    /// the job's completion, whether it succeeded or errored).
    pub fn exit(&self) {
        self.pending.fetch_sub(1, Ordering::AcqRel);
    }

    /// Observe batches currently queued.
    pub fn pending(&self) -> usize {
        self.pending.load(Ordering::Relaxed)
    }

    /// Highest queue depth seen since the session was created.
    pub fn high_water(&self) -> usize {
        self.high_water.load(Ordering::Relaxed)
    }

    /// Observe batches refused because the mailbox was full.
    pub fn shed(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }
}

/// One monitored baseline/observed graph pair plus its result cache.
#[derive(Debug)]
pub struct Session {
    monitor: StreamingDcs,
    cache: ResultCache,
    /// Admission counters for pooled observes.  Shared (`Arc`) so the wire
    /// layer can enter/exit the mailbox without holding the session mutex.
    mailbox: Arc<ObserveMailbox>,
    /// Added to the monitor's per-observation counter so the session version
    /// stays **monotone across baseline reloads** (the rebuilt monitor starts
    /// again at 0).  Without this, a mining job snapshotted before a
    /// `load_baseline` could match versions with the fresh graph and poison
    /// the result cache.
    version_base: u64,
    /// How the current baseline entered the session: `"memory"` (built from
    /// protocol edge lists) or `"pack"` (opened from a graph-pack file).
    backing: &'static str,
    /// Wall time of the pack open + decode, when `backing == "pack"`.
    pack_open_ms: Option<f64>,
    /// The durable half, for sessions created with `"durable": true`:
    /// write-ahead log plus checkpoint directory.  `None` for ephemeral
    /// sessions — the observe hot path pays nothing for durability it did
    /// not ask for.
    durable: Option<DurableSession>,
}

/// A snapshot of a session's counters (the `stats` command).
#[derive(Debug, Clone, PartialEq)]
pub struct SessionStats {
    /// Number of vertices of the monitored pair.
    pub vertices: usize,
    /// Observations applied so far.
    pub observations: usize,
    /// Current graph version.
    pub version: u64,
    /// Edges currently present in the observed graph.
    pub observed_edges: usize,
    /// Edges of the baseline graph.
    pub baseline_edges: usize,
    /// Live cache entries.
    pub cache_entries: usize,
    /// Cache hits so far.
    pub cache_hits: u64,
    /// Cache misses so far.
    pub cache_misses: u64,
    /// Cache entries removed by capacity pressure so far.
    pub cache_evictions: u64,
    /// How the current baseline is backed: `"memory"` or `"pack"`.
    pub backing: &'static str,
    /// Wall time spent opening + decoding the pack, for pack-backed sessions.
    pub pack_open_ms: Option<f64>,
    /// Whether the session writes a WAL and checkpoints (survives restarts).
    pub durable: bool,
}

impl Session {
    /// Creates a session over an empty baseline with `vertices` vertices.
    pub fn new(vertices: usize, config: StreamingConfig) -> Result<Self, ServerError> {
        let monitor = StreamingDcs::new(SignedGraph::empty(vertices), config)?;
        Ok(Session {
            monitor,
            cache: ResultCache::new(),
            mailbox: Arc::new(ObserveMailbox::default()),
            version_base: 0,
            backing: "memory",
            pack_open_ms: None,
            durable: None,
        })
    }

    /// Creates a session whose baseline is a graph pack opened (memory-mapped
    /// when the platform allows) from `path` — no edge-list upload, no
    /// `GraphBuilder` pass: the pack's CSR arrays *are* the baseline snapshot.
    ///
    /// `max_vertices` guards the server the same way `create_session` does
    /// for explicit vertex counts; the check runs against the pack header
    /// before the graph is decoded.
    pub fn from_pack(
        path: &str,
        config: StreamingConfig,
        max_vertices: usize,
    ) -> Result<Self, ServerError> {
        let start = std::time::Instant::now();
        let pack = dcs_graph::GraphPack::open(path)?;
        if pack.vertices() == 0 || pack.vertices() > max_vertices {
            return Err(ServerError::BadRequest(format!(
                "pack has {} vertices, accepted range is 1..={max_vertices}",
                pack.vertices()
            )));
        }
        let baseline = pack.to_graph().map_err(ServerError::Pack)?;
        let monitor = StreamingDcs::new(baseline, config)?;
        Ok(Session {
            monitor,
            cache: ResultCache::new(),
            mailbox: Arc::new(ObserveMailbox::default()),
            version_base: 0,
            backing: "pack",
            pack_open_ms: Some(start.elapsed().as_secs_f64() * 1e3),
            durable: None,
        })
    }

    /// Rebuilds a session from recovered state (see [`crate::durable`]): the
    /// monitor already holds the checkpointed + replayed observations.
    pub(crate) fn from_recovered(
        monitor: StreamingDcs,
        version_base: u64,
        backing: &'static str,
        pack_open_ms: Option<f64>,
        durable: DurableSession,
    ) -> Self {
        Session {
            monitor,
            cache: ResultCache::new(),
            mailbox: Arc::new(ObserveMailbox::default()),
            version_base,
            backing,
            pack_open_ms,
            durable: Some(durable),
        }
    }

    /// Attaches the durable half to a freshly created session (see
    /// [`crate::durable::make_durable`]).
    pub(crate) fn attach_durable(&mut self, durable: DurableSession) {
        self.durable = Some(durable);
    }

    /// Detaches and returns the durable half (used when dropping a durable
    /// session so its directory can be removed after the registry forgets it).
    pub(crate) fn take_durable(&mut self) -> Option<DurableSession> {
        self.durable.take()
    }

    /// Fault injection for the crash-recovery tests: after `limit` total WAL
    /// bytes, the next append tears (writes a prefix and fails).  No effect
    /// on ephemeral sessions.
    #[doc(hidden)]
    pub fn wal_fault_after_bytes(&mut self, limit: Option<u64>) {
        if let Some(durable) = &mut self.durable {
            durable.set_fault_after(limit);
        }
    }

    /// Flushes group-committed WAL bytes and, when the live segment has
    /// accumulated `checkpoint_every` records (0 disables the trigger),
    /// writes a checkpoint.  Called by the server's durability thread on the
    /// group-commit interval; a no-op for ephemeral sessions.
    pub(crate) fn durable_tick(&mut self, checkpoint_every: u64) -> Result<(), ServerError> {
        let due = match &mut self.durable {
            None => return Ok(()),
            Some(durable) => {
                durable.flush()?;
                checkpoint_every > 0 && durable.wal_records() >= checkpoint_every
            }
        };
        if due {
            self.checkpoint()?;
        }
        Ok(())
    }

    /// Writes a checkpoint now: the observed graph's snapshot as a pack with
    /// a session-metadata section, then rotates the WAL.  Returns `false`
    /// (without touching the disk) for ephemeral sessions.
    pub fn checkpoint(&mut self) -> Result<bool, ServerError> {
        let Some(durable) = &mut self.durable else {
            return Ok(false);
        };
        let state = CheckpointState {
            monitor_version: self.monitor.version(),
            version_base: self.version_base,
            observations: self.monitor.observations(),
            updates_since_mine: self.monitor.updates_since_mine(),
            last_support: self.monitor.last_support().map(|s| s.to_vec()),
            observed: self.monitor.observed_graph(),
            config: *self.monitor.config(),
            cache_keys: self.cache.keys(),
        };
        durable.checkpoint(&state)?;
        Ok(true)
    }

    /// Replaces the baseline graph, resetting observations and clearing the
    /// cache.  The session version **advances** (never resets), so results
    /// computed against the old baseline can never be mistaken for current.
    pub fn load_baseline(
        &mut self,
        edges: &[(VertexId, VertexId, Weight)],
    ) -> Result<usize, ServerError> {
        let vertices = self.monitor.num_vertices();
        let mut builder = GraphBuilder::new(vertices);
        for &(u, v, w) in edges {
            if u != v && (u as usize) < vertices && (v as usize) < vertices {
                builder.add_edge(u, v, w);
            }
        }
        let baseline = builder.build();
        let loaded = baseline.num_edges();
        let next_base = self.version() + 1;
        self.monitor = StreamingDcs::new(baseline, *self.monitor.config())?;
        self.version_base = next_base;
        self.cache.clear();
        // The pack file no longer backs the live baseline.
        self.backing = "memory";
        self.pack_open_ms = None;
        if let Some(durable) = &mut self.durable {
            durable.log_baseline(next_base, self.monitor.baseline())?;
        }
        Ok(loaded)
    }

    /// Applies a batch of observations.  For durable sessions the accepted
    /// batch is appended to the WAL before the outcome is returned — an
    /// errored observe is **not** acknowledged and recovery is not required
    /// to reproduce it.  Batches that apply nothing leave the version (and
    /// the WAL) untouched.
    pub fn observe(
        &mut self,
        updates: &[(VertexId, VertexId, Weight)],
    ) -> Result<BatchOutcome, ServerError> {
        if let Some(durable) = &self.durable {
            if durable.is_poisoned() {
                return Err(ServerError::Io(std::io::Error::other(
                    "session WAL previously failed; the session is read-only until recovered",
                )));
            }
        }
        let outcome = self.monitor.apply_batch(updates.iter().copied());
        if outcome.applied > 0 {
            if let Some(durable) = &mut self.durable {
                let version = self.version_base + self.monitor.version();
                durable.append_observe(version, updates)?;
            }
        }
        Ok(outcome)
    }

    /// The session's graph version: monotone over both observations and
    /// baseline reloads.  This is the version mining results are cached
    /// under.
    pub fn version(&self) -> u64 {
        self.version_base + self.monitor.version()
    }

    /// The streaming monitor (mining snapshots, version, config).
    pub fn monitor(&self) -> &StreamingDcs {
        &self.monitor
    }

    /// Mutable access to the streaming monitor.  Mining jobs need this to take
    /// difference snapshots: the snapshot cache lives inside the monitor's
    /// delta engine, so snapshotting an unchanged session is a pointer-equal
    /// `Arc` clone rather than a rebuild.
    pub fn monitor_mut(&mut self) -> &mut StreamingDcs {
        &mut self.monitor
    }

    /// The session's result cache.
    pub fn cache_mut(&mut self) -> &mut ResultCache {
        &mut self.cache
    }

    /// The session's observe-admission mailbox.
    pub fn mailbox(&self) -> &Arc<ObserveMailbox> {
        &self.mailbox
    }

    /// Counter snapshot for the `stats` command.
    pub fn stats(&self) -> SessionStats {
        SessionStats {
            vertices: self.monitor.num_vertices(),
            observations: self.monitor.observations(),
            version: self.version(),
            observed_edges: self.monitor.observed_edge_count(),
            baseline_edges: self.monitor.baseline().num_edges(),
            cache_entries: self.cache.len(),
            cache_hits: self.cache.hits(),
            cache_misses: self.cache.misses(),
            cache_evictions: self.cache.evictions(),
            backing: self.backing,
            pack_open_ms: self.pack_open_ms,
            durable: self.durable.is_some(),
        }
    }
}

/// A shared handle to one session.
pub type SharedSession = Arc<Mutex<Session>>;

/// Thread-safe registry of named sessions.
#[derive(Debug, Default)]
pub struct SessionRegistry {
    sessions: RwLock<BTreeMap<String, SharedSession>>,
}

impl SessionRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        SessionRegistry::default()
    }

    fn read(&self) -> RwLockReadGuard<'_, BTreeMap<String, SharedSession>> {
        self.sessions.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn write(&self) -> RwLockWriteGuard<'_, BTreeMap<String, SharedSession>> {
        self.sessions
            .write()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Registers a built session under `name`; fails if the name is taken.
    pub(crate) fn insert(&self, name: &str, session: Session) -> Result<(), ServerError> {
        let mut sessions = self.write();
        if sessions.contains_key(name) {
            return Err(ServerError::SessionExists(name.to_string()));
        }
        sessions.insert(name.to_string(), Arc::new(Mutex::new(session)));
        Ok(())
    }

    /// Looks up a session by name.
    pub fn get(&self, name: &str) -> Result<SharedSession, ServerError> {
        self.read()
            .get(name)
            .cloned()
            .ok_or_else(|| ServerError::UnknownSession(name.to_string()))
    }

    /// Removes a session by name.
    pub fn drop_session(&self, name: &str) -> Result<(), ServerError> {
        self.write()
            .remove(name)
            .map(|_| ())
            .ok_or_else(|| ServerError::UnknownSession(name.to_string()))
    }

    /// The session names, sorted.
    pub fn names(&self) -> Vec<String> {
        self.read().keys().cloned().collect()
    }

    /// Handles to every live session, sorted by name.  Used by the server-wide
    /// `stats` surface to aggregate per-session counters; callers lock each
    /// session briefly, never while holding the registry lock.
    pub fn sessions(&self) -> Vec<(String, SharedSession)> {
        self.read()
            .iter()
            .map(|(name, session)| (name.clone(), Arc::clone(session)))
            .collect()
    }

    /// Number of live sessions.
    pub fn len(&self) -> usize {
        self.read().len()
    }

    /// Whether the registry has no sessions.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcs_core::DensityMeasure;

    fn config() -> StreamingConfig {
        StreamingConfig {
            remine_every: 0,
            alert_threshold: 0.5,
            measure: DensityMeasure::GraphAffinity,
        }
    }

    #[test]
    fn registry_create_get_drop() {
        let registry = SessionRegistry::new();
        assert!(registry.is_empty());
        let session = |vertices| Session::new(vertices, config()).unwrap();
        registry.insert("a", session(10)).unwrap();
        registry.insert("b", session(5)).unwrap();
        assert!(matches!(
            registry.insert("a", session(3)),
            Err(ServerError::SessionExists(_))
        ));
        assert_eq!(registry.names(), vec!["a".to_string(), "b".to_string()]);
        assert_eq!(registry.len(), 2);
        registry.get("a").unwrap();
        assert!(matches!(
            registry.get("zzz"),
            Err(ServerError::UnknownSession(_))
        ));
        registry.drop_session("a").unwrap();
        assert!(matches!(
            registry.drop_session("a"),
            Err(ServerError::UnknownSession(_))
        ));
        assert_eq!(registry.len(), 1);
        assert_eq!(registry.sessions().len(), 1);
    }

    #[test]
    fn session_lifecycle_and_stats() {
        let mut session = Session::new(6, config()).unwrap();
        let loaded = session
            .load_baseline(&[(0, 1, 1.0), (2, 3, 2.0), (4, 4, 9.0), (0, 99, 1.0)])
            .unwrap();
        assert_eq!(loaded, 2); // self-loop and out-of-range edges are dropped

        let outcome = session
            .observe(&[(0, 1, 3.0), (1, 2, 2.0), (7, 8, 1.0)])
            .unwrap();
        assert_eq!(outcome.applied, 2);
        assert_eq!(outcome.ignored, 1);

        let stats = session.stats();
        assert_eq!(stats.vertices, 6);
        assert_eq!(stats.observations, 2);
        // Baseline load advanced the version to 1; two observations on top.
        assert_eq!(stats.version, 3);
        assert_eq!(stats.observed_edges, 2);
        assert_eq!(stats.baseline_edges, 2);
        assert_eq!(stats.cache_entries, 0);
    }

    #[test]
    fn pack_backed_sessions_report_their_backing() {
        let path = std::env::temp_dir().join(format!(
            "dcs_server_session_pack_{}.pack",
            std::process::id()
        ));
        let g = dcs_graph::GraphBuilder::from_edges(6, vec![(0, 1, 2.0), (2, 3, 1.0)]);
        dcs_graph::PackWriter::write_graph(&g, &path).unwrap();

        let mut session = Session::from_pack(path.to_str().unwrap(), config(), 1_000).unwrap();
        let stats = session.stats();
        assert_eq!(stats.backing, "pack");
        assert_eq!(stats.vertices, 6);
        assert_eq!(stats.baseline_edges, 2);
        assert!(stats.pack_open_ms.is_some());

        // The pack graph is the baseline snapshot: observations diff against it.
        let outcome = session.observe(&[(0, 1, 5.0)]).unwrap();
        assert_eq!(outcome.applied, 1);

        // Replacing the baseline from the protocol drops the pack backing.
        session.load_baseline(&[(0, 1, 1.0)]).unwrap();
        let stats = session.stats();
        assert_eq!(stats.backing, "memory");
        assert!(stats.pack_open_ms.is_none());

        // Vertex-count guard reads the header.
        assert!(matches!(
            Session::from_pack(path.to_str().unwrap(), config(), 3),
            Err(ServerError::BadRequest(_))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn snapshots_at_an_unchanged_version_share_one_graph() {
        let mut session = Session::new(8, config()).unwrap();
        session.load_baseline(&[(0, 1, 1.0), (2, 3, 2.0)]).unwrap();
        session.observe(&[(0, 1, 3.0), (4, 5, 1.0)]).unwrap();
        // Two jobs snapshotting the same version receive the same Arc — the
        // serving layer never materialises a graph copy per job.
        let first = session.monitor_mut().difference_snapshot();
        let second = session.monitor_mut().difference_snapshot();
        assert!(Arc::ptr_eq(&first, &second));
        // An applied observation moves the version and the snapshot.
        session.observe(&[(4, 5, 1.0)]).unwrap();
        let third = session.monitor_mut().difference_snapshot();
        assert!(!Arc::ptr_eq(&first, &third));
        // An ignored batch (no-ops only) does not.
        let outcome = session.observe(&[(4, 5, 0.0), (6, 6, 1.0)]).unwrap();
        assert_eq!(outcome.applied, 0);
        assert_eq!(outcome.ignored, 2);
        assert!(Arc::ptr_eq(
            &third,
            &session.monitor_mut().difference_snapshot()
        ));
    }

    #[test]
    fn observe_mailbox_bounds_and_counts() {
        let mailbox = ObserveMailbox::default();
        assert!(mailbox.try_enter(2));
        assert!(mailbox.try_enter(2));
        assert!(!mailbox.try_enter(2), "third entry exceeds capacity");
        assert_eq!(mailbox.pending(), 2);
        assert_eq!(mailbox.high_water(), 2);
        assert_eq!(mailbox.shed(), 1);
        mailbox.exit();
        assert!(mailbox.try_enter(2), "slot frees on exit");
        mailbox.exit();
        mailbox.exit();
        assert_eq!(mailbox.pending(), 0);
        assert_eq!(mailbox.high_water(), 2, "high water is sticky");
    }

    #[test]
    fn load_baseline_advances_version_and_clears_cache() {
        let mut session = Session::new(4, config()).unwrap();
        session.observe(&[(0, 1, 2.0)]).unwrap();
        session.cache_mut().store(
            "mine|affinity".into(),
            1,
            serde_json::json!({"stale": true}),
        );
        assert_eq!(session.version(), 1);
        session.load_baseline(&[(0, 1, 1.0)]).unwrap();
        // Monotone across the reload: a job snapshotted at version 1 can
        // never collide with the fresh graph's version.
        assert_eq!(session.version(), 2);
        assert!(session.cache_mut().lookup("mine|affinity", 1).is_none());
        assert!(session.cache_mut().lookup("mine|affinity", 2).is_none());
        assert_eq!(session.monitor().observations(), 0);
        // Another reload keeps advancing.
        session.load_baseline(&[]).unwrap();
        assert_eq!(session.version(), 3);
        session.observe(&[(0, 1, 1.0)]).unwrap();
        assert_eq!(session.version(), 4);
    }
}
