//! The solver phase tracer: span-style begin/end events in bounded
//! per-thread ring buffers, exportable as a JSON timeline.
//!
//! ## Design
//!
//! * **Off by default, one branch when off.**  Every instrumentation site
//!   calls [`span`], which loads one relaxed [`AtomicBool`] and returns an
//!   inert guard when tracing is disabled.  Phases are coarse (a whole peel,
//!   a whole µ_u sweep, one snapshot rebuild) so the disabled cost is a
//!   branch per *phase*, invisible next to the phase's own work.
//! * **Bounded per-thread rings.**  Each recording thread owns a ring of
//!   [`RING_CAPACITY`] events behind its own (uncontended) mutex; when full,
//!   the oldest events are overwritten and counted as dropped.  Tracing can
//!   therefore stay on indefinitely without growing memory.
//! * **Global drain.**  [`take_timeline`] collects and removes the events of
//!   every thread that ever recorded (including threads that have already
//!   exited — their rings are kept alive by the collector registry), sorted
//!   by start time.
//!
//! Timestamps are microseconds since tracing was first enabled in this
//! process, so events from different threads share one clock.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// Events per thread-local ring buffer.
pub const RING_CAPACITY: usize = 4096;

/// A solver (or serving) phase a span can cover.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum Phase {
    /// Greedy peeling of one solve (units: vertices removed).
    Peel,
    /// One SEACD 2-coordinate-descent shrink stage (units: CD iterations).
    CdShrink,
    /// One SEA expansion step (units: candidate vertices absorbed).
    CdExpand,
    /// The NewSEA µ_u-ordered initialisation sweep (units: initialisations run).
    MuSweep,
    /// Algorithm-4 refinement of a DCSGA iterate.
    Refine,
    /// Merging the delta engine's changes into a versioned CSR snapshot
    /// (units: changed edges).
    SnapshotRebuild,
    /// A mining job waiting in the server's bounded queue.
    QueueWait,
    /// Building the difference graph `G_D` from a graph pair (units: `G_D`
    /// adjacency entries written).
    DiffBuild,
    /// NewSEA's Theorem-6 bound: core numbers, `µ_u` and their order (units:
    /// vertices ordered).
    MuBound,
    /// Parsing one numeric or labelled edge-list text into a graph, CSR build
    /// included (units: edge lines read).
    Parse,
}

impl Phase {
    /// Stable lowercase token used in the JSON timeline.
    pub fn as_str(self) -> &'static str {
        match self {
            Phase::Peel => "peel",
            Phase::CdShrink => "cd_shrink",
            Phase::CdExpand => "cd_expand",
            Phase::MuSweep => "mu_sweep",
            Phase::Refine => "refine",
            Phase::SnapshotRebuild => "snapshot_rebuild",
            Phase::QueueWait => "queue_wait",
            Phase::DiffBuild => "diff_build",
            Phase::MuBound => "mu_bound",
            Phase::Parse => "parse",
        }
    }
}

impl std::fmt::Display for Phase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// The phase the span covered.
    pub phase: Phase,
    /// Microseconds since the tracer's process-wide epoch at span begin.
    pub start_us: u64,
    /// Span duration in microseconds.
    pub duration_us: u64,
    /// Phase-specific work units (vertices removed, CD iterations, …).
    pub units: u64,
    /// Dense id of the recording thread (assigned on first record).
    pub thread: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns tracing on or off globally.  Spans opened while disabled record
/// nothing even if tracing is enabled before they close.
///
/// Enabling pins the timeline's epoch (once per process), so the first span
/// starts after it.
pub fn set_enabled(enabled: bool) {
    if enabled {
        epoch();
    }
    ENABLED.store(enabled, Ordering::Relaxed);
}

/// Whether tracing is currently enabled.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn micros_since_epoch(at: Instant) -> u64 {
    u64::try_from(at.saturating_duration_since(epoch()).as_micros()).unwrap_or(u64::MAX)
}

/// A bounded event ring: overwrites the oldest events when full.
#[derive(Debug)]
struct Ring {
    events: Vec<TraceEvent>,
    /// Index the next event will be written to once `events` has reached
    /// capacity (classic circular buffer head).
    head: usize,
    dropped: u64,
}

impl Ring {
    fn new() -> Self {
        Ring {
            events: Vec::new(),
            head: 0,
            dropped: 0,
        }
    }

    fn push(&mut self, event: TraceEvent) {
        if self.events.len() < RING_CAPACITY {
            self.events.push(event);
        } else {
            self.events[self.head] = event;
            self.head = (self.head + 1) % RING_CAPACITY;
            self.dropped += 1;
        }
    }

    fn drain(&mut self) -> (Vec<TraceEvent>, u64) {
        // Restore chronological order: the slice [head..] is older than [..head].
        let mut events = Vec::with_capacity(self.events.len());
        events.extend_from_slice(&self.events[self.head..]);
        events.extend_from_slice(&self.events[..self.head]);
        self.events.clear();
        self.head = 0;
        let dropped = std::mem::take(&mut self.dropped);
        (events, dropped)
    }
}

type SharedRing = Arc<Mutex<Ring>>;

/// Every ring ever created, so the timeline survives thread exit (short-lived
/// parallel sweep workers record spans too).
fn collectors() -> &'static Mutex<Vec<SharedRing>> {
    static COLLECTORS: OnceLock<Mutex<Vec<SharedRing>>> = OnceLock::new();
    COLLECTORS.get_or_init(|| Mutex::new(Vec::new()))
}

fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

thread_local! {
    static LOCAL_RING: (SharedRing, u64) = {
        static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);
        let ring: SharedRing = Arc::new(Mutex::new(Ring::new()));
        lock(collectors()).push(Arc::clone(&ring));
        (ring, NEXT_THREAD.fetch_add(1, Ordering::Relaxed))
    };
}

fn push_event(phase: Phase, start_us: u64, duration_us: u64, units: u64) {
    LOCAL_RING.with(|(ring, thread)| {
        lock(ring).push(TraceEvent {
            phase,
            start_us,
            duration_us,
            units,
            thread: *thread,
        });
    });
}

/// An open span; records a [`TraceEvent`] when dropped.  Inert (zero work on
/// drop, no timestamps taken) when tracing was disabled at [`span`] time.
#[derive(Debug)]
pub struct Span {
    active: Option<ActiveSpan>,
}

#[derive(Debug)]
struct ActiveSpan {
    phase: Phase,
    started: Instant,
    units: u64,
}

impl Span {
    /// Overwrites the span's work-unit annotation.
    pub fn set_units(&mut self, units: u64) {
        if let Some(active) = &mut self.active {
            active.units = units;
        }
    }

    /// Adds to the span's work-unit annotation.
    pub fn add_units(&mut self, units: u64) {
        if let Some(active) = &mut self.active {
            active.units += units;
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(active) = self.active.take() {
            let duration = active.started.elapsed();
            push_event(
                active.phase,
                micros_since_epoch(active.started),
                u64::try_from(duration.as_micros()).unwrap_or(u64::MAX),
                active.units,
            );
        }
    }
}

/// Opens a span for `phase`.  When tracing is disabled this is one relaxed
/// atomic load and returns an inert guard.
pub fn span(phase: Phase) -> Span {
    Span {
        active: enabled().then(|| ActiveSpan {
            phase,
            started: Instant::now(),
            units: 0,
        }),
    }
}

/// Records a span whose begin and end were observed explicitly — for phases
/// that cross threads, like a job's queue wait (enqueued on the connection
/// thread, dequeued on a worker).  The event lands in the **calling** thread's
/// ring.  No-op while tracing is disabled.
pub fn record(phase: Phase, started: Instant, duration: Duration, units: u64) {
    if !enabled() {
        return;
    }
    push_event(
        phase,
        micros_since_epoch(started),
        u64::try_from(duration.as_micros()).unwrap_or(u64::MAX),
        units,
    );
}

/// Drains every thread's ring into one timeline sorted by start time, and the
/// total number of events lost to ring overflow since the last drain.
pub fn take_timeline_with_drops() -> (Vec<TraceEvent>, u64) {
    let rings: Vec<SharedRing> = lock(collectors()).iter().map(Arc::clone).collect();
    let mut events = Vec::new();
    let mut dropped = 0u64;
    for ring in rings {
        let (mut drained, lost) = lock(&ring).drain();
        events.append(&mut drained);
        dropped += lost;
    }
    events.sort_by_key(|event| event.start_us);
    (events, dropped)
}

/// [`take_timeline_with_drops`] without the drop count.
pub fn take_timeline() -> Vec<TraceEvent> {
    take_timeline_with_drops().0
}

/// Discards all recorded events (a `take_timeline` whose result is dropped).
pub fn clear() {
    let _ = take_timeline_with_drops();
}

/// Renders a timeline as a JSON document:
/// `{"events": [{"phase", "thread", "start_us", "duration_us", "units"}, …],
///   "dropped": n}`.
///
/// Hand-rolled (phase tokens are static and numbers need no escaping) so the
/// tracer stays dependency-free.
pub fn timeline_json(events: &[TraceEvent], dropped: u64) -> String {
    let mut out = String::with_capacity(64 + events.len() * 96);
    out.push_str("{\"events\":[");
    for (index, event) in events.iter().enumerate() {
        if index > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"phase\":\"{}\",\"thread\":{},\"start_us\":{},\"duration_us\":{},\"units\":{}}}",
            event.phase.as_str(),
            event.thread,
            event.start_us,
            event.duration_us,
            event.units
        ));
    }
    out.push_str(&format!("],\"dropped\":{dropped}}}"));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // Tracing is process-global state; the tests below run under one lock so
    // parallel test threads never observe each other's enable/drain cycles.
    fn tracing_test_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _guard = tracing_test_lock();
        set_enabled(false);
        clear();
        {
            let mut span = span(Phase::Peel);
            span.set_units(10);
        }
        record(
            Phase::QueueWait,
            Instant::now(),
            Duration::from_millis(1),
            0,
        );
        assert!(take_timeline().is_empty());
    }

    #[test]
    fn spans_record_phases_units_and_order() {
        let _guard = tracing_test_lock();
        set_enabled(true);
        clear();
        {
            let mut outer = span(Phase::MuSweep);
            outer.add_units(2);
            outer.add_units(3);
            let _inner = span(Phase::CdShrink);
        }
        record(
            Phase::QueueWait,
            Instant::now(),
            Duration::from_micros(250),
            1,
        );
        set_enabled(false);
        let events = take_timeline();
        assert_eq!(events.len(), 3);
        let sweep = events.iter().find(|e| e.phase == Phase::MuSweep).unwrap();
        assert_eq!(sweep.units, 5);
        let shrink = events.iter().find(|e| e.phase == Phase::CdShrink).unwrap();
        let wait = events.iter().find(|e| e.phase == Phase::QueueWait).unwrap();
        assert_eq!(wait.duration_us, 250);
        // The inner span opened after and closed before the outer: it nests.
        assert!(shrink.start_us >= sweep.start_us);
        assert!(sweep.duration_us >= shrink.duration_us);
        // Drained means drained.
        assert!(take_timeline().is_empty());
    }

    #[test]
    fn cross_thread_events_share_the_timeline() {
        let _guard = tracing_test_lock();
        set_enabled(true);
        clear();
        let worker = std::thread::spawn(|| {
            let _span = span(Phase::SnapshotRebuild);
        });
        worker.join().unwrap();
        let _local = span(Phase::Peel);
        drop(_local);
        set_enabled(false);
        let events = take_timeline();
        let phases: Vec<Phase> = events.iter().map(|e| e.phase).collect();
        assert!(phases.contains(&Phase::SnapshotRebuild), "{phases:?}");
        assert!(phases.contains(&Phase::Peel));
        // Two distinct thread ids.
        let rebuild = events
            .iter()
            .find(|e| e.phase == Phase::SnapshotRebuild)
            .unwrap();
        let peel = events.iter().find(|e| e.phase == Phase::Peel).unwrap();
        assert_ne!(rebuild.thread, peel.thread);
    }

    #[test]
    fn ring_overflow_drops_oldest_and_counts() {
        let mut ring = Ring::new();
        for i in 0..(RING_CAPACITY + 10) {
            ring.push(TraceEvent {
                phase: Phase::Peel,
                start_us: i as u64,
                duration_us: 0,
                units: 0,
                thread: 0,
            });
        }
        let (events, dropped) = ring.drain();
        assert_eq!(events.len(), RING_CAPACITY);
        assert_eq!(dropped, 10);
        // Oldest were overwritten: the survivors start at 10 and stay ordered.
        assert_eq!(events[0].start_us, 10);
        assert!(events.windows(2).all(|w| w[0].start_us < w[1].start_us));
    }

    #[test]
    fn timeline_json_is_valid_and_complete() {
        let events = vec![
            TraceEvent {
                phase: Phase::Peel,
                start_us: 5,
                duration_us: 17,
                units: 3,
                thread: 0,
            },
            TraceEvent {
                phase: Phase::QueueWait,
                start_us: 30,
                duration_us: 2,
                units: 0,
                thread: 1,
            },
        ];
        let json = timeline_json(&events, 7);
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"phase\":\"peel\""));
        assert!(json.contains("\"phase\":\"queue_wait\""));
        assert!(json.contains("\"duration_us\":17"));
        assert!(json.contains("\"dropped\":7"));
        assert_eq!(timeline_json(&[], 0), "{\"events\":[],\"dropped\":0}");
    }
}
