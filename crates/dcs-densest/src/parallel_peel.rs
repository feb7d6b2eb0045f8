//! Parallel greedy peeling, **bit-identical** to the sequential peel.
//!
//! The sequential peel of [`crate::charikar`] repeatedly removes the alive
//! vertex minimising the key `(current weighted degree, vertex id)`.  This
//! module reproduces the *exact* removal sequence — and every float operation
//! along the way — while doing the expensive scans on worker threads:
//!
//! 1. **Init** — workers compute the initial weighted degrees of disjoint
//!    vertex ranges.  Ranges are aligned to `DEGREE_CHUNK`-sized chunks and
//!    the total degree is folded from per-chunk partial sums in ascending
//!    chunk order, the same operations the (chunked) sequential init performs.
//! 2. **Scan rounds** — each worker finds the `batch_per_range` smallest keys
//!    of its range plus a *threshold* (the smallest key it had to leave out;
//!    exhausted ranges report none).  The coordinator merges the per-range
//!    batches into one ascending run and sets `bound` = the minimum threshold:
//!    every alive vertex outside the batch has a key `>= bound`.
//! 3. **Commit** — the coordinator replays removals sequentially from the
//!    merged batch plus a *dirty heap*: removing a vertex updates its
//!    neighbours' degrees (invalidating their batch entries by version bump)
//!    and re-inserts any neighbour whose new key drops below `bound`.  Commits
//!    stop when the best candidate's key reaches `bound` — at that point some
//!    unscanned vertex may be smaller, so the round ends and the workers scan
//!    again.  The smallest alive key is always in the batch at round start, so
//!    every round commits at least one removal.
//!
//! Because candidate selection always yields the globally smallest
//! `(degree, vertex)` key and the neighbour updates run in the same CSR row
//! order as the sequential peel, removal order, densities, best prefix and the
//! interruption behaviour of the `stop` callback are all bit-identical — the
//! property the `parallel_peel_properties` suite pins down.
//!
//! Workers are **persistent**: the workspace holds a [`taskcrew::WorkerCrew`]
//! spawned on first parallel peel and reused across every subsequent round
//! *and* every subsequent solve, so a peel round costs one condvar broadcast
//! instead of two thread spawns.  The shared per-vertex state lives in
//! atomics written only while the other side is parked in the crew's round
//! barrier, so this module needs no `unsafe` (the lifetime erasure lives in
//! the `taskcrew` shim).

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering as MemOrd};
use std::sync::Mutex;

use taskcrew::WorkerCrew;

use dcs_graph::{GraphView, SignedGraph, VertexId, Weight};

use crate::charikar::{finish_peel, greedy_peeling_view_into, PeelingResult, DEGREE_CHUNK};
use crate::peel::{key_cmp, PeelWorkspace};

/// Below this many alive vertices the sequential peel wins (thread setup and
/// barrier traffic dominate): [`greedy_peeling_view_auto`] dispatches on it.
pub const PARALLEL_PEEL_THRESHOLD: usize = 4096;

/// Default number of smallest keys each worker range contributes per scan round.
const DEFAULT_BATCH_PER_RANGE: usize = 128;

/// Batch and dirty-heap entry: a `(degree, vertex)` key and the vertex's version
/// counter when the key was taken (a later version marks the entry stale).
#[derive(Debug, Clone, Copy)]
struct Entry {
    degree: Weight,
    vertex: VertexId,
    version: u32,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.degree == other.degree && self.vertex == other.vertex
    }
}
impl Eq for Entry {}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; we want min-degree first, so reverse the comparison.
        key_cmp((other.degree, other.vertex), (self.degree, self.vertex))
    }
}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

#[inline]
fn min_key(
    current: Option<(Weight, VertexId)>,
    candidate: (Weight, VertexId),
) -> Option<(Weight, VertexId)> {
    Some(match current {
        None => candidate,
        Some(best) => {
            if key_cmp(candidate, best) == Ordering::Less {
                candidate
            } else {
                best
            }
        }
    })
}

/// Per-worker state: the vertex range, the scan's bounded key heap and its
/// sorted output, the range threshold, and the init phase's chunk sums.
#[derive(Debug, Default)]
struct RangeSlot {
    start: usize,
    end: usize,
    heap: BinaryHeap<Reverse<Entry>>,
    sorted: Vec<Entry>,
    threshold: Option<(Weight, VertexId)>,
    chunk_sums: Vec<Weight>,
}

/// Reusable scratch state of the parallel peel: shared per-vertex atomics
/// (degree bits, version counters, alive flags), one range slot per worker,
/// and the coordinator's merged batch and dirty heap.
///
/// Like [`PeelWorkspace`], a reused instance performs no steady-state heap
/// allocation; it is the parallel-peel-shaped slice of `dcs_core`'s
/// `SolverWorkspace`.
#[derive(Debug, Default)]
pub struct ParallelPeelWorkspace {
    degree_bits: Vec<AtomicU64>,
    version: Vec<AtomicU32>,
    alive: Vec<AtomicBool>,
    slots: Vec<Mutex<RangeSlot>>,
    batch: Vec<Entry>,
    dirty: BinaryHeap<Entry>,
    batch_per_range: usize,
    /// Persistent workers, spawned on the first parallel peel and reused for
    /// every later round/solve; re-spawned only if the thread count changes.
    crew: Option<WorkerCrew>,
}

impl Clone for ParallelPeelWorkspace {
    /// Cloning scratch state yields a fresh (empty) workspace — the buffers are
    /// per-solve caches, not data.
    fn clone(&self) -> Self {
        ParallelPeelWorkspace {
            batch_per_range: self.batch_per_range,
            ..ParallelPeelWorkspace::default()
        }
    }
}

impl ParallelPeelWorkspace {
    /// An empty workspace (buffers grow on first use).
    pub fn new() -> Self {
        ParallelPeelWorkspace::default()
    }

    /// Overrides how many smallest keys each range contributes per scan round
    /// (`0` restores the default).  Small values force many scan rounds — the
    /// property tests use this to exercise the round protocol on small graphs.
    pub fn set_batch_per_range(&mut self, batch: usize) {
        self.batch_per_range = batch;
    }

    fn effective_batch(&self) -> usize {
        if self.batch_per_range == 0 {
            DEFAULT_BATCH_PER_RANGE
        } else {
            self.batch_per_range
        }
    }

    /// Re-sizes for a universe of `n` vertices split across `threads` ranges,
    /// clearing the alive flags and laying out chunk-aligned ranges.
    fn reset(&mut self, n: usize, threads: usize) {
        if self.degree_bits.len() < n {
            self.degree_bits.resize_with(n, || AtomicU64::new(0));
            self.version.resize_with(n, || AtomicU32::new(0));
            self.alive.resize_with(n, || AtomicBool::new(false));
        }
        for flag in &self.alive[..n] {
            flag.store(false, MemOrd::Relaxed);
        }
        let num_chunks = n.div_ceil(DEGREE_CHUNK);
        let chunks_per = num_chunks.div_ceil(threads).max(1);
        if self.slots.len() != threads {
            self.slots.resize_with(threads, Mutex::default);
        }
        for (t, slot) in self.slots.iter_mut().enumerate() {
            let slot = slot.get_mut().expect("slot poisoned");
            let c0 = (t * chunks_per).min(num_chunks);
            let c1 = ((t + 1) * chunks_per).min(num_chunks);
            slot.start = (c0 * DEGREE_CHUNK).min(n);
            slot.end = (c1 * DEGREE_CHUNK).min(n);
            slot.chunk_sums.clear();
            slot.chunk_sums.resize(c1 - c0, 0.0);
            slot.sorted.clear();
            slot.heap.clear();
            slot.threshold = None;
        }
        self.batch.clear();
        self.dirty.clear();
    }
}

/// Init phase for one range: weighted degrees of the alive vertices (CSR row
/// order, alive-neighbour + sign filtering — the same operations as the
/// sequential init) plus per-chunk partial sums.
fn init_range(
    slot: &mut RangeSlot,
    graph: &SignedGraph,
    positive_only: bool,
    degree_bits: &[AtomicU64],
    version: &[AtomicU32],
    alive: &[AtomicBool],
) {
    for ci in 0..slot.chunk_sums.len() {
        let lo = slot.start + ci * DEGREE_CHUNK;
        let hi = (lo + DEGREE_CHUNK).min(slot.end);
        let mut sum: Weight = 0.0;
        for v in lo..hi {
            if !alive[v].load(MemOrd::Relaxed) {
                continue;
            }
            let (nbrs, nbr_weights) = graph.neighbor_slices(v as VertexId);
            let mut d: Weight = 0.0;
            for (&u, &w) in nbrs.iter().zip(nbr_weights) {
                if (positive_only && w <= 0.0) || !alive[u as usize].load(MemOrd::Relaxed) {
                    continue;
                }
                d += w;
            }
            degree_bits[v].store(d.to_bits(), MemOrd::Relaxed);
            version[v].store(0, MemOrd::Relaxed);
            sum += d;
        }
        slot.chunk_sums[ci] = sum;
    }
}

/// Scan phase for one range: the `batch` smallest `(degree, vertex)` keys of
/// the alive vertices (sorted ascending into `slot.sorted`) and the smallest
/// key left out (`slot.threshold`; `None` when the whole range fit).
fn scan_range(
    slot: &mut RangeSlot,
    batch: usize,
    degree_bits: &[AtomicU64],
    version: &[AtomicU32],
    alive: &[AtomicBool],
) {
    slot.heap.clear();
    slot.threshold = None;
    for v in slot.start..slot.end {
        if !alive[v].load(MemOrd::Relaxed) {
            continue;
        }
        let degree = f64::from_bits(degree_bits[v].load(MemOrd::Relaxed));
        let entry = Entry {
            degree,
            vertex: v as VertexId,
            version: version[v].load(MemOrd::Relaxed),
        };
        if slot.heap.len() < batch {
            slot.heap.push(Reverse(entry));
            continue;
        }
        // `Reverse<Entry>` pops the largest key first, so `peek` is the worst
        // key currently kept.
        let worst = slot.heap.peek().expect("batch > 0").0;
        if key_cmp((degree, entry.vertex), (worst.degree, worst.vertex)) == Ordering::Less {
            let evicted = slot.heap.pop().expect("non-empty").0;
            slot.threshold = min_key(slot.threshold, (evicted.degree, evicted.vertex));
            slot.heap.push(Reverse(entry));
        } else {
            slot.threshold = min_key(slot.threshold, (degree, entry.vertex));
        }
    }
    slot.sorted.clear();
    while let Some(Reverse(entry)) = slot.heap.pop() {
        slot.sorted.push(entry);
    }
    slot.sorted.reverse();
}

/// [`greedy_peeling_view_into`] on
/// `threads` worker threads, bit-identical to the sequential peel (removal
/// order, densities, best subset, `stop` interactions).  `threads <= 1` falls
/// back to the sequential implementation.
pub fn greedy_peeling_parallel_view_into<F: FnMut(u64) -> bool>(
    view: GraphView<'_>,
    ws: &mut PeelWorkspace,
    par: &mut ParallelPeelWorkspace,
    threads: usize,
    mut stop: F,
) -> (PeelingResult, bool) {
    if threads <= 1 {
        return greedy_peeling_view_into(view, ws, stop);
    }
    let n = view.num_vertices();
    let alive_at_start = view.alive_count();
    if alive_at_start == 0 {
        return (
            PeelingResult {
                subset: Vec::new(),
                average_degree: 0.0,
            },
            false,
        );
    }
    let mut peel_span = dcs_obs::trace::span(dcs_obs::trace::Phase::Peel);
    ws.reset(n);
    par.reset(n, threads);
    for v in view.vertices() {
        par.alive[v as usize].store(true, MemOrd::Relaxed);
    }
    let positive_only = view.is_positive_only();
    let graph = view.graph();
    let batch_per_range = par.effective_batch();

    if par.crew.as_ref().map(WorkerCrew::threads) != Some(threads) {
        par.crew = Some(WorkerCrew::new(threads));
    }
    let ParallelPeelWorkspace {
        degree_bits,
        version,
        alive,
        slots,
        batch,
        dirty,
        crew,
        ..
    } = par;
    let crew = crew.as_ref().expect("crew ensured above");
    let (degree_bits, version, alive) = (&degree_bits[..], &version[..], &alive[..]);
    let slots = &slots[..];

    let (alive_count, best_density, best_size, interrupted) = {
        // ---- init round ----
        crew.broadcast(&|i| {
            let mut slot = slots[i].lock().expect("slot poisoned");
            init_range(&mut slot, graph, positive_only, degree_bits, version, alive);
        });
        let mut total_degree: Weight = 0.0;
        for slot in slots.iter() {
            let slot = slot.lock().expect("slot poisoned");
            for &chunk in &slot.chunk_sums {
                total_degree += chunk;
            }
        }
        let mut alive_count = alive_at_start;
        let mut best_density = total_degree / alive_count as Weight;
        let mut best_size = alive_count;
        let mut interrupted = false;

        // ---- scan/commit rounds ----
        'outer: while alive_count > 1 {
            crew.broadcast(&|i| {
                let mut slot = slots[i].lock().expect("slot poisoned");
                scan_range(&mut slot, batch_per_range, degree_bits, version, alive);
            });
            batch.clear();
            dirty.clear();
            let mut bound: Option<(Weight, VertexId)> = None;
            for slot in slots.iter() {
                let slot = slot.lock().expect("slot poisoned");
                batch.extend_from_slice(&slot.sorted);
                if let Some(threshold) = slot.threshold {
                    bound = min_key(bound, threshold);
                }
            }
            batch.sort_unstable_by(|a, b| key_cmp((a.degree, a.vertex), (b.degree, b.vertex)));

            let mut bi = 0usize;
            while alive_count > 1 {
                // Next valid batch entry (skip removed / re-prioritised).
                while bi < batch.len() {
                    let entry = batch[bi];
                    let vi = entry.vertex as usize;
                    if alive[vi].load(MemOrd::Relaxed)
                        && version[vi].load(MemOrd::Relaxed) == entry.version
                    {
                        break;
                    }
                    bi += 1;
                }
                // Next valid dirty entry.
                while let Some(&entry) = dirty.peek() {
                    let vi = entry.vertex as usize;
                    if alive[vi].load(MemOrd::Relaxed)
                        && version[vi].load(MemOrd::Relaxed) == entry.version
                    {
                        break;
                    }
                    dirty.pop();
                }
                let batch_head = batch.get(bi).copied();
                let dirty_head = dirty.peek().copied();
                let candidate = match (batch_head, dirty_head) {
                    (None, None) => break, // round exhausted → rescan
                    (Some(b), None) => {
                        bi += 1;
                        b
                    }
                    (None, Some(_)) => dirty.pop().expect("peeked"),
                    (Some(b), Some(d)) => {
                        if key_cmp((b.degree, b.vertex), (d.degree, d.vertex)) == Ordering::Less {
                            bi += 1;
                            b
                        } else {
                            dirty.pop().expect("peeked")
                        }
                    }
                };
                if let Some(bound) = bound {
                    // Some unscanned vertex may tie or beat this key: end the
                    // round (the candidate is rediscovered by the next scan).
                    if key_cmp((candidate.degree, candidate.vertex), bound) != Ordering::Less {
                        break;
                    }
                }
                if stop(1) {
                    interrupted = true;
                    break 'outer;
                }
                // ---- commit: identical float ops to the sequential peel ----
                let v = candidate.vertex;
                alive[v as usize].store(false, MemOrd::Relaxed);
                let mut removed_weight: Weight = 0.0;
                let (nbrs, nbr_weights) = graph.neighbor_slices(v);
                for (&u, &w) in nbrs.iter().zip(nbr_weights) {
                    if positive_only && w <= 0.0 {
                        continue;
                    }
                    let ui = u as usize;
                    if alive[ui].load(MemOrd::Relaxed) {
                        removed_weight += w;
                        let new_degree = f64::from_bits(degree_bits[ui].load(MemOrd::Relaxed)) - w;
                        degree_bits[ui].store(new_degree.to_bits(), MemOrd::Relaxed);
                        let new_version = version[ui].load(MemOrd::Relaxed).wrapping_add(1);
                        version[ui].store(new_version, MemOrd::Relaxed);
                        let relevant = match bound {
                            None => true,
                            Some(bound) => key_cmp((new_degree, u), bound) == Ordering::Less,
                        };
                        if relevant {
                            dirty.push(Entry {
                                degree: new_degree,
                                vertex: u,
                                version: new_version,
                            });
                        }
                    }
                }
                total_degree -= 2.0 * removed_weight;
                alive_count -= 1;
                ws.removal_order.push(v);
                let density = total_degree / alive_count as Weight;
                if density > best_density {
                    best_density = density;
                    best_size = alive_count;
                }
            }
        }

        (alive_count, best_density, best_size, interrupted)
    };
    peel_span.set_units((alive_at_start - alive_count) as u64);

    // The shared tail reads `ws.alive` for the negative-density fallback: sync
    // it from the atomic flags the commits actually maintained.
    for (slot, flag) in ws.alive[..n].iter_mut().zip(alive.iter()) {
        *slot = flag.load(MemOrd::Relaxed);
    }
    finish_peel(
        view,
        ws,
        best_density,
        best_size,
        alive_at_start,
        interrupted,
    )
}

/// Peels through the parallel implementation when it can win — `threads > 1`
/// and at least [`PARALLEL_PEEL_THRESHOLD`] alive vertices — and through the
/// sequential reference otherwise.  Both paths are bit-identical, so callers
/// may dispatch freely per solve.
pub fn greedy_peeling_view_auto<F: FnMut(u64) -> bool>(
    view: GraphView<'_>,
    ws: &mut PeelWorkspace,
    par: &mut ParallelPeelWorkspace,
    threads: usize,
    stop: F,
) -> (PeelingResult, bool) {
    if threads > 1 && view.alive_count() >= PARALLEL_PEEL_THRESHOLD {
        greedy_peeling_parallel_view_into(view, ws, par, threads, stop)
    } else {
        greedy_peeling_view_into(view, ws, stop)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::charikar::greedy_peeling_view_into;
    use dcs_graph::{GraphBuilder, GraphView, VertexMask};

    /// Deterministic pseudo-random graph: `n` vertices, ~`m` signed edges.
    fn random_graph(n: u32, m: usize, seed: u64, signed: bool) -> dcs_graph::SignedGraph {
        let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut b = GraphBuilder::new(n as usize);
        for _ in 0..m {
            let u = (next() % n as u64) as u32;
            let v = (next() % n as u64) as u32;
            if u == v {
                continue;
            }
            let raw = (next() % 1000) as f64 / 100.0 + 0.01;
            let w = if signed && next() % 4 == 0 { -raw } else { raw };
            b.add_edge(u, v, w);
        }
        b.build()
    }

    fn assert_bit_identical(view: GraphView<'_>, threads: usize, batch: usize) {
        let mut seq_ws = PeelWorkspace::new();
        let (seq, seq_int) = greedy_peeling_view_into(view, &mut seq_ws, |_| false);
        let mut par_ws = PeelWorkspace::new();
        let mut par = ParallelPeelWorkspace::new();
        par.set_batch_per_range(batch);
        let (got, got_int) =
            greedy_peeling_parallel_view_into(view, &mut par_ws, &mut par, threads, |_| false);
        assert_eq!(seq_int, got_int);
        assert_eq!(seq.subset, got.subset);
        assert_eq!(
            seq.average_degree.to_bits(),
            got.average_degree.to_bits(),
            "densities must be bit-identical"
        );
        assert_eq!(seq_ws.removal_order(), par_ws.removal_order());
    }

    #[test]
    fn parallel_matches_sequential_on_random_graphs() {
        for seed in 0..4u64 {
            let g = random_graph(300, 1200, seed, false);
            for threads in [2, 3, 4] {
                for batch in [1, 4, 128] {
                    assert_bit_identical(GraphView::full(&g), threads, batch);
                }
            }
        }
    }

    #[test]
    fn parallel_matches_sequential_with_negative_weights() {
        for seed in 10..13u64 {
            let g = random_graph(257, 900, seed, true);
            assert_bit_identical(GraphView::full(&g), 4, 8);
            assert_bit_identical(GraphView::full(&g).positive_part(), 4, 8);
        }
    }

    #[test]
    fn parallel_matches_sequential_on_masked_views() {
        let g = random_graph(300, 1500, 77, true);
        let mut mask = VertexMask::full(g.num_vertices());
        for v in (0..300u32).step_by(7) {
            mask.remove(v);
        }
        assert_bit_identical(GraphView::masked(&g, &mask), 4, 16);
    }

    #[test]
    fn workspace_reuse_and_single_thread_fallback() {
        let g = random_graph(200, 800, 5, false);
        let mut ws = PeelWorkspace::new();
        let mut par = ParallelPeelWorkspace::new();
        par.set_batch_per_range(4);
        let first =
            greedy_peeling_parallel_view_into(GraphView::full(&g), &mut ws, &mut par, 3, |_| false)
                .0;
        // Re-running through the same workspaces must be deterministic.
        let second =
            greedy_peeling_parallel_view_into(GraphView::full(&g), &mut ws, &mut par, 3, |_| false)
                .0;
        assert_eq!(first, second);
        // threads <= 1 routes to the sequential implementation.
        let seq =
            greedy_peeling_parallel_view_into(GraphView::full(&g), &mut ws, &mut par, 1, |_| false)
                .0;
        assert_eq!(first, seq);
    }

    #[test]
    fn interruption_matches_sequential() {
        let g = random_graph(150, 600, 9, true);
        for limit in [1u64, 5, 50] {
            let mut remaining = limit;
            let mut seq_ws = PeelWorkspace::new();
            let (seq, seq_int) = greedy_peeling_view_into(GraphView::full(&g), &mut seq_ws, |u| {
                remaining = remaining.saturating_sub(u);
                remaining == 0
            });
            let mut remaining = limit;
            let mut par_ws = PeelWorkspace::new();
            let mut par = ParallelPeelWorkspace::new();
            par.set_batch_per_range(4);
            let (got, got_int) = greedy_peeling_parallel_view_into(
                GraphView::full(&g),
                &mut par_ws,
                &mut par,
                4,
                |u| {
                    remaining = remaining.saturating_sub(u);
                    remaining == 0
                },
            );
            assert_eq!(seq_int, got_int);
            assert_eq!(seq.subset, got.subset);
            assert_eq!(seq.average_degree.to_bits(), got.average_degree.to_bits());
            assert_eq!(seq_ws.removal_order(), par_ws.removal_order());
        }
    }

    #[test]
    fn auto_dispatch_thresholds() {
        let g = random_graph(100, 300, 3, false);
        let mut ws = PeelWorkspace::new();
        let mut par = ParallelPeelWorkspace::new();
        // Small graph: auto uses the sequential path regardless of threads.
        let auto = greedy_peeling_view_auto(GraphView::full(&g), &mut ws, &mut par, 4, |_| false).0;
        let seq = greedy_peeling_view_into(GraphView::full(&g), &mut ws, |_| false).0;
        assert_eq!(auto, seq);
    }
}
