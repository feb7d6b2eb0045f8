//! Incrementally maintained signed graphs with cheap CSR snapshots.
//!
//! [`SignedGraph`] is immutable by design: the mining algorithms want packed,
//! cache-friendly CSR adjacency.  Streaming workloads, however, apply millions
//! of single-edge weight updates between mines, and rebuilding a CSR graph
//! from scratch for every snapshot is `O(m)` hashing and sorting regardless of
//! how few edges actually changed.
//!
//! [`DeltaGraph`] bridges the two worlds the way a log-structured merge tree
//! does (O'Neil et al., "The Log-Structured Merge-Tree", Acta Informatica
//! 1996): it keeps the last snapshot as its sorted base, plus one hash map of
//! the edges changed since it.
//!
//! * mutation is **O(1) amortized** per update — one probe of the change map
//!   ([`DeltaGraph::set_weight`]) finds the old weight and stores the new
//!   one; the edge counts are kept current from both,
//! * every mutation that changes a weight bumps a monotone
//!   [`DeltaGraph::version`],
//! * [`DeltaGraph::snapshot`] merges the change map into the last snapshot.
//!   When nothing changed since, the same `Arc` comes back (pointer-equal,
//!   zero work).  Otherwise the changed entries are ordered by (row,
//!   neighbour), each run of unchanged rows is copied with one slice copy per
//!   column, and each changed row is merged with its sorted changes.  For `k`
//!   changed edges this costs `O(n + m)` in memcpy and `O(k)` per byte of
//!   the (row, neighbour) key in radix-sort passes; the new CSR is written
//!   into the buffers of the snapshot before last whenever nobody else holds
//!   that snapshot any more.
//!
//! Consumers hold the returned `Arc<SignedGraph>` for as long as they need it
//! (e.g. a mining worker solving outside a session lock) without blocking
//! further mutation: a snapshot somebody holds is never written to.  A
//! streaming monitor (`dcs-core`'s `StreamingDcs`) holds two, for `G2` and `G_D`.

use std::collections::hash_map::Entry;
use std::sync::Arc;

use rustc_hash::FxHashMap;

use crate::{CsrBuffers, SignedGraph, VertexId, Weight};

/// A change map or entry buffer whose capacity exceeds this many entries is
/// dropped after a merge instead of cleared, so a bulk load leaves no bulk
/// scratch resident.  Steady batches of a few hundred updates keep theirs.
const RETAINED_CAPACITY: usize = 4096;

/// A merge that needs a new adjacency column sizes it for its entries plus
/// `1/COLUMN_HEADROOM` of them, so a graph that gains a few edges per snapshot
/// keeps recycling the column instead of regrowing it (which would copy the
/// stale contents and double the capacity).
const COLUMN_HEADROOM: usize = 32;

/// One changed adjacency entry: `row` now holds `neighbor` at `weight`
/// (`0.0`: the entry is gone).
#[derive(Debug, Clone, Copy, Default)]
struct Change {
    row: VertexId,
    neighbor: VertexId,
    weight: Weight,
}

/// A mutable, undirected, signed-weight graph optimised for incremental
/// updates and repeated CSR snapshots.
///
/// The vertex set is fixed at construction; self-loops are rejected and
/// weights of exactly `0.0` mean "no edge" (matching [`crate::GraphBuilder`]'s
/// convention that the difference graph only contains edges with `D(u,v) ≠ 0`).
#[derive(Debug)]
pub struct DeltaGraph {
    /// The last snapshot, every row sorted by neighbour.
    base: Arc<SignedGraph>,
    /// Edges changed since `base`, keyed `(min, max)`: the current weight,
    /// `0.0` where the edge was removed.
    changes: FxHashMap<(VertexId, VertexId), Weight>,
    /// Undirected edges of positive and of negative weight, kept current by
    /// [`Self::set_weight`].
    positive: usize,
    negative: usize,
    /// Monotone counter, bumped on every mutation that changed a weight.
    version: u64,
    /// The snapshot before `base`: the next merge writes into its buffers when
    /// this is the last handle to it.
    spare: Option<Arc<SignedGraph>>,
    /// Scratch of a merge: the changed entries, in (row, neighbour) order.
    entries: Vec<Change>,
}

impl Clone for DeltaGraph {
    /// Clones the graph state; the recycled buffers and the scratch stay with
    /// the original.
    fn clone(&self) -> Self {
        DeltaGraph {
            base: Arc::clone(&self.base),
            changes: self.changes.clone(),
            positive: self.positive,
            negative: self.negative,
            version: self.version,
            spare: None,
            entries: Vec::new(),
        }
    }
}

impl DeltaGraph {
    /// Creates an edgeless delta graph over `n` vertices.
    pub fn new(n: usize) -> Self {
        Self::from_graph(SignedGraph::empty(n))
    }

    /// Creates a delta graph holding `graph`, whose rows must be sorted by
    /// neighbour (as [`crate::GraphBuilder`], [`SignedGraph::from_raw_csr`]
    /// and packs guarantee).  Its first [`Self::snapshot`] is `graph` itself.
    pub fn from_graph(graph: SignedGraph) -> Self {
        debug_assert!(
            graph
                .vertices()
                .all(|v| graph.neighbor_slices(v).0.windows(2).all(|w| w[0] < w[1])),
            "rows are sorted"
        );
        DeltaGraph {
            positive: graph.num_positive_edges(),
            negative: graph.num_negative_edges(),
            base: Arc::new(graph),
            changes: FxHashMap::default(),
            version: 0,
            spare: None,
            entries: Vec::new(),
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.base.num_vertices()
    }

    /// Number of undirected edges (each counted once).
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.positive + self.negative
    }

    /// Monotone version counter: bumped once per mutation that actually
    /// changed an edge weight.  Two equal versions imply an identical edge
    /// set, which is what makes [`Self::snapshot`] cacheable.
    #[inline]
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Current weight of edge `(u, v)`, or `None` if absent: the change map
    /// first, then a binary search of the last snapshot's row.
    pub fn weight(&self, u: VertexId, v: VertexId) -> Option<Weight> {
        if u == v || u as usize >= self.num_vertices() {
            return None;
        }
        if let Some(&w) = self.changes.get(&key(u, v)) {
            return (w != 0.0).then_some(w);
        }
        let (nbrs, ws) = self.base.neighbor_slices(u);
        nbrs.binary_search(&v).ok().map(|i| ws[i])
    }

    /// Sets the weight of edge `(u, v)` to exactly `w` (`0.0` removes the
    /// edge).  Returns `true` if the graph changed — setting an edge to the
    /// weight it already has (or removing an absent edge) is a no-op that
    /// does **not** bump the version.
    ///
    /// # Panics
    ///
    /// Panics on self-loops and out-of-range endpoints; callers validate
    /// their input (the streaming layer drops such updates before they reach
    /// the graph).
    pub fn set_weight(&mut self, u: VertexId, v: VertexId, w: Weight) -> bool {
        assert!(u != v, "self-loops are not allowed");
        let n = self.num_vertices();
        assert!(
            (u as usize) < n && (v as usize) < n,
            "edge ({u}, {v}) out of range for {n} vertices"
        );
        // One probe finds the old weight (`0.0`: absent) and stores the new
        // one; an edge with no change yet reads its weight from the base row.
        let old = match self.changes.entry(key(u, v)) {
            Entry::Occupied(change) if *change.get() == w => return false,
            Entry::Occupied(mut change) => change.insert(w),
            Entry::Vacant(change) => {
                let (nbrs, ws) = self.base.neighbor_slices(u);
                let old = nbrs.binary_search(&v).map_or(0.0, |i| ws[i]);
                if old == w {
                    return false;
                }
                change.insert(w);
                old
            }
        };
        self.positive -= usize::from(old > 0.0);
        self.negative -= usize::from(old < 0.0);
        self.positive += usize::from(w > 0.0);
        self.negative += usize::from(w < 0.0);
        self.version += 1;
        true
    }

    /// The current edges `(u, v, w)`, each once with `u < v`, read without a
    /// merge (so it can check [`Self::snapshot`]): the last snapshot's edges
    /// that no change shadows, in row order, then the changed edges still
    /// present, in no particular order.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId, Weight)> + '_ {
        let unchanged = self
            .base
            .edges()
            .filter(|&(u, v, _)| !self.changes.contains_key(&(u, v)));
        let changed = self
            .changes
            .iter()
            .filter(|&(_, &w)| w != 0.0)
            .map(|(&(u, v), &w)| (u, v, w));
        unchanged.chain(changed)
    }

    /// Packs the current state into an immutable CSR [`SignedGraph`].
    ///
    /// * If nothing changed since the last snapshot, the same `Arc` is
    ///   returned — **pointer-equal** to the previous one, no allocation.
    /// * Otherwise the changes are merged into the last snapshot: runs of
    ///   unchanged rows are copied verbatim, and only rows with a change are
    ///   merged entry by entry.  The result is written into the buffers of the
    ///   snapshot before last when no caller still holds it.
    pub fn snapshot(&mut self) -> Arc<SignedGraph> {
        if self.changes.is_empty() {
            return Arc::clone(&self.base);
        }
        let mut rebuild_span = dcs_obs::trace::span(dcs_obs::trace::Phase::SnapshotRebuild);
        rebuild_span.set_units(self.changes.len() as u64);
        self.take_changes();
        let buffers = self
            .spare
            .take()
            .and_then(|spare| Arc::try_unwrap(spare).ok())
            .map(SignedGraph::into_reusable_csr)
            .unwrap_or_default();
        let (offsets, neighbors, weights) =
            merge(&self.base, &self.entries, 2 * self.num_edges(), buffers);
        debug_assert_eq!(
            (2 * self.positive, 2 * self.negative),
            (
                weights.iter().filter(|&&w| w > 0.0).count(),
                weights.iter().filter(|&&w| w < 0.0).count()
            ),
            "maintained edge counts match the merged rows"
        );
        let graph = SignedGraph::from_columns(
            offsets.into(),
            neighbors.into(),
            weights.into(),
            2 * self.positive,
            2 * self.negative,
        );
        self.spare = Some(std::mem::replace(&mut self.base, Arc::new(graph)));
        if self.entries.capacity() > 2 * RETAINED_CAPACITY {
            self.entries = Vec::new();
        } else {
            self.entries.clear();
        }
        Arc::clone(&self.base)
    }

    /// Moves both adjacency entries of every changed edge into `entries`, in
    /// (row, neighbour) order, and empties the change map — dropping it when a
    /// bulk load grew it, before the sort allocates.
    fn take_changes(&mut self) {
        let mut entries = std::mem::take(&mut self.entries);
        entries.clear();
        entries.reserve(2 * self.changes.len());
        for (&(u, v), &weight) in &self.changes {
            entries.push(Change {
                row: u,
                neighbor: v,
                weight,
            });
            entries.push(Change {
                row: v,
                neighbor: u,
                weight,
            });
        }
        if self.changes.capacity() > RETAINED_CAPACITY {
            self.changes = FxHashMap::default();
        } else {
            self.changes.clear();
        }
        self.entries = radix_sort(entries, self.base.num_vertices());
    }
}

/// The canonical `(min, max)` key of the undirected edge `(u, v)`.
fn key(u: VertexId, v: VertexId) -> (VertexId, VertexId) {
    (u.min(v), u.max(v))
}

/// Sorts `entries` over `n` vertices by (row, neighbour): a least significant
/// digit radix sort, one stable counting pass per byte of the key
/// `row · 2^b + neighbour`, where `b` bits hold any vertex id.  (Keys are
/// unique, so the order is total.)  Byte digits keep each pass's 256 write
/// streams in cache, where digits of whole vertex ids scatter across memory.
fn radix_sort(entries: Vec<Change>, n: usize) -> Vec<Change> {
    let bits = usize::BITS - n.saturating_sub(1).leading_zeros();
    let key = |c: &Change| (u64::from(c.row) << bits) | u64::from(c.neighbor);
    let mut from = entries;
    let mut to = vec![Change::default(); from.len()];
    for shift in (0..2 * bits).step_by(8) {
        let digit = |c: &Change| ((key(c) >> shift) & 0xff) as usize;
        // `next[d]`: the slot the next entry with digit `d` goes to.
        let mut next = [0usize; 257];
        for c in &from {
            next[digit(c) + 1] += 1;
        }
        for d in 1..257 {
            next[d] += next[d - 1];
        }
        for c in &from {
            let slot = &mut next[digit(c)];
            to[*slot] = *c;
            *slot += 1;
        }
        std::mem::swap(&mut from, &mut to);
    }
    from
}

/// Writes `base` with `changes` (in (row, neighbour) order) applied into the
/// recycled `buffers`, reserved for `entries` adjacency entries.
fn merge(
    base: &SignedGraph,
    changes: &[Change],
    entries: usize,
    buffers: CsrBuffers,
) -> CsrBuffers {
    let n = base.num_vertices();
    let (mut offsets, mut neighbors, mut weights) = buffers;
    offsets.clear();
    offsets.reserve(n + 1);
    recycle_column(&mut neighbors, entries);
    recycle_column(&mut weights, entries);
    offsets.push(0);
    let mut out = (offsets, neighbors, weights);
    // The first row of `base` not yet written.
    let mut next = 0usize;
    for row_changes in changes.chunk_by(|a, b| a.row == b.row) {
        let row = row_changes[0].row as usize;
        copy_rows(&mut out, base, next, row);
        merge_row(&mut out, base, row, row_changes);
        next = row + 1;
    }
    copy_rows(&mut out, base, next, n);
    out
}

/// Empties a recycled adjacency column for `entries` entries: kept when it holds
/// them, replaced by a fresh column with [`COLUMN_HEADROOM`] when it does not.
/// The old column is freed before the fresh one is allocated, so the allocator
/// can hand its memory on; allocated the other way round, both columns were
/// live at once and a served session's peak RSS rose by about 2.5 MB.
fn recycle_column<T>(column: &mut Vec<T>, entries: usize) {
    column.clear();
    if column.capacity() < entries {
        drop(std::mem::take(column));
        *column = Vec::with_capacity(entries + entries / COLUMN_HEADROOM);
    }
}

/// Appends the unchanged rows `from..to` of `base`: one slice copy per column,
/// and their offsets shifted to where the run now starts.
fn copy_rows(out: &mut CsrBuffers, base: &SignedGraph, from: usize, to: usize) {
    let (offsets, neighbors, weights) = base.csr();
    let (start, end) = (offsets[from], offsets[to]);
    // The output may be shorter than `base` so far: wrapping arithmetic makes
    // the shift a plain add either way.
    let shift = out.1.len().wrapping_sub(start);
    out.0.extend(
        offsets[from + 1..=to]
            .iter()
            .map(|&o| o.wrapping_add(shift)),
    );
    out.1.extend_from_slice(&neighbors[start..end]);
    out.2.extend_from_slice(&weights[start..end]);
}

/// Appends row `row` of `base` merged with its sorted `changes`: a change
/// replaces or removes the base entry of its neighbour, or inserts one.
fn merge_row(out: &mut CsrBuffers, base: &SignedGraph, row: usize, changes: &[Change]) {
    let (nbrs, ws) = base.neighbor_slices(row as VertexId);
    // The first entry of the base row not yet written.
    let mut next = 0usize;
    for change in changes {
        let below = next + nbrs[next..].partition_point(|&t| t < change.neighbor);
        out.1.extend_from_slice(&nbrs[next..below]);
        out.2.extend_from_slice(&ws[next..below]);
        next = below + usize::from(nbrs.get(below) == Some(&change.neighbor));
        if change.weight != 0.0 {
            out.1.push(change.neighbor);
            out.2.push(change.weight);
        }
    }
    out.1.extend_from_slice(&nbrs[next..]);
    out.2.extend_from_slice(&ws[next..]);
    out.0.push(out.1.len());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    #[test]
    fn set_add_and_remove() {
        let mut d = DeltaGraph::new(4);
        assert!(d.set_weight(0, 1, 2.0));
        assert!(d.set_weight(1, 2, -1.5));
        assert_eq!(d.num_edges(), 2);
        assert_eq!(d.weight(1, 0), Some(2.0));
        // No-op updates do not move the version.
        let version = d.version();
        assert!(!d.set_weight(0, 1, 2.0));
        assert!(!d.set_weight(2, 3, 0.0));
        assert_eq!(d.version(), version);
        // Removing and re-adding.
        assert!(d.set_weight(0, 1, 0.0));
        assert_eq!(d.num_edges(), 1);
        assert_eq!(d.weight(0, 1), None);
        assert!(d.set_weight(0, 1, 3.0));
        assert!(d.set_weight(0, 1, 0.0));
        assert_eq!(d.weight(0, 1), None);
        assert_eq!(d.num_edges(), 1);
        // Reads of merged edges go through the snapshot's rows.
        let _ = d.snapshot();
        assert_eq!(d.weight(2, 1), Some(-1.5));
        assert_eq!(d.weight(0, 1), None);
        assert_eq!(d.weight(9, 1), None);
        assert!(!d.set_weight(1, 2, -1.5));
        assert!(!d.set_weight(0, 1, 0.0));
    }

    /// `set_weight` reads and writes through one probe of the change map: a
    /// no-op leaves the version and both edge counts as they were, and an
    /// edge of the base snapshot is removed and re-added like any other.
    #[test]
    fn one_probe_set_weight_keeps_version_and_counts() {
        let state = |d: &DeltaGraph| (d.version(), d.positive, d.negative);
        let base = GraphBuilder::from_edges(4, vec![(0, 1, 2.0), (1, 2, -1.5)]);
        let mut d = DeltaGraph::from_graph(base);
        assert_eq!(state(&d), (0, 1, 1));
        // The same weight again, on a base edge and on a changed one.
        assert!(!d.set_weight(1, 0, 2.0));
        assert_eq!(state(&d), (0, 1, 1));
        assert!(d.set_weight(2, 3, 4.0));
        assert!(!d.set_weight(3, 2, 4.0));
        assert_eq!(state(&d), (1, 2, 1));
        // `0.0` and `-0.0` on an absent edge store nothing.
        assert!(!d.set_weight(0, 3, 0.0));
        assert!(!d.set_weight(3, 0, -0.0));
        assert_eq!(state(&d), (1, 2, 1));
        assert!(!d.changes.contains_key(&(0, 3)));
        // Removing a base edge; removing it again is a no-op.
        assert!(d.set_weight(1, 0, -0.0));
        assert_eq!(state(&d), (2, 1, 1));
        assert_eq!(d.weight(0, 1), None);
        assert!(!d.set_weight(0, 1, 0.0));
        assert!(!d.set_weight(0, 1, -0.0));
        assert_eq!(state(&d), (2, 1, 1));
        // Re-adding the removed edge, with the other sign.
        assert!(d.set_weight(0, 1, -3.0));
        assert_eq!(state(&d), (3, 1, 2));
        assert_eq!(d.weight(1, 0), Some(-3.0));
        let expected = GraphBuilder::from_edges(4, vec![(0, 1, -3.0), (1, 2, -1.5), (2, 3, 4.0)]);
        assert_eq!(*d.snapshot(), expected);
        // Merged, the same weight is still a no-op and a removal still counts.
        assert!(!d.set_weight(0, 1, -3.0));
        assert_eq!(state(&d), (3, 1, 2));
        assert!(d.set_weight(2, 1, 0.0));
        assert_eq!(state(&d), (4, 1, 1));
    }

    #[test]
    fn snapshot_matches_builder_and_is_cached() {
        let mut d = DeltaGraph::new(5);
        d.set_weight(0, 1, 1.0);
        d.set_weight(0, 3, -2.0);
        d.set_weight(2, 3, 3.0);
        let expected = GraphBuilder::from_edges(5, vec![(0, 1, 1.0), (0, 3, -2.0), (2, 3, 3.0)]);
        let snap = d.snapshot();
        assert_eq!(*snap, expected);
        // Unchanged version: the exact same Arc comes back.
        let again = d.snapshot();
        assert!(Arc::ptr_eq(&snap, &again));
        // A mutation invalidates the cache; the merge only touches the
        // changed rows but the result is a complete graph.
        d.set_weight(2, 4, -1.0);
        d.set_weight(3, 4, 2.0);
        let expected = GraphBuilder::from_edges(
            5,
            vec![
                (0, 1, 1.0),
                (0, 3, -2.0),
                (2, 3, 3.0),
                (2, 4, -1.0),
                (3, 4, 2.0),
            ],
        );
        let next = d.snapshot();
        assert!(!Arc::ptr_eq(&snap, &next));
        assert_eq!(*next, expected);
        // No-op mutations keep the cache valid.
        d.set_weight(3, 4, 2.0);
        assert!(Arc::ptr_eq(&next, &d.snapshot()));
    }

    #[test]
    fn unheld_snapshot_buffers_are_recycled() {
        let weights_at = |g: &SignedGraph| g.csr().2.as_ptr();
        let mut d = DeltaGraph::new(6);
        d.set_weight(0, 1, 1.0);
        d.set_weight(2, 3, 2.0);
        let first = d.snapshot();
        let first_weights = weights_at(&first);
        drop(first);
        d.set_weight(4, 5, 3.0);
        let second = d.snapshot();
        d.set_weight(4, 5, 0.0);
        // The first snapshot is the spare now and nobody holds it.
        let third = d.snapshot();
        assert_eq!(weights_at(&third), first_weights);
        // A held snapshot is left alone.
        d.set_weight(1, 2, 1.0);
        let fourth = d.snapshot();
        assert_ne!(weights_at(&fourth), weights_at(&second));
    }

    /// A graph that gains a few edges per snapshot recycles its columns: it
    /// allocates one only when the headroom runs out, and no column ever holds
    /// more than `1 + 1/COLUMN_HEADROOM` times the entries of its snapshot.
    #[test]
    fn growing_graph_recycles_columns_within_headroom() {
        let n = 400;
        let mut d = DeltaGraph::new(n);
        let mut edges = (0..n as VertexId)
            .flat_map(|u| (1..=n as VertexId / 2).map(move |k| (u, (u + k) % n as VertexId)));
        for _ in 0..2000 {
            let (u, v) = edges.next().unwrap();
            d.set_weight(u, v, 1.0);
        }
        let mut seen = Vec::new();
        for _ in 0..300 {
            for _ in 0..3 {
                let (u, v) = edges.next().unwrap();
                d.set_weight(u, v, 2.0);
            }
            let snapshot = d.snapshot();
            let entries = 2 * snapshot.num_edges();
            let (neighbors, weights) = snapshot.column_capacities();
            for capacity in [neighbors, weights] {
                assert!(capacity >= entries);
                assert!(
                    capacity <= entries + entries / COLUMN_HEADROOM,
                    "capacity {capacity} for {entries} entries"
                );
            }
            let column = snapshot.csr().2.as_ptr();
            if !seen.contains(&column) {
                seen.push(column);
            }
        }
        // 900 new edges against 2000 + (headroom of about 125): a fresh pair of
        // columns every ~20 snapshots, not one per snapshot.
        assert!(seen.len() <= 40, "{} distinct columns", seen.len());
    }

    #[test]
    fn clones_leave_the_spare_buffers_behind() {
        let mut d = DeltaGraph::new(4);
        d.set_weight(0, 1, 1.0);
        let _ = d.snapshot();
        d.set_weight(1, 2, 1.0);
        let _ = d.snapshot();
        let mut twin = d.clone();
        assert!(d.spare.is_some());
        assert!(twin.spare.is_none());
        d.set_weight(2, 3, 1.0);
        twin.set_weight(2, 3, 1.0);
        assert_eq!(*d.snapshot(), *twin.snapshot());
    }

    #[test]
    fn radix_sort_orders_by_row_then_neighbor() {
        // Vertex counts whose keys take one byte, a partial byte, and up to all
        // eight bytes (ids of 32 bits).
        for n in [2usize, 16, 255, 256, 257, 70_000, u32::MAX as usize - 4] {
            let mut state = n as u64;
            let mut entries: Vec<Change> = (0..500)
                .map(|i| {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let row = ((state >> 33) % n as u64) as VertexId;
                    Change {
                        row,
                        neighbor: (i % n) as VertexId,
                        weight: i as Weight,
                    }
                })
                .collect();
            entries.sort_unstable_by_key(|c| (c.row, c.neighbor));
            entries.dedup_by_key(|c| (c.row, c.neighbor));
            let expected: Vec<_> = entries
                .iter()
                .map(|c| (c.row, c.neighbor, c.weight))
                .collect();
            entries.reverse();
            let sorted: Vec<_> = radix_sort(entries, n)
                .iter()
                .map(|c| (c.row, c.neighbor, c.weight))
                .collect();
            assert_eq!(sorted, expected, "n = {n}");
        }
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn rejects_self_loops() {
        DeltaGraph::new(3).set_weight(1, 1, 1.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range() {
        DeltaGraph::new(3).set_weight(0, 7, 1.0);
    }
}
