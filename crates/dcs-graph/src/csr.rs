//! Compressed-sparse-row storage for signed, weighted, undirected graphs.

use crate::column::CsrColumn;
use crate::{VertexId, VertexSubset, Weight};

/// Why a CSR triple was rejected as structurally invalid.
///
/// Produced by [`SignedGraph::from_raw_csr`] (and by the pack reader in
/// [`crate::pack`]) when untrusted input — a file, a network payload, a
/// memory-mapped pack — fails the representation invariants.  Every variant
/// names the first offending location so corrupt inputs are diagnosable.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CorruptGraph {
    /// The offsets array was empty (it must have `n + 1` entries).
    EmptyOffsets,
    /// `offsets[0]` was not zero.
    NonzeroFirstOffset {
        /// The value found at `offsets[0]`.
        first: usize,
    },
    /// `offsets[vertex + 1] < offsets[vertex]` — rows must be monotone.
    NonMonotoneOffsets {
        /// The first vertex whose row range runs backwards.
        vertex: usize,
    },
    /// The final offset does not equal the adjacency length.
    OffsetEndMismatch {
        /// `offsets[n]` as stored.
        last: usize,
        /// Actual number of adjacency entries.
        entries: usize,
    },
    /// `neighbors` and `weights` have different lengths.
    LengthMismatch {
        /// Length of the neighbor array.
        neighbors: usize,
        /// Length of the weight array.
        weights: usize,
    },
    /// The adjacency length is odd — impossible when every undirected edge
    /// is stored in both endpoint rows.
    OddEntryCount {
        /// The adjacency length found.
        entries: usize,
    },
    /// A neighbor id is `>= n`.
    TargetOutOfRange {
        /// The vertex whose row contains the bad target.
        vertex: usize,
        /// The out-of-range neighbor id.
        target: VertexId,
    },
    /// A vertex lists itself as a neighbor (self-loops are not allowed).
    SelfLoop {
        /// The offending vertex.
        vertex: usize,
    },
    /// A row is not strictly ascending by neighbor id (unsorted, or a
    /// duplicate edge).
    UnsortedRow {
        /// The first vertex whose row violates the ordering.
        vertex: usize,
    },
    /// An edge weight is NaN or infinite.
    NonFiniteWeight {
        /// The vertex whose row contains the weight.
        vertex: usize,
    },
    /// An edge weight is exactly zero (zero-weight edges are dropped, never
    /// stored).
    ZeroWeight {
        /// The vertex whose row contains the weight.
        vertex: usize,
    },
}

impl std::fmt::Display for CorruptGraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CorruptGraph::EmptyOffsets => {
                write!(f, "corrupt graph: offsets array is empty")
            }
            CorruptGraph::NonzeroFirstOffset { first } => {
                write!(f, "corrupt graph: offsets[0] = {first}, expected 0")
            }
            CorruptGraph::NonMonotoneOffsets { vertex } => {
                write!(f, "corrupt graph: offsets decrease at vertex {vertex}")
            }
            CorruptGraph::OffsetEndMismatch { last, entries } => write!(
                f,
                "corrupt graph: final offset {last} != {entries} adjacency entries"
            ),
            CorruptGraph::LengthMismatch { neighbors, weights } => write!(
                f,
                "corrupt graph: {neighbors} neighbors vs {weights} weights"
            ),
            CorruptGraph::OddEntryCount { entries } => write!(
                f,
                "corrupt graph: odd adjacency length {entries} (undirected edges are stored twice)"
            ),
            CorruptGraph::TargetOutOfRange { vertex, target } => write!(
                f,
                "corrupt graph: vertex {vertex} has out-of-range neighbor {target}"
            ),
            CorruptGraph::SelfLoop { vertex } => {
                write!(f, "corrupt graph: self-loop at vertex {vertex}")
            }
            CorruptGraph::UnsortedRow { vertex } => write!(
                f,
                "corrupt graph: adjacency row of vertex {vertex} is not strictly sorted"
            ),
            CorruptGraph::NonFiniteWeight { vertex } => write!(
                f,
                "corrupt graph: non-finite edge weight in row of vertex {vertex}"
            ),
            CorruptGraph::ZeroWeight { vertex } => write!(
                f,
                "corrupt graph: zero edge weight in row of vertex {vertex}"
            ),
        }
    }
}

impl std::error::Error for CorruptGraph {}

/// Validates a CSR triple against every representation invariant of
/// [`SignedGraph`] and returns the `(positive, negative)` **entry** counts
/// (directed, i.e. twice the undirected edge counts).
///
/// Checks: `n + 1` offsets starting at 0, monotone, ending at the adjacency
/// length; parallel neighbor/weight arrays of even length; neighbor ids in
/// range, no self-loops, rows strictly ascending; weights finite and
/// non-zero.  Performs no allocation — safe to run over memory-mapped
/// sections without touching the heap.  Adjacency *symmetry* (each edge
/// present in both endpoint rows) is not checked here; packs cross-check it
/// via their section checksums and writers construct it by construction.
///
/// After the header checks, a fast pass decides validity without stopping at
/// an error ([`rows_are_valid`], [`negative_weights`]).  Its row check is
/// flat: one pass over the whole neighbor column counts the adjacent pairs
/// that do not ascend, and every one of them must sit at a row start; a
/// per-row step then checks the row's last neighbor against `n` and
/// binary-searches the row for its own vertex.  Only when the fast pass
/// finds an error — corrupt input — does the per-row loop
/// [`first_corruption`] run, to name the first offending row, so the
/// reported [`CorruptGraph`] is the one a row-by-row check would give.
pub(crate) fn validate_csr(
    offsets: &[usize],
    neighbors: &[VertexId],
    weights: &[Weight],
) -> Result<(usize, usize), CorruptGraph> {
    let (&last, _) = offsets.split_last().ok_or(CorruptGraph::EmptyOffsets)?;
    if offsets[0] != 0 {
        return Err(CorruptGraph::NonzeroFirstOffset { first: offsets[0] });
    }
    if neighbors.len() != weights.len() {
        return Err(CorruptGraph::LengthMismatch {
            neighbors: neighbors.len(),
            weights: weights.len(),
        });
    }
    if last != neighbors.len() {
        return Err(CorruptGraph::OffsetEndMismatch {
            last,
            entries: neighbors.len(),
        });
    }
    if !neighbors.len().is_multiple_of(2) {
        return Err(CorruptGraph::OddEntryCount {
            entries: neighbors.len(),
        });
    }
    match (
        rows_are_valid(offsets, neighbors),
        negative_weights(weights),
    ) {
        (true, Some(negative)) => Ok((weights.len() - negative, negative)),
        _ => first_corruption(offsets, neighbors, weights),
    }
}

/// The fast pass over the rows of a CSR whose offsets start at 0 and end at
/// the adjacency length: whether the offsets are monotone (every row slices
/// the neighbor column) and every row is strictly ascending, its last
/// neighbor below `n` (so all of them are) and free of its own vertex.
///
/// Strict ascent is checked flat: the adjacent pairs of the whole neighbor
/// column that do not ascend are counted in one pass, and the rows are
/// ascending exactly when each of them straddles a row boundary, i.e. when
/// the non-empty rows' first entries account for all of them.  The per-row
/// step reads two offsets, the row's first and last neighbors and, when its
/// own vertex lies between them, binary-searches the row for it (meaningful
/// once the row is known ascending; on a row that is not, the verdict is
/// already false).
fn rows_are_valid(offsets: &[usize], neighbors: &[VertexId]) -> bool {
    // Counted in `u32` lanes, four to a 128-bit vector; a chunk holds at most
    // 2^16 pairs, so its count cannot overflow.
    const CHUNK: usize = 1 << 16;
    let pairs = neighbors.len().saturating_sub(1);
    let descents: usize = neighbors[..pairs]
        .chunks(CHUNK)
        .zip(neighbors[neighbors.len() - pairs..].chunks(CHUNK))
        .map(|(before, after)| {
            let count: u32 = before
                .iter()
                .zip(after)
                .map(|(&a, &b)| u32::from(b <= a))
                .sum();
            count as usize
        })
        .sum();
    let n = offsets.len() - 1;
    let mut boundary_descents = 0usize;
    let mut bad = false;
    for (v, bounds) in offsets.windows(2).enumerate() {
        // A row that runs backwards or past the end is a non-monotone offset.
        let Some(row) = neighbors.get(bounds[0]..bounds[1]) else {
            return false;
        };
        let Some(&last) = row.last() else { continue };
        if bounds[0] > 0 {
            boundary_descents += usize::from(row[0] <= neighbors[bounds[0] - 1]);
        }
        let v = v as VertexId;
        let self_loop = row[0] <= v && v <= last && row.binary_search(&v).is_ok();
        bad |= (last as usize >= n) | self_loop;
    }
    !bad && descents == boundary_descents
}

/// The fast pass over the weights: the number of negative weights (sign bits
/// set), or `None` when a weight is non-finite (exponent all ones) or zero
/// (magnitude zero, either sign).  One plain loop of integer operations,
/// which vectorise on 64-bit lanes without a 64-bit compare, does both: for
/// a magnitude `m` (the bits without the sign), `m + 2^52` reaches the sign
/// bit exactly when the exponent is all ones, and `m - 1` wraps to it
/// exactly when `m` is zero.
fn negative_weights(weights: &[Weight]) -> Option<usize> {
    const SIGN: u64 = 1 << 63;
    let mut invalid = 0u64;
    let mut negative = 0u64;
    for w in weights {
        let bits = w.to_bits();
        let magnitude = bits & !SIGN;
        invalid |= magnitude.wrapping_add(1 << 52) | magnitude.wrapping_sub(1);
        negative += bits >> 63;
    }
    (invalid & SIGN == 0).then_some(negative as usize)
}

/// The per-row check that names the first violation of a CSR whose fast pass
/// in [`validate_csr`] failed: it walks the rows in order, checking within a
/// row offsets before neighbors before weights.  (On valid input it returns
/// the entry counts, as it did when it was the whole check.)
fn first_corruption(
    offsets: &[usize],
    neighbors: &[VertexId],
    weights: &[Weight],
) -> Result<(usize, usize), CorruptGraph> {
    let n = offsets.len() - 1;
    let mut positive = 0usize;
    let mut negative = 0usize;
    for v in 0..n {
        let start = offsets[v];
        let end = offsets[v + 1];
        if end < start {
            return Err(CorruptGraph::NonMonotoneOffsets { vertex: v });
        }
        // Monotonicity plus the final-offset check bounds every row, but an
        // interior offset past the end would still slice out of range before
        // the *pairwise* check reaches the decreasing step, so bound it here.
        if end > neighbors.len() {
            return Err(CorruptGraph::NonMonotoneOffsets { vertex: v });
        }
        let mut prev: Option<VertexId> = None;
        for &t in &neighbors[start..end] {
            if (t as usize) >= n {
                return Err(CorruptGraph::TargetOutOfRange {
                    vertex: v,
                    target: t,
                });
            }
            if (t as usize) == v {
                return Err(CorruptGraph::SelfLoop { vertex: v });
            }
            if let Some(p) = prev {
                if t <= p {
                    return Err(CorruptGraph::UnsortedRow { vertex: v });
                }
            }
            prev = Some(t);
        }
        for &w in &weights[start..end] {
            if !w.is_finite() {
                return Err(CorruptGraph::NonFiniteWeight { vertex: v });
            }
            if w == 0.0 {
                return Err(CorruptGraph::ZeroWeight { vertex: v });
            }
            if w > 0.0 {
                positive += 1;
            } else {
                negative += 1;
            }
        }
    }
    Ok((positive, negative))
}

/// A reference to one endpoint of an undirected edge, as seen from a fixed source vertex.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdgeRef {
    /// The other endpoint of the edge.
    pub neighbor: VertexId,
    /// The (signed) weight of the edge.
    pub weight: Weight,
}

/// Recycled CSR arrays `(offsets, neighbors, weights)`, handed back and forth
/// between a builder that writes into them and [`SignedGraph::into_raw_csr`], so a
/// loop of rebuilds re-uses one set of allocations.
pub type CsrBuffers = (Vec<usize>, Vec<VertexId>, Vec<Weight>);

/// An immutable, undirected, signed-weight graph in CSR (compressed sparse row) form.
///
/// Every undirected edge `(u, v)` with weight `w` is stored twice, once in the adjacency
/// list of `u` and once in that of `v`.  Self-loops are not allowed.  Edge weights are
/// non-zero; zero-weight edges are dropped by [`crate::GraphBuilder`].
///
/// The type plays two roles in the workspace:
///
/// * an ordinary weighted graph (`G1`, `G2`, `G_{D+}`) when all weights are positive, and
/// * the *difference graph* `G_D` of the paper, whose weights may be negative.
#[derive(Debug, Clone, PartialEq)]
pub struct SignedGraph {
    /// `offsets[v]..offsets[v+1]` indexes `neighbors`/`weights` for vertex `v`.
    offsets: CsrColumn<usize>,
    /// Flattened adjacency: neighbor ids.
    neighbors: CsrColumn<VertexId>,
    /// Flattened adjacency: edge weights, parallel to `neighbors`.
    weights: CsrColumn<Weight>,
    /// Number of undirected edges (each counted once).
    num_edges: usize,
    /// Number of undirected edges with strictly positive weight.
    num_positive_edges: usize,
    /// Number of undirected edges with strictly negative weight.
    num_negative_edges: usize,
}

impl SignedGraph {
    /// Builds a graph directly from CSR arrays.
    ///
    /// This is an internal constructor used by [`crate::GraphBuilder`]; the arrays must
    /// already be consistent (symmetrical adjacency, sorted or unsorted neighbor order).
    pub(crate) fn from_csr(
        offsets: Vec<usize>,
        neighbors: Vec<VertexId>,
        weights: Vec<Weight>,
    ) -> Self {
        debug_assert_eq!(neighbors.len(), weights.len());
        debug_assert_eq!(*offsets.last().unwrap_or(&0), neighbors.len());
        let num_pos = weights.iter().filter(|w| **w > 0.0).count();
        let num_neg = weights.iter().filter(|w| **w < 0.0).count();
        debug_assert!(
            neighbors.len().is_multiple_of(2),
            "undirected edges stored twice"
        );
        SignedGraph {
            offsets: offsets.into(),
            neighbors: neighbors.into(),
            weights: weights.into(),
            num_edges: (num_pos + num_neg) / 2,
            num_positive_edges: num_pos / 2,
            num_negative_edges: num_neg / 2,
        }
    }

    /// Assembles a graph from pre-validated CSR columns and directed
    /// positive/negative entry counts — the zero-copy entry point of the
    /// pack reader ([`crate::pack`]) and the snapshot merge of
    /// [`crate::DeltaGraph`].  Callers must have run [`validate_csr`] over
    /// the column contents first, or built them valid, with the counts kept
    /// alongside.
    pub(crate) fn from_columns(
        offsets: CsrColumn<usize>,
        neighbors: CsrColumn<VertexId>,
        weights: CsrColumn<Weight>,
        positive_entries: usize,
        negative_entries: usize,
    ) -> Self {
        debug_assert_eq!(neighbors.len(), weights.len());
        debug_assert_eq!(positive_entries + negative_entries, neighbors.len());
        SignedGraph {
            offsets,
            neighbors,
            weights,
            num_edges: (positive_entries + negative_entries) / 2,
            num_positive_edges: positive_entries / 2,
            num_negative_edges: negative_entries / 2,
        }
    }

    /// Whether any CSR column aliases memory-mapped pack storage rather than
    /// an owned heap allocation (see [`crate::pack`]).  Reported in serving
    /// stats; mutation transparently copies mapped columns out first.
    pub fn is_pack_backed(&self) -> bool {
        self.offsets.is_mapped() || self.neighbors.is_mapped() || self.weights.is_mapped()
    }

    /// Builds a graph from **untrusted** CSR arrays, validating every
    /// representation invariant.
    ///
    /// The arrays must describe a consistent undirected graph: `n + 1`
    /// monotone offsets starting at zero and ending at the adjacency length,
    /// parallel neighbor/weight arrays of even length, in-range neighbor ids,
    /// no self-loops, rows strictly ascending by neighbor, weights finite and
    /// non-zero.  Violations return [`CorruptGraph`] instead of risking
    /// out-of-bounds panics deep inside a solver — this is the required entry
    /// point for bytes read from disk or the network (memory-mapped packs go
    /// through the same validation in [`crate::pack`]).
    ///
    /// Adjacency symmetry (each undirected edge stored in both endpoint
    /// rows) is **not** verified — an asymmetric input yields a graph whose
    /// edge counts are halved entry counts, never unsoundness.  Trusted
    /// callers that maintain the invariants by construction should use
    /// [`Self::from_raw_csr_unchecked`], which skips the O(n + m) scan.
    pub fn from_raw_csr(
        offsets: Vec<usize>,
        neighbors: Vec<VertexId>,
        weights: Vec<Weight>,
    ) -> Result<Self, CorruptGraph> {
        let (positive, negative) = validate_csr(&offsets, &neighbors, &weights)?;
        Ok(SignedGraph {
            offsets: offsets.into(),
            neighbors: neighbors.into(),
            weights: weights.into(),
            num_edges: (positive + negative) / 2,
            num_positive_edges: positive / 2,
            num_negative_edges: negative / 2,
        })
    }

    /// Builds a graph directly from CSR arrays, recounting the edge
    /// statistics but skipping invariant validation (debug assertions only).
    ///
    /// This is the zero-cost constructor of callers that maintain recycled
    /// CSR buffers whose invariants hold by construction (the α-sweep's
    /// in-place reweighting); untrusted input must go through
    /// [`Self::from_raw_csr`] instead, and everything else through
    /// [`crate::GraphBuilder`].
    pub fn from_raw_csr_unchecked(
        offsets: Vec<usize>,
        neighbors: Vec<VertexId>,
        weights: Vec<Weight>,
    ) -> Self {
        debug_assert!(!offsets.is_empty(), "offsets must have n + 1 entries");
        debug_assert_eq!(offsets[0], 0);
        debug_assert!(offsets.windows(2).all(|w| w[0] <= w[1]));
        debug_assert!(
            weights.iter().all(|&w| w != 0.0),
            "zero weights are dropped"
        );
        SignedGraph::from_csr(offsets, neighbors, weights)
    }

    /// Decomposes the graph into its CSR arrays `(offsets, neighbors, weights)`, the
    /// inverse of [`Self::from_raw_csr`].  Used to recycle buffers across rebuilds.
    /// Pack-backed columns are copied into owned `Vec`s here.
    pub fn into_raw_csr(self) -> CsrBuffers {
        (
            self.offsets.into_vec(),
            self.neighbors.into_vec(),
            self.weights.into_vec(),
        )
    }

    /// Decomposes the graph into the CSR arrays it owns, for a writer that
    /// recycles them: unlike [`Self::into_raw_csr`], a pack-backed column
    /// yields an empty `Vec` instead of a copy.
    pub(crate) fn into_reusable_csr(self) -> CsrBuffers {
        (
            self.offsets.into_reusable(),
            self.neighbors.into_reusable(),
            self.weights.into_reusable(),
        )
    }

    /// The whole CSR arrays `(offsets, neighbors, weights)`, for copying runs
    /// of rows at once.
    pub(crate) fn csr(&self) -> (&[usize], &[VertexId], &[Weight]) {
        (&self.offsets, &self.neighbors, &self.weights)
    }

    /// The capacities of the neighbour and weight columns.
    #[cfg(test)]
    pub(crate) fn column_capacities(&self) -> (usize, usize) {
        (self.neighbors.capacity(), self.weights.capacity())
    }

    /// Grows the vertex set to `n` (a no-op when it is not smaller) by appending
    /// isolated vertices: the last CSR offset is repeated, no edge array changes
    /// (a pack-backed offsets column is copied out first).  Padding changes
    /// neither densities nor any solver's output.
    pub fn pad_vertices(&mut self, n: usize) {
        if n > self.num_vertices() {
            let offsets = self.offsets.make_mut();
            let end = offsets[offsets.len() - 1];
            offsets.resize(n + 1, end);
        }
    }

    /// Creates an empty graph with `n` isolated vertices.
    pub fn empty(n: usize) -> Self {
        SignedGraph {
            offsets: vec![0; n + 1].into(),
            neighbors: Vec::new().into(),
            weights: Vec::new().into(),
            num_edges: 0,
            num_positive_edges: 0,
            num_negative_edges: 0,
        }
    }

    /// Number of vertices `n = |V|`.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges `m = |E|` (each edge counted once).
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Number of undirected edges with strictly positive weight (`m+` in the paper).
    #[inline]
    pub fn num_positive_edges(&self) -> usize {
        self.num_positive_edges
    }

    /// Number of undirected edges with strictly negative weight (`m−` in the paper).
    #[inline]
    pub fn num_negative_edges(&self) -> usize {
        self.num_negative_edges
    }

    /// Degree (number of incident edges) of vertex `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        let v = v as usize;
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Weighted degree of `v` in the full graph: `W(v; G) = Σ_{(v,u) ∈ E} A(v,u)`.
    #[inline]
    pub fn weighted_degree(&self, v: VertexId) -> Weight {
        self.neighbor_slices(v).1.iter().sum()
    }

    /// Iterates over all vertices `0..n`.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        0..self.num_vertices() as VertexId
    }

    /// Iterates over the neighbors of `v` together with edge weights.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> NeighborIter<'_> {
        let (nbrs, ws) = self.neighbor_slices(v);
        NeighborIter {
            neighbors: nbrs.iter(),
            weights: ws.iter(),
        }
    }

    /// Raw neighbor / weight slices of vertex `v` (parallel arrays).
    #[inline]
    pub fn neighbor_slices(&self, v: VertexId) -> (&[VertexId], &[Weight]) {
        let v = v as usize;
        let range = self.offsets[v]..self.offsets[v + 1];
        (&self.neighbors[range.clone()], &self.weights[range])
    }

    /// Iterates every undirected edge `(u, v, w)` exactly once, with `u < v`,
    /// in row order.  Each row is sorted, so its edges to higher vertices are
    /// the slice after its first neighbour above `u`: the walk skips the
    /// lower half instead of testing every neighbour.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId, Weight)> + '_ {
        EdgeWalk {
            offsets: &self.offsets,
            neighbors: &self.neighbors,
            weights: &self.weights,
            row: 0,
            at: 0,
            end: 0,
        }
    }

    /// Looks up the weight of the edge `(u, v)`, or `None` if the edge does not exist.
    ///
    /// Linear scan of the smaller adjacency list; adjacency lists are sorted by the
    /// builder so a binary search is used when the list is long.
    pub fn edge_weight(&self, u: VertexId, v: VertexId) -> Option<Weight> {
        if u == v {
            return None;
        }
        let (from, to) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        let (nbrs, ws) = self.neighbor_slices(from);
        if nbrs.len() >= 16 {
            match nbrs.binary_search(&to) {
                Ok(i) => Some(ws[i]),
                Err(_) => None,
            }
        } else {
            nbrs.iter().position(|&x| x == to).map(|i| ws[i])
        }
    }

    /// Returns `true` if vertices `u` and `v` are adjacent.
    #[inline]
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.edge_weight(u, v).is_some()
    }

    /// Total weight of all edges of the graph, `W(V) = Σ_{(u,v) ∈ E} A(u,v)`.
    pub fn total_weight(&self) -> Weight {
        self.weights.iter().sum::<Weight>() / 2.0
    }

    /// Maximum edge weight, or `None` for an edgeless graph.
    pub fn max_edge_weight(&self) -> Option<Weight> {
        self.weights.iter().copied().fold(None, |acc, w| match acc {
            None => Some(w),
            Some(a) => Some(a.max(w)),
        })
    }

    /// Minimum edge weight, or `None` for an edgeless graph.
    pub fn min_edge_weight(&self) -> Option<Weight> {
        self.weights.iter().copied().fold(None, |acc, w| match acc {
            None => Some(w),
            Some(a) => Some(a.min(w)),
        })
    }

    /// The edge with the maximum weight, `(u, v, w)`, or `None` for an edgeless graph.
    ///
    /// Of equally heavy edges the first in [`Self::edges`] order wins.  The scan
    /// walks the weight column once, keeping the first strictly heaviest entry with
    /// no data-dependent branch, then finds that entry's row.  In a symmetric CSR
    /// with sorted rows the first heaviest entry in row-major order is the upper
    /// (`u < v`) entry of the first heaviest edge: its mirror sits in a later row.
    /// An asymmetric raw CSR (see [`Self::from_raw_csr`]) yields its first heaviest
    /// entry as `(row, neighbor, weight)`, which may have `u > v`.
    pub fn max_weight_edge(&self) -> Option<(VertexId, VertexId, Weight)> {
        let (offsets, neighbors, weights) = self.csr();
        let (mut best, mut best_w) = (0usize, *weights.first()?);
        for (i, &w) in weights.iter().enumerate() {
            let heavier = w > best_w;
            best = if heavier { i } else { best };
            best_w = if heavier { w } else { best_w };
        }
        // The entry's row is the last one starting at or before it.
        let row = offsets.partition_point(|&start| start <= best) - 1;
        Some((row as VertexId, neighbors[best], best_w))
    }

    /// Average edge weight over all edges, 0.0 for an edgeless graph.
    pub fn average_edge_weight(&self) -> Weight {
        if self.num_edges == 0 {
            0.0
        } else {
            self.total_weight() / self.num_edges as Weight
        }
    }

    // ------------------------------------------------------------------
    // Induced-subgraph metrics
    //
    // The paper's notation (Table I) defines the total degree of a subset as
    //   W(S) = Σ_{(u,v) ∈ E(S)} A(u,v) = Σ_{u ∈ S} W(u; G(S)),
    // where E(S) contains *both orientations* of every undirected edge, i.e. every edge
    // inside S contributes twice.  We follow that convention so the reported numbers
    // (average degree ρ(S) = W(S)/|S|, edge density W(S)/|S|²) match the paper's tables.
    // ------------------------------------------------------------------

    /// Total degree of the induced subgraph `G(S)`:
    /// `W(S) = Σ_{u ∈ S} W(u; G(S))` — every edge inside `S` counted **twice**, exactly
    /// as in the paper.
    pub fn total_degree(&self, subset: &[VertexId]) -> Weight {
        let marks = VertexSubset::from_slice(self.num_vertices(), subset);
        self.total_degree_marked(&marks)
    }

    /// [`Self::total_degree`] with a pre-built membership set (avoids re-allocation in
    /// hot loops).
    pub fn total_degree_marked(&self, subset: &VertexSubset) -> Weight {
        let mut sum = 0.0;
        for &u in subset.iter() {
            let (nbrs, ws) = self.neighbor_slices(u);
            for (&v, &w) in nbrs.iter().zip(ws) {
                if subset.contains(v) {
                    sum += w;
                }
            }
        }
        sum
    }

    /// Sum of edge weights inside `G(S)` with every edge counted **once**
    /// (i.e. `W(S)/2`).  Provided for callers that want the "number of collaborations"
    /// style total rather than the degree-sum.
    pub fn total_edge_weight(&self, subset: &[VertexId]) -> Weight {
        self.total_degree(subset) / 2.0
    }

    /// Average degree of the induced subgraph `ρ(S) = W(S)/|S|`.
    ///
    /// Returns 0.0 for an empty subset (consistent with the paper's convention that a
    /// single vertex has density 0).
    pub fn average_degree(&self, subset: &[VertexId]) -> Weight {
        if subset.is_empty() {
            return 0.0;
        }
        self.total_degree(subset) / subset.len() as Weight
    }

    /// Edge density of the induced subgraph `W(S)/|S|²`, the discrete analogue of graph
    /// affinity used in the paper's result tables.
    pub fn edge_density(&self, subset: &[VertexId]) -> Weight {
        if subset.is_empty() {
            return 0.0;
        }
        self.total_degree(subset) / (subset.len() as Weight * subset.len() as Weight)
    }

    /// Weighted degree of `v` restricted to the induced subgraph `G(S)`:
    /// `W(v; G(S)) = Σ_{(v,u) ∈ E(S)} A(v,u)`.
    pub fn weighted_degree_in(&self, v: VertexId, subset: &VertexSubset) -> Weight {
        let (nbrs, ws) = self.neighbor_slices(v);
        nbrs.iter()
            .zip(ws)
            .filter(|(n, _)| subset.contains(**n))
            .map(|(_, w)| *w)
            .sum()
    }

    /// Number of edges inside the induced subgraph `G(S)`.
    pub fn induced_edge_count(&self, subset: &[VertexId]) -> usize {
        let marks = VertexSubset::from_slice(self.num_vertices(), subset);
        let mut cnt = 0usize;
        for &u in subset {
            let (nbrs, _) = self.neighbor_slices(u);
            cnt += nbrs.iter().filter(|&&v| marks.contains(v)).count();
        }
        cnt / 2
    }

    /// Returns `true` if the induced subgraph `G(S)` is a clique whose edges all have
    /// strictly positive weight ("positive clique" in the paper's terminology).
    ///
    /// A subset of size 0 or 1 is considered a positive clique (it trivially has no
    /// negative edge and no missing edge).
    pub fn is_positive_clique(&self, subset: &[VertexId]) -> bool {
        let marks = VertexSubset::from_slice(self.num_vertices(), subset);
        self.is_positive_clique_marked(&marks)
    }

    /// [`Self::is_positive_clique`] with a pre-built membership set (avoids
    /// re-allocation in hot reporting loops).
    pub fn is_positive_clique_marked(&self, subset: &VertexSubset) -> bool {
        let k = subset.len();
        if k <= 1 {
            return true;
        }
        for &u in subset.iter() {
            let (nbrs, ws) = self.neighbor_slices(u);
            let mut pos_inside = 0usize;
            for (&v, &w) in nbrs.iter().zip(ws) {
                if subset.contains(v) {
                    if w <= 0.0 {
                        return false;
                    }
                    pos_inside += 1;
                }
            }
            if pos_inside != k - 1 {
                return false;
            }
        }
        true
    }

    /// Extracts the induced subgraph on `subset` as a standalone [`SignedGraph`].
    ///
    /// Returns the new graph together with the mapping `new id -> original id`
    /// (the i-th entry is the original id of new vertex `i`).
    pub fn induced_subgraph(&self, subset: &[VertexId]) -> (SignedGraph, Vec<VertexId>) {
        let mut order: Vec<VertexId> = subset.to_vec();
        order.sort_unstable();
        order.dedup();
        let mut remap = vec![VertexId::MAX; self.num_vertices()];
        for (new, &old) in order.iter().enumerate() {
            remap[old as usize] = new as VertexId;
        }
        let mut builder = crate::GraphBuilder::new(order.len());
        for &old_u in &order {
            let (nbrs, ws) = self.neighbor_slices(old_u);
            for (&old_v, &w) in nbrs.iter().zip(ws) {
                if old_u < old_v && remap[old_v as usize] != VertexId::MAX {
                    builder.add_edge(remap[old_u as usize], remap[old_v as usize], w);
                }
            }
        }
        (builder.build(), order)
    }

    /// Builds `G_{D+}`: the subgraph of this graph containing only the edges with
    /// strictly positive weight (all vertices are kept).
    pub fn positive_part(&self) -> SignedGraph {
        let mut builder = crate::GraphBuilder::new(self.num_vertices());
        for (u, v, w) in self.edges() {
            if w > 0.0 {
                builder.add_edge(u, v, w);
            }
        }
        builder.build()
    }

    /// Returns a copy of the graph with every edge weight negated (turns the Emerging
    /// difference graph into the Disappearing one and vice versa).
    pub fn negated(&self) -> SignedGraph {
        let mut g = self.clone();
        for w in g.weights.make_mut() {
            *w = -*w;
        }
        std::mem::swap(&mut g.num_positive_edges, &mut g.num_negative_edges);
        g
    }

    /// Removes all edges incident to `vertices` **in place**, compacting the
    /// CSR arrays without allocating a new graph.  The vertex set itself is
    /// unchanged, so vertex ids stay stable.
    ///
    /// This is the peeling primitive of the top-k miners: peeling `k`
    /// subgraphs out of one difference graph touches each remaining adjacency
    /// entry once per round instead of rebuilding (re-bucketing, re-sorting)
    /// a fresh graph per round.
    pub fn remove_vertices_in_place(&mut self, vertices: &[VertexId]) {
        if vertices.is_empty() {
            return;
        }
        let n = self.num_vertices();
        let exclude = VertexSubset::from_slice(n, vertices);
        // Pack-backed columns are copied out once here (copy-on-write); the
        // compaction below then runs in place as before.
        let offsets = self.offsets.make_mut();
        let neighbors = self.neighbors.make_mut();
        let weights = self.weights.make_mut();
        let mut old_start = offsets[0];
        let mut write = 0usize;
        for v in 0..n {
            let old_end = offsets[v + 1];
            if !exclude.contains(v as VertexId) {
                // `write` never overtakes the read cursor, so rows can be
                // compacted front-to-back within the same buffers.
                for read in old_start..old_end {
                    let neighbor = neighbors[read];
                    if !exclude.contains(neighbor) {
                        neighbors[write] = neighbor;
                        weights[write] = weights[read];
                        write += 1;
                    }
                }
            }
            offsets[v + 1] = write;
            old_start = old_end;
        }
        neighbors.truncate(write);
        weights.truncate(write);
        let num_pos = weights.iter().filter(|w| **w > 0.0).count();
        let num_neg = weights.len() - num_pos;
        self.num_positive_edges = num_pos / 2;
        self.num_negative_edges = num_neg / 2;
        self.num_edges = self.num_positive_edges + self.num_negative_edges;
    }

    /// Returns a copy of the graph with every edge weight transformed by `f`; edges whose
    /// transformed weight is zero are dropped.
    pub fn map_weights<F: Fn(Weight) -> Weight>(&self, f: F) -> SignedGraph {
        let mut builder = crate::GraphBuilder::new(self.num_vertices());
        for (u, v, w) in self.edges() {
            let new_w = f(w);
            if new_w != 0.0 {
                builder.add_edge(u, v, new_w);
            }
        }
        builder.build()
    }

    /// The set `T_u` of the paper: `u` together with all of its neighbors ("ego net").
    pub fn ego_net(&self, u: VertexId) -> Vec<VertexId> {
        let mut t: Vec<VertexId> = Vec::with_capacity(self.degree(u) + 1);
        t.push(u);
        t.extend(self.neighbors(u).map(|e| e.neighbor));
        t.sort_unstable();
        t.dedup();
        t
    }
}

/// Iterator over `(neighbor, weight)` pairs of a vertex, yielding [`EdgeRef`]s.
#[derive(Debug, Clone)]
pub struct NeighborIter<'a> {
    neighbors: std::slice::Iter<'a, VertexId>,
    weights: std::slice::Iter<'a, Weight>,
}

impl<'a> Iterator for NeighborIter<'a> {
    type Item = EdgeRef;

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        match (self.neighbors.next(), self.weights.next()) {
            (Some(&n), Some(&w)) => Some(EdgeRef {
                neighbor: n,
                weight: w,
            }),
            _ => None,
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.neighbors.size_hint()
    }
}

impl<'a> ExactSizeIterator for NeighborIter<'a> {}

/// The iterator of [`SignedGraph::edges`]: entries `at..end` of row
/// `row - 1` are still to come.
struct EdgeWalk<'g> {
    offsets: &'g [usize],
    neighbors: &'g [VertexId],
    weights: &'g [Weight],
    row: usize,
    at: usize,
    end: usize,
}

impl Iterator for EdgeWalk<'_> {
    type Item = (VertexId, VertexId, Weight);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        while self.at == self.end {
            if self.row + 1 == self.offsets.len() {
                return None;
            }
            let (start, end) = (self.offsets[self.row], self.offsets[self.row + 1]);
            let u = self.row as VertexId;
            self.at = start + self.neighbors[start..end].partition_point(|&v| v <= u);
            self.end = end;
            self.row += 1;
        }
        let at = self.at;
        self.at += 1;
        Some((
            (self.row - 1) as VertexId,
            self.neighbors[at],
            self.weights[at],
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    /// A copy of `g` without the edges incident to `vertices`, rebuilt through
    /// the builder: the oracle of [`SignedGraph::remove_vertices_in_place`].
    fn without_vertices(g: &SignedGraph, vertices: &[VertexId]) -> SignedGraph {
        let exclude = VertexSubset::from_slice(g.num_vertices(), vertices);
        let mut builder = GraphBuilder::new(g.num_vertices());
        for (u, v, w) in g.edges() {
            if !exclude.contains(u) && !exclude.contains(v) {
                builder.add_edge(u, v, w);
            }
        }
        builder.build()
    }

    /// The example difference graph of Fig. 1 in the paper:
    /// G1 edges: (1,2)=?, ... we use the GD from the figure directly:
    /// GD: (v1,v2)=1, (v1,v4)=-2, (v3,v4)=3, (v3,v5)=-1, (v4,v5)=2  (0-indexed below)
    fn fig1_gd() -> SignedGraph {
        let mut b = GraphBuilder::new(5);
        b.add_edge(0, 1, 1.0);
        b.add_edge(0, 3, -2.0);
        b.add_edge(2, 3, 3.0);
        b.add_edge(2, 4, -1.0);
        b.add_edge(3, 4, 2.0);
        b.build()
    }

    #[test]
    fn counts_and_degrees() {
        let g = fig1_gd();
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 5);
        assert_eq!(g.num_positive_edges(), 3);
        assert_eq!(g.num_negative_edges(), 2);
        assert_eq!(g.degree(3), 3);
        assert!((g.weighted_degree(3) - 3.0).abs() < 1e-12); // -2 + 3 + 2
        assert!((g.weighted_degree(0) - (-1.0)).abs() < 1e-12); // 1 - 2
    }

    #[test]
    fn remove_vertices_in_place_matches_without_vertices() {
        // Deterministic pseudo-random signed graph.
        let mut state = 0x5eed_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as f64 / (u32::MAX as f64 / 2.0) - 1.0
        };
        let n = 30;
        let mut b = GraphBuilder::new(n);
        for u in 0..n as VertexId {
            for v in (u + 1)..n as VertexId {
                let r = next();
                if r.abs() > 0.6 {
                    b.add_edge(u, v, r * 4.0);
                }
            }
        }
        let g = b.build();
        for removal in [
            vec![],
            vec![0],
            vec![3, 7, 11, 29],
            (0..15).collect::<Vec<_>>(),
        ] {
            let copied = without_vertices(&g, &removal);
            let mut in_place = g.clone();
            in_place.remove_vertices_in_place(&removal);
            assert_eq!(in_place.num_edges(), copied.num_edges());
            assert_eq!(in_place.num_positive_edges(), copied.num_positive_edges());
            assert_eq!(in_place.num_negative_edges(), copied.num_negative_edges());
            assert_eq!(in_place.num_vertices(), g.num_vertices());
            for (u, v, w) in copied.edges() {
                assert_eq!(in_place.edge_weight(u, v), Some(w));
            }
            for (u, v, _) in in_place.edges() {
                assert!(copied.edge_weight(u, v).is_some(), "extra edge ({u},{v})");
            }
            for &v in &removal {
                assert_eq!(in_place.degree(v), 0);
            }
        }
    }

    #[test]
    fn remove_vertices_in_place_is_idempotent() {
        let mut g = fig1_gd();
        g.remove_vertices_in_place(&[3]);
        assert_eq!(g.num_edges(), 2); // (0,1) and (2,4) survive
        assert_eq!(g.edge_weight(0, 1), Some(1.0));
        assert_eq!(g.edge_weight(2, 4), Some(-1.0));
        let before = g.clone();
        g.remove_vertices_in_place(&[3]);
        assert_eq!(g, before);
        g.remove_vertices_in_place(&[0, 1, 2, 4]);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.num_vertices(), 5);
    }

    #[test]
    fn edge_lookup() {
        let g = fig1_gd();
        assert_eq!(g.edge_weight(0, 1), Some(1.0));
        assert_eq!(g.edge_weight(1, 0), Some(1.0));
        assert_eq!(g.edge_weight(0, 3), Some(-2.0));
        assert_eq!(g.edge_weight(1, 2), None);
        assert_eq!(g.edge_weight(2, 2), None);
        assert!(g.has_edge(3, 4));
        assert!(!g.has_edge(1, 4));
    }

    #[test]
    fn totals() {
        let g = fig1_gd();
        assert!((g.total_weight() - 3.0).abs() < 1e-12);
        assert_eq!(g.max_edge_weight(), Some(3.0));
        assert_eq!(g.min_edge_weight(), Some(-2.0));
        let (u, v, w) = g.max_weight_edge().unwrap();
        assert_eq!((u, v), (2, 3));
        assert!((w - 3.0).abs() < 1e-12);
        assert!((g.average_edge_weight() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn induced_metrics() {
        let g = fig1_gd();
        // S = {v3, v4, v5} = {2, 3, 4}: edges (2,3)=3, (2,4)=-1, (3,4)=2
        // W(S) (degree-sum convention) = 2 * (3 - 1 + 2) = 8
        let s = vec![2, 3, 4];
        assert!((g.total_degree(&s) - 8.0).abs() < 1e-12);
        assert!((g.total_edge_weight(&s) - 4.0).abs() < 1e-12);
        assert!((g.average_degree(&s) - 8.0 / 3.0).abs() < 1e-12);
        assert!((g.edge_density(&s) - 8.0 / 9.0).abs() < 1e-12);
        assert_eq!(g.induced_edge_count(&s), 3);
        // S = {2, 3}: single positive edge → positive clique
        assert!(g.is_positive_clique(&[2, 3]));
        assert!(!g.is_positive_clique(&s)); // contains a negative edge
                                            // empty / singleton conventions
        assert_eq!(g.average_degree(&[]), 0.0);
        assert_eq!(g.average_degree(&[1]), 0.0);
        assert!(g.is_positive_clique(&[1]));
    }

    #[test]
    fn positive_part_and_negation() {
        let g = fig1_gd();
        let gp = g.positive_part();
        assert_eq!(gp.num_vertices(), 5);
        assert_eq!(gp.num_edges(), 3);
        assert_eq!(gp.num_negative_edges(), 0);
        assert_eq!(gp.edge_weight(0, 3), None);

        let gn = g.negated();
        assert_eq!(gn.num_positive_edges(), 2);
        assert_eq!(gn.num_negative_edges(), 3);
        assert_eq!(gn.edge_weight(2, 3), Some(-3.0));
    }

    #[test]
    fn induced_subgraph_extraction() {
        let g = fig1_gd();
        let (sub, map) = g.induced_subgraph(&[2, 3, 4]);
        assert_eq!(sub.num_vertices(), 3);
        assert_eq!(sub.num_edges(), 3);
        assert_eq!(map, vec![2, 3, 4]);
        // old (2,3)=3 → new (0,1)=3
        assert_eq!(sub.edge_weight(0, 1), Some(3.0));
    }

    #[test]
    fn ego_net() {
        let g = fig1_gd();
        assert_eq!(g.ego_net(3), vec![0, 2, 3, 4]);
        assert_eq!(g.ego_net(1), vec![0, 1]);
    }

    #[test]
    fn empty_graph() {
        let g = SignedGraph::empty(3);
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.max_edge_weight(), None);
        assert_eq!(g.average_edge_weight(), 0.0);
        assert_eq!(g.max_weight_edge(), None);
    }

    #[test]
    fn without_vertices_drops_incident_edges() {
        let g = fig1_gd();
        let pruned = without_vertices(&g, &[3]);
        assert_eq!(pruned.num_vertices(), 5);
        assert_eq!(pruned.num_edges(), 2); // only (0,1) and (2,4) survive
        assert_eq!(pruned.edge_weight(2, 3), None);
        assert_eq!(pruned.edge_weight(0, 1), Some(1.0));
        // Removing nothing is the identity on the edge set.
        let same = without_vertices(&g, &[]);
        assert_eq!(same.num_edges(), g.num_edges());
    }

    #[test]
    fn map_and_filter() {
        let g = fig1_gd();
        let doubled = g.map_weights(|w| 2.0 * w);
        assert_eq!(doubled.edge_weight(2, 3), Some(6.0));
        let clamped = g.map_weights(|w| if w > 2.0 { 2.0 } else { w });
        assert_eq!(clamped.edge_weight(2, 3), Some(2.0));
    }
}
