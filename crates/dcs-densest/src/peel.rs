//! Priority structures for greedy peeling.
//!
//! Greedy peeling repeatedly removes the vertex of minimum *current* weighted degree and
//! must update the degrees of its neighbors.  The paper suggests a segment tree; the
//! production peel uses `DegreeHeap`, an indexed 4-ary min-heap that updates a key in
//! place (a per-vertex position index finds it), so it never holds more than one entry
//! per alive vertex.  Both are `O((n + m) log n)`.  A naive `O(n)`-per-extraction
//! re-scan and the segment tree are kept for the ablation benchmark `bench_ablations`.

use std::cmp::Ordering;

use dcs_graph::{VertexId, Weight};

/// Children per [`DegreeHeap`] node: half the depth of a binary heap, and a node's
/// child keys sit next to each other in memory.
const ARITY: usize = 4;

/// [`DegreeHeap`] position of a vertex that is not in the heap.
const ABSENT: u32 = u32::MAX;

/// The ascending `(degree, vertex)` key order of the peel: degrees by `partial_cmp`
/// collapsed to `Equal`, then vertex id — *not* `total_cmp`, which orders `-0.0` and
/// `0.0` differently.
#[inline]
fn key_cmp(a: (Weight, VertexId), b: (Weight, VertexId)) -> Ordering {
    a.0.partial_cmp(&b.0)
        .unwrap_or(Ordering::Equal)
        .then_with(|| a.1.cmp(&b.1))
}

/// Indexed 4-ary min-heap over the `(degree, vertex)` keys of the alive vertices.
///
/// `pos` maps every vertex to its slot, so a degree change moves that one entry up or
/// down in place: the heap holds exactly the alive vertices, never a stale entry.  The
/// minimum is unique (vertex ids break every tie), so the pop sequence depends only on
/// the keys, not on how the heap was built.
#[derive(Debug, Clone, Default)]
pub(crate) struct DegreeHeap {
    /// Heap-ordered keys: each slot's key precedes those of its `ARITY` children.
    slots: Vec<(Weight, VertexId)>,
    /// Slot of each vertex, or `ABSENT` once popped (or never pushed).
    pos: Vec<u32>,
}

impl DegreeHeap {
    /// Empties the heap for a universe of `n` vertices, keeping all allocated capacity.
    pub(crate) fn reset(&mut self, n: usize) {
        self.slots.clear();
        self.pos.clear();
        self.pos.resize(n, ABSENT);
    }

    /// Appends vertex `v` with key `degree` without restoring heap order; call
    /// [`DegreeHeap::heapify`] after the last push.
    pub(crate) fn push_unordered(&mut self, v: VertexId, degree: Weight) {
        self.pos[v as usize] = self.slots.len() as u32;
        self.slots.push((degree, v));
    }

    /// Restores heap order after [`DegreeHeap::push_unordered`] (bottom-up, `O(n)`).
    pub(crate) fn heapify(&mut self) {
        if self.slots.len() > 1 {
            for i in (0..=(self.slots.len() - 2) / ARITY).rev() {
                self.sift_down(i);
            }
        }
    }

    /// Performs `degree(v) -= w` if `v` is still in the heap and returns whether it
    /// was.  A positive `w` lowers the key (sift up), a negative one raises it (sift
    /// down).
    #[inline]
    pub(crate) fn subtract(&mut self, v: VertexId, w: Weight) -> bool {
        let p = self.pos[v as usize];
        if p == ABSENT {
            return false;
        }
        let p = p as usize;
        self.slots[p].0 -= w;
        if w > 0.0 {
            self.sift_up(p);
        } else if w < 0.0 {
            self.sift_down(p);
        }
        true
    }

    fn sift_up(&mut self, mut i: usize) {
        let key = self.slots[i];
        while i > 0 {
            let parent = (i - 1) / ARITY;
            let above = self.slots[parent];
            if key_cmp(key, above).is_ge() {
                break;
            }
            self.place(i, above);
            i = parent;
        }
        self.place(i, key);
    }

    fn sift_down(&mut self, mut i: usize) {
        let key = self.slots[i];
        let len = self.slots.len();
        loop {
            let first = ARITY * i + 1;
            if first >= len {
                break;
            }
            let mut child = first;
            let mut below = self.slots[first];
            for c in first + 1..(first + ARITY).min(len) {
                if key_cmp(self.slots[c], below).is_lt() {
                    child = c;
                    below = self.slots[c];
                }
            }
            if key_cmp(below, key).is_ge() {
                break;
            }
            self.place(i, below);
            i = child;
        }
        self.place(i, key);
    }

    #[inline]
    fn place(&mut self, i: usize, key: (Weight, VertexId)) {
        self.slots[i] = key;
        self.pos[key.1 as usize] = i as u32;
    }
}

/// Reusable scratch state of a greedy peel: the degree heap, the alive flags, the
/// removal order and the best-prefix marks.
///
/// A peel allocates all of this on first use and a **reused** workspace performs no
/// heap allocation at all in steady state (every buffer keeps its capacity across
/// internal resets).  One workspace serves any number of sequential peels of graphs
/// of any size; it is the peel-shaped slice of `dcs_core`'s `SolverWorkspace`.
#[derive(Debug, Clone, Default)]
pub struct PeelWorkspace {
    pub(crate) heap: DegreeHeap,
    pub(crate) alive: Vec<bool>,
    pub(crate) removal_order: Vec<VertexId>,
    pub(crate) in_best: Vec<bool>,
    /// Per-chunk partial sums of the initial degrees (see
    /// [`crate::charikar::DEGREE_CHUNK`]): the total degree is folded from these
    /// in ascending chunk order, a fixed order of float additions.
    pub(crate) chunk_sums: Vec<Weight>,
}

impl PeelWorkspace {
    /// An empty workspace (buffers grow on first use).
    pub fn new() -> Self {
        PeelWorkspace::default()
    }

    /// Clears every buffer and re-sizes the per-vertex arrays for a universe of `n`
    /// vertices, keeping all allocated capacity.
    pub(crate) fn reset(&mut self, n: usize) {
        self.heap.reset(n);
        self.alive.clear();
        self.alive.resize(n, false);
        self.removal_order.clear();
        self.in_best.clear();
        self.in_best.resize(n, false);
        self.chunk_sums.clear();
    }

    /// The vertices removed by the most recent peel, in removal order — the
    /// surface the oracle property tests compare.
    pub fn removal_order(&self) -> &[VertexId] {
        &self.removal_order
    }
}

/// Common interface of the peeling priority structures.
pub trait MinDegreeQueue {
    /// Creates the structure from the initial weighted degrees.
    fn from_degrees(degrees: &[Weight]) -> Self;
    /// Removes and returns the alive vertex with the minimum current degree.
    fn pop_min(&mut self) -> Option<(VertexId, Weight)>;
    /// Adds `delta` to the current degree of `v` (no effect if `v` was already popped).
    fn adjust(&mut self, v: VertexId, delta: Weight);
    /// Number of vertices still alive.
    fn len(&self) -> usize;
    /// Returns `true` if no vertex is alive.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl MinDegreeQueue for DegreeHeap {
    fn from_degrees(degrees: &[Weight]) -> Self {
        let mut heap = DegreeHeap::default();
        heap.reset(degrees.len());
        for (v, &d) in degrees.iter().enumerate() {
            heap.push_unordered(v as VertexId, d);
        }
        heap.heapify();
        heap
    }

    fn pop_min(&mut self) -> Option<(VertexId, Weight)> {
        let last = self.slots.pop()?;
        let (degree, v) = match self.slots.first_mut() {
            Some(root) => std::mem::replace(root, last),
            None => last,
        };
        self.pos[v as usize] = ABSENT;
        if !self.slots.is_empty() {
            self.sift_down(0);
        }
        Some((v, degree))
    }

    fn adjust(&mut self, v: VertexId, delta: Weight) {
        self.subtract(v, -delta);
    }

    fn len(&self) -> usize {
        self.slots.len()
    }
}

/// Naive re-scan implementation of [`MinDegreeQueue`]: `pop_min` is `O(n)`.
///
/// Kept only as the baseline of the `bench_peeling` ablation; do not use for large
/// graphs.
#[derive(Debug, Clone)]
pub struct RescanQueue {
    degree: Vec<Weight>,
    alive: Vec<bool>,
    alive_count: usize,
}

impl MinDegreeQueue for RescanQueue {
    fn from_degrees(degrees: &[Weight]) -> Self {
        RescanQueue {
            degree: degrees.to_vec(),
            alive: vec![true; degrees.len()],
            alive_count: degrees.len(),
        }
    }

    fn pop_min(&mut self) -> Option<(VertexId, Weight)> {
        let mut best: Option<(VertexId, Weight)> = None;
        for (v, &d) in self.degree.iter().enumerate() {
            if !self.alive[v] {
                continue;
            }
            match best {
                None => best = Some((v as VertexId, d)),
                Some((_, bd)) if d < bd => best = Some((v as VertexId, d)),
                _ => {}
            }
        }
        if let Some((v, _)) = best {
            self.alive[v as usize] = false;
            self.alive_count -= 1;
        }
        best
    }

    fn adjust(&mut self, v: VertexId, delta: Weight) {
        if self.alive[v as usize] {
            self.degree[v as usize] += delta;
        }
    }

    fn len(&self) -> usize {
        self.alive_count
    }
}

/// Segment-tree implementation of [`MinDegreeQueue`] — the structure suggested by the
/// paper for Algorithm 1.  `pop_min` and `adjust` are both `O(log n)` with a very small
/// constant; it is an ablation comparator of the production peel's indexed heap.
#[derive(Debug, Clone)]
pub struct SegmentTreeQueue {
    /// Number of leaves (padded to the next power of two).
    size: usize,
    /// `tree[i]` holds the (degree, vertex) minimum of the subtree rooted at `i`;
    /// removed vertices hold `f64::INFINITY`.
    tree: Vec<(Weight, VertexId)>,
    degree: Vec<Weight>,
    alive: Vec<bool>,
    alive_count: usize,
}

impl SegmentTreeQueue {
    fn update_leaf(&mut self, v: usize, value: Weight) {
        let mut i = self.size + v;
        self.tree[i] = (value, v as VertexId);
        while i > 1 {
            i /= 2;
            let left = self.tree[2 * i];
            let right = self.tree[2 * i + 1];
            self.tree[i] = if left.0 <= right.0 { left } else { right };
        }
    }
}

impl MinDegreeQueue for SegmentTreeQueue {
    fn from_degrees(degrees: &[Weight]) -> Self {
        let n = degrees.len();
        let size = n.next_power_of_two().max(1);
        let mut queue = SegmentTreeQueue {
            size,
            tree: vec![(Weight::INFINITY, 0); 2 * size],
            degree: degrees.to_vec(),
            alive: vec![true; n],
            alive_count: n,
        };
        for (v, &d) in degrees.iter().enumerate() {
            queue.tree[size + v] = (d, v as VertexId);
        }
        for i in (1..size).rev() {
            let left = queue.tree[2 * i];
            let right = queue.tree[2 * i + 1];
            queue.tree[i] = if left.0 <= right.0 { left } else { right };
        }
        queue
    }

    fn pop_min(&mut self) -> Option<(VertexId, Weight)> {
        if self.alive_count == 0 {
            return None;
        }
        let (degree, vertex) = self.tree[1];
        debug_assert!(
            degree.is_finite(),
            "alive vertices must have finite degrees"
        );
        self.alive[vertex as usize] = false;
        self.alive_count -= 1;
        self.update_leaf(vertex as usize, Weight::INFINITY);
        Some((vertex, degree))
    }

    fn adjust(&mut self, v: VertexId, delta: Weight) {
        let vi = v as usize;
        if !self.alive[vi] {
            return;
        }
        self.degree[vi] += delta;
        self.update_leaf(vi, self.degree[vi]);
    }

    fn len(&self) -> usize {
        self.alive_count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise<Q: MinDegreeQueue>(degrees: &[Weight]) -> Vec<(VertexId, Weight)> {
        let mut q = Q::from_degrees(degrees);
        assert_eq!(q.len(), degrees.len());
        // Adjust vertex 0 upward and vertex 2 downward before popping.
        q.adjust(0, 10.0);
        q.adjust(2, -10.0);
        let mut order = Vec::new();
        while let Some(item) = q.pop_min() {
            order.push(item);
        }
        assert!(q.is_empty());
        order
    }

    #[test]
    fn heap_and_rescan_agree() {
        let degrees = vec![1.0, 5.0, 3.0, -2.0, 0.5];
        let a = exercise::<DegreeHeap>(&degrees);
        let b = exercise::<RescanQueue>(&degrees);
        assert_eq!(a, b);
        // After adjustments the degrees are [11, 5, -7, -2, 0.5] → popped ascending.
        let popped: Vec<VertexId> = a.iter().map(|(v, _)| *v).collect();
        assert_eq!(popped, vec![2, 3, 4, 1, 0]);
    }

    #[test]
    fn segment_tree_agrees_with_other_queues() {
        let degrees = vec![1.0, 5.0, 3.0, -2.0, 0.5, 7.25, 0.0];
        let a = exercise::<DegreeHeap>(&degrees);
        let c = exercise::<SegmentTreeQueue>(&degrees);
        // Popping order may differ on exact ties, but the multiset of (vertex, degree)
        // pairs and the sortedness by degree must match.
        let mut a_sorted = a.clone();
        let mut c_sorted = c.clone();
        a_sorted.sort_by_key(|x| x.0);
        c_sorted.sort_by_key(|x| x.0);
        assert_eq!(a_sorted, c_sorted);
        for pair in c.windows(2) {
            assert!(pair[0].1 <= pair[1].1 + 1e-12);
        }
    }

    #[test]
    fn segment_tree_pop_after_empty() {
        let mut q = SegmentTreeQueue::from_degrees(&[2.0]);
        assert_eq!(q.pop_min(), Some((0, 2.0)));
        assert_eq!(q.pop_min(), None);
        q.adjust(0, 5.0); // ignored: vertex already removed
        assert_eq!(q.pop_min(), None);
    }

    #[test]
    fn segment_tree_adjust_changes_order() {
        let mut q = SegmentTreeQueue::from_degrees(&[1.0, 2.0, 3.0]);
        q.adjust(2, -5.0); // degree of 2 becomes -2 → must pop first
        assert_eq!(q.pop_min().unwrap().0, 2);
        assert_eq!(q.pop_min().unwrap().0, 0);
        assert_eq!(q.pop_min().unwrap().0, 1);
    }

    #[test]
    fn adjust_after_pop_is_ignored() {
        let mut q = DegreeHeap::from_degrees(&[1.0, 2.0]);
        let (v, _) = q.pop_min().unwrap();
        assert_eq!(v, 0);
        q.adjust(0, -100.0); // vertex 0 is gone; must not resurface
        let (v2, d2) = q.pop_min().unwrap();
        assert_eq!(v2, 1);
        assert_eq!(d2, 2.0);
        assert!(q.pop_min().is_none());
    }

    #[test]
    fn negative_degrees_supported() {
        let mut q = DegreeHeap::from_degrees(&[-5.0, -1.0, -3.0]);
        assert_eq!(q.pop_min().unwrap().0, 0);
        assert_eq!(q.pop_min().unwrap().0, 2);
        assert_eq!(q.pop_min().unwrap().0, 1);
    }
}
