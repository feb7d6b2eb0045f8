//! Priority structures for greedy peeling.
//!
//! Greedy peeling repeatedly removes the vertex of minimum *current* weighted degree and
//! must update the degrees of its neighbors.  The paper suggests a segment tree; the
//! peel uses `DegreeHeap`, an indexed 4-ary min-heap that updates a key in place (a
//! per-vertex position index finds it), so it never holds more than one entry per
//! alive vertex.  Both are `O((n + m) log n)`; the segment tree survives as the
//! oracle of the `peeling_structures_agree` property test.
//!
//! Each heap slot is one `u128` key that packs the `(degree, vertex id)` pair so that
//! plain unsigned order is the peel's order: every comparison is one integer compare,
//! and the pick among four children is branch-free.  From high bits to low, a key
//! holds an order-preserving `u64` image of the degree's bits (`-0.0` folded onto
//! `0.0`, so the two still tie and the vertex id decides, as under `partial_cmp`), the
//! vertex id, and one bit that restores `-0.0` when the degree is read back.  Degree
//! updates decode the degree, subtract in `f64` and re-encode, so the degree bits are
//! exactly those of plain `f64` arithmetic.  The order assumes finite weights (the
//! text, wire and `G_D` boundaries refuse anything else); a NaN degree would sort
//! below `-inf` or above `+inf` instead of tying.

use dcs_graph::{VertexId, Weight};

/// Children per [`DegreeHeap`] node: half the depth of a binary heap, and a node's
/// child keys sit next to each other in memory.  `DegreeHeap::sift_down` picks the
/// smallest of a full node's children by a fixed two-round tournament of four.
const ARITY: usize = 4;

/// [`DegreeHeap`] position of a vertex that is not in the heap.
const ABSENT: u32 = u32::MAX;

/// The sign bit of an `f64` bit pattern (and the bit pattern of `-0.0`).
const SIGN: u64 = 1 << 63;

/// The heap key of vertex `v` at `degree`: the degree's order-preserving image in the
/// high 64 bits, the vertex id in bits 32..64 and the `-0.0` marker in bit 0.
///
/// Non-negative bit patterns get their sign bit set and negative ones are inverted,
/// which maps numeric order onto unsigned order; `-0.0` is first replaced by `0.0`.
#[inline]
fn encode(degree: Weight, v: VertexId) -> u128 {
    let bits = degree.to_bits();
    let negative_zero = bits == SIGN;
    let bits = if negative_zero { 0 } else { bits };
    let image = bits ^ (((bits as i64 >> 63) as u64) | SIGN);
    (u128::from(image) << 64) | (u128::from(v) << 32) | u128::from(negative_zero)
}

/// The vertex id of a heap key.
#[inline]
fn key_vertex(key: u128) -> VertexId {
    (key >> 32) as VertexId
}

/// The exact degree bits of a heap key (the inverse of [`encode`]).
#[inline]
fn key_degree(key: u128) -> Weight {
    let image = (key >> 64) as u64;
    let bits = image ^ ((((!image) as i64 >> 63) as u64) | SIGN);
    Weight::from_bits(bits | ((key as u64 & 1) << 63))
}

/// Indexed 4-ary min-heap over the `(degree, vertex)` keys of the alive vertices.
///
/// `pos` maps every vertex to its slot, so a degree change moves that one entry up or
/// down in place: the heap holds exactly the alive vertices, never a stale entry.  The
/// minimum is unique (vertex ids break every tie), so the pop sequence depends only on
/// the keys, not on how the heap was built.
#[derive(Debug, Clone, Default)]
pub(crate) struct DegreeHeap {
    /// Heap-ordered [`encode`]d keys: each slot's key is below those of its `ARITY`
    /// children.
    slots: Vec<u128>,
    /// Slot of each vertex, or `ABSENT` once popped (or never pushed).
    pos: Vec<u32>,
}

impl DegreeHeap {
    /// A heap holding every vertex `v` of `0..degrees.len()` at key `degrees[v]`.
    pub(crate) fn from_degrees(degrees: &[Weight]) -> Self {
        let mut heap = DegreeHeap::default();
        heap.reset(degrees.len());
        for (v, &d) in degrees.iter().enumerate() {
            heap.push_unordered(v as VertexId, d);
        }
        heap.heapify();
        heap
    }

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
        self.slots.push(encode(degree, v));
    }

    /// Restores heap order after [`DegreeHeap::push_unordered`] (bottom-up, `O(n)`).
    pub(crate) fn heapify(&mut self) {
        if self.slots.len() > 1 {
            for i in (0..=(self.slots.len() - 2) / ARITY).rev() {
                self.sift_down(i, self.slots[i]);
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
        let key = encode(key_degree(self.slots[p]) - w, v);
        if w > 0.0 {
            self.sift_up(p, key);
        } else if w < 0.0 {
            self.sift_down(p, key);
        } else {
            self.slots[p] = key;
        }
        true
    }

    /// Removes and returns the vertex with the smallest `(degree, vertex id)` key.
    /// The returned degree has the exact bits the updates left (the quasi-clique
    /// peel subtracts it from its running edge weight).
    pub(crate) fn pop_min(&mut self) -> Option<(VertexId, Weight)> {
        let last = self.slots.pop()?;
        let top = if self.slots.is_empty() {
            last
        } else {
            let top = self.slots[0];
            self.sift_down(0, last);
            top
        };
        let v = key_vertex(top);
        self.pos[v as usize] = ABSENT;
        Some((v, key_degree(top)))
    }

    /// Moves `key`, whose slot is `i`, towards the root until its parent's key is
    /// smaller.
    fn sift_up(&mut self, mut i: usize, key: u128) {
        while i > 0 {
            let parent = (i - 1) / ARITY;
            let above = self.slots[parent];
            if key >= above {
                break;
            }
            self.place(i, above);
            i = parent;
        }
        self.place(i, key);
    }

    /// Moves `key`, whose slot is `i`, towards the leaves until every child's key is
    /// larger.
    fn sift_down(&mut self, mut i: usize, key: u128) {
        let len = self.slots.len();
        loop {
            let first = ARITY * i + 1;
            let (child, below) = if first + ARITY <= len {
                // A full node: the smaller of each pair, then the smaller of the two
                // winners, all by selects rather than branches.
                let kids: &[u128; ARITY] = self.slots[first..first + ARITY]
                    .try_into()
                    .expect("a full node has ARITY children");
                let low = usize::from(kids[1] < kids[0]);
                let high = 2 + usize::from(kids[3] < kids[2]);
                let pick = if kids[high] < kids[low] { high } else { low };
                // The mask leaves `pick` unchanged and drops the bounds check.
                (first + pick, kids[pick & (ARITY - 1)])
            } else if first < len {
                let mut child = first;
                for c in first + 1..len {
                    if self.slots[c] < self.slots[child] {
                        child = c;
                    }
                }
                (child, self.slots[child])
            } else {
                break;
            };
            if below >= key {
                break;
            }
            self.place(i, below);
            i = child;
        }
        self.place(i, key);
    }

    #[inline]
    fn place(&mut self, i: usize, key: u128) {
        self.slots[i] = key;
        self.pos[key_vertex(key) as usize] = i as u32;
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heap_and_rescan_agree() {
        let mut degrees = vec![1.0, 5.0, 3.0, -2.0, 0.5];
        let mut heap = DegreeHeap::from_degrees(&degrees);
        // Raise vertex 0 and lower vertex 2 before popping.
        for (v, w) in [(0, -10.0), (2, 10.0)] {
            assert!(heap.subtract(v, w));
            degrees[v as usize] -= w;
        }
        let popped: Vec<(VertexId, Weight)> = std::iter::from_fn(|| heap.pop_min()).collect();
        // A linear rescan for the minimum of the remaining degrees pops the same
        // pairs: after the updates the degrees are [11, 5, -7, -2, 0.5].
        let mut rescan = Vec::new();
        let mut alive: Vec<VertexId> = (0..degrees.len() as VertexId).collect();
        while let Some(i) = (0..alive.len())
            .min_by(|&a, &b| degrees[alive[a] as usize].total_cmp(&degrees[alive[b] as usize]))
        {
            let v = alive.remove(i);
            rescan.push((v, degrees[v as usize]));
        }
        assert_eq!(popped, rescan);
        let order: Vec<VertexId> = popped.iter().map(|&(v, _)| v).collect();
        assert_eq!(order, vec![2, 3, 4, 1, 0]);
    }

    #[test]
    fn adjust_after_pop_is_ignored() {
        let mut q = DegreeHeap::from_degrees(&[1.0, 2.0]);
        let (v, _) = q.pop_min().unwrap();
        assert_eq!(v, 0);
        // Vertex 0 is gone: the update reports it and it must not resurface.
        assert!(!q.subtract(0, 100.0));
        let (v2, d2) = q.pop_min().unwrap();
        assert_eq!(v2, 1);
        assert_eq!(d2, 2.0);
        assert!(q.pop_min().is_none());
    }

    /// Every vertex's degree, as bits, in the order the heap pops them.
    fn drain_bits(heap: &mut DegreeHeap) -> Vec<(VertexId, u64)> {
        std::iter::from_fn(|| heap.pop_min())
            .map(|(v, d)| (v, d.to_bits()))
            .collect()
    }

    #[test]
    fn pop_min_returns_the_pushed_degree_bits() {
        let degrees = [
            0.0,
            -0.0,
            5e-324,
            -5e-324,
            f64::MAX,
            -f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1.5,
            -2.25,
        ];
        let mut heap = DegreeHeap::from_degrees(&degrees);
        let popped = drain_bits(&mut heap);
        let mut expected: Vec<(VertexId, u64)> = (0..degrees.len() as VertexId)
            .map(|v| (v, degrees[v as usize].to_bits()))
            .collect();
        // Ascending degree under `<`, the smaller id first on a tie (0.0 and -0.0).
        expected.sort_by(|a, b| {
            let (x, y) = (Weight::from_bits(a.1), Weight::from_bits(b.1));
            x.partial_cmp(&y).unwrap().then(a.0.cmp(&b.0))
        });
        assert_eq!(popped, expected);
    }

    #[test]
    fn negative_and_positive_zero_tie_on_the_vertex_id() {
        for degrees in [[0.0, -0.0], [-0.0, 0.0]] {
            let mut heap = DegreeHeap::from_degrees(&degrees);
            assert_eq!(
                drain_bits(&mut heap),
                vec![(0, degrees[0].to_bits()), (1, degrees[1].to_bits())]
            );
        }
        // A zero reached by an update ties a pushed -0.0 the same way.
        let mut heap = DegreeHeap::from_degrees(&[-0.0, 1.0, 5.0]);
        assert!(heap.subtract(1, 1.0));
        assert_eq!(
            heap.pop_min().map(|(v, d)| (v, d.to_bits())),
            Some((0, SIGN))
        );
        assert_eq!(heap.pop_min().map(|(v, d)| (v, d.to_bits())), Some((1, 0)));
        let mut heap = DegreeHeap::from_degrees(&[1.0, -0.0]);
        assert!(heap.subtract(0, 1.0));
        assert_eq!(heap.pop_min().map(|(v, d)| (v, d.to_bits())), Some((0, 0)));
        assert_eq!(
            heap.pop_min().map(|(v, d)| (v, d.to_bits())),
            Some((1, SIGN))
        );
    }

    #[test]
    fn keys_order_ids_up_to_the_largest_vertex_id() {
        let top = u32::MAX - 1;
        for degree in [-3.5, -0.0, 0.0, 2.0, f64::INFINITY] {
            for v in [0, 1, top - 1, top] {
                let key = encode(degree, v);
                assert_eq!(key_vertex(key), v);
                assert_eq!(key_degree(key).to_bits(), degree.to_bits());
            }
            assert!(encode(degree, 0) < encode(degree, 1));
            assert!(encode(degree, top - 1) < encode(degree, top));
            // The degree outranks any id.
            assert!(encode(degree, top) < encode(degree + 1.0, 0) || degree.is_infinite());
        }
        assert!(encode(-0.0, top) > encode(0.0, top - 1));
        assert!(encode(-0.0, 0) < encode(0.0, 1));
    }

    #[test]
    fn subtract_leaves_the_bits_of_plain_subtraction() {
        let mut state = 0x51ED_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let steps = [0.1, -0.3, 1e-300, -7.0, 2.5e15, 0.7, -1e-17, 3.0];
        let n = 16;
        let mut expected: Vec<Weight> = (0..n).map(|v| v as Weight * 0.25 - 1.0).collect();
        let mut heap = DegreeHeap::from_degrees(&expected);
        for _ in 0..2_000 {
            let v = (next() % n as u64) as usize;
            let w = steps[(next() % steps.len() as u64) as usize];
            assert!(heap.subtract(v as VertexId, w));
            expected[v] -= w;
        }
        let mut popped = drain_bits(&mut heap);
        popped.sort_unstable();
        let expected: Vec<(VertexId, u64)> = expected
            .iter()
            .enumerate()
            .map(|(v, d)| (v as VertexId, d.to_bits()))
            .collect();
        assert_eq!(popped, expected);
    }

    #[test]
    fn negative_degrees_supported() {
        let mut q = DegreeHeap::from_degrees(&[-5.0, -1.0, -3.0]);
        assert_eq!(q.pop_min().unwrap().0, 0);
        assert_eq!(q.pop_min().unwrap().0, 2);
        assert_eq!(q.pop_min().unwrap().0, 1);
    }
}
