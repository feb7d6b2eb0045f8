//! Dense vertex subsets with O(1) membership tests.

use crate::VertexId;

/// A subset of the vertices of a graph with `n` vertices.
///
/// Internally a membership bit-vector plus an insertion-ordered list of members, so that
/// membership tests, insertion and iteration are all O(1)/O(|S|).  This is the workhorse
/// set representation for the peeling and local-search algorithms, which repeatedly ask
/// "is this neighbor still inside S?" while iterating adjacency lists.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VertexSubset {
    member: Vec<bool>,
    items: Vec<VertexId>,
}

impl VertexSubset {
    /// Creates an empty subset of a vertex universe of size `n`.
    pub fn new(n: usize) -> Self {
        VertexSubset {
            member: vec![false; n],
            items: Vec::new(),
        }
    }

    /// Creates a subset containing every vertex `0..n`.
    pub fn full(n: usize) -> Self {
        VertexSubset {
            member: vec![true; n],
            items: (0..n as VertexId).collect(),
        }
    }

    /// Creates a subset from a slice of vertex ids (duplicates are ignored).
    pub fn from_slice(n: usize, vertices: &[VertexId]) -> Self {
        let mut s = VertexSubset::new(n);
        s.items.reserve(vertices.len());
        for &v in vertices {
            s.insert(v);
        }
        s
    }

    /// Re-initialises the subset to an **empty** set over a universe of `n` vertices,
    /// keeping all allocated capacity — the scratch-reuse primitive of the solver
    /// workspaces (a reused subset performs no allocation once its buffers have grown
    /// to the largest universe seen).
    pub fn reset_universe(&mut self, n: usize) {
        self.clear();
        self.member.resize(n, false);
    }

    /// Inserts every vertex of `vertices` (duplicates are ignored).
    pub fn insert_all(&mut self, vertices: &[VertexId]) {
        self.items.reserve(vertices.len());
        for &v in vertices {
            self.insert(v);
        }
    }

    /// Size of the vertex universe.
    pub fn universe_size(&self) -> usize {
        self.member.len()
    }

    /// Number of vertices currently in the subset.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Returns `true` if the subset is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, v: VertexId) -> bool {
        self.member[v as usize]
    }

    /// Inserts `v`; returns `true` if it was not already present.
    pub fn insert(&mut self, v: VertexId) -> bool {
        if self.member[v as usize] {
            false
        } else {
            self.member[v as usize] = true;
            self.items.push(v);
            true
        }
    }

    /// Removes `v`; returns `true` if it was present.
    ///
    /// O(|S|) in the worst case because the insertion-ordered list must be compacted;
    /// the compaction uses `swap_remove` so the amortised cost is O(1) when removal order
    /// does not matter (it never does for the algorithms in this workspace).
    pub fn remove(&mut self, v: VertexId) -> bool {
        if !self.member[v as usize] {
            return false;
        }
        self.member[v as usize] = false;
        // Find and swap-remove from the list.
        if let Some(pos) = self.items.iter().position(|&x| x == v) {
            self.items.swap_remove(pos);
        }
        true
    }

    /// Removes every vertex, keeping the allocated capacity.
    pub fn clear(&mut self) {
        for &v in &self.items {
            self.member[v as usize] = false;
        }
        self.items.clear();
    }

    /// Iterates the members in insertion order (arbitrary but stable between mutations).
    pub fn iter(&self) -> std::slice::Iter<'_, VertexId> {
        self.items.iter()
    }

    /// Returns the members as a slice.
    pub fn as_slice(&self) -> &[VertexId] {
        &self.items
    }

    /// Consumes the subset and returns its members sorted ascending, without cloning —
    /// the zero-copy solution-normalisation accessor.
    pub fn into_sorted_vec(mut self) -> Vec<VertexId> {
        self.items.sort_unstable();
        self.items
    }
}

impl<'a> IntoIterator for &'a VertexSubset {
    type Item = &'a VertexId;
    type IntoIter = std::slice::Iter<'a, VertexId>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl FromIterator<VertexId> for VertexSubset {
    /// Builds a subset whose universe is just large enough to hold the maximum id.
    fn from_iter<T: IntoIterator<Item = VertexId>>(iter: T) -> Self {
        let items: Vec<VertexId> = iter.into_iter().collect();
        let n = items.iter().map(|&v| v as usize + 1).max().unwrap_or(0);
        VertexSubset::from_slice(n, &items)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_ops() {
        let mut s = VertexSubset::new(5);
        assert!(s.is_empty());
        assert!(s.insert(3));
        assert!(!s.insert(3));
        assert!(s.insert(1));
        assert_eq!(s.len(), 2);
        assert!(s.contains(3));
        assert!(!s.contains(0));
        assert!(s.remove(3));
        assert!(!s.remove(3));
        assert_eq!(s.len(), 1);
        assert_eq!(s.clone().into_sorted_vec(), vec![1]);
    }

    #[test]
    fn sorted_accessors_agree_and_avoid_cloning() {
        let s = VertexSubset::from_slice(8, &[7, 2, 5, 0]);
        assert!(s.contains(5) && !s.contains(1));
        assert_eq!(s.clone().into_sorted_vec(), vec![0, 2, 5, 7]);
        assert_eq!(s.into_sorted_vec(), vec![0, 2, 5, 7]);
    }

    #[test]
    fn full_and_clear() {
        let mut s = VertexSubset::full(4);
        assert_eq!(s.len(), 4);
        assert!(s.contains(0) && s.contains(3));
        s.clear();
        assert!(s.is_empty());
        assert!(!s.contains(2));
        assert_eq!(s.universe_size(), 4);
    }

    #[test]
    fn from_slice_dedups() {
        let s = VertexSubset::from_slice(6, &[5, 1, 5, 1, 2]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.clone().into_sorted_vec(), vec![1, 2, 5]);
    }

    #[test]
    fn reset_universe_reuses_buffers() {
        let mut s = VertexSubset::from_slice(6, &[5, 1]);
        s.reset_universe(10);
        assert!(s.is_empty());
        assert_eq!(s.universe_size(), 10);
        assert!(!s.contains(5));
        s.insert_all(&[9, 2, 9]);
        assert_eq!(s.len(), 2);
        // Shrinking drops the tail of the universe.
        s.reset_universe(3);
        assert_eq!(s.universe_size(), 3);
        assert!(s.is_empty());
        s.insert(2);
        assert!(s.contains(2));
    }

    #[test]
    fn from_iterator() {
        let s: VertexSubset = vec![2u32, 7, 2].into_iter().collect();
        assert_eq!(s.universe_size(), 8);
        assert_eq!(s.len(), 2);
    }
}
