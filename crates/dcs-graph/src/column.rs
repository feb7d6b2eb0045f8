//! Backing storage for CSR columns: owned `Vec`s or zero-copy pack slices.
//!
//! [`crate::SignedGraph`] historically stored its three CSR arrays as `Vec`s.
//! Memory-mapped graph packs ([`crate::pack`]) need the same graph to sit
//! directly on file-backed memory without copying, so each column is now a
//! [`CsrColumn`]: either an owned `Vec<T>` or a borrowed [`ArcSlice<T>`] view
//! into a mapped pack.  `Deref<Target = [T]>` keeps every read-only accessor
//! untouched; the few mutating methods call [`CsrColumn::make_mut`], which
//! transparently copies a mapped column into an owned `Vec` first
//! (copy-on-write), so solvers never observe the difference.

use std::ops::Deref;

use mmap::{ArcSlice, Pod};

/// One CSR column: an owned vector or a zero-copy slice of a mapped pack.
pub(crate) enum CsrColumn<T: Pod> {
    /// Heap-allocated storage, mutable in place.
    Owned(Vec<T>),
    /// A view into a memory-mapped (or buffered) pack; cloning bumps an
    /// `Arc`, mutation copies out first.
    Mapped(ArcSlice<T>),
}

impl<T: Pod> CsrColumn<T> {
    /// The column as a slice regardless of backing.
    #[inline]
    pub(crate) fn as_slice(&self) -> &[T] {
        match self {
            CsrColumn::Owned(v) => v,
            CsrColumn::Mapped(s) => s,
        }
    }

    /// Mutable access, converting a mapped column into an owned `Vec` first
    /// (the copy-on-write step; a no-op for already-owned columns).
    pub(crate) fn make_mut(&mut self) -> &mut Vec<T> {
        if let CsrColumn::Mapped(slice) = self {
            *self = CsrColumn::Owned(slice.to_vec());
        }
        match self {
            CsrColumn::Owned(v) => v,
            CsrColumn::Mapped(_) => unreachable!("mapped column was just copied out"),
        }
    }

    /// Extracts an owned `Vec`, copying when the column is mapped.
    pub(crate) fn into_vec(self) -> Vec<T> {
        match self {
            CsrColumn::Owned(v) => v,
            CsrColumn::Mapped(s) => s.to_vec(),
        }
    }

    /// Extracts the owned `Vec` for reuse, or an empty one when the column is
    /// mapped: a writer that recycles buffers gains nothing from a copy.
    pub(crate) fn into_reusable(self) -> Vec<T> {
        match self {
            CsrColumn::Owned(v) => v,
            CsrColumn::Mapped(_) => Vec::new(),
        }
    }

    /// Entries the column holds room for: an owned `Vec`'s capacity, a mapped
    /// slice's length.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        match self {
            CsrColumn::Owned(v) => v.capacity(),
            CsrColumn::Mapped(s) => s.len(),
        }
    }

    /// Whether the column aliases pack memory (as opposed to owning a heap
    /// allocation).
    pub(crate) fn is_mapped(&self) -> bool {
        matches!(self, CsrColumn::Mapped(_))
    }
}

impl<T: Pod> Deref for CsrColumn<T> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Pod> From<Vec<T>> for CsrColumn<T> {
    fn from(v: Vec<T>) -> Self {
        CsrColumn::Owned(v)
    }
}

impl<T: Pod> From<ArcSlice<T>> for CsrColumn<T> {
    fn from(s: ArcSlice<T>) -> Self {
        CsrColumn::Mapped(s)
    }
}

impl<T: Pod> Clone for CsrColumn<T> {
    fn clone(&self) -> Self {
        match self {
            CsrColumn::Owned(v) => CsrColumn::Owned(v.clone()),
            // Cheap: an Arc bump, no bytes copied.
            CsrColumn::Mapped(s) => CsrColumn::Mapped(s.clone()),
        }
    }
}

impl<T: Pod + PartialEq> PartialEq for CsrColumn<T> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Pod + std::fmt::Debug> std::fmt::Debug for CsrColumn<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(self.as_slice(), f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn mapped_u32(values: &[u32]) -> CsrColumn<u32> {
        let mut bytes = Vec::new();
        for v in values {
            bytes.extend_from_slice(&v.to_ne_bytes());
        }
        let owner = Arc::new(mmap::Mmap::from_vec(bytes));
        let len = values.len();
        CsrColumn::Mapped(ArcSlice::new(owner, 0, len).unwrap())
    }

    #[test]
    fn owned_and_mapped_compare_equal_by_contents() {
        let owned: CsrColumn<u32> = vec![1, 2, 3].into();
        let mapped = mapped_u32(&[1, 2, 3]);
        assert_eq!(owned, mapped);
        assert!(!owned.is_mapped());
        assert!(mapped.is_mapped());
        assert_eq!(&*owned, &*mapped);
    }

    #[test]
    fn make_mut_copies_mapped_out() {
        let mut col = mapped_u32(&[5, 6]);
        col.make_mut().push(7);
        assert!(!col.is_mapped());
        assert_eq!(&*col, &[5, 6, 7]);
    }

    #[test]
    fn clone_of_mapped_stays_mapped() {
        let col = mapped_u32(&[9]);
        let clone = col.clone();
        assert!(clone.is_mapped());
        assert_eq!(col, clone);
    }

    #[test]
    fn into_vec_roundtrips() {
        assert_eq!(mapped_u32(&[4, 2]).into_vec(), vec![4, 2]);
        let owned: CsrColumn<u32> = vec![4, 2].into();
        assert_eq!(owned.into_vec(), vec![4, 2]);
    }
}
