//! A compact growable bitset over `u64` words.
//!
//! Used for NFA state sets (subset construction), visited-node sets during
//! simple-path search, and the rows of [`crate::BoolMatrix`].

use serde::{Deserialize, Serialize};
use std::fmt;

/// A fixed-capacity set of small integers backed by a `Vec<u64>`.
#[derive(Clone, Default, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct BitSet {
    words: Vec<u64>,
    capacity: usize,
}

impl BitSet {
    /// Creates an empty set able to hold values `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        Self {
            words: vec![0; capacity.div_ceil(64)],
            capacity,
        }
    }

    /// Creates a set containing all of `0..capacity`.
    pub fn full(capacity: usize) -> Self {
        let mut s = Self::new(capacity);
        for i in 0..capacity {
            s.insert(i);
        }
        s
    }

    /// Builds a set directly from backing words (bit `i` of word `w` is
    /// value `w·64 + i`), truncating or zero-extending to `capacity` and
    /// masking any tail bits beyond it.
    pub fn from_words(mut words: Vec<u64>, capacity: usize) -> Self {
        words.resize(capacity.div_ceil(64), 0);
        let tail = capacity % 64;
        if tail != 0 {
            if let Some(last) = words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
        Self { words, capacity }
    }

    /// Capacity (one past the largest storable value).
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Inserts `value`; returns `true` if it was newly inserted.
    #[inline]
    pub fn insert(&mut self, value: usize) -> bool {
        debug_assert!(
            value < self.capacity,
            "bitset index {value} out of capacity {}",
            self.capacity
        );
        let (w, b) = (value / 64, value % 64);
        let newly = self.words[w] & (1 << b) == 0;
        self.words[w] |= 1 << b;
        newly
    }

    /// Removes `value`; returns `true` if it was present.
    #[inline]
    pub fn remove(&mut self, value: usize) -> bool {
        let (w, b) = (value / 64, value % 64);
        let present = self.words[w] & (1 << b) != 0;
        self.words[w] &= !(1 << b);
        present
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, value: usize) -> bool {
        if value >= self.capacity {
            return false;
        }
        let (w, b) = (value / 64, value % 64);
        self.words[w] & (1 << b) != 0
    }

    /// Removes all elements.
    pub fn clear(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
    }

    /// Empties the set and makes its capacity `capacity`, reusing the
    /// word buffer: no allocation once the buffer has held that many
    /// words, unlike `BitSet::new`.
    pub fn reset(&mut self, capacity: usize) {
        self.words.clear();
        self.words.resize(capacity.div_ceil(64), 0);
        self.capacity = capacity;
    }

    /// Number of elements — a popcount over every word, `O(capacity/64)`
    /// however few bits are set. Hot loops should record the count once.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// In-place union; both sets must have the same capacity.
    /// Returns `true` if `self` changed.
    pub fn union_with(&mut self, other: &BitSet) -> bool {
        debug_assert_eq!(self.capacity, other.capacity);
        let mut changed = false;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            let before = *a;
            *a |= b;
            changed |= *a != before;
        }
        changed
    }

    /// In-place intersection.
    pub fn intersect_with(&mut self, other: &BitSet) {
        debug_assert_eq!(self.capacity, other.capacity);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// In-place intersection with a sorted slice of values, in
    /// `O(words + |sorted|)` without allocating: each word is masked with
    /// the bits of `sorted` that fall into its 64-value window.
    pub fn intersect_with_sorted(&mut self, sorted: &[u32]) {
        let mut i = 0;
        for (w, word) in self.words.iter_mut().enumerate() {
            if *word == 0 {
                // Still have to skip this window's entries.
                let end = ((w as u32) + 1) * 64;
                while i < sorted.len() && sorted[i] < end {
                    i += 1;
                }
                continue;
            }
            let end = ((w as u32) + 1) * 64;
            let mut mask = 0u64;
            while i < sorted.len() && sorted[i] < end {
                mask |= 1 << (sorted[i] % 64);
                i += 1;
            }
            *word &= mask;
        }
    }

    /// Makes `self` an exact copy of `other`, reusing the existing word
    /// buffer (no allocation when capacities match — unlike the derived
    /// `clone`, which always allocates a fresh `Vec`).
    pub fn copy_from(&mut self, other: &BitSet) {
        self.words.clear();
        self.words.extend_from_slice(&other.words);
        self.capacity = other.capacity;
    }

    /// In-place difference (`self \ other`).
    pub fn difference_with(&mut self, other: &BitSet) {
        debug_assert_eq!(self.capacity, other.capacity);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }

    /// Whether `self` and `other` share an element.
    pub fn intersects(&self, other: &BitSet) -> bool {
        self.words.iter().zip(&other.words).any(|(a, b)| a & b != 0)
    }

    /// Whether `self ⊆ other`.
    pub fn is_subset(&self, other: &BitSet) -> bool {
        self.words
            .iter()
            .zip(&other.words)
            .all(|(a, b)| a & !b == 0)
    }

    /// Iterates over elements in increasing order.
    pub fn iter(&self) -> BitSetIter<'_> {
        BitSetIter {
            set: self,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }

    /// The smallest element, if any.
    pub fn first(&self) -> Option<usize> {
        self.iter().next()
    }

    /// The backing words: bit `i` of word `w` is value `w·64 + i`.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Heap bytes allocated for the backing word buffer — the building
    /// block of the O(touched) memory accounting in `crpq-graph`'s
    /// relation layer.
    pub fn heap_bytes(&self) -> usize {
        self.words.capacity() * 8
    }

    /// The smallest element `≥ from`, if any — the seek primitive of
    /// leapfrog-style sorted intersection. Masks the partial first word,
    /// then skips zero words, so a seek costs `O(words until the hit)`
    /// rather than restarting a full iteration.
    pub fn first_at_or_after(&self, from: usize) -> Option<usize> {
        if from >= self.capacity {
            return None;
        }
        let mut wi = from / 64;
        let mut word = self.words[wi] & (!0u64 << (from % 64));
        loop {
            if word != 0 {
                return Some(wi * 64 + word.trailing_zeros() as usize);
            }
            wi += 1;
            word = *self.words.get(wi)?;
        }
    }
}

impl fmt::Debug for BitSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<usize> for BitSet {
    /// Builds a bitset sized to fit the maximum element (capacity `max+1`).
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let items: Vec<usize> = iter.into_iter().collect();
        let cap = items.iter().max().map_or(0, |m| m + 1);
        let mut s = BitSet::new(cap);
        for i in items {
            s.insert(i);
        }
        s
    }
}

/// Iterator over the elements of a [`BitSet`].
pub struct BitSetIter<'a> {
    set: &'a BitSet,
    word_idx: usize,
    current: u64,
}

impl Iterator for BitSetIter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some(self.word_idx * 64 + bit);
            }
            self.word_idx += 1;
            if self.word_idx >= self.set.words.len() {
                return None;
            }
            self.current = self.set.words[self.word_idx];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = BitSet::new(130);
        assert!(s.insert(0));
        assert!(s.insert(63));
        assert!(s.insert(64));
        assert!(s.insert(129));
        assert!(!s.insert(64), "double insert reports false");
        assert!(s.contains(0) && s.contains(63) && s.contains(64) && s.contains(129));
        assert!(!s.contains(1));
        assert_eq!(s.len(), 4);
        assert!(s.remove(64));
        assert!(!s.remove(64));
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn reset_empties_and_resizes() {
        let mut s = BitSet::full(130);
        s.reset(3);
        assert_eq!((s.capacity(), s.len()), (3, 0));
        assert_eq!(s, BitSet::new(3));
        s.insert(2);
        s.reset(200);
        assert_eq!(s, BitSet::new(200), "growing leaves no stale bit");
    }

    #[test]
    fn set_algebra() {
        let a: BitSet = [1usize, 2, 3, 70].into_iter().collect();
        let b: BitSet = [2usize, 70].into_iter().collect();
        let mut a2 = a.clone();
        let mut b2 = BitSet::new(a.capacity());
        b2.union_with(&b_resized(&b, a.capacity()));
        a2.intersect_with(&b2);
        assert_eq!(a2.iter().collect::<Vec<_>>(), vec![2, 70]);

        let mut d = a.clone();
        d.difference_with(&b2);
        assert_eq!(d.iter().collect::<Vec<_>>(), vec![1, 3]);

        assert!(b2.is_subset(&a));
        assert!(a.intersects(&b2));
    }

    fn b_resized(b: &BitSet, cap: usize) -> BitSet {
        let mut out = BitSet::new(cap);
        for x in b.iter() {
            out.insert(x);
        }
        out
    }

    #[test]
    fn iteration_order() {
        let s: BitSet = [5usize, 1, 200, 64].into_iter().collect();
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![1, 5, 64, 200]);
        assert_eq!(s.first(), Some(1));
    }

    #[test]
    fn first_at_or_after_seeks() {
        let s: BitSet = [5usize, 1, 200, 64].into_iter().collect();
        assert_eq!(s.first_at_or_after(0), Some(1));
        assert_eq!(s.first_at_or_after(1), Some(1));
        assert_eq!(s.first_at_or_after(2), Some(5));
        assert_eq!(s.first_at_or_after(6), Some(64), "crosses a word boundary");
        assert_eq!(s.first_at_or_after(65), Some(200), "skips zero words");
        assert_eq!(s.first_at_or_after(200), Some(200));
        assert_eq!(s.first_at_or_after(201), None);
        assert_eq!(s.first_at_or_after(10_000), None, "past capacity");
        assert_eq!(BitSet::new(0).first_at_or_after(0), None);
    }

    #[test]
    fn full_and_clear() {
        let mut s = BitSet::full(67);
        assert_eq!(s.len(), 67);
        s.clear();
        assert!(s.is_empty());
        assert_eq!(BitSet::new(0).first(), None);
    }
}
