//! Array-backed binary min-heap.
//!
//! This is the default place-local priority queue. It differs from
//! `std::collections::BinaryHeap` in three ways that matter here: it is a
//! *min*-heap (matching the paper's "smaller is better" convention), it
//! supports [`BinaryHeap::split_half`] for the steal-half work-stealing
//! policy, and it supports [`BinaryHeap::retain`] for lazy dead-task
//! elimination.

use crate::SequentialPriorityQueue;

/// Array-backed binary min-heap.
///
/// `data[0]` is the minimum; children of `i` are `2i + 1` and `2i + 2`.
#[derive(Clone, Debug)]
pub struct BinaryHeap<T> {
    data: Vec<T>,
}

impl<T> Default for BinaryHeap<T> {
    fn default() -> Self {
        BinaryHeap { data: Vec::new() }
    }
}

impl<T: Ord> BinaryHeap<T> {
    /// Creates an empty heap with at least `cap` preallocated slots.
    ///
    /// The scheduler preallocates place-local queues to keep the hot
    /// push/pop path free of reallocation (cf. the Rust Performance Book's
    /// advice on `Vec` growth).
    pub fn with_capacity(cap: usize) -> Self {
        BinaryHeap {
            data: Vec::with_capacity(cap),
        }
    }

    /// Builds a heap from an arbitrary vector in O(n) (Floyd's heapify).
    pub fn from_vec(data: Vec<T>) -> Self {
        let mut h = BinaryHeap { data };
        h.heapify();
        h
    }

    fn heapify(&mut self) {
        let n = self.data.len();
        for i in (0..n / 2).rev() {
            self.sift_down(i);
        }
    }

    fn sift_up(&mut self, mut idx: usize) {
        while idx > 0 {
            let parent = (idx - 1) / 2;
            if self.data[idx] < self.data[parent] {
                self.data.swap(idx, parent);
                idx = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut idx: usize) {
        let n = self.data.len();
        loop {
            let l = 2 * idx + 1;
            let r = l + 1;
            let mut smallest = idx;
            if l < n && self.data[l] < self.data[smallest] {
                smallest = l;
            }
            if r < n && self.data[r] < self.data[smallest] {
                smallest = r;
            }
            if smallest == idx {
                return;
            }
            self.data.swap(idx, smallest);
            idx = smallest;
        }
    }

    /// Replaces the minimum with `item` and restores the invariant with a
    /// single sift-down, returning the old minimum — one pass instead of
    /// the two a `pop` followed by a `push` costs. On an empty heap `item`
    /// is simply pushed and `None` returned.
    pub fn replace_top(&mut self, item: T) -> Option<T> {
        match self.data.first_mut() {
            None => {
                self.data.push(item);
                None
            }
            Some(top) => {
                let old = std::mem::replace(top, item);
                self.sift_down(0);
                Some(old)
            }
        }
    }

    /// Checks the heap invariant; used by tests and `debug_assert!`s.
    pub fn is_valid_heap(&self) -> bool {
        (1..self.data.len()).all(|i| self.data[(i - 1) / 2] <= self.data[i])
    }

    /// Read-only view of the backing array (arbitrary order).
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }
}

impl<T: Ord> SequentialPriorityQueue<T> for BinaryHeap<T> {
    fn new() -> Self {
        Self::default()
    }

    fn push(&mut self, item: T) {
        self.data.push(item);
        self.sift_up(self.data.len() - 1);
    }

    fn pop(&mut self) -> Option<T> {
        let n = self.data.len();
        match n {
            0 => None,
            1 => self.data.pop(),
            _ => {
                self.data.swap(0, n - 1);
                let min = self.data.pop();
                self.sift_down(0);
                min
            }
        }
    }

    fn peek(&self) -> Option<&T> {
        self.data.first()
    }

    fn len(&self) -> usize {
        self.data.len()
    }

    fn clear(&mut self) {
        self.data.clear();
    }

    /// Removes ⌈len/2⌉ elements and returns them as a new heap.
    ///
    /// Elements at odd positions of the backing array are taken; because a
    /// binary heap's array interleaves "good" and "bad" elements at every
    /// level, this yields two halves of comparable priority mix, which is
    /// what the steal-half policy wants (the thief should get useful work,
    /// not just the victim's worst tasks). Both halves are re-heapified in
    /// O(n).
    fn split_half(&mut self) -> Self {
        let n = self.data.len();
        if n <= 1 {
            // Stealing from a queue with one element takes that element:
            // ⌈1/2⌉ = 1. The victim keeps nothing.
            return BinaryHeap {
                data: std::mem::take(&mut self.data),
            };
        }
        let mut stolen = Vec::with_capacity(n / 2 + 1);
        let mut kept = Vec::with_capacity(n - n / 2);
        for (i, x) in std::mem::take(&mut self.data).into_iter().enumerate() {
            if i % 2 == 0 {
                stolen.push(x);
            } else {
                kept.push(x);
            }
        }
        self.data = kept;
        self.heapify();
        BinaryHeap::from_vec(stolen)
    }

    fn retain<F: FnMut(&T) -> bool>(&mut self, keep: F) {
        self.data.retain(keep);
        self.heapify();
    }

    fn append(&mut self, other: &mut Self) {
        if other.data.len() > self.data.len() {
            std::mem::swap(&mut self.data, &mut other.data);
        }
        self.data.append(&mut other.data);
        self.heapify();
    }

    fn drain_unordered(&mut self) -> Vec<T> {
        std::mem::take(&mut self.data)
    }

    /// Bulk insertion with a single invariant repair.
    ///
    /// Appends the batch to the backing array, then chooses the cheaper
    /// repair: per-element sift-up costs O(m log n) and touches only the
    /// insertion paths, Floyd's heapify costs O(n) regardless of m (the
    /// crossover lives in [`crate::bulk_repair_prefers_heapify`]); both
    /// repairs produce a valid heap over the same multiset.
    fn extend_batch<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        let old = self.data.len();
        self.data.extend(iter);
        let n = self.data.len();
        if n == old {
            return;
        }
        if crate::bulk_repair_prefers_heapify(old, n - old, n) {
            self.heapify();
        } else {
            for i in old..n {
                self.sift_up(i);
            }
        }
    }
}

impl<T: Ord> FromIterator<T> for BinaryHeap<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        Self::from_vec(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn popped(mut h: BinaryHeap<i64>) -> Vec<i64> {
        let mut out = Vec::new();
        while let Some(x) = h.pop() {
            out.push(x);
        }
        out
    }

    #[test]
    fn pops_in_sorted_order() {
        let h: BinaryHeap<i64> = [9, 4, 7, 1, -3, 7, 0].into_iter().collect();
        assert_eq!(popped(h), vec![-3, 0, 1, 4, 7, 7, 9]);
    }

    #[test]
    fn duplicates_are_kept() {
        let h: BinaryHeap<i64> = [5, 5, 5].into_iter().collect();
        assert_eq!(popped(h), vec![5, 5, 5]);
    }

    #[test]
    fn from_vec_heapifies() {
        let h = BinaryHeap::from_vec(vec![10, 9, 8, 7, 6, 5, 4, 3, 2, 1]);
        assert!(h.is_valid_heap());
    }

    #[test]
    fn peek_matches_pop() {
        let mut h: BinaryHeap<i64> = [3, 1, 2].into_iter().collect();
        assert_eq!(h.peek().copied(), Some(1));
        assert_eq!(h.pop(), Some(1));
        assert_eq!(h.peek().copied(), Some(2));
    }

    #[test]
    fn split_half_sizes() {
        for n in 0..40usize {
            let mut h: BinaryHeap<usize> = (0..n).collect();
            let stolen = h.split_half();
            assert_eq!(stolen.len(), n.div_ceil(2), "n={n}");
            assert_eq!(h.len(), n / 2, "n={n}");
            assert!(h.is_valid_heap());
            assert!(stolen.is_valid_heap());
        }
    }

    #[test]
    fn split_half_preserves_multiset() {
        let mut h: BinaryHeap<i64> = [4, 4, 8, 1, 0, 0, 9, -2].into_iter().collect();
        let stolen = h.split_half();
        let mut all = popped(h);
        all.extend(popped(stolen));
        all.sort();
        assert_eq!(all, vec![-2, 0, 0, 1, 4, 4, 8, 9]);
    }

    #[test]
    fn split_of_singleton_takes_the_element() {
        let mut h: BinaryHeap<i64> = [42].into_iter().collect();
        let stolen = h.split_half();
        assert!(h.is_empty());
        assert_eq!(popped(stolen), vec![42]);
    }

    #[test]
    fn split_of_empty_is_empty() {
        let mut h: BinaryHeap<i64> = BinaryHeap::new();
        let stolen = h.split_half();
        assert!(h.is_empty() && stolen.is_empty());
    }

    #[test]
    fn retain_drops_and_reheapifies() {
        let mut h: BinaryHeap<i64> = (0..20).collect();
        h.retain(|x| x % 3 == 0);
        assert!(h.is_valid_heap());
        assert_eq!(popped(h), vec![0, 3, 6, 9, 12, 15, 18]);
    }

    #[test]
    fn append_merges_and_empties_other() {
        let mut a: BinaryHeap<i64> = [5, 1].into_iter().collect();
        let mut b: BinaryHeap<i64> = [4, 2, 0].into_iter().collect();
        a.append(&mut b);
        assert!(b.is_empty());
        assert_eq!(popped(a), vec![0, 1, 2, 4, 5]);
    }

    #[test]
    fn clear_empties() {
        let mut h: BinaryHeap<i64> = (0..10).collect();
        h.clear();
        assert!(h.is_empty());
        assert_eq!(h.pop(), None);
    }

    #[test]
    fn interleaved_push_pop_stays_sorted() {
        let mut h = BinaryHeap::new();
        let mut reference = std::collections::BinaryHeap::new(); // max-heap
        let ops: Vec<i64> = vec![5, -1, 3, 3, 9, -7, 2, 8, 8, 0];
        for (i, &x) in ops.iter().enumerate() {
            h.push(x);
            reference.push(std::cmp::Reverse(x));
            if i % 3 == 2 {
                assert_eq!(h.pop(), reference.pop().map(|r| r.0));
            }
        }
        while let Some(x) = h.pop() {
            assert_eq!(Some(x), reference.pop().map(|r| r.0));
        }
        assert!(reference.is_empty());
    }
}
