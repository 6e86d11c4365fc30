//! Array-backed binary min-heap.
//!
//! This is the default place-local priority queue. It differs from
//! `std::collections::BinaryHeap` in three ways that matter here: it is a
//! *min*-heap (matching the paper's "smaller is better" convention), it
//! supports [`BinaryHeap::split_half`] for the steal-half work-stealing
//! policy, and it supports [`BinaryHeap::retain`] for lazy dead-task
//! elimination.
//!
//! # Sifting with a hole
//!
//! Sifts do not swap. The sifted element is read out of its slot, which
//! leaves a *hole*; each element that has to make room moves into the hole
//! once, and the sifted element is written once, into the final hole. That
//! is one write per level instead of a swap's two. `pop`
//! moves the hole from the root straight down to a leaf along the smaller
//! children, without comparing against the element that fills it, and
//! then sifts that element (the former last one, usually large) up from
//! there: about log n comparisons instead of 2·log n, as in
//! `std::collections::BinaryHeap`. `replace_top` keeps the sift-down that
//! stops early, because the merged-run head heap of the place-local views
//! replaces its top with a key that usually belongs near the top.
//!
//! The smaller child is chosen with a branch, not a branch-free select. On
//! a heap larger than the caches a predicted branch lets the CPU start
//! loading the next level before the comparison resolves, while a select
//! makes every level wait for the one above. On 2·10⁵ 32-byte entries
//! under SSSP-like pop/push, a select measured ~355 ns per step against
//! ~310 ns for the branch and ~340 ns for the swap-based sifts this kernel
//! replaced; with a select, the structural pool and the MultiQueue also
//! solved the sparse SSSP benchmark 30–50 % slower than before.
//!
//! # Panics in `Ord`
//!
//! A comparison that panics never leaves an element duplicated or lost,
//! and the heap invariant holds afterwards. Every move of a sift goes along
//! one path through the sift's start, so the hole's guard can undo them
//! without comparing: it walks back to the start, returning each element to
//! the slot it came from. On top of that, `push` and `replace_top` drop
//! the new element and leave the heap as it was, `pop` leaves the heap as
//! it was (its minimum included), `extend_batch` keeps the elements whose
//! sift finished and drops the others, and the operations that rebuild the
//! whole array (`from_vec`, `retain`, `append`, `split_half` and the
//! rebuild branch of `extend_batch`) clear it, dropping every element
//! once.

use crate::SequentialPriorityQueue;
use std::mem::{self, ManuallyDrop};
use std::ptr;

/// A vacated slot of the heap array and the element that will fill it.
///
/// [`Hole::move_to`] moves a neighbouring element into the hole and the
/// hole to that element's slot; [`Hole::fill`] writes the held element
/// into the hole. Dropping a hole that was not filled (a comparison
/// panicked) undoes every move and writes the element back at `start`.
struct Hole<'a, T> {
    data: &'a mut [T],
    elt: ManuallyDrop<T>,
    start: usize,
    pos: usize,
}

impl<'a, T> Hole<'a, T> {
    /// Opens a hole at `pos`, holding the element that was there.
    ///
    /// # Safety
    /// `pos < data.len()`.
    #[inline]
    unsafe fn new(data: &'a mut [T], pos: usize) -> Self {
        debug_assert!(pos < data.len());
        // SAFETY: `pos` is in bounds (caller). The slot counts as vacated
        // from here on: `fill` or `drop` writes an element back into it.
        let elt = unsafe { ptr::read(data.get_unchecked(pos)) };
        Hole {
            data,
            elt: ManuallyDrop::new(elt),
            start: pos,
            pos,
        }
    }

    #[inline]
    fn pos(&self) -> usize {
        self.pos
    }

    /// The element being sifted.
    #[inline]
    fn element(&self) -> &T {
        &self.elt
    }

    /// # Safety
    /// `index < data.len()` and `index != pos()`.
    #[inline]
    unsafe fn get(&self, index: usize) -> &T {
        debug_assert!(index != self.pos && index < self.data.len());
        // SAFETY: in bounds and not the vacated slot (caller).
        unsafe { self.data.get_unchecked(index) }
    }

    /// Moves the element at `index` into the hole, which moves to `index`.
    ///
    /// # Safety
    /// `index < data.len()`, and `index` is the parent or a child of
    /// `pos()` such that the hole stays on one root-to-leaf path through
    /// `start` (the undo in `drop` walks that path back).
    #[inline]
    unsafe fn move_to(&mut self, index: usize) {
        debug_assert!(index != self.pos && index < self.data.len());
        let base = self.data.as_mut_ptr();
        // SAFETY: both slots are in bounds and distinct (caller); the hole
        // holds no live element, so nothing is overwritten or duplicated.
        unsafe { ptr::copy_nonoverlapping(base.add(index), base.add(self.pos), 1) };
        self.pos = index;
    }

    /// Writes the held element into the hole.
    #[inline]
    fn fill(self) {
        let mut this = ManuallyDrop::new(self);
        let pos = this.pos;
        // SAFETY: `this` is never dropped, so the element is moved out of
        // `elt` exactly once, here.
        let elt = unsafe { ManuallyDrop::take(&mut this.elt) };
        // SAFETY: `pos` is in bounds and vacated; `write` drops nothing.
        unsafe { ptr::write(this.data.as_mut_ptr().add(pos), elt) };
    }
}

impl<T> Drop for Hole<'_, T> {
    /// Runs only when a comparison panicked mid-sift (`fill` forgets the
    /// hole). No comparisons here: each step moves back the element that
    /// left the hole's slot, which sits one step nearer `start` — the
    /// parent after a sift down, the next node towards `start` after a
    /// sift up.
    fn drop(&mut self) {
        let base = self.data.as_mut_ptr();
        while self.pos != self.start {
            let from = if self.pos > self.start {
                (self.pos - 1) / 2
            } else {
                // `pos` is an ancestor of `start`; in 1-based numbering
                // the ancestor `d` levels above node `s` is `s >> d`.
                let (s, p) = (self.start + 1, self.pos + 1);
                let levels = s.ilog2() - p.ilog2();
                (s >> (levels - 1)) - 1
            };
            // SAFETY: `from` lies on the sift path between `pos` and
            // `start`, so it is in bounds and holds the element that moved
            // out of the hole's slot; the hole itself holds nothing.
            unsafe { ptr::copy_nonoverlapping(base.add(from), base.add(self.pos), 1) };
            self.pos = from;
        }
        // SAFETY: `start` is in bounds and vacated; the element is moved
        // out of `elt` exactly once, here.
        unsafe { ptr::write(base.add(self.start), ManuallyDrop::take(&mut self.elt)) };
    }
}

/// Moves `data[pos]` towards the root while it is smaller than its parent.
///
/// # Safety
/// `pos < data.len()`.
unsafe fn sift_up<T: Ord>(data: &mut [T], pos: usize) {
    // SAFETY: `pos` is in bounds (caller).
    let mut hole = unsafe { Hole::new(data, pos) };
    while hole.pos() > 0 {
        let parent = (hole.pos() - 1) / 2;
        // SAFETY: `parent < pos`, so it is in bounds and not the hole.
        if hole.element() >= unsafe { hole.get(parent) } {
            break;
        }
        // SAFETY: as above; `parent` is the hole's parent.
        unsafe { hole.move_to(parent) };
    }
    hole.fill()
}

/// Moves `data[pos]` towards the leaves while a child is smaller, stopping
/// as soon as neither is.
///
/// # Safety
/// `pos < data.len()`.
unsafe fn sift_down<T: Ord>(data: &mut [T], pos: usize) {
    let end = data.len();
    // SAFETY: `pos` is in bounds (caller).
    let mut hole = unsafe { Hole::new(data, pos) };
    let mut child = 2 * hole.pos() + 1;
    // Both children exist while `child + 1 < end`.
    while child <= end.saturating_sub(2) {
        // SAFETY: `child < child + 1 < end`, and both are below the hole.
        if unsafe { hole.get(child + 1) < hole.get(child) } {
            child += 1;
        }
        // SAFETY: as above.
        if hole.element() <= unsafe { hole.get(child) } {
            hole.fill();
            return;
        }
        // SAFETY: `child` is a child of the hole, in bounds.
        unsafe { hole.move_to(child) };
        child = 2 * hole.pos() + 1;
    }
    // SAFETY: `child == end - 1` is the hole's only child, in bounds.
    if child == end - 1 && unsafe { hole.get(child) } < hole.element() {
        // SAFETY: as above.
        unsafe { hole.move_to(child) };
    }
    hole.fill();
}

/// Replaces the root: moves the hole from the root down to a leaf along
/// the smaller children, then sifts the root element up from there.
///
/// # Safety
/// `!data.is_empty()`.
unsafe fn sift_root_to_bottom<T: Ord>(data: &mut [T]) {
    let end = data.len();
    // SAFETY: the root is in bounds (caller).
    let mut hole = unsafe { Hole::new(data, 0) };
    let mut child = 1;
    while child <= end.saturating_sub(2) {
        // SAFETY: `child < child + 1 < end`, and both are below the hole.
        if unsafe { hole.get(child + 1) < hole.get(child) } {
            child += 1;
        }
        // SAFETY: `child` is a child of the hole, in bounds.
        unsafe { hole.move_to(child) };
        child = 2 * hole.pos() + 1;
    }
    if child == end - 1 {
        // SAFETY: the hole's only child, in bounds.
        unsafe { hole.move_to(child) };
    }
    // Back up the same path: the hole stays a descendant of the root.
    while hole.pos() > 0 {
        let parent = (hole.pos() - 1) / 2;
        // SAFETY: `parent < pos`, in bounds and not the hole.
        if hole.element() >= unsafe { hole.get(parent) } {
            break;
        }
        // SAFETY: as above; `parent` is the hole's parent.
        unsafe { hole.move_to(parent) };
    }
    hole.fill();
}

/// Bulk-insertion repair policy: `true` when Floyd's O(n) heapify beats
/// sifting up each of the `added` elements individually (O(added · log n)).
/// The crossover is approximated as `added ≥ n / log₂(n)`; an empty
/// original heap always rebuilds.
fn bulk_repair_prefers_heapify(old: usize, added: usize, n: usize) -> bool {
    debug_assert_eq!(old + added, n);
    let log_n = (usize::BITS - n.leading_zeros()).max(1) as usize;
    old == 0 || added >= n / log_n
}

/// Truncates `data` to `len` unless forgotten: drops, exactly once, the
/// elements an interrupted operation could not place validly.
struct TruncateOnUnwind<'a, T> {
    data: &'a mut Vec<T>,
    len: usize,
}

impl<T> Drop for TruncateOnUnwind<'_, T> {
    fn drop(&mut self) {
        self.data.truncate(self.len);
    }
}

/// Holds the heap's former root while the new root is sifted. Unless
/// defused by taking `top`, puts it back at the root; the displaced new
/// root is pushed back to the end when `requeue` is set, dropped otherwise.
struct RestoreRoot<'a, T> {
    data: &'a mut Vec<T>,
    top: Option<T>,
    requeue: bool,
}

impl<T> Drop for RestoreRoot<'_, T> {
    fn drop(&mut self) {
        if let Some(top) = self.top.take() {
            let displaced = mem::replace(&mut self.data[0], top);
            if self.requeue {
                self.data.push(displaced);
            }
        }
    }
}

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

    /// Floyd's heapify. A panicking comparison clears the heap: the array
    /// is then neither the old heap nor the new one.
    fn heapify(&mut self) {
        let guard = TruncateOnUnwind {
            data: &mut self.data,
            len: 0,
        };
        for i in (0..guard.data.len() / 2).rev() {
            // SAFETY: `i < len / 2 <= len`.
            unsafe { sift_down(guard.data, i) };
        }
        mem::forget(guard);
    }

    /// Replaces the minimum with `item` and restores the invariant with a
    /// single sift-down, returning the old minimum — one pass instead of
    /// the two a `pop` followed by a `push` costs. On an empty heap `item`
    /// is simply pushed and `None` returned.
    pub fn replace_top(&mut self, item: T) -> Option<T> {
        let Some(top) = self.data.first_mut() else {
            self.data.push(item);
            return None;
        };
        let old = mem::replace(top, item);
        let mut guard = RestoreRoot {
            data: &mut self.data,
            top: Some(old),
            requeue: false,
        };
        // SAFETY: the heap is not empty.
        unsafe { sift_down(guard.data, 0) };
        guard.top.take()
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
        let pos = self.data.len();
        self.data.push(item);
        let guard = TruncateOnUnwind {
            data: &mut self.data,
            len: pos,
        };
        // SAFETY: `pos` is the slot just pushed.
        unsafe { sift_up(guard.data, pos) };
        mem::forget(guard);
    }

    fn pop(&mut self) -> Option<T> {
        let mut min = self.data.pop()?;
        let Some(root) = self.data.first_mut() else {
            return Some(min);
        };
        mem::swap(&mut min, root);
        let mut guard = RestoreRoot {
            data: &mut self.data,
            top: Some(min),
            requeue: true,
        };
        // SAFETY: the heap is not empty.
        unsafe { sift_root_to_bottom(guard.data) };
        guard.top.take()
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
    /// crossover lives in [`bulk_repair_prefers_heapify`]); both
    /// repairs produce a valid heap over the same multiset.
    fn extend_batch<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        let old = self.data.len();
        self.data.extend(iter);
        let n = self.data.len();
        if n == old {
            return;
        }
        if bulk_repair_prefers_heapify(old, n - old, n) {
            self.heapify();
            return;
        }
        // A panicking comparison drops the element being sifted and the
        // ones after it; those sifted before stay, as a valid heap.
        let mut guard = TruncateOnUnwind {
            data: &mut self.data,
            len: old,
        };
        for i in old..n {
            guard.len = i;
            // SAFETY: `i < n = len`.
            unsafe { sift_up(guard.data, i) };
        }
        mem::forget(guard);
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
