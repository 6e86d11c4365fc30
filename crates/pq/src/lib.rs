#![warn(missing_docs)]

//! Sequential priority queues used as place-local components.
//!
//! All three scheduling data structures of Wimmer et al. (PPoPP 2014) keep a
//! *sequential* priority queue per place (thread): the paper notes in §4.1
//! that "any sequential implementation of a priority queue can be used, since
//! each priority queue is only accessed in the context of a single place".
//!
//! This crate provides one such implementation, [`BinaryHeap`], an
//! array-backed binary min-heap with a hole-based sift kernel, behind the
//! [`SequentialPriorityQueue`] trait. Every pool in the workspace uses it.
//!
//! The heap is a **min**-queue: `pop` returns the smallest element,
//! matching the paper's convention for the SSSP evaluation ("priority,
//! smaller is better" in Listing 5).
//!
//! Beyond the textbook operations, the trait carries two operations the
//! scheduler needs:
//!
//! * [`SequentialPriorityQueue::split_half`] — remove roughly half of the
//!   elements (an arbitrary half, *not* the best half) and return them as a
//!   new queue. This implements the steal-half policy of the priority
//!   work-stealing structure (§3.1, citing Hendler & Shavit).
//! * [`SequentialPriorityQueue::retain`] — drop entries that no longer need
//!   to be scheduled. This backs the lazy dead-task elimination described in
//!   §5.1.

pub mod binary_heap;

pub use binary_heap::BinaryHeap;

/// A sequential min-priority queue.
///
/// Implementations are not thread-safe by design: the scheduler guarantees
/// single-threaded access per place (or wraps the queue in a lock for the
/// work-stealing structure).
pub trait SequentialPriorityQueue<T: Ord>: Default {
    /// Creates an empty queue.
    fn new() -> Self;

    /// Inserts an element.
    fn push(&mut self, item: T);

    /// Removes and returns the smallest element, or `None` when empty.
    fn pop(&mut self) -> Option<T>;

    /// Returns a reference to the smallest element without removing it.
    fn peek(&self) -> Option<&T>;

    /// Number of stored elements.
    fn len(&self) -> usize;

    /// `true` when no elements are stored.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Removes all elements.
    fn clear(&mut self);

    /// Removes roughly half of the elements (⌈len/2⌉ of them, an arbitrary
    /// half by priority) and returns them as a new queue of the same type.
    ///
    /// Used by the work-stealing structure: "it chooses a random place and
    /// steals half the tasks from that place's priority queue" (§3.1).
    fn split_half(&mut self) -> Self;

    /// Keeps only the elements for which `keep` returns `true`.
    ///
    /// Backs lazy dead-task elimination (§5.1): entries whose task has become
    /// irrelevant (e.g. an SSSP node whose tentative distance has improved
    /// since the entry was created) can be swept without popping them.
    fn retain<F: FnMut(&T) -> bool>(&mut self, keep: F);

    /// Moves all elements of `other` into `self`, leaving `other` empty.
    fn append(&mut self, other: &mut Self);

    /// Inserts every element of `iter`, repairing the queue invariant once
    /// per batch instead of once per element.
    ///
    /// This is the sequential half of the scheduler's batch API: the
    /// binary heap repairs with Floyd's O(n) heapify (or per-element
    /// sift-up when the batch is small relative to the heap). The default
    /// implementation falls back to per-element `push`.
    ///
    /// Equivalent to `for x in iter { self.push(x) }` up to internal
    /// layout: the stored multiset and the pop order are identical.
    fn extend_batch<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        for x in iter {
            self.push(x);
        }
    }

    /// Drains the queue in an arbitrary order into a vector.
    ///
    /// Primarily for tests and for rebuilding after bulk operations; callers
    /// that need sorted output should `pop` repeatedly instead.
    fn drain_unordered(&mut self) -> Vec<T>;
}

#[cfg(test)]
mod trait_tests {
    use super::*;

    fn exercise<Q: SequentialPriorityQueue<i64>>() {
        let mut q = Q::new();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        q.push(5);
        q.push(1);
        q.push(3);
        assert_eq!(q.len(), 3);
        assert_eq!(q.peek(), Some(&1));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(3));
        assert_eq!(q.pop(), Some(5));
        assert_eq!(q.pop(), None);
    }

    fn exercise_extend_batch<Q: SequentialPriorityQueue<i64>>() {
        let mut q = Q::new();
        q.push(4);
        q.extend_batch([9, 0, 7, 2]);
        q.extend_batch(std::iter::empty());
        assert_eq!(q.len(), 5);
        let mut out = Vec::new();
        while let Some(x) = q.pop() {
            out.push(x);
        }
        assert_eq!(out, vec![0, 2, 4, 7, 9]);
    }

    #[test]
    fn binary_heap_basics() {
        exercise::<BinaryHeap<i64>>();
        exercise_extend_batch::<BinaryHeap<i64>>();
    }
}
