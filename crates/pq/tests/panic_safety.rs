//! Panic safety of the binary heap's hole-based sift kernel.
//!
//! Every element carries an id and counts its drops; its `Ord` panics on
//! the N-th comparison after the counter is armed. Each heap operation is
//! run once per N up to the number of comparisons it makes, under
//! `catch_unwind`. Afterwards no element may have been dropped twice, every
//! element must be either dropped or still in the heap (none leaked), and
//! the heap invariant must hold. `push`, `pop` and `replace_top` must also
//! leave the heap's contents exactly as they were (`push` and `replace_top`
//! drop the new element).

use priosched_pq::{BinaryHeap, SequentialPriorityQueue};
use std::cell::{Cell, RefCell};
use std::cmp::Ordering;
use std::panic::{catch_unwind, AssertUnwindSafe};

thread_local! {
    /// Comparisons left before the next one panics; 0 = disarmed.
    static ARMED: Cell<usize> = const { Cell::new(0) };
    /// Comparisons made while armed, including the panicking one.
    static COMPARED: Cell<usize> = const { Cell::new(0) };
    /// Drop count per element id.
    static DROPS: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

struct Tracked {
    key: u32,
    id: usize,
}

impl Tracked {
    fn new(key: u32) -> Self {
        let id = DROPS.with(|d| {
            let mut d = d.borrow_mut();
            d.push(0);
            d.len() - 1
        });
        Tracked { key, id }
    }
}

impl Drop for Tracked {
    fn drop(&mut self) {
        DROPS.with(|d| d.borrow_mut()[self.id] += 1);
    }
}

impl PartialEq for Tracked {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Tracked {}
impl PartialOrd for Tracked {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Tracked {
    fn cmp(&self, other: &Self) -> Ordering {
        let left = ARMED.get();
        if left > 0 {
            COMPARED.set(COMPARED.get() + 1);
            ARMED.set(left - 1);
            if left == 1 {
                panic!("planted comparison panic");
            }
        }
        self.key.cmp(&other.key)
    }
}

fn keys(h: &BinaryHeap<Tracked>) -> Vec<(u32, usize)> {
    let mut v: Vec<_> = h.as_slice().iter().map(|t| (t.key, t.id)).collect();
    v.sort();
    v
}

/// A heap of `n` elements with scattered keys, built while disarmed.
fn heap(n: u32) -> BinaryHeap<Tracked> {
    (0..n).map(|i| Tracked::new((i * 7919) % 101)).collect()
}

/// Runs `op` on a fresh heap with the N-th comparison panicking, for every
/// N from 1 until `op` completes without reaching it. `after` checks the
/// heap's contents given the contents before; the drop accounting and the
/// invariant are checked here.
fn for_each_panic_point(
    n: u32,
    op: impl Fn(&mut BinaryHeap<Tracked>),
    after: impl Fn(&[(u32, usize)], &[(u32, usize)]),
) {
    for nth in 1.. {
        DROPS.with(|d| d.borrow_mut().clear());
        let mut h = heap(n);
        let before = keys(&h);
        COMPARED.set(0);
        ARMED.set(nth);
        let outcome = catch_unwind(AssertUnwindSafe(|| op(&mut h)));
        ARMED.set(0);
        let completed = outcome.is_ok();
        assert!(
            h.is_valid_heap(),
            "invariant broken (panic at comparison {nth})"
        );
        let held: Vec<usize> = h.as_slice().iter().map(|t| t.id).collect();
        DROPS.with(|d| {
            let d = d.borrow();
            for (id, &drops) in d.iter().enumerate() {
                let inside = held.iter().filter(|&&x| x == id).count() as u32;
                assert!(drops <= 1, "element {id} dropped {drops} times");
                assert!(inside <= 1, "element {id} held {inside} times");
                // Tests keep no element outside the heap past `op`.
                assert_eq!(drops + inside, 1, "element {id} leaked");
            }
        });
        if !completed {
            after(&before, &keys(&h));
        }
        drop(h);
        DROPS.with(|d| assert!(d.borrow().iter().all(|&c| c == 1)));
        if completed {
            assert!(n < 3 || nth > 1, "the operation must compare at least once");
            return;
        }
    }
}

fn unchanged(before: &[(u32, usize)], after: &[(u32, usize)]) {
    assert_eq!(
        before, after,
        "a panicking operation must leave the heap as it was"
    );
}

#[test]
fn push_panic_leaves_heap_unchanged() {
    for n in [1, 2, 31, 64] {
        for_each_panic_point(n, |h| h.push(Tracked::new(0)), unchanged);
    }
}

#[test]
fn pop_panic_leaves_heap_unchanged() {
    for n in [2, 3, 31, 64] {
        for_each_panic_point(
            n,
            |h| {
                // The popped minimum must not outlive `op` here.
                drop(h.pop());
            },
            unchanged,
        );
    }
}

#[test]
fn replace_top_panic_leaves_heap_unchanged() {
    for n in [1, 2, 31, 64] {
        for key in [0, 50, 200] {
            for_each_panic_point(n, |h| drop(h.replace_top(Tracked::new(key))), unchanged);
        }
    }
}

#[test]
fn extend_batch_panic_keeps_a_valid_heap() {
    // A short batch into a large heap is sifted up element by element; a
    // long one rebuilds the array (see `bulk_repair_prefers_heapify`).
    for (n, batch) in [(64, 3), (64, 40), (0, 20)] {
        for_each_panic_point(
            n,
            |h| h.extend_batch((0..batch).map(|i| Tracked::new((i * 13) % 37))),
            |before, after| {
                // What stays is all of the old heap plus a prefix of the
                // batch (sift-up), or nothing (rebuild).
                let old: Vec<_> = after.iter().filter(|e| before.contains(e)).collect();
                assert!(after.is_empty() || old.len() == before.len());
            },
        );
    }
}
