//! The place-local view of task references shared by the centralized and
//! the hybrid k-priority structures.
//!
//! In both structures (Listings 2 and 4) each place keeps one sequential
//! priority queue of references to tasks: its own pushes and a reference
//! to every live task of every other place that it has read from the
//! shared array or list. References leave that queue only when they reach
//! its top, and at P ≥ 2 most of them are stale by then (another place
//! took the task), so on a large SSSP run the queue holds on the order of
//! 10⁵ references per place and nearly every pop also sifts out a stale
//! duplicate — an O(log n) walk through megabytes of cache-missing heap.
//! [`LocalView`] stores the same references in three parts instead:
//!
//! * a **small heap** holding the place's own recent pushes (and, in the
//!   hybrid, the references it gathered by spying);
//! * **sorted runs**: the live references one read of the shared structure
//!   ingests — one scan of the centralized array's `[head, tail)`, one
//!   `process_global_list` of the hybrid — are sorted by `(prio, tag)` once
//!   and kept as one run. Such reads are large: the centralized tail
//!   advances one whole k-window at a time, and the hybrid publishes up to
//!   k tasks at once. The small heap is frozen into a run of its own when
//!   it reaches [`SMALL_MAX`], and in the hybrid also on every publish.
//!   References too few to be worth a run ([`MIN_RUN`]) join the small
//!   heap instead;
//! * a **head heap** with one entry per non-empty run, keyed by the run's
//!   smallest reference.
//!
//! A pop takes the smaller of the small-heap top and the head-heap top.
//! Taking from a run is a cursor step plus one replace-top sift of the head
//! heap, and the item behind the run's new smallest reference is
//! prefetched, so a stale reference costs a step through a sequential
//! buffer rather than a sift through the whole reference set. The heaps
//! that are ever sifted hold about as many entries as there are runs plus
//! the small heap: on the sparse SSSP benchmark (n = 200 000, P = 2,
//! k = 512) at most ~1.3k in the hybrid, where its single queue held ~150k
//! on average. Runs are gathered in one reused buffer and stored as
//! exact-size copies, which are freed as soon as they are exhausted, so
//! the view holds no more memory than the references it contains (a
//! partly consumed run keeps its consumed prefix until it is exhausted).
//!
//! The selection rule is the same as with one queue: every pop considers
//! exactly the references that queue would hold and returns the one with
//! the smallest `(prio, tag)`. The relaxation bounds, exactly-once takes
//! and everything else the structures argue about a pop depend only on
//! that rule, not on how the references are stored.

use crate::item::{Item, ItemRef};
use priosched_pq::{BinaryHeap, SequentialPriorityQueue};

/// Fewer references than this are not worth a run of their own: a short
/// ingest joins the small heap instead, and a freeze leaves a small heap
/// this small in place. Tiny publishes (`k = 0` publishes every push) or
/// scans (a few slots below a slowly moving tail) would otherwise make one
/// run per task.
pub(crate) const MIN_RUN: usize = 32;

/// The small heap is frozen into a run whenever it reaches this size, so
/// neither tiny ingests nor a long stretch of own pushes can grow it
/// without bound. Two hybrid segments: a publish of up to `k = 512` tasks
/// normally freezes it first.
pub(crate) const SMALL_MAX: usize = 512;

/// Head-heap entry: a run's smallest reference's key and the run's index.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct RunHead {
    prio: u64,
    tag: u64,
    run: u32,
}

/// Hints the CPU to load `item` into cache ahead of its tag check.
#[inline(always)]
pub(crate) fn prefetch_item<T>(item: *const Item<T>) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: a prefetch is only a hint; it never faults or writes,
    // whatever the address.
    unsafe {
        std::arch::x86_64::_mm_prefetch::<{ std::arch::x86_64::_MM_HINT_T0 }>(item.cast())
    };
    #[cfg(not(target_arch = "x86_64"))]
    let _ = item;
}

/// One place's references to tasks: a small heap plus sorted runs merged
/// through a head heap (see the module docs). `pop` returns references in
/// exactly the `(prio, tag)` order one heap of all of them would.
///
/// `small` and `pending` may be filled directly; `heads` and `runs` change
/// together, only through the methods.
pub(crate) struct LocalView<T> {
    /// Own recent pushes, short ingests and (hybrid) spied references.
    pub(crate) small: BinaryHeap<ItemRef<T>>,
    /// One entry per non-empty run, keyed by the run's smallest reference.
    pub(crate) heads: BinaryHeap<RunHead>,
    /// Sorted runs, largest first, so a run's smallest reference is its
    /// `last()`; indexed by [`RunHead::run`]. Exhausted runs are freed and
    /// leave an empty slot.
    pub(crate) runs: Vec<Vec<ItemRef<T>>>,
    /// Indices of empty slots in `runs`.
    free: Vec<u32>,
    /// The next run, while it is being gathered; keeps its capacity, so
    /// building a run allocates only the run's exact-size copy.
    pub(crate) pending: Vec<ItemRef<T>>,
}

impl<T> LocalView<T> {
    pub(crate) fn new() -> Self {
        LocalView {
            small: BinaryHeap::with_capacity(256),
            heads: BinaryHeap::new(),
            runs: Vec::new(),
            free: Vec::new(),
            pending: Vec::new(),
        }
    }

    /// Adds the ingested references in `pending` as a run, or to the
    /// small heap when there are too few of them to be worth a run.
    pub(crate) fn add_pending(&mut self) {
        if self.pending.len() >= MIN_RUN {
            self.seal_run();
            return;
        }
        self.small.extend_batch(self.pending.drain(..));
        self.freeze_if_full();
    }

    /// Adds one of the place's own new references to the small heap.
    pub(crate) fn push_own(&mut self, r: ItemRef<T>) {
        self.small.push(r);
        self.freeze_if_full();
    }

    /// Moves the place's own new references in `staged` into the small
    /// heap with one repair.
    pub(crate) fn add_own(&mut self, staged: &mut Vec<ItemRef<T>>) {
        self.small.extend_batch(staged.drain(..));
        self.freeze_if_full();
    }

    fn freeze_if_full(&mut self) {
        if self.small.len() >= SMALL_MAX {
            self.freeze(&mut Vec::new());
        }
    }

    /// Sorts the (non-empty) `pending` into a new run, leaving `pending`
    /// empty. Runs are exact-size copies, so a run never holds more memory
    /// than the references it was built with.
    fn seal_run(&mut self) {
        self.pending.sort_unstable_by(|a, b| b.cmp(a));
        let run = self.pending.to_vec();
        self.pending.clear();
        let top = &run[run.len() - 1];
        prefetch_item(top.ptr);
        let (prio, tag) = (top.prio, top.tag);
        let idx = match self.free.pop() {
            Some(idx) => {
                self.runs[idx as usize] = run;
                idx
            }
            None => {
                self.runs.push(run);
                (self.runs.len() - 1) as u32
            }
        };
        self.heads.push(RunHead {
            prio,
            tag,
            run: idx,
        });
    }

    /// Turns the small heap and `staged` into a run, or only moves
    /// `staged` into the small heap while that is below [`MIN_RUN`].
    pub(crate) fn freeze(&mut self, staged: &mut Vec<ItemRef<T>>) {
        if self.small.len() + staged.len() < MIN_RUN {
            self.small.extend_batch(staged.drain(..));
            return;
        }
        self.pending.extend_from_slice(self.small.as_slice());
        self.small.clear();
        self.pending.append(staged);
        self.seal_run();
    }

    /// Removes and returns the smallest reference.
    pub(crate) fn pop(&mut self) -> Option<ItemRef<T>> {
        let head = match (self.small.peek(), self.heads.peek()) {
            (_, None) => return self.small.pop(),
            (Some(s), Some(h)) if (s.prio, s.tag) <= (h.prio, h.tag) => {
                return self.small.pop();
            }
            (_, Some(&h)) => h,
        };
        let run = &mut self.runs[head.run as usize];
        let r = run.pop().expect("a head entry names a non-empty run");
        match run.last() {
            Some(next) => {
                prefetch_item(next.ptr);
                let (prio, tag) = (next.prio, next.tag);
                self.heads.replace_top(RunHead {
                    prio,
                    tag,
                    run: head.run,
                });
            }
            None => {
                self.heads.pop();
                *run = Vec::new();
                self.free.push(head.run);
            }
        }
        Some(r)
    }
}
