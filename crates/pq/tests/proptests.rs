//! Property-based tests for the sequential priority queue.
//!
//! [`BinaryHeap`] is model-checked against `std::collections::BinaryHeap`
//! (wrapped as a min-heap) and against a sorted `Vec` over arbitrary
//! operation sequences, and the scheduler-facing extras (`split_half`,
//! `retain`, `append`, `extend_batch`) are checked for multiset
//! preservation and invariant maintenance.

use priosched_pq::{BinaryHeap, SequentialPriorityQueue};
use proptest::prelude::*;
use std::cmp::Reverse;

#[derive(Clone, Debug)]
enum Op {
    Push(i32),
    Pop,
    SplitHalf,
    RetainEven,
    AppendBatch(Vec<i32>),
    ExtendBatch(Vec<i32>),
}

/// One step of a [`BinaryHeap`]-only tape (see
/// `binary_heap_tape_matches_sorted_vec`).
#[derive(Clone, Debug)]
enum Tape {
    Push(i16),
    Pop,
    ReplaceTop(i16),
    Extend(Vec<i16>),
    Append(Vec<i16>),
    SplitHalf,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => any::<i32>().prop_map(Op::Push),
        3 => Just(Op::Pop),
        1 => Just(Op::SplitHalf),
        1 => Just(Op::RetainEven),
        1 => proptest::collection::vec(any::<i32>(), 0..8).prop_map(Op::AppendBatch),
        2 => proptest::collection::vec(any::<i32>(), 0..40).prop_map(Op::ExtendBatch),
    ]
}

/// Reference model: a sorted multiset via std's max-heap of Reverse.
#[derive(Default)]
struct Model {
    heap: std::collections::BinaryHeap<Reverse<i32>>,
}

impl Model {
    fn push(&mut self, x: i32) {
        self.heap.push(Reverse(x));
    }
    fn pop(&mut self) -> Option<i32> {
        self.heap.pop().map(|r| r.0)
    }
    fn sorted(&self) -> Vec<i32> {
        let mut v: Vec<i32> = self.heap.iter().map(|r| r.0).collect();
        v.sort();
        v
    }
}

fn run_ops<Q: SequentialPriorityQueue<i32>>(ops: &[Op]) {
    let mut q = Q::new();
    let mut model = Model::default();
    for op in ops {
        match op {
            Op::Push(x) => {
                q.push(*x);
                model.push(*x);
            }
            Op::Pop => {
                assert_eq!(q.pop(), model.pop());
            }
            Op::SplitHalf => {
                let mut stolen = q.split_half();
                // Steal-half is a structural operation with no model analog;
                // check the size contract and put everything back.
                let total = q.len() + stolen.len();
                assert_eq!(total, model.heap.len());
                assert!(stolen.len() >= q.len());
                assert!(stolen.len() - q.len() <= 1);
                q.append(&mut stolen);
                assert!(stolen.is_empty());
            }
            Op::RetainEven => {
                q.retain(|x| x % 2 == 0);
                let kept: Vec<i32> = model.sorted().into_iter().filter(|x| x % 2 == 0).collect();
                model.heap = kept.iter().map(|&x| Reverse(x)).collect();
            }
            Op::AppendBatch(batch) => {
                let mut other = Q::new();
                for &x in batch {
                    other.push(x);
                    model.push(x);
                }
                q.append(&mut other);
            }
            Op::ExtendBatch(batch) => {
                q.extend_batch(batch.iter().copied());
                for &x in batch {
                    model.push(x);
                }
            }
        }
        assert_eq!(q.len(), model.heap.len());
        assert_eq!(q.peek().copied(), model.sorted().first().copied());
    }
    // Drain both and compare the full pop order.
    let mut q_out = Vec::new();
    while let Some(x) = q.pop() {
        q_out.push(x);
    }
    let mut m_out = Vec::new();
    while let Some(x) = model.pop() {
        m_out.push(x);
    }
    assert_eq!(q_out, m_out);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn binary_heap_matches_model(ops in proptest::collection::vec(op_strategy(), 0..120)) {
        run_ops::<BinaryHeap<i32>>(&ops);
    }

    /// `replace_top` ≡ "pop the minimum, then push" against a sorted-`Vec`
    /// reference, including on the empty heap (where it is a plain push
    /// returning `None`). Interleaved pops drain the heap to empty often.
    #[test]
    fn binary_heap_replace_top_matches_sorted_vec(
        init in proptest::collection::vec(any::<i32>(), 0..24),
        ops in proptest::collection::vec(
            prop_oneof![3 => any::<i32>().prop_map(Some), 2 => Just(None)],
            0..80,
        ),
    ) {
        let mut h: BinaryHeap<i32> = init.iter().copied().collect();
        let mut reference = init.clone();
        reference.sort();
        for op in ops {
            match op {
                Some(x) => {
                    let expect = (!reference.is_empty()).then(|| reference.remove(0));
                    prop_assert_eq!(h.replace_top(x), expect);
                    let at = reference.partition_point(|&y| y <= x);
                    reference.insert(at, x);
                }
                None => {
                    let expect = (!reference.is_empty()).then(|| reference.remove(0));
                    prop_assert_eq!(h.pop(), expect);
                }
            }
            prop_assert!(h.is_valid_heap());
            prop_assert_eq!(h.len(), reference.len());
            prop_assert_eq!(h.peek().copied(), reference.first().copied());
        }
    }

    /// Interleaved tapes of every operation that moves elements through
    /// the sift kernel — push, pop, `replace_top`, `extend_batch` on both
    /// sides of the heapify crossover, `append` and `split_half` — pop in
    /// the same order as a sorted `Vec` holding the same elements.
    #[test]
    fn binary_heap_tape_matches_sorted_vec(
        tape in proptest::collection::vec(
            prop_oneof![
                4 => any::<i16>().prop_map(Tape::Push),
                3 => Just(Tape::Pop),
                2 => any::<i16>().prop_map(Tape::ReplaceTop),
                2 => proptest::collection::vec(any::<i16>(), 0..48).prop_map(Tape::Extend),
                1 => proptest::collection::vec(any::<i16>(), 0..16).prop_map(Tape::Append),
                1 => Just(Tape::SplitHalf),
            ],
            0..160,
        ),
    ) {
        let mut h: BinaryHeap<i16> = BinaryHeap::new();
        let mut sorted: Vec<i16> = Vec::new();
        let insert = |sorted: &mut Vec<i16>, x: i16| {
            let at = sorted.partition_point(|&y| y <= x);
            sorted.insert(at, x);
        };
        for op in tape {
            match op {
                Tape::Push(x) => {
                    h.push(x);
                    insert(&mut sorted, x);
                }
                Tape::Pop => {
                    let expect = (!sorted.is_empty()).then(|| sorted.remove(0));
                    prop_assert_eq!(h.pop(), expect);
                }
                Tape::ReplaceTop(x) => {
                    let expect = (!sorted.is_empty()).then(|| sorted.remove(0));
                    prop_assert_eq!(h.replace_top(x), expect);
                    insert(&mut sorted, x);
                }
                Tape::Extend(batch) => {
                    h.extend_batch(batch.iter().copied());
                    for x in batch {
                        insert(&mut sorted, x);
                    }
                }
                Tape::Append(batch) => {
                    let mut other: BinaryHeap<i16> = batch.iter().copied().collect();
                    h.append(&mut other);
                    prop_assert!(other.is_empty());
                    for x in batch {
                        insert(&mut sorted, x);
                    }
                }
                Tape::SplitHalf => {
                    let mut stolen = h.split_half();
                    prop_assert!(h.is_valid_heap() && stolen.is_valid_heap());
                    prop_assert_eq!(stolen.len(), sorted.len().div_ceil(2));
                    h.append(&mut stolen);
                }
            }
            prop_assert!(h.is_valid_heap());
            prop_assert_eq!(h.len(), sorted.len());
            prop_assert_eq!(h.peek().copied(), sorted.first().copied());
        }
        let mut drained = Vec::with_capacity(h.len());
        while let Some(x) = h.pop() {
            drained.push(x);
        }
        prop_assert_eq!(drained, sorted);
    }

    #[test]
    fn binary_heap_invariant_holds(items in proptest::collection::vec(any::<i32>(), 0..200)) {
        let mut h = BinaryHeap::new();
        for x in &items {
            h.push(*x);
            prop_assert!(h.is_valid_heap());
        }
        let mut prev = None;
        while let Some(x) = h.pop() {
            if let Some(p) = prev {
                prop_assert!(p <= x);
            }
            prev = Some(x);
            prop_assert!(h.is_valid_heap());
        }
    }

    #[test]
    fn split_half_preserves_multiset(items in proptest::collection::vec(any::<i32>(), 0..200)) {
        let mut h: BinaryHeap<i32> = items.iter().copied().collect();
        let mut stolen = h.split_half();
        let mut all = h.drain_unordered();
        all.extend(stolen.drain_unordered());
        all.sort();
        let mut expect = items.clone();
        expect.sort();
        prop_assert_eq!(all, expect);
    }
}

mod batch {
    use super::*;

    fn batch_equals_scalar<Q: SequentialPriorityQueue<i32>>(
        init: &[i32],
        batch: &[i32],
    ) -> Result<(), TestCaseError> {
        let mut batched = Q::new();
        let mut scalar = Q::new();
        for &x in init {
            batched.push(x);
            scalar.push(x);
        }
        batched.extend_batch(batch.iter().copied());
        for &x in batch {
            scalar.push(x);
        }
        prop_assert_eq!(batched.len(), scalar.len());
        prop_assert_eq!(batched.peek().copied(), scalar.peek().copied());
        loop {
            let (a, b) = (batched.pop(), scalar.pop());
            prop_assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        /// `extend_batch` followed by a full drain is indistinguishable
        /// from the same elements pushed one at a time.
        #[test]
        fn extend_batch_equals_scalar_pushes(
            init in proptest::collection::vec(any::<i32>(), 0..120),
            batch in proptest::collection::vec(any::<i32>(), 0..120),
        ) {
            batch_equals_scalar::<BinaryHeap<i32>>(&init, &batch)?;
        }

        /// The structural invariant survives `extend_batch` at every batch
        /// size, including the heapify/sift-up crossover on both sides.
        #[test]
        fn extend_batch_preserves_invariants(
            init in proptest::collection::vec(any::<i32>(), 0..80),
            batch in proptest::collection::vec(any::<i32>(), 0..80),
        ) {
            let mut bin: BinaryHeap<i32> = init.iter().copied().collect();
            bin.extend_batch(batch.iter().copied());
            prop_assert!(bin.is_valid_heap());
            prop_assert_eq!(bin.len(), init.len() + batch.len());
        }
    }
}
