//! Ablation benches, one group per design choice whose alternative is
//! cheap to build and could plausibly win, plus the sequential heap alone:
//!
//! 1. randomized vs linear slot placement in the centralized push
//!    (Listing 1 line 9 — "Randomization is used to improve scalability");
//! 2. dead-task elimination on vs off (§5.1 lazy removal);
//! 3. hybrid (temporal ρ-relaxation, lock-free) vs the structural
//!    prototype (§5.3);
//! 4. the binary heap every pool uses as its place-local priority queue
//!    (§4.1: "any sequential implementation … can be used"), on a heap
//!    that fits in L2 and on one that exceeds the caches.

use criterion::{criterion_group, criterion_main, Criterion};
use priosched_core::centralized::{CentralizedKPriority, Placement};
use priosched_core::{PoolHandle, PoolKind, PoolParams, TaskPool};
use priosched_pq::{BinaryHeap, SequentialPriorityQueue};
use priosched_workloads::{run_workload, SsspWorkload};
use std::sync::Arc;
use std::time::Duration;

fn placement_cycle(placement: Placement, threads: usize) {
    let pool = Arc::new(CentralizedKPriority::<u64>::with_placement(
        threads, 256, placement,
    ));
    let per = 5_000u64;
    std::thread::scope(|s| {
        for t in 0..threads {
            let pool = Arc::clone(&pool);
            s.spawn(move || {
                let mut h = pool.handle(t);
                for i in 0..per {
                    h.push(i ^ 0x5555, 256, i);
                }
                let mut n = 0;
                while h.pop().is_some() {
                    n += 1;
                }
                criterion::black_box(n);
            });
        }
    });
}

fn bench_placement(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_placement");
    g.sample_size(10);
    g.measurement_time(Duration::from_secs(2));
    g.bench_function("random_offset", |b| {
        b.iter(|| placement_cycle(Placement::Random, 2))
    });
    g.bench_function("linear_probe", |b| {
        b.iter(|| placement_cycle(Placement::Linear, 2))
    });
    g.finish();
}

fn bench_dead_elimination(c: &mut Criterion) {
    let with_elimination = SsspWorkload::random(600, 0.3, 1000);
    let without_elimination = SsspWorkload::random(600, 0.3, 1000).without_dead_elimination();
    let mut g = c.benchmark_group("ablation_dead_task_elimination");
    g.sample_size(10);
    g.measurement_time(Duration::from_secs(3));
    for (name, w) in [
        ("eliminate_on", &with_elimination),
        ("eliminate_off", &without_elimination),
    ] {
        g.bench_function(name, |b| {
            b.iter(|| {
                criterion::black_box(run_workload(
                    w,
                    PoolKind::Hybrid,
                    4,
                    PoolParams::with_k(512),
                ))
            })
        });
    }
    g.finish();
}

fn bench_structural_vs_hybrid(c: &mut Criterion) {
    let w = SsspWorkload::random(600, 0.3, 1000);
    let mut g = c.benchmark_group("ablation_structural_vs_hybrid");
    g.sample_size(10);
    g.measurement_time(Duration::from_secs(3));
    for kind in [PoolKind::Hybrid, PoolKind::Structural] {
        g.bench_function(kind.label(), |b| {
            b.iter(|| criterion::black_box(run_workload(&w, kind, 4, PoolParams::with_k(64))))
        });
    }
    g.finish();
}

fn heap_cycle<Q: SequentialPriorityQueue<u64>>() {
    let mut q = Q::new();
    for i in 0..10_000u64 {
        q.push(i.wrapping_mul(0x9E3779B97F4A7C15) >> 32);
    }
    while q.pop().is_some() {}
}

/// A scheduler-sized queue entry: 32 bytes, ordered by `(key, seq)`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Entry32 {
    key: u64,
    seq: u64,
    payload: [u64; 2],
}

/// Entries in the cache-exceeding case: 2·10⁵ × 32 bytes = 6.4 MB.
const LARGE: u64 = 200_000;

/// Pops and pushes on a queue of [`LARGE`] entries the way SSSP does:
/// each pop is followed by 0–2 pushes of keys a little above the popped
/// one (one on average), so the keys rise and the size stays near
/// `LARGE`.
fn large_heap_cycle<Q: SequentialPriorityQueue<Entry32>>() {
    let mut rng = 0x2545_F491_4F6C_DD1Du64;
    let mut next = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    let entry = |key, seq| Entry32 {
        key,
        seq,
        payload: [seq; 2],
    };
    let mut q = Q::new();
    for seq in 0..LARGE {
        q.push(entry(next() % (1 << 20), seq));
    }
    let mut seq = LARGE;
    for _ in 0..LARGE {
        let Some(min) = q.pop() else { break };
        for _ in 0..next() % 3 {
            q.push(entry(min.key + next() % (1 << 16), seq));
            seq += 1;
        }
    }
    criterion::black_box(q.len());
}

fn bench_local_pq(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_local_pq");
    g.sample_size(10);
    g.measurement_time(Duration::from_secs(2));
    g.bench_function("binary_heap", |b| b.iter(heap_cycle::<BinaryHeap<u64>>));
    g.bench_function("binary_heap_200k_x32B", |b| {
        b.iter(large_heap_cycle::<BinaryHeap<Entry32>>)
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_placement,
    bench_dead_elimination,
    bench_structural_vs_hybrid,
    bench_local_pq
);
criterion_main!(benches);
