//! Data-structure push/pop throughput — the congestion behaviour underlying
//! Figures 4–5.
//!
//! Single-threaded cost per op for each structure (pure overhead ranking),
//! a small contended producer/consumer scenario, the scalar-vs-batched
//! comparison for the batch API (`push_batch`/`try_pop_batch`) at batch
//! sizes 1/8/32/128, and the structural pool's flat-combined shared heap
//! under contention (`ds_combine`: throughput plus per-op p50/p99/p999
//! from an HDR-style histogram).
//!
//! To record a JSON baseline (e.g. the committed `BENCH_batch.json`):
//! `CRITERION_JSON_OUT=BENCH_batch.json cargo bench --bench ds_throughput -- ds_batch`
//!
//! Pools are built through the runtime facade ([`PoolKind::build`]); the
//! erased handle adds one predictable branch per operation, uniform across
//! every structure and across the scalar and batch arms, so ratios remain
//! comparable (absolute numbers shift slightly vs pre-facade baselines).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use priosched_bench::latency::LatencyHist;
use priosched_core::{AnyPool, PoolHandle, PoolKind, PoolParams, TaskPool};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const OPS: u64 = 10_000;

/// The shared sweep parameters: k = 64 for the structural prototype's
/// buffers, the paper's kmax = 512 for the centralized structure.
fn pool(kind: PoolKind, places: usize) -> Arc<AnyPool<u64>> {
    Arc::new(kind.build(places, PoolParams::with_k(64)))
}

#[inline]
fn prio_of(i: u64) -> u64 {
    // Pseudo-random priorities; xorshift-style scramble of i.
    i.wrapping_mul(0x9E3779B97F4A7C15) >> 32
}

fn push_pop_cycle(pool: Arc<AnyPool<u64>>) {
    let mut h = pool.handle(0);
    for i in 0..OPS {
        h.push(prio_of(i), 64, i);
    }
    let mut got = 0;
    while h.pop().is_some() {
        got += 1;
    }
    assert_eq!(got, OPS);
}

/// Same workload as [`push_pop_cycle`], but routed through the batch API.
fn push_pop_cycle_batched(pool: Arc<AnyPool<u64>>, batch: usize) {
    let mut h = pool.handle(0);
    let mut buf: Vec<(u64, u64)> = Vec::with_capacity(batch);
    let mut i = 0u64;
    while i < OPS {
        let n = batch.min((OPS - i) as usize);
        for _ in 0..n {
            buf.push((prio_of(i), i));
            i += 1;
        }
        h.push_batch(64, &mut buf);
    }
    let mut out: Vec<u64> = Vec::with_capacity(batch);
    let mut got = 0;
    loop {
        out.clear();
        let n = h.try_pop_batch(&mut out, batch);
        if n == 0 {
            break;
        }
        got += n as u64;
    }
    assert_eq!(got, OPS);
}

fn bench_single_thread(c: &mut Criterion) {
    let mut g = c.benchmark_group("ds_single_thread_push_pop");
    g.throughput(Throughput::Elements(2 * OPS));
    g.sample_size(10);
    g.measurement_time(Duration::from_secs(2));
    for kind in PoolKind::ALL {
        g.bench_function(kind.id(), |b| b.iter(|| push_pop_cycle(pool(kind, 1))));
    }
    g.finish();
}

fn contended_cycle(pool: Arc<AnyPool<u64>>, threads: usize) {
    let per = OPS / threads as u64;
    std::thread::scope(|s| {
        for t in 0..threads {
            let pool = Arc::clone(&pool);
            s.spawn(move || {
                let mut h = pool.handle(t);
                let mut popped = 0u64;
                for i in 0..per {
                    h.push(prio_of(i), 64, i);
                    if i % 2 == 1 {
                        // Interleave pops so both paths stay hot.
                        if h.pop().is_some() {
                            popped += 1;
                        }
                    }
                }
                while h.pop().is_some() {
                    popped += 1;
                }
                criterion::black_box(popped);
            });
        }
    });
}

/// Contended workload routed through the batch API: each round pushes a
/// batch and immediately pops up to half of it back (mirroring the
/// half-interleaved pops of [`contended_cycle`]), then drains in batches.
fn contended_cycle_batched(pool: Arc<AnyPool<u64>>, threads: usize, batch: usize) {
    let per = OPS / threads as u64;
    std::thread::scope(|s| {
        for t in 0..threads {
            let pool = Arc::clone(&pool);
            s.spawn(move || {
                let mut h = pool.handle(t);
                let mut popped = 0u64;
                let mut buf: Vec<(u64, u64)> = Vec::with_capacity(batch);
                let mut out: Vec<u64> = Vec::with_capacity(batch);
                let mut i = 0u64;
                while i < per {
                    let n = batch.min((per - i) as usize);
                    for _ in 0..n {
                        buf.push((prio_of(i), i));
                        i += 1;
                    }
                    h.push_batch(64, &mut buf);
                    out.clear();
                    popped += h.try_pop_batch(&mut out, n.div_ceil(2)) as u64;
                }
                loop {
                    out.clear();
                    let n = h.try_pop_batch(&mut out, batch);
                    if n == 0 {
                        break;
                    }
                    popped += n as u64;
                }
                criterion::black_box(popped);
            });
        }
    });
}

fn bench_contended(c: &mut Criterion) {
    let threads = 2;
    let mut g = c.benchmark_group("ds_contended_push_pop");
    g.throughput(Throughput::Elements(2 * OPS));
    g.sample_size(10);
    g.measurement_time(Duration::from_secs(2));
    for kind in PoolKind::ALL {
        g.bench_with_input(BenchmarkId::new(kind.id(), threads), &threads, |b, &t| {
            b.iter(|| contended_cycle(pool(kind, t), t))
        });
    }
    g.finish();
}

/// Scalar-vs-batched push/pop, single place: isolates the per-operation
/// overhead the batch API amortizes (locks, free-list CASes, heap
/// repairs) without scheduling noise. Batch size 1 measures the batch
/// path's fixed overhead; sizes 8/32/128 its amortization.
fn bench_batch_single_thread(c: &mut Criterion) {
    let mut g = c.benchmark_group("ds_batch_single_thread");
    g.throughput(Throughput::Elements(2 * OPS));
    g.sample_size(10);
    g.measurement_time(Duration::from_secs(2));
    for kind in PoolKind::ALL {
        g.bench_with_input(BenchmarkId::new(kind.id(), "scalar"), &kind, |b, &kind| {
            b.iter(|| push_pop_cycle(pool(kind, 1)))
        });
        for batch in [1usize, 8, 32, 128] {
            g.bench_with_input(
                BenchmarkId::new(kind.id(), format!("batch{batch}")),
                &batch,
                |b, &batch| b.iter(|| push_pop_cycle_batched(pool(kind, 1), batch)),
            );
        }
    }
    g.finish();
}

/// Scalar-vs-batched under contention (4 places): the acceptance scenario
/// for the batch API — amortized synchronization must beat per-op
/// synchronization once batches reach a useful size.
fn bench_batch_contended(c: &mut Criterion) {
    let threads = 4usize;
    let mut g = c.benchmark_group("ds_batch_contended");
    g.throughput(Throughput::Elements(2 * OPS));
    g.sample_size(10);
    g.measurement_time(Duration::from_secs(2));
    for kind in PoolKind::ALL {
        g.bench_with_input(
            BenchmarkId::new(kind.id(), format!("scalar_t{threads}")),
            &threads,
            |b, &t| b.iter(|| contended_cycle(pool(kind, t), t)),
        );
        for batch in [8usize, 32, 128] {
            g.bench_with_input(
                BenchmarkId::new(kind.id(), format!("batch{batch}_t{threads}")),
                &batch,
                |b, &batch| b.iter(|| contended_cycle_batched(pool(kind, threads), threads, batch)),
            );
        }
    }
    g.finish();
}

/// [`contended_cycle`] with every push/pop individually timed into a
/// per-thread [`LatencyHist`], merged across threads at the end. The
/// `Instant` pair adds a fixed cost to every op, so percentile
/// *comparisons* across place counts stay fair even though absolute
/// numbers shift slightly.
fn contended_cycle_timed(pool: Arc<AnyPool<u64>>, threads: usize) -> LatencyHist {
    let merged = Mutex::new(LatencyHist::new());
    let per = OPS / threads as u64;
    std::thread::scope(|s| {
        for t in 0..threads {
            let pool = Arc::clone(&pool);
            let merged = &merged;
            s.spawn(move || {
                let mut h = pool.handle(t);
                let mut hist = LatencyHist::new();
                for i in 0..per {
                    let t0 = Instant::now();
                    h.push(prio_of(i), 64, i);
                    hist.record_duration(t0.elapsed());
                    if i % 2 == 1 {
                        let t0 = Instant::now();
                        let got = h.pop();
                        hist.record_duration(t0.elapsed());
                        criterion::black_box(got);
                    }
                }
                loop {
                    let t0 = Instant::now();
                    let got = h.pop();
                    if got.is_none() {
                        break;
                    }
                    hist.record_duration(t0.elapsed());
                }
                merged.lock().unwrap().merge(&hist);
            });
        }
    });
    merged.into_inner().unwrap()
}

/// The structural pool's flat-combined shared heap (k = 64, so pushes
/// overflow into it constantly) at 1, 2 and 4 places. At 1 place the
/// combiner's fast path keeps every op off the slot protocol.
///
/// Two arms per place count: wall-clock throughput via the normal
/// bencher (`combine/p*`), and self-measured per-op latency percentiles
/// (`combine_lat/p*` ids carry `p50_ns`/`p99_ns`/`p999_ns` in the JSON
/// dump).
fn bench_combine(c: &mut Criterion) {
    let mut g = c.benchmark_group("ds_combine");
    g.throughput(Throughput::Elements(2 * OPS));
    g.sample_size(10);
    g.measurement_time(Duration::from_secs(2));
    let places_sweep = [1usize, 2, 4];
    for &places in &places_sweep {
        g.bench_with_input(
            BenchmarkId::new("combine", format!("p{places}")),
            &places,
            |b, &p| b.iter(|| contended_cycle(pool(PoolKind::Structural, p), p)),
        );
    }
    for &places in &places_sweep {
        let mut hist = LatencyHist::new();
        for _ in 0..3 {
            hist.merge(&contended_cycle_timed(
                pool(PoolKind::Structural, places),
                places,
            ));
        }
        g.report_with_percentiles(
            format!("combine_lat/p{places}"),
            hist.mean_ns(),
            hist.min_ns() as f64,
            hist.max_ns() as f64,
            hist.p50() as f64,
            hist.p99() as f64,
            hist.p999() as f64,
        );
    }
    g.finish();
}

/// MultiQueue pool with the queues-per-place factor explicit; everything
/// else as in [`pool`].
fn mq_pool(places: usize, c: usize) -> Arc<AnyPool<u64>> {
    Arc::new(PoolKind::MultiQueue.build(places, PoolParams::with_k(64).with_mq_c(c)))
}

/// Relaxed MultiQueue vs the four exact structures — the A/B that prices
/// the relaxation. The MultiQueue's c·P queues with two-choice pops
/// should shed contention as c grows; the exact structures are the
/// quality baseline those saved nanoseconds are traded against. (The
/// quality side of the trade — rank error — is measured separately by
/// `schedbench --rank-error`, off this hot path.)
///
/// Two arms per cell, as in [`bench_combine`]: wall-clock throughput via
/// the normal bencher, and self-measured per-op percentiles (`*_lat/p*`
/// ids carry `p50_ns`/`p99_ns`/`p999_ns` in the JSON dump).
fn bench_multiqueue(c: &mut Criterion) {
    let mut g = c.benchmark_group("ds_multiqueue");
    g.throughput(Throughput::Elements(2 * OPS));
    g.sample_size(10);
    g.measurement_time(Duration::from_secs(2));
    let places_sweep = [1usize, 2, 4];
    let exact: Vec<PoolKind> = PoolKind::ALL
        .into_iter()
        .filter(|&k| k != PoolKind::MultiQueue)
        .collect();
    for &places in &places_sweep {
        for mc in [1usize, 2, 4] {
            g.bench_with_input(
                BenchmarkId::new(format!("mq_c{mc}"), format!("p{places}")),
                &places,
                |b, &p| b.iter(|| contended_cycle(mq_pool(p, mc), p)),
            );
        }
        for &kind in &exact {
            g.bench_with_input(
                BenchmarkId::new(kind.id(), format!("p{places}")),
                &places,
                |b, &p| b.iter(|| contended_cycle(pool(kind, p), p)),
            );
        }
    }
    type PoolThunk = Box<dyn Fn() -> Arc<AnyPool<u64>>>;
    for &places in &places_sweep {
        let mut cells: Vec<(String, PoolThunk)> = Vec::new();
        for mc in [1usize, 2, 4] {
            cells.push((
                format!("mq_c{mc}_lat/p{places}"),
                Box::new(move || mq_pool(places, mc)),
            ));
        }
        for &kind in &exact {
            cells.push((
                format!("{}_lat/p{places}", kind.id()),
                Box::new(move || pool(kind, places)),
            ));
        }
        for (id, make_pool) in cells {
            let mut hist = LatencyHist::new();
            for _ in 0..3 {
                hist.merge(&contended_cycle_timed(make_pool(), places));
            }
            g.report_with_percentiles(
                id,
                hist.mean_ns(),
                hist.min_ns() as f64,
                hist.max_ns() as f64,
                hist.p50() as f64,
                hist.p99() as f64,
                hist.p999() as f64,
            );
        }
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_single_thread,
    bench_contended,
    bench_batch_single_thread,
    bench_batch_contended,
    bench_combine,
    bench_multiqueue
);
criterion_main!(benches);
