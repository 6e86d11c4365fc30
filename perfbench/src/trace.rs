//! Outside-in tracing: timing wrappers around the library's public
//! scheduling traits, plus coarse spans.
//!
//! Nothing inside the library is instrumented. [`TracedPool`] wraps any
//! [`TaskPool`] and hands out [`TracedHandle`]s that time every
//! `push`/`push_batch`/`pop_entry`/`try_pop_batch` call; [`TracedExec`]
//! wraps any [`TaskExecutor`] and times `execute` and `is_dead`. Because
//! `Scheduler::from_pool` and `PoolService::start_with_capacity` accept any
//! pool and executor, the wrapped pair runs through the unmodified
//! scheduling loop.
//!
//! Accumulators are per place and in memory: a thread-local of the worker
//! thread that owns the place's handle, written by both wrappers. When the
//! worker drops its handle — the last thing a worker does — the
//! accumulators become one [`PlaceTrace`] in the pool's sink. The handle's
//! lifetime is the worker's wall time.

use priosched_core::stats::PlaceStats;
use priosched_core::{PoolHandle, SpawnCtx, TaskExecutor, TaskPool};
use std::cell::RefCell;
use std::ops::Deref;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Log₂ buckets of [`Acc::hist`]: bucket `i` holds durations in
/// `[2^(i-1), 2^i)` ns (bucket 0 holds 0 ns); the last bucket saturates.
pub const BUCKETS: usize = 32;

/// Count, total time and a log₂ histogram of one boundary's calls.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Acc {
    /// Calls recorded.
    pub count: u64,
    /// Summed duration of those calls, ns.
    pub total_ns: u64,
    /// Log₂ histogram of the durations (see [`BUCKETS`]).
    pub hist: [u64; BUCKETS],
}

impl Acc {
    /// An empty accumulator.
    pub const fn new() -> Self {
        Acc {
            count: 0,
            total_ns: 0,
            hist: [0; BUCKETS],
        }
    }

    /// Records one call of `ns` nanoseconds.
    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.count += 1;
        self.total_ns += ns;
        let bucket = (64 - ns.leading_zeros() as usize).min(BUCKETS - 1);
        self.hist[bucket] += 1;
    }

    /// Adds `other` into `self`.
    pub fn merge(&mut self, other: &Acc) {
        self.count += other.count;
        self.total_ns += other.total_ns;
        for (a, b) in self.hist.iter_mut().zip(other.hist.iter()) {
            *a += b;
        }
    }

    /// Mean duration per call, ns (0 when empty).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }

    /// Upper edge of the histogram bucket holding quantile `q` — a
    /// conservative (at most 2× high) percentile, ns.
    pub fn quantile_ns(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &n) in self.hist.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return if i == 0 {
                    0.0
                } else {
                    ((1u64 << i) - 1) as f64
                };
            }
        }
        ((1u64 << (BUCKETS - 1)) - 1) as f64
    }
}

impl Default for Acc {
    fn default() -> Self {
        Acc::new()
    }
}

/// Everything recorded for one place (worker thread) of one run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PlaceTrace {
    /// Place id the handle was created for.
    pub place: usize,
    /// Worker wall time: handle creation to handle drop, ns.
    pub wall_ns: u64,
    /// `push`/`push_batch` calls.
    pub push: Acc,
    /// Elements those calls stored (a batch counts each element).
    pub pushed: u64,
    /// `pop_entry`/`try_pop_batch` calls that returned work.
    pub pop_hit: Acc,
    /// Elements returned by those calls.
    pub popped: u64,
    /// `pop_entry`/`try_pop_batch` calls that returned nothing.
    pub pop_miss: Acc,
    /// `execute` calls (their duration includes pushes made from inside).
    pub exec: Acc,
    /// Pool time spent inside `execute` (spawns), ns.
    pub exec_pool_ns: u64,
    /// `is_dead` calls.
    pub dead_check: Acc,
    /// `is_dead` calls that returned `true`.
    pub dead: u64,
}

impl PlaceTrace {
    const fn empty() -> Self {
        PlaceTrace {
            place: 0,
            wall_ns: 0,
            push: Acc::new(),
            pushed: 0,
            pop_hit: Acc::new(),
            popped: 0,
            pop_miss: Acc::new(),
            exec: Acc::new(),
            exec_pool_ns: 0,
            dead_check: Acc::new(),
            dead: 0,
        }
    }

    /// Total time in pool calls, ns.
    pub fn pool_ns(&self) -> u64 {
        self.push.total_ns + self.pop_hit.total_ns + self.pop_miss.total_ns
    }

    /// Adds `other` into `self` (place id is kept).
    pub fn merge(&mut self, other: &PlaceTrace) {
        self.wall_ns += other.wall_ns;
        self.push.merge(&other.push);
        self.pushed += other.pushed;
        self.pop_hit.merge(&other.pop_hit);
        self.popped += other.popped;
        self.pop_miss.merge(&other.pop_miss);
        self.exec.merge(&other.exec);
        self.exec_pool_ns += other.exec_pool_ns;
        self.dead_check.merge(&other.dead_check);
        self.dead += other.dead;
    }
}

thread_local! {
    /// The current worker's accumulators. Written by the handle and the
    /// executor wrapper on the same thread; drained when the handle drops.
    static LOCAL: RefCell<PlaceTrace> = const { RefCell::new(PlaceTrace::empty()) };
}

/// Where finished [`PlaceTrace`]s are collected.
pub type Sink = Arc<Mutex<Vec<PlaceTrace>>>;

/// A [`TaskPool`] whose handles time every call into the wrapped pool.
pub struct TracedPool<P> {
    inner: Arc<P>,
    sink: Sink,
}

impl<P> TracedPool<P> {
    /// Wraps `inner`; finished place traces go to a fresh sink.
    pub fn new(inner: P) -> Self {
        TracedPool {
            inner: Arc::new(inner),
            sink: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// The sink place traces are pushed to when workers finish.
    pub fn sink(&self) -> Sink {
        Arc::clone(&self.sink)
    }
}

impl<T: Send + 'static, P: TaskPool<T>> TaskPool<T> for TracedPool<P> {
    type Handle = TracedHandle<P::Handle>;

    fn num_places(&self) -> usize {
        self.inner.num_places()
    }

    fn handle(self: &Arc<Self>, place: usize) -> Self::Handle {
        // The scheduler and the service both create a place's handle on
        // that place's worker thread, so the thread-local starts clean here.
        LOCAL.with(|l| *l.borrow_mut() = PlaceTrace::empty());
        TracedHandle {
            inner: self.inner.handle(place),
            place,
            started: Instant::now(),
            sink: Arc::clone(&self.sink),
        }
    }
}

/// One place's timed view of a [`TracedPool`].
pub struct TracedHandle<H> {
    inner: H,
    place: usize,
    started: Instant,
    sink: Sink,
}

#[inline]
fn with_local(f: impl FnOnce(&mut PlaceTrace)) {
    LOCAL.with(|l| f(&mut l.borrow_mut()));
}

#[inline]
fn elapsed_ns(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

impl<T: Send, H: PoolHandle<T>> PoolHandle<T> for TracedHandle<H> {
    fn push(&mut self, prio: u64, k: usize, task: T) {
        let t0 = Instant::now();
        self.inner.push(prio, k, task);
        let ns = elapsed_ns(t0);
        with_local(|l| {
            l.push.record(ns);
            l.pushed += 1;
        });
    }

    fn pop_entry(&mut self) -> Option<(u64, T)> {
        let t0 = Instant::now();
        let got = self.inner.pop_entry();
        let ns = elapsed_ns(t0);
        with_local(|l| {
            if got.is_some() {
                l.pop_hit.record(ns);
                l.popped += 1;
            } else {
                l.pop_miss.record(ns);
            }
        });
        got
    }

    fn push_batch(&mut self, k: usize, batch: &mut Vec<(u64, T)>) {
        let n = batch.len() as u64;
        let t0 = Instant::now();
        self.inner.push_batch(k, batch);
        let ns = elapsed_ns(t0);
        with_local(|l| {
            l.push.record(ns);
            l.pushed += n;
        });
    }

    fn try_pop_batch(&mut self, out: &mut Vec<T>, max: usize) -> usize {
        let t0 = Instant::now();
        let got = self.inner.try_pop_batch(out, max);
        let ns = elapsed_ns(t0);
        with_local(|l| {
            if got > 0 {
                l.pop_hit.record(ns);
                l.popped += got as u64;
            } else {
                l.pop_miss.record(ns);
            }
        });
        got
    }

    fn stats(&self) -> PlaceStats {
        self.inner.stats()
    }
}

impl<H> Drop for TracedHandle<H> {
    fn drop(&mut self) {
        let mut trace =
            LOCAL.with(|l| std::mem::replace(&mut *l.borrow_mut(), PlaceTrace::empty()));
        trace.place = self.place;
        trace.wall_ns = elapsed_ns(self.started);
        if let Ok(mut sink) = self.sink.lock() {
            sink.push(trace);
        }
    }
}

/// A [`TaskExecutor`] that times `execute` and `is_dead` of the executor
/// it points to (`&E`, `Arc<E>`, …).
pub struct TracedExec<D>(pub D);

impl<T: Send, D> TaskExecutor<T> for TracedExec<D>
where
    D: Deref + Sync,
    D::Target: TaskExecutor<T>,
{
    fn execute(&self, task: T, ctx: &mut SpawnCtx<'_, T>) {
        let pool_before = LOCAL.with(|l| l.borrow().pool_ns());
        let t0 = Instant::now();
        self.0.execute(task, ctx);
        let ns = elapsed_ns(t0);
        with_local(|l| {
            l.exec.record(ns);
            l.exec_pool_ns += l.pool_ns() - pool_before;
        });
    }

    fn is_dead(&self, task: &T) -> bool {
        let t0 = Instant::now();
        let dead = self.0.is_dead(task);
        let ns = elapsed_ns(t0);
        with_local(|l| {
            l.dead_check.record(ns);
            l.dead += dead as u64;
        });
        dead
    }
}

/// One coarse span: a named interval with the span that caused it.
#[derive(Clone, Debug)]
pub struct Span {
    /// Unique id within the run (1-based; 0 means "no parent").
    pub id: u64,
    /// Id of the enclosing span, 0 for the root.
    pub parent: u64,
    /// What the interval covers (`solve`, `submit_batch`, `join`, …).
    pub name: String,
    /// Start, ns since the run's origin.
    pub start_ns: u64,
    /// End, ns since the run's origin.
    pub end_ns: u64,
}

/// In-memory span log, written out once when the benchmark ends.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    /// An empty log whose timestamps count from `origin`.
    pub fn new(origin: Instant) -> Self {
        Spans {
            origin,
            spans: Vec::new(),
        }
    }

    /// Opens a span now; close it with [`Spans::close`].
    pub fn open(&mut self, parent: u64, name: impl Into<String>) -> u64 {
        let now = self.origin.elapsed().as_nanos() as u64;
        self.record(parent, name, now, u64::MAX)
    }

    /// Closes span `id` now.
    pub fn close(&mut self, id: u64) {
        let now = self.origin.elapsed().as_nanos() as u64;
        if let Some(s) = self.spans.get_mut((id - 1) as usize) {
            s.end_ns = now;
        }
    }

    /// Records a finished span with explicit bounds; returns its id.
    pub fn record(
        &mut self,
        parent: u64,
        name: impl Into<String>,
        start_ns: u64,
        end_ns: u64,
    ) -> u64 {
        let id = self.spans.len() as u64 + 1;
        self.spans.push(Span {
            id,
            parent,
            name: name.into(),
            start_ns,
            end_ns,
        });
        id
    }

    /// All spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}
