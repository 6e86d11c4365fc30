//! Open-world load: countdown tasks submitted to a running `PoolService`
//! on a schedule, each timed from its due time to the start of its first
//! execution.

use crate::openloop::{generate, latency_ns, Clock, RealClock, Schedule};
use crate::SplitMix64;
use priosched_core::{PoolService, SpawnCtx, TaskExecutor};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Id carried by spawned (non-submitted) countdown steps.
pub const CHILD: u32 = u32::MAX;

/// One countdown step: `value` executes and spawns `value - 1` until zero,
/// so a submission of `value` accounts for exactly `value + 1` executions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StreamTask {
    /// Submission id (index into the start table), or [`CHILD`].
    pub id: u32,
    /// Remaining countdown.
    pub value: u32,
    /// Priority, inherited by the task's children.
    pub prio: u64,
    /// Due time of the submission, clock ns (0 for children).
    pub due_ns: u64,
}

#[repr(align(128))]
struct Padded(AtomicU64);

/// The benchmark's own executor for open-world runs: counts executions
/// per place and stamps the first execution of every submission.
pub struct StreamExec {
    origin: Instant,
    k: usize,
    /// Start stamp per submission id, `ns + 1` (0 = not started yet).
    starts: Vec<AtomicU64>,
    executed: Vec<Padded>,
    duplicates: AtomicU64,
}

impl StreamExec {
    /// An executor with room for `ids` timed submissions; stamps count
    /// from `origin`, children carry relaxation bound `k`.
    pub fn new(origin: Instant, ids: usize, places: usize, k: usize) -> Self {
        StreamExec {
            origin,
            k,
            starts: (0..ids).map(|_| AtomicU64::new(0)).collect(),
            executed: (0..places.max(1))
                .map(|_| Padded(AtomicU64::new(0)))
                .collect(),
            duplicates: AtomicU64::new(0),
        }
    }

    /// Executions so far, all places.
    pub fn executed(&self) -> u64 {
        self.executed
            .iter()
            .map(|p| p.0.load(Ordering::Acquire))
            .sum()
    }

    /// Submissions whose first step ran more than once (must stay 0).
    pub fn duplicates(&self) -> u64 {
        self.duplicates.load(Ordering::Acquire)
    }

    /// Start stamp of submission `id`, clock ns, if it has started.
    pub fn start_ns(&self, id: usize) -> Option<u64> {
        match self.starts[id].load(Ordering::Acquire) {
            0 => None,
            s => Some(s - 1),
        }
    }

    /// Number of timed submission ids.
    pub fn capacity(&self) -> usize {
        self.starts.len()
    }
}

impl TaskExecutor<StreamTask> for StreamExec {
    fn execute(&self, task: StreamTask, ctx: &mut SpawnCtx<'_, StreamTask>) {
        if task.id != CHILD {
            let now = self.origin.elapsed().as_nanos() as u64 + 1;
            if self.starts[task.id as usize].swap(now, Ordering::AcqRel) != 0 {
                self.duplicates.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.executed[ctx.place() % self.executed.len()]
            .0
            .fetch_add(1, Ordering::Release);
        if task.value > 0 {
            let child = StreamTask {
                id: CHILD,
                value: task.value - 1,
                prio: task.prio,
                due_ns: 0,
            };
            ctx.spawn(task.prio, self.k, child);
        }
    }
}

/// What one open-loop pass produced.
#[derive(Debug, Default)]
pub struct PassResult {
    /// Due-to-start latency of every submission, ns, in submission order.
    pub latency_ns: Vec<u64>,
    /// Generator lateness (send − due) of every submission, ns, ascending.
    pub lateness_ns: Vec<u64>,
    /// Submissions attempted.
    pub attempted: u64,
    /// Submissions the service rejected.
    pub rejected: u64,
    /// Submissions accepted whose first step never ran or ran twice.
    pub mismatched: u64,
    /// Executions the countdown oracle expects from the accepted ones.
    pub expected_executions: u64,
    /// Duration of every `submit` call, ns, in submission order.
    pub submit_ns: Vec<u64>,
    /// Highest `PoolService::queued` the generator sampled.
    pub queued_max: u64,
    /// Wall time of the closing `join`, ns.
    pub join_ns: u64,
    /// The schedule the pass ran (scheduled passes only).
    pub schedule: Option<Schedule>,
}

/// Countdown length of a submission: uniform in `0..=max_value`.
pub fn draw_value(rng: &mut SplitMix64, max_value: u32) -> u32 {
    (rng.next_u64() % (max_value as u64 + 1)) as u32
}

/// Runs `rate` submissions per second for `seconds` into `svc`, ids from
/// `id_base`, then joins. Latency is measured from each submission's due
/// time to the start of its first execution.
#[allow(clippy::too_many_arguments)]
pub fn open_pass(
    svc: &mut PoolService<StreamTask>,
    exec: &StreamExec,
    clock: &RealClock,
    rate: f64,
    seconds: f64,
    id_base: usize,
    max_value: u32,
    k: usize,
    rng: &mut SplitMix64,
) -> PassResult {
    let schedule = Schedule::at_rate(clock.now_ns() + 1_000_000, rate, seconds);
    let count = schedule.count.min(exec.capacity().saturating_sub(id_base));
    let schedule = Schedule { count, ..schedule };
    let mut r = PassResult::default();
    let lateness = generate(clock, &schedule, |i, due_ns| {
        let value = draw_value(rng, max_value);
        let prio = rng.next_u64() >> 44;
        let task = StreamTask {
            id: (id_base + i) as u32,
            value,
            prio,
            due_ns,
        };
        let t0 = Instant::now();
        let res = svc.submit(prio, k, task);
        r.submit_ns.push(t0.elapsed().as_nanos() as u64);
        r.attempted += 1;
        match res {
            Ok(()) => r.expected_executions += value as u64 + 1,
            Err(_) => r.rejected += 1,
        }
        if i % 64 == 0 {
            r.queued_max = r.queued_max.max(svc.queued());
        }
        true
    });
    let t0 = Instant::now();
    let joined = svc.join();
    r.join_ns = t0.elapsed().as_nanos() as u64;
    if joined.is_err() {
        r.mismatched += 1;
    }
    for i in 0..count {
        match exec.start_ns(id_base + i) {
            Some(start) => r.latency_ns.push(latency_ns(schedule.due(i), start)),
            None => r.mismatched += 1,
        }
    }
    r.lateness_ns = lateness;
    r.lateness_ns.sort_unstable();
    r.schedule = Some(schedule);
    r
}

/// Closed-loop saturation: `count` blocking submits back to back, then
/// `join`. Returns the pass and its executions per second (first submit to
/// drain).
pub fn saturation_pass(
    svc: &mut PoolService<StreamTask>,
    count: usize,
    max_value: u32,
    k: usize,
    rng: &mut SplitMix64,
) -> (PassResult, f64) {
    let mut r = PassResult::default();
    let start = Instant::now();
    for i in 0..count {
        let value = draw_value(rng, max_value);
        let prio = rng.next_u64() >> 44;
        let task = StreamTask {
            id: CHILD,
            value,
            prio,
            due_ns: 0,
        };
        r.attempted += 1;
        match svc.submit(prio, k, task) {
            Ok(()) => r.expected_executions += value as u64 + 1,
            Err(_) => {
                r.rejected += 1;
                break;
            }
        }
        if i % 4096 == 0 {
            r.queued_max = r.queued_max.max(svc.queued());
        }
    }
    let t0 = Instant::now();
    if svc.join().is_err() {
        r.mismatched += 1;
    }
    r.join_ns = t0.elapsed().as_nanos() as u64;
    let rate = r.expected_executions as f64 / start.elapsed().as_secs_f64();
    (r, rate)
}
