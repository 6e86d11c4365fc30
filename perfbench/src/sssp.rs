//! Closed-world load: seeded SSSP instances solved on every structure,
//! each solve checked against the Dijkstra oracle.

use crate::trace::{PlaceTrace, TracedExec, TracedPool};
use priosched_core::{run_on_kind, PoolKind, PoolParams, RunStats, Scheduler};
use priosched_graph::{dijkstra, erdos_renyi, ErdosRenyiConfig};
use priosched_workloads::{SsspWorkload, Workload};
use std::time::Instant;

type Task = <SsspWorkload as Workload>::Task;

/// One seeded instance with its oracle and build timings.
pub struct Instance {
    /// The graph, source 0, and its Dijkstra distances.
    pub workload: SsspWorkload,
    /// Nodes with a finite oracle distance.
    pub reachable: u64,
    /// `erdos_renyi` time, ms.
    pub gen_ms: f64,
    /// `SsspWorkload::new` (Dijkstra oracle) time, ms.
    pub oracle_ms: f64,
}

impl Instance {
    /// Samples `G(n, p)` from `seed` and computes its oracle.
    pub fn build(n: usize, p: f64, seed: u64) -> Self {
        let t0 = Instant::now();
        let graph = erdos_renyi(&ErdosRenyiConfig { n, p, seed });
        let gen_ms = ms(t0);
        let t1 = Instant::now();
        let workload = SsspWorkload::new(graph, 0);
        let oracle_ms = ms(t1);
        let reachable = workload.oracle().iter().filter(|d| d.is_finite()).count() as u64;
        Instance {
            workload,
            reachable,
            gen_ms,
            oracle_ms,
        }
    }

    /// Undirected edge count of the instance.
    pub fn edges(&self) -> usize {
        self.workload.graph().num_edges()
    }

    /// Order-sensitive digest of the oracle distances.
    pub fn oracle_checksum(&self) -> u64 {
        self.workload
            .oracle()
            .iter()
            .fold(0xcbf2_9ce4_8422_2325u64, |h, d| {
                (h ^ d.to_bits()).wrapping_mul(0x0100_0000_01b3)
            })
    }
}

/// Outcome of one verified solve.
#[derive(Debug)]
pub struct Solve {
    /// Wall time of the scheduled run, ms.
    pub ms: f64,
    /// `Workload::verify` time, ms.
    pub verify_ms: f64,
    /// Oracle verdict.
    pub verified: Result<(), String>,
    /// Nodes relaxed (edge lists scanned).
    pub relaxed: f64,
    /// The scheduler's statistics.
    pub run: RunStats,
}

fn ms(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

fn finish(
    inst: &Instance,
    exec: &<SsspWorkload as Workload>::Exec<'_>,
    run: RunStats,
    ms: f64,
) -> Solve {
    let w = &inst.workload;
    let t0 = Instant::now();
    let verified = w.verify(exec, &run);
    let verify_ms = self::ms(t0);
    let relaxed = w
        .metrics(exec, &run)
        .iter()
        .find(|(name, _)| *name == "relaxed")
        .map_or(0.0, |(_, v)| *v);
    Solve {
        ms,
        verify_ms,
        verified,
        relaxed,
        run,
    }
}

/// Solves `inst` on `kind` with `places` places, untraced.
pub fn solve(inst: &Instance, kind: PoolKind, places: usize, params: PoolParams) -> Solve {
    let w = &inst.workload;
    let exec = w.executor(&params);
    let roots = w.seed(&exec, &params);
    let t0 = Instant::now();
    let run = run_on_kind(kind, places, params, &exec, roots);
    let elapsed = ms(t0);
    finish(inst, &exec, run, elapsed)
}

/// Solves `inst` on `kind` through the timing wrappers; returns the solve
/// and one [`PlaceTrace`] per place.
pub fn solve_traced(
    inst: &Instance,
    kind: PoolKind,
    places: usize,
    params: PoolParams,
) -> (Solve, Vec<PlaceTrace>) {
    let w = &inst.workload;
    let pool = TracedPool::new(kind.build::<Task>(places, params));
    let sink = pool.sink();
    let sched = Scheduler::from_pool(pool).with_fault_policy(params.fault_policy);
    let exec = w.executor(&params);
    let roots = w.seed(&exec, &params);
    let t0 = Instant::now();
    let run = sched.run(&TracedExec(&exec), roots);
    let elapsed = ms(t0);
    let traces = std::mem::take(&mut *sink.lock().expect("trace sink poisoned"));
    (finish(inst, &exec, run, elapsed), traces)
}

/// Sequential Dijkstra on the instance, ms; `false` when its distances
/// differ from the oracle.
pub fn sequential(inst: &Instance) -> (f64, bool) {
    let w = &inst.workload;
    let t0 = Instant::now();
    let result = dijkstra(w.graph(), 0);
    let elapsed = ms(t0);
    (elapsed, result.dist == w.oracle())
}
