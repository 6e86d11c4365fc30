//! schedbench — the unified workload harness.
//!
//! Sweeps workload × structure × places × k × spawn-chunk, verifies **every
//! run** against the workload's sequential oracle, and emits records in the
//! committed `BENCH_*.json` format (`group`/`id`/`mean_ns`/`min_ns`/
//! `max_ns`/`elements`), so baselines like `BENCH_workloads.json` are
//! regenerable with one command instead of being one-off artifacts.
//!
//! ```text
//! schedbench [--smoke] [--workloads sssp,bfs,cholesky,knapsack,mo_sssp,mst]
//!            [--kinds work_stealing,centralized,hybrid,structural,multiqueue]
//!            [--places 1,2,4] [--k 512] [--chunks 0] [--reps 3]
//!            [--oplat OPS] [--rank-error OPS]
//!            [--ingest PRODUCERSxCHUNK,…] [--lane-cap N,…]
//!            [--net CONNSxPER_CONN,…] [--out FILE.json]
//! ```
//!
//! * `--smoke` shrinks every instance and runs one rep — the CI job that
//!   keeps example-derived workloads from rotting.
//! * `--chunks` sweeps the spawn-batch chunk bound for the workloads that
//!   batch their spawns (sssp, mo_sssp); `0` = one batch per expansion.
//! * `--ingest` switches the sweep to the open-world path: each cell like
//!   `4x32` feeds the instance's seeds through sharded ingestion lanes
//!   from 4 producer threads in submission chunks of 32 (see
//!   `run_workload_streamed`), still verified against the same oracle.
//!   Without the flag, seeds are preseeded as roots (the closed-world
//!   baseline).
//! * `--lane-cap` adds a backpressure axis to `--ingest` cells: each value
//!   bounds every ingress lane to that many queued tasks (`0` =
//!   unbounded), so producers block (parking) when they outrun the
//!   workers. Requires `--ingest` or `--net`.
//! * `--net` switches to the network sweep: each cell like `4x64` starts
//!   a fresh in-process `priosched-serve` server per (kind × places × k ×
//!   lane-cap) combination, drives it with 4 load-client connections of
//!   64 countdown submissions each over real loopback TCP (batched
//!   `BATCH` requests), verifies the `DONE` count against the countdown
//!   oracle, and emits `schedbench_net` records. Mutually exclusive with
//!   `--ingest` and `--workloads` (the net workload is the wire
//!   protocol's countdown job).
//! * `--chaos seed=N` switches to the deterministic chaos sweep (see
//!   `priosched_bench::chaos`): seeded task panics under both fault
//!   policies, mid-run producer aborts, garbage/oversized protocol
//!   lines, stalled and killed sockets — across every requested kind ×
//!   places cell, each run **twice** to prove the failure counters are
//!   identical on a same-seed repeat. Emits `schedbench_chaos` records
//!   carrying the failure-mode counters. Contradicts `--net` and
//!   `--ingest` (usage error).
//! * `--oplat OPS` switches to the per-op latency sweep: `places`
//!   threads per cell each run OPS push/pop cycles against the raw pool
//!   (no workload, no oracle), every op individually timed into an
//!   HDR-style histogram ([`priosched_bench::latency::LatencyHist`]);
//!   records land in group `schedbench_oplat` with `p50_ns`/`p99_ns`/
//!   `p999_ns` fields. The committed `BENCH_combine.json` was recorded
//!   with it when the structural pool still had a plain-mutex shared
//!   queue beside the flat combiner; its `_comb` rows are today's
//!   `structural` rows.
//!   Mutually exclusive with `--ingest`/`--net`/`--chaos`.
//! * `--rank-error OPS` switches to the relaxation-quality sweep: the
//!   same raw-pool cycle, but MultiQueue cells fan out over the c ×
//!   stickiness grid and run twice — once uninstrumented for honest
//!   latency, once with the shadow-heap instrument pricing every pop's
//!   rank error. Records land in group `schedbench_rankerr`; MultiQueue
//!   rows carry `rank_err_mean`/`rank_err_p99`/`rank_err_max` next to
//!   the latency percentiles, and the c = 1 single-place cell must
//!   measure exactly zero (the instrument's null experiment) — the
//!   committed `BENCH_multiqueue.json` baseline. Mutually exclusive
//!   with `--ingest`/`--net`/`--chaos`/`--oplat`.
//! * Malformed flags are **usage errors**: the sweep prints a diagnostic
//!   to stderr and exits with code 2 instead of panicking.
//! * Any oracle mismatch aborts with a nonzero exit code.

use priosched_core::{PoolKind, PoolParams};
use priosched_workloads::{
    bench_record, BfsWorkload, CholeskyWorkload, DynWorkload, KnapsackWorkload, MoSsspWorkload,
    MstWorkload, SsspWorkload, WorkloadReport,
};
use std::io::Write;
use std::path::PathBuf;

/// Workload names in sweep order.
const WORKLOADS: [&str; 6] = ["sssp", "bfs", "cholesky", "knapsack", "mo_sssp", "mst"];

const USAGE: &str = "usage: schedbench [--smoke] [--workloads LIST] [--kinds LIST] \
     [--places LIST] [--k LIST] [--chunks LIST] \
     [--oplat OPS] [--rank-error OPS] [--ingest PxC,…] \
     [--lane-cap N,… (0 = unbounded; requires --ingest or --net)] \
     [--net CxS,…] [--chaos seed=N] [--reps N] [--out FILE]";

/// One `--ingest` cell: producer-thread count × submission-chunk size.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct IngestCell {
    producers: usize,
    chunk: usize,
}

impl std::str::FromStr for IngestCell {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (p, c) = s
            .split_once(['x', 'X'])
            .ok_or_else(|| format!("expected PRODUCERSxCHUNK (e.g. 4x32), got {s:?}"))?;
        let producers = p
            .trim()
            .parse()
            .map_err(|e| format!("bad producer count in {s:?}: {e}"))?;
        let chunk = c
            .trim()
            .parse()
            .map_err(|e| format!("bad chunk size in {s:?}: {e}"))?;
        if producers == 0 {
            return Err(format!("{s:?}: producer count must be positive"));
        }
        Ok(IngestCell { producers, chunk })
    }
}

#[derive(Debug)]
struct Args {
    smoke: bool,
    workloads: Vec<String>,
    kinds: Vec<PoolKind>,
    places: Vec<usize>,
    ks: Vec<usize>,
    chunks: Vec<usize>,
    ingest: Vec<IngestCell>,
    /// `--net` cells: client connections × submissions per connection.
    net: Vec<IngestCell>,
    /// `--chaos seed=N`: run the deterministic chaos sweep with this seed.
    chaos: Option<u64>,
    /// Lane-capacity axis for streamed cells; `None` = unbounded (the `0`
    /// spelling on the command line).
    lane_caps: Vec<Option<usize>>,
    /// `--oplat OPS`: per-op latency sweep with OPS cycles per thread.
    oplat: Option<u64>,
    /// `--rank-error OPS`: relaxation-quality sweep — oplat cycle plus a
    /// shadow-instrumented MultiQueue pass over the c × stickiness grid.
    rank_error: Option<u64>,
    reps: usize,
    out: Option<PathBuf>,
}

fn parse_list<T: std::str::FromStr>(flag: &str, value: &str) -> Result<Vec<T>, String>
where
    T::Err: std::fmt::Display,
{
    value
        .split(',')
        .filter(|s| !s.is_empty())
        .map(|s| {
            s.trim()
                .parse()
                .map_err(|e| format!("{flag}: bad element {s:?}: {e}"))
        })
        .collect()
}

impl Args {
    /// Parses the argument vector. `Ok(None)` means `--help` was asked
    /// for; `Err` carries a usage diagnostic (exit code 2 in `main`).
    fn parse(argv: &[String]) -> Result<Option<Args>, String> {
        let mut cfg = Args {
            smoke: false,
            workloads: WORKLOADS.iter().map(|s| s.to_string()).collect(),
            kinds: PoolKind::ALL.to_vec(),
            places: vec![1, 2, 4],
            ks: vec![512],
            chunks: vec![0],
            ingest: Vec::new(),
            net: Vec::new(),
            chaos: None,
            lane_caps: vec![None],
            oplat: None,
            rank_error: None,
            reps: 3,
            out: None,
        };
        // Apply --smoke defaults first, wherever the flag appears, so an
        // explicit --places/--k/--reps always wins regardless of order.
        if argv.iter().any(|a| a == "--smoke") {
            cfg.smoke = true;
            cfg.places = vec![1, 2];
            cfg.ks = vec![64];
            cfg.reps = 1;
        }
        let mut lane_caps_given = false;
        let mut args = argv.iter();
        while let Some(arg) = args.next() {
            let mut take = |name: &str| -> Result<&String, String> {
                args.next()
                    .ok_or_else(|| format!("{name} requires a value"))
            };
            match arg.as_str() {
                "--smoke" => {}
                "--workloads" => {
                    cfg.workloads = parse_list::<String>("--workloads", take("--workloads")?)?;
                    for w in &cfg.workloads {
                        if !WORKLOADS.contains(&w.as_str()) {
                            return Err(format!(
                                "unknown workload {w:?} (expected one of {WORKLOADS:?})"
                            ));
                        }
                    }
                }
                "--kinds" => cfg.kinds = parse_list("--kinds", take("--kinds")?)?,
                "--places" => cfg.places = parse_list("--places", take("--places")?)?,
                "--k" => cfg.ks = parse_list("--k", take("--k")?)?,
                "--chunks" => cfg.chunks = parse_list("--chunks", take("--chunks")?)?,
                "--ingest" => cfg.ingest = parse_list("--ingest", take("--ingest")?)?,
                "--net" => cfg.net = parse_list("--net", take("--net")?)?,
                "--chaos" => {
                    let raw = take("--chaos")?.as_str();
                    let digits = raw.strip_prefix("seed=").unwrap_or(raw);
                    cfg.chaos = Some(
                        digits
                            .parse()
                            .map_err(|e| format!("--chaos: bad seed {raw:?}: {e}"))?,
                    );
                }
                "--lane-cap" => {
                    lane_caps_given = true;
                    cfg.lane_caps = parse_list::<usize>("--lane-cap", take("--lane-cap")?)?
                        .into_iter()
                        .map(|c| if c == 0 { None } else { Some(c) })
                        .collect();
                    if cfg.lane_caps.is_empty() {
                        return Err("--lane-cap: expected at least one capacity".into());
                    }
                }
                "--oplat" => {
                    cfg.oplat = Some(
                        take("--oplat")?
                            .parse()
                            .map_err(|e| format!("--oplat: {e}"))?,
                    );
                }
                "--rank-error" => {
                    cfg.rank_error = Some(
                        take("--rank-error")?
                            .parse()
                            .map_err(|e| format!("--rank-error: {e}"))?,
                    );
                }
                "--reps" => {
                    cfg.reps = take("--reps")?
                        .parse()
                        .map_err(|e| format!("--reps: {e}"))?;
                }
                "--out" => cfg.out = Some(PathBuf::from(take("--out")?)),
                "--help" | "-h" => return Ok(None),
                other => return Err(format!("unknown flag {other:?}")),
            }
        }
        if cfg.reps == 0 {
            return Err("--reps must be positive".into());
        }
        if lane_caps_given && cfg.ingest.is_empty() && cfg.net.is_empty() {
            return Err(
                "--lane-cap bounds the streamed ingress lanes and needs --ingest \
                 or --net (preseeded runs have no lanes)"
                    .into(),
            );
        }
        if !cfg.net.is_empty() && cfg.ingest.is_empty() {
            // --net cells always run bounded lanes (the whole point is
            // wire backpressure); default to a small capacity when the
            // flag is absent.
            if !lane_caps_given {
                cfg.lane_caps = vec![Some(64)];
            }
        }
        if !cfg.net.is_empty() && !cfg.ingest.is_empty() {
            return Err("--net and --ingest are separate sweeps; pass one".into());
        }
        if cfg.chaos.is_some() && (!cfg.net.is_empty() || !cfg.ingest.is_empty()) {
            return Err(
                "--chaos is its own sweep (it injects its own faults and traffic) and \
                 contradicts --net/--ingest; pass one"
                    .into(),
            );
        }
        if let Some(ops) = cfg.oplat {
            if ops == 0 {
                return Err("--oplat: ops per thread must be positive".into());
            }
            if !cfg.net.is_empty() || !cfg.ingest.is_empty() || cfg.chaos.is_some() {
                return Err(
                    "--oplat times raw pool ops and contradicts --net/--ingest/--chaos; \
                     pass one"
                        .into(),
                );
            }
        }
        if let Some(ops) = cfg.rank_error {
            if ops == 0 {
                return Err("--rank-error: ops per thread must be positive".into());
            }
            if !cfg.net.is_empty()
                || !cfg.ingest.is_empty()
                || cfg.chaos.is_some()
                || cfg.oplat.is_some()
            {
                return Err(
                    "--rank-error measures raw pool ops plus relaxation quality and \
                     contradicts --net/--ingest/--chaos/--oplat; pass one"
                        .into(),
                );
            }
        }
        Ok(Some(cfg))
    }
}

/// Builds one workload instance. `chunk` configures spawn batching where
/// the workload supports it; returns `None` when `chunk` is not applicable
/// (so the sweep produces no duplicate rows for scalar-spawning workloads).
fn make_workload(name: &str, smoke: bool, chunk: usize) -> Option<Box<dyn DynWorkload>> {
    match name {
        "sssp" => Some(Box::new(if smoke {
            SsspWorkload::random(120, 0.1, 1000).spawn_chunk(chunk)
        } else {
            SsspWorkload::random(800, 0.08, 1000).spawn_chunk(chunk)
        })),
        "mo_sssp" => Some(Box::new(if smoke {
            MoSsspWorkload::random(30, 0.15, 99).spawn_chunk(chunk)
        } else {
            MoSsspWorkload::random(60, 0.12, 99).spawn_chunk(chunk)
        })),
        // BFS, Cholesky and knapsack have no spawn-chunk knob (BFS batches
        // one expansion per spawn_batch; the other two spawn scalar
        // tasks); the chunk axis does not apply.
        // Multi-source frontier: the wide seed stream gives the --ingest
        // axis real sharding work (hundreds of seeds, not one root).
        "bfs" if chunk == 0 => Some(Box::new(if smoke {
            BfsWorkload::random_multi(150, 0.06, 2000, 16)
        } else {
            BfsWorkload::random_multi(1_200, 0.01, 2000, 128)
        })),
        "cholesky" if chunk == 0 => Some(Box::new(if smoke {
            CholeskyWorkload::random(3, 8, 0xFEED_FACE)
        } else {
            CholeskyWorkload::random(6, 16, 0xFEED_FACE)
        })),
        "knapsack" if chunk == 0 => Some(Box::new(if smoke {
            KnapsackWorkload::random(18, 1_500, 0x1234_5678_9ABC_DEF0)
        } else {
            KnapsackWorkload::random(30, 3_000, 0x1234_5678_9ABC_DEF0)
        })),
        // MST spawns scalar component-advance tasks; its wide per-vertex
        // seed stream is the ingestion sweep's best case after BFS.
        "mst" if chunk == 0 => Some(Box::new(if smoke {
            MstWorkload::random(140, 0.06, 23)
        } else {
            MstWorkload::random(900, 0.01, 23)
        })),
        _ => None,
    }
}

/// One aggregated sweep cell in the `BENCH_batch.json` record format
/// (the shape itself is defined once, in `priosched_workloads`). Streamed
/// cells extend the id with an `_iPRODUCERSxCHUNK` tag, and bounded-lane
/// cells with `_lcCAP`.
fn json_record(
    reports: &[WorkloadReport],
    chunk: usize,
    ingest: Option<IngestCell>,
    lane_cap: Option<usize>,
) -> String {
    let mut suffix = if chunk > 0 {
        format!("_c{chunk}")
    } else {
        String::new()
    };
    if let Some(cell) = ingest {
        suffix.push_str(&format!("_i{}x{}", cell.producers, cell.chunk));
    }
    if let Some(cap) = lane_cap {
        suffix.push_str(&format!("_lc{cap}"));
    }
    bench_record(reports, &suffix)
}

/// Per-op latency cell: `places` threads, each timing `ops` push/pop
/// cycles (push, then every other iteration a pop, then a drain) into a
/// thread-local histogram; merged at the end. Pseudo-random priorities
/// keep the heap honest. Also merges the per-place operation counters —
/// when `params` switched the MultiQueue's rank-error shadow on, they
/// carry the relaxation accounting the `--rank-error` sweep reports.
fn oplat_cell(
    kind: PoolKind,
    places: usize,
    params: PoolParams,
    ops: u64,
) -> (
    priosched_bench::latency::LatencyHist,
    priosched_core::stats::PlaceStats,
) {
    use priosched_bench::latency::LatencyHist;
    use priosched_core::stats::PlaceStats;
    use priosched_core::{PoolHandle, TaskPool};
    use std::time::Instant;
    let pool = std::sync::Arc::new(kind.build(places, params));
    let merged = std::sync::Mutex::new((LatencyHist::new(), PlaceStats::default()));
    std::thread::scope(|s| {
        for t in 0..places {
            let pool = std::sync::Arc::clone(&pool);
            let merged = &merged;
            s.spawn(move || {
                let mut h = pool.handle(t);
                let mut hist = LatencyHist::new();
                for i in 0..ops {
                    let prio = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
                    let t0 = Instant::now();
                    h.push(prio, 64, i);
                    hist.record_duration(t0.elapsed());
                    if i % 2 == 1 {
                        let t0 = Instant::now();
                        let got = h.pop();
                        hist.record_duration(t0.elapsed());
                        std::hint::black_box(got);
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
                let stats = h.stats();
                let mut m = merged.lock().unwrap();
                m.0.merge(&hist);
                m.1.merge(&stats);
            });
        }
    });
    merged.into_inner().unwrap()
}

/// Runs the `--oplat` sweep: kind × places × k, each cell a raw-pool
/// push/pop latency measurement. Emits `schedbench_oplat` records
/// carrying p50/p99/p999.
fn run_oplat_sweep(args: &Args, ops: u64) -> Vec<String> {
    let mut records = Vec::new();
    println!(
        "{:<14} {:>2} {:>6} | {:>9} {:>9} {:>9} {:>9} {:>10}",
        "structure", "P", "k", "mean", "p50", "p99", "p999", "ops"
    );
    for &kind in &args.kinds {
        for &places in &args.places {
            for &k in &args.ks {
                let (hist, _) = oplat_cell(kind, places, PoolParams::with_k(k), ops);
                println!(
                    "{:<14} {:>2} {:>6} | {:>7.1}ns {:>7}ns {:>7}ns {:>7}ns {:>10}",
                    kind.label(),
                    places,
                    k,
                    hist.mean_ns(),
                    hist.p50(),
                    hist.p99(),
                    hist.p999(),
                    hist.count(),
                );
                records.push(format!(
                    "{{\"group\": \"schedbench_oplat\", \"id\": \"{}/p{}_k{}\", \
                     \"mean_ns\": {:.1}, \"min_ns\": {:.1}, \"max_ns\": {:.1}, \
                     \"elements\": {}, \"p50_ns\": {:.1}, \"p99_ns\": {:.1}, \
                     \"p999_ns\": {:.1}}}",
                    kind.id(),
                    places,
                    k,
                    hist.mean_ns(),
                    hist.min_ns() as f64,
                    hist.max_ns() as f64,
                    hist.count(),
                    hist.p50() as f64,
                    hist.p99() as f64,
                    hist.p999() as f64,
                ));
            }
        }
    }
    records
}

/// MultiQueue relaxation axes swept by `--rank-error`: queues-per-place
/// factor c and pop stickiness. Exact structures get one cell each (they
/// have no relaxation knobs and serve as the latency baselines).
const MQ_CS: [usize; 3] = [1, 2, 4];
const MQ_STICKINESS: [usize; 2] = [0, 8];

/// Runs the `--rank-error` sweep: the oplat push/pop cycle per kind ×
/// places × k, with MultiQueue cells fanned out over c × stickiness and
/// run **twice** — an uninstrumented pass for honest latency numbers,
/// then an instrumented pass whose shadow-heap accounting prices every
/// pop's rank error. Emits `schedbench_rankerr` records; MultiQueue rows
/// carry `rank_err_mean`/`rank_err_p99`/`rank_err_max`/`rank_err_pops`.
///
/// Self-check: a c = 1 single-place MultiQueue is one sequential queue,
/// so the instrument must measure exactly zero there — any other reading
/// aborts the sweep (a measurement layer that fails its null experiment
/// cannot be trusted on the real one).
fn run_rankerr_sweep(args: &Args, ops: u64) -> Vec<String> {
    let mut records = Vec::new();
    println!(
        "{:<14} {:>2} {:>6} {:>3} {:>5} | {:>9} {:>9} {:>9} {:>9} | {:>9} {:>8} {:>8}",
        "structure",
        "P",
        "k",
        "c",
        "stick",
        "mean",
        "p50",
        "p99",
        "p999",
        "rank-mean",
        "rank-p99",
        "rank-max"
    );
    for &kind in &args.kinds {
        for &places in &args.places {
            for &k in &args.ks {
                // Exact structures: one latency-baseline cell, no knobs.
                let cells: Vec<Option<(usize, usize)>> = if kind == PoolKind::MultiQueue {
                    MQ_CS
                        .iter()
                        .flat_map(|&c| MQ_STICKINESS.iter().map(move |&s| Some((c, s))))
                        .collect()
                } else {
                    vec![None]
                };
                for cell in cells {
                    let params = match cell {
                        None => PoolParams::with_k(k),
                        Some((c, stick)) => {
                            PoolParams::with_k(k).with_mq_c(c).with_mq_stickiness(stick)
                        }
                    };
                    // Timed pass runs uninstrumented: the shadow heap's
                    // global mutex would poison the latency numbers.
                    let (hist, _) = oplat_cell(kind, places, params, ops);
                    let rank = cell.map(|_| {
                        let (_, stats) =
                            oplat_cell(kind, places, params.with_rank_error(true), ops);
                        stats
                    });
                    if let (Some((1, _)), Some(stats)) = (cell, rank.as_ref()) {
                        if places == 1 {
                            assert_eq!(
                                (stats.rank_sum, stats.rank_max),
                                (0, 0),
                                "self-check failed: c=1 single-place MultiQueue is exact \
                                 but the instrument measured nonzero rank error"
                            );
                        }
                    }
                    let (id_suffix, c_col, s_col) = match cell {
                        None => (String::new(), "-".to_string(), "-".to_string()),
                        Some((c, s)) => (format!("_c{c}_s{s}"), c.to_string(), s.to_string()),
                    };
                    println!(
                        "{:<14} {:>2} {:>6} {:>3} {:>5} | {:>7.1}ns {:>7}ns {:>7}ns {:>7}ns | {:>9} {:>8} {:>8}",
                        kind.label(),
                        places,
                        k,
                        c_col,
                        s_col,
                        hist.mean_ns(),
                        hist.p50(),
                        hist.p99(),
                        hist.p999(),
                        rank.as_ref()
                            .map_or("-".to_string(), |s| format!("{:.2}", s.rank_mean())),
                        rank.as_ref()
                            .map_or("-".to_string(), |s| s.rank_p99().to_string()),
                        rank.as_ref()
                            .map_or("-".to_string(), |s| s.rank_max.to_string()),
                    );
                    let rank_fields = rank.as_ref().map_or(String::new(), |s| {
                        format!(
                            ", \"rank_err_mean\": {:.3}, \"rank_err_p99\": {}, \
                             \"rank_err_max\": {}, \"rank_err_pops\": {}",
                            s.rank_mean(),
                            s.rank_p99(),
                            s.rank_max,
                            s.rank_pops,
                        )
                    });
                    records.push(format!(
                        "{{\"group\": \"schedbench_rankerr\", \"id\": \"{}/p{}_k{}{}\", \
                         \"mean_ns\": {:.1}, \"min_ns\": {:.1}, \"max_ns\": {:.1}, \
                         \"elements\": {}, \"p50_ns\": {:.1}, \"p99_ns\": {:.1}, \
                         \"p999_ns\": {:.1}{}}}",
                        kind.id(),
                        places,
                        k,
                        id_suffix,
                        hist.mean_ns(),
                        hist.min_ns() as f64,
                        hist.max_ns() as f64,
                        hist.count(),
                        hist.p50() as f64,
                        hist.p99() as f64,
                        hist.p999() as f64,
                        rank_fields,
                    ));
                }
            }
        }
    }
    records
}

/// Runs the `--net` sweep: a fresh in-process `priosched-serve` server
/// per cell, driven over loopback TCP by the load client, verified
/// against the countdown oracle. Returns `(records, failures)`.
fn run_net_sweep(args: &Args) -> (Vec<String>, usize) {
    use priosched_net::{run_load, LoadSpec, Server, ServerConfig};
    let mut records = Vec::new();
    let mut failures = 0usize;
    println!(
        "{:<14} {:>2} {:>6} {:>7} {:>5} | {:>11} {:>9}  oracle",
        "structure", "P", "k", "net", "lcap", "mean", "tasks"
    );
    for &kind in &args.kinds {
        for &places in &args.places {
            for &k in &args.ks {
                for &cap in &args.lane_caps {
                    for &cell in &args.net {
                        let spec = LoadSpec {
                            conns: cell.producers,
                            per_conn: cell.chunk,
                            k,
                            batch: 8,
                        };
                        let mut ns: Vec<f64> = Vec::new();
                        let mut elements = 0u64;
                        let mut bad = None;
                        for _ in 0..args.reps {
                            let server = Server::bind(
                                "127.0.0.1:0",
                                ServerConfig {
                                    kind,
                                    places,
                                    k,
                                    lane_capacity: cap,
                                    ..ServerConfig::default()
                                },
                            )
                            .expect("bind loopback server");
                            match run_load(server.local_addr(), &spec) {
                                Ok(report) => {
                                    ns.push(report.elapsed.as_nanos() as f64);
                                    elements = report.expected_executions;
                                    if !report.verified() {
                                        bad = Some(format!(
                                            "executed {} != oracle {}",
                                            report.executed, report.expected_executions
                                        ));
                                    }
                                }
                                Err(e) => bad = Some(format!("load client failed: {e}")),
                            }
                            server.shutdown();
                        }
                        // All-failed cells have no timings; 0s keep the
                        // emitted record valid JSON (never inf/-inf) —
                        // the failure itself is reported via exit 1.
                        let (mean, min, max) = if ns.is_empty() {
                            (0.0, 0.0, 0.0)
                        } else {
                            (
                                ns.iter().sum::<f64>() / ns.len() as f64,
                                ns.iter().copied().fold(f64::INFINITY, f64::min),
                                ns.iter().copied().fold(f64::NEG_INFINITY, f64::max),
                            )
                        };
                        println!(
                            "{:<14} {:>2} {:>6} {:>7} {:>5} | {:>9.3}ms {:>9}  {}",
                            kind.label(),
                            places,
                            k,
                            format!("{}x{}", cell.producers, cell.chunk),
                            cap.map_or("-".to_string(), |c| c.to_string()),
                            mean / 1e6,
                            elements,
                            match &bad {
                                None => "ok".to_string(),
                                Some(msg) => format!("MISMATCH: {msg}"),
                            }
                        );
                        if bad.is_some() {
                            failures += 1;
                        }
                        records.push(format!(
                            "{{\"group\": \"schedbench_net\", \"id\": \"{}/p{}_k{}_n{}x{}_lc{}\", \
                             \"mean_ns\": {mean:.1}, \"min_ns\": {min:.1}, \"max_ns\": {max:.1}, \
                             \"elements\": {elements}}}",
                            kind.id(),
                            places,
                            k,
                            cell.producers,
                            cell.chunk,
                            cap.unwrap_or(0),
                        ));
                    }
                }
            }
        }
    }
    (records, failures)
}

/// Runs the `--chaos` sweep: every kind × places cell through the
/// deterministic chaos harness, twice each (the harness asserts the
/// same-seed repeat reproduces identical failure counters). Returns the
/// `schedbench_chaos` records, counters embedded.
fn run_chaos_sweep(args: &Args, seed: u64) -> Vec<String> {
    use priosched_bench::chaos::chaos_sweep;
    // The harness injects panics on purpose; keep the default hook from
    // spamming a backtrace per bomb while leaving every other panic
    // (i.e. a real invariant violation) loud.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let msg = info
            .payload()
            .downcast_ref::<String>()
            .map(|s| s.as_str())
            .or_else(|| info.payload().downcast_ref::<&str>().copied())
            .unwrap_or("");
        if !msg.starts_with("chaos bomb") {
            default_hook(info);
        }
    }));
    println!(
        "{:<14} {:>2} | {:>6} {:>7} {:>5} {:>6} {:>5} {:>4} {:>5} {:>4} {:>6} {:>8}",
        "structure",
        "P",
        "chains",
        "done",
        "quar",
        "aborts",
        "pkill",
        "garb",
        "flood",
        "stall",
        "sock✝",
        "net done"
    );
    let reports = chaos_sweep(seed, &args.kinds, &args.places, args.smoke);
    let _ = std::panic::take_hook();
    let mut records = Vec::new();
    for r in &reports {
        let c = &r.counters;
        println!(
            "{:<14} {:>2} | {:>6} {:>7} {:>5} {:>6} {:>5} {:>4} {:>5} {:>4} {:>6} {:>8}",
            r.kind.label(),
            r.places,
            c.submitted,
            c.completed,
            c.quarantined,
            c.aborted_runs,
            c.producer_aborts,
            c.garbage_rejected,
            c.oversized_closed,
            c.deadline_reaped,
            c.killed_sockets,
            c.net_executed,
        );
        let e = r.elapsed.as_nanos() as f64;
        records.push(format!(
            "{{\"group\": \"schedbench_chaos\", \"id\": \"{}/p{}_seed{seed}\", \
             \"mean_ns\": {e:.1}, \"min_ns\": {e:.1}, \"max_ns\": {e:.1}, \
             \"elements\": {}, \"counters\": {{\
             \"submitted\": {}, \"completed\": {}, \"quarantined\": {}, \
             \"aborted_runs\": {}, \"producer_aborts\": {}, \"unsent\": {}, \
             \"garbage_rejected\": {}, \"oversized_closed\": {}, \
             \"deadline_reaped\": {}, \"killed_sockets\": {}, \
             \"net_accepted\": {}, \"net_executed\": {}}}}}",
            r.kind.id(),
            r.places,
            c.completed,
            c.submitted,
            c.completed,
            c.quarantined,
            c.aborted_runs,
            c.producer_aborts,
            c.unsent,
            c.garbage_rejected,
            c.oversized_closed,
            c.deadline_reaped,
            c.killed_sockets,
            c.net_accepted,
            c.net_executed,
        ));
    }
    records
}

/// Writes the collected records as a JSON array to `--out`, if given.
fn write_records(out: Option<&std::path::Path>, records: &[String]) {
    if let Some(path) = out {
        let mut f = std::fs::File::create(path).expect("create --out file");
        writeln!(f, "[").unwrap();
        for (i, rec) in records.iter().enumerate() {
            let comma = if i + 1 < records.len() { "," } else { "" };
            writeln!(f, "  {rec}{comma}").unwrap();
        }
        writeln!(f, "]").unwrap();
        println!("\nJSON: {} ({} records)", path.display(), records.len());
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(Some(args)) => args,
        Ok(None) => {
            println!("{USAGE}");
            return;
        }
        Err(e) => {
            eprintln!("schedbench: {e}");
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    };
    let cores = std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(1);
    if let Some(seed) = args.chaos {
        println!(
            "schedbench --chaos: seed {seed}, {} kind(s) × places {:?}, every cell twice \
             (same-seed repeat must match)",
            args.kinds.len(),
            args.places,
        );
        println!("host: {cores} hardware thread(s)\n");
        let records = run_chaos_sweep(&args, seed);
        write_records(args.out.as_deref(), &records);
        println!(
            "\nall {} chaos cells held their invariants (seed {seed}, deterministic repeat verified)",
            records.len()
        );
        return;
    }
    if !args.net.is_empty() {
        println!(
            "schedbench --net: {} kind(s) × places {:?} × k {:?} × lane-cap {:?} × cells {:?}, {} rep(s)",
            args.kinds.len(),
            args.places,
            args.ks,
            args.lane_caps
                .iter()
                .map(|c| c.map_or("∞".to_string(), |c| c.to_string()))
                .collect::<Vec<_>>(),
            args.net
                .iter()
                .map(|c| format!("{}x{}", c.producers, c.chunk))
                .collect::<Vec<_>>(),
            args.reps
        );
        println!("host: {cores} hardware thread(s)\n");
        let (records, failures) = run_net_sweep(&args);
        write_records(args.out.as_deref(), &records);
        if failures > 0 {
            eprintln!("\n{failures} net sweep cell(s) FAILED oracle verification");
            std::process::exit(1);
        }
        println!(
            "\nall {} net sweep cells verified against the countdown oracle",
            records.len()
        );
        return;
    }
    if let Some(ops) = args.rank_error {
        println!(
            "schedbench --rank-error: {} kind(s) × places {:?} × k {:?}; MultiQueue cells \
             sweep c {:?} × stickiness {:?}, each timed uninstrumented then re-run with \
             the shadow instrument; {ops} push/pop cycles per thread",
            args.kinds.len(),
            args.places,
            args.ks,
            MQ_CS,
            MQ_STICKINESS,
        );
        println!("host: {cores} hardware thread(s)\n");
        let records = run_rankerr_sweep(&args, ops);
        write_records(args.out.as_deref(), &records);
        let instrumented = records
            .iter()
            .filter(|r| r.contains("rank_err_mean"))
            .count();
        let null_ran = args.kinds.contains(&PoolKind::MultiQueue) && args.places.contains(&1);
        println!(
            "\n{} rank-error cells measured ({instrumented} with the shadow instrument{})",
            records.len(),
            if null_ran {
                "; c=1 single-place null experiment held"
            } else {
                ""
            }
        );
        return;
    }
    if let Some(ops) = args.oplat {
        println!(
            "schedbench --oplat: {} kind(s) × places {:?} × k {:?}, \
             {ops} push/pop cycles per thread",
            args.kinds.len(),
            args.places,
            args.ks,
        );
        println!("host: {cores} hardware thread(s)\n");
        let records = run_oplat_sweep(&args, ops);
        write_records(args.out.as_deref(), &records);
        println!("\n{} per-op latency cells measured", records.len());
        return;
    }
    println!(
        "schedbench: {} workload(s) × {} kind(s) × places {:?} × k {:?} × chunks {:?}{}, {} rep(s)",
        args.workloads.len(),
        args.kinds.len(),
        args.places,
        args.ks,
        args.chunks,
        if args.ingest.is_empty() {
            " (preseeded)".to_string()
        } else {
            format!(
                " × ingest {:?} × lane-cap {:?}",
                args.ingest
                    .iter()
                    .map(|c| format!("{}x{}", c.producers, c.chunk))
                    .collect::<Vec<_>>(),
                args.lane_caps
                    .iter()
                    .map(|c| c.map_or("∞".to_string(), |c| c.to_string()))
                    .collect::<Vec<_>>()
            )
        },
        args.reps
    );
    println!(
        "host: {cores} hardware thread(s){}\n",
        if args.smoke { "; smoke sizes" } else { "" }
    );
    println!(
        "{:<10} {:<14} {:>2} {:>6} {:>6} {:>7} {:>5} | {:>11} {:>9} {:>7}  oracle",
        "workload", "structure", "P", "k", "chunk", "ingest", "lcap", "mean", "tasks", "dead"
    );

    let mut records = Vec::new();
    let mut failures = 0usize;
    for name in &args.workloads {
        let mut cells_for_workload = 0usize;
        for &chunk in &args.chunks {
            let Some(workload) = make_workload(name, args.smoke, chunk) else {
                // Scalar-spawning workloads have no chunk axis; skipping a
                // nonzero chunk is only fine if some other cell runs them.
                continue;
            };
            cells_for_workload += 1;
            // Preseeded baseline when --ingest is absent; otherwise every
            // producers×chunk×lane-cap cell is its own streamed sweep cell.
            let modes: Vec<(Option<IngestCell>, Option<usize>)> = if args.ingest.is_empty() {
                vec![(None, None)]
            } else {
                args.ingest
                    .iter()
                    .flat_map(|&cell| args.lane_caps.iter().map(move |&cap| (Some(cell), cap)))
                    .collect()
            };
            for &kind in &args.kinds {
                for &places in &args.places {
                    for &k in &args.ks {
                        for &(mode, lane_cap) in &modes {
                            let params = PoolParams::with_k(k).with_lane_capacity(lane_cap);
                            let reports: Vec<WorkloadReport> = (0..args.reps)
                                .map(|_| match mode {
                                    None => workload.run(kind, places, params),
                                    Some(cell) => workload.run_streamed(
                                        kind,
                                        places,
                                        params,
                                        cell.producers,
                                        cell.chunk,
                                    ),
                                })
                                .collect();
                            let mean_ms = reports
                                .iter()
                                .map(|r| r.elapsed.as_secs_f64() * 1e3)
                                .sum::<f64>()
                                / reports.len() as f64;
                            let bad = reports.iter().find(|r| !r.verified());
                            println!(
                                "{:<10} {:<14} {:>2} {:>6} {:>6} {:>7} {:>5} | {:>9.3}ms {:>9} {:>7}  {}",
                                name,
                                kind.label(),
                                places,
                                k,
                                chunk,
                                match mode {
                                    None => "-".to_string(),
                                    Some(cell) =>
                                        format!("{}x{}", cell.producers, cell.chunk),
                                },
                                lane_cap.map_or("-".to_string(), |c| c.to_string()),
                                mean_ms,
                                reports[0].executed,
                                reports[0].dead,
                                match bad {
                                    None => "ok".to_string(),
                                    Some(r) => format!(
                                        "MISMATCH: {}",
                                        r.verify.as_ref().unwrap_err()
                                    ),
                                }
                            );
                            if bad.is_some() {
                                failures += 1;
                            }
                            records.push(json_record(&reports, chunk, mode, lane_cap));
                        }
                    }
                }
            }
        }
        assert!(
            cells_for_workload > 0,
            "workload {name:?} was requested but no chunk in {:?} applies to it \
             (scalar-spawning workloads only run at chunk 0)",
            args.chunks
        );
    }

    write_records(args.out.as_deref(), &records);

    if failures > 0 {
        eprintln!("\n{failures} sweep cell(s) FAILED oracle verification");
        std::process::exit(1);
    }
    println!(
        "\nall {} sweep cells verified against their oracles",
        records.len()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn ingest_cell_parses_and_rejects() {
        assert_eq!(
            "4x32".parse::<IngestCell>().unwrap(),
            IngestCell {
                producers: 4,
                chunk: 32
            }
        );
        assert_eq!(
            "2X8".parse::<IngestCell>().unwrap(),
            IngestCell {
                producers: 2,
                chunk: 8
            }
        );
        assert!("4y32".parse::<IngestCell>().is_err(), "missing separator");
        assert!("x32".parse::<IngestCell>().is_err(), "empty producers");
        assert!("4x".parse::<IngestCell>().is_err(), "empty chunk");
        assert!("0x8".parse::<IngestCell>().is_err(), "zero producers");
        assert!("-1x8".parse::<IngestCell>().is_err(), "negative producers");
    }

    #[test]
    fn malformed_flags_are_usage_errors_not_panics() {
        // The former panic paths: each must come back as Err.
        for bad in [
            vec!["--ingest", "4y3"],
            vec!["--ingest", "0x8"],
            vec!["--ingest"],
            vec!["--lane-cap", "abc", "--ingest", "2x8"],
            vec!["--lane-cap", "-4", "--ingest", "2x8"],
            vec!["--places", "two"],
            vec!["--reps", "0"],
            vec!["--reps", "many"],
            vec!["--workloads", "nope"],
            vec!["--kinds", "quantum"],
            vec!["--no-such-flag"],
        ] {
            let err = Args::parse(&argv(&bad)).expect_err(&format!("{bad:?} must be rejected"));
            assert!(!err.is_empty());
        }
    }

    #[test]
    fn lane_cap_requires_ingest() {
        let err = Args::parse(&argv(&["--lane-cap", "8"])).unwrap_err();
        assert!(err.contains("--ingest"), "{err}");
        // With --ingest it parses, 0 meaning unbounded.
        let args = Args::parse(&argv(&["--ingest", "2x8", "--lane-cap", "0,64"]))
            .unwrap()
            .unwrap();
        assert_eq!(args.lane_caps, vec![None, Some(64)]);
        assert_eq!(
            args.ingest,
            vec![IngestCell {
                producers: 2,
                chunk: 8
            }]
        );
    }

    #[test]
    fn net_axis_parses_and_guards() {
        let args = Args::parse(&argv(&["--net", "4x64"])).unwrap().unwrap();
        assert_eq!(
            args.net,
            vec![IngestCell {
                producers: 4,
                chunk: 64
            }]
        );
        assert_eq!(
            args.lane_caps,
            vec![Some(64)],
            "--net defaults to bounded lanes"
        );
        // Explicit lane caps win; 0 spells unbounded.
        let args = Args::parse(&argv(&["--net", "2x8", "--lane-cap", "0,16"]))
            .unwrap()
            .unwrap();
        assert_eq!(args.lane_caps, vec![None, Some(16)]);
        // --net and --ingest are separate sweeps.
        assert!(Args::parse(&argv(&["--net", "2x8", "--ingest", "2x8"])).is_err());
        // Malformed cells are usage errors.
        assert!(Args::parse(&argv(&["--net", "0x8"])).is_err());
        assert!(Args::parse(&argv(&["--net", "4y8"])).is_err());
    }

    #[test]
    fn chaos_axis_parses_and_guards() {
        let args = Args::parse(&argv(&["--chaos", "seed=7"])).unwrap().unwrap();
        assert_eq!(args.chaos, Some(7));
        // The bare-number spelling is accepted too.
        let args = Args::parse(&argv(&["--chaos", "42"])).unwrap().unwrap();
        assert_eq!(args.chaos, Some(42));
        // A chaos spec contradicting --net/--ingest is a usage error
        // (exit 2 in main), not a silently-merged sweep.
        let err = Args::parse(&argv(&["--chaos", "seed=7", "--net", "2x8"])).unwrap_err();
        assert!(err.contains("--chaos"), "{err}");
        let err = Args::parse(&argv(&["--chaos", "seed=7", "--ingest", "2x8"])).unwrap_err();
        assert!(err.contains("--chaos"), "{err}");
        // Malformed seeds are usage errors.
        assert!(Args::parse(&argv(&["--chaos", "seed=x"])).is_err());
        assert!(Args::parse(&argv(&["--chaos", "seven"])).is_err());
        assert!(Args::parse(&argv(&["--chaos"])).is_err());
    }

    #[test]
    fn oplat_parses_and_guards() {
        let args = Args::parse(&argv(&["--oplat", "5000"])).unwrap().unwrap();
        assert_eq!(args.oplat, Some(5000));
        assert!(Args::parse(&argv(&["--oplat", "0"])).is_err(), "zero ops");
        assert!(Args::parse(&argv(&["--oplat", "lots"])).is_err());
        assert!(Args::parse(&argv(&["--oplat"])).is_err());
        // Its own sweep: contradicts the streamed/net/chaos modes.
        for conflict in [
            vec!["--oplat", "100", "--ingest", "2x8"],
            vec!["--oplat", "100", "--net", "2x8"],
            vec!["--oplat", "100", "--chaos", "seed=1"],
        ] {
            let err =
                Args::parse(&argv(&conflict)).expect_err(&format!("{conflict:?} must be rejected"));
            assert!(err.contains("--oplat"), "{err}");
        }
    }

    #[test]
    fn rank_error_parses_and_guards() {
        let args = Args::parse(&argv(&["--rank-error", "2000"]))
            .unwrap()
            .unwrap();
        assert_eq!(args.rank_error, Some(2000));
        assert!(
            Args::parse(&argv(&["--rank-error", "0"])).is_err(),
            "zero ops"
        );
        assert!(Args::parse(&argv(&["--rank-error", "lots"])).is_err());
        assert!(Args::parse(&argv(&["--rank-error"])).is_err());
        // Its own sweep: contradicts the streamed/net/chaos/oplat modes.
        for conflict in [
            vec!["--rank-error", "100", "--ingest", "2x8"],
            vec!["--rank-error", "100", "--net", "2x8"],
            vec!["--rank-error", "100", "--chaos", "seed=1"],
            vec!["--rank-error", "100", "--oplat", "100"],
        ] {
            let err =
                Args::parse(&argv(&conflict)).expect_err(&format!("{conflict:?} must be rejected"));
            assert!(err.contains("--rank-error"), "{err}");
        }
    }

    #[test]
    fn kinds_filter_accepts_the_multiqueue_spellings() {
        // The fifth kind reaches every sweep through the same --kinds
        // filter as the exact four — no schedbench special-casing.
        let args = Args::parse(&argv(&["--kinds", "multiqueue"]))
            .unwrap()
            .unwrap();
        assert_eq!(args.kinds, vec![PoolKind::MultiQueue]);
        let args = Args::parse(&argv(&["--kinds", "mq,work_stealing"]))
            .unwrap()
            .unwrap();
        assert_eq!(
            args.kinds,
            vec![PoolKind::MultiQueue, PoolKind::WorkStealing]
        );
        // The default sweep covers all five kinds.
        let args = Args::parse(&argv(&[])).unwrap().unwrap();
        assert_eq!(args.kinds.len(), 5);
        assert!(args.kinds.contains(&PoolKind::MultiQueue));
    }

    #[test]
    fn mst_is_a_known_workload() {
        let args = Args::parse(&argv(&["--workloads", "mst"]))
            .unwrap()
            .unwrap();
        assert_eq!(args.workloads, vec!["mst".to_string()]);
        assert!(make_workload("mst", true, 0).is_some());
        assert!(
            make_workload("mst", true, 8).is_none(),
            "mst has no spawn-chunk axis"
        );
    }

    #[test]
    fn smoke_defaults_yield_to_explicit_flags() {
        let args = Args::parse(&argv(&["--places", "4", "--smoke"]))
            .unwrap()
            .unwrap();
        assert!(args.smoke);
        assert_eq!(args.places, vec![4], "explicit --places beats --smoke");
        assert_eq!(args.ks, vec![64]);
        assert_eq!(args.reps, 1);
    }

    #[test]
    fn help_short_circuits() {
        assert!(Args::parse(&argv(&["--help"])).unwrap().is_none());
        assert!(Args::parse(&argv(&["-h"])).unwrap().is_none());
    }
}
