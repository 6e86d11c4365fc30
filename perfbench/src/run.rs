//! One benchmark run: set-up, the closed-world SSSP phase, the in-process
//! open-loop phase and the wire phase, untraced (end-to-end metrics) or
//! traced (per-layer metrics).

use crate::netload::{render, NetConn, NetPass};
use crate::openloop::{Clock, RealClock, Schedule};
use crate::report::{median, quantile_sorted, Metrics, KIND_IDS, RATES};
use crate::sssp::{self, Instance, Solve};
use crate::stream::{open_pass, saturation_pass, PassResult, StreamExec, StreamTask};
use crate::trace::{PlaceTrace, Spans, TracedExec, TracedPool};
use crate::{rss_mb, Spec, SplitMix64, K, LANE_CAPACITY, PLACES};
use priosched_core::stats::PlaceStats;
use priosched_core::{PoolKind, PoolParams, PoolService};
use priosched_net::{Server, ServerConfig};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// The measured phases run interleaved in this many cycles, so that a
/// slow stretch of the shared host lands on every metric alike instead of
/// on whichever phase happened to run then.
pub const CYCLES: usize = 10;

/// Share of `--seconds` for the SSSP solves (over all cycles).
pub const SSSP_SHARE: f64 = 0.45;
/// Share of `--seconds` for each scheduled open-loop rate, per frontend.
pub const PASS_SHARE: f64 = 0.07;
/// Share of `--seconds` for each frontend's saturation passes, at the
/// frozen saturated rate (`Spec::saturated`).
pub const SAT_SHARE: f64 = 0.09;

/// `PING`s timed on the idle server in traced runs.
pub const PINGS: usize = 200;

/// Parsed command line.
#[derive(Clone, Copy, Debug)]
pub struct Args {
    /// The workload to run.
    pub spec: &'static Spec,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Measurement budget, seconds.
    pub seconds: u64,
    /// Traced (per-layer) instead of untraced (end-to-end) run.
    pub trace: bool,
}

/// Parses `--workload <name> --seed <n> --seconds <n> --trace <0|1>`.
pub fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut spec, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                spec = Some(crate::spec(value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: u64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if s == 0 {
                    return Err("--seconds must be at least 1".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        spec: spec.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// What a run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every metric the run measured.
    pub metrics: Metrics,
    /// Operations attempted: solves, submissions, wire requests, joins.
    pub attempted: u64,
    /// Failed operations: oracle mismatches, rejected or errored
    /// submissions and requests, connection errors.
    pub failed: u64,
    /// Oracle mismatches among the failures.
    pub mismatches: u64,
    /// Human-readable notes on what failed.
    pub errors: Vec<String>,
    /// The run's spans (traced runs record them).
    pub spans: Vec<crate::trace::Span>,
    /// Per-kind place traces summed over the traced solves.
    pub place_traces: Vec<(String, PlaceTrace)>,
}

impl Outcome {
    fn op(&mut self, ok: bool, mismatch: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.mismatches += mismatch as u64;
            if self.errors.len() < 20 {
                self.errors.push(what());
            }
        }
    }

    fn ops(&mut self, attempted: u64, failed: u64, mismatch: bool, what: impl FnOnce() -> String) {
        self.attempted += attempted;
        if failed > 0 {
            self.failed += failed;
            self.mismatches += mismatch as u64 * failed;
            if self.errors.len() < 20 {
                self.errors.push(what());
            }
        }
    }
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn sorted(v: &[u64]) -> Vec<u64> {
    let mut s = v.to_vec();
    s.sort_unstable();
    s
}

/// The live open-world frontends of one set-up.
struct Frontends {
    exec: Arc<StreamExec>,
    service: PoolService<StreamTask>,
    server: Server,
}

impl Frontends {
    fn start(origin: Instant, ids: usize, params: PoolParams) -> std::io::Result<Self> {
        let exec = Arc::new(StreamExec::new(origin, ids, PLACES, K));
        let pool = Arc::new(PoolKind::Hybrid.build::<StreamTask>(PLACES, params));
        let service =
            PoolService::start_with_capacity(pool, Arc::clone(&exec), Some(LANE_CAPACITY));
        let server = Server::bind(
            "127.0.0.1:0",
            ServerConfig {
                kind: PoolKind::Hybrid,
                places: PLACES,
                k: K,
                lane_capacity: Some(LANE_CAPACITY),
                ..ServerConfig::default()
            },
        )?;
        Ok(Frontends {
            exec,
            service,
            server,
        })
    }

    /// Shuts both frontends down and checks that they ended cleanly.
    fn stop(self, out: &mut Outcome) {
        let svc = self.service.shutdown();
        let ok = svc.as_ref().is_ok_and(|s| s.failed == 0);
        out.op(ok, false, || "service shutdown reported a failure".into());
        let summary = self.server.shutdown();
        let errors: u64 = summary.connections.iter().map(|c| c.errors).sum();
        out.op(summary.healthy() && errors == 0, false, || {
            format!(
                "server shutdown: {} failures, {errors} request errors",
                summary.failures.len()
            )
        });
    }
}

/// Samples the resident set size every 10 ms until stopped.
struct RssSampler {
    stop: Arc<AtomicBool>,
    thread: std::thread::JoinHandle<f64>,
}

impl RssSampler {
    fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            let mut peak = 0.0f64;
            loop {
                peak = peak.max(rss_mb().unwrap_or(0.0));
                if flag.load(Ordering::Acquire) {
                    return peak;
                }
                std::thread::sleep(Duration::from_millis(10));
            }
        });
        RssSampler { stop, thread }
    }

    fn finish(self) -> f64 {
        self.stop.store(true, Ordering::Release);
        self.thread.join().expect("rss sampler must not panic")
    }
}

/// Timed submissions one scheduled pass of `seconds` at `rate` makes.
fn pass_count(rate: f64, seconds: f64) -> usize {
    Schedule::at_rate(0, rate, seconds).count
}

/// Runs the benchmark once.
///
/// # Errors
/// Only when the loopback server cannot be bound or connected to; every
/// other failure is counted in the outcome.
pub fn run(args: &Args) -> std::io::Result<Outcome> {
    let spec = args.spec;
    let origin = Instant::now();
    let clock = RealClock::new(origin);
    let params = PoolParams::with_k(K);
    let kinds: Vec<PoolKind> = KIND_IDS
        .iter()
        .map(|id| {
            id.parse()
                .expect("every benchmark kind id names a pool kind")
        })
        .collect();
    let budget = args.seconds as f64;
    let slice = Slices {
        sssp: SSSP_SHARE * budget / CYCLES as f64,
        pass: PASS_SHARE * budget / CYCLES as f64,
        sat: SAT_SHARE * budget / CYCLES as f64,
    };
    let mut out = Outcome::default();
    let mut spans = Spans::new(origin);
    let root = spans.open(0, format!("run {} seed {}", spec.name, args.seed));
    let ids = CYCLES
        * spec
            .stream_rates
            .iter()
            .map(|&r| pass_count(r, slice.pass))
            .sum::<usize>();

    // Set-up, several times: instance + oracle + the frontends' pools.
    let mut setup_s = Vec::new();
    let (mut gen_ms, mut oracle_ms) = (Vec::new(), Vec::new());
    let mut live: Option<(Instance, Frontends)> = None;
    for _ in 0..SETUPS {
        if let Some((inst, fe)) = live.take() {
            drop(inst);
            fe.stop(&mut out);
        }
        let span = spans.open(root, "setup");
        let t0 = Instant::now();
        let inst = Instance::build(spec.n, spec.p, args.seed);
        let fe = Frontends::start(origin, ids, params)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        spans.close(span);
        gen_ms.push(inst.gen_ms);
        oracle_ms.push(inst.oracle_ms);
        live = Some((inst, fe));
    }
    let (inst, mut fe) = live.expect("at least one set-up");
    out.metrics.set("setup_s", median(&setup_s));
    out.metrics.set("setup.gen_ms", median(&gen_ms));
    out.metrics.set("setup.oracle_ms", median(&oracle_ms));

    let rss = RssSampler::start();
    let mut rng = SplitMix64::new(args.seed ^ 0x005e_ed0f_0be7_10ad);
    let mut conn = NetConn::connect(fe.server.local_addr())?;
    let mut solves = SsspAcc::new(kinds.len());
    let mut stream = StreamAcc::default();
    let mut wire = WireAcc::default();
    // Traced runs drive a second, wrapped service; the untraced one serves
    // as the reference for the tracing overhead.
    let mut traced = args.trace.then(|| {
        let exec = Arc::new(StreamExec::new(origin, ids, PLACES, K));
        let pool = Arc::new(TracedPool::new(
            PoolKind::Hybrid.build::<StreamTask>(PLACES, params),
        ));
        let svc = PoolService::start_with_capacity(
            pool,
            Arc::new(TracedExec(Arc::clone(&exec))),
            Some(LANE_CAPACITY),
        );
        let idle0 = svc.idle_iters();
        (svc, exec, idle0, StreamAcc::default())
    });
    if args.trace {
        match conn.ping(PINGS) {
            Ok(rtts) => {
                let rtts: Vec<f64> = rtts.iter().map(|&n| us(n)).collect();
                out.metrics.set("net.ping_us", median(&rtts));
            }
            Err(e) => out.op(false, false, || format!("PING: {e}")),
        }
    }
    let wire_idle0 = fe.server.idle_iters();

    for cycle in 0..CYCLES {
        let span = spans.open(root, format!("cycle {cycle}"));
        solves.slice(
            &inst, &kinds, params, args.trace, slice.sssp, &mut out, &mut spans, span,
        );
        let ctx = PassCtx {
            spec,
            clock: &clock,
            slice,
            parent: span,
        };
        match &mut traced {
            None => stream.slice(
                &ctx,
                &mut fe.service,
                &fe.exec,
                &mut rng,
                &mut out,
                &mut spans,
            ),
            Some((svc, exec, _, acc)) => {
                // The untraced reference for the tracing overhead: the high
                // rate only.
                stream.pass(
                    &ctx,
                    &mut fe.service,
                    &fe.exec,
                    1,
                    &mut rng,
                    &mut out,
                    &mut spans,
                );
                acc.slice(&ctx, svc, exec, &mut rng, &mut out, &mut spans);
            }
        }
        wire.slice(&ctx, &mut conn, args.trace, &mut rng, &mut out, &mut spans);
        spans.close(span);
    }
    let bye = conn.call("QUIT");
    out.op(bye.as_deref().is_ok_and(|b| b == "BYE"), false, || {
        format!("QUIT: {bye:?}")
    });

    let peak = rss.finish();
    let m = &mut out.metrics;
    m.set("peak_rss_mb", peak);
    m.set(
        "net.idle_iters_per_ktask",
        (fe.server.idle_iters() - wire_idle0) as f64 * 1e3 / wire.expected.max(1) as f64,
    );
    if args.trace {
        solves.per_layer(&inst, &kinds, m);
        wire.per_layer(m);
    } else {
        solves.end_to_end(&kinds, m);
        stream.end_to_end(m);
        wire.end_to_end(m);
    }
    if let Some((svc, _, idle0, acc)) = traced {
        let idle = svc.idle_iters() - idle0;
        let stopped = svc.shutdown();
        out.op(stopped.is_ok_and(|s| s.failed == 0), false, || {
            "traced service shutdown failed".into()
        });
        acc.per_layer(&stream, idle, &mut out.metrics);
    }
    fe.stop(&mut out);
    drop(inst);
    spans.close(root);
    out.spans = spans.spans().to_vec();
    Ok(out)
}

/// Seconds each phase gets in one cycle.
#[derive(Clone, Copy, Debug)]
struct Slices {
    sssp: f64,
    pass: f64,
    sat: f64,
}

/// What every open-loop slice needs to know.
struct PassCtx<'a> {
    spec: &'a Spec,
    clock: &'a RealClock,
    slice: Slices,
    parent: u64,
}

fn check_solve(out: &mut Outcome, kind: PoolKind, places: usize, s: &Solve) {
    out.op(s.verified.is_ok(), true, || {
        format!(
            "{} at P={places}: {}",
            kind.id(),
            s.verified.as_ref().err().cloned().unwrap_or_default()
        )
    });
}

/// Per-kind accumulation over the traced solves of one run.
#[derive(Default)]
struct KindTrace {
    place: PlaceTrace,
    pool: PlaceStats,
    dead: u64,
    relaxed: f64,
    solves: u64,
    imbalance: Vec<f64>,
    traced_ms: Vec<f64>,
    p1_ms: Vec<f64>,
}

/// The SSSP solves of a run, accumulated over its cycles.
struct SsspAcc {
    /// Untraced P = 2 solve times per kind, ms.
    times: Vec<Vec<f64>>,
    seq: Vec<f64>,
    traces: Vec<KindTrace>,
    verify: Vec<f64>,
    round: usize,
}

impl SsspAcc {
    fn new(kinds: usize) -> Self {
        SsspAcc {
            times: vec![Vec::new(); kinds],
            seq: Vec::new(),
            traces: (0..kinds).map(|_| KindTrace::default()).collect(),
            verify: Vec::new(),
            round: 0,
        }
    }

    /// Rounds of one solve per kind (rotating the order) plus one
    /// Dijkstra, until `seconds` have passed — at least one round.
    /// Traced rounds add a traced P = 2 and an untraced P = 1 solve per
    /// kind.
    #[allow(clippy::too_many_arguments)]
    fn slice(
        &mut self,
        inst: &Instance,
        kinds: &[PoolKind],
        params: PoolParams,
        traced: bool,
        seconds: f64,
        out: &mut Outcome,
        spans: &mut Spans,
        parent: u64,
    ) {
        let deadline = Instant::now() + Duration::from_secs_f64(seconds);
        let phase = spans.open(parent, "sssp");
        loop {
            for j in 0..kinds.len() {
                let i = (j + self.round) % kinds.len();
                let kind = kinds[i];
                let span = spans.open(phase, format!("solve {}", kind.id()));
                let s = sssp::solve(inst, kind, PLACES, params);
                spans.close(span);
                check_solve(out, kind, PLACES, &s);
                self.times[i].push(s.ms);
                self.verify.push(s.verify_ms);
                if traced {
                    self.traced_solve(inst, kind, i, params, out, spans, phase);
                }
            }
            let span = spans.open(phase, "dijkstra");
            let (ms, ok) = sssp::sequential(inst);
            spans.close(span);
            out.op(ok, true, || {
                "sequential Dijkstra disagrees with the oracle".into()
            });
            self.seq.push(ms);
            self.round += 1;
            if Instant::now() >= deadline {
                break;
            }
        }
        spans.close(phase);
    }

    #[allow(clippy::too_many_arguments)]
    fn traced_solve(
        &mut self,
        inst: &Instance,
        kind: PoolKind,
        i: usize,
        params: PoolParams,
        out: &mut Outcome,
        spans: &mut Spans,
        phase: u64,
    ) {
        let span = spans.open(phase, format!("solve {} traced", kind.id()));
        let (s, traces) = sssp::solve_traced(inst, kind, PLACES, params);
        spans.close(span);
        check_solve(out, kind, PLACES, &s);
        let span = spans.open(phase, format!("solve {} P=1", kind.id()));
        let single = sssp::solve(inst, kind, 1, params);
        spans.close(span);
        check_solve(out, kind, 1, &single);
        let a = &mut self.traces[i];
        for t in &traces {
            a.place.merge(t);
        }
        a.pool.merge(&s.run.pool);
        a.dead += s.run.dead;
        a.relaxed += s.relaxed;
        a.solves += 1;
        let per = &s.run.per_place_executed;
        let mean = per.iter().sum::<u64>() as f64 / per.len().max(1) as f64;
        let max = per.iter().copied().max().unwrap_or(0) as f64;
        a.imbalance.push(if mean > 0.0 { max / mean } else { 1.0 });
        a.traced_ms.push(s.ms);
        a.p1_ms.push(single.ms);
        self.verify.extend([s.verify_ms, single.verify_ms]);
    }

    fn end_to_end(&self, kinds: &[PoolKind], m: &mut Metrics) {
        for (kind, t) in kinds.iter().zip(&self.times) {
            m.set(format!("solve_ms.{}", kind.id()), median(t));
        }
        m.set("seq_ms", median(&self.seq));
    }

    fn per_layer(&self, inst: &Instance, kinds: &[PoolKind], m: &mut Metrics) {
        for ((kind, a), plain) in kinds.iter().zip(&self.traces).zip(&self.times) {
            let k = kind.id();
            let p = &a.place;
            let wall = p.wall_ns.max(1) as f64;
            let calls = (p.pop_hit.count + p.pop_miss.count).max(1) as f64;
            let exec_self = p.exec.total_ns.saturating_sub(p.exec_pool_ns) as f64;
            m.set(
                format!("pool.{k}.push_ns"),
                p.push.total_ns as f64 / p.pushed.max(1) as f64,
            );
            m.set(format!("pool.{k}.pop_ns"), p.pop_hit.mean_ns());
            m.set(format!("pool.{k}.miss_ns"), p.pop_miss.mean_ns());
            m.set(
                format!("pool.{k}.miss_frac"),
                p.pop_miss.count as f64 / calls,
            );
            m.set(format!("pool.{k}.share"), p.pool_ns() as f64 / wall);
            m.set(
                format!("sched.{k}.dead_frac"),
                a.dead as f64 / p.popped.max(1) as f64,
            );
            m.set(format!("sched.{k}.exec_share"), exec_self / wall);
            m.set(
                format!("sched.{k}.self_share"),
                1.0 - (p.pool_ns() as f64 + exec_self + p.dead_check.total_ns as f64) / wall,
            );
            m.set(format!("sched.{k}.imbalance"), median(&a.imbalance));
            m.set(format!("sched.{k}.p1_ms"), median(&a.p1_ms));
            m.set(
                format!("app.{k}.relaxed_per_node"),
                a.relaxed / (inst.reachable.max(1) * a.solves.max(1)) as f64,
            );
            m.set(
                format!("trace.{k}.overhead_ms"),
                median(&a.traced_ms) - median(plain),
            );
        }
        let stats = |id: &str| {
            let i = kinds
                .iter()
                .position(|k| k.id() == id)
                .expect("kind present");
            &self.traces[i].pool
        };
        let per_k = |n: u64, pool: &PlaceStats| n as f64 * 1e3 / pool.pops.max(1) as f64;
        let ws = stats("work_stealing");
        m.set("pool.work_stealing.steals", per_k(ws.steals, ws));
        let hy = stats("hybrid");
        m.set("pool.hybrid.spies", per_k(hy.spies, hy));
        m.set("pool.hybrid.publishes", per_k(hy.publishes, hy));
        let ce = stats("centralized");
        m.set("pool.centralized.probe_hits", per_k(ce.probe_hits, ce));
        let st = stats("structural");
        m.set(
            "pool.structural.combine_ops_per_pass",
            st.combine_ops as f64 / st.combine_passes.max(1) as f64,
        );
        m.set("pool.structural.combine_parks", per_k(st.combine_parks, st));
        let mq = stats("multiqueue");
        m.set("pool.multiqueue.stale_refs", per_k(mq.stale_refs, mq));
        m.set("verify_ms", median(&self.verify));
    }
}

fn check_pass(out: &mut Outcome, what: &str, p: &PassResult) {
    out.ops(p.attempted, p.rejected, false, || {
        format!("{what}: {} submissions rejected", p.rejected)
    });
    out.ops(0, p.mismatched, true, || {
        format!("{what}: {} submissions never ran", p.mismatched)
    });
}

fn check_executions(out: &mut Outcome, exec: &StreamExec, expected: u64) {
    let got = exec.executed();
    out.op(got == expected && exec.duplicates() == 0, true, || {
        format!(
            "stream executed {got} steps ({} duplicated), countdown oracle expects {expected}",
            exec.duplicates()
        )
    });
}

/// In-process open-loop passes of one service, accumulated over cycles.
#[derive(Default)]
struct StreamAcc {
    /// Due-to-start latency per rate, ns.
    latency: [Vec<u64>; 2],
    /// Generator lateness per rate, ns.
    lateness: [Vec<u64>; 2],
    /// `submit` call durations of the scheduled passes, ns.
    submits: Vec<u64>,
    queued_max: u64,
    /// Executions per second of each saturation pass.
    sat_rates: Vec<f64>,
    /// `join` after each saturation pass, ms.
    sat_join_ms: Vec<f64>,
    /// Executions the countdown oracle expects so far.
    expected: u64,
    /// Next unused submission id.
    id_base: usize,
}

impl StreamAcc {
    #[allow(clippy::too_many_arguments)]
    fn pass(
        &mut self,
        ctx: &PassCtx<'_>,
        svc: &mut PoolService<StreamTask>,
        exec: &StreamExec,
        r: usize,
        rng: &mut SplitMix64,
        out: &mut Outcome,
        spans: &mut Spans,
    ) {
        let rate = ctx.spec.stream_rates[r];
        let span = spans.open(ctx.parent, format!("stream {}", RATES[r]));
        let p = open_pass(
            svc,
            exec,
            ctx.clock,
            rate,
            ctx.slice.pass,
            self.id_base,
            ctx.spec.max_value,
            K,
            rng,
        );
        // One span per 1024 submissions, due time of the first to due time
        // of the last.
        if let Some(sched) = &p.schedule {
            for first in (0..sched.count).step_by(1024) {
                let last = (first + 1023).min(sched.count - 1);
                spans.record(span, "submit_batch", sched.due(first), sched.due(last));
            }
        }
        spans.record(
            span,
            "join",
            ctx.clock.now_ns() - p.join_ns,
            ctx.clock.now_ns(),
        );
        spans.close(span);
        self.id_base += p.attempted as usize;
        self.expected += p.expected_executions;
        check_pass(out, RATES[r], &p);
        check_executions(out, exec, self.expected);
        self.latency[r].extend_from_slice(&p.latency_ns);
        self.lateness[r].extend_from_slice(&p.lateness_ns);
        self.submits.extend_from_slice(&p.submit_ns);
        self.queued_max = self.queued_max.max(p.queued_max);
    }

    /// Low pass, high pass, saturation pass.
    fn slice(
        &mut self,
        ctx: &PassCtx<'_>,
        svc: &mut PoolService<StreamTask>,
        exec: &StreamExec,
        rng: &mut SplitMix64,
        out: &mut Outcome,
        spans: &mut Spans,
    ) {
        self.pass(ctx, svc, exec, 0, rng, out, spans);
        self.pass(ctx, svc, exec, 1, rng, out, spans);
        let span = spans.open(ctx.parent, "stream saturation");
        let count = (ctx.spec.saturated[0] * ctx.slice.sat).round() as usize;
        let (p, rate) = saturation_pass(svc, count, ctx.spec.max_value, K, rng);
        spans.close(span);
        self.expected += p.expected_executions;
        check_pass(out, "saturation", &p);
        check_executions(out, exec, self.expected);
        self.queued_max = self.queued_max.max(p.queued_max);
        self.sat_rates.push(rate);
        self.sat_join_ms.push(p.join_ns as f64 / 1e6);
    }

    fn end_to_end(&self, m: &mut Metrics) {
        for (r, name) in RATES.iter().enumerate() {
            m.set(
                format!("latency_p50_us.{name}"),
                us(quantile_sorted(&sorted(&self.latency[r]), 0.5)),
            );
        }
        m.set("saturated_tasks_per_s", median(&self.sat_rates));
    }

    /// Per-layer metrics of a traced service; `reference` is the untraced
    /// service's accumulation over the same cycles.
    fn per_layer(&self, reference: &StreamAcc, idle_iters: u64, m: &mut Metrics) {
        let s = sorted(&self.submits);
        m.set(
            "ingest.submit_ns",
            s.iter().sum::<u64>() as f64 / s.len().max(1) as f64,
        );
        m.set("ingest.submit_p99_ns", quantile_sorted(&s, 0.99) as f64);
        m.set("ingest.queued_max", self.queued_max as f64);
        m.set(
            "service.idle_iters_per_ktask",
            idle_iters as f64 * 1e3 / self.expected.max(1) as f64,
        );
        m.set("service.join_ms", median(&self.sat_join_ms));
        m.set(
            "gen.lateness_p99_us",
            us(quantile_sorted(&sorted(&self.lateness[1]), 0.99)),
        );
        for (r, name) in RATES.iter().enumerate() {
            m.set(
                format!("tail.latency_p99_us.{name}"),
                us(quantile_sorted(&sorted(&self.latency[r]), 0.99)),
            );
        }
        let p50 = |v: &[u64]| us(quantile_sorted(&sorted(v), 0.5));
        m.set(
            "trace.latency_overhead_us",
            p50(&self.latency[1]) - p50(&reference.latency[1]),
        );
    }
}

/// Wire passes over one connection, accumulated over cycles.
#[derive(Default)]
struct WireAcc {
    latency: [Vec<u64>; 2],
    lateness: [Vec<u64>; 2],
    sat_rates: Vec<f64>,
    join_ms: Vec<f64>,
    expected: u64,
}

impl WireAcc {
    fn check(
        &mut self,
        conn: &mut NetConn,
        p: &NetPass,
        what: &str,
        out: &mut Outcome,
        spans: &mut Spans,
        parent: u64,
    ) -> f64 {
        out.ops(p.requests, p.bad_replies, false, || {
            format!("wire {what}: {} bad replies", p.bad_replies)
        });
        self.expected += p.expected_executions;
        let span = spans.open(parent, "join");
        let t0 = Instant::now();
        let done = conn.join();
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        spans.close(span);
        let expected = self.expected;
        match done {
            Ok(n) => out.op(n == expected, true, || {
                format!("DONE {n}, countdown oracle expects {expected}")
            }),
            Err(e) => out.op(false, false, || format!("JOIN: {e}")),
        }
        ms
    }

    /// Low pass, high pass, saturation pass, each closed by a `JOIN`.
    fn slice(
        &mut self,
        ctx: &PassCtx<'_>,
        conn: &mut NetConn,
        traced: bool,
        rng: &mut SplitMix64,
        out: &mut Outcome,
        spans: &mut Spans,
    ) {
        let batch = ctx.spec.wire_batch;
        for (r, rate) in ctx.spec.wire_rates.iter().enumerate() {
            let req_rate = rate / batch as f64;
            let schedule =
                Schedule::at_rate(ctx.clock.now_ns() + 1_000_000, req_rate, ctx.slice.pass);
            let requests = render(schedule.count, batch, ctx.spec.max_value, K, rng);
            let span = spans.open(ctx.parent, format!("wire {}", RATES[r]));
            let p = conn.pass(ctx.clock, &requests, batch, Some(&schedule), 0);
            if traced {
                for (i, lat) in p.latency_ns.iter().enumerate().take(200) {
                    let due = schedule.due(i);
                    spans.record(span, "request", due, due + lat);
                }
            }
            self.check(conn, &p, RATES[r], out, spans, span);
            spans.close(span);
            self.latency[r].extend_from_slice(&p.latency_ns);
            self.lateness[r].extend_from_slice(&p.lateness_ns);
        }
        let requests = render(1024, batch, ctx.spec.max_value, K, rng);
        let span = spans.open(ctx.parent, "wire saturation");
        let t0 = ctx.clock.now_ns();
        let count = (ctx.spec.saturated[1] * ctx.slice.sat / batch as f64).round() as usize;
        let p = conn.pass(ctx.clock, &requests, batch, None, count);
        let join_ms = self.check(conn, &p, "saturation", out, spans, span);
        let elapsed_s = (ctx.clock.now_ns() - t0) as f64 / 1e9;
        spans.close(span);
        self.sat_rates
            .push(p.expected_executions as f64 / elapsed_s);
        self.join_ms.push(join_ms);
    }

    fn end_to_end(&self, m: &mut Metrics) {
        for (r, name) in RATES.iter().enumerate() {
            m.set(
                format!("wire_latency_p50_us.{name}"),
                us(quantile_sorted(&sorted(&self.latency[r]), 0.5)),
            );
        }
        m.set("wire_saturated_tasks_per_s", median(&self.sat_rates));
    }

    fn per_layer(&self, m: &mut Metrics) {
        m.set("net.join_ms", median(&self.join_ms));
        m.set(
            "net.gen_lateness_p99_us",
            us(quantile_sorted(&sorted(&self.lateness[1]), 0.99)),
        );
        for (r, name) in RATES.iter().enumerate() {
            m.set(
                format!("tail.wire_latency_p99_us.{name}"),
                us(quantile_sorted(&sorted(&self.latency[r]), 0.99)),
            );
        }
    }
}
