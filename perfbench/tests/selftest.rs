//! Self-tests of the benchmark: the timing wrappers are transparent, the
//! metric catalogue matches `BENCHMARK.json`, inputs are a function of the
//! seed, and open-loop latency counts from the due time.

use perfbench::openloop::{generate, latency_ns, Clock, Schedule};
use perfbench::report::{end_to_end, per_layer, valid_name, KIND_IDS};
use perfbench::run::parse_args;
use perfbench::sssp::Instance;
use perfbench::trace::{TracedExec, TracedPool};
use perfbench::WORKLOADS;
use priosched_core::{
    PoolHandle, PoolKind, PoolParams, Scheduler, SpawnCtx, TaskExecutor, TaskPool,
};
use std::cell::Cell;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

fn kinds() -> Vec<PoolKind> {
    KIND_IDS.iter().map(|id| id.parse().unwrap()).collect()
}

/// Drives one handle through scalar and batch pushes and pops; returns
/// the popped `(prio, task)` sequence.
fn drive<H: PoolHandle<u64>>(h: &mut H) -> Vec<(u64, u64)> {
    let mut popped = Vec::new();
    for i in 0..200u64 {
        h.push((i * 7919) % 101, 8, i);
    }
    for _ in 0..50 {
        popped.extend(h.pop_entry());
    }
    let mut batch: Vec<(u64, u64)> = (200..300u64).map(|i| ((i * 31) % 97, i)).collect();
    h.push_batch(8, &mut batch);
    assert!(batch.is_empty(), "push_batch drains its input");
    let mut out = Vec::new();
    h.try_pop_batch(&mut out, 40);
    popped.extend(out.into_iter().map(|t| (u64::MAX, t)));
    while let Some(e) = h.pop_entry() {
        popped.push(e);
    }
    popped
}

#[test]
fn wrapper_is_transparent_on_one_place() {
    let params = PoolParams::with_k(8);
    for kind in kinds() {
        let plain = Arc::new(kind.build::<u64>(1, params));
        let traced = Arc::new(TracedPool::new(kind.build::<u64>(1, params)));
        let sink = traced.sink();
        let (mut a, mut b) = (plain.handle(0), traced.handle(0));
        let (pa, pb) = (drive(&mut a), drive(&mut b));
        assert_eq!(pa, pb, "{kind}: the wrapper changed what was popped");
        let mut ids: Vec<u64> = pb.iter().map(|(_, t)| *t).collect();
        ids.sort_unstable();
        assert_eq!(
            ids,
            (0..300).collect::<Vec<_>>(),
            "{kind}: not exactly once"
        );
        assert_eq!(a.stats(), b.stats(), "{kind}: PlaceStats changed");
        drop(b);
        let traces = sink.lock().unwrap();
        assert_eq!(traces.len(), 1);
        assert_eq!(traces[0].pushed, 300, "{kind}");
        assert_eq!(traces[0].popped, 300, "{kind}");
        assert!(
            traces[0].pop_miss.count >= 1,
            "{kind}: the final empty pop is a miss"
        );
    }
}

/// Binary tree of `n` tasks: task `i` spawns `2i+1` and `2i+2`.
struct Tree {
    n: u32,
    seen: Vec<AtomicU32>,
}

impl TaskExecutor<u32> for Tree {
    fn execute(&self, id: u32, ctx: &mut SpawnCtx<'_, u32>) {
        self.seen[id as usize].fetch_add(1, Ordering::Relaxed);
        let mut batch = ctx.take_batch_buf();
        for child in [2 * id + 1, 2 * id + 2] {
            if child < self.n {
                batch.push((child as u64, child));
            }
        }
        if id.is_multiple_of(2) {
            ctx.spawn_batch(16, &mut batch);
        } else {
            for (prio, child) in batch.drain(..) {
                ctx.spawn(prio, 16, child);
            }
        }
        ctx.put_batch_buf(batch);
    }
}

#[test]
fn wrapper_keeps_exactly_once_on_two_places() {
    let n = 20_000u32;
    for kind in kinds() {
        let tree = Tree {
            n,
            seen: (0..n).map(|_| AtomicU32::new(0)).collect(),
        };
        let pool = TracedPool::new(kind.build::<u32>(2, PoolParams::with_k(16)));
        let sink = pool.sink();
        let run = Scheduler::from_pool(pool).run(&TracedExec(&tree), vec![(0, 16, 0)]);
        assert!(
            tree.seen.iter().all(|s| s.load(Ordering::Relaxed) == 1),
            "{kind}: not exactly once"
        );
        assert_eq!(run.executed, n as u64, "{kind}");
        let traces = sink.lock().unwrap();
        assert_eq!(traces.len(), 2, "{kind}: one trace per place");
        let pushed: u64 = traces.iter().map(|t| t.pushed).sum();
        let popped: u64 = traces.iter().map(|t| t.popped).sum();
        let execs: u64 = traces.iter().map(|t| t.exec.count).sum();
        assert_eq!(
            (pushed, popped, execs),
            (n as u64, n as u64, n as u64),
            "{kind}"
        );
        assert!(traces.iter().all(|t| t.wall_ns >= t.pool_ns()), "{kind}");
    }
}

/// A minimal JSON reader, enough for `BENCHMARK.json`.
#[derive(Debug)]
enum Json {
    Str(String),
    Num(f64),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
    Other,
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(kv) => {
                &kv.iter()
                    .find(|(k, _)| k == key)
                    .unwrap_or_else(|| panic!("no key {key}"))
                    .1
            }
            _ => panic!("not an object"),
        }
    }
    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }
    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(v) => v,
            other => panic!("not an array: {other:?}"),
        }
    }
    fn keys(&self) -> Vec<&str> {
        match self {
            Json::Obj(kv) => kv.iter().map(|(k, _)| k.as_str()).collect(),
            _ => panic!("not an object"),
        }
    }
}

fn parse_json(s: &str) -> Json {
    fn ws(b: &[u8], i: &mut usize) {
        while *i < b.len() && b[*i].is_ascii_whitespace() {
            *i += 1;
        }
    }
    fn string(b: &[u8], i: &mut usize) -> String {
        assert_eq!(b[*i], b'"');
        *i += 1;
        let start = *i;
        while b[*i] != b'"' {
            assert_ne!(b[*i], b'\\', "escapes are not expected here");
            *i += 1;
        }
        *i += 1;
        String::from_utf8(b[start..*i - 1].to_vec()).unwrap()
    }
    fn value(b: &[u8], i: &mut usize) -> Json {
        ws(b, i);
        match b[*i] {
            b'"' => Json::Str(string(b, i)),
            b'[' => {
                *i += 1;
                let mut v = Vec::new();
                loop {
                    ws(b, i);
                    if b[*i] == b']' {
                        *i += 1;
                        return Json::Arr(v);
                    }
                    v.push(value(b, i));
                    ws(b, i);
                    if b[*i] == b',' {
                        *i += 1;
                    }
                }
            }
            b'{' => {
                *i += 1;
                let mut kv = Vec::new();
                loop {
                    ws(b, i);
                    if b[*i] == b'}' {
                        *i += 1;
                        return Json::Obj(kv);
                    }
                    let k = string(b, i);
                    ws(b, i);
                    assert_eq!(b[*i], b':');
                    *i += 1;
                    kv.push((k, value(b, i)));
                    ws(b, i);
                    if b[*i] == b',' {
                        *i += 1;
                    }
                }
            }
            c if c == b'-' || c.is_ascii_digit() => {
                let start = *i;
                while *i < b.len()
                    && matches!(b[*i], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
                {
                    *i += 1;
                }
                Json::Num(std::str::from_utf8(&b[start..*i]).unwrap().parse().unwrap())
            }
            _ => {
                while *i < b.len() && b[*i].is_ascii_alphabetic() {
                    *i += 1;
                }
                Json::Other
            }
        }
    }
    let mut i = 0;
    value(s.as_bytes(), &mut i)
}

#[test]
fn catalogue_matches_benchmark_json() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let json = parse_json(&text);
    let workloads: Vec<&str> = json
        .get("workloads")
        .arr()
        .iter()
        .map(|w| w.get("name").str())
        .collect();
    assert_eq!(
        workloads,
        WORKLOADS.iter().map(|s| s.name).collect::<Vec<_>>()
    );
    for (key, catalogue) in [("end_to_end", end_to_end()), ("per_layer", per_layer())] {
        let listed: Vec<(&str, &str, &str)> = json
            .get(key)
            .arr()
            .iter()
            .map(|m| {
                (
                    m.get("name").str(),
                    m.get("unit").str(),
                    m.get("better").str(),
                )
            })
            .collect();
        let ours: Vec<(&str, &str, &str)> = catalogue
            .iter()
            .map(|d| (d.name.as_str(), d.unit, d.better))
            .collect();
        assert_eq!(listed, ours, "{key} differs from the catalogue");
    }
    let bound = |name: &str| match json
        .get("end_to_end")
        .arr()
        .iter()
        .find(|m| m.get("name").str() == name)
        .map(|m| m.get("bound"))
    {
        Some(Json::Num(b)) => *b,
        other => panic!("{name}: no numeric bound ({other:?})"),
    };
    for d in end_to_end() {
        let b = bound(&d.name);
        assert!(b > 0.0 && b <= 0.25, "{}: bound {b}", d.name);
    }
    assert_eq!(
        json.keys(),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
}

#[test]
fn metric_names_are_well_formed_and_unique() {
    let mut names: Vec<String> = end_to_end()
        .into_iter()
        .chain(per_layer())
        .map(|d| d.name)
        .collect();
    names.extend(WORKLOADS.iter().map(|s| s.name.to_string()));
    for n in &names {
        assert!(valid_name(n) && n.len() <= 64, "bad metric name {n:?}");
    }
    let total = names.len();
    names.sort();
    names.dedup();
    assert_eq!(names.len(), total, "a name is used twice");
    assert!(!valid_name("a b") && !valid_name("") && !valid_name("a/b"));
}

#[test]
fn same_seed_same_instance_other_seed_other_instance() {
    let spec = &WORKLOADS[0];
    let a = Instance::build(spec.n, spec.p, 1);
    let b = Instance::build(spec.n, spec.p, 1);
    let c = Instance::build(spec.n, spec.p, 2);
    assert_eq!(
        (a.edges(), a.oracle_checksum()),
        (b.edges(), b.oracle_checksum())
    );
    assert_ne!(a.oracle_checksum(), c.oracle_checksum());
    assert_ne!(a.edges(), c.edges());
    assert!(
        a.reachable as f64 > 0.99 * spec.n as f64,
        "the sparse graph is mostly connected"
    );
}

/// A clock that advances only when told to: sleeping jumps to the target,
/// plus a stall on chosen sleeps.
struct FakeClock {
    now: Cell<u64>,
    sleeps: Cell<usize>,
    stall_on_sleep: usize,
    stall_ns: u64,
}

impl Clock for FakeClock {
    fn now_ns(&self) -> u64 {
        self.now.get()
    }
    fn sleep_until(&self, ns: u64) {
        let n = self.sleeps.get();
        self.sleeps.set(n + 1);
        let stall = if n == self.stall_on_sleep {
            self.stall_ns
        } else {
            0
        };
        self.now.set(self.now.get().max(ns) + stall);
    }
}

#[test]
fn open_loop_latency_counts_from_the_due_time() {
    // 10 requests every 100 µs; the 4th sleep oversleeps by 1 ms; each
    // request is served 1 µs after it is sent.
    let clock = FakeClock {
        now: Cell::new(0),
        sleeps: Cell::new(0),
        stall_on_sleep: 3,
        stall_ns: 1_000_000,
    };
    let schedule = Schedule {
        start_ns: 100_000,
        interval_ns: 100_000.0,
        count: 10,
    };
    let mut from_due = Vec::new();
    let mut from_send = Vec::new();
    let lateness = generate(&clock, &schedule, |i, due| {
        assert_eq!(due, schedule.due(i));
        let sent = clock.now_ns();
        clock.now.set(sent + 1_000);
        let done = clock.now_ns();
        from_due.push(latency_ns(due, done));
        from_send.push(done - sent);
        true
    });
    assert_eq!(lateness.len(), 10, "every request is sent, none skipped");
    // Before the stall the generator is on time.
    assert_eq!(&lateness[..3], &[0, 0, 0]);
    assert_eq!(&from_due[..3], &[1_000, 1_000, 1_000]);
    // The stall delays request 3 by 1 ms and every later one that was due
    // meanwhile; they go out back to back, each late by what it waited.
    assert_eq!(lateness[3], 1_000_000);
    assert_eq!(from_due[3], 1_001_000);
    for i in 4..10 {
        assert!(
            lateness[i] > 0 && lateness[i] < lateness[i - 1],
            "request {i}"
        );
        assert_eq!(from_due[i], lateness[i] + 1_000, "request {i}");
    }
    // Timing from the send instead would have hidden the stall entirely.
    assert!(from_send.iter().all(|&l| l == 1_000));
}

#[test]
fn schedule_spacing_matches_the_rate() {
    let s = Schedule::at_rate(5, 2_000.0, 1.5);
    assert_eq!(s.count, 3_000);
    assert_eq!(s.due(0), 5);
    assert_eq!(s.due(2), 5 + 1_000_000);
}

#[test]
fn command_line_is_checked() {
    let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
    let a = parse_args(&args("--workload dense --seed 9 --seconds 3 --trace 1")).unwrap();
    assert_eq!(
        (a.spec.name, a.seed, a.seconds, a.trace),
        ("dense", 9, 3, true)
    );
    for bad in [
        "--workload nope --seed 1",
        "--seed 1",
        "--workload sparse --seed x",
        "--workload sparse --seconds 0",
        "--workload sparse --trace 2",
        "--workload sparse --bogus 1",
        "--workload",
    ] {
        assert!(parse_args(&args(bad)).is_err(), "{bad:?} must be rejected");
    }
}
