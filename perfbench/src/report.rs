//! Summary statistics, the metric catalogue, and the result line.

use std::collections::BTreeMap;

/// Kind ids in the benchmark's fixed order; each parses as a `PoolKind`.
pub const KIND_IDS: [&str; 5] = [
    "work_stealing",
    "centralized",
    "hybrid",
    "structural",
    "multiqueue",
];

/// Open-loop rate names, in the order of `Spec::stream_rates` and
/// `Spec::wire_rates`.
pub const RATES: [&str; 2] = ["low", "high"];

/// A metric's declaration: name, unit, and which direction is better.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MetricDef {
    /// Metric name, `[A-Za-z0-9_.-]+`.
    pub name: String,
    /// Unit, as printed.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

fn def(name: impl Into<String>, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name: name.into(),
        unit,
        better,
    }
}

/// Every end-to-end metric; every workload reports all of them untraced.
pub fn end_to_end() -> Vec<MetricDef> {
    let mut v = Vec::new();
    for k in KIND_IDS {
        v.push(def(format!("solve_ms.{k}"), "ms", "lower"));
    }
    v.push(def("seq_ms", "ms", "lower"));
    for prefix in ["latency", "wire_latency"] {
        for r in RATES {
            v.push(def(format!("{prefix}_p50_us.{r}"), "us", "lower"));
        }
    }
    v.push(def("saturated_tasks_per_s", "1/s", "higher"));
    v.push(def("wire_saturated_tasks_per_s", "1/s", "higher"));
    v.push(def("setup_s", "s", "lower"));
    v.push(def("peak_rss_mb", "MB", "lower"));
    v
}

/// Every per-layer metric; every workload reports all of them traced.
pub fn per_layer() -> Vec<MetricDef> {
    let mut v = Vec::new();
    for k in KIND_IDS {
        v.push(def(format!("pool.{k}.push_ns"), "ns", "lower"));
        v.push(def(format!("pool.{k}.pop_ns"), "ns", "lower"));
        v.push(def(format!("pool.{k}.miss_ns"), "ns", "lower"));
        v.push(def(format!("pool.{k}.miss_frac"), "ratio", "lower"));
        v.push(def(format!("pool.{k}.share"), "ratio", "lower"));
        v.push(def(format!("sched.{k}.dead_frac"), "ratio", "lower"));
        v.push(def(format!("sched.{k}.exec_share"), "ratio", "higher"));
        v.push(def(format!("sched.{k}.self_share"), "ratio", "lower"));
        v.push(def(format!("sched.{k}.imbalance"), "ratio", "lower"));
        v.push(def(format!("sched.{k}.p1_ms"), "ms", "lower"));
        v.push(def(format!("app.{k}.relaxed_per_node"), "ratio", "lower"));
        v.push(def(format!("trace.{k}.overhead_ms"), "ms", "lower"));
    }
    v.push(def("pool.work_stealing.steals", "1/ktask", "lower"));
    v.push(def("pool.hybrid.spies", "1/ktask", "lower"));
    v.push(def("pool.hybrid.publishes", "1/ktask", "lower"));
    v.push(def("pool.centralized.probe_hits", "1/ktask", "lower"));
    v.push(def("pool.structural.combine_ops_per_pass", "ops", "higher"));
    v.push(def("pool.structural.combine_parks", "1/ktask", "lower"));
    v.push(def("pool.multiqueue.stale_refs", "1/ktask", "lower"));
    v.push(def("ingest.submit_ns", "ns", "lower"));
    v.push(def("ingest.submit_p99_ns", "ns", "lower"));
    v.push(def("ingest.queued_max", "count", "lower"));
    v.push(def("service.idle_iters_per_ktask", "1/ktask", "lower"));
    v.push(def("service.join_ms", "ms", "lower"));
    v.push(def("gen.lateness_p99_us", "us", "lower"));
    v.push(def("trace.latency_overhead_us", "us", "lower"));
    for prefix in ["latency", "wire_latency"] {
        for r in RATES {
            v.push(def(format!("tail.{prefix}_p99_us.{r}"), "us", "lower"));
        }
    }
    v.push(def("net.ping_us", "us", "lower"));
    v.push(def("net.join_ms", "ms", "lower"));
    v.push(def("net.idle_iters_per_ktask", "1/ktask", "lower"));
    v.push(def("net.gen_lateness_p99_us", "us", "lower"));
    v.push(def("setup.gen_ms", "ms", "lower"));
    v.push(def("setup.oracle_ms", "ms", "lower"));
    v.push(def("verify_ms", "ms", "lower"));
    v
}

/// `true` when `name` is made only of `[A-Za-z0-9_.-]` and is non-empty.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// Median of `v` (mean of the middle two for even lengths); 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank quantile `q` of an ascending slice; 0 when empty.
pub fn quantile_sorted(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Metric values collected by one run, checked against a catalogue.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<String, f64>,
}

impl Metrics {
    /// Records `value` for `name` (last write wins).
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.values.insert(name.into(), value);
    }

    /// The recorded value of `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Catalogue names with no recorded value, or with a non-finite one.
    pub fn missing(&self, catalogue: &[MetricDef]) -> Vec<String> {
        catalogue
            .iter()
            .filter(|d| !self.get(&d.name).is_some_and(f64::is_finite))
            .map(|d| d.name.clone())
            .collect()
    }

    /// The result line: `correct`, `attempted`, `failed`, and every
    /// catalogue metric with its unit, in catalogue order.
    pub fn result_line(
        &self,
        catalogue: &[MetricDef],
        correct: bool,
        attempted: u64,
        failed: u64,
    ) -> String {
        let body: Vec<String> = catalogue
            .iter()
            .map(|d| {
                let v = self.get(&d.name).unwrap_or(f64::NAN);
                let v = if v.is_finite() { v } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                    d.name, d.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            body.join(", ")
        )
    }
}
