//! `perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>`
//!
//! Prints the run's tags and every metric by name and unit, then, as the
//! last line, one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! Exits 1 on an oracle mismatch, 2 on a usage error.

use perfbench::report::{end_to_end, per_layer};
use perfbench::run::{parse_args, run, Args};
use std::io::Write;
use std::path::Path;
use std::process::ExitCode;

/// Seed set aside for confirming a claim on inputs it was not tuned on.
const HELD_OUT_SEED: u64 = 7919;

fn commit() -> String {
    // The benchmark may run from an exported tree without git metadata.
    if !Path::new(".git").exists() {
        return "unknown".into();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn write_trace(
    args: &Args,
    tags: &str,
    out: &perfbench::run::Outcome,
) -> std::io::Result<Option<String>> {
    let dir = Path::new("perfbench");
    if !dir.is_dir() {
        return Ok(None);
    }
    let dir = dir.join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("trace-{}-seed{}.jsonl", args.spec.name, args.seed));
    let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
    writeln!(f, "{{\"tags\": \"{tags}\"}}")?;
    for s in &out.spans {
        writeln!(
            f,
            "{{\"span\": {}, \"parent\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
            s.id, s.parent, s.name, s.start_ns, s.end_ns
        )?;
    }
    for (kind, t) in &out.place_traces {
        writeln!(
            f,
            "{{\"kind\": \"{kind}\", \"wall_ns\": {}, \"push_calls\": {}, \"push_ns\": {}, \"pushed\": {}, \
             \"pop_hits\": {}, \"pop_hit_ns\": {}, \"pop_misses\": {}, \"pop_miss_ns\": {}, \
             \"execs\": {}, \"exec_ns\": {}, \"exec_pool_ns\": {}, \"dead_checks\": {}, \"dead_check_ns\": {}, \
             \"pop_hit_p99_ns\": {}, \"push_p99_ns\": {}}}",
            t.wall_ns,
            t.push.count,
            t.push.total_ns,
            t.pushed,
            t.pop_hit.count,
            t.pop_hit.total_ns,
            t.pop_miss.count,
            t.pop_miss.total_ns,
            t.exec.count,
            t.exec.total_ns,
            t.exec_pool_ns,
            t.dead_check.count,
            t.dead_check.total_ns,
            t.pop_hit.quantile_ns(0.99),
            t.push.quantile_ns(0.99),
        )?;
    }
    f.flush()?;
    Ok(Some(path.display().to_string()))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <sparse|dense> --seed <n> --seconds <n> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let tags = format!(
        "perfbench workload={} seed={} seconds={} trace={} nproc={nproc} commit={} places={} k={} held_out_seed={HELD_OUT_SEED}",
        args.spec.name,
        args.seed,
        args.seconds,
        args.trace as u8,
        commit(),
        perfbench::PLACES,
        perfbench::K,
    );
    println!("# {tags}");
    let out = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    let catalogue = if args.trace {
        per_layer()
    } else {
        end_to_end()
    };
    for d in &catalogue {
        let v = out.metrics.get(&d.name).unwrap_or(f64::NAN);
        println!(
            "{:<40} {v:>16.4} {} ({} is better)",
            d.name, d.unit, d.better
        );
    }
    println!(
        "{:<40} {:>16.6} ratio ({} failed of {} attempted)",
        "error_rate",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    );
    for e in &out.errors {
        println!("# error: {e}");
    }
    if args.trace {
        match write_trace(&args, &tags, &out) {
            Ok(Some(path)) => println!("# trace written to {path}"),
            Ok(None) => println!("# trace not written: no perfbench/ directory here"),
            Err(e) => println!("# trace not written: {e}"),
        }
    }
    let missing = out.metrics.missing(&catalogue);
    for name in &missing {
        println!("# error: metric {name} was not measured");
    }
    let correct = out.mismatches == 0 && missing.is_empty();
    println!(
        "{}",
        out.metrics
            .result_line(&catalogue, correct, out.attempted, out.failed)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
