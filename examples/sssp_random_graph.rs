//! The paper's evaluation workload end-to-end (§5): parallel SSSP on an
//! Erdős–Rényi random graph, comparing all three data structures against
//! sequential Dijkstra — correctness *and* useless work.
//!
//! Run with: `cargo run --release --example sssp_random_graph [n] [p]`

use priosched::core::{PoolKind, PoolParams};
use priosched::graph::{dijkstra, erdos_renyi, ErdosRenyiConfig};
use priosched::workloads::{run_workload, run_workload_lockstep, SsspWorkload};

fn main() {
    let mut args = std::env::args().skip(1);
    let n: usize = args.next().map(|a| a.parse().unwrap()).unwrap_or(1500);
    let p: f64 = args.next().map(|a| a.parse().unwrap()).unwrap_or(0.5);
    let places = 8;
    let params = PoolParams::with_k(512);

    println!("generating G(n = {n}, p = {p}) with U(0,1] weights …");
    let graph = erdos_renyi(&ErdosRenyiConfig { n, p, seed: 42 });
    println!(
        "{} nodes, {} edges ({:.1} MiB CSR), connected: {}\n",
        graph.num_nodes(),
        graph.num_edges(),
        graph.memory_bytes() as f64 / (1024.0 * 1024.0),
        graph.is_connected()
    );

    let t0 = std::time::Instant::now();
    let seq = dijkstra(&graph, 0);
    let seq_time = t0.elapsed();
    let reachable = seq.dist.iter().filter(|d| d.is_finite()).count();
    println!(
        "{:<14} {:>10.2?}  relaxed {:>7}  (every reachable node exactly once)",
        "Sequential", seq_time, seq.relaxations
    );

    let workload = SsspWorkload::new(graph, 0);
    for kind in PoolKind::PAPER {
        // Threaded run: correctness + wall time on this host.
        let res = run_workload(&workload, kind, places, params);
        res.expect_verified();
        // Lockstep run: deterministic interleaving, the useless-work signal.
        let ordered = run_workload_lockstep(&workload, kind, places, params);
        ordered.expect_verified();
        let relaxed = ordered.metric("relaxed").unwrap_or(0.0) as i64;
        let dead = ordered.dead + ordered.metric("late_dead").unwrap_or(0.0) as u64;
        println!(
            "{:<14} {:>10.2?}  relaxed {:>7}  (+{} useless under {places}-way interleaving, dead {dead})",
            kind.label(),
            res.elapsed,
            relaxed,
            relaxed - reachable as i64,
        );
    }

    println!("\nAll parallel runs produced bit-identical distances to Dijkstra.");
    println!("Work-stealing pays for its missing global order in useless work;");
    println!("the k-priority structures bound it (ρ = k and ρ = P·k).");
}
