//! Cross-crate integration: parallel SSSP over every data structure must
//! reproduce sequential Dijkstra exactly, across a grid of (structure, P, k)
//! configurations and graph families — the correctness backbone behind
//! Figures 4 and 5.

use priosched::core::{PoolKind, PoolParams};
use priosched::graph::{bellman_ford, dijkstra, erdos_renyi, CsrGraph, ErdosRenyiConfig};
use priosched::sim::{simulate_sssp, SimConfig};
use priosched::workloads::{run_workload, run_workload_lockstep, SsspWorkload};

/// `k` with the centralized window capped at 64.
fn with_kmax_64(k: usize) -> PoolParams {
    PoolParams {
        kmax: 64,
        ..PoolParams::with_k(k)
    }
}

#[test]
fn grid_of_structures_places_and_k() {
    let w = SsspWorkload::random(180, 0.08, 501);
    for kind in PoolKind::ALL {
        for places in [1usize, 2, 4] {
            for k in [1usize, 16, 512] {
                run_workload(&w, kind, places, PoolParams::with_k(k)).expect_verified();
            }
        }
    }
}

/// Both drivers reproduce Dijkstra's distances (each run is verified
/// against the workload's oracle), so they agree with each other.
#[test]
fn lockstep_and_threaded_agree_with_each_other() {
    let w = SsspWorkload::random(150, 0.1, 502);
    for kind in PoolKind::PAPER {
        let params = PoolParams::with_k(64);
        run_workload(&w, kind, 4, params).expect_verified();
        run_workload_lockstep(&w, kind, 4, params).expect_verified();
    }
}

#[test]
fn three_independent_solvers_agree() {
    // Dijkstra (pq-based), Bellman–Ford (sweep-based), the parallel
    // scheduler (hybrid), and the phase simulator all compute the same
    // distances on the same graph.
    let g = erdos_renyi(&ErdosRenyiConfig {
        n: 140,
        p: 0.09,
        seed: 503,
    });
    let a = dijkstra(&g, 3).dist;
    let b = bellman_ford(&g, 3);
    let d = simulate_sssp(
        &g,
        3,
        &SimConfig {
            p: 8,
            rho: 64,
            seed: 1,
        },
    )
    .dist;
    assert_eq!(a, b);
    assert_eq!(a, d);
    // The parallel run is verified against its Dijkstra oracle, i.e. `a`.
    let w = SsspWorkload::new(g, 3);
    assert_eq!(w.oracle(), &a[..]);
    run_workload(&w, PoolKind::Hybrid, 3, PoolParams::with_k(32)).expect_verified();
}

#[test]
fn sparse_and_dense_graph_families() {
    for (n, p, seed) in [(300usize, 0.03f64, 504u64), (80, 0.6, 505), (40, 1.0, 506)] {
        let w = SsspWorkload::random(n, p, seed);
        for kind in PoolKind::PAPER {
            let report = run_workload(&w, kind, 2, with_kmax_64(8));
            assert!(report.verified(), "{kind} n={n} p={p}: {:?}", report.verify);
        }
    }
}

#[test]
fn pathological_graphs() {
    // Long path: maximal dependency depth.
    let path: Vec<(u32, u32, f32)> = (0..199).map(|i| (i, i + 1, 0.5)).collect();
    // Star: maximal fanout from the source.
    let star: Vec<(u32, u32, f32)> = (1..200).map(|i| (0, i, 1.0 / i as f32)).collect();
    for (name, n, edges) in [("path", 200usize, path), ("star", 200, star)] {
        let w = SsspWorkload::new(CsrGraph::from_undirected_edges(n, &edges), 0);
        for kind in PoolKind::PAPER {
            let report = run_workload(&w, kind, 3, with_kmax_64(4));
            assert!(report.verified(), "{kind} on {name}: {:?}", report.verify);
        }
    }
}

#[test]
fn useless_work_ordering_between_structures_holds_deterministically() {
    // The paper's headline (Fig. 4 right): work-stealing performs the most
    // useless work; the k-structures bound it. Deterministic via lockstep.
    let w = SsspWorkload::random(400, 0.5, 507);
    let relaxed = |kind| {
        let report = run_workload_lockstep(&w, kind, 32, PoolParams::with_k(64));
        report.expect_verified();
        report.metric("relaxed").expect("sssp reports relaxed")
    };
    let ws = relaxed(PoolKind::WorkStealing);
    let ce = relaxed(PoolKind::Centralized);
    let hy = relaxed(PoolKind::Hybrid);
    assert!(ws > ce, "ws={ws} centralized={ce}");
    assert!(ws > hy, "ws={ws} hybrid={hy}");
}

#[test]
fn simulator_total_relaxations_bounded_by_phases() {
    let g = erdos_renyi(&ErdosRenyiConfig {
        n: 250,
        p: 0.06,
        seed: 508,
    });
    let res = simulate_sssp(
        &g,
        0,
        &SimConfig {
            p: 10,
            rho: 32,
            seed: 2,
        },
    );
    assert!(
        res.total_relaxed >= 250 - 5,
        "most nodes relaxed at least once"
    );
    assert!(res.total_relaxed <= 10 * res.phases.len());
    assert_eq!(
        res.total_useless,
        res.phases
            .iter()
            .map(|ph| ph.relaxed - ph.settled)
            .sum::<usize>()
    );
}
