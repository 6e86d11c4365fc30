//! Cross-matrix oracle coverage: every workload must match its sequential
//! oracle on every structure at 1 and 4 places, threaded, lockstep and
//! streamed.
//!
//! This is the contract that keeps example-derived workloads from rotting:
//! SSSP against Dijkstra, Cholesky against the dense sequential
//! factorization, knapsack against the exact DP optimum, bi-objective SSSP
//! against the exhaustive Pareto fronts. A relaxed structure that violates
//! its ρ bound (or a scheduler that drops/duplicates tasks) produces wrong
//! *answers* here, not just slow runs.

use priosched_core::{PoolKind, PoolParams};
use priosched_workloads::{
    run_workload_lockstep, BfsWorkload, CholeskyWorkload, DynWorkload, KnapsackWorkload,
    MoSsspWorkload, MstWorkload, SsspWorkload, Workload,
};

fn matrix(workload: &dyn DynWorkload, params: PoolParams) {
    for kind in PoolKind::ALL {
        for places in [1usize, 4] {
            let report = workload.run(kind, places, params);
            report.expect_verified();
            assert_eq!(report.places, places);
            assert_eq!(report.kind, kind);
            assert!(
                report.executed > 0,
                "{} on {kind}: nothing executed",
                workload.name()
            );
        }
    }
}

#[test]
fn sssp_matches_dijkstra_across_matrix() {
    let w = SsspWorkload::random(150, 0.08, 44);
    matrix(&w, PoolParams::with_k(32));
}

#[test]
fn cholesky_matches_dense_factorization_across_matrix() {
    let w = CholeskyWorkload::random(4, 8, 0xFEED_FACE);
    matrix(&w, PoolParams::with_k(16));
}

#[test]
fn knapsack_matches_dp_optimum_across_matrix() {
    let w = KnapsackWorkload::random(26, 2_500, 0x1234_5678_9ABC_DEF0);
    matrix(&w, PoolParams::with_k(64));
}

#[test]
fn mo_sssp_matches_exhaustive_fronts_across_matrix() {
    let w = MoSsspWorkload::random(45, 0.1, 99);
    matrix(&w, PoolParams::with_k(8));
}

#[test]
fn bfs_matches_sequential_bfs_across_matrix() {
    let w = BfsWorkload::random(160, 0.06, 77);
    matrix(&w, PoolParams::with_k(32));
}

#[test]
fn mst_matches_kruskal_across_matrix() {
    let w = MstWorkload::random(150, 0.05, 23);
    matrix(&w, PoolParams::with_k(32));
}

fn lockstep_matrix<W: Workload>(workload: &W, params: PoolParams) {
    for kind in PoolKind::ALL {
        for places in [1usize, 4] {
            let report = run_workload_lockstep(workload, kind, places, params);
            report.expect_verified();
            assert!(
                report.executed > 0,
                "{} lockstep on {kind}: nothing executed",
                workload.name()
            );
        }
    }
}

/// The lockstep acceptance matrix: every workload of the threaded matrix
/// above, on the same instance, driven by one thread that interleaves the
/// places task by task (`Scheduler::run_lockstep`, the source of the
/// figures' "nodes relaxed"), must match its sequential oracle on all five
/// structures at 1 and 4 places.
#[test]
fn lockstep_matches_oracles_across_matrix() {
    lockstep_matrix(&SsspWorkload::random(150, 0.08, 44), PoolParams::with_k(32));
    lockstep_matrix(
        &CholeskyWorkload::random(4, 8, 0xFEED_FACE),
        PoolParams::with_k(16),
    );
    lockstep_matrix(
        &KnapsackWorkload::random(26, 2_500, 0x1234_5678_9ABC_DEF0),
        PoolParams::with_k(64),
    );
    lockstep_matrix(&MoSsspWorkload::random(45, 0.1, 99), PoolParams::with_k(8));
    lockstep_matrix(&BfsWorkload::random(160, 0.06, 77), PoolParams::with_k(32));
    lockstep_matrix(&MstWorkload::random(150, 0.05, 23), PoolParams::with_k(32));
}

/// The streamed acceptance matrix: every workload, driven through
/// `run_workload_streamed` with 4 producer threads feeding sharded
/// ingestion lanes at 4 places, must match its sequential oracle on all
/// five structures. This is the committed guarantee that the open-world
/// path (lanes → pop-boundary drain → element-wise k/ρ charging →
/// quiescence termination) cannot be told apart from preseeding by any
/// oracle.
#[test]
fn streamed_ingestion_matches_oracles_across_matrix() {
    let workloads: Vec<Box<dyn DynWorkload>> = vec![
        Box::new(SsspWorkload::random(130, 0.08, 44)),
        // Wide frontier: hundreds of seeds shard across all 4 producers.
        Box::new(BfsWorkload::random_multi(140, 0.06, 77, 32)),
        Box::new(CholeskyWorkload::random(4, 8, 0xFEED_FACE)),
        Box::new(KnapsackWorkload::random(24, 2_200, 0x1234_5678_9ABC_DEF0)),
        Box::new(MoSsspWorkload::random(40, 0.1, 99)),
        // Wide seed stream too: one component-advance task per vertex.
        Box::new(MstWorkload::random(120, 0.06, 23)),
    ];
    let (places, producers, chunk) = (4usize, 4usize, 8usize);
    for workload in &workloads {
        for kind in PoolKind::ALL {
            let report =
                workload.run_streamed(kind, places, PoolParams::with_k(32), producers, chunk);
            report.expect_verified();
            assert!(
                report.executed > 0,
                "{} streamed on {kind}: nothing executed",
                workload.name()
            );
        }
    }
}

/// The backpressured acceptance matrix: the same streamed sweep with a
/// deliberately tiny `lane_capacity` (4), so producers hit `Full` lanes
/// constantly and ride the blocking park/wake path. Bounded buffering at
/// the producer/consumer boundary must be invisible to every oracle —
/// backpressure changes *when* tasks enter, never *what* is computed.
#[test]
fn streamed_ingestion_with_lane_capacity_matches_oracles_across_matrix() {
    let workloads: Vec<Box<dyn DynWorkload>> = vec![
        Box::new(SsspWorkload::random(130, 0.08, 44)),
        Box::new(BfsWorkload::random_multi(140, 0.06, 77, 32)),
        Box::new(CholeskyWorkload::random(4, 8, 0xFEED_FACE)),
        Box::new(KnapsackWorkload::random(24, 2_200, 0x1234_5678_9ABC_DEF0)),
        Box::new(MoSsspWorkload::random(40, 0.1, 99)),
        Box::new(MstWorkload::random(120, 0.06, 23)),
    ];
    let (places, producers, chunk) = (4usize, 4usize, 8usize);
    let params = PoolParams::with_k(32).with_lane_capacity(Some(4));
    for workload in &workloads {
        for kind in PoolKind::ALL {
            let report = workload.run_streamed(kind, places, params, producers, chunk);
            report.expect_verified();
            assert!(
                report.executed > 0,
                "{} backpressured on {kind}: nothing executed",
                workload.name()
            );
        }
    }
}

/// Strict ordering (k = 1) and heavy relaxation (k = 4096) both stay
/// correct — the knob trades work for synchronization, never correctness.
#[test]
fn k_extremes_stay_correct_on_hybrid_and_structural() {
    let sssp = SsspWorkload::random(100, 0.1, 7);
    let knap = KnapsackWorkload::random(22, 2_000, 3);
    for k in [1usize, 4096] {
        for kind in [PoolKind::Hybrid, PoolKind::Structural] {
            sssp.run(kind, 2, PoolParams::with_k(k)).expect_verified();
            knap.run(kind, 2, PoolParams::with_k(k)).expect_verified();
        }
    }
}
