#![warn(missing_docs)]

//! Parallel single-source shortest paths on the priosched scheduler.
//!
//! The paper's evaluation application (§5.1, Listing 5): a simple
//! parallelization of Dijkstra's algorithm where **each node relaxation is a
//! task**, prioritized by the node's tentative distance ("priority, smaller
//! is better"). Instead of decrease-key, improved nodes are *reinserted*
//! with their new distance; superseded instances become **dead tasks**,
//! recognized lazily and skipped (§5.1).
//!
//! The parallelization departs from Dijkstra in one way only: nodes may be
//! relaxed before they are settled, producing *useless work* (the node must
//! be relaxed again later). The amount of useless work is exactly what the
//! choice of scheduling data structure controls, and what Figures 4–5
//! measure as "nodes relaxed" beyond the graph's `n`.
//!
//! Entry points: this crate holds the task ([`SsspTask`]), Listing 5's
//! executor ([`SsspExecutor`]) and the distance array
//! ([`AtomicDistances`]). Runs go through `priosched-workloads`:
//! `SsspWorkload` with `run_workload` (threaded, timed) or
//! `run_workload_lockstep` (deterministic interleaving, the figures'
//! "nodes relaxed"), both verified against Dijkstra.

pub mod distances;
pub mod executor;

pub use distances::AtomicDistances;
pub use executor::{SsspExecutor, SsspTask};
