//! # massf-partition
//!
//! Graph partitioning for the `massf-rs` reproduction of *Realistic
//! Large-Scale Online Network Simulation* (Liu & Chien, SC 2004).
//!
//! The paper maps virtual network nodes onto simulation-engine nodes by
//! partitioning a weighted graph with METIS. This crate reimplements that
//! substrate from scratch:
//!
//! * [`WeightedGraph`] — a compact CSR graph with vertex and edge weights.
//! * [`metis_kway`] — a multilevel k-way partitioner in the METIS family:
//!   heavy-edge-matching coarsening, greedy-graph-growing initial
//!   partitioning, and KL/FM boundary refinement projected back through
//!   the levels.
//! * [`baselines`] — the comparison partitioners from the paper's related
//!   work: random assignment and the ModelNet greedy k-cluster algorithm.
//! * [`rebalance`](mod@rebalance) — RNG-free incremental re-partitioning: bounded
//!   Kurve-style local moves that perturb an existing assignment against
//!   a combined load²+cut cost, for online load balancing mid-run.
//! * [`UnionFind`] — used here for connectivity and exported for the
//!   latency-threshold clustering of the hierarchical (HPROF) mapper.
//!
//! All partitioners are deterministic given their seed; [`metis_kway`]
//! and the mappers use [`SEED`]. Of the multilevel partitioner's
//! settings only the refinement passes ([`KwayConfig`]) vary: the
//! balance tolerance ([`BALANCE_TOLERANCE`], which [`refine`](mod@refine)
//! reads too), the coarsening size factor ([`SIZE_FACTOR`]) and the
//! initial tries ([`INITIAL_TRIES`]) are constants.

#![forbid(unsafe_code)]
// Each float site says why its order is fixed (DESIGN.md §3 item 15);
// each `expect` names its invariant.
#![cfg_attr(not(test), deny(clippy::float_arithmetic))]
#![cfg_attr(not(test), deny(clippy::expect_used))]

pub mod baselines;
pub mod coarsen;
pub mod graph;
pub mod initial;
pub mod kway;
pub mod partition;
pub mod rebalance;
pub mod refine;
pub mod unionfind;

pub use baselines::{greedy_kcluster, random_partition};
pub use graph::WeightedGraph;
pub use kway::{metis_kway, KwayConfig, BALANCE_TOLERANCE, INITIAL_TRIES, SEED, SIZE_FACTOR};
pub use partition::Partition;
pub use rebalance::{apply_moves, rebalance, Move, RebalanceParams};
pub use unionfind::UnionFind;
