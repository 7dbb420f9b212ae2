//! # massf-engine
//!
//! A conservative parallel discrete-event simulation (PDES) kernel in the
//! DaSSF family, for the `massf-rs` reproduction of *Realistic Large-Scale
//! Online Network Simulation* (Liu & Chien, SC 2004).
//!
//! The MaSSF simulator of the paper runs one event-driven engine per
//! cluster node and synchronizes all engines with a global barrier every
//! *minimum link latency* (MLL) of virtual time: any event crossing
//! between engines is guaranteed (by link latency ≥ MLL) to arrive in a
//! later window, so each window executes with no rollbacks. This crate
//! implements that design:
//!
//! * [`SimTime`] — nanosecond-resolution virtual time.
//! * [`Model`] — the event-handling trait implemented by simulation
//!   models; handlers may touch only their target LP's state, which makes
//!   sequential and parallel execution bit-identical.
//! * [`run_sequential`] / [`run_sequential_windowed`] — reference
//!   executor; the windowed variant additionally attributes events to
//!   partitions and windows once per [`Scoring`], producing from one run
//!   every mapping's per-window load traces for the evaluation metrics.
//! * [`try_run_parallel`] — real multi-threaded barrier-windowed
//!   executor (one thread per partition) with lock-free per-pair outbox
//!   exchange and empty-window fast-forward. A lookahead violation is a
//!   structured [`MassfError::LookaheadViolation`] and bad caller input
//!   (zero window, inconsistent assignment) a
//!   [`MassfError::InvalidConfig`], never a panic (both executors check
//!   a window and assignment the same way);
//!   [`try_run_parallel_observed`] wraps every barrier in a
//!   [`BarrierObserver`] for bench-side sync-cost measurement. Windows
//!   are separated by [`WindowBarrier`], a spin-then-park barrier that
//!   a panicking partition breaks instead of deadlocking.
//! * [`run_sequential_resumable`] / [`try_run_parallel_resumable`] —
//!   the same two executors continuing from a [`ResumeState`] frontier
//!   and returning the next one (checkpoints, rebalancing sessions).
//!   These six functions are thin faces of two private loops; a new
//!   run parameter is an argument of a loop, never a new `run_*`.
//! * [`synccost`] — the TeraGrid cluster synchronization-cost model of
//!   the paper's Figure 5, plus a live barrier-cost measurement.
//! * [`rebalance`] — the online re-partitioning decision layer: epoch
//!   geometry, deterministic per-partition load folding, and the
//!   integer-only imbalance trigger that drives mid-run LP migration
//!   (the move search lives in `massf-partition`, the migration
//!   transport in the snapshot session layer).
//!
//! Determinism: every event carries a `(source LP, per-source counter)`
//! tag; each executor thread's event queue pops in `(time, tag)` order.
//! Since handlers only touch target-LP state, the per-LP event
//! sequences — and therefore all model state — are identical under
//! sequential and parallel execution (property-tested in this crate and
//! in the integration suite).

#![forbid(unsafe_code)]
// A silent narrowing cast corrupts state at the million-host scale.
#![cfg_attr(not(test), deny(clippy::cast_possible_truncation))]
// Each float site says why its order is fixed (DESIGN.md §3 item 15);
// each `expect` names its invariant.
#![cfg_attr(not(test), deny(clippy::float_arithmetic))]
#![cfg_attr(not(test), deny(clippy::expect_used))]

pub mod barrier;
pub mod event;
pub mod model;
pub mod par;
mod queue;
pub mod rebalance;
pub mod resume;
pub mod seq;
pub mod stats;
pub mod synccost;
pub mod time;

pub use barrier::{BarrierBroken, WindowBarrier};
pub use event::{external_tag, EventRecord, LpId, EXTERNAL_SOURCE};
pub use massf_topology::MassfError;
pub use model::{seed_events, Emitter, Model};
pub use par::{
    try_run_parallel, try_run_parallel_observed, try_run_parallel_resumable, BarrierObserver,
    NoopBarrierObserver,
};
pub use rebalance::{partition_loads, should_rebalance, RebalanceConfig, RebalanceCounters};
pub use resume::ResumeState;
pub use seq::{run_sequential, run_sequential_resumable, run_sequential_windowed};
pub use stats::{imbalance_permille, ExecutionStats, Scoring, WallMicros, TRACE_BUCKETS};
pub use synccost::SyncCostModel;
pub use time::SimTime;
