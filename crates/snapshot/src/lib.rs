//! # massf-snapshot — deterministic checkpoint/restore and branching
//!
//! Serializes the complete deterministic state of a running simulation
//! — the engine's pending-event frontier, the netsim world (TCP
//! senders/receivers, per-link transmit horizons, flow counters, route
//! table), and cumulative statistics — into a versioned, per-section
//! checksummed container written atomically (temp + fsync + rename).
//!
//! Three guarantees, each enforced by tests:
//!
//! 1. **Bit-identity.** Restoring a checkpoint and running on — on
//!    either executor, at any thread count, through serialized bytes —
//!    reproduces the straight-through run exactly: same event counts,
//!    same per-LP attribution, same traffic profile.
//! 2. **Hostility tolerance.** Snapshot files are untrusted input.
//!    Truncation, bit flips, version skew, and semantically hostile
//!    payloads (non-adjacent paths, unissued flow counters, NaN
//!    congestion windows…) are rejected with structured
//!    [`massf_topology::MassfError`] variants naming the failing
//!    section; nothing in the load path panics or over-allocates.
//! 3. **Cheap what-ifs.** [`Session::branch`] forks divergent
//!    continuations off one shared prefix, making N what-if runs cost
//!    `O(prefix + N·suffix)` instead of `O(N·(prefix+suffix))`.
//!
//! [`Session::run_until`] and [`Session::run_rebalancing`] share one
//! segment loop; the second cuts its call at the epoch boundaries where
//! the online rebalancer ([`rebalance`]) may migrate LPs.
//!
//! Crash recovery ([`recover_latest`]) resumes from the newest valid
//! checkpoint in a directory, skipping damaged files with recorded
//! reasons.

#![forbid(unsafe_code)]
// Each float site says why its order is fixed (DESIGN.md §3 item 15);
// each `expect` names its invariant.
#![cfg_attr(not(test), deny(clippy::float_arithmetic))]
#![cfg_attr(not(test), deny(clippy::expect_used))]

pub mod checkpoint;
mod codec;
pub mod format;
pub mod rebalance;
pub mod recovery;
pub mod wire;

pub use checkpoint::{scenario_fingerprint, ExecMode, Session};
pub use format::{
    decode_container, encode_container, read_file, write_atomic, Section, FORMAT_VERSION, MAGIC,
};
pub use rebalance::{
    rebalancing_fingerprint, RebalanceOutcome, RebalancePolicy, RebalanceSessionState,
};
pub use recovery::{recover_latest, RecoveryReport};
