//! # massf-faults
//!
//! Deterministic fault injection for the `massf-rs` reproduction of
//! *Realistic Large-Scale Online Network Simulation* (Liu & Chien,
//! SC 2004).
//!
//! The paper's point is *online* simulation: MicroGrid runs live Grid
//! applications over the simulated network, so the simulation must keep
//! producing credible results when the modeled network misbehaves. This
//! crate supplies the failure model:
//!
//! * [`FaultScript`] — a seedable, scripted timeline of fault events
//!   (link down/up, router crash/recover, AS-adjacency fail/restore) at
//!   scheduled [`SimTime`]s.
//! * [`FaultState`] — the script compiled into *epochs*: between two
//!   consecutive fault times the set of dead links/nodes/adjacencies is
//!   constant, so every query (`is_link_up`, `resolver_at`) is a pure
//!   function of virtual time. Purity is what keeps fault-injected runs
//!   bit-identical across thread counts: any partition asking at any
//!   wall-clock moment gets the same answer.
//!
//! Routing reconverges *online* and on demand. Entering an epoch builds
//! (once, behind a `OnceLock`) its link-state view: for flat worlds the
//! OSPF domain with dead links filtered out, for multi-AS worlds the BGP
//! RIB on the reduced AS graph
//! (`MultiAsResolver::with_failed_adjacencies`). Shortest-path trees are
//! paid at first route: an epoch computes a tree when it first routes
//! between two routers neither of whose trees can answer, and keeps it,
//! so a fault costs the trees its traffic uses, never the full table.
//!
//! `massf-netsim` consumes this crate: `SharedNet` carries an optional
//! `Arc<FaultState>`, drops packets that touch a dead link or node, and
//! re-resolves TCP paths on retransmission timeout.

#![forbid(unsafe_code)]

pub mod script;
pub mod state;

pub use massf_engine::SimTime;
pub use massf_topology::MassfError;
pub use script::{FaultEvent, FaultKind, FaultScript};
pub use state::{EpochState, FaultState};
