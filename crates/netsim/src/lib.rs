//! # massf-netsim
//!
//! Packet-level network simulation for the `massf-rs` reproduction of
//! *Realistic Large-Scale Online Network Simulation* (Liu & Chien,
//! SC 2004) — the MaSSF network-modeling layer.
//!
//! Every router and host of a [`massf_topology::Network`] is one logical
//! process of the [`massf_engine`] kernel. Links are modeled as
//! bandwidth-limited FIFO servers with propagation delay and drop-tail
//! buffers; packets traverse them hop by hop, so queueing and loss
//! behavior is per-hop faithful. Transport is a TCP with slow start,
//! AIMD congestion avoidance, fast retransmit, and RTO timers ([`tcp`]),
//! plus plain UDP datagrams.
//!
//! Application traffic enters through the [`world::AppLogic`] trait —
//! the stand-in for MaSSF's WrapSocket/Agent live-traffic machinery
//! ([`agent`] provides the scripted-injection agent) — and through it
//! the `massf-workloads` crate drives HTTP background traffic and the
//! Grid application models.
//!
//! Per-node and per-link packet counters ([`profiling`]) provide the
//! traffic profiles consumed by the paper's PROF/HPROF mappers.

#![forbid(unsafe_code)]
// Each float site says why its order is fixed (DESIGN.md §3 item 15);
// each `expect` names its invariant.
#![cfg_attr(not(test), deny(clippy::float_arithmetic))]
#![cfg_attr(not(test), deny(clippy::expect_used))]

pub mod agent;
pub mod builder;
pub mod fluid;
pub mod packet;
pub mod profiling;
mod routes;
pub mod tcp;
pub mod world;

pub use agent::Agent;
pub use builder::{NetSimBuilder, SimOutput};
pub use fluid::{
    FluidCoupling, FluidFlow, FluidStats, FluidWorldState, FLUID_CONTROL_DELAY, FLUID_COORDINATOR,
    FLUID_EST_WINDOW,
};
pub use massf_faults::{FaultEvent, FaultKind, FaultScript, FaultState};
pub use packet::{FlowId, Hop, NetEvent, Packet, PacketKind};
pub use profiling::{ProfileData, RouteCacheStats};
pub use routes::RouteEntry;
pub use tcp::{AbortReason, TcpReceiver, TcpSender, MAX_RETRIES};
pub use world::{
    validate_net_event, AppLogic, FlowCold, FlowEntryState, NetWorld, NoApp, ReceiverEntryState,
    SharedNet, SimApi, WorldState, DEFAULT_ROUTE_CACHE_CAPACITY,
};
