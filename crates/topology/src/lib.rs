//! # massf-topology
//!
//! Network topology model and generators for the `massf-rs` reproduction of
//! *Realistic Large-Scale Online Network Simulation* (Liu & Chien, SC 2004).
//!
//! This crate provides:
//!
//! * A typed network graph ([`Network`]) of routers, hosts, and links with
//!   geographic placement, link bandwidth, and propagation latency.
//! * A BRITE-style degree-based power-law generator ([`brite`]) for large
//!   flat (single-AS) router topologies spread over a geographic area,
//!   following the paper's Section 4.2 setup (20,000 routers over a
//!   5000 mile × 5000 mile area).
//! * The *maBrite* multi-AS generator ([`mabrite`]) of Section 5.1.2:
//!   a power-law AS-level graph, AS classification into Core / Regional
//!   ISP / Stub, provider–customer and peer–peer relationship assignment,
//!   and per-AS router topologies with border routers.
//! * [`counters!`], which declares each set of run counters once and
//!   derives its merge and its walk by name ([`mod@counters`]).
//!
//! Latencies are derived from planar distance at the speed of light in
//! fiber, so that dense metro clusters produce the small link latencies
//! whose interaction with synchronization cost motivates the paper's
//! hierarchical partitioning (HPROF).

#![forbid(unsafe_code)]
// Each `expect` names its invariant (DESIGN.md §3 item 15).
#![cfg_attr(not(test), deny(clippy::expect_used))]

pub mod ashier;
pub mod brite;
pub mod config;
pub mod counters;
pub mod error;
pub mod geom;
pub mod graph;
pub mod mabrite;
mod sampler;

pub use ashier::{AsClass, AsGraph, AsRelationship};
pub use brite::generate_flat_network;
pub use config::{FlatTopologyConfig, MultiAsTopologyConfig};
pub use counters::{Counter, Counters};
pub use error::MassfError;
pub use geom::{propagation_delay_ms, Point};
pub use graph::{AsId, Link, LinkId, Network, Node, NodeId, NodeKind};
pub use mabrite::generate_multi_as_network;
