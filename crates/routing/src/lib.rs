//! # massf-routing
//!
//! Realistic routing for the `massf-rs` reproduction of *Realistic
//! Large-Scale Online Network Simulation* (Liu & Chien, SC 2004).
//!
//! The paper stresses that "connectivity does not equal reachability" in
//! multi-AS networks: inter-domain paths are governed by BGP4 policy
//! routing, not shortest paths. This crate supplies both routing layers:
//!
//! * [`ospf`] — intra-AS shortest-path routing (link-state SPF via
//!   Dijkstra), with an SPT cache so that large domains never need full
//!   O(N²) forwarding tables.
//! * [`bgp`] — an AS-level BGP4 path-vector protocol with the full
//!   decision process (local preference, AS-path length, tie-breaks) and
//!   policy-controlled import/export.
//! * [`policy`] — the automatic routing-policy configuration of the
//!   paper's Section 5.1.2 (steps 4–5): local preference by business
//!   relationship (customer > peer > provider) and valley-free export
//!   filters.
//! * [`resolver`] — end-to-end path resolution used by the packet
//!   simulator: [`FlatResolver`] for single-AS OSPF networks,
//!   [`MultiAsResolver`] for BGP+OSPF networks with default routing in
//!   stub ASes (step 6 of the procedure).
//! * [`cache`] — a deterministic, bounded, fault-epoch-aware memo of
//!   resolved paths sitting in front of any resolver (NIx-vector style
//!   route memoization; DESIGN.md §3 item 11).

#![forbid(unsafe_code)]
// A silent narrowing cast corrupts state at the million-host scale.
#![cfg_attr(not(test), deny(clippy::cast_possible_truncation))]

pub mod bgp;
pub mod cache;
pub mod dynamics;
pub mod ospf;
pub mod policy;
pub mod resolver;

pub use bgp::{BgpRib, BgpRoute};
pub use cache::{
    CachedRoute, RouteCache, RouteCacheEntryState, RouteCacheShardState, RouteCacheState,
    RouteCacheStats,
};
pub use dynamics::{beacon_schedule, BeaconSim, Convergence};
pub use massf_topology::MassfError;
pub use ospf::{CostMetric, OspfDomain, SptStats};
pub use policy::{
    export_allowed, local_preference, LOCAL_PREF_CUSTOMER, LOCAL_PREF_PEER, LOCAL_PREF_PROVIDER,
};
pub use resolver::{FlatResolver, MultiAsResolver, PathResolver};
