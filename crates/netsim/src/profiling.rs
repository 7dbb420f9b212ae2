//! Traffic profiling: the dynamic information behind the paper's PROF
//! and HPROF mappers.
//!
//! "Typically profiling involves an initial simulation experiment using
//! a naive initial partition and traffic monitoring. The simulation
//! yields detailed traffic information, and improves subsequent network
//! partitions." (Section 3.3). [`ProfileData`] is that information:
//! per-node kernel-event counts (vertex weights) and per-link packet
//! counts (edge weights).

use crate::fluid::FluidStats;
use massf_topology::Counters;

massf_topology::counters! {
    /// Traffic counters from one simulation run (or one partition's shard;
    /// merge shards with [`ProfileData::merge`]).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct ProfileData {
        /// Packets handled per node (≈ kernel events; the paper's load
        /// measure).
        pub node_packets: Vec<u64>,
        /// Packets carried per link (both directions summed).
        pub link_packets: Vec<u64>,
        /// Packets lost to drop-tail queues.
        pub drops: u64,
        /// TCP flows that ran to completion.
        pub completed_flows: u64,
        /// Data segments of completed flows.
        pub completed_segments: u64,
        /// Flow/datagram requests whose destination was unreachable (BGP
        /// policy) or identical to the source.
        pub unroutable: u64,
        /// Packets lost to injected faults: dropped at a dead link or dead
        /// node (at transmit or on arrival), as opposed to queue `drops`.
        pub fault_drops: u64,
        /// TCP flows that gave up after exhausting their retry budget.
        pub aborted_flows: u64,
        /// Scripted fault events handled (link/router/adjacency state flips).
        pub fault_events: u64,
        /// Lookups of the world's route table (`crate::routes`), answered
        /// or resolved. Deterministic (a source's routes are looked up only
        /// from its own LP), so these counters participate in the
        /// bit-identity equality checks like any other.
        pub route_cache: RouteCacheStats,
        /// Fluid background-traffic counters (see `crate::fluid`). All
        /// owned by the coordinator LP except `packet_load_updates`'
        /// emission side, so the merge is a plain sum.
        pub fluid: FluidStats,
    }
}

massf_topology::counters! {
    /// Route-table lookup counters. Deterministic for a fixed query
    /// sequence; merged across partitions like any other profile counter.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct RouteCacheStats {
        /// Lookups answered by a route interned earlier in the same epoch.
        pub hits: u64,
        /// Lookups that went to the resolver.
        pub misses: u64,
        /// Always 0: the route table evicts nothing. Kept because the
        /// benchmark harness reads it.
        pub evictions: u64,
    }
}

impl RouteCacheStats {
    /// Hits / (hits + misses), or 0 when nothing was looked up.
    #[expect(
        clippy::float_arithmetic,
        reason = "a reported ratio of two integer counters; it feeds no run"
    )]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

impl ProfileData {
    /// Zeroed counters for a network of the given size.
    pub fn new(nodes: usize, links: usize) -> Self {
        ProfileData {
            node_packets: vec![0; nodes],
            link_packets: vec![0; links],
            ..Counters::zeroed()
        }
    }

    /// Total packets handled across all nodes.
    pub fn total_node_packets(&self) -> u64 {
        self.node_packets.iter().sum()
    }

    /// Total packets carried across all links.
    pub fn total_link_packets(&self) -> u64 {
        self.link_packets.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use massf_topology::Counter;

    /// Gives every counter of `set` a distinct value through the walk,
    /// merges a copy in, and reads every counter back doubled.
    fn merged_with_itself<T: Counters + Clone>(mut set: T) -> T {
        let mut next = 0;
        let mut fill = |n: &mut u64| {
            next += 1;
            *n = next;
        };
        set.walk_mut(&mut |counter| {
            match counter {
                Counter::Count(n) => fill(n),
                Counter::PerItem(items) => items.iter_mut().for_each(&mut fill),
            }
            Ok::<(), ()>(())
        })
        .expect("filling cannot fail");
        let walk = |set: &T| {
            let mut out = Vec::new();
            set.walk("", &mut |name, counter| {
                let values = match counter {
                    Counter::Count(n) => vec![n],
                    Counter::PerItem(items) => items.to_vec(),
                };
                out.push((name.to_owned(), values));
            });
            out
        };
        let before = walk(&set);
        assert_eq!(before.len(), T::LEAVES);
        let values: Vec<u64> = before.iter().flat_map(|(_, v)| v.clone()).collect();
        assert_eq!(values, (1..=values.len() as u64).collect::<Vec<_>>());
        let mut merged = set.clone();
        merged.merge(&set);
        let doubled: Vec<_> = before
            .into_iter()
            .map(|(name, v)| (name, v.into_iter().map(|n| 2 * n).collect::<Vec<_>>()))
            .collect();
        assert_eq!(walk(&merged), doubled);
        merged
    }

    #[test]
    fn merge_sums_everything() {
        let profile = merged_with_itself(ProfileData::new(2, 1));
        assert_eq!(profile.total_node_packets(), 2 * (1 + 2));
        assert_eq!(profile.total_link_packets(), 2 * 3);
        assert_eq!(profile.fluid.packet_load_updates, 2 * 23);
        merged_with_itself(RouteCacheStats::default());
        merged_with_itself(FluidStats::default());
        merged_with_itself(massf_routing::SptStats::default());
        merged_with_itself(massf_engine::RebalanceCounters::default());
    }

    #[test]
    #[should_panic]
    fn merge_size_mismatch_panics() {
        let mut a = ProfileData::new(2, 1);
        let b = ProfileData::new(3, 1);
        a.merge(&b);
    }
}
