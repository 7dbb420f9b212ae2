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

impl RouteCacheStats {
    /// Accumulate another shard's counters. `other` is destructured
    /// without `..`, so a counter missing here does not compile.
    pub fn merge(&mut self, other: &RouteCacheStats) {
        let RouteCacheStats {
            hits,
            misses,
            evictions,
        } = other;
        self.hits += hits;
        self.misses += misses;
        self.evictions += evictions;
    }

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
            drops: 0,
            completed_flows: 0,
            completed_segments: 0,
            unroutable: 0,
            fault_drops: 0,
            aborted_flows: 0,
            fault_events: 0,
            route_cache: RouteCacheStats::default(),
            fluid: FluidStats::default(),
        }
    }

    /// Accumulate another shard's counters. `other` is destructured
    /// without `..`, so a counter missing here does not compile.
    ///
    /// # Panics
    /// Panics when sizes disagree.
    pub fn merge(&mut self, other: &ProfileData) {
        let ProfileData {
            node_packets,
            link_packets,
            drops,
            completed_flows,
            completed_segments,
            unroutable,
            fault_drops,
            aborted_flows,
            fault_events,
            route_cache,
            fluid,
        } = other;
        assert_eq!(self.node_packets.len(), node_packets.len());
        assert_eq!(self.link_packets.len(), link_packets.len());
        for (a, b) in self.node_packets.iter_mut().zip(node_packets) {
            *a += b;
        }
        for (a, b) in self.link_packets.iter_mut().zip(link_packets) {
            *a += b;
        }
        self.drops += drops;
        self.completed_flows += completed_flows;
        self.completed_segments += completed_segments;
        self.unroutable += unroutable;
        self.fault_drops += fault_drops;
        self.aborted_flows += aborted_flows;
        self.fault_events += fault_events;
        self.route_cache.merge(route_cache);
        self.fluid.merge(fluid);
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

    #[test]
    fn merge_sums_everything() {
        let mut a = ProfileData::new(2, 1);
        a.node_packets = vec![1, 2];
        a.link_packets = vec![3];
        a.drops = 1;
        let mut b = ProfileData::new(2, 1);
        b.node_packets = vec![10, 20];
        b.link_packets = vec![30];
        b.completed_flows = 2;
        b.unroutable = 5;
        b.fault_drops = 7;
        b.aborted_flows = 3;
        b.fault_events = 4;
        b.route_cache = RouteCacheStats {
            hits: 8,
            misses: 5,
            evictions: 0,
        };
        a.route_cache.hits = 1;
        a.merge(&b);
        assert_eq!(a.node_packets, vec![11, 22]);
        assert_eq!(a.link_packets, vec![33]);
        assert_eq!(a.drops, 1);
        assert_eq!(a.completed_flows, 2);
        assert_eq!(a.unroutable, 5);
        assert_eq!(a.fault_drops, 7);
        assert_eq!(a.aborted_flows, 3);
        assert_eq!(a.fault_events, 4);
        assert_eq!(
            a.route_cache,
            RouteCacheStats {
                hits: 9,
                misses: 5,
                evictions: 0,
            }
        );
        assert_eq!(a.total_node_packets(), 33);
        assert_eq!(a.total_link_packets(), 33);
    }

    #[test]
    #[should_panic]
    fn merge_size_mismatch_panics() {
        let mut a = ProfileData::new(2, 1);
        let b = ProfileData::new(3, 1);
        a.merge(&b);
    }
}
