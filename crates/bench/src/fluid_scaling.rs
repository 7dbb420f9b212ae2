//! The fluid-scaling workload (`fluid_scaling`, BENCH_fluid.json):
//! `groups` disconnected host pairs, one bottleneck link each, with
//! `flows_per_group` fluid flows started on every pair, staggered over
//! the first 100 ms.

use massf_engine::SimTime;
use massf_netsim::packet::segments_for;
use massf_netsim::world::events_per_roundtrip;
use massf_netsim::NetSimBuilder;
use massf_routing::{CostMetric, FlatResolver};
use massf_topology::{AsId, Network, NodeKind, Point};
use std::sync::Arc;

/// Per-group bottleneck: 1 Gbit/s ⇒ exactly 125 MB/s of shareable
/// capacity, so fair shares stay integral-ish and finish times are easy
/// to predict.
pub const LINK_BPS: f64 = 1e9;
/// All starts are staggered across this window.
pub const START_WINDOW: SimTime = SimTime::from_ms(100);

/// One size of the workload.
pub struct FluidScaling {
    pub groups: usize,
    pub flows_per_group: usize,
    pub bytes_per_flow: u64,
    /// Virtual time at which every flow is live and none has finished.
    pub probe: SimTime,
    pub end: SimTime,
}

impl FluidScaling {
    /// Total fluid flows.
    pub fn flows(&self) -> u64 {
        (self.groups * self.flows_per_group) as u64
    }

    /// The network and its flows, ready to run.
    pub fn builder(&self) -> NetSimBuilder {
        let mut net = Network::new();
        let mut pairs = Vec::with_capacity(self.groups);
        for g in 0..self.groups {
            let x = g as f64;
            let a = net.add_node(NodeKind::Host, Point::new(x, 0.0), AsId(0));
            let b = net.add_node(NodeKind::Host, Point::new(x, 1.0), AsId(0));
            net.add_link(a, b, LINK_BPS, 1.0);
            pairs.push((a, b));
        }
        let resolver = Arc::new(FlatResolver::new(&net, CostMetric::Latency));
        let mut builder = NetSimBuilder::new(net, resolver);
        let total = self.groups * self.flows_per_group;
        let spacing = (START_WINDOW.as_ns() / total as u64).max(1);
        for i in 0..total {
            let (a, b) = pairs[i % self.groups];
            builder.add_fluid_flow(
                SimTime(i as u64 * spacing),
                a,
                b,
                self.bytes_per_flow,
                0, // unbounded: bottleneck-limited
            );
        }
        builder
    }

    /// Analytic packet-level equivalent of the same delivered bytes:
    /// every MSS segment costs `2·hops` kernel events (data + ACK
    /// arrivals), and each group path is a single hop — the lower
    /// bound, so a reduction against it is conservative.
    pub fn packet_equivalent_events(&self) -> u64 {
        self.flows() * segments_for(self.bytes_per_flow) as u64 * events_per_roundtrip(1)
    }
}
