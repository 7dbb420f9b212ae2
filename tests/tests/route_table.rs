//! The world's route table interns one route per `(src, dst)` pair and
//! epoch and evicts nothing: a source that talks to more destinations
//! than any per-source bound resolves each of them exactly once.

use massf_engine::SimTime;
use massf_netsim::{Agent, NetSimBuilder, NoApp, RouteCacheStats};
use massf_routing::{CostMetric, FlatResolver};
use massf_topology::{AsId, Network, NodeId, NodeKind, Point};
use std::sync::Arc;

/// Destinations of the star's hub host; more than the 128 per source
/// the table's predecessor, an LRU, held.
const LEAVES: usize = 200;

/// A hub host and `LEAVES` leaf hosts around one router. The hub opens
/// one small TCP flow to every leaf, then the same again 1 s later.
fn star() -> (NetSimBuilder, Vec<u32>) {
    let mut net = Network::new();
    let router = net.add_node(NodeKind::Router, Point::new(0.0, 0.0), AsId(0));
    let hub = net.add_node(NodeKind::Host, Point::new(1.0, 0.0), AsId(0));
    net.add_link(hub, router, 1e9, 1.0);
    let leaves: Vec<NodeId> = (0..LEAVES)
        .map(|i| {
            let leaf = net.add_node(NodeKind::Host, Point::new(2.0, i as f64), AsId(0));
            net.add_link(leaf, router, 1e9, 1.0);
            leaf
        })
        .collect();
    // The router and the hub on partition 0, the leaves on 1.
    let assignment = (0..net.node_count()).map(|i| u32::from(i >= 2)).collect();
    let resolver = Arc::new(FlatResolver::new(&net, CostMetric::Latency));
    let mut builder = NetSimBuilder::new(net, resolver);
    let mut agent = Agent::new();
    for round in 0..2u64 {
        for (i, &leaf) in leaves.iter().enumerate() {
            let at = SimTime::from_ms(1_000 * round + i as u64);
            agent.inject_tcp(at, hub, leaf, 3_000);
        }
    }
    builder.add_agent(agent);
    (builder, assignment)
}

#[test]
fn one_source_resolves_each_of_its_destinations_once() {
    let (builder, assignment) = star();
    let end = SimTime::from_secs(3);
    let seq = builder.run_sequential(NoApp, end);
    assert_eq!(seq.profile.completed_flows, 2 * LEAVES as u64);
    assert_eq!(
        seq.profile.route_cache,
        RouteCacheStats {
            hits: LEAVES as u64,
            misses: LEAVES as u64,
            evictions: 0,
        }
    );
    let window = builder.shared().safe_parallel_window(&assignment);
    let par = builder
        .try_run_parallel(NoApp, end, window, &assignment, 2)
        .expect("window within lookahead");
    assert_eq!(par.profile, seq.profile);
}
