//! End-to-end tests on the multi-AS world (paper Section 5): BGP policy
//! routing under real packet traffic, and the load-balance pipeline.

use massf_core::prelude::*;
use massf_integration::{tiny_mapping_config, tiny_multi_as};
use massf_routing::{BgpRib, CostMetric, MultiAsResolver, PathResolver};
use massf_topology::generate_multi_as_network;

#[test]
fn pipeline_completes_on_bgp_routed_network() {
    let scenario = tiny_multi_as(17);
    let cfg = tiny_mapping_config(4);
    let out = run_mapping_experiment(
        &scenario,
        MappingApproach::Hprof,
        &cfg,
        &ClusterModel::default(),
        SimTime::from_secs(2),
    );
    assert!(out.run_stats.total_events > 500);
    assert!(out.run_profile.completed_flows > 0);
    assert!(out.metrics.parallel_efficiency > 0.0);
}

#[test]
fn traffic_crosses_as_boundaries() {
    let scenario = tiny_multi_as(17);
    let profile = run_profiling(&scenario, SimTime::from_secs(2)).profile;
    // Inter-AS links must carry traffic: workflow hosts and HTTP pairs
    // land on different stub ASes.
    let inter_packets: u64 = scenario
        .net
        .links
        .iter()
        .filter(|l| l.inter_as)
        .map(|l| profile.link_packets[l.id.index()])
        .sum();
    assert!(inter_packets > 100, "inter-AS packets: {inter_packets}");
}

#[test]
fn generated_bgp_gives_full_reachability_but_policy_paths() {
    // Tiny AS graphs are nearly star-shaped and show little policy
    // effect; use a realistically sized AS-level graph for this claim.
    let g = massf_topology::AsGraph::generate(60, 2, 0.08, 9);
    let rib = BgpRib::compute(&g);
    assert_eq!(rib.reachability_fraction(), 1.0);
    // Policy inflation: some selected path is longer than the
    // unconstrained shortest AS path (valley-free routing forbids the
    // shortcut).
    let mut inflated = 0;
    for s in 0..g.n {
        let mut dist = vec![usize::MAX; g.n];
        let mut queue = std::collections::VecDeque::new();
        dist[s] = 0;
        queue.push_back(s);
        while let Some(x) = queue.pop_front() {
            for (y, _) in g.neighbors(x) {
                if dist[y] == usize::MAX {
                    dist[y] = dist[x] + 1;
                    queue.push_back(y);
                }
            }
        }
        for (d, &bfs) in dist.iter().enumerate().take(g.n) {
            if s != d {
                if let Some(p) = rib.as_path(s, d) {
                    assert!(p.len() >= bfs, "BGP path shorter than BFS?");
                    if p.len() > bfs {
                        inflated += 1;
                    }
                }
            }
        }
    }
    assert!(inflated > 0, "no policy inflation on a 60-AS graph");
}

#[test]
fn multi_as_routing_agrees_with_packet_delivery() {
    // Every flow the resolver can route must actually deliver packets:
    // run a burst of injections between random host pairs and check the
    // completed-flow count matches the routable count.
    use massf_netsim::{Agent, NetSimBuilder, NoApp};
    use std::sync::Arc;

    let cfg = Scale::Tiny.multi_as_config(13);
    let m = generate_multi_as_network(&cfg);
    let resolver = Arc::new(MultiAsResolver::new(&m, CostMetric::Latency, &cfg));
    let hosts = m.network.host_ids();

    let mut agent = Agent::new();
    let mut expected = 0;
    for i in 0..20 {
        let (a, b) = (hosts[i], hosts[hosts.len() - 1 - i]);
        if a != b && resolver.route(a, b).is_some() {
            expected += 1;
        }
        agent.inject_tcp(SimTime::from_ms(i as u64 * 10), a, b, 30_000);
    }
    let mut builder = NetSimBuilder::new(m.network.clone(), resolver);
    builder.add_agent(agent);
    let out = builder.run_sequential(NoApp, SimTime::from_secs(30));
    assert_eq!(out.profile.completed_flows, expected);
}

#[test]
fn imbalance_multi_as_exceeds_single_as_for_topology_mapper() {
    // Paper Section 5.2.2: "the load imbalance for this multi-AS network
    // is much larger than the single-AS network due to the use of BGP
    // routing". Compare TOP2 imbalance across worlds at the same scale
    // and seed.
    let cfg = tiny_mapping_config(4);
    let model = ClusterModel::default();
    let duration = SimTime::from_secs(2);

    let single = massf_integration::tiny_single_as(77);
    let multi = tiny_multi_as(77);
    let s_out = run_mapping_experiment(&single, MappingApproach::Top2, &cfg, &model, duration);
    let m_out = run_mapping_experiment(&multi, MappingApproach::Top2, &cfg, &model, duration);
    assert!(
        m_out.metrics.load_imbalance > s_out.metrics.load_imbalance * 0.8,
        "multi-AS imbalance {} should not be far below single-AS {}",
        m_out.metrics.load_imbalance,
        s_out.metrics.load_imbalance
    );
}
