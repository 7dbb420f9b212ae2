//! End-to-end fault-injection acceptance tests (ISSUE 2):
//!
//! 1. A scripted mid-run link failure triggers OSPF reconvergence and
//!    subsequent traffic reroutes — the pre-fault and post-fault paths
//!    differ and no packets are lost after the reconvergence window.
//! 2. A failure under an in-flight flow drops packets mid-flight, and
//!    TCP retransmission fails over to the reconverged path.
//! 3. A crashed router with no alternative path makes flows abort with
//!    a structured reason within the retry budget instead of hanging.
//!
//! Plus the routing oracle of ISSUE 15: every epoch's lazily resolved
//! paths are checked against Bellman–Ford on the independently filtered
//! graph, in shuffled query order and from concurrent threads — an
//! epoch computes a destination's tree when it first routes there, so
//! the answer must not depend on who asked first.

use massf_engine::SimTime;
use massf_netsim::{
    AbortReason, AppLogic, FaultScript, FaultState, FlowId, NetEvent, NetSimBuilder, NoApp, SimApi,
};
use massf_routing::{CostMetric, PathResolver};
use massf_topology::{
    generate_flat_network, AsId, FlatTopologyConfig, Link, LinkId, Network, NodeId, NodeKind, Point,
};
use proptest::prelude::*;
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;
use std::sync::{Arc, Barrier};

/// ha — r0 — r1 — hb with a detour r0 — r2 — r1. The primary r0–r1 hop
/// is cheap (1 ms); the detour legs cost 3 ms each, so OSPF only uses
/// them once the primary is gone.
fn diamond(bw: f64) -> (Network, [NodeId; 5]) {
    let mut net = Network::new();
    let ha = net.add_node(NodeKind::Host, Point::new(0.0, 0.0), AsId(0));
    let r0 = net.add_node(NodeKind::Router, Point::new(1.0, 0.0), AsId(0));
    let r1 = net.add_node(NodeKind::Router, Point::new(2.0, 0.0), AsId(0));
    let r2 = net.add_node(NodeKind::Router, Point::new(1.5, 1.0), AsId(0));
    let hb = net.add_node(NodeKind::Host, Point::new(3.0, 0.0), AsId(0));
    net.add_link(ha, r0, bw, 0.1);
    net.add_link(r0, r1, bw, 1.0);
    net.add_link(r0, r2, bw, 3.0);
    net.add_link(r2, r1, bw, 3.0);
    net.add_link(r1, hb, bw, 0.1);
    (net, [ha, r0, r1, r2, hb])
}

fn link_between(net: &Network, a: NodeId, b: NodeId) -> LinkId {
    net.links
        .iter()
        .find(|l| (l.a, l.b) == (a, b) || (l.a, l.b) == (b, a))
        .expect("link exists")
        .id
}

#[test]
fn link_failure_reconverges_and_reroutes_without_loss() {
    // Fast links: a pre-fault flow finishes well before the fault, a
    // post-fault flow starts well after it.
    let (net, [ha, r0, r1, r2, hb]) = diamond(1e9);
    let primary = link_between(&net, r0, r1);
    let mut script = FaultScript::new();
    script.link_down(SimTime::from_ms(500), primary);
    let faults = FaultState::flat(&net, CostMetric::Latency, script).expect("script validates");

    // The routing view: pre-fault path differs from post-fault path.
    let pre = faults
        .resolver_at(SimTime::ZERO)
        .route(ha, hb)
        .expect("reachable before the fault");
    let post = faults
        .resolver_at(SimTime::from_ms(500))
        .route(ha, hb)
        .expect("reachable after reconvergence");
    assert_eq!(pre, vec![ha, r0, r1, hb]);
    assert_eq!(post, vec![ha, r0, r2, r1, hb]);
    assert_ne!(pre, post, "fault must change the routed path");

    // The packet view: one flow entirely before, one entirely after.
    let mut builder = NetSimBuilder::new_with_faults(net.clone(), faults.clone());
    builder.add_initial(
        SimTime::ZERO,
        massf_engine::LpId(ha.0),
        NetEvent::StartFlow {
            dst: hb,
            bytes: 50_000,
        },
    );
    builder.add_initial(
        SimTime::from_secs(1),
        massf_engine::LpId(ha.0),
        NetEvent::StartFlow {
            dst: hb,
            bytes: 50_000,
        },
    );
    let out = builder.run_sequential(NoApp, SimTime::from_secs(30));

    assert_eq!(out.profile.completed_flows, 2, "both flows must complete");
    assert_eq!(out.profile.aborted_flows, 0);
    assert_eq!(
        out.profile.fault_drops, 0,
        "zero lost packets outside the fault window: flow 1 precedes the \
         fault, flow 2 starts after reconvergence"
    );
    assert_eq!(out.profile.fault_events, 1);
    assert!(faults.reconvergence_count() >= 1, "OSPF must reconverge");
    assert!(
        out.profile.node_packets[r2.index()] > 0,
        "post-fault flow must traverse the detour router"
    );

    // Clean reference: the detour router is never touched.
    let mut clean = NetSimBuilder::new(
        net.clone(),
        Arc::new(massf_routing::FlatResolver::new(&net, CostMetric::Latency)),
    );
    clean.add_initial(
        SimTime::ZERO,
        massf_engine::LpId(ha.0),
        NetEvent::StartFlow {
            dst: hb,
            bytes: 50_000,
        },
    );
    let clean_out = clean.run_sequential(NoApp, SimTime::from_secs(30));
    assert_eq!(clean_out.profile.node_packets[r2.index()], 0);
    assert_eq!(clean_out.profile.fault_events, 0);
}

#[test]
fn in_flight_flow_survives_failure_via_retransmission() {
    // Slow links so a 200 kB flow is still in flight when the primary
    // dies at 300 ms; in-flight packets are lost, the RTO re-resolves
    // onto the detour, and the flow still completes.
    let (net, [ha, r0, r1, _r2, hb]) = diamond(1e6);
    let primary = link_between(&net, r0, r1);
    let mut script = FaultScript::new();
    script.link_down(SimTime::from_ms(300), primary);
    let faults = FaultState::flat(&net, CostMetric::Latency, script).expect("script validates");

    let mut builder = NetSimBuilder::new_with_faults(net, faults);
    builder.add_initial(
        SimTime::ZERO,
        massf_engine::LpId(ha.0),
        NetEvent::StartFlow {
            dst: hb,
            bytes: 200_000,
        },
    );
    let out = builder.run_sequential(NoApp, SimTime::from_secs(120));

    assert!(
        out.profile.fault_drops > 0,
        "packets crossing the dying link must be lost mid-flight"
    );
    assert_eq!(
        out.profile.completed_flows, 1,
        "TCP must recover over the reconverged path"
    );
    assert_eq!(out.profile.aborted_flows, 0);
}

/// Captures abort callbacks for inspection.
#[derive(Clone, Default)]
struct AbortProbe {
    aborts: Vec<(NodeId, FlowId, AbortReason, SimTime)>,
}

impl AppLogic for AbortProbe {
    fn on_flow_complete(&mut self, _: NodeId, _: FlowId, _: &mut SimApi<'_, '_>) {}
    fn on_timer(&mut self, _: NodeId, _: u64, _: &mut SimApi<'_, '_>) {}
    fn on_flow_aborted(
        &mut self,
        host: NodeId,
        flow: FlowId,
        reason: AbortReason,
        api: &mut SimApi<'_, '_>,
    ) {
        self.aborts.push((host, flow, reason, api.now()));
    }
}

#[test]
fn crashed_router_without_alternative_aborts_within_budget() {
    // ha — r — hb: the only router crashes under an in-flight flow.
    let mut net = Network::new();
    let ha = net.add_node(NodeKind::Host, Point::new(0.0, 0.0), AsId(0));
    let r = net.add_node(NodeKind::Router, Point::new(1.0, 0.0), AsId(0));
    let hb = net.add_node(NodeKind::Host, Point::new(2.0, 0.0), AsId(0));
    net.add_link(ha, r, 1e6, 1.0);
    net.add_link(r, hb, 1e6, 1.0);

    let mut script = FaultScript::new();
    script.router_crash(SimTime::from_ms(200), r);
    let faults = FaultState::flat(&net, CostMetric::Latency, script).expect("script validates");
    assert!(
        faults
            .resolver_at(SimTime::from_ms(200))
            .route(ha, hb)
            .is_none(),
        "no alternative path exists after the crash"
    );

    let mut builder = NetSimBuilder::new_with_faults(net, faults);
    builder.add_initial(
        SimTime::ZERO,
        massf_engine::LpId(ha.0),
        NetEvent::StartFlow {
            dst: hb,
            bytes: 500_000,
        },
    );
    let out = builder.run_sequential(AbortProbe::default(), SimTime::from_secs(90));

    assert_eq!(out.profile.completed_flows, 0);
    assert_eq!(out.profile.aborted_flows, 1, "the flow must give up");
    let probe = &out.apps[0];
    assert_eq!(probe.aborts.len(), 1);
    let (host, flow, reason, at) = probe.aborts[0];
    assert_eq!(host, ha);
    assert_eq!(flow.source(), ha);
    assert_eq!(
        reason,
        AbortReason::Unroutable,
        "failover found no route, so the abort is structured as unroutable"
    );
    assert!(
        at <= SimTime::from_secs(60),
        "abort must land within the retry budget (~47 s worst case), got {:?}",
        at
    );
    assert!(out.profile.fault_drops > 0, "retransmissions were dropped");
}

#[test]
fn fault_free_script_changes_nothing() {
    // Fault machinery with an empty script must reproduce the plain
    // resolver's run exactly (guards the fault-free hot path).
    let (net, [ha, _, _, _, hb]) = diamond(1e9);
    let faults = FaultState::flat(&net, CostMetric::Latency, FaultScript::new())
        .expect("empty script validates");
    let start = (
        SimTime::ZERO,
        massf_engine::LpId(ha.0),
        NetEvent::StartFlow {
            dst: hb,
            bytes: 100_000,
        },
    );

    let mut plain = NetSimBuilder::new(
        net.clone(),
        Arc::new(massf_routing::FlatResolver::new(&net, CostMetric::Latency)),
    );
    plain.add_initial(start.0, start.1, start.2.clone());
    let a = plain.run_sequential(NoApp, SimTime::from_secs(10));

    let mut faulted = NetSimBuilder::new_with_faults(net, faults.clone());
    faulted.add_initial(start.0, start.1, start.2);
    let b = faulted.run_sequential(NoApp, SimTime::from_secs(10));

    assert_eq!(a.profile, b.profile);
    assert_eq!(a.stats.total_events, b.stats.total_events);
    assert_eq!(faults.reconvergence_count(), 0);
}

/// Random flat world: a router ring with chords (some of them parallel
/// links), hosts on one access link each, every third host dual-homed
/// (so it stays in the routed core). Latencies are whole milliseconds
/// from a small set, which makes equal-cost alternatives common.
fn random_flat_world(rng: &mut ChaCha8Rng, routers: usize, hosts: usize) -> Network {
    let mut net = Network::new();
    let ms = |rng: &mut ChaCha8Rng| f64::from(rng.gen_range(1u32..5));
    let r: Vec<NodeId> = (0..routers)
        .map(|i| net.add_node(NodeKind::Router, Point::new(i as f64, 0.0), AsId(0)))
        .collect();
    for i in 0..routers {
        let lat = ms(rng);
        net.add_link(r[i], r[(i + 1) % routers], 1e9, lat);
    }
    for _ in 0..routers {
        let (i, j) = (rng.gen_range(0..routers), rng.gen_range(0..routers));
        if i != j {
            let lat = ms(rng);
            net.add_link(r[i], r[j], 1e9, lat);
        }
    }
    for h in 0..hosts {
        let host = net.add_node(NodeKind::Host, Point::new(h as f64, 1.0), AsId(0));
        let at = rng.gen_range(0..routers);
        let lat = ms(rng);
        net.add_link(host, r[at], 1e9, lat);
        if h % 3 == 2 {
            let lat = ms(rng);
            net.add_link(host, r[(at + 1) % routers], 1e9, lat);
        }
    }
    net
}

/// Bellman–Ford distances from `src` over `net`'s links that are up and
/// whose endpoints are up: no heap, no trees, no leaf aggregation —
/// nothing shared with `OspfDomain` except the latency → cost rounding.
fn bellman_ford(net: &Network, link_up: &[bool], node_up: &[bool], src: NodeId) -> Vec<u64> {
    let mut dist = vec![u64::MAX; net.node_count()];
    dist[src.index()] = 0;
    for _ in 0..net.node_count() {
        for l in net.links.iter().filter(|l| link_alive(l, link_up, node_up)) {
            let c = latency_cost(l.latency_ms);
            for (from, to) in [(l.a.index(), l.b.index()), (l.b.index(), l.a.index())] {
                if dist[from] != u64::MAX && dist[from] + c < dist[to] {
                    dist[to] = dist[from] + c;
                }
            }
        }
    }
    dist
}

fn latency_cost(latency_ms: f64) -> u64 {
    (latency_ms * 1e6).round() as u64
}

fn link_alive(l: &Link, link_up: &[bool], node_up: &[bool]) -> bool {
    link_up[l.id.index()] && node_up[l.a.index()] && node_up[l.b.index()]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every epoch of a random flap script — core links, host access
    /// links (a leaf host becomes an isolated core member and back) and
    /// router crashes — routes exactly like the oracle: a path exists
    /// iff Bellman–Ford reaches the destination on the epoch's filtered
    /// graph, is contiguous over links alive in that epoch, and costs
    /// the Bellman–Ford distance. All (epoch, src, dst) queries are
    /// issued in one shuffled order, and a second `FaultState` queried
    /// in the reverse order must return the identical paths.
    #[test]
    fn epoch_routes_match_bellman_ford_on_the_filtered_graph(
        seed in any::<u64>(),
        routers in 3usize..12,
        hosts in 2usize..9,
        ops in proptest::collection::vec((0u8..3, any::<u32>()), 1..9),
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let net = random_flat_world(&mut rng, routers, hosts);
        let access: Vec<LinkId> = net
            .links
            .iter()
            .filter(|l| net.nodes[l.a.index()].kind == NodeKind::Host)
            .map(|l| l.id)
            .collect();

        // One toggle per op at its own time, so epoch k + 1 is the state
        // after op k; the liveness snapshots are the oracle's own replay
        // of the script, not `EpochState`.
        let mut link_up = vec![true; net.links.len()];
        let mut node_up = vec![true; net.node_count()];
        let mut alive = vec![(link_up.clone(), node_up.clone())];
        let mut script = FaultScript::new();
        for (k, &(kind, pick)) in ops.iter().enumerate() {
            let at = SimTime::from_ms(100 * (k as u64 + 1));
            let pick = pick as usize;
            if kind == 2 {
                let n = NodeId((pick % routers) as u32);
                if node_up[n.index()] {
                    script.router_crash(at, n);
                } else {
                    script.router_recover(at, n);
                }
                node_up[n.index()] ^= true;
            } else {
                let l = if kind == 1 {
                    access[pick % access.len()]
                } else {
                    LinkId((pick % net.links.len()) as u32)
                };
                if link_up[l.index()] {
                    script.link_down(at, l);
                } else {
                    script.link_up(at, l);
                }
                link_up[l.index()] ^= true;
            }
            alive.push((link_up.clone(), node_up.clone()));
        }
        let faults = FaultState::flat(&net, CostMetric::Latency, script.clone())
            .expect("toggles always validate");
        let mirror = FaultState::flat(&net, CostMetric::Latency, script)
            .expect("toggles always validate");
        prop_assert_eq!(faults.epoch_count(), alive.len());

        let n = net.node_count() as u32;
        let mut queries: Vec<(usize, NodeId, NodeId)> = (0..alive.len())
            .flat_map(|e| (0..n).flat_map(move |s| (0..n).map(move |d| (e, NodeId(s), NodeId(d)))))
            .collect();
        queries.shuffle(&mut rng);

        let mut answers = Vec::with_capacity(queries.len());
        for &(e, s, d) in &queries {
            let (link_up, node_up) = &alive[e];
            let path = faults.resolver_for_epoch(e).route(s, d);
            let want = bellman_ford(&net, link_up, node_up, s)[d.index()];
            match &path {
                None => prop_assert_eq!(want, u64::MAX, "epoch {} {:?}→{:?} lost", e, s, d),
                Some(p) => {
                    prop_assert_eq!((p[0], p[p.len() - 1]), (s, d));
                    let mut cost = 0u64;
                    for w in p.windows(2) {
                        let hop = net
                            .links
                            .iter()
                            .filter(|l| (l.a, l.b) == (w[0], w[1]) || (l.a, l.b) == (w[1], w[0]))
                            .filter(|l| link_alive(l, link_up, node_up))
                            .map(|l| latency_cost(l.latency_ms))
                            .min();
                        prop_assert!(hop.is_some(), "epoch {} hop {:?} is not alive", e, w);
                        cost += hop.expect("checked above");
                    }
                    prop_assert_eq!(cost, want, "epoch {} {:?}→{:?} not shortest", e, s, d);
                }
            }
            answers.push(path);
        }
        for (&(e, s, d), got) in queries.iter().zip(&answers).rev() {
            prop_assert_eq!(&mirror.resolver_for_epoch(e).route(s, d), got);
        }
    }
}

/// A faulted epoch that nothing has routed in yet holds no shortest-path
/// tree. 2, 4 and 8 threads released together onto such a resolver —
/// once with disjoint slices of the pair set, once all with the whole
/// set, so several threads race for the same missing trees — must get
/// exactly the single-threaded answers. The second pair set follows
/// every pair with its reverse: there either end's tree can answer, and
/// the threads race for *which* end's tree gets built.
#[test]
fn cold_epoch_resolver_answers_identically_under_threads() {
    let net = generate_flat_network(&FlatTopologyConfig::tiny());
    let core_link = net
        .links
        .iter()
        .find(|l| {
            net.nodes[l.a.index()].kind == NodeKind::Router
                && net.nodes[l.b.index()].kind == NodeKind::Router
        })
        .expect("generated networks have router-router links")
        .id;
    let cold_epoch = || {
        let mut script = FaultScript::new();
        script.link_down(SimTime::from_ms(10), core_link);
        script.router_crash(SimTime::from_ms(10), net.router_ids()[1]);
        FaultState::flat(&net, CostMetric::Latency, script).expect("script validates")
    };
    let ids: Vec<NodeId> = net.nodes.iter().map(|n| n.id).collect();
    let one_way: Vec<(NodeId, NodeId)> = ids
        .iter()
        .flat_map(|&s| ids.iter().step_by(3).map(move |&d| (s, d)))
        .collect();
    let request_response: Vec<(NodeId, NodeId)> = one_way
        .iter()
        .flat_map(|&(s, d)| [(s, d), (d, s)])
        .collect();
    let route_all = |r: &dyn PathResolver, pairs: &[(NodeId, NodeId)]| -> Vec<_> {
        pairs.iter().map(|&(s, d)| r.route(s, d)).collect()
    };
    // A path depends on nothing but its epoch and its endpoints, so the
    // one-way answers also fix what every request and response must be.
    let expected_one_way = route_all(cold_epoch().resolver_for_epoch(1).as_ref(), &one_way);
    assert!(expected_one_way.iter().any(Option::is_some));
    let expected_both_ways = route_all(
        cold_epoch().resolver_for_epoch(1).as_ref(),
        &request_response,
    );
    for (i, want) in expected_one_way.iter().enumerate() {
        assert_eq!(&expected_both_ways[2 * i], want, "request {:?}", one_way[i]);
    }

    for (pairs, expected) in [
        (&one_way, &expected_one_way),
        (&request_response, &expected_both_ways),
    ] {
        for threads in [2usize, 4, 8] {
            for overlapping in [false, true] {
                let faults = cold_epoch();
                let resolver = faults.resolver_for_epoch(1).as_ref();
                let shares: Vec<&[(NodeId, NodeId)]> = if overlapping {
                    vec![&pairs[..]; threads]
                } else {
                    pairs.chunks(pairs.len().div_ceil(threads)).collect()
                };
                let start = Barrier::new(shares.len());
                let got: Vec<Vec<_>> = std::thread::scope(|scope| {
                    let workers: Vec<_> = shares
                        .iter()
                        .map(|&mine| {
                            let start = &start;
                            scope.spawn(move || {
                                start.wait();
                                route_all(resolver, mine)
                            })
                        })
                        .collect();
                    workers
                        .into_iter()
                        .map(|w| w.join().expect("routing threads do not panic"))
                        .collect()
                });
                if overlapping {
                    for (t, answers) in got.iter().enumerate() {
                        assert_eq!(answers, expected, "{threads} threads, thread {t}");
                    }
                } else {
                    assert_eq!(&got.concat(), expected, "{threads} threads, disjoint");
                }
            }
        }
    }
}
