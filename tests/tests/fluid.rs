//! Fluid background-traffic acceptance tests (ISSUE 9):
//!
//! 1. Mixed packet + fluid workloads run on the real multi-threaded
//!    conservative executor bit-identically to sequential execution
//!    (the window capped at `FLUID_CONTROL_DELAY`).
//! 2. The solver's max-min fairness invariants hold at arbitrary stop
//!    times under randomized demands.
//! 3. Faults interact with both fidelities: a flap on a shared
//!    bottleneck reroutes fluid flows and packet TCP together, and a
//!    severed path terminates fluid flows through the app callback.
//! 4. Snapshots taken with fluid flows live restore bit-identically —
//!    which also proves slab-slot recycling cannot affect results,
//!    since restore re-canonicalizes slot assignment while the
//!    uninterrupted run keeps its own recycling history.

use massf_engine::{run_sequential, SimTime};
use massf_integration::{assert_matches_reference, fingerprint_for, session_for};
use massf_netsim::{
    Agent, AppLogic, FaultScript, FaultState, FlowId, NetSimBuilder, NetWorld, NoApp, SharedNet,
    SimApi,
};
use massf_routing::CostMetric;
use massf_snapshot::{ExecMode, Session};
use massf_topology::{
    generate_flat_network, AsId, FlatTopologyConfig, Network, NodeId, NodeKind, Point,
};
use proptest::prelude::*;

/// A small generated network carrying scripted TCP foreground traffic,
/// fluid background flows, and optional link flaps.
fn mixed_scenario(seed: u64, flaps: usize, tcp_flows: usize, fluid_flows: usize) -> NetSimBuilder {
    let mut cfg = FlatTopologyConfig::tiny();
    cfg.routers = 40;
    cfg.hosts = 16;
    cfg.metro_count = 2;
    cfg.seed = seed;
    let net = generate_flat_network(&cfg);
    let hosts = net.host_ids();
    let mut script = FaultScript::new();
    if flaps > 0 {
        script = FaultScript::random_link_flaps(
            &net,
            flaps,
            SimTime::from_ms(300),
            SimTime::from_ms(100),
            SimTime::from_ms(900),
            seed ^ 0xF00D,
        )
        .expect("tiny nets have router-router links to flap");
    }
    let faults = FaultState::flat(&net, CostMetric::Latency, script).expect("script validates");
    let mut builder = NetSimBuilder::new_with_faults(net, faults);
    let mut agent = Agent::new();
    for i in 0..tcp_flows {
        let src = hosts[i % hosts.len()];
        let dst = hosts[(i * 7 + 3) % hosts.len()];
        if src != dst {
            agent.inject_tcp(
                SimTime::from_ms(15 * i as u64),
                src,
                dst,
                30_000 + 9_000 * i as u64,
            );
        }
    }
    for i in 0..fluid_flows {
        let src = hosts[(i * 3 + 1) % hosts.len()];
        let dst = hosts[(i * 5 + 9) % hosts.len()];
        if src != dst {
            if i % 3 == 0 {
                // A third of the background is demand-capped.
                agent.inject_fluid_capped(
                    SimTime::from_ms(10 * i as u64),
                    src,
                    dst,
                    200_000 + 70_000 * i as u64,
                    2_000_000 + 500_000 * i as u64,
                );
            } else {
                agent.inject_fluid(
                    SimTime::from_ms(10 * i as u64),
                    src,
                    dst,
                    200_000 + 70_000 * i as u64,
                );
            }
        }
    }
    builder.add_agent(agent);
    builder
}

/// Parity-cut assignment and the barrier window the rebalancer would
/// compute for it ([`SharedNet::safe_parallel_window`]: the cut MLL
/// capped at `FLUID_CONTROL_DELAY`).
fn fluid_parity_cut(shared: &SharedNet, parts: u32) -> (Vec<u32>, SimTime) {
    let n = shared.lp_count();
    let assignment: Vec<u32> = (0..n).map(|i| (i as u32) % parts).collect();
    let window = shared.safe_parallel_window(&assignment);
    assert!(
        window > SimTime::ZERO,
        "parity cut must leave a positive window"
    );
    (assignment, window)
}

#[test]
fn mixed_fidelity_parallel_matches_sequential_bit_identically() {
    let builder = mixed_scenario(7, 2, 8, 12);
    let end = SimTime::from_secs(2);
    let seq = builder.run_sequential(NoApp, end);
    assert!(seq.profile.fluid.started > 0, "fluid traffic must flow");
    assert!(seq.profile.completed_flows > 0, "TCP traffic must flow");

    let (assignment, window) = fluid_parity_cut(&builder.shared(), 4);
    let par = builder
        .try_run_parallel(NoApp, end, window, &assignment, 4)
        .expect("window within lookahead");
    assert_eq!(seq.stats.total_events, par.stats.total_events);
    assert_eq!(seq.stats.lp_events, par.stats.lp_events);
    assert_eq!(seq.profile, par.profile, "all counters, fluid included");
}

#[test]
fn fairness_invariants_hold_at_arbitrary_stop_times() {
    let builder = mixed_scenario(13, 0, 4, 10);
    let shared = builder.shared();
    let events = builder.initial_events();
    for end_ms in [40u64, 170, 600, 2_000] {
        let n = shared.lp_count();
        let mut world = NetWorld::new(shared.clone(), NoApp);
        run_sequential(&mut world, n, events.clone(), SimTime::from_ms(end_ms));
        world
            .check_fluid_invariants()
            .unwrap_or_else(|e| panic!("stop at {end_ms} ms: {e}"));
    }
}

/// ha — r0 — r1 — hb with a slower detour through r2; the 1 ms r0–r1
/// hop carries both fidelities until the flap kills it.
fn diamond() -> (Network, [NodeId; 5]) {
    let mut net = Network::new();
    let ha = net.add_node(NodeKind::Host, Point::new(0.0, 0.0), AsId(0));
    let r0 = net.add_node(NodeKind::Router, Point::new(1.0, 0.0), AsId(0));
    let r1 = net.add_node(NodeKind::Router, Point::new(2.0, 0.0), AsId(0));
    let r2 = net.add_node(NodeKind::Router, Point::new(1.5, 1.0), AsId(0));
    let hb = net.add_node(NodeKind::Host, Point::new(3.0, 0.0), AsId(0));
    let bw = 1e7; // 10 Mbit/s bottleneck
    net.add_link(ha, r0, bw, 0.1);
    net.add_link(r0, r1, bw, 1.0);
    net.add_link(r0, r2, bw, 3.0);
    net.add_link(r2, r1, bw, 3.0);
    net.add_link(r1, hb, bw, 0.1);
    (net, [ha, r0, r1, r2, hb])
}

#[test]
fn flap_on_shared_bottleneck_reroutes_both_fidelities() {
    let (net, [ha, _r0, _r1, r2, hb]) = diamond();
    let primary = net
        .links
        .iter()
        .find(|l| l.latency_ms == 1.0)
        .expect("primary hop")
        .id;
    let mut script = FaultScript::new();
    script.link_down(SimTime::from_ms(700), primary);
    script.link_up(SimTime::from_ms(1_500), primary);
    let faults = FaultState::flat(&net, CostMetric::Latency, script).expect("script validates");
    let mut builder = NetSimBuilder::new_with_faults(net, faults);
    let mut agent = Agent::new();
    // Foreground packet TCP and background fluid share the bottleneck.
    agent.inject_tcp(SimTime::ZERO, ha, hb, 500_000);
    agent.inject_fluid(SimTime::ZERO, ha, hb, 3_000_000);
    builder.add_agent(agent);

    let end = SimTime::from_secs(20);
    let out = builder.run_sequential(NoApp, end);
    assert_eq!(out.profile.fluid.started, 1);
    assert_eq!(out.profile.fluid.rerouted, 1, "flap must reroute the flow");
    assert_eq!(out.profile.fluid.aborted, 0, "the detour survives");
    assert_eq!(out.profile.fluid.completed, 1);
    assert_eq!(out.profile.completed_flows, 1, "TCP must also recover");
    // Both fidelities genuinely took the detour router.
    assert!(out.profile.node_packets[r2.index()] > 0);
    // The mixed run stays bit-identical in parallel through the flap.
    let (assignment, window) = fluid_parity_cut(&builder.shared(), 3);
    let par = builder
        .try_run_parallel(NoApp, end, window, &assignment, 3)
        .expect("window within lookahead");
    assert_eq!(out.stats.total_events, par.stats.total_events);
    assert_eq!(out.profile, par.profile);
}

#[test]
fn severed_path_terminates_fluid_flows_through_the_callback() {
    // ha — r0 — r1 — hb chain: no detour exists once r0–r1 dies.
    let mut net = Network::new();
    let ha = net.add_node(NodeKind::Host, Point::new(0.0, 0.0), AsId(0));
    let r0 = net.add_node(NodeKind::Router, Point::new(1.0, 0.0), AsId(0));
    let r1 = net.add_node(NodeKind::Router, Point::new(2.0, 0.0), AsId(0));
    let hb = net.add_node(NodeKind::Host, Point::new(3.0, 0.0), AsId(0));
    net.add_link(ha, r0, 1e7, 0.1);
    let middle = net.add_link(r0, r1, 1e7, 1.0);
    net.add_link(r1, hb, 1e7, 0.1);
    let mut script = FaultScript::new();
    script.link_down(SimTime::from_ms(500), middle);
    let faults = FaultState::flat(&net, CostMetric::Latency, script).expect("script validates");
    let mut builder = NetSimBuilder::new_with_faults(net, faults);
    let mut agent = Agent::new();
    // Big enough that neither flow can finish before the cut.
    agent.inject_fluid(SimTime::ZERO, ha, hb, 100_000_000);
    agent.inject_fluid(SimTime::from_ms(100), hb, ha, 100_000_000);
    builder.add_agent(agent);

    #[derive(Clone, Default)]
    struct AbortSink(Vec<(NodeId, FlowId, NodeId)>);
    impl AppLogic for AbortSink {
        fn on_flow_complete(&mut self, _: NodeId, _: FlowId, _: &mut SimApi<'_, '_>) {}
        fn on_timer(&mut self, _: NodeId, _: u64, _: &mut SimApi<'_, '_>) {}
        fn on_fluid_aborted(
            &mut self,
            src: NodeId,
            flow: FlowId,
            dst: NodeId,
            _: &mut SimApi<'_, '_>,
        ) {
            self.0.push((src, flow, dst));
        }
    }

    let out = builder.run_sequential(AbortSink::default(), SimTime::from_secs(5));
    assert_eq!(out.profile.fluid.started, 2);
    assert_eq!(out.profile.fluid.aborted, 2, "no surviving path");
    assert_eq!(out.profile.fluid.completed, 0);
    let aborts = &out.apps[0].0;
    assert_eq!(aborts.len(), 2);
    let mut endpoints: Vec<(NodeId, NodeId)> = aborts.iter().map(|&(s, _, d)| (s, d)).collect();
    endpoints.sort();
    assert_eq!(endpoints, vec![(ha, hb), (hb, ha)]);
}

#[test]
fn snapshot_with_live_fluid_restores_bit_identically() {
    let builder = mixed_scenario(29, 1, 6, 10);
    let end = SimTime::from_secs(2);
    let reference = builder.run_sequential(NoApp, end);
    assert!(reference.profile.fluid.completed > 0);

    let mut session = session_for(&builder);
    session
        .run_until(SimTime::from_ms(700), &ExecMode::Sequential)
        .expect("prefix runs");
    assert!(
        !session.world_state().fluid.flows.is_empty(),
        "fluid flows must be live at the checkpoint for this test to bite"
    );
    let bytes = session.encode();
    let mut revived = Session::decode(builder.shared(), fingerprint_for(&builder), &bytes)
        .expect("own snapshot loads");
    // Snapshot → restore → snapshot is idempotent with fluid state
    // aboard (restore canonicalizes slab slot order; export must not
    // notice).
    assert_eq!(revived.encode(), bytes);
    revived
        .run_until(end, &ExecMode::Sequential)
        .expect("suffix runs");
    assert_matches_reference(&revived, &reference);
}

#[test]
fn executor_switches_with_fluid_are_invisible() {
    let builder = mixed_scenario(37, 2, 6, 8);
    let end = SimTime::from_secs(2);
    let reference = builder.run_sequential(NoApp, end);
    let (assignment, window) = fluid_parity_cut(&builder.shared(), 2);
    let parallel = ExecMode::Parallel { assignment, window };

    let mut session = session_for(&builder);
    session
        .run_until(SimTime::from_ms(600), &parallel)
        .expect("parallel prefix");
    session
        .run_until(SimTime::from_ms(1_300), &ExecMode::Sequential)
        .expect("sequential middle");
    session.run_until(end, &parallel).expect("parallel suffix");
    assert_matches_reference(&session, &reference);
}

#[test]
fn restores_do_not_disturb_live_fluid_flows() {
    // A LinkUp restore while fluid flows are mid-transfer is a no-op
    // for them (they keep valid paths), mirroring packet TCP, which
    // fails over only on loss.
    let (net, [ha, _, _, _, hb]) = diamond();
    let spare = net
        .links
        .iter()
        .find(|l| l.latency_ms == 3.0)
        .expect("detour hop")
        .id;
    let mut script = FaultScript::new();
    script.link_down(SimTime::from_ms(100), spare);
    script.link_up(SimTime::from_ms(400), spare);
    let faults = FaultState::flat(&net, CostMetric::Latency, script).expect("script validates");
    let mut builder = NetSimBuilder::new_with_faults(net, faults);
    let mut agent = Agent::new();
    agent.inject_fluid(SimTime::ZERO, ha, hb, 2_000_000);
    builder.add_agent(agent);
    let out = builder.run_sequential(NoApp, SimTime::from_secs(10));
    assert_eq!(out.profile.fluid.started, 1);
    assert_eq!(out.profile.fluid.rerouted, 0, "primary path never died");
    assert_eq!(out.profile.fluid.aborted, 0);
    assert_eq!(out.profile.fluid.completed, 1);
    assert_eq!(out.profile.fault_events, 2);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random mixed workloads, flap counts, and thread counts: parallel
    /// execution of fluid + packet traffic is bit-identical to
    /// sequential, and the solver invariants hold at the end.
    #[test]
    fn random_mixed_workloads_are_bit_identical_and_fair(
        seed in 0u64..500,
        flaps in 0usize..3,
        fluids in 1usize..14,
        parts in 2u32..5,
    ) {
        let builder = mixed_scenario(seed, flaps, 5, fluids);
        let end = SimTime::from_ms(1_500);
        let seq = builder.run_sequential(NoApp, end);

        let (assignment, window) = fluid_parity_cut(&builder.shared(), parts);
        let par = builder
            .try_run_parallel(NoApp, end, window, &assignment, parts as usize)
            .expect("window within lookahead");
        prop_assert_eq!(seq.stats.total_events, par.stats.total_events);
        prop_assert_eq!(&seq.stats.lp_events, &par.stats.lp_events);
        prop_assert_eq!(&seq.profile, &par.profile);

        // Fairness invariants on the sequential world at the stop time.
        let shared = builder.shared();
        let n = shared.lp_count();
        let mut world = NetWorld::new(shared, NoApp);
        run_sequential(&mut world, n, builder.initial_events(), end);
        prop_assert!(world.check_fluid_invariants().is_ok());
    }
}
