//! The network world: a [`massf_engine::Model`] that forwards packets
//! hop by hop over a topology, runs TCP endpoints at hosts, and calls
//! into application logic.
//!
//! **LP-locality contract** (required by the engine for parallel
//! equivalence): handling an event at node `n` touches only `n`'s state —
//! its flow tables, its per-outgoing-link transmit queues, and its
//! application state. All cross-node effects are packets (events).
//!
//! **Memory layout** (DESIGN.md §3 item 13): per-flow state lives in
//! struct-of-arrays slabs (`slab::FlowSlab`, `slab::ReceiverSlab`)
//! instead of per-flow `HashMap` entries, and packets carry a single
//! interned route `Arc` whose hops name their outgoing link slots (see
//! [`Packet`]), so forwarding indexes links directly; the sorted CSR
//! port table is searched only where a route is interned. Slab slot numbers are an
//! implementation detail of one world instance — they never leak into
//! `FlowId`s, events, or results, so sequential and parallel runs stay
//! bit-identical even though their worlds recycle slots differently.

mod api;
mod shared;
mod slab;
mod state;

pub use api::{AppLogic, NoApp, SimApi};
pub use shared::SharedNet;
pub use slab::FlowCold;
pub(crate) use state::validate_route;
pub use state::{validate_net_event, FlowEntryState, ReceiverEntryState, WorldState};

use crate::fluid::{FluidState, FLUID_COORDINATOR};
use crate::packet::{NetEvent, Packet, PacketKind, ACK_BYTES, HEADER_BYTES};
use crate::profiling::ProfileData;
use crate::tcp::{AbortReason, MAX_RETRIES};
use api::FlowOutcome;
use massf_engine::{Emitter, LpId, Model, SimTime};
use massf_topology::{LinkId, NodeId};
use slab::NodeStates;
use std::sync::Arc;

/// Unused: the world's route table (`crate::routes`) holds every route
/// it resolved and has no capacity. Kept, with the argument of
/// [`NetWorld::with_config`] it was passed to, only because the
/// benchmark harness (`perf/`) still passes it.
pub const DEFAULT_ROUTE_CACHE_CAPACITY: usize = 128;

/// The packet-level network model (one instance per partition, or a
/// single instance for sequential runs).
pub struct NetWorld<A: AppLogic> {
    shared: Arc<SharedNet>,
    state: NodeStates,
    profile: ProfileData,
    app: A,
}

impl<A: AppLogic> NetWorld<A> {
    /// A world over `shared` with application logic `app` and the
    /// default TCP retry budget.
    pub fn new(shared: Arc<SharedNet>, app: A) -> Self {
        Self::with_config(shared, app, DEFAULT_ROUTE_CACHE_CAPACITY, MAX_RETRIES)
    }

    /// Like [`NetWorld::new`] with an explicit TCP retry budget for
    /// every flow opened in this world (see
    /// [`crate::tcp::TcpSender::with_retries`]).
    /// `_route_cache_capacity` is read nowhere; it stays because the
    /// benchmark harness (`perf/`) passes it.
    pub fn with_config(
        shared: Arc<SharedNet>,
        app: A,
        _route_cache_capacity: usize,
        max_retries: u32,
    ) -> Self {
        let state = NodeStates::new(&shared, max_retries);
        let profile = ProfileData::new(shared.net.node_count(), shared.net.links.len());
        NetWorld {
            shared,
            state,
            profile,
            app,
        }
    }

    /// Traffic-profile counters accumulated so far.
    pub fn profile(&self) -> &ProfileData {
        &self.profile
    }

    /// Consume the world, returning profile and application state.
    pub fn into_parts(self) -> (ProfileData, A) {
        (self.profile, self.app)
    }

    /// Application logic (e.g. to read workload completion records).
    pub fn app(&self) -> &A {
        &self.app
    }
}

impl<A: AppLogic> Model for NetWorld<A> {
    type Event = NetEvent;

    fn handle(
        &mut self,
        target: LpId,
        now: SimTime,
        event: NetEvent,
        out: &mut Emitter<'_, NetEvent>,
    ) {
        let node = NodeId(target.0);
        let shared = &*self.shared;
        let app = &mut self.app;
        let mut cx = SimApi {
            host: node,
            now,
            shared,
            state: &mut self.state,
            profile: &mut self.profile,
            emitter: out,
        };

        match event {
            NetEvent::Arrive(pkt) => {
                // A packet that was in flight when its link or either
                // endpoint died is lost (checked at arrival time; `hop`
                // was already advanced past the traversed link).
                if let Some(f) = &shared.faults {
                    let link = LinkId(pkt.slot_at(pkt.hop as usize - 1) / 2);
                    if !f.is_link_up(link, now) || !f.is_node_up(node, now) {
                        cx.profile.fault_drops += 1;
                        return;
                    }
                }
                cx.profile.node_packets[node.index()] += 1;
                if !pkt.at_destination() {
                    cx.transmit(pkt);
                    return;
                }
                match pkt.kind {
                    PacketKind::Data => {
                        let ack = cx.state.receivers.entry(node, pkt.flow).on_data(pkt.seq);
                        // The ACK walks the *same* interned route in
                        // reverse (kind = Ack, mirrored slots); no
                        // second allocation.
                        cx.transmit(Packet {
                            flow: pkt.flow,
                            meta: 0,
                            path: pkt.path.clone(),
                            dst: pkt.flow.source(),
                            seq: ack,
                            size_bytes: ACK_BYTES,
                            hop: 0,
                            kind: PacketKind::Ack,
                        });
                    }
                    PacketKind::Ack => {
                        let Some(slot) = cx.state.flows.slot_of(node, pkt.flow) else {
                            return; // flow already completed
                        };
                        let outcome = cx.drive_flow(pkt.flow, slot, |sender, now, actions| {
                            sender.on_ack(pkt.seq, now, actions)
                        });
                        match outcome {
                            FlowOutcome::Completed => {
                                cx.profile.completed_flows += 1;
                                cx.profile.completed_segments +=
                                    cx.state.flows.hot[slot].total_segments as u64;
                                // NOTE: the receiver-side entry lives at
                                // the *destination* LP and must not be
                                // touched from here (LP locality); it is
                                // simply left behind, bounded by the
                                // flow count.
                                cx.state.flows.free(node, pkt.flow);
                                app.on_flow_complete(node, pkt.flow, &mut cx);
                            }
                            // ACKs acknowledge progress; they never
                            // exhaust the retry budget.
                            FlowOutcome::Aborted => unreachable!("ACKs cannot abort a flow"),
                            FlowOutcome::Active => {}
                        }
                    }
                    PacketKind::Datagram => {
                        let payload = pkt.size_bytes - HEADER_BYTES;
                        app.on_datagram(node, pkt.flow, payload, pkt.meta, &mut cx);
                    }
                }
            }
            NetEvent::RtoTimer { flow, epoch } => {
                let Some(slot) = cx.state.flows.slot_of(node, flow) else {
                    return;
                };
                if cx.state.flows.hot[slot].timer_epoch != epoch {
                    return; // stale timer
                }
                cx.state.flows.cold[slot].armed_epoch = u32::MAX;
                // Under fault injection a timeout may mean the path died:
                // re-resolve against the current epoch and fail over to
                // the reconverged path before retransmitting. (Skipped
                // entirely in fault-free runs, whose behavior must not
                // change.)
                if shared.faults.is_some() {
                    let path = cx.route(cx.state.flows.cold[slot].dst);
                    let cold = &mut cx.state.flows.cold[slot];
                    cold.unroutable = path.is_none();
                    if let Some(path) = path.filter(|p| *p != cold.path) {
                        cold.path = path;
                    }
                }
                let outcome =
                    cx.drive_flow(flow, slot, |sender, _, actions| sender.on_timeout(actions));
                match outcome {
                    FlowOutcome::Completed => unreachable!("timeout cannot complete a flow"),
                    FlowOutcome::Aborted => {
                        cx.profile.aborted_flows += 1;
                        let reason = if cx.state.flows.cold[slot].unroutable {
                            AbortReason::Unroutable
                        } else {
                            AbortReason::RetryBudgetExhausted
                        };
                        // As with completion, the receiver-side entry at
                        // the destination LP is left behind.
                        cx.state.flows.free(node, flow);
                        app.on_flow_aborted(node, flow, reason, &mut cx);
                    }
                    FlowOutcome::Active => {}
                }
            }
            NetEvent::AppTimer { token } => app.on_timer(node, token, &mut cx),
            NetEvent::StartFlow { dst, bytes } => {
                cx.start_tcp_flow(dst, bytes);
            }
            NetEvent::SendDatagram { dst, bytes, meta } => {
                cx.send_datagram(dst, bytes, meta);
            }
            NetEvent::Fault { kind: _kind } => {
                cx.profile.fault_events += 1;
                // Enter the new epoch now: its link-state view (filtered
                // OSPF adjacency / BGP RIB) is paid at fault time, each
                // shortest-path tree at the first route that needs it.
                // Idempotent and deterministic: both are pure functions
                // of the epoch, whichever partition triggers them first.
                if let Some(f) = &shared.faults {
                    f.reconverge_at(now);
                }
            }
            NetEvent::FluidStart {
                src,
                dst,
                bytes,
                peak_bps,
            } => {
                // Coordinator state is allocated on first use so
                // packet-only scenarios never pay for it.
                let fl = cx
                    .state
                    .fluid
                    .get_or_insert_with(|| Box::new(FluidState::new(shared)));
                fl.start(
                    shared,
                    now,
                    src,
                    dst,
                    bytes,
                    peak_bps,
                    &mut cx.state.flow_counter[FLUID_COORDINATOR.index()],
                    cx.profile,
                    cx.emitter,
                );
            }
            NetEvent::FluidFinish { flow, epoch } => {
                let Some(fl) = cx.state.fluid.as_deref_mut() else {
                    return;
                };
                if let Some((src, dst)) =
                    fl.finish(shared, now, flow, epoch, cx.profile, cx.emitter)
                {
                    app.on_fluid_complete(src, flow, dst, &mut cx);
                }
            }
            NetEvent::FluidFault { kind } => {
                let Some(fl) = cx.state.fluid.as_deref_mut() else {
                    return;
                };
                for (flow, src, dst) in fl.fault(shared, now, kind, cx.profile, cx.emitter) {
                    app.on_fluid_aborted(src, flow, dst, &mut cx);
                }
            }
            NetEvent::FluidCapUpdate { slot, fluid_bps } => {
                cx.state
                    .coupling
                    .subscribe(shared.net.links.len() * 2, slot, fluid_bps);
            }
            NetEvent::FluidPacketLoad { slot, bps } => {
                if let Some(fl) = cx.state.fluid.as_deref_mut() {
                    fl.packet_load(shared, now, slot, bps, cx.profile, cx.emitter);
                }
            }
        }
    }
}

/// Expected number of kernel events for a clean one-segment exchange:
/// data packet arrivals at every hop plus ACK arrivals back.
pub fn events_per_roundtrip(hops: usize) -> u64 {
    2 * hops as u64
}

#[cfg(test)]
pub(crate) use shared::fixtures;

#[cfg(test)]
mod tests {
    use super::fixtures::{dumbbell, unslotted};
    use super::shared;
    use super::slab::{FlowCold, FlowSlab};
    use super::*;
    use crate::packet::{segments_for, FlowId, Hop};
    use crate::tcp::TcpSender;
    use massf_engine::run_sequential;
    use massf_faults::FaultKind;
    use massf_topology::MassfError;

    /// Run one TCP flow A→B of `bytes` and return (profile, end stats).
    fn run_flow(
        shared: Arc<SharedNet>,
        a: NodeId,
        b: NodeId,
        bytes: u64,
        end: SimTime,
    ) -> (ProfileData, massf_engine::ExecutionStats) {
        let mut world = NetWorld::new(shared, NoApp);
        let n = world.shared.lp_count();
        let stats = run_sequential(
            &mut world,
            n,
            vec![(
                SimTime::ZERO,
                LpId(a.0),
                NetEvent::StartFlow { dst: b, bytes },
            )],
            end,
        );
        (world.profile, stats)
    }

    #[test]
    fn single_flow_completes() {
        let (shared, a, b) = dumbbell(100e6);
        let (profile, _) = run_flow(shared, a, b, 50_000, SimTime::from_secs(10));
        assert_eq!(profile.completed_flows, 1);
        assert_eq!(profile.completed_segments, segments_for(50_000) as u64);
        assert_eq!(profile.drops, 0, "no loss expected at 100 Mbps");
        assert_eq!(profile.unroutable, 0);
    }

    #[test]
    fn packets_traverse_every_hop() {
        let (shared, a, b) = dumbbell(100e6);
        let segs = segments_for(10_000) as u64; // 7 segments
        let (profile, _) = run_flow(shared, a, b, 10_000, SimTime::from_secs(10));
        // Each data segment arrives at r1, r2, B; each ACK at r2, r1, A.
        // 3 links × (segs data + segs acks) packets.
        for l in 0..3 {
            assert_eq!(
                profile.link_packets[l],
                2 * segs,
                "link {l}: {:?}",
                profile.link_packets
            );
        }
        // Routers see data+acks; hosts see acks (A) / data (B).
        assert_eq!(profile.node_packets[1], 2 * segs);
        assert_eq!(profile.node_packets[2], 2 * segs);
        assert_eq!(profile.node_packets[0], segs);
        assert_eq!(profile.node_packets[3], segs);
    }

    #[test]
    fn transfer_time_tracks_bottleneck_bandwidth() {
        // 1 MB over ~10 Mbps bottleneck ≈ 0.84 s of pure serialization;
        // with slow start and 2.4 ms RTT it lands within a small factor.
        let (shared, a, b) = dumbbell(10e6);
        let mut world = NetWorld::new(shared, NoApp);
        let n = world.shared.lp_count();
        let stats = run_sequential(
            &mut world,
            n,
            vec![(
                SimTime::ZERO,
                LpId(a.0),
                NetEvent::StartFlow {
                    dst: b,
                    bytes: 1_000_000,
                },
            )],
            SimTime::from_secs(60),
        );
        assert_eq!(world.profile.completed_flows, 1);
        // Sanity: total events bounded and nonzero.
        assert!(stats.total_events > 1000);
    }

    #[test]
    fn narrow_bottleneck_drops_but_still_completes() {
        // 1 Mbps bottleneck with 50 ms buffer (≈ 6 kB) forces drops once
        // slow start overshoots, but retransmission recovers.
        let (shared, a, b) = dumbbell(1e6);
        let (profile, _) = run_flow(shared, a, b, 200_000, SimTime::from_secs(60));
        assert!(profile.drops > 0, "expected drop-tail losses");
        assert_eq!(profile.completed_flows, 1, "TCP must recover from loss");
    }

    #[test]
    fn udp_datagram_delivered_to_app() {
        let (shared, a, b) = dumbbell(100e6);
        struct Sink(Vec<(NodeId, u32, u64)>);
        impl AppLogic for Sink {
            fn on_flow_complete(&mut self, _: NodeId, _: FlowId, _: &mut SimApi<'_, '_>) {}
            fn on_timer(&mut self, _: NodeId, _: u64, _: &mut SimApi<'_, '_>) {}
            fn on_datagram(
                &mut self,
                h: NodeId,
                _f: FlowId,
                bytes: u32,
                meta: u64,
                _: &mut SimApi<'_, '_>,
            ) {
                self.0.push((h, bytes, meta));
            }
        }
        let mut world = NetWorld::new(shared, Sink(Vec::new()));
        let n = world.shared.lp_count();
        run_sequential(
            &mut world,
            n,
            vec![(
                SimTime::from_ms(1),
                LpId(a.0),
                NetEvent::SendDatagram {
                    dst: b,
                    bytes: 512,
                    meta: 77,
                },
            )],
            SimTime::from_secs(1),
        );
        assert_eq!(world.app.0, vec![(b, 512, 77)]);
    }

    #[test]
    fn app_timer_fires() {
        let (shared, a, _) = dumbbell(100e6);
        struct T(Vec<(u64, SimTime)>);
        impl AppLogic for T {
            fn on_flow_complete(&mut self, _: NodeId, _: FlowId, _: &mut SimApi<'_, '_>) {}
            fn on_timer(&mut self, _: NodeId, token: u64, api: &mut SimApi<'_, '_>) {
                self.0.push((token, api.now()));
                if token < 3 {
                    api.set_timer(SimTime::from_ms(10), token + 1);
                }
            }
        }
        let mut world = NetWorld::new(shared, T(Vec::new()));
        let n = world.shared.lp_count();
        run_sequential(
            &mut world,
            n,
            vec![(
                SimTime::from_ms(5),
                LpId(a.0),
                NetEvent::AppTimer { token: 1 },
            )],
            SimTime::from_secs(1),
        );
        assert_eq!(
            world.app.0,
            vec![
                (1, SimTime::from_ms(5)),
                (2, SimTime::from_ms(15)),
                (3, SimTime::from_ms(25)),
            ]
        );
    }

    #[test]
    fn self_flow_rejected_as_unroutable() {
        let (shared, a, _) = dumbbell(100e6);
        let (profile, _) = run_flow(shared, a, a, 1000, SimTime::from_secs(1));
        assert_eq!(profile.completed_flows, 0);
        assert_eq!(profile.unroutable, 1);
    }

    #[test]
    fn fifo_links_never_reorder() {
        // Two back-to-back datagrams must arrive in order even though the
        // first is larger (store-and-forward FIFO).
        let (shared, a, b) = dumbbell(1e6);
        struct Order(Vec<u32>);
        impl AppLogic for Order {
            fn on_flow_complete(&mut self, _: NodeId, _: FlowId, _: &mut SimApi<'_, '_>) {}
            fn on_timer(&mut self, _: NodeId, _: u64, _: &mut SimApi<'_, '_>) {}
            fn on_datagram(
                &mut self,
                _: NodeId,
                _: FlowId,
                bytes: u32,
                _meta: u64,
                _: &mut SimApi<'_, '_>,
            ) {
                self.0.push(bytes);
            }
        }
        let mut world = NetWorld::new(shared, Order(Vec::new()));
        let n = world.shared.lp_count();
        run_sequential(
            &mut world,
            n,
            vec![
                (
                    SimTime::ZERO,
                    LpId(a.0),
                    NetEvent::SendDatagram {
                        dst: b,
                        bytes: 1400,
                        meta: 0,
                    },
                ),
                (
                    SimTime::from_us(1),
                    LpId(a.0),
                    NetEvent::SendDatagram {
                        dst: b,
                        bytes: 40,
                        meta: 0,
                    },
                ),
            ],
            SimTime::from_secs(1),
        );
        assert_eq!(world.app.0, vec![1400, 40]);
    }

    #[test]
    fn port_table_matches_adjacency() {
        let (shared, _, _) = dumbbell(100e6);
        for link in &shared.net.links {
            assert_eq!(shared.slot_between(link.a, link.b), Some(link.id.0 * 2));
            assert_eq!(shared.slot_between(link.b, link.a), Some(link.id.0 * 2 + 1));
        }
        // Non-adjacent pairs miss: hosts a (0) and b (3) are 3 hops apart.
        assert!(shared.slot_between(NodeId(0), NodeId(3)).is_none());
        assert!(shared.slot_between(NodeId(0), NodeId(2)).is_none());
        assert!(
            shared.slot_between(NodeId(9), NodeId(0)).is_none(),
            "unknown node"
        );
    }

    proptest::proptest! {
        /// On any multigraph — parallel links in both orientations
        /// included — the slot from `b` to `a` mirrors the one from `a`
        /// to `b`, and both name the last-inserted link joining them.
        /// ACKs walk a route backwards on `slot ^ 1` by this invariant.
        #[test]
        fn port_slots_mirror_in_both_directions(
            nodes in 2u32..7,
            edges in proptest::collection::vec((0u32..7, 0u32..7), 1..30),
        ) {
            use massf_topology::{AsId, Network, NodeKind, Point};
            let mut net = Network::new();
            for i in 0..nodes {
                net.add_node(NodeKind::Router, Point::new(f64::from(i), 0.0), AsId(0));
            }
            let mut last = std::collections::BTreeMap::new();
            for (x, y) in edges {
                let (a, b) = (NodeId(x % nodes), NodeId(y % nodes));
                if a != b {
                    let id = net.add_link(a, b, 1e6, 1.0);
                    last.insert((a.min(b), a.max(b)), id);
                }
            }
            let resolver = Arc::new(massf_routing::FlatResolver::new(
                &net,
                massf_routing::CostMetric::Latency,
            ));
            let shared = SharedNet::new(net, resolver);
            for i in 0..nodes {
                for j in 0..nodes {
                    let (a, b) = (NodeId(i), NodeId(j));
                    let ab = shared.slot_between(a, b);
                    proptest::prop_assert_eq!(ab, shared.slot_between(b, a).map(|s| s ^ 1));
                    let want = last.get(&(a.min(b), a.max(b))).filter(|_| a != b);
                    proptest::prop_assert_eq!(ab.map(|s| s / 2), want.map(|l| l.0));
                    if let Some(s) = ab {
                        let link = &shared.net.links[(s / 2) as usize];
                        let from = if s % 2 == 0 { link.a } else { link.b };
                        proptest::prop_assert_eq!(from, a);
                    }
                }
            }
        }
    }

    #[test]
    fn forwarding_searches_no_port_table() {
        // Port lookups happen where a route is interned — one per hop of
        // each resolved route — never per packet forwarded.
        let run = |bytes: u64| {
            let (shared, a, b) = dumbbell(100e6);
            let before = shared::PORT_LOOKUPS.with(|c| c.get());
            let (profile, stats) = run_flow(shared, a, b, bytes, SimTime::from_secs(60));
            let lookups = shared::PORT_LOOKUPS.with(|c| c.get()) - before;
            assert_eq!(profile.completed_flows, 1);
            (lookups, profile.route_cache.misses, stats.total_events)
        };
        let (small, small_routes, small_events) = run(10_000);
        let (large, large_routes, large_events) = run(2_000_000);
        assert!(
            large_events > 50 * small_events,
            "{large_events} vs {small_events}"
        );
        assert_eq!((small_routes, large_routes), (1, 1));
        assert_eq!(small, 3, "one lookup per hop of the one a → b route");
        assert_eq!(
            large, small,
            "forwarding 200× the packets searches nothing more"
        );
    }

    /// host a — r0 — r1 — r2 — host b with a slower detour r0 — r3 — r2;
    /// the link r0 — r1 (id 1) fails at 100 ms.
    fn square_with_failure() -> (Arc<SharedNet>, NodeId, NodeId) {
        use massf_faults::{FaultScript, FaultState};
        use massf_routing::CostMetric;
        use massf_topology::{AsId, Network, NodeKind, Point};
        let mut net = Network::new();
        let mut node = |kind| net.add_node(kind, Point::new(0.0, 0.0), AsId(0));
        // Router r0 is node 0, the fluid coordinator, so the TCP and the
        // fluid flow each take their source's first flow id.
        let r: Vec<NodeId> = (0..4).map(|_| node(NodeKind::Router)).collect();
        let a = node(NodeKind::Host);
        let b = node(NodeKind::Host);
        net.add_link(a, r[0], 1e9, 0.1);
        net.add_link(r[0], r[1], 10e6, 1.0);
        net.add_link(r[1], r[2], 10e6, 1.0);
        net.add_link(r[2], b, 1e9, 0.1);
        net.add_link(r[0], r[3], 10e6, 5.0);
        net.add_link(r[3], r[2], 10e6, 5.0);
        let mut script = FaultScript::new();
        script.link_down(SimTime::from_ms(100), massf_topology::LinkId(1));
        let faults = FaultState::flat(&net, CostMetric::Latency, script).expect("valid script");
        (SharedNet::with_faults(net, faults), a, b)
    }

    #[test]
    fn packet_and_fluid_routes_carry_the_same_slots() {
        let (shared, a, b) = square_with_failure();
        let down = FaultKind::LinkDown(massf_topology::LinkId(1));
        let coordinator = LpId(FLUID_COORDINATOR.0);
        let slots_at = |end: SimTime| {
            let mut world = NetWorld::new(shared.clone(), NoApp);
            let bytes = 100 << 20;
            let initial = vec![
                (
                    SimTime::ZERO,
                    LpId(a.0),
                    NetEvent::StartFlow { dst: b, bytes },
                ),
                (
                    SimTime::ZERO,
                    coordinator,
                    NetEvent::FluidStart {
                        src: a,
                        dst: b,
                        bytes,
                        peak_bps: 0,
                    },
                ),
                (
                    SimTime::from_ms(100),
                    LpId(a.0),
                    NetEvent::Fault { kind: down },
                ),
                (
                    SimTime::from_ms(100),
                    coordinator,
                    NetEvent::FluidFault { kind: down },
                ),
            ];
            run_sequential(&mut world, shared.lp_count(), initial, end);
            let flows = &world.state.flows;
            let slot = flows
                .slot_of(a, FlowId::new(a, 0))
                .expect("TCP flow is live");
            let route = &flows.cold[slot].path;
            let packet: Vec<u32> = route[..route.len() - 1].iter().map(|h| h.slot).collect();
            let fluid = world
                .state
                .fluid
                .as_deref()
                .and_then(|fl| fl.slots_of(FlowId::new(FLUID_COORDINATOR, 0)))
                .expect("fluid flow is live");
            assert_eq!(packet, fluid, "same pair, same epoch, same slots");
            packet
        };
        // Epoch 0 takes r0 — r1 — r2; after the failure (and the TCP
        // flow's RTO failover) both take the detour.
        assert_eq!(slots_at(SimTime::from_ms(50)), vec![0, 2, 4, 6]);
        assert_eq!(slots_at(SimTime::from_secs(3)), vec![0, 8, 10, 6]);
    }

    fn seeded_resume(
        initial: Vec<(SimTime, LpId, NetEvent)>,
        n: usize,
    ) -> massf_engine::ResumeState<NetEvent> {
        let mut events = massf_engine::seed_events(initial);
        events.sort_unstable();
        massf_engine::ResumeState {
            events,
            counters: vec![0; n],
        }
    }

    #[test]
    fn world_state_round_trip_preserves_execution() {
        use massf_engine::run_sequential_resumable;
        let (shared, a, b) = dumbbell(10e6);
        let n = shared.lp_count();
        let initial = vec![(
            SimTime::ZERO,
            LpId(a.0),
            NetEvent::StartFlow {
                dst: b,
                bytes: 500_000,
            },
        )];
        let end = SimTime::from_secs(5);

        // Straight-through reference.
        let mut whole = NetWorld::new(shared.clone(), NoApp);
        run_sequential(&mut whole, n, initial.clone(), end);

        // Split run: stop at 100 ms (mid-flow), snapshot, continue both
        // the original world and a restored copy.
        let mut original = NetWorld::new(shared.clone(), NoApp);
        let (_, frontier) = run_sequential_resumable(
            &mut original,
            n,
            seeded_resume(initial, n),
            SimTime::from_ms(100),
        )
        .expect("valid frontier");
        let snap = original.export_state();
        assert!(!snap.flows.is_empty(), "flow must still be live at 100 ms");

        let mut restored = NetWorld::restore(shared, NoApp, &snap).expect("valid snapshot");
        // Snapshot → restore → snapshot is exact, except the restored
        // world's own profile starts at zero.
        let mut re_export = restored.export_state();
        assert_eq!(re_export.profile, ProfileData::new(n, 3));
        re_export.profile = snap.profile.clone();
        assert_eq!(re_export, snap);

        let (_, f2) = run_sequential_resumable(&mut restored, n, frontier.clone(), end)
            .expect("restored world resumes");
        let (_, f1) =
            run_sequential_resumable(&mut original, n, frontier, end).expect("original resumes");
        assert_eq!(f1.events.len(), f2.events.len());

        // The continued-original equals the straight-through run...
        assert_eq!(original.export_state(), whole.export_state());
        // ...and the restored world matches except for profile
        // additivity: snapshot profile + suffix profile = whole profile.
        let mut final_restored = restored.export_state();
        let mut cumulative = snap.profile.clone();
        cumulative.merge(&final_restored.profile);
        assert_eq!(cumulative, whole.profile);
        final_restored.profile = whole.profile.clone();
        assert_eq!(final_restored, whole.export_state());
    }

    #[test]
    fn partition_exports_merge_to_sequential_state() {
        use massf_engine::{run_sequential_resumable, try_run_parallel_resumable};
        let (shared, a, b) = dumbbell(10e6);
        let n = shared.lp_count();
        let mut initial = vec![
            (
                SimTime::ZERO,
                LpId(a.0),
                NetEvent::StartFlow {
                    dst: b,
                    bytes: 300_000,
                },
            ),
            (
                SimTime::from_ms(1),
                LpId(b.0),
                NetEvent::StartFlow {
                    dst: a,
                    bytes: 200_000,
                },
            ),
        ];
        // Fluid flows both ways across the cut, still live at `mid`:
        // each partition subscribes the slots it sends on, and the
        // coordinator (node `a`) sits in partition 0. Capped at 0.5 MB/s
        // each, they leave TCP room to keep the estimators moving.
        for (src, dst) in [(a, b), (b, a)] {
            let ev = NetEvent::FluidStart {
                src,
                dst,
                bytes: 10_000_000,
                peak_bps: 4_000_000,
            };
            initial.push((SimTime::from_ms(2), LpId(FLUID_COORDINATOR.0), ev));
        }
        let mid = SimTime::from_ms(150);

        let mut seq = NetWorld::new(shared.clone(), NoApp);
        let (_, frontier) =
            run_sequential_resumable(&mut seq, n, seeded_resume(initial.clone(), n), mid)
                .expect("sequential segment");
        let seq_state = seq.export_state();

        // Cut between r1 and r2 (the only cross link, 1 ms latency).
        let assignment = [0u32, 0, 1, 1];
        let shards = vec![
            NetWorld::new(shared.clone(), NoApp),
            NetWorld::new(shared.clone(), NoApp),
        ];
        let (shards, _, _) = try_run_parallel_resumable(
            shards,
            n,
            &assignment,
            seeded_resume(initial, n),
            mid,
            SimTime::from_ms(1),
        )
        .expect("parallel segment");
        let parts: Vec<WorldState> = shards.iter().map(|w| w.export_state()).collect();
        let subscribed = |st: &WorldState| st.coupling.fluid_bps.iter().any(|&r| r != u64::MAX);
        assert!(parts.iter().all(subscribed), "both partitions send fluid");
        assert_eq!(
            parts[0].fluid.flows.len(),
            2,
            "partition 0 owns the coordinator"
        );
        assert!(parts[1].fluid.is_empty());
        let merged = WorldState::merge_partitions(&parts, &assignment).expect("disjoint parts");
        assert_eq!(merged, seq_state);

        // Restored partitions run on to the sequential result: each
        // keeps only what it owns, or a stale copy wins the merge.
        let end = SimTime::from_ms(300);
        run_sequential_resumable(&mut seq, n, frontier.clone(), end).expect("sequential suffix");
        let shards = (0..2)
            .map(|p| NetWorld::restore_partition(shared.clone(), NoApp, &seq_state, &assignment, p))
            .collect::<Result<Vec<_>, _>>()
            .expect("own export restores");
        let (shards, _, _) =
            try_run_parallel_resumable(shards, n, &assignment, frontier, end, SimTime::from_ms(1))
                .expect("parallel suffix");
        let parts: Vec<WorldState> = shards.iter().map(|w| w.export_state()).collect();
        let mut merged = WorldState::merge_partitions(&parts, &assignment).expect("disjoint parts");
        merged.profile.merge(&seq_state.profile);
        assert_eq!(merged, seq.export_state());
    }

    #[test]
    fn hostile_world_states_are_rejected() {
        use massf_engine::run_sequential_resumable;
        let (shared, a, b) = dumbbell(10e6);
        let n = shared.lp_count();
        let initial = vec![(
            SimTime::ZERO,
            LpId(a.0),
            NetEvent::StartFlow {
                dst: b,
                bytes: 500_000,
            },
        )];
        let mut w = NetWorld::new(shared.clone(), NoApp);
        run_sequential_resumable(&mut w, n, seeded_resume(initial, n), SimTime::from_ms(100))
            .expect("segment");
        let good = w.export_state();
        assert!(!good.flows.is_empty());

        let reject = |state: &WorldState, what: &str| match NetWorld::restore(
            shared.clone(),
            NoApp,
            state,
        ) {
            Err(MassfError::SnapshotCorrupt { .. }) => {}
            Err(other) => panic!("{what}: expected SnapshotCorrupt, got {other}"),
            Ok(_) => panic!("{what}: hostile state must be rejected"),
        };

        let mut truncated_counters = good.clone();
        truncated_counters.flow_counter.pop();
        reject(&truncated_counters, "truncated flow counters");

        let mut wrong_busy = good.clone();
        wrong_busy.busy_until.push(SimTime::ZERO);
        reject(&wrong_busy, "oversized busy horizon");

        let mut broken_path = good.clone();
        broken_path.flows[0].cold.path = unslotted(&[a, b]); // hosts are not adjacent
        reject(&broken_path, "non-adjacent path hop");

        // Slots are never trusted: a route whose slots are wrong, or
        // missing as in a decoded snapshot, restores re-interned.
        let mut bad_slots = good.clone();
        let nodes: Vec<NodeId> = good.flows[0].cold.path.iter().map(|h| h.node).collect();
        bad_slots.flows[0].cold.path = (nodes.iter()).map(|&node| Hop { node, slot: 0 }).collect();
        let restored = NetWorld::restore(shared.clone(), NoApp, &bad_slots).expect("valid nodes");
        assert_eq!(restored.export_state().flows, good.flows);
        bad_slots.flows[0].cold.path = unslotted(&nodes);
        let restored = NetWorld::restore(shared.clone(), NoApp, &bad_slots).expect("valid nodes");
        assert_eq!(restored.export_state().flows, good.flows);

        let mut unissued_flow = good.clone();
        unissued_flow.flow_counter[a.index()] = 0;
        reject(&unissued_flow, "live flow beyond its host's counter");

        let mut nan_cwnd = good.clone();
        nan_cwnd.flows[0].sender.cwnd = f64::NAN;
        reject(&nan_cwnd, "NaN congestion window");

        let mut dup_receiver = good.clone();
        if let Some(&r) = dup_receiver.receivers.first() {
            dup_receiver.receivers.push(r); // breaks strict sorting
            reject(&dup_receiver, "duplicate receiver entry");
        }

        let mut bad_profile = good.clone();
        bad_profile.profile.node_packets.pop();
        reject(&bad_profile, "profile dimension mismatch");

        // The unmodified export restores fine.
        assert!(NetWorld::restore(shared, NoApp, &good).is_ok());
    }

    /// An interned path is served on a hit without re-resolving, and
    /// `transmit` trusts its hops to be links: restore must refuse one
    /// that is not a route from the entry's source to its destination,
    /// and a list that is not strictly sorted by `(src, dst)`.
    #[test]
    fn hostile_route_cache_entries_are_rejected() {
        use massf_engine::run_sequential_resumable;
        let (shared, a, b) = dumbbell(10e6);
        let n = shared.lp_count();
        let initial = vec![(
            SimTime::ZERO,
            LpId(a.0),
            NetEvent::StartFlow {
                dst: b,
                bytes: 500_000,
            },
        )];
        let mut w = NetWorld::new(shared.clone(), NoApp);
        run_sequential_resumable(&mut w, n, seeded_resume(initial, n), SimTime::from_ms(100))
            .expect("segment");
        let good = w.export_state();
        assert_eq!(good.routes.len(), 1);
        let nodes = |s: &WorldState| {
            s.routes[0]
                .path
                .as_ref()
                .map(|p| p.iter().map(|h| h.node).collect::<Vec<_>>())
        };
        assert_eq!(nodes(&good), Some(vec![a, NodeId(1), NodeId(2), b]));
        assert!(NetWorld::restore(shared.clone(), NoApp, &good).is_ok());

        let reject = |state: &WorldState, what: &str| match NetWorld::restore(
            shared.clone(),
            NoApp,
            state,
        ) {
            Err(MassfError::SnapshotCorrupt { .. }) => {}
            Err(other) => panic!("{what}: expected SnapshotCorrupt, got {other}"),
            Ok(_) => panic!("{what}: hostile route entry must be rejected"),
        };
        for (hostile, what) in [
            (vec![a, b], "hop that is not a link"),
            (
                vec![a, NodeId(1)],
                "path ending short of the entry's destination",
            ),
            (
                vec![NodeId(1), NodeId(2), b],
                "path not starting at the entry's source",
            ),
            (vec![a, NodeId(9)], "path through an unknown node"),
        ] {
            let mut state = good.clone();
            state.routes[0].path = Some(unslotted(&hostile));
            reject(&state, what);
        }
        let mut state = good.clone();
        state.routes.push(good.routes[0].clone());
        reject(&state, "duplicate entry");
        let mut state = good.clone();
        let mut earlier = good.routes[0].clone();
        (earlier.dst, earlier.path) = (NodeId(1), None);
        state.routes.push(earlier);
        reject(&state, "unsorted entries");
        state.routes.reverse();
        assert!(
            NetWorld::restore(shared.clone(), NoApp, &state).is_ok(),
            "the same entries sorted are fine"
        );
        let mut state = good.clone();
        state.routes[0].dst = a;
        state.routes[0].path = None;
        reject(&state, "route to itself");
    }

    #[test]
    fn in_flight_event_validation_catches_hostile_packets() {
        let (shared, a, b) = dumbbell(10e6);
        let r1 = NodeId(1);
        let nodes = [a, r1, NodeId(2), b];
        let path = unslotted(&nodes);
        let pkt = |hop: u16, path: Arc<[Hop]>| Packet {
            flow: FlowId::new(a, 0),
            meta: 0,
            path,
            dst: b,
            seq: 0,
            size_bytes: 100,
            hop,
            kind: PacketKind::Data,
        };

        // A well-formed in-flight packet passes, its route re-interned
        // with the slot of every hop.
        let mut ok = NetEvent::Arrive(pkt(1, path.clone()));
        assert!(validate_net_event(&shared, LpId(r1.0), &mut ok).is_ok());
        let NetEvent::Arrive(restored) = ok else {
            unreachable!("validation keeps the variant")
        };
        assert_eq!(Some(restored.path), shared.hop_route(&nodes));

        let cases: Vec<(LpId, NetEvent, &str)> = vec![
            (LpId(99), NetEvent::AppTimer { token: 0 }, "unknown LP"),
            (
                LpId(r1.0),
                NetEvent::Arrive(pkt(0, path.clone())),
                "hop 0 would underflow the previous-node lookup",
            ),
            (
                LpId(r1.0),
                NetEvent::Arrive(pkt(4, path.clone())),
                "hop beyond the walk",
            ),
            (
                LpId(b.0),
                NetEvent::Arrive(pkt(1, path.clone())),
                "packet not at its target LP",
            ),
            (
                LpId(r1.0),
                NetEvent::Arrive(pkt(1, unslotted(&[a, b]))),
                "non-adjacent path",
            ),
            (
                LpId(a.0),
                NetEvent::StartFlow {
                    dst: NodeId(77),
                    bytes: 1,
                },
                "traffic to unknown node",
            ),
            (
                LpId(a.0),
                NetEvent::Fault {
                    kind: FaultKind::LinkDown(massf_topology::LinkId(9)),
                },
                "fault on unknown link",
            ),
        ];
        for (lp, mut ev, what) in cases {
            match validate_net_event(&shared, lp, &mut ev) {
                Err(MassfError::SnapshotCorrupt { section, .. }) => {
                    assert_eq!(section, "events", "{what}");
                }
                other => panic!("{what}: expected SnapshotCorrupt, got {other:?}"),
            }
        }
    }

    #[test]
    fn flow_slab_recycles_slots_lifo() {
        let mut slab = FlowSlab::new(2);
        let n = NodeId(0);
        let cold = |dst: u32| FlowCold {
            path: Arc::from([]),
            dst: NodeId(dst),
            armed_epoch: u32::MAX,
            unroutable: false,
        };
        for c in 0..3u32 {
            slab.insert(n, FlowId::new(n, c), TcpSender::new(1000), cold(c));
        }
        assert_eq!(slab.slot_of(n, FlowId::new(n, 1)), Some(1));
        slab.free(n, FlowId::new(n, 1));
        assert_eq!(slab.slot_of(n, FlowId::new(n, 1)), None);
        // Next insert reuses the freed slot, and lookup still resolves
        // strictly by (node, counter).
        slab.insert(n, FlowId::new(n, 3), TcpSender::new(1000), cold(3));
        assert_eq!(slab.slot_of(n, FlowId::new(n, 3)), Some(1));
        assert_eq!(slab.slot_of(n, FlowId::new(n, 0)), Some(0));
        assert_eq!(slab.slot_of(n, FlowId::new(n, 2)), Some(2));
        assert_eq!(slab.hot.len(), 3, "no growth while free slots exist");
    }
}

#[cfg(test)]
mod timing_tests {
    use super::*;
    use crate::packet::FlowId;
    use massf_engine::run_sequential;
    use massf_routing::{CostMetric, FlatResolver};
    use massf_topology::{AsId, Network, NodeKind, Point};

    /// Two hosts joined by one router over exactly-specified links.
    fn line(bw: f64, latency_ms: f64) -> (Arc<SharedNet>, NodeId, NodeId) {
        let mut net = Network::new();
        let a = net.add_node(NodeKind::Host, Point::new(0.0, 0.0), AsId(0));
        let r = net.add_node(NodeKind::Router, Point::new(1.0, 0.0), AsId(0));
        let b = net.add_node(NodeKind::Host, Point::new(2.0, 0.0), AsId(0));
        net.add_link(a, r, bw, latency_ms);
        net.add_link(r, b, bw, latency_ms);
        let resolver = Arc::new(FlatResolver::new(&net, CostMetric::Latency));
        (SharedNet::new(net, resolver), a, b)
    }

    struct ArrivalClock(Vec<SimTime>);
    impl AppLogic for ArrivalClock {
        fn on_flow_complete(&mut self, _: NodeId, _: FlowId, _: &mut SimApi<'_, '_>) {}
        fn on_timer(&mut self, _: NodeId, _: u64, _: &mut SimApi<'_, '_>) {}
        fn on_datagram(&mut self, _: NodeId, _: FlowId, _: u32, _: u64, api: &mut SimApi<'_, '_>) {
            self.0.push(api.now());
        }
    }

    #[test]
    fn store_and_forward_timing_is_exact() {
        // 1 Mbps links, 1 ms propagation, 960-byte datagram + 40 header
        // = 1000 bytes = 8000 bits → 8 ms serialization per hop.
        // Host→router: depart 0, arrive 8+1 = 9 ms.
        // Router→host: depart 9, arrive 9+8+1 = 18 ms.
        let (shared, a, b) = line(1e6, 1.0);
        let mut world = NetWorld::new(shared, ArrivalClock(Vec::new()));
        let n = world.shared.lp_count();
        run_sequential(
            &mut world,
            n,
            vec![(
                SimTime::ZERO,
                LpId(a.0),
                NetEvent::SendDatagram {
                    dst: b,
                    bytes: 1000 - HEADER_BYTES,
                    meta: 0,
                },
            )],
            SimTime::from_secs(1),
        );
        assert_eq!(world.app.0, vec![SimTime::from_ms(18)]);
    }

    #[test]
    fn queueing_delay_accumulates_fifo() {
        // Two back-to-back 1000-byte datagrams: the second serializes
        // behind the first on each hop. First arrives at 18 ms; second
        // departs hop 1 at 8 ms (queued), arrives router 17 ms, departs
        // 25 ms (first left at 17), arrives 26 ms... carefully:
        //   hop1: p1 departs [0,8], p2 departs [8,16]; arrivals 9, 17.
        //   hop2: p1 departs [9,17]; p2 arrives 17, departs [17,25];
        //   p1 arrives b at 18, p2 at 26.
        let (shared, a, b) = line(1e6, 1.0);
        let mut world = NetWorld::new(shared, ArrivalClock(Vec::new()));
        let n = world.shared.lp_count();
        let dg = |t| {
            (
                SimTime::from_us(t),
                LpId(a.0),
                NetEvent::SendDatagram {
                    dst: b,
                    bytes: 1000 - HEADER_BYTES,
                    meta: 0,
                },
            )
        };
        run_sequential(&mut world, n, vec![dg(0), dg(1)], SimTime::from_secs(1));
        assert_eq!(
            world.app.0,
            vec![SimTime::from_ms(18), SimTime::from_ms(26)]
        );
    }

    #[test]
    fn opposite_directions_do_not_contend() {
        // Full-duplex: a→b and b→a datagrams at t=0 must both arrive at
        // 18 ms — each direction has its own transmit server.
        let (shared, a, b) = line(1e6, 1.0);
        let mut world = NetWorld::new(shared, ArrivalClock(Vec::new()));
        let n = world.shared.lp_count();
        let dg = |src: NodeId, dst: NodeId| {
            (
                SimTime::ZERO,
                LpId(src.0),
                NetEvent::SendDatagram {
                    dst,
                    bytes: 1000 - HEADER_BYTES,
                    meta: 0,
                },
            )
        };
        run_sequential(
            &mut world,
            n,
            vec![dg(a, b), dg(b, a)],
            SimTime::from_secs(1),
        );
        assert_eq!(
            world.app.0,
            vec![SimTime::from_ms(18), SimTime::from_ms(18)]
        );
    }
}
