//! The handler context: everything an event handled at one LP — the
//! world's own packet path or an application callback — may do to the
//! network.

use super::shared::SharedNet;
use super::slab::{FlowCold, NodeStates};
use crate::fluid::{FLUID_CONTROL_DELAY, FLUID_COORDINATOR, PACKET_FLOOR_DIV};
use crate::packet::{FlowId, Hop, NetEvent, Packet, PacketKind, HEADER_BYTES, MSS};
use crate::profiling::ProfileData;
use crate::tcp::{AbortReason, SendAction, TcpSender};
use massf_engine::{Emitter, LpId, SimTime};
use massf_topology::{LinkId, NodeId};
use std::sync::Arc;

/// The interface application logic uses to act on the network, and the
/// context the world's own handlers run in. All actions originate at
/// the current host (the LP whose event is being handled).
pub struct SimApi<'a, 'b> {
    pub(super) host: NodeId,
    pub(super) now: SimTime,
    pub(super) shared: &'a SharedNet,
    pub(super) state: &'a mut NodeStates,
    pub(super) profile: &'a mut ProfileData,
    pub(super) emitter: &'a mut Emitter<'b, NetEvent>,
}

impl SimApi<'_, '_> {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The host this logic runs on.
    pub fn host(&self) -> NodeId {
        self.host
    }

    /// Open a TCP flow of `bytes` from this host to `dst`. Returns the
    /// flow id, or `None` when `dst` is unreachable (possible under BGP
    /// policy) or `dst` is this host.
    pub fn start_tcp_flow(&mut self, dst: NodeId, bytes: u64) -> Option<FlowId> {
        let (flow, path) = self.open_route(dst)?;
        let sender = TcpSender::with_retries(bytes, self.state.max_retries);
        let cold = FlowCold {
            path,
            dst,
            armed_epoch: u32::MAX,
            unroutable: false,
        };
        let slot = self.state.flows.insert(self.host, flow, sender, cold);
        self.drive_flow(flow, slot, |sender, now, actions| sender.open(now, actions));
        Some(flow)
    }

    /// Send one UDP datagram of `bytes` payload to `dst`, carrying the
    /// app-opaque `meta` word. Returns false when unreachable.
    pub fn send_datagram(&mut self, dst: NodeId, bytes: u32, meta: u64) -> bool {
        let Some((flow, path)) = self.open_route(dst) else {
            return false;
        };
        self.transmit(Packet {
            flow,
            meta,
            path,
            dst,
            seq: 0,
            size_bytes: bytes + HEADER_BYTES,
            hop: 0,
            kind: PacketKind::Datagram,
        });
        true
    }

    /// Arm an application timer that will fire `on_timer(host, token)`
    /// after `delay`.
    pub fn set_timer(&mut self, delay: SimTime, token: u64) {
        self.emitter
            .emit(delay, LpId(self.host.0), NetEvent::AppTimer { token });
    }

    /// Request a fluid (flow-level) background flow from this host to
    /// `dst` (see `crate::fluid`). The request travels to the fluid
    /// coordinator LP with the uniform [`FLUID_CONTROL_DELAY`];
    /// admission (routability) is decided there, so there is no
    /// immediate flow id. `peak_bps` (bits/s, matching link bandwidth
    /// units) caps the flow's demand; `0` means bottleneck-limited.
    pub fn start_fluid_flow(&mut self, dst: NodeId, bytes: u64, peak_bps: u64) {
        self.emitter.emit(
            FLUID_CONTROL_DELAY,
            LpId(FLUID_COORDINATOR.0),
            NetEvent::FluidStart {
                src: self.host,
                dst,
                bytes,
                peak_bps,
            },
        );
    }

    /// Resolve a route from this host to `dst` through the world's route
    /// table. Entries carry the fault-epoch index, so a reconvergence can
    /// never serve a pre-fault route; repeated pairs in the same epoch
    /// share one `Arc` and skip the resolver entirely. This is where
    /// routes enter the world and get their link slots: a resolver
    /// answer is accepted only if it has ≥ 2 nodes, runs from this host
    /// to `dst` and every hop is a link ([`SharedNet::resolve_route`],
    /// shared with the fluid path), so [`SimApi::transmit`] may index
    /// the slots it carries.
    ///
    /// Determinism: the host is the LP being handled, so its entries —
    /// and with them the hit/miss counters in `profile.route_cache` —
    /// see the same query sequence, in time order, at any thread count
    /// or partitioning.
    pub(super) fn route(&mut self, dst: NodeId) -> Option<Arc<[Hop]>> {
        let (shared, src, now) = (self.shared, self.host, self.now);
        if src == dst {
            return None;
        }
        let epoch = match &shared.faults {
            Some(f) => f.epoch_at(now) as u32,
            None => 0,
        };
        let (path, hit) = self
            .state
            .routes
            .get_or_resolve(epoch, src, dst, || shared.resolve_route(now, src, dst));
        let stats = &mut self.profile.route_cache;
        if hit {
            stats.hits += 1;
        } else {
            stats.misses += 1;
        }
        path
    }

    /// Resolve `dst` and issue this host's next flow id for traffic
    /// towards it; an unroutable destination is counted and yields
    /// `None`.
    fn open_route(&mut self, dst: NodeId) -> Option<(FlowId, Arc<[Hop]>)> {
        let Some(path) = self.route(dst) else {
            self.profile.unroutable += 1;
            return None;
        };
        let counter = &mut self.state.flow_counter[self.host.index()];
        let flow = FlowId::new(self.host, *counter);
        *counter += 1;
        Some((flow, path))
    }

    /// Put `pkt` on the wire at `node_at(hop) → node_at(hop+1)`, on the
    /// link slot its route carries for that hop. Applies
    /// store-and-forward serialization, FIFO queueing, and drop-tail
    /// loss; schedules the arrival at the next hop. Packets offered to a
    /// dead link or dead endpoint are counted as fault drops.
    #[expect(
        clippy::float_arithmetic,
        reason = "per-packet serialization and backlog of one link slot, computed from that packet's values alone in its LP's event order"
    )]
    pub(super) fn transmit(&mut self, mut pkt: Packet) {
        let (shared, now) = (self.shared, self.now);
        let hop = pkt.hop as usize;
        let slot = pkt.slot_at(hop) as usize;
        let link = slot / 2;
        let to = pkt.node_at(hop + 1);
        if let Some(f) = &shared.faults {
            let from = pkt.node_at(hop);
            if !f.is_link_up(LinkId(link as u32), now)
                || !f.is_node_up(from, now)
                || !f.is_node_up(to, now)
            {
                self.profile.fault_drops += 1;
                return;
            }
        }
        let params = &shared.links[link];

        // Fluid → packet coupling: once the coordinator has reported a
        // fluid aggregate for this slot, packets serialize at the residual
        // line rate (the fluid share is clamped so packets keep ≥ 1/16 of
        // the link) and the fluid share of the drop-tail buffer is charged
        // as standing occupancy. Unsubscribed slots — every slot in a
        // packet-only run — take the exact pre-fluid arithmetic, so pure
        // packet runs are bit-identical to what they were.
        let coupling = &mut self.state.coupling;
        let fluid = match coupling.fluid_bps.get(slot) {
            Some(&f) if f != u64::MAX => {
                let cap = params.cap_bytes_per_sec;
                Some(f.min(cap - cap / PACKET_FLOOR_DIV))
            }
            _ => None,
        };
        let (bandwidth_bps, buffer) = match fluid {
            Some(fl) => {
                let (cap, buf) = (params.cap_bytes_per_sec, params.buffer_bytes);
                let fluid_buf = ((buf as u128 * fl as u128) / cap as u128) as u64;
                ((cap - fl) as f64 * 8.0, buf - fluid_buf)
            }
            None => (params.bandwidth_bps, params.buffer_bytes),
        };

        let busy = &mut self.state.busy_until[slot];
        let depart = (*busy).max(now);
        // Bytes already queued = backlog time × (residual) line rate.
        let backlog_bytes = (depart.saturating_sub(now).as_secs_f64() * bandwidth_bps / 8.0) as u64;
        if backlog_bytes + pkt.size_bytes as u64 > buffer {
            self.profile.drops += 1;
            return;
        }
        let tx = SimTime::from_secs_f64(pkt.size_bytes as f64 * 8.0 / bandwidth_bps);
        *busy = depart + tx;
        self.profile.link_packets[link] += 1;
        if fluid.is_some() {
            // Packet → fluid coupling: feed the slot's load estimator.
            coupling.observe(
                params.cap_bytes_per_sec,
                slot,
                pkt.size_bytes as u64,
                now,
                self.emitter,
            );
        }

        let arrival_delay = (depart + tx + params.latency) - now;
        pkt.hop += 1;
        self.emitter
            .emit(arrival_delay, LpId(to.0), NetEvent::Arrive(pkt));
    }

    /// Advance the sender in `slot` by one `step` (open, ACK, timeout):
    /// turn the actions it produces into packets, report whether the
    /// flow ended and, while it stays active, re-arm its RTO timer.
    pub(super) fn drive_flow(
        &mut self,
        flow: FlowId,
        slot: usize,
        step: impl FnOnce(&mut TcpSender, SimTime, &mut Vec<SendAction>),
    ) -> FlowOutcome {
        // The scratch buffer is taken and returned empty, so the
        // steady-state hot path allocates nothing.
        let mut actions = std::mem::take(&mut self.state.action_scratch);
        step(&mut self.state.flows.hot[slot], self.now, &mut actions);
        let (path, dst) = {
            let cold = &self.state.flows.cold[slot];
            (cold.path.clone(), cold.dst)
        };
        let mut outcome = FlowOutcome::Active;
        for action in actions.drain(..) {
            match action {
                SendAction::Transmit { seq } => self.transmit(Packet {
                    flow,
                    meta: 0,
                    path: path.clone(),
                    dst,
                    seq,
                    // Every segment modeled at full MSS; final-segment
                    // byte-exactness does not affect load shaping.
                    size_bytes: MSS + HEADER_BYTES,
                    hop: 0,
                    kind: PacketKind::Data,
                }),
                SendAction::Complete => outcome = FlowOutcome::Completed,
                SendAction::Abort => outcome = FlowOutcome::Aborted,
            }
        }
        self.state.action_scratch = actions;
        if outcome == FlowOutcome::Active {
            // (Re-)arm the RTO timer when needed and not already armed
            // for the sender's current timer epoch.
            let sender = &self.state.flows.hot[slot];
            let armed_epoch = &mut self.state.flows.cold[slot].armed_epoch;
            if sender.needs_timer() && *armed_epoch != sender.timer_epoch {
                *armed_epoch = sender.timer_epoch;
                self.emitter.emit(
                    sender.rto,
                    LpId(self.host.0),
                    NetEvent::RtoTimer {
                        flow,
                        epoch: sender.timer_epoch,
                    },
                );
            }
        }
        outcome
    }
}

/// Application logic attached to hosts. Implementations keep any
/// per-host state internally, indexed by host id, and must touch only
/// the state of the host passed to each callback (LP locality).
pub trait AppLogic: Send {
    /// A TCP flow started by `host` completed (all data acknowledged).
    fn on_flow_complete(&mut self, host: NodeId, flow: FlowId, api: &mut SimApi<'_, '_>);

    /// An application timer armed via [`SimApi::set_timer`] fired.
    fn on_timer(&mut self, host: NodeId, token: u64, api: &mut SimApi<'_, '_>);

    /// A UDP datagram arrived at `host`, carrying the sender's `meta`.
    fn on_datagram(
        &mut self,
        _host: NodeId,
        _from_flow: FlowId,
        _payload_bytes: u32,
        _meta: u64,
        _api: &mut SimApi<'_, '_>,
    ) {
    }

    /// A TCP flow started by `host` gave up (retry budget exhausted,
    /// typically because a fault severed its path). Default: ignore.
    fn on_flow_aborted(
        &mut self,
        _host: NodeId,
        _flow: FlowId,
        _reason: AbortReason,
        _api: &mut SimApi<'_, '_>,
    ) {
    }

    /// A fluid background flow `src → dst` transferred all its bytes.
    /// Called at the fluid coordinator LP (`api.host()` is the
    /// coordinator, not `src`). Default: ignore.
    fn on_fluid_complete(
        &mut self,
        _src: NodeId,
        _flow: FlowId,
        _dst: NodeId,
        _api: &mut SimApi<'_, '_>,
    ) {
    }

    /// A fluid background flow was terminated by a fault with no
    /// surviving path. Called at the coordinator LP. Default: ignore.
    fn on_fluid_aborted(
        &mut self,
        _src: NodeId,
        _flow: FlowId,
        _dst: NodeId,
        _api: &mut SimApi<'_, '_>,
    ) {
    }
}

/// An [`AppLogic`] that does nothing (pure background-free forwarding).
#[derive(Debug, Clone, Copy, Default)]
pub struct NoApp;

impl AppLogic for NoApp {
    fn on_flow_complete(&mut self, _: NodeId, _: FlowId, _: &mut SimApi<'_, '_>) {}
    fn on_timer(&mut self, _: NodeId, _: u64, _: &mut SimApi<'_, '_>) {}
}

/// How one `SimApi::drive_flow` step left the flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum FlowOutcome {
    Active,
    Completed,
    Aborted,
}

#[cfg(test)]
mod tests {
    use super::super::fixtures::{dumbbell, dumbbell_net_answering, dumbbell_net_with_detour};
    use super::*;
    use crate::{Agent, NetSimBuilder};

    #[test]
    fn route_over_a_non_link_hop_is_unroutable_not_a_panic() {
        // `a → b` is answered `a, r1, b`: the second hop is not a link,
        // so forwarding it would look up a port r1 does not have.
        let (net, detour, a, b) = dumbbell_net_with_detour();
        let mut sim = NetSimBuilder::new(net, Arc::new(detour));
        let mut agent = Agent::new();
        agent.inject_tcp(SimTime::ZERO, a, b, 10_000);
        agent.inject_udp(SimTime::from_ms(1), a, b, 512);
        agent.inject_tcp(SimTime::ZERO, b, a, 10_000);
        sim.add_agent(agent);
        let out = sim.run_sequential(NoApp, SimTime::from_secs(5));
        assert_eq!(out.profile.unroutable, 2, "both a → b demands refused");
        assert_eq!(out.profile.completed_flows, 1, "b → a routes normally");
        // The refusal is cached like any other negative answer: the
        // datagram's lookup never reached the resolver again.
        assert_eq!(out.profile.route_cache.misses, 2);
        assert_eq!(out.profile.route_cache.hits, 1);
    }

    /// Runs a TCP flow and a datagram `a → b` and a TCP flow `b → a`
    /// with `a → b` answered `bogus(a, r1, b)`; returns the profile.
    fn run_answering(bogus: impl FnOnce(NodeId, NodeId, NodeId) -> Vec<NodeId>) -> ProfileData {
        let (net, detour, a, b) = dumbbell_net_answering(bogus);
        let mut sim = NetSimBuilder::new(net, Arc::new(detour));
        let mut agent = Agent::new();
        agent.inject_tcp(SimTime::ZERO, a, b, 10_000);
        agent.inject_udp(SimTime::from_ms(1), a, b, 512);
        agent.inject_tcp(SimTime::ZERO, b, a, 10_000);
        sim.add_agent(agent);
        sim.run_sequential(NoApp, SimTime::from_secs(5)).profile
    }

    #[test]
    fn route_answer_without_a_hop_is_unroutable_not_a_panic() {
        for (what, bogus) in [
            (
                "source alone",
                (|a, _, _| vec![a]) as fn(NodeId, NodeId, NodeId) -> Vec<NodeId>,
            ),
            ("empty", |_, _, _| Vec::new()),
        ] {
            let profile = run_answering(bogus);
            assert_eq!(profile.unroutable, 2, "{what}: both a → b demands refused");
            assert_eq!(profile.completed_flows, 1, "{what}: b → a routes normally");
        }
    }

    #[test]
    fn route_answer_between_other_nodes_is_unroutable() {
        // Every hop is a link, but the answer ends at r1 instead of b,
        // or starts at r1 instead of a: delivering it would hand b's
        // traffic to another host.
        for (what, bogus) in [
            (
                "ends short",
                (|a, r1, _| vec![a, r1]) as fn(NodeId, NodeId, NodeId) -> Vec<NodeId>,
            ),
            ("starts elsewhere", |_, r1, b| vec![r1, NodeId(r1.0 + 1), b]),
        ] {
            let profile = run_answering(bogus);
            assert_eq!(profile.unroutable, 2, "{what}: both a → b demands refused");
            assert_eq!(profile.completed_flows, 1, "{what}: only b → a completes");
            assert_eq!(profile.route_cache.misses, 2, "{what}: refusal is cached");
        }
    }

    /// On a timer at host `h` with token `t`, starts a fluid flow
    /// `h → NodeId(t)`; records fluid completions.
    #[derive(Clone, Default)]
    struct FluidOnTimer(Vec<(NodeId, NodeId)>);

    impl AppLogic for FluidOnTimer {
        fn on_flow_complete(&mut self, _: NodeId, _: FlowId, _: &mut SimApi<'_, '_>) {}
        fn on_timer(&mut self, _: NodeId, token: u64, api: &mut SimApi<'_, '_>) {
            api.start_fluid_flow(NodeId(token as u32), 500_000, 0);
        }
        fn on_fluid_complete(
            &mut self,
            src: NodeId,
            _: FlowId,
            dst: NodeId,
            api: &mut SimApi<'_, '_>,
        ) {
            assert_eq!(api.host(), FLUID_COORDINATOR);
            self.0.push((src, dst));
        }
    }

    #[test]
    fn fluid_flow_started_from_a_callback_completes_in_both_executors() {
        let (shared, a, b) = dumbbell(8e6);
        let mut sim = NetSimBuilder::new(shared.net.clone(), shared.resolver.clone());
        let token = u64::from(b.0);
        sim.add_initial(SimTime::from_ms(3), LpId(a.0), NetEvent::AppTimer { token });
        let end = SimTime::from_secs(2);

        let seq = sim.run_sequential(FluidOnTimer::default(), end);
        assert_eq!(seq.apps[0].0, vec![(a, b)]);
        assert_eq!(seq.profile.fluid.started, 1);
        assert_eq!(seq.profile.fluid.completed, 1);

        // Cut between r1 and r2; the timer fires in the partition that
        // also owns the coordinator, the flow's far end in the other.
        let assignment = [0u32, 0, 1, 1];
        let window = shared.safe_parallel_window(&assignment);
        let par = sim
            .try_run_parallel(FluidOnTimer::default(), end, window, &assignment, 2)
            .expect("window within lookahead");
        let completions: Vec<_> = par.apps.iter().flat_map(|app| app.0.clone()).collect();
        assert_eq!(completions, vec![(a, b)]);
        assert_eq!(par.profile, seq.profile);
    }
}
