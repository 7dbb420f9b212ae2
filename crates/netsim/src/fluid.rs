//! Fluid (flow-level) background traffic coexisting with packet-level
//! TCP on the same links (DESIGN.md §3 item 16).
//!
//! A fluid flow is not a packet train: it is a *rate on a path*. The
//! only events it generates are flow start, flow finish, and
//! bottleneck-rate recomputation — so a background flow that would cost
//! `2·hops` packet events per MSS round-trip costs a handful of events
//! over its whole lifetime. Rates are shared max-min fairly per
//! bottleneck link by an integer water-filling solver; all schedule-
//! ordered arithmetic is fixed-point (`u64` bytes/s rates, `u128`
//! byte-nanosecond residuals), so results are bit-identical at any
//! thread count and simlint's float-order rule (D4) stays clean.
//!
//! **Placement.** All solver state lives at one coordinator LP
//! ([`FLUID_COORDINATOR`], node 0): max-min fairness is a global fixed
//! point over every flow sharing a bottleneck, which cannot be computed
//! under the engine's LP-locality contract unless one LP owns it.
//! Every fluid control event targets (or originates at) the
//! coordinator, making sequential ↔ parallel bit-identity structural
//! rather than incidental.
//!
//! **Records.** Each live flow is one [`FluidFlow`] record in the
//! coordinator's slab, and a snapshot's [`FluidWorldState`] carries
//! those records as they are. A demand has one sentinel: `peak_bps ==
//! 0` means bottleneck-limited wherever a flow is started
//! ([`Agent::inject_fluid_capped`](crate::Agent::inject_fluid_capped),
//! [`SimApi::start_fluid_flow`](crate::SimApi::start_fluid_flow),
//! [`NetEvent::FluidStart`]), and the record stores it as a demand of
//! `u64::MAX` bytes/s.
//!
//! **Coupling.** The two fidelities interact in both directions:
//!
//! * fluid → packet: after each solve the coordinator reports the
//!   aggregate fluid rate per (link, direction) to the LP that
//!   serializes packets onto it ([`NetEvent::FluidCapUpdate`]). The
//!   packet path subtracts that rate from the line rate and charges the
//!   fluid share against the drop-tail buffer (see `transmit`).
//! * packet → fluid: once subscribed (first cap update seen), the
//!   transmitting LP estimates its packet load per link direction over
//!   [`FLUID_EST_WINDOW`] virtual-time windows and reports level
//!   changes back ([`NetEvent::FluidPacketLoad`]); the solver shares
//!   only the capacity packets leave behind.
//!
//! Both directions keep a `1/16` floor of the line rate for the other
//! fidelity so neither can starve the other into silence (a starved
//! side would stop generating the very events that feed the estimate).
//!
//! **Event economy.** Stored rates are always exact; completion alarms
//! are lazy. A rate *decrease* does not reschedule the armed
//! [`NetEvent::FluidFinish`] — the alarm fires early, notices the flow
//! is unfinished, and re-arms at the exact current rate. A rate
//! *increase* reschedules only past 25 % hysteresis
//! (`REARM_NUM / REARM_DEN` = 5/4), bounding completion lateness to
//! the same factor (quantified by the `fluid_fidelity` bench). Flows
//! whose fair share is zero park without any pending event and are
//! re-armed by the next solve that touches their links.
//!
//! **Lookahead.** All cross-LP fluid control events use one uniform
//! delay, [`FLUID_CONTROL_DELAY`], *independent of partition
//! placement* — a placement-dependent delay would change event times
//! between sequential and parallel runs. Parallel executions of worlds
//! carrying fluid traffic must therefore use a synchronization window
//! `≤ min(MLL, FLUID_CONTROL_DELAY)`; a larger window fails with the
//! engine's structured `LookaheadViolation`, never silent divergence.

use crate::packet::{FlowId, Hop, NetEvent};
use crate::profiling::ProfileData;
use crate::world::{validate_route, SharedNet};
use massf_engine::{Emitter, LpId, SimTime};
use massf_faults::FaultKind;
use massf_topology::{MassfError, NodeId};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::sync::Arc;

/// The LP that owns all fluid solver state. Node 0 exists in every
/// non-empty topology.
pub const FLUID_COORDINATOR: NodeId = NodeId(0);

/// Uniform virtual-time delay for every cross-LP fluid control event
/// (cap updates, packet-load reports, API-initiated starts). Uniformity
/// is a determinism requirement, not a tuning knob: the delay must not
/// depend on where partition boundaries fall. Parallel windows must be
/// `≤` this value when fluid traffic is present.
pub const FLUID_CONTROL_DELAY: SimTime = SimTime::from_ms(1);

/// Virtual-time window over which transmitting LPs estimate their
/// packet load per link direction for the packet → fluid feedback.
pub const FLUID_EST_WINDOW: SimTime = SimTime::from_ms(10);

/// Stored demand (bytes/s) of a flow started with `peak_bps == 0`:
/// it takes whatever its bottleneck grants.
const FLUID_UNBOUNDED: u64 = u64::MAX;

/// Eager re-arm hysteresis: a rate increase reschedules the armed
/// finish alarm only when `new ≥ armed · REARM_NUM / REARM_DEN`.
const REARM_NUM: u64 = 5;
const REARM_DEN: u64 = 4;

/// Fraction of the line rate each fidelity keeps from the other:
/// packets never see less than `cap / PACKET_FLOOR_DIV`, and the fluid
/// solver never shares less than the same floor.
pub(crate) const PACKET_FLOOR_DIV: u64 = 16;

/// Aggregate-rate report quantum divisor: the coordinator re-reports a
/// link direction's fluid aggregate only when it moved by more than
/// `cap / CAP_REPORT_QUANTUM_DIV` (or crossed zero) since the last
/// report, keeping the fluid → packet event stream sparse.
const CAP_REPORT_QUANTUM_DIV: u64 = 64;

const NS_PER_SEC: u128 = 1_000_000_000;

/// Fluid-model profile counters, all owned by the coordinator LP (so
/// per-partition merges are plain sums with no double counting).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FluidStats {
    /// Fluid flows admitted (routable at start time).
    pub started: u64,
    /// Flows that transferred all their bytes.
    pub completed: u64,
    /// Flows terminated by a fault with no surviving path.
    pub aborted: u64,
    /// Fault-driven path replacements on live flows.
    pub rerouted: u64,
    /// Start requests with no route (or `src == dst`).
    pub unroutable: u64,
    /// Per-flow rate assignments changed by the solver.
    pub rate_recomputes: u64,
    /// Link directions water-filled (closure size summed over solves).
    pub bottleneck_recomputes: u64,
    /// Finish alarms armed (initial arms plus lazy/eager re-arms).
    pub finish_arms: u64,
    /// Fluid → packet residual-capacity reports emitted.
    pub cap_updates: u64,
    /// Packet → fluid load reports received.
    pub packet_load_updates: u64,
}

impl FluidStats {
    /// Accumulate another partition's counters. `other` is destructured
    /// without `..`, so a counter missing here does not compile.
    pub fn merge(&mut self, other: &FluidStats) {
        let FluidStats {
            started,
            completed,
            aborted,
            rerouted,
            unroutable,
            rate_recomputes,
            bottleneck_recomputes,
            finish_arms,
            cap_updates,
            packet_load_updates,
        } = other;
        self.started += started;
        self.completed += completed;
        self.aborted += aborted;
        self.rerouted += rerouted;
        self.unroutable += unroutable;
        self.rate_recomputes += rate_recomputes;
        self.bottleneck_recomputes += bottleneck_recomputes;
        self.finish_arms += finish_arms;
        self.cap_updates += cap_updates;
        self.packet_load_updates += packet_load_updates;
    }
}

/// One live fluid flow: the coordinator slab's record, which a
/// [`FluidWorldState`] carries as is. All rates are bytes per second;
/// `remaining_bns` is byte-nanoseconds (`bytes · 10⁹`), the fixed-point
/// residual the solver decrements by `rate · Δt_ns`.
#[derive(Debug, Clone, PartialEq)]
pub struct FluidFlow {
    /// Flow id (owned by the coordinator's counter space).
    pub flow: FlowId,
    /// Interned forward route; the solver walks its hops' slots, never
    /// the topology. A snapshot carries only its nodes, so a decoded
    /// one holds [`Hop::END`] slots until restore re-interns it.
    pub path: Arc<[Hop]>,
    /// Demand cap, bytes/s (`u64::MAX` = bottleneck-limited, the
    /// demand of a flow started with `peak_bps == 0`).
    pub demand_bps: u64,
    /// Current max-min rate, bytes/s.
    pub rate_bps: u64,
    /// Rate the pending finish alarm was computed at (0 = parked, no
    /// pending alarm).
    pub armed_rate_bps: u64,
    /// Residual transfer, byte-nanoseconds.
    pub remaining_bns: u128,
    /// Virtual time `remaining_bns` was last settled at.
    pub updated: SimTime,
    /// Finish-alarm epoch; stale alarms are ignored.
    pub epoch: u32,
}

/// Canonical image of all fluid state, independent of slab slot
/// recycling: flows sorted by id, coordinator-side per-slot arrays
/// (`packet_bps`, `reported_bps`) either empty (fluid never active) or
/// exactly `2·links` long. Link membership, per-flow slot lists,
/// aggregates, and the path memo are derived and rebuilt on restore.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FluidWorldState {
    /// Live fluid flows, sorted by flow id.
    pub flows: Vec<FluidFlow>,
    /// Last packet-load report per (link, direction), bytes/s.
    pub packet_bps: Vec<u64>,
    /// Last aggregate fluid rate reported to the packet side per
    /// (link, direction); `u64::MAX` = never reported.
    pub reported_bps: Vec<u64>,
}

impl FluidWorldState {
    /// True when there is no fluid state to carry (the world never
    /// created a coordinator).
    pub fn is_empty(&self) -> bool {
        self.flows.is_empty() && self.packet_bps.is_empty() && self.reported_bps.is_empty()
    }
}

/// Slab of live fluid flows: records indexed by slot, freed slots
/// recycled LIFO, and a sorted id → slot index. Slot numbers never leak
/// into events or exports, so recycling order cannot affect results.
#[derive(Default)]
struct FluidSlab {
    flows: Vec<FluidFlow>,
    free: Vec<u32>,
    by_id: BTreeMap<u64, u32>,
}

/// All fluid solver state; lives inside the `NodeStates` of whichever
/// world owns [`FLUID_COORDINATOR`] and is only touched while handling
/// events at that LP.
pub(crate) struct FluidState {
    slab: FluidSlab,
    /// Line rate per (link, direction), bytes/s, derived once from the
    /// topology (`≥ 1` so integer shares never divide by zero).
    cap: Vec<u64>,
    /// Last packet-load report per slot, bytes/s.
    packet_bps: Vec<u64>,
    /// Aggregate fluid rate per slot (derived; rebuilt on restore).
    agg_bps: Vec<u64>,
    /// Last aggregate reported to the packet side; `u64::MAX` = never.
    reported_bps: Vec<u64>,
    /// Member flow slots per (link, direction).
    members: Vec<Vec<u32>>,
    /// Path memo for the coordinator (the world's sharded route cache
    /// is owned per *source* LP and must not be touched from here).
    /// Cleared on fault-epoch change.
    path_memo: BTreeMap<u64, Arc<[Hop]>>,
    memo_epoch: u32,
    /// Generation-stamped scratch marks for closure computation (no
    /// per-solve set allocation at million-flow scale).
    link_mark: Vec<u32>,
    flow_mark: Vec<u32>,
    /// Closure-local index of each marked flow slot / link slot, valid
    /// for the current `mark_gen` only.
    flow_local: Vec<u32>,
    link_local: Vec<u32>,
    mark_gen: u32,
    /// Link slots the next solve starts its closure from.
    seeds: Vec<u32>,
    scratch: Scratch,
    /// Test oracle switch: water-fill by the linear scan in `tests`.
    #[cfg(test)]
    scan_oracle: Option<Arc<SharedNet>>,
}

/// Per-solve buffers, kept between solves so the steady state
/// allocates nothing. Link-indexed ones are indexed like `links`,
/// flow-indexed ones like `fl`.
#[derive(Default)]
struct Scratch {
    /// Closure link slots, sorted.
    links: Vec<u32>,
    /// Closure flows as `(flow id, slab slot)`, sorted.
    fl: Vec<(u64, u32)>,
    avail: Vec<u64>,
    /// Unfixed flows per link.
    cnt: Vec<u64>,
    fixed: Vec<bool>,
    newrate: Vec<u64>,
    by_demand: Vec<(u64, u32)>,
    /// Lazy min-heap of `(share, closure link index)`; an entry is
    /// stale once its link's share has moved on.
    heap: BinaryHeap<Reverse<(u64, u32)>>,
    /// Share of each link's newest heap entry.
    queued: Vec<u64>,
    /// Links whose share the current round changed (with repeats).
    touched: Vec<u32>,
    #[cfg(test)]
    heap_pushes: u64,
}

/// The (link, direction) slots a route's hops leave on, source first.
fn route_slots(route: &[Hop]) -> impl Iterator<Item = u32> + '_ {
    route[..route.len().saturating_sub(1)]
        .iter()
        .map(|hop| hop.slot)
}

/// The node that serializes onto slot `s` (`s = link·2 + dir`; dir 0
/// sends from `link.a`).
pub(crate) fn slot_sender(shared: &SharedNet, s: u32) -> NodeId {
    let link = &shared.net.links[(s / 2) as usize];
    if s.is_multiple_of(2) {
        link.a
    } else {
        link.b
    }
}

impl FluidState {
    pub(crate) fn new(shared: &SharedNet) -> Self {
        let slots = shared.net.links.len() * 2;
        let mut cap = Vec::with_capacity(slots);
        for link in &shared.links {
            cap.push(link.cap_bytes_per_sec);
            cap.push(link.cap_bytes_per_sec);
        }
        FluidState {
            slab: FluidSlab::default(),
            cap,
            packet_bps: vec![0; slots],
            agg_bps: vec![0; slots],
            reported_bps: vec![u64::MAX; slots],
            members: vec![Vec::new(); slots],
            path_memo: BTreeMap::new(),
            memo_epoch: 0,
            link_mark: vec![0; slots],
            flow_mark: Vec::new(),
            flow_local: Vec::new(),
            link_local: vec![0; slots],
            mark_gen: 0,
            seeds: Vec::new(),
            scratch: Scratch::default(),
            #[cfg(test)]
            scan_oracle: None,
        }
    }

    /// Capacity the solver may share on slot `s`: line rate minus the
    /// reported packet load, floored at `cap / PACKET_FLOOR_DIV` so
    /// saturating packet traffic cannot park fluid flows forever (a
    /// parked link with no packet events would never be re-reported).
    fn cap_avail(&self, s: usize) -> u64 {
        self.cap[s]
            .saturating_sub(self.packet_bps[s])
            .max(self.cap[s] / PACKET_FLOOR_DIV)
    }

    /// Resolve `src → dst` against the fault epoch at `now` through the
    /// coordinator's own memo (interns one route per pair per epoch,
    /// with [`SharedNet::resolve_route`] as the packet path does). A
    /// path with a hop that is not a link is no route.
    fn resolve(
        &mut self,
        shared: &SharedNet,
        now: SimTime,
        src: NodeId,
        dst: NodeId,
    ) -> Option<Arc<[Hop]>> {
        let epoch = match &shared.faults {
            Some(f) => f.epoch_at(now) as u32,
            None => 0,
        };
        if epoch != self.memo_epoch {
            self.path_memo.clear();
            self.memo_epoch = epoch;
        }
        let key = ((src.0 as u64) << 32) | dst.0 as u64;
        if let Some(p) = self.path_memo.get(&key) {
            return Some(p.clone());
        }
        let route = shared.resolve_route(now, src, dst)?;
        self.path_memo.insert(key, route.clone());
        Some(route)
    }

    /// Advance `remaining_bns` to `now` at the exact stored rate.
    fn settle(&mut self, f: usize, now: SimTime) {
        let fl = &mut self.slab.flows[f];
        let dt = now.saturating_sub(fl.updated).as_ns();
        if dt > 0 && fl.rate_bps > 0 {
            let done = (fl.rate_bps as u128) * (dt as u128);
            fl.remaining_bns = fl.remaining_bns.saturating_sub(done);
        }
        fl.updated = now;
    }

    /// Arm the finish alarm for flow slot `f` at its current rate.
    fn arm(
        &mut self,
        f: usize,
        now: SimTime,
        profile: &mut ProfileData,
        out: &mut Emitter<'_, NetEvent>,
    ) {
        let fl = &mut self.slab.flows[f];
        let r = fl.rate_bps;
        debug_assert!(r > 0, "arming a rate-0 flow would never fire");
        fl.epoch = fl.epoch.wrapping_add(1);
        fl.armed_rate_bps = r;
        let d = fl.remaining_bns.div_ceil(r as u128);
        let headroom = (u64::MAX - now.as_ns()) as u128;
        let delay = SimTime::from_ns(u64::try_from(d.min(headroom)).unwrap_or(u64::MAX));
        out.emit(
            delay,
            LpId(FLUID_COORDINATOR.0),
            NetEvent::FluidFinish {
                flow: fl.flow,
                epoch: fl.epoch,
            },
        );
        profile.fluid.finish_arms += 1;
    }

    /// Store `rec` in a recycled slot (or a new one), index it by id,
    /// and route it. Returns the slot.
    fn insert(&mut self, rec: FluidFlow) -> usize {
        let id = rec.flow.0;
        let f = match self.slab.free.pop() {
            Some(s) => {
                self.slab.flows[s as usize] = rec;
                s as usize
            }
            None => {
                self.slab.flows.push(rec);
                self.flow_mark.push(0);
                self.flow_local.push(0);
                self.slab.flows.len() - 1
            }
        };
        self.slab.by_id.insert(id, f as u32);
        self.add_membership(f);
        f
    }

    /// Drop flow slot `f` (finished or aborted) and free the slot.
    fn release(&mut self, f: usize) {
        self.remove_membership(f);
        let fl = &mut self.slab.flows[f];
        self.slab.by_id.remove(&fl.flow.0);
        fl.rate_bps = 0;
        fl.armed_rate_bps = 0;
        fl.path = Arc::from([]);
        self.slab.free.push(f as u32);
    }

    /// Enter flow slot `f` in the member lists of its route's links and
    /// seed the next solve with them.
    fn add_membership(&mut self, f: usize) {
        let route = &self.slab.flows[f].path;
        for s in route_slots(route) {
            self.members[s as usize].push(f as u32);
        }
        self.seeds.extend(route_slots(route));
    }

    fn remove_membership(&mut self, f: usize) {
        let route = &self.slab.flows[f].path;
        for s in route_slots(route) {
            self.members[s as usize].retain(|&m| m != f as u32);
        }
        self.seeds.extend(route_slots(route));
    }

    /// Handle [`NetEvent::FluidStart`].
    #[expect(
        clippy::too_many_arguments,
        reason = "one FluidStart event carries every flow parameter"
    )]
    pub(crate) fn start(
        &mut self,
        shared: &SharedNet,
        now: SimTime,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        peak_bps: u64,
        counter: &mut u32,
        profile: &mut ProfileData,
        out: &mut Emitter<'_, NetEvent>,
    ) -> Option<FlowId> {
        if src == dst {
            profile.fluid.unroutable += 1;
            return None;
        }
        let Some(route) = self.resolve(shared, now, src, dst) else {
            profile.fluid.unroutable += 1;
            return None;
        };
        let flow = FlowId::new(FLUID_COORDINATOR, *counter);
        *counter += 1;
        profile.fluid.started += 1;
        self.insert(FluidFlow {
            flow,
            path: route,
            // peak_bps is bits/s at the API surface (matching link
            // bandwidth), 0 for bottleneck-limited; stored demand is
            // bytes/s, floored at 1 so a bounded flow can always finish.
            demand_bps: match peak_bps {
                0 => FLUID_UNBOUNDED,
                bits => (bits / 8).max(1),
            },
            rate_bps: 0,
            armed_rate_bps: 0,
            remaining_bns: bytes as u128 * NS_PER_SEC,
            updated: now,
            epoch: 0,
        });
        self.solve(shared, now, profile, out);
        Some(flow)
    }

    /// Handle [`NetEvent::FluidFinish`]; returns `(src, dst)` when the
    /// flow actually completed (for the app callback).
    pub(crate) fn finish(
        &mut self,
        shared: &SharedNet,
        now: SimTime,
        flow: FlowId,
        epoch: u32,
        profile: &mut ProfileData,
        out: &mut Emitter<'_, NetEvent>,
    ) -> Option<(NodeId, NodeId)> {
        let f = *self.slab.by_id.get(&flow.0)? as usize;
        if self.slab.flows[f].epoch != epoch {
            return None; // stale alarm: the flow was re-armed since
        }
        self.settle(f, now);
        let fl = &self.slab.flows[f];
        if fl.remaining_bns == 0 {
            let (src, dst) = (fl.path[0].node, fl.path[fl.path.len() - 1].node);
            self.release(f);
            profile.fluid.completed += 1;
            self.solve(shared, now, profile, out);
            Some((src, dst))
        } else if fl.rate_bps > 0 {
            // Early alarm (the rate dropped since arming, lazily):
            // re-arm at the exact current rate.
            self.arm(f, now, profile, out);
            None
        } else {
            // Fair share is currently zero: park. The next solve that
            // touches this flow's links re-arms it.
            self.slab.flows[f].armed_rate_bps = 0;
            None
        }
    }

    /// Handle [`NetEvent::FluidPacketLoad`].
    pub(crate) fn packet_load(
        &mut self,
        shared: &SharedNet,
        now: SimTime,
        slot: u32,
        bps: u64,
        profile: &mut ProfileData,
        out: &mut Emitter<'_, NetEvent>,
    ) {
        let s = slot as usize;
        if s >= self.packet_bps.len() {
            return; // validated on snapshot load; backstop for in-run events
        }
        profile.fluid.packet_load_updates += 1;
        if self.packet_bps[s] == bps {
            return;
        }
        self.packet_bps[s] = bps;
        if self.members[s].is_empty() {
            return;
        }
        self.seeds.push(slot);
        self.solve(shared, now, profile, out);
    }

    /// Handle [`NetEvent::FluidFault`]: reroute or terminate every
    /// fluid flow traversing the failed element, then re-share. Returns
    /// the aborted flows as `(flow, src, dst)`, in flow-id order.
    pub(crate) fn fault(
        &mut self,
        shared: &SharedNet,
        now: SimTime,
        kind: FaultKind,
        profile: &mut ProfileData,
        out: &mut Emitter<'_, NetEvent>,
    ) -> Vec<(FlowId, NodeId, NodeId)> {
        // Affected flows: members of the failed element's link
        // directions. Restores are deliberately no-ops — live flows
        // keep their (still valid) detour paths, mirroring packet TCP,
        // which also fails over only on loss. Adjacency failures cannot
        // be localized to links, so every flow re-resolves.
        match kind {
            FaultKind::LinkDown(l) => self.seeds.extend([l.0 * 2, l.0 * 2 + 1]),
            FaultKind::RouterCrash(n) => {
                for &s in shared.outgoing_slots(n) {
                    self.seeds.extend([s & !1, s | 1]);
                }
            }
            FaultKind::AsAdjacencyFail { .. } => {}
            FaultKind::LinkUp(_)
            | FaultKind::RouterRecover(_)
            | FaultKind::AsAdjacencyRestore { .. } => return Vec::new(),
        }
        let affected: Vec<(u64, u32)> = match kind {
            FaultKind::AsAdjacencyFail { .. } => self
                .slab
                .by_id
                .iter()
                .map(|(&id, &slot)| (id, slot))
                .collect(),
            _ => {
                let mut v: Vec<(u64, u32)> = Vec::new();
                for &s in &self.seeds {
                    if let Some(m) = self.members.get(s as usize) {
                        v.extend(m.iter().map(|&f| (self.slab.flows[f as usize].flow.0, f)));
                    }
                }
                v.sort_unstable();
                v.dedup();
                v
            }
        };
        let mut aborted = Vec::new();
        for &(_, fslot) in &affected {
            let f = fslot as usize;
            self.settle(f, now);
            let old = self.slab.flows[f].path.clone();
            let (src, dst) = (old[0].node, old[old.len() - 1].node);
            match self.resolve(shared, now, src, dst) {
                Some(new) if new == old => {}
                Some(new) => {
                    self.remove_membership(f);
                    self.slab.flows[f].path = new;
                    self.add_membership(f);
                    profile.fluid.rerouted += 1;
                }
                None => {
                    self.release(f);
                    profile.fluid.aborted += 1;
                    aborted.push((self.slab.flows[f].flow, src, dst));
                }
            }
        }
        if !self.seeds.is_empty() {
            self.solve(shared, now, profile, out);
        }
        aborted
    }

    /// Recompute max-min fair rates over the closure of `self.seeds`
    /// (consumed): starting from the seed link directions, alternate
    /// link → member flows → their path links to a fixed point, settle
    /// every closure flow, then water-fill with a monotone integer
    /// level. Emission order is canonical (finish alarms in flow-id
    /// order, cap updates in slot order), so slab slot recycling can
    /// never reorder events. Costs O(closure hops · log), walking only
    /// cached slot lists.
    fn solve(
        &mut self,
        shared: &SharedNet,
        now: SimTime,
        profile: &mut ProfileData,
        out: &mut Emitter<'_, NetEvent>,
    ) {
        // 1. Closure (generation-stamped marks; no per-solve sets).
        self.mark_gen = self.mark_gen.wrapping_add(1);
        if self.mark_gen == 0 {
            // Wrapped: stale marks could alias; reset and burn gen 0.
            self.link_mark.iter_mut().for_each(|m| *m = 0);
            self.flow_mark.iter_mut().for_each(|m| *m = 0);
            self.mark_gen = 1;
        }
        let gen = self.mark_gen;
        let mut w = std::mem::take(&mut self.scratch);
        w.links.clear();
        w.fl.clear();
        for s in self.seeds.drain(..) {
            if let Some(m) = self.link_mark.get_mut(s as usize) {
                if *m != gen {
                    *m = gen;
                    w.links.push(s);
                }
            }
        }
        let mut i = 0;
        while i < w.links.len() {
            for &f in &self.members[w.links[i] as usize] {
                let f = f as usize;
                if self.flow_mark[f] != gen {
                    self.flow_mark[f] = gen;
                    w.fl.push((self.slab.flows[f].flow.0, f as u32));
                    for slot in route_slots(&self.slab.flows[f].path) {
                        let m = &mut self.link_mark[slot as usize];
                        if *m != gen {
                            *m = gen;
                            w.links.push(slot);
                        }
                    }
                }
            }
            i += 1;
        }
        w.links.sort_unstable();
        for (li, &s) in w.links.iter().enumerate() {
            self.link_local[s as usize] = li as u32;
        }

        // 2. Canonical flow order + closure-local indices.
        w.fl.sort_unstable();
        for (fi, &(_, f)) in w.fl.iter().enumerate() {
            self.flow_local[f as usize] = fi as u32;
            self.settle(f as usize, now);
        }

        // 3. New rates, indexed like `w.fl`.
        self.water_fill(&mut w);

        // 4. Apply rates and (re-)arm finish alarms, flow-id order.
        for (fi, &(_, f)) in w.fl.iter().enumerate() {
            let f = f as usize;
            let r = w.newrate[fi];
            let fl = &mut self.slab.flows[f];
            if r != fl.rate_bps {
                fl.rate_bps = r;
                profile.fluid.rate_recomputes += 1;
            }
            let armed = fl.armed_rate_bps;
            // Lazy on decreases (the pending alarm fires early and
            // re-arms exactly); eager past 25 % hysteresis on
            // increases; always on wake-from-park.
            if r > 0 && (armed == 0 || r >= (armed / REARM_DEN).saturating_mul(REARM_NUM)) {
                self.arm(f, now, profile, out);
            }
        }

        // 5. Refresh aggregates; report level changes, slot order.
        profile.fluid.bottleneck_recomputes += w.links.len() as u64;
        for &s in &w.links {
            let s = s as usize;
            let mut agg = 0u64;
            for &f in &self.members[s] {
                agg = agg.saturating_add(self.slab.flows[f as usize].rate_bps);
            }
            self.agg_bps[s] = agg;
            let reported = self.reported_bps[s];
            let quantum = (self.cap[s] / CAP_REPORT_QUANTUM_DIV).max(1);
            if reported == u64::MAX
                || agg.abs_diff(reported) >= quantum
                || (agg == 0) != (reported == 0)
            {
                self.reported_bps[s] = agg;
                profile.fluid.cap_updates += 1;
                out.emit(
                    FLUID_CONTROL_DELAY,
                    LpId(slot_sender(shared, s as u32).0),
                    NetEvent::FluidCapUpdate {
                        slot: s as u32,
                        fluid_bps: agg,
                    },
                );
            }
        }
        self.scratch = w;
    }

    /// Max-min water-fill over the closure in `w` (`links`, `fl` and
    /// the `*_local` indices are set). Demands ascend once, and each
    /// round either fixes the globally smallest unfixed demand (it is
    /// ≤ every fair share, so demand-limited) or saturates the
    /// minimum-share link — smallest `(share, link index)`, peeked so a
    /// demand round leaves it queued — fixing all its unfixed members
    /// at the floor share. Every round fixes ≥ 1 flow.
    fn water_fill(&self, w: &mut Scratch) {
        #[cfg(test)]
        if let Some(shared) = &self.scan_oracle {
            w.newrate = tests::water_fill_scan(self, shared, &w.links, &w.fl);
            return;
        }
        w.avail.clear();
        w.cnt.clear();
        w.queued.clear();
        w.heap.clear();
        for (li, &s) in w.links.iter().enumerate() {
            w.avail.push(self.cap_avail(s as usize));
            // Every member of a closure link is a closure flow.
            w.cnt.push(self.members[s as usize].len() as u64);
            let share = w.avail[li].checked_div(w.cnt[li]);
            w.queued.push(share.unwrap_or(u64::MAX));
            w.heap.extend(share.map(|sh| Reverse((sh, li as u32))));
        }
        w.fixed.clear();
        w.fixed.resize(w.fl.len(), false);
        w.newrate.clear();
        w.newrate.resize(w.fl.len(), 0);
        w.by_demand.clear();
        let demands = (w.fl.iter().enumerate())
            .map(|(fi, &(_, f))| (self.slab.flows[f as usize].demand_bps, fi as u32));
        w.by_demand.extend(demands);
        w.by_demand.sort_unstable();
        let (mut dp, mut left) = (0usize, w.fl.len());
        while left > 0 {
            while w.heap.peek().is_some_and(|&Reverse((share, li))| {
                w.avail[li as usize].checked_div(w.cnt[li as usize]) != Some(share)
            }) {
                w.heap.pop();
            }
            let (min_share, min_link) = w.heap.peek().map_or((u64::MAX, u32::MAX), |e| e.0);
            debug_assert!(min_link != u32::MAX, "every flow traverses ≥ 1 link");
            while dp < w.by_demand.len() && w.fixed[w.by_demand[dp].1 as usize] {
                dp += 1;
            }
            let mut fix = |fi: usize, r: u64| {
                if !std::mem::replace(&mut w.fixed[fi], true) {
                    w.newrate[fi] = r;
                    left -= 1;
                    for s in route_slots(&self.slab.flows[w.fl[fi].1 as usize].path) {
                        let li = self.link_local[s as usize];
                        w.avail[li as usize] = w.avail[li as usize].saturating_sub(r);
                        w.cnt[li as usize] = w.cnt[li as usize].saturating_sub(1);
                        w.touched.push(li);
                    }
                }
            };
            if dp < w.by_demand.len() && w.by_demand[dp].0 <= min_share {
                fix(w.by_demand[dp].1 as usize, w.by_demand[dp].0);
            } else {
                for &f in &self.members[w.links[min_link as usize] as usize] {
                    fix(self.flow_local[f as usize] as usize, min_share);
                }
            }
            // Queue each changed share once per round, not per fix.
            for li in w.touched.drain(..) {
                let l = li as usize;
                match w.avail[l].checked_div(w.cnt[l]) {
                    Some(share) if share != w.queued[l] => {
                        w.queued[l] = share;
                        w.heap.push(Reverse((share, li)));
                        #[cfg(test)]
                        {
                            w.heap_pushes += 1;
                        }
                    }
                    _ => {}
                }
            }
        }
    }

    /// Canonical export (see [`FluidWorldState`]): the live records in
    /// id order.
    pub(crate) fn export(&self) -> FluidWorldState {
        let flows = self.slab.by_id.values();
        FluidWorldState {
            flows: flows
                .map(|&f| self.slab.flows[f as usize].clone())
                .collect(),
            packet_bps: self.packet_bps.clone(),
            reported_bps: self.reported_bps.clone(),
        }
    }

    /// Rebuild from a canonical state, validated as hostile input.
    /// Slots are assigned in sorted flow-id order, so restore → export
    /// is byte-identical regardless of the original world's recycling
    /// history. `issued` is the coordinator's flow counter.
    pub(crate) fn restore(
        shared: &SharedNet,
        st: &FluidWorldState,
        issued: u32,
    ) -> Result<FluidState, MassfError> {
        let bad = |reason: String| MassfError::SnapshotCorrupt {
            section: "fluid".into(),
            reason,
        };
        let slots = shared.net.links.len() * 2;
        let mut fs = FluidState::new(shared);
        for (name, arr) in [
            ("packet_bps", &st.packet_bps),
            ("reported_bps", &st.reported_bps),
        ] {
            if !arr.is_empty() && arr.len() != slots {
                return Err(bad(format!(
                    "fluid {name} covers {} slots, network has {slots}",
                    arr.len()
                )));
            }
        }
        if !st.packet_bps.is_empty() {
            fs.packet_bps = st.packet_bps.clone();
        }
        if !st.reported_bps.is_empty() {
            fs.reported_bps = st.reported_bps.clone();
        }
        let mut prev: Option<u64> = None;
        for e in &st.flows {
            if prev.is_some_and(|p| e.flow.0 <= p) {
                return Err(bad("fluid flows are not strictly sorted by id".into()));
            }
            prev = Some(e.flow.0);
            if e.flow.source() != FLUID_COORDINATOR {
                return Err(bad(format!(
                    "fluid flow {:#x} not in the coordinator's counter space",
                    e.flow.0
                )));
            }
            let counter = (e.flow.0 & 0xFFFF_FFFF) as u32;
            if counter >= issued {
                return Err(bad(format!(
                    "fluid flow counter {counter} not yet issued by the coordinator"
                )));
            }
            let path = validate_route(shared, &e.path, "fluid")?;
            fs.insert(FluidFlow { path, ..e.clone() });
        }
        // Nothing to re-solve: the rates came with the state. The
        // aggregates are derived: rebuild them without emitting reports.
        fs.seeds.clear();
        for s in 0..slots {
            let mut agg = 0u64;
            for &f in &fs.members[s] {
                agg = agg.saturating_add(fs.slab.flows[f as usize].rate_bps);
            }
            fs.agg_bps[s] = agg;
        }
        Ok(fs)
    }

    /// Max-min fairness invariants over the live state, for tests:
    /// no link direction oversubscribed beyond its shareable capacity,
    /// no flow above demand, and every below-demand flow bottlenecked
    /// at some link that cannot grant each member one more byte/s.
    pub(crate) fn check_invariants(&self) -> Result<(), String> {
        for (s, members) in self.members.iter().enumerate() {
            let mut agg = 0u64;
            for &f in members {
                agg = agg.saturating_add(self.slab.flows[f as usize].rate_bps);
            }
            if agg != self.agg_bps[s] {
                return Err(format!(
                    "slot {s}: aggregate {} != cached {}",
                    agg, self.agg_bps[s]
                ));
            }
            if agg > self.cap_avail(s) {
                return Err(format!(
                    "slot {s} oversubscribed: {agg} > {}",
                    self.cap_avail(s)
                ));
            }
        }
        for (&id, &slot) in &self.slab.by_id {
            let fl = &self.slab.flows[slot as usize];
            let (rate, demand) = (fl.rate_bps, fl.demand_bps);
            if rate > demand {
                return Err(format!("flow {id:#x}: rate {rate} above demand {demand}"));
            }
            if rate < demand {
                let bottlenecked = route_slots(&fl.path).any(|s| {
                    let s = s as usize;
                    self.cap_avail(s).saturating_sub(self.agg_bps[s]) < self.members[s].len() as u64
                });
                if !bottlenecked {
                    return Err(format!(
                        "flow {id:#x}: below demand ({rate} < {demand}) with no saturated link"
                    ));
                }
            }
        }
        Ok(())
    }

    /// Number of live fluid flows.
    pub(crate) fn live_flows(&self) -> usize {
        self.slab.by_id.len()
    }

    /// The slots live fluid flow `flow` crosses (test probe).
    #[cfg(test)]
    pub(crate) fn slots_of(&self, flow: FlowId) -> Option<Vec<u32>> {
        let f = *self.slab.by_id.get(&flow.0)? as usize;
        Some(route_slots(&self.slab.flows[f].path).collect())
    }
}

/// Per-world, per-(link, direction) coupling state on the *packet*
/// side: the fluid rate last reported by the coordinator, and the
/// packet-load estimator windows. Lazily allocated on the first
/// [`NetEvent::FluidCapUpdate`] a world receives, so packet-only runs
/// carry no extra state (and export empty arrays): the four arrays are
/// all empty or all `2·links` long.
///
/// A partition world advances only the slots whose sender node it owns
/// and leaves the rest unsubscribed, at values the merge ignores: the
/// numeric maximum in the min-merged arrays, 0 in the max-merged ones
/// (see [`WorldState::merge_partitions`](crate::WorldState::merge_partitions)).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FluidCoupling {
    /// Fluid rate per slot, bytes/s; `u64::MAX` = slot not subscribed
    /// (no estimator, full line rate for packets). Min-merged.
    pub fluid_bps: Vec<u64>,
    /// Open estimator window start per slot; `SimTime::MAX` = closed.
    /// Min-merged.
    pub est_start: Vec<SimTime>,
    /// Bytes serialized in the open window. Max-merged.
    pub est_bytes: Vec<u64>,
    /// Last load level reported to the coordinator, bytes/s.
    /// Max-merged.
    pub est_reported: Vec<u64>,
}

impl FluidCoupling {
    fn ensure(&mut self, slots: usize) {
        if self.fluid_bps.is_empty() {
            self.fluid_bps = vec![u64::MAX; slots];
            self.est_start = vec![SimTime::MAX; slots];
            self.est_bytes = vec![0; slots];
            self.est_reported = vec![0; slots];
        }
    }

    /// `Ok` when the arrays are all empty or all `slots` long.
    pub(crate) fn check_len(&self, slots: usize) -> Result<(), String> {
        let n = self.fluid_bps.len();
        if [
            self.est_start.len(),
            self.est_bytes.len(),
            self.est_reported.len(),
        ] != [n; 3]
        {
            return Err("fluid coupling arrays have inconsistent lengths".into());
        }
        if n != 0 && n != slots {
            return Err(format!(
                "fluid coupling covers {n} slots, network has {slots}"
            ));
        }
        Ok(())
    }

    /// Merge the partition exports `parts` of a `slots`-slot world into
    /// the full arrays, elementwise min or max (see the type's docs).
    pub(crate) fn merge<'a>(
        parts: impl IntoIterator<Item = &'a FluidCoupling>,
        slots: usize,
    ) -> Result<FluidCoupling, String> {
        let mut out = FluidCoupling::default();
        for (i, p) in parts.into_iter().enumerate() {
            p.check_len(slots)
                .map_err(|e| format!("partition {i}: {e}"))?;
            if !p.fluid_bps.is_empty() {
                out.ensure(slots);
            }
            for s in 0..p.fluid_bps.len() {
                out.fluid_bps[s] = out.fluid_bps[s].min(p.fluid_bps[s]);
                out.est_start[s] = out.est_start[s].min(p.est_start[s]);
                out.est_bytes[s] = out.est_bytes[s].max(p.est_bytes[s]);
                out.est_reported[s] = out.est_reported[s].max(p.est_reported[s]);
            }
        }
        Ok(out)
    }

    /// Unsubscribe every slot `keep` refuses, as a partition world that
    /// does not own the slot's sender holds it.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(u32) -> bool) {
        for s in 0..self.fluid_bps.len() {
            if !keep(s as u32) {
                self.fluid_bps[s] = u64::MAX;
                self.est_start[s] = SimTime::MAX;
                self.est_bytes[s] = 0;
                self.est_reported[s] = 0;
            }
        }
    }

    /// Install a coordinator-reported fluid rate; first contact
    /// allocates the arrays and activates the estimator for that slot.
    pub(crate) fn subscribe(&mut self, slots: usize, slot: u32, fluid_bps: u64) {
        self.ensure(slots);
        if let Some(v) = self.fluid_bps.get_mut(slot as usize) {
            *v = fluid_bps;
        }
    }

    /// Account `bytes` serialized onto `slot` at `now`; when the
    /// estimator window rolls over, quantize the observed level and
    /// report a change to the coordinator. Integer throughout.
    pub(crate) fn observe(
        &mut self,
        cap_bytes: u64,
        slot: usize,
        bytes: u64,
        now: SimTime,
        out: &mut Emitter<'_, NetEvent>,
    ) {
        let start = self.est_start[slot];
        if start == SimTime::MAX {
            self.est_start[slot] = now;
            self.est_bytes[slot] = bytes;
            return;
        }
        let span = now.saturating_sub(start);
        if span < FLUID_EST_WINDOW {
            self.est_bytes[slot] += bytes;
            return;
        }
        // Window rolls: level over the *actual* virtual-time span, so
        // idle gaps decay the estimate naturally.
        let level = ((self.est_bytes[slot] as u128 * NS_PER_SEC) / span.as_ns().max(1) as u128)
            .min(u64::MAX as u128) as u64;
        let quantum = (cap_bytes / CAP_REPORT_QUANTUM_DIV).max(1);
        let level_q = level / quantum * quantum;
        if level_q != self.est_reported[slot] {
            self.est_reported[slot] = level_q;
            out.emit(
                FLUID_CONTROL_DELAY,
                LpId(FLUID_COORDINATOR.0),
                NetEvent::FluidPacketLoad {
                    slot: slot as u32,
                    bps: level_q,
                },
            );
        }
        self.est_start[slot] = now;
        self.est_bytes[slot] = bytes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::segments_for;
    use crate::world::fixtures::{dumbbell, dumbbell_net_with_detour};
    use crate::world::{events_per_roundtrip, AppLogic, NetWorld, NoApp, SimApi};
    use massf_engine::{run_sequential, Model};
    use massf_faults::{FaultScript, FaultState};
    use massf_routing::{CostMetric, FlatResolver, PathResolver};
    use massf_topology::{AsId, LinkId, Network, NodeKind, Point};
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn fluid_start(
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        peak_bps: u64,
    ) -> (SimTime, LpId, NetEvent) {
        (
            SimTime::ZERO,
            LpId(FLUID_COORDINATOR.0),
            NetEvent::FluidStart {
                src,
                dst,
                bytes,
                peak_bps,
            },
        )
    }

    fn run<A: AppLogic>(
        shared: Arc<SharedNet>,
        app: A,
        events: Vec<(SimTime, LpId, NetEvent)>,
        end: SimTime,
    ) -> (NetWorld<A>, massf_engine::ExecutionStats) {
        let n = shared.lp_count();
        let mut world = NetWorld::new(shared, app);
        let stats = run_sequential(&mut world, n, events, end);
        (world, stats)
    }

    #[test]
    fn unbounded_flows_share_the_bottleneck_max_min() {
        let (shared, a, b) = dumbbell(8e6); // 1_000_000 B/s shareable
        let events = (0..3)
            .map(|_| fluid_start(a, b, 1_000_000_000_000, 0))
            .collect();
        let (world, _) = run(shared, NoApp, events, SimTime::from_ms(100));
        world
            .check_fluid_invariants()
            .expect("max-min invariants must hold");
        assert_eq!(world.fluid_live_flows(), 3);
        let st = world.export_state();
        assert_eq!(st.fluid.flows.len(), 3);
        for f in &st.fluid.flows {
            assert_eq!(f.rate_bps, 333_333, "equal max-min shares of 1 MB/s");
            assert_eq!(f.demand_bps, FLUID_UNBOUNDED);
        }
        assert_eq!(world.profile().fluid.started, 3);
        assert_eq!(world.profile().fluid.completed, 0);
    }

    #[test]
    fn zero_peak_is_the_one_unbounded_demand_at_every_entry_point() {
        /// Starts a fluid flow to `self.0` from each timer, capped at
        /// the timer's token.
        struct Starter(NodeId);
        impl AppLogic for Starter {
            fn on_flow_complete(&mut self, _: NodeId, _: FlowId, _: &mut SimApi<'_, '_>) {}
            fn on_timer(&mut self, _: NodeId, peak_bps: u64, api: &mut SimApi<'_, '_>) {
                api.start_fluid_flow(self.0, 1_000_000_000_000, peak_bps);
            }
        }
        let (shared, a, b) = dumbbell(8e6);
        let mut agent = crate::agent::Agent::new();
        agent.inject_fluid(SimTime::ZERO, a, b, 1_000_000_000_000);
        agent.inject_fluid_capped(SimTime::ZERO, a, b, 1_000_000_000_000, 0);
        agent.inject_fluid_capped(SimTime::ZERO, a, b, 1_000_000_000_000, 800_000);
        let mut events = agent.into_initial_events();
        for peak_bps in [0, 1_600_000] {
            events.push((
                SimTime::ZERO,
                LpId(a.0),
                NetEvent::AppTimer { token: peak_bps },
            ));
        }
        let (world, _) = run(shared, Starter(b), events, SimTime::from_ms(100));
        let st = world.export_state();
        let demands: Vec<u64> = st.fluid.flows.iter().map(|f| f.demand_bps).collect();
        // Flow ids follow admission: the agent's three, then the API's.
        assert_eq!(demands, [u64::MAX, u64::MAX, 100_000, u64::MAX, 200_000]);
    }

    #[test]
    fn capped_flow_frees_share_for_the_rest() {
        let (shared, a, b) = dumbbell(8e6);
        // 800 kbit/s peak = 100_000 B/s demand; the remaining
        // 900_000 B/s splits evenly between the two unbounded flows.
        let events = vec![
            fluid_start(a, b, 1_000_000_000_000, 800_000),
            fluid_start(a, b, 1_000_000_000_000, 0),
            fluid_start(a, b, 1_000_000_000_000, 0),
        ];
        let (world, _) = run(shared, NoApp, events, SimTime::from_ms(100));
        world
            .check_fluid_invariants()
            .expect("max-min invariants must hold");
        let st = world.export_state();
        // Flow ids are issued in seed order; export is id-sorted.
        let rates: Vec<u64> = st.fluid.flows.iter().map(|f| f.rate_bps).collect();
        assert_eq!(rates, vec![100_000, 450_000, 450_000]);
    }

    #[test]
    fn completion_fires_callback_with_few_events() {
        struct Sink(Vec<(NodeId, FlowId, NodeId)>);
        impl AppLogic for Sink {
            fn on_flow_complete(&mut self, _: NodeId, _: FlowId, _: &mut SimApi<'_, '_>) {}
            fn on_timer(&mut self, _: NodeId, _: u64, _: &mut SimApi<'_, '_>) {}
            fn on_fluid_complete(
                &mut self,
                src: NodeId,
                flow: FlowId,
                dst: NodeId,
                _: &mut SimApi<'_, '_>,
            ) {
                self.0.push((src, flow, dst));
            }
        }
        let (shared, a, b) = dumbbell(8e6);
        // 1 MB at 1 MB/s: finishes at exactly t = 1 s.
        let bytes = 1_000_000u64;
        let (world, stats) = run(
            shared,
            Sink(Vec::new()),
            vec![fluid_start(a, b, bytes, 0)],
            SimTime::from_secs(2),
        );
        assert_eq!(world.profile().fluid.completed, 1);
        assert_eq!(world.fluid_live_flows(), 0);
        assert_eq!(world.app().0.len(), 1);
        let (src, flow, dst) = world.app().0[0];
        assert_eq!((src, dst), (a, b));
        assert_eq!(flow.source(), FLUID_COORDINATOR);
        // Event economy: start + finish + a handful of cap reports,
        // versus 2 events per hop per MSS segment at packet level.
        assert!(stats.total_events < 20, "got {}", stats.total_events);
        let packet_equiv = segments_for(bytes) as u64 * events_per_roundtrip(3);
        assert!(
            packet_equiv >= 50 * stats.total_events,
            "reduction only {packet_equiv}/{}",
            stats.total_events
        );
    }

    #[test]
    fn src_eq_dst_counts_unroutable() {
        let (shared, a, _) = dumbbell(8e6);
        let (world, _) = run(
            shared,
            NoApp,
            vec![fluid_start(a, a, 1_000, 0)],
            SimTime::from_ms(10),
        );
        assert_eq!(world.profile().fluid.unroutable, 1);
        assert_eq!(world.profile().fluid.started, 0);
        assert_eq!(world.fluid_live_flows(), 0);
    }

    /// A mid-run export with live flows, as hostile-restore raw material.
    fn exported_mid_run() -> (Arc<SharedNet>, crate::world::WorldState) {
        let (shared, a, b) = dumbbell(8e6);
        let events = vec![
            fluid_start(a, b, 1_000_000_000, 0),
            fluid_start(a, b, 1_000_000_000, 0),
        ];
        let (world, _) = run(shared.clone(), NoApp, events, SimTime::from_ms(50));
        assert_eq!(world.fluid_live_flows(), 2);
        (shared, world.export_state())
    }

    #[test]
    fn restore_rejects_unsorted_flows() {
        let (shared, mut st) = exported_mid_run();
        st.fluid.flows.swap(0, 1);
        assert!(NetWorld::restore(shared, NoApp, &st).is_err());
    }

    #[test]
    fn restore_rejects_foreign_counter_space() {
        let (shared, mut st) = exported_mid_run();
        st.fluid.flows[0].flow = FlowId::new(NodeId(1), 0);
        assert!(NetWorld::restore(shared, NoApp, &st).is_err());
    }

    #[test]
    fn restore_rejects_unissued_flow_ids() {
        let (shared, mut st) = exported_mid_run();
        st.flow_counter[FLUID_COORDINATOR.index()] = 0;
        assert!(NetWorld::restore(shared, NoApp, &st).is_err());
    }

    #[test]
    fn restore_rejects_non_adjacent_paths() {
        let (shared, mut st) = exported_mid_run();
        let path = st.fluid.flows[0].path.clone();
        st.fluid.flows[0].path = [path[0], path[path.len() - 1]].into();
        assert!(NetWorld::restore(shared, NoApp, &st).is_err());
    }

    #[test]
    fn restore_rejects_wrong_slot_array_length() {
        let (shared, mut st) = exported_mid_run();
        st.fluid.packet_bps = vec![0; 1];
        assert!(NetWorld::restore(shared, NoApp, &st).is_err());
    }

    #[test]
    fn restore_export_is_idempotent_under_slot_recycling() {
        let (shared, a, b) = dumbbell(8e6);
        // Flow 0 finishes at t = 0.1 s and frees its slot; flows started
        // afterwards recycle it. The canonical export must not care.
        let mut events = vec![fluid_start(a, b, 100_000, 0)];
        for _ in 0..3 {
            events.push((
                SimTime::from_ms(200),
                LpId(FLUID_COORDINATOR.0),
                NetEvent::FluidStart {
                    src: a,
                    dst: b,
                    bytes: 1_000_000_000,
                    peak_bps: 0,
                },
            ));
        }
        let (world, _) = run(shared.clone(), NoApp, events, SimTime::from_ms(300));
        assert_eq!(world.profile().fluid.completed, 1);
        assert_eq!(world.fluid_live_flows(), 3);
        let st1 = world.export_state();
        let world2 = NetWorld::restore(shared, NoApp, &st1).expect("mid-run export must restore");
        world2
            .check_fluid_invariants()
            .expect("max-min invariants must hold");
        let st2 = world2.export_state();
        assert_eq!(st1.fluid, st2.fluid);
        assert_eq!(st1.flow_counter, st2.flow_counter);
        assert_eq!(st1.busy_until, st2.busy_until);
        assert_eq!(st1.coupling, st2.coupling);
    }

    // ---- The heap-driven water-fill against the scan it replaced ----

    /// The scan-based water-fill the heap replaced, kept as the oracle:
    /// every hop re-resolved through the topology, closure indices by
    /// binary search, one linear minimum scan per round (strictly
    /// smaller share wins, so the lowest link index among equals). It
    /// shares nothing with `FluidState::water_fill` but the closure it
    /// is handed, so it also checks the cached slot lists and
    /// `link_local`.
    pub(super) fn water_fill_scan(
        fs: &FluidState,
        shared: &SharedNet,
        links: &[u32],
        fl: &[(u64, u32)],
    ) -> Vec<u64> {
        let hops = |f: u32| -> Vec<usize> {
            let slot = |w: &[Hop]| {
                shared
                    .slot_between(w[0].node, w[1].node)
                    .expect("live paths follow links")
            };
            let lidx = |s: u32| links.partition_point(|&x| x < s); // s is always present
            fs.slab.flows[f as usize]
                .path
                .windows(2)
                .map(|w| lidx(slot(w)))
                .collect()
        };
        let mut avail: Vec<u64> = links.iter().map(|&s| fs.cap_avail(s as usize)).collect();
        let mut unfixed_cnt = vec![0u64; links.len()];
        for &(_, f) in fl {
            for li in hops(f) {
                unfixed_cnt[li] += 1;
            }
        }
        let mut fixed = vec![false; fl.len()];
        let mut newrate = vec![0u64; fl.len()];
        let mut by_demand: Vec<(u64, usize)> = (0..fl.len())
            .map(|fi| (fs.slab.flows[fl[fi].1 as usize].demand_bps, fi))
            .collect();
        by_demand.sort_unstable();
        let mut dp = 0usize;
        let mut left = fl.len();
        while left > 0 {
            let mut min_share = u64::MAX;
            let mut min_link = usize::MAX;
            for (li, &cnt) in unfixed_cnt.iter().enumerate() {
                if let Some(share) = avail[li].checked_div(cnt) {
                    if share < min_share {
                        min_share = share;
                        min_link = li;
                    }
                }
            }
            assert!(min_link != usize::MAX, "every flow traverses ≥ 1 link");
            while dp < by_demand.len() && fixed[by_demand[dp].1] {
                dp += 1;
            }
            let (round, r) = if dp < by_demand.len() && by_demand[dp].0 <= min_share {
                (vec![by_demand[dp].1], by_demand[dp].0)
            } else {
                let members = &fs.members[links[min_link] as usize];
                let round = members.iter().map(|&f| fs.flow_local[f as usize] as usize);
                (round.collect(), min_share)
            };
            for fi in round {
                if !std::mem::replace(&mut fixed[fi], true) {
                    newrate[fi] = r;
                    left -= 1;
                    for li in hops(fl[fi].1) {
                        avail[li] = avail[li].saturating_sub(r);
                        unfixed_cnt[li] = unfixed_cnt[li].saturating_sub(1);
                    }
                }
            }
        }
        newrate
    }

    fn fnv(bytes: impl IntoIterator<Item = u8>) -> u64 {
        bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// The coordinator LP alone as a `Model`: fluid control events
    /// drive one `FluidState`, and every event handled is logged with
    /// the solver state it left behind — per-flow rate, armed rate,
    /// alarm epoch, residual and path, the reported aggregates, and the
    /// counters — so two runs compare step by step. The log holds every
    /// emitted event too: each is handled (time, target, payload) unless
    /// it falls past the horizon, and then the armed state pins it.
    struct Coordinator {
        shared: Arc<SharedNet>,
        fs: FluidState,
        counter: u32,
        profile: ProfileData,
        log: Vec<String>,
    }

    impl Coordinator {
        fn new(shared: &Arc<SharedNet>, scan_oracle: bool) -> Self {
            let mut fs = FluidState::new(shared);
            fs.scan_oracle = scan_oracle.then(|| shared.clone());
            Coordinator {
                shared: shared.clone(),
                fs,
                counter: 0,
                profile: ProfileData::new(shared.lp_count(), shared.net.links.len()),
                log: Vec::new(),
            }
        }

        fn run(mut self, events: &[(SimTime, LpId, NetEvent)], end: SimTime) -> Self {
            let n = self.shared.lp_count();
            run_sequential(&mut self, n, events.to_vec(), end);
            self
        }

        /// Rates of the live flows, in flow-id order.
        fn rates(&self) -> Vec<u64> {
            self.fs.export().flows.iter().map(|f| f.rate_bps).collect()
        }
    }

    impl Model for Coordinator {
        type Event = NetEvent;

        fn handle(
            &mut self,
            target: LpId,
            now: SimTime,
            ev: NetEvent,
            out: &mut Emitter<'_, NetEvent>,
        ) {
            let mut line = format!("{}ns → {}: {ev:?}\n ", now.as_ns(), target.0);
            let (fs, shared, profile) = (&mut self.fs, &*self.shared, &mut self.profile);
            fs.scratch.heap_pushes = 0; // reads: re-queues of the last solve
            match ev {
                NetEvent::FluidStart {
                    src,
                    dst,
                    bytes,
                    peak_bps,
                } => {
                    let c = &mut self.counter;
                    fs.start(shared, now, src, dst, bytes, peak_bps, c, profile, out);
                }
                NetEvent::FluidFinish { flow, epoch } => {
                    fs.finish(shared, now, flow, epoch, profile, out);
                }
                NetEvent::FluidPacketLoad { slot, bps } => {
                    fs.packet_load(shared, now, slot, bps, profile, out)
                }
                NetEvent::FluidFault { kind } => {
                    fs.fault(shared, now, kind, profile, out);
                }
                _ => {} // cap updates: logged, nothing to do at this end
            }
            assert!(fs.seeds.is_empty(), "seeds outlived their solve");
            if let Err(e) = fs.check_invariants() {
                panic!("after {line}: {e}");
            }
            let st = fs.export();
            let mut state = String::new();
            for f in &st.flows {
                let path = fnv(f.path.iter().flat_map(|h| h.node.0.to_le_bytes()));
                state += &format!(
                    " {:x}:{}/{}/{}/{}/{path:x}",
                    f.flow.0, f.rate_bps, f.armed_rate_bps, f.epoch, f.remaining_bns
                );
            }
            for (s, &r) in st.reported_bps.iter().enumerate() {
                if r != u64::MAX {
                    state += &format!(" s{s}={r}");
                }
            }
            if state.len() > 2048 {
                state = format!(" state#{:x}", fnv(state.bytes()));
            }
            line += &format!("{state}\n  {:?}", profile.fluid);
            self.log.push(line);
        }
    }

    /// Run `events` through the heap solver and through the scan
    /// oracle, both starting at closure generation `gen0`; every step
    /// must agree. Returns the heap run.
    fn both_from(
        shared: &Arc<SharedNet>,
        events: &[(SimTime, LpId, NetEvent)],
        end: SimTime,
        gen0: u32,
    ) -> Coordinator {
        let [heap, scan] = [false, true].map(|oracle| {
            let mut c = Coordinator::new(shared, oracle);
            c.fs.mark_gen = gen0;
            c.run(events, end)
        });
        for (i, (h, s)) in heap.log.iter().zip(&scan.log).enumerate() {
            assert_eq!(
                h, s,
                "step {i}: heap (left) and scan oracle (right) part ways"
            );
        }
        assert_eq!(heap.log.len(), scan.log.len());
        assert_eq!(heap.profile.fluid, scan.profile.fluid);
        heap
    }

    fn both(
        shared: &Arc<SharedNet>,
        events: &[(SimTime, LpId, NetEvent)],
        end: SimTime,
    ) -> Coordinator {
        both_from(shared, events, end, 0)
    }

    /// Routers `0..n` joined by `links` = `(a, b, capacity in bytes/s)`,
    /// link ids (so slot order) in the order given.
    fn mesh(n: u32, links: &[(u32, u32, u64)]) -> Network {
        let mut net = Network::new();
        for i in 0..n {
            net.add_node(NodeKind::Router, Point::new(f64::from(i), 0.0), AsId(0));
        }
        for &(a, b, cap) in links {
            net.add_link(NodeId(a), NodeId(b), cap as f64 * 8.0, 1.0);
        }
        net
    }

    fn flat(net: Network) -> Arc<SharedNet> {
        let resolver = Arc::new(FlatResolver::new(&net, CostMetric::Latency));
        SharedNet::new(net, resolver)
    }

    /// `FluidStart` at `ms`; `demand` in bytes/s, 0 = unbounded.
    fn start_at(ms: u64, src: u32, dst: u32, bytes: u64, demand: u64) -> (SimTime, LpId, NetEvent) {
        let (_, lp, ev) = fluid_start(NodeId(src), NodeId(dst), bytes, demand * 8);
        (SimTime::from_ms(ms), lp, ev)
    }

    const BIG: u64 = 1_000_000_000_000;

    #[test]
    fn equal_floor_shares_saturate_the_lowest_slot_first() {
        // Chain 0 —A— 1 —B— 2, A = 10 B/s under three flows, B = 7 B/s
        // under two: both floor to 3. A holds the lower slot, so it
        // saturates first; its through flow leaves B 7 − 3 = 4 for B's
        // other member. (B first would give that member 3.)
        let events = [
            start_at(0, 0, 1, BIG, 0),
            start_at(0, 0, 1, BIG, 0),
            start_at(0, 0, 2, BIG, 0),
            start_at(0, 1, 2, BIG, 0),
        ];
        let end = SimTime::from_ms(10);
        let c = both(&flat(mesh(3, &[(0, 1, 10), (1, 2, 7)])), &events, end);
        assert_eq!(c.rates(), vec![3, 3, 3, 4]);
        // Mirror image: the 7 B/s link now holds the lower slot and
        // goes first; the 10 B/s link is left 7 for two flows.
        let events = [
            start_at(0, 0, 1, BIG, 0),
            start_at(0, 0, 2, BIG, 0),
            start_at(0, 1, 2, BIG, 0),
            start_at(0, 1, 2, BIG, 0),
        ];
        let c = both(&flat(mesh(3, &[(0, 1, 7), (1, 2, 10)])), &events, end);
        assert_eq!(c.rates(), vec![3, 3, 3, 3]);
    }

    #[test]
    fn a_share_that_rose_is_read_fresh_not_from_its_stale_entry() {
        // Chain 0 —X— 1 —Y— 2 —Z— 3 with X = 30, Y = 6, Z = 20 B/s.
        // Queued at first: Y 6/3 = 2, X 30/3 = 10, Z 20/2 = 10. Y
        // saturates and pins three flows at 2, which *raises* X to
        // 26/1 and Z to 18/1: the queued 10s are stale, and the flows
        // left on X and Z must get 26 and 18, Z (smaller) first.
        let events = [
            start_at(0, 0, 2, BIG, 0), // X Y
            start_at(0, 0, 1, BIG, 0), // X
            start_at(0, 1, 2, BIG, 0), // Y
            start_at(0, 2, 3, BIG, 0), // Z
            start_at(0, 0, 3, BIG, 0), // X Y Z: one closure
        ];
        let shared = flat(mesh(4, &[(0, 1, 30), (1, 2, 6), (2, 3, 20)]));
        let c = both(&shared, &events, SimTime::from_ms(10));
        assert_eq!(c.rates(), vec![2, 26, 2, 18, 2]);
    }

    #[test]
    fn demand_equal_to_the_minimum_share_is_demand_limited() {
        // One 10 B/s link, demands 5 and ∞: the share is 10/2 = 5 and
        // `<=` fixes the first flow by demand. The link was only
        // peeked, so it is still queued to saturate for the second.
        let events = [start_at(0, 0, 1, BIG, 5), start_at(0, 0, 1, BIG, 0)];
        let end = SimTime::from_ms(10);
        let c = both(&flat(mesh(2, &[(0, 1, 10)])), &events, end);
        assert_eq!(c.rates(), vec![5, 5]);
        // At 11 B/s the branch taken shows: demand-limited leaves
        // 11 − 5 = 6 for the other flow; saturating gives both 5.
        let c = both(&flat(mesh(2, &[(0, 1, 11)])), &events, end);
        assert_eq!(c.rates(), vec![5, 6]);
    }

    #[test]
    fn a_thousand_members_saturate_in_one_round_with_one_requeue_per_neighbour() {
        // 1 024 flows 0 → 3 over the 1 MB/s link 1 — 2, one flow 0 → 4
        // sharing only the access link 0 — 1 with them.
        let caps = [
            (0, 1, 125_000_000),
            (1, 2, 1_000_000),
            (2, 3, 125_000_000),
            (1, 4, 125_000_000),
        ];
        let mut events: Vec<_> = (0..1024).map(|_| start_at(0, 0, 3, BIG, 0)).collect();
        events.push(start_at(0, 0, 4, BIG, 0));
        // One more solve over the whole closure: 100 kB/s of packets
        // on the bottleneck (slot 2 = link 1, forward).
        events.push((
            SimTime::from_ms(1),
            LpId(FLUID_COORDINATOR.0),
            NetEvent::FluidPacketLoad {
                slot: 2,
                bps: 100_000,
            },
        ));
        let c = both(&flat(mesh(5, &caps)), &events, SimTime::from_ms(2));
        let mut want = vec![900_000 / 1024; 1024];
        want.push(125_000_000 - 1024 * (900_000 / 1024));
        assert_eq!(c.rates(), want);
        // Saturating 1 — 2 fixes 1 024 flows and changes the share of
        // 0 — 1 1 024 times; it is re-queued once. The links that ran
        // out of unfixed flows are not re-queued at all.
        assert_eq!(c.fs.scratch.heap_pushes, 1);
    }

    #[test]
    fn closure_generation_wrap_keeps_link_local_consistent() {
        // Starts and finishes on the three-link chain, with the
        // generation counter wrapping on the third solve.
        let shared = flat(mesh(4, &[(0, 1, 30), (1, 2, 6), (2, 3, 20)]));
        let events = [
            start_at(0, 0, 2, 40, 0),
            start_at(0, 0, 1, 400, 0),
            start_at(1, 1, 2, 4_000, 0),
            start_at(2, 2, 3, 200, 7),
            start_at(3, 0, 3, BIG, 0),
            start_at(3, 3, 0, 90, 0),
        ];
        let end = SimTime::from_secs(3_600);
        let wrapped = both_from(&shared, &events, end, u32::MAX - 2);
        assert!(wrapped.fs.mark_gen < 1_000, "the run must cross the wrap");
        assert_eq!(wrapped.profile.fluid.completed, 5);
        let plain = both(&shared, &events, end);
        assert_eq!(wrapped.log, plain.log);
    }

    // ---- A path with a hop that is not a link is no route ----

    #[test]
    fn start_over_a_non_link_hop_is_unroutable_not_half_registered() {
        let (net, detour, a, b) = dumbbell_net_with_detour();
        let shared = SharedNet::new(net, Arc::new(detour));
        let events = [
            fluid_start(a, b, 1_000_000, 0),
            fluid_start(b, a, 1_000_000, 0),
        ];
        let c = Coordinator::new(&shared, false).run(&events, SimTime::from_ms(10));
        assert_eq!(c.profile.fluid.unroutable, 1);
        assert_eq!(c.profile.fluid.started, 1, "b → a routes normally");
        assert_eq!(
            c.fs.slab.flows.len(),
            1,
            "no slot allocated for the bogus path"
        );
        let registered: usize = c.fs.members.iter().map(Vec::len).sum();
        assert_eq!(registered, 3, "only the three hops of b → a");
    }

    #[test]
    fn reroute_over_a_non_link_hop_aborts_through_the_callback() {
        #[derive(Default)]
        struct Aborts(Vec<(NodeId, NodeId)>);
        impl AppLogic for Aborts {
            fn on_flow_complete(&mut self, _: NodeId, _: FlowId, _: &mut SimApi<'_, '_>) {}
            fn on_timer(&mut self, _: NodeId, _: u64, _: &mut SimApi<'_, '_>) {}
            fn on_fluid_aborted(
                &mut self,
                src: NodeId,
                _: FlowId,
                dst: NodeId,
                _: &mut SimApi<'_, '_>,
            ) {
                self.0.push((src, dst));
            }
        }
        // Epoch 0 routes normally; the epoch after the middle link
        // fails answers a → b with the bogus path.
        let (net, detour, a, b) = dumbbell_net_with_detour();
        let detour: Arc<dyn PathResolver> = Arc::new(detour);
        let mut script = FaultScript::new();
        script.link_down(SimTime::from_ms(100), LinkId(1));
        let base = Arc::new(FlatResolver::new(&net, CostMetric::Latency));
        let faults =
            FaultState::with_factory(&net, script, base, Box::new(move |_| detour.clone()))
                .expect("script validates");
        let shared = SharedNet::with_faults(net, faults);
        let events = vec![
            fluid_start(a, b, 1_000_000_000, 0),
            (
                SimTime::from_ms(100),
                LpId(FLUID_COORDINATOR.0),
                NetEvent::FluidFault {
                    kind: FaultKind::LinkDown(LinkId(1)),
                },
            ),
        ];
        let (world, _) = run(shared, Aborts::default(), events, SimTime::from_ms(200));
        assert_eq!(world.app().0, vec![(a, b)]);
        assert_eq!(world.profile().fluid.aborted, 1);
        assert_eq!(world.profile().fluid.rerouted, 0);
        assert_eq!(world.fluid_live_flows(), 0);
        world
            .check_fluid_invariants()
            .expect("no half-member flow left behind");
    }

    // ---- Oracle proptest ----

    /// A random small world and a random fluid control schedule over
    /// it: a router ring with chords and hosts, capacities drawn from a
    /// few round values (so equal shares and demand = share ties are
    /// common), link flaps and a router crash, starts with finite and
    /// unbounded demands, packet-load reports, and an adjacency fault
    /// (every flow re-resolves).
    fn random_schedule(seed: u64) -> (Arc<SharedNet>, Vec<(SimTime, LpId, NetEvent)>) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let caps = [1_000_000u64, 1_000_000, 2_000_000, 3_000_000, 125_000_000];
        let routers = rng.gen_range(3u32..8);
        let hosts = rng.gen_range(3u32..9);
        let mut net = Network::new();
        for i in 0..routers {
            net.add_node(NodeKind::Router, Point::new(f64::from(i), 0.0), AsId(0));
        }
        let mut add_link = |net: &mut Network, a: u32, b: u32| {
            let cap = caps[rng.gen_range(0..caps.len())];
            let latency = 0.25 * f64::from(rng.gen_range(1u32..9));
            net.add_link(NodeId(a), NodeId(b), cap as f64 * 8.0, latency);
        };
        for i in 0..routers {
            add_link(&mut net, i, (i + 1) % routers);
        }
        let core_links = routers;
        for i in 0..routers {
            if routers > 3 && i % 2 == 0 {
                add_link(&mut net, i, (i + 2) % routers);
            }
        }
        for h in 0..hosts {
            let id = net.add_node(NodeKind::Host, Point::new(f64::from(h), 1.0), AsId(0));
            add_link(&mut net, id.0, h % routers);
        }
        let coordinator = LpId(FLUID_COORDINATOR.0);
        let mut events = Vec::new();
        let mut script = FaultScript::new();
        // Flaps on distinct ring links, and one router crash.
        let mut mirror = |script: &mut FaultScript, ms: u64, kind: FaultKind| {
            script.push(SimTime::from_ms(ms), kind);
            events.push((
                SimTime::from_ms(ms),
                coordinator,
                NetEvent::FluidFault { kind },
            ));
        };
        for l in 0..rng.gen_range(0..core_links.min(3)) {
            let down = rng.gen_range(1u64..400);
            mirror(&mut script, down, FaultKind::LinkDown(LinkId(l)));
            mirror(
                &mut script,
                down + rng.gen_range(1u64..300),
                FaultKind::LinkUp(LinkId(l)),
            );
        }
        if rng.gen_bool(0.5) {
            let r = NodeId(rng.gen_range(0..routers));
            let down = rng.gen_range(1u64..400);
            mirror(&mut script, down, FaultKind::RouterCrash(r));
            mirror(
                &mut script,
                down + rng.gen_range(1u64..300),
                FaultKind::RouterRecover(r),
            );
        }
        if rng.gen_bool(0.5) {
            let kind = FaultKind::AsAdjacencyFail { as_a: 0, as_b: 1 };
            let at = SimTime::from_ms(rng.gen_range(1u64..400));
            events.push((at, coordinator, NetEvent::FluidFault { kind }));
        }
        let faults = FaultState::flat(&net, CostMetric::Latency, script).expect("script validates");
        let slots = net.links.len() as u32 * 2;
        for _ in 0..rng.gen_range(1usize..40) {
            let src = routers + rng.gen_range(0..hosts);
            let dst = routers + rng.gen_range(0..hosts); // src == dst: unroutable
            let bytes = rng.gen_range(1_000u64..2_000_000);
            let demand = [0, 0, 250_000, 500_000, 1_000_000, 333_333][rng.gen_range(0..6usize)];
            events.push(start_at(rng.gen_range(0u64..500), src, dst, bytes, demand));
        }
        for _ in 0..rng.gen_range(0usize..20) {
            let slot = rng.gen_range(0..slots + 2); // past the end: ignored
            let bps = [0, 125_000, 500_000, 1_000_000, 200_000_000][rng.gen_range(0..5usize)];
            let at = SimTime::from_ms(rng.gen_range(0u64..700));
            events.push((at, coordinator, NetEvent::FluidPacketLoad { slot, bps }));
        }
        (SharedNet::with_faults(net, faults), events)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random worlds and schedules: the heap-driven solver and the
        /// scan oracle agree on every rate, alarm, report and counter
        /// after every event, and the fairness invariants hold there.
        #[test]
        fn heap_water_fill_matches_the_scan_oracle_step_by_step(seed in any::<u64>()) {
            let (shared, events) = random_schedule(seed);
            let c = both(&shared, &events, SimTime::from_secs(30));
            prop_assert!(c.profile.fluid.started + c.profile.fluid.unroutable > 0);
        }
    }
}
