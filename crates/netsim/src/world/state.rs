//! Canonical, partition-independent images of a world's mutable state:
//! export, merge, and validated restore. Everything read here may come
//! from a snapshot file, so it is checked as untrusted input.

use super::shared::SharedNet;
use super::slab::{flow_counter_of, FlowCold, FlowSlab, NodeStates, ReceiverSlab};
use super::{AppLogic, NetWorld};
use crate::fluid::{FluidCoupling, FluidState, FluidWorldState, FLUID_COORDINATOR};
use crate::packet::{FlowId, NetEvent};
use crate::profiling::ProfileData;
use crate::tcp::{TcpSender, TcpSenderState};
use massf_engine::{LpId, SimTime};
use massf_faults::FaultKind;
use massf_routing::{RouteCache, RouteCacheShardState, RouteCacheState};
use massf_topology::{MassfError, NodeId};
use std::sync::Arc;

/// One live TCP flow in a [`WorldState`] (sender side).
#[derive(Debug, Clone, PartialEq)]
pub struct FlowEntryState {
    /// Flow id; encodes the owning source host and its per-host counter.
    pub flow: FlowId,
    /// Complete TCP sender state machine.
    pub sender: TcpSenderState,
    /// The flow's resolved forward path.
    pub path: Vec<NodeId>,
    /// Flow destination.
    pub dst: NodeId,
    /// Epoch of the currently armed RTO timer (`u32::MAX` = none).
    pub armed_epoch: u32,
    /// Last fault-driven re-resolution found no path.
    pub unroutable: bool,
}

/// One TCP receiver in a [`WorldState`] (destination side).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReceiverEntryState {
    /// Node the receiver lives at (the flow's destination).
    pub node: NodeId,
    /// The flow being received.
    pub flow: FlowId,
    /// Next expected segment.
    pub rcv_next: u32,
    /// Total data segments seen.
    pub segments_seen: u64,
}

/// Canonical image of all mutable [`NetWorld`] state, independent of the
/// partitioning (and of slab slot numbers) of the worlds it came from.
///
/// Flows are sorted by [`FlowId`] and receivers by `(node, flow)`, so
/// two worlds with identical semantic state export byte-identical
/// `WorldState`s even when their internal slot recycling diverged; this
/// is what makes snapshot → restore → snapshot idempotent. The
/// accumulated [`ProfileData`] rides along so a checkpoint carries the
/// run's counters; restore leaves the new world's own profile at zero
/// and the caller (e.g. the snapshot session) adds the two at the end.
#[derive(Debug, Clone, PartialEq)]
pub struct WorldState {
    /// Per-host flow-id counters.
    pub flow_counter: Vec<u32>,
    /// Per-(link, direction) transmit-server horizon, length `2·links`.
    pub busy_until: Vec<SimTime>,
    /// Live TCP senders, sorted by flow id.
    pub flows: Vec<FlowEntryState>,
    /// TCP receivers, sorted by `(node, flow)`.
    pub receivers: Vec<ReceiverEntryState>,
    /// The path-memo cache (content affects only the route-cache profile
    /// counters, but those participate in bit-identity checks).
    pub route_cache: RouteCacheState,
    /// Profile counters accumulated up to the export.
    pub profile: ProfileData,
    /// TCP retry budget for flows opened after restore.
    pub max_retries: u32,
    /// Fluid coordinator state (flows, packet loads, reported rates);
    /// empty in packet-only runs and in partition exports that don't
    /// own the coordinator LP.
    pub fluid: FluidWorldState,
    /// Packet-side coupling per slot: the fluid rate last installed by
    /// a `FluidCapUpdate` (`u64::MAX` = slot never subscribed). Length
    /// `2·links`, or empty when the world never saw fluid traffic.
    /// Partitions only advance slots whose sender node they own, and
    /// the unsubscribed value is the numeric maximum, so partition
    /// exports merge by elementwise **min**.
    pub fluid_seen_bps: Vec<u64>,
    /// Open packet-load estimator window start per slot
    /// (`SimTime::MAX` = closed); same length rules; min-merged.
    pub fluid_est_start: Vec<SimTime>,
    /// Bytes accumulated in the open estimator window per slot;
    /// max-merged (non-owners stay at 0).
    pub fluid_est_bytes: Vec<u64>,
    /// Last packet-load level reported to the coordinator per slot;
    /// max-merged (non-owners stay at 0).
    pub fluid_est_reported: Vec<u64>,
}

/// Check that `path` is a plausible source route over `shared`'s
/// topology: at least two in-range nodes, every consecutive pair
/// adjacent. Restored packets and flows travel these paths through
/// `SimApi::transmit`, whose link lookup `expect`s adjacency — hostile
/// snapshot input must be stopped here, not there.
pub(crate) fn validate_route(
    shared: &SharedNet,
    path: &[NodeId],
    section: &str,
) -> Result<(), MassfError> {
    let nodes = shared.net.node_count();
    let bad = |reason: String| MassfError::SnapshotCorrupt {
        section: section.to_owned(),
        reason,
    };
    if path.len() < 2 {
        return Err(bad(format!("path has {} nodes (need ≥ 2)", path.len())));
    }
    if let Some(n) = path.iter().find(|n| n.index() >= nodes) {
        return Err(bad(format!("path visits unknown node {}", n.0)));
    }
    for w in path.windows(2) {
        if shared.link_between(w[0], w[1]).is_none() {
            return Err(bad(format!("path hop {} → {} has no link", w[0].0, w[1].0)));
        }
    }
    Ok(())
}

/// Validate one in-flight event against the topology it will replay on.
/// Used when loading a snapshot: the executors and `NetWorld`'s
/// [`Model::handle`](massf_engine::Model::handle) trust event
/// invariants (in-range LPs, adjacent path hops, hop index within the
/// walk) that a corrupted or hostile snapshot can violate, so every
/// deserialized event passes through here first.
pub fn validate_net_event(
    shared: &SharedNet,
    target: LpId,
    event: &NetEvent,
) -> Result<(), MassfError> {
    let nodes = shared.net.node_count();
    let bad = |reason: String| MassfError::SnapshotCorrupt {
        section: "events".into(),
        reason,
    };
    if (target.0 as usize) >= nodes {
        return Err(bad(format!("event targets unknown LP {}", target.0)));
    }
    match event {
        NetEvent::Arrive(pkt) => {
            validate_route(shared, &pkt.path, "events")?;
            let hop = pkt.hop as usize;
            // In-flight packets have always crossed ≥ 1 link and sit on
            // a node of their walk; `handle` reads `node_at(hop - 1)`
            // and `transmit` reads `node_at(hop + 1)` before the
            // destination, so anything outside [1, len-1] would panic.
            if hop == 0 || hop >= pkt.path.len() {
                return Err(bad(format!(
                    "packet hop {} outside its {}-node walk",
                    hop,
                    pkt.path.len()
                )));
            }
            if pkt.node_at(hop) != NodeId(target.0) {
                return Err(bad(format!(
                    "packet at walk position {} is not at its target LP {}",
                    hop, target.0
                )));
            }
            if pkt.node_at(pkt.path.len() - 1) != pkt.dst {
                return Err(bad(format!(
                    "packet destination {} is not the end of its walk",
                    pkt.dst.0
                )));
            }
        }
        NetEvent::RtoTimer { .. } | NetEvent::AppTimer { .. } => {}
        NetEvent::StartFlow { dst, .. } | NetEvent::SendDatagram { dst, .. } => {
            if dst.index() >= nodes {
                return Err(bad(format!("traffic event to unknown node {}", dst.0)));
            }
        }
        NetEvent::Fault { kind } => validate_fault_kind(shared, kind)?,
        NetEvent::FluidStart { src, dst, .. } => {
            if src.index() >= nodes || dst.index() >= nodes {
                return Err(bad(format!(
                    "fluid start between unknown nodes {} → {}",
                    src.0, dst.0
                )));
            }
            if target != LpId(FLUID_COORDINATOR.0) {
                return Err(bad("fluid start not targeting the coordinator LP".into()));
            }
        }
        NetEvent::FluidFinish { .. } => {
            if target != LpId(FLUID_COORDINATOR.0) {
                return Err(bad("fluid finish not targeting the coordinator LP".into()));
            }
        }
        NetEvent::FluidFault { kind } => {
            validate_fault_kind(shared, kind)?;
            if target != LpId(FLUID_COORDINATOR.0) {
                return Err(bad("fluid fault not targeting the coordinator LP".into()));
            }
        }
        NetEvent::FluidCapUpdate { slot, .. } => {
            if *slot as usize >= shared.net.links.len() * 2 {
                return Err(bad(format!("fluid cap update on unknown slot {slot}")));
            }
            // Cap updates must land where the slot's packets serialize;
            // `transmit` indexes the coupling arrays blindly there.
            let sender = crate::fluid::slot_sender(shared, *slot);
            if target != LpId(sender.0) {
                return Err(bad(format!(
                    "fluid cap update for slot {slot} not targeting its sender LP"
                )));
            }
        }
        NetEvent::FluidPacketLoad { slot, .. } => {
            if *slot as usize >= shared.net.links.len() * 2 {
                return Err(bad(format!("fluid packet load on unknown slot {slot}")));
            }
            if target != LpId(FLUID_COORDINATOR.0) {
                return Err(bad(
                    "fluid packet load not targeting the coordinator LP".into()
                ));
            }
        }
    }
    Ok(())
}

/// Shared fault-kind range checks for [`NetEvent::Fault`] and
/// [`NetEvent::FluidFault`].
fn validate_fault_kind(shared: &SharedNet, kind: &FaultKind) -> Result<(), MassfError> {
    let bad = |reason: String| MassfError::SnapshotCorrupt {
        section: "events".into(),
        reason,
    };
    match *kind {
        FaultKind::LinkDown(l) | FaultKind::LinkUp(l) => {
            if l.index() >= shared.net.links.len() {
                return Err(bad(format!("fault event on unknown link {}", l.0)));
            }
        }
        FaultKind::RouterCrash(n) | FaultKind::RouterRecover(n) => {
            if n.index() >= shared.net.node_count() {
                return Err(bad(format!("fault event on unknown node {}", n.0)));
            }
        }
        FaultKind::AsAdjacencyFail { .. } | FaultKind::AsAdjacencyRestore { .. } => {}
    }
    Ok(())
}

impl WorldState {
    /// Merge per-partition exports into the canonical full-world state.
    ///
    /// Partition worlds only advance state they own — flow counters and
    /// route-cache shards at their nodes, transmit horizons at links
    /// whose sending endpoint they own — so counters and busy slots
    /// merge by elementwise max, flow/receiver sets by disjoint union,
    /// and each node's route-cache shard is taken from its owner.
    pub fn merge_partitions(parts: &[WorldState], assignment: &[u32]) -> Result<Self, MassfError> {
        let Some(first) = parts.first() else {
            return Err(MassfError::InvalidConfig(
                "cannot merge zero world-state partitions".into(),
            ));
        };
        let misuse = |reason: String| MassfError::InvalidConfig(reason);
        for p in parts {
            if p.flow_counter.len() != first.flow_counter.len()
                || p.busy_until.len() != first.busy_until.len()
                || p.route_cache.shards.len() != first.route_cache.shards.len()
                || p.max_retries != first.max_retries
            {
                return Err(misuse("world-state partitions disagree on shape".into()));
            }
        }
        if assignment.len() != first.flow_counter.len() {
            return Err(misuse(format!(
                "assignment covers {} nodes, world has {}",
                assignment.len(),
                first.flow_counter.len()
            )));
        }
        let mut flow_counter = first.flow_counter.clone();
        let mut busy_until = first.busy_until.clone();
        let mut profile = first.profile.clone();
        for p in &parts[1..] {
            for (a, b) in flow_counter.iter_mut().zip(&p.flow_counter) {
                *a = (*a).max(*b);
            }
            for (a, b) in busy_until.iter_mut().zip(&p.busy_until) {
                *a = (*a).max(*b);
            }
            profile.merge(&p.profile);
        }
        let mut flows: Vec<FlowEntryState> =
            parts.iter().flat_map(|p| p.flows.iter().cloned()).collect();
        flows.sort_by_key(|f| f.flow);
        if flows.windows(2).any(|w| w[0].flow == w[1].flow) {
            return Err(misuse("two partitions own the same flow".into()));
        }
        let mut receivers: Vec<ReceiverEntryState> = parts
            .iter()
            .flat_map(|p| p.receivers.iter().copied())
            .collect();
        receivers.sort_by_key(|r| (r.node, r.flow));
        if receivers
            .windows(2)
            .any(|w| (w[0].node, w[0].flow) == (w[1].node, w[1].flow))
        {
            return Err(misuse("two partitions own the same receiver".into()));
        }
        let shards = first
            .route_cache
            .shards
            .iter()
            .enumerate()
            .map(|(i, _)| {
                let owner = assignment[i] as usize;
                parts
                    .get(owner)
                    .map(|p| p.route_cache.shards[i].clone())
                    .ok_or_else(|| {
                        misuse(format!("node {i} assigned to missing partition {owner}"))
                    })
            })
            .collect::<Result<Vec<_>, _>>()?;

        // Fluid coordinator state comes from the partition owning the
        // coordinator LP; everyone else must have exported it empty.
        let fluid_owner = assignment
            .get(FLUID_COORDINATOR.index())
            .map(|&p| p as usize);
        let fluid = match fluid_owner {
            Some(owner) => parts.get(owner).map(|p| p.fluid.clone()).ok_or_else(|| {
                misuse(format!(
                    "fluid coordinator assigned to missing partition {owner}"
                ))
            })?,
            None => FluidWorldState::default(),
        };
        for (i, p) in parts.iter().enumerate() {
            if fluid_owner != Some(i) && !p.fluid.is_empty() {
                return Err(misuse(format!(
                    "partition {i} exported fluid coordinator state it does not own"
                )));
            }
        }
        // Packet-side coupling arrays: each partition advances only the
        // slots whose sender node it owns and leaves the rest at their
        // defaults, so min-merge (MAX-default fields) / max-merge
        // (0-default fields) reconstructs the full arrays exactly.
        let slots = busy_until.len();
        let arrays_len_ok = |v: usize| -> bool { v == 0 || v == slots };
        for (i, p) in parts.iter().enumerate() {
            if !arrays_len_ok(p.fluid_seen_bps.len())
                || p.fluid_est_start.len() != p.fluid_seen_bps.len()
                || p.fluid_est_bytes.len() != p.fluid_seen_bps.len()
                || p.fluid_est_reported.len() != p.fluid_seen_bps.len()
            {
                return Err(misuse(format!(
                    "partition {i} fluid coupling arrays have inconsistent lengths"
                )));
            }
        }
        let any_coupling = parts.iter().any(|p| !p.fluid_seen_bps.is_empty());
        let (mut seen, mut est_start, mut est_bytes, mut est_reported) = if any_coupling {
            (
                vec![u64::MAX; slots],
                vec![SimTime::MAX; slots],
                vec![0u64; slots],
                vec![0u64; slots],
            )
        } else {
            (Vec::new(), Vec::new(), Vec::new(), Vec::new())
        };
        for p in parts {
            for (a, b) in seen.iter_mut().zip(&p.fluid_seen_bps) {
                *a = (*a).min(*b);
            }
            for (a, b) in est_start.iter_mut().zip(&p.fluid_est_start) {
                *a = (*a).min(*b);
            }
            for (a, b) in est_bytes.iter_mut().zip(&p.fluid_est_bytes) {
                *a = (*a).max(*b);
            }
            for (a, b) in est_reported.iter_mut().zip(&p.fluid_est_reported) {
                *a = (*a).max(*b);
            }
        }

        Ok(WorldState {
            flow_counter,
            busy_until,
            flows,
            receivers,
            route_cache: RouteCacheState {
                capacity: first.route_cache.capacity,
                shards,
            },
            profile,
            max_retries: first.max_retries,
            fluid,
            fluid_seen_bps: seen,
            fluid_est_start: est_start,
            fluid_est_bytes: est_bytes,
            fluid_est_reported: est_reported,
        })
    }
}

impl<A: AppLogic> NetWorld<A> {
    /// Export this world's mutable state in canonical form (see
    /// [`WorldState`]). For a partition world the export covers only
    /// what the partition owns; merge the partitions' exports with
    /// [`WorldState::merge_partitions`].
    pub fn export_state(&self) -> WorldState {
        let s = &self.state;
        let mut flows = Vec::new();
        for (node, index) in s.flows.by_node.iter().enumerate() {
            for &(counter, slot) in index {
                let cold = &s.flows.cold[slot as usize];
                flows.push(FlowEntryState {
                    flow: FlowId::new(NodeId(node as u32), counter),
                    sender: s.flows.hot[slot as usize].export_state(),
                    path: cold.path.to_vec(),
                    dst: cold.dst,
                    armed_epoch: cold.armed_epoch,
                    unroutable: cold.unroutable,
                });
            }
        }
        // Per-node flow indexes are counter-sorted and FlowId orders by
        // (node, counter), so the concatenation is already sorted.
        debug_assert!(flows.windows(2).all(|w| w[0].flow < w[1].flow));
        let mut receivers = Vec::new();
        for (node, index) in s.receivers.by_node.iter().enumerate() {
            for &(flow, slot) in index {
                let r = &s.receivers.state[slot as usize];
                receivers.push(ReceiverEntryState {
                    node: NodeId(node as u32),
                    flow,
                    rcv_next: r.rcv_next,
                    segments_seen: r.segments_seen,
                });
            }
        }
        WorldState {
            flow_counter: s.flow_counter.clone(),
            busy_until: s.busy_until.clone(),
            flows,
            receivers,
            route_cache: s.route_cache.export_state(),
            profile: self.profile.clone(),
            max_retries: s.max_retries,
            fluid: s
                .fluid
                .as_deref()
                .map(FluidState::export)
                .unwrap_or_default(),
            fluid_seen_bps: s.coupling.fluid_bps.clone(),
            fluid_est_start: s.coupling.est_start.clone(),
            fluid_est_bytes: s.coupling.est_bytes.clone(),
            fluid_est_reported: s.coupling.est_reported.clone(),
        }
    }

    /// Check the fluid solver's max-min fairness invariants (test
    /// hook; `Ok` when the world carries no fluid state).
    #[doc(hidden)]
    pub fn check_fluid_invariants(&self) -> Result<(), String> {
        match self.state.fluid.as_deref() {
            Some(fl) => fl.check_invariants(),
            None => Ok(()),
        }
    }

    /// Number of live fluid flows at the coordinator (test hook).
    #[doc(hidden)]
    pub fn fluid_live_flows(&self) -> usize {
        self.state
            .fluid
            .as_deref()
            .map(FluidState::live_flows)
            .unwrap_or(0)
    }

    /// Rebuild a full world from a canonical state, for sequential
    /// execution. The state is validated as untrusted input: any
    /// violated invariant yields [`MassfError::SnapshotCorrupt`], never
    /// a panic and never a silently inconsistent world.
    pub fn restore(shared: Arc<SharedNet>, app: A, state: &WorldState) -> Result<Self, MassfError> {
        Self::restore_filtered(shared, app, state, None)
    }

    /// Rebuild one partition's world from a canonical state: only the
    /// flows, receivers, and route-cache shards owned by `partition`
    /// under `assignment` are loaded (counters and busy horizons are
    /// kept in full — non-owners never advance them, so the later
    /// max-merge is exact).
    pub fn restore_partition(
        shared: Arc<SharedNet>,
        app: A,
        state: &WorldState,
        assignment: &[u32],
        partition: u32,
    ) -> Result<Self, MassfError> {
        if assignment.len() != shared.net.node_count() {
            return Err(MassfError::InvalidConfig(format!(
                "assignment covers {} nodes, network has {}",
                assignment.len(),
                shared.net.node_count()
            )));
        }
        Self::restore_filtered(shared, app, state, Some((assignment, partition)))
    }

    fn restore_filtered(
        shared: Arc<SharedNet>,
        app: A,
        state: &WorldState,
        filter: Option<(&[u32], u32)>,
    ) -> Result<Self, MassfError> {
        let bad = |reason: String| MassfError::SnapshotCorrupt {
            section: "world".into(),
            reason,
        };
        let nodes = shared.net.node_count();
        let links = shared.net.links.len();
        if state.flow_counter.len() != nodes {
            return Err(bad(format!(
                "flow counters cover {} nodes, network has {nodes}",
                state.flow_counter.len()
            )));
        }
        if state.busy_until.len() != links * 2 {
            return Err(bad(format!(
                "busy horizons cover {} slots, network has {}",
                state.busy_until.len(),
                links * 2
            )));
        }
        if state.profile.node_packets.len() != nodes || state.profile.link_packets.len() != links {
            return Err(bad("profile dimensions do not match the network".into()));
        }
        if !state.route_cache.shards.is_empty() && state.route_cache.shards.len() != nodes {
            return Err(bad(format!(
                "route cache has {} shards, network has {nodes} nodes",
                state.route_cache.shards.len()
            )));
        }
        // A cache hit is sent as-is, so every cached path must be one the
        // resolver could have returned: over links, from the shard's node
        // to the destination in the low half of the key.
        for (i, shard) in state.route_cache.shards.iter().enumerate() {
            for e in &shard.entries {
                let Some(path) = &e.path else { continue };
                validate_route(&shared, path, "world")?;
                let dst = e.key as u32;
                if path[0].index() != i || path[path.len() - 1].0 != dst {
                    return Err(bad(format!(
                        "cached path in shard {i} does not run from node {i} to node {dst}"
                    )));
                }
            }
        }
        let owned = |node: NodeId| match filter {
            Some((assignment, p)) => assignment[node.index()] == p,
            None => true,
        };

        let route_cache = match filter {
            Some(_) => {
                // Unowned shards start empty: their contents belong to
                // (and will be exported by) other partitions.
                let filtered = RouteCacheState {
                    capacity: state.route_cache.capacity,
                    shards: state
                        .route_cache
                        .shards
                        .iter()
                        .enumerate()
                        .map(|(i, sh)| {
                            if owned(NodeId(i as u32)) {
                                sh.clone()
                            } else {
                                RouteCacheShardState {
                                    entries: Vec::new(),
                                    queue: Vec::new(),
                                    stamp: 0,
                                }
                            }
                        })
                        .collect(),
                };
                RouteCache::from_state(&filtered)?
            }
            None => RouteCache::from_state(&state.route_cache)?,
        };

        let mut flows = FlowSlab::new(nodes);
        let mut prev: Option<FlowId> = None;
        for f in &state.flows {
            if prev.is_some_and(|p| f.flow <= p) {
                return Err(bad("flow entries are not strictly sorted by id".into()));
            }
            prev = Some(f.flow);
            let src = f.flow.source();
            if src.index() >= nodes {
                return Err(bad(format!("flow owned by unknown node {}", src.0)));
            }
            if flow_counter_of(f.flow) >= state.flow_counter[src.index()] {
                return Err(bad(format!(
                    "flow counter {} not yet issued by node {}",
                    flow_counter_of(f.flow),
                    src.0
                )));
            }
            validate_route(&shared, &f.path, "world")?;
            if f.path[0] != src || *f.path.last().expect("len ≥ 2 checked") != f.dst {
                return Err(bad(format!(
                    "flow path endpoints do not match source {} / destination {}",
                    src.0, f.dst.0
                )));
            }
            let sender = TcpSender::from_state(&f.sender)?;
            if sender.done || sender.aborted {
                return Err(bad("finished flow serialized as live".into()));
            }
            if owned(src) {
                flows.insert(
                    src,
                    f.flow,
                    sender,
                    FlowCold {
                        path: Arc::from(f.path.as_slice()),
                        dst: f.dst,
                        armed_epoch: f.armed_epoch,
                        unroutable: f.unroutable,
                    },
                );
            }
        }

        let mut receivers = ReceiverSlab::new(nodes);
        let mut prev: Option<(NodeId, FlowId)> = None;
        for r in &state.receivers {
            if prev.is_some_and(|p| (r.node, r.flow) <= p) {
                return Err(bad("receiver entries are not strictly sorted".into()));
            }
            prev = Some((r.node, r.flow));
            if r.node.index() >= nodes {
                return Err(bad(format!("receiver at unknown node {}", r.node.0)));
            }
            if owned(r.node) {
                let entry = receivers.entry(r.node, r.flow);
                entry.rcv_next = r.rcv_next;
                entry.segments_seen = r.segments_seen;
            }
        }

        // Packet-side fluid coupling: all four arrays empty (never
        // subscribed) or all 2·links long. A partition keeps only the
        // slots whose sending node it owns; the rest revert to their
        // defaults so the later min/max merge is exact.
        if state.fluid_seen_bps.len() != state.fluid_est_start.len()
            || state.fluid_seen_bps.len() != state.fluid_est_bytes.len()
            || state.fluid_seen_bps.len() != state.fluid_est_reported.len()
        {
            return Err(bad("fluid coupling arrays have inconsistent lengths".into()));
        }
        if !state.fluid_seen_bps.is_empty() && state.fluid_seen_bps.len() != links * 2 {
            return Err(bad(format!(
                "fluid coupling covers {} slots, network has {}",
                state.fluid_seen_bps.len(),
                links * 2
            )));
        }
        let mut coupling = FluidCoupling {
            fluid_bps: state.fluid_seen_bps.clone(),
            est_start: state.fluid_est_start.clone(),
            est_bytes: state.fluid_est_bytes.clone(),
            est_reported: state.fluid_est_reported.clone(),
        };
        if filter.is_some() {
            for s in 0..coupling.fluid_bps.len() {
                if !owned(crate::fluid::slot_sender(&shared, s as u32)) {
                    coupling.fluid_bps[s] = u64::MAX;
                    coupling.est_start[s] = SimTime::MAX;
                    coupling.est_bytes[s] = 0;
                    coupling.est_reported[s] = 0;
                }
            }
        }

        // Coordinator-side fluid state: loaded only by the coordinator
        // LP's owner; membership and aggregates are rebuilt, nothing is
        // emitted (pending alarms ride the event snapshot).
        let fluid = if !state.fluid.is_empty() && owned(FLUID_COORDINATOR) {
            if FLUID_COORDINATOR.index() >= nodes {
                return Err(bad("fluid state without a coordinator node".into()));
            }
            let issued = state.flow_counter[FLUID_COORDINATOR.index()];
            Some(Box::new(FluidState::restore(
                &shared,
                &state.fluid,
                issued,
            )?))
        } else {
            None
        };

        Ok(NetWorld {
            profile: ProfileData::new(nodes, links),
            state: NodeStates {
                flow_counter: state.flow_counter.clone(),
                busy_until: state.busy_until.clone(),
                flows,
                receivers,
                route_cache,
                action_scratch: Vec::new(),
                max_retries: state.max_retries,
                coupling,
                fluid,
            },
            shared,
            app,
        })
    }
}
