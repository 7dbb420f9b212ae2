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
//! struct-of-arrays slabs ([`FlowSlab`], [`ReceiverSlab`]) instead of
//! per-flow `HashMap` entries, the port table is a sorted CSR adjacency
//! instead of a `HashMap<(u32, u32), u32>`, and packets carry a single
//! interned path `Arc` (see [`Packet`]). Slab slot numbers are an
//! implementation detail of one world instance — they never leak into
//! `FlowId`s, events, or results, so sequential and parallel runs stay
//! bit-identical even though their worlds recycle slots differently.

use crate::fluid::{
    FluidCoupling, FluidState, FluidWorldState, FLUID_CONTROL_DELAY, FLUID_COORDINATOR,
    PACKET_FLOOR_DIV,
};
use crate::packet::{FlowId, NetEvent, Packet, PacketKind, ACK_BYTES, HEADER_BYTES, MSS};
use crate::profiling::ProfileData;
use crate::tcp::{AbortReason, SendAction, TcpReceiver, TcpSender, TcpSenderState, MAX_RETRIES};
use massf_engine::{Emitter, LpId, Model, SimTime};
use massf_faults::{FaultKind, FaultState};
use massf_routing::{PathResolver, RouteCache, RouteCacheShardState, RouteCacheState};
use massf_topology::{Link, MassfError, Network, NodeId};
use std::sync::Arc;

/// Default per-source route-cache capacity (destinations per source
/// node; see [`RouteCache`]). Sized so even a 20,000-node world stays
/// within tens of MB of cache while typical workloads — which revisit
/// far fewer than 128 peers per host — hit on nearly every resolve.
/// Pass `0` to [`NetWorld::with_route_cache`] /
/// [`crate::NetSimBuilder::route_cache_capacity`] to disable caching.
pub const DEFAULT_ROUTE_CACHE_CAPACITY: usize = 128;

/// Transport protocol selector for injected traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportKind {
    Tcp,
    Udp,
}

/// Sorted CSR adjacency for next-hop port lookup: for each node, its
/// neighbor ids in ascending order and the connecting link index, in
/// parallel `u32` arrays. Replaces the former `HashMap<(u32, u32), u32>`
/// — a binary search over a node's (short) neighbor range touches one
/// or two cache lines, allocates nothing, and iterates in a fixed
/// order, so it is trivially deterministic.
struct PortTable {
    /// Per-node range into `neighbors`/`links`; length `node_count + 1`.
    offsets: Box<[u32]>,
    /// Neighbor node ids, ascending within each node's range.
    neighbors: Box<[u32]>,
    /// Link index for the corresponding neighbor entry.
    links: Box<[u32]>,
}

impl PortTable {
    fn build(net: &Network) -> Self {
        let n = net.node_count();
        let mut offsets = vec![0u32; n + 1];
        for link in &net.links {
            offsets[link.a.index() + 1] += 1;
            offsets[link.b.index() + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let total = offsets[n] as usize;
        let mut cursor: Vec<u32> = offsets[..n].to_vec();
        let mut neighbors = vec![0u32; total];
        let mut links = vec![0u32; total];
        for link in &net.links {
            for (from, to) in [(link.a, link.b), (link.b, link.a)] {
                let c = &mut cursor[from.index()];
                neighbors[*c as usize] = to.0;
                links[*c as usize] = link.id.0;
                *c += 1;
            }
        }
        // Sort each node's range by neighbor id. The sort is stable, so
        // parallel links between the same pair keep link-insertion order
        // and lookup — which takes the *last* entry of an equal-neighbor
        // run — preserves the previous HashMap's insert-overwrite
        // semantics exactly.
        let mut scratch: Vec<(u32, u32)> = Vec::new();
        for i in 0..n {
            let range = offsets[i] as usize..offsets[i + 1] as usize;
            scratch.clear();
            scratch.extend(
                neighbors[range.clone()]
                    .iter()
                    .copied()
                    .zip(links[range.clone()].iter().copied()),
            );
            scratch.sort_by_key(|&(nb, _)| nb);
            for (k, &(nb, l)) in scratch.iter().enumerate() {
                neighbors[offsets[i] as usize + k] = nb;
                links[offsets[i] as usize + k] = l;
            }
        }
        PortTable {
            offsets: offsets.into(),
            neighbors: neighbors.into(),
            links: links.into(),
        }
    }

    /// Link index connecting `from → to`, if adjacent.
    fn lookup(&self, from: NodeId, to: NodeId) -> Option<u32> {
        let lo = self.offsets[from.index()] as usize;
        let hi = self.offsets[from.index() + 1] as usize;
        let ns = &self.neighbors[lo..hi];
        let end = ns.partition_point(|&nb| nb <= to.0);
        if end > 0 && ns[end - 1] == to.0 {
            Some(self.links[lo + end - 1])
        } else {
            None
        }
    }
}

/// Immutable data shared by all partitions: topology, routing, and
/// per-link derived constants.
pub struct SharedNet {
    pub net: Network,
    pub resolver: Arc<dyn PathResolver>,
    /// Scripted fault timeline, when fault injection is enabled. All
    /// queries are pure functions of virtual time, so sharing one
    /// instance across partitions preserves parallel determinism.
    pub faults: Option<Arc<FaultState>>,
    /// `(from, to)` → link index, both directions (sorted CSR).
    port: PortTable,
    /// Drop-tail buffer size per link, bytes.
    buffer_bytes: Vec<u64>,
    /// Per-link line rate in bytes/s (fixed-point image of
    /// `bandwidth_bps`, `≥ 1`), shared by the fluid solver and the
    /// packet-side coupling so both fidelities divide the same integer.
    pub(crate) cap_bytes_per_sec: Vec<u64>,
}

impl SharedNet {
    /// Derive shared state. Buffers default to 50 ms of line rate,
    /// floored at 30 kB (≈ 20 packets).
    pub fn new(net: Network, resolver: Arc<dyn PathResolver>) -> Arc<Self> {
        Self::build(net, resolver, None)
    }

    /// Like [`SharedNet::new`], with fault injection enabled: routing
    /// follows the fault timeline's per-epoch resolvers (epoch 0 — the
    /// fault-free prefix — uses `faults`' base resolver) and packets
    /// touching dead links or nodes are dropped.
    pub fn with_faults(net: Network, faults: Arc<FaultState>) -> Arc<Self> {
        let resolver = faults.resolver_for_epoch(0).clone();
        Self::build(net, resolver, Some(faults))
    }

    fn build(
        net: Network,
        resolver: Arc<dyn PathResolver>,
        faults: Option<Arc<FaultState>>,
    ) -> Arc<Self> {
        let port = PortTable::build(&net);
        let mut buffer_bytes = Vec::with_capacity(net.links.len());
        let mut cap_bytes_per_sec = Vec::with_capacity(net.links.len());
        for link in &net.links {
            buffer_bytes.push(((link.bandwidth_bps * 0.050 / 8.0) as u64).max(30_000));
            cap_bytes_per_sec.push(((link.bandwidth_bps / 8.0) as u64).max(1));
        }
        Arc::new(SharedNet {
            net,
            resolver,
            faults,
            port,
            buffer_bytes,
            cap_bytes_per_sec,
        })
    }

    /// The link connecting `from` to `to`, if adjacent.
    pub fn link_between(&self, from: NodeId, to: NodeId) -> Option<&Link> {
        self.port
            .lookup(from, to)
            .map(|l| &self.net.links[l as usize])
    }

    /// The path resolver in force at `now`: the epoch resolver of the
    /// fault timeline when faults are enabled, the static resolver
    /// otherwise.
    pub fn resolver_at(&self, now: SimTime) -> &dyn PathResolver {
        match &self.faults {
            Some(f) => f.resolver_at(now).as_ref(),
            None => self.resolver.as_ref(),
        }
    }

    /// Number of LPs (all nodes are LPs).
    pub fn lp_count(&self) -> usize {
        self.net.node_count()
    }

    /// Largest barrier window safe for running this network in parallel
    /// under `assignment`: the minimum latency of any link whose
    /// endpoints land in different partitions (the cut MLL), capped at
    /// [`FLUID_CONTROL_DELAY`] so fluid-coordinator control events are
    /// always covered regardless of which partition hosts the
    /// coordinator. With no cut links (e.g. a single partition) the cap
    /// alone applies. The window affects only synchronization frequency,
    /// never results, so callers (the online rebalancer recomputes this
    /// after every migration) may use it freely.
    pub fn safe_parallel_window(&self, assignment: &[u32]) -> SimTime {
        let mut mll = f64::INFINITY;
        for link in &self.net.links {
            if assignment[link.a.index()] != assignment[link.b.index()] && link.latency_ms < mll {
                mll = link.latency_ms;
            }
        }
        if mll.is_finite() {
            SimTime::from_ms_f64(mll).min(FLUID_CONTROL_DELAY)
        } else {
            FLUID_CONTROL_DELAY
        }
    }

    /// Link ids incident to `node` (CSR range; each id appears once per
    /// adjacency entry). Used by the fluid coordinator to localize a
    /// router crash to the flows traversing it.
    pub(crate) fn incident_links(&self, node: NodeId) -> &[u32] {
        let lo = self.port.offsets[node.index()] as usize;
        let hi = self.port.offsets[node.index() + 1] as usize;
        &self.port.links[lo..hi]
    }
}

/// The interface application logic uses to act on the network. All
/// actions originate at the current host (the LP whose event is being
/// handled).
pub struct SimApi<'a, 'b> {
    host: NodeId,
    now: SimTime,
    shared: &'a SharedNet,
    state: &'a mut NodeStates,
    profile: &'a mut ProfileData,
    emitter: &'a mut Emitter<'b, NetEvent>,
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
        start_tcp_flow_inner(
            self.shared,
            self.state,
            self.profile,
            self.emitter,
            self.host,
            dst,
            bytes,
            self.now,
        )
    }

    /// Send one UDP datagram of `bytes` payload to `dst`, carrying the
    /// app-opaque `meta` word. Returns false when unreachable.
    pub fn send_datagram(&mut self, dst: NodeId, bytes: u32, meta: u64) -> bool {
        let Some(path) = route_arc(
            self.shared,
            &mut self.state.route_cache,
            self.profile,
            self.host,
            dst,
            self.now,
        ) else {
            self.profile.unroutable += 1;
            return false;
        };
        let counter = &mut self.state.flow_counter[self.host.index()];
        let flow = FlowId::new(self.host, *counter);
        *counter += 1;
        let pkt = Packet {
            flow,
            meta,
            path,
            dst,
            seq: 0,
            size_bytes: bytes + HEADER_BYTES,
            hop: 0,
            kind: PacketKind::Datagram,
        };
        transmit(
            self.shared,
            &mut self.state.busy_until,
            &mut self.state.coupling,
            self.profile,
            self.emitter,
            pkt,
            self.now,
        );
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

/// The per-host counter packed into a [`FlowId`]'s low 32 bits.
#[inline]
fn flow_counter_of(flow: FlowId) -> u32 {
    (flow.0 & 0xFFFF_FFFF) as u32
}

/// Cold per-flow sender bookkeeping: touched at flow setup, RTO
/// fail-over, and teardown, but not on the per-ACK hot path (only its
/// `path`/`dst` words are read there, to stamp outgoing packets).
struct FlowCold {
    /// Forward path; the `Arc` is interned per `(epoch, src, dst)` by
    /// the world's route cache, so concurrent flows between the same
    /// pair share one allocation.
    path: Arc<[NodeId]>,
    /// Flow destination, cached out of the path.
    dst: NodeId,
    /// Epoch of the currently armed RTO timer.
    armed_epoch: u32,
    /// The last fault-driven re-resolution found no path (colors the
    /// abort reason).
    unroutable: bool,
}

/// Struct-of-arrays slab of active TCP senders, replacing the former
/// `HashMap<FlowId, FlowState>`.
///
/// Storage is slot-indexed: `hot[slot]` holds the TCP state machine
/// (the only thing the per-ACK hot path mutates), `cold[slot]` the
/// path/bookkeeping, and freed slots are recycled LIFO through `free`.
/// Lookup goes through a dense per-node index of `(flow counter, slot)`
/// pairs — per-host counters are monotone, so appends keep each index
/// sorted and lookup is a binary search over a short, cache-dense
/// array. Slot assignment is a pure function of the world's event
/// sequence (pop order of a LIFO free list), but slots are never
/// exposed: the semantic key is always `(node, counter)`.
struct FlowSlab {
    /// Hot per-flow TCP state machines.
    hot: Vec<TcpSender>,
    /// Cold per-flow bookkeeping, parallel to `hot`.
    cold: Vec<FlowCold>,
    /// Recycled slots, reused LIFO.
    free: Vec<u32>,
    /// Per-node `(flow counter, slot)` pairs, sorted by counter.
    by_node: Vec<Vec<(u32, u32)>>,
    /// Shared empty path installed in freed slots so the real path
    /// `Arc` is released as soon as the flow ends.
    empty: Arc<[NodeId]>,
}

impl FlowSlab {
    fn new(nodes: usize) -> Self {
        FlowSlab {
            hot: Vec::new(),
            cold: Vec::new(),
            free: Vec::new(),
            by_node: vec![Vec::new(); nodes],
            empty: Arc::from([]),
        }
    }

    /// Store a freshly opened flow; recycles a freed slot when one is
    /// available.
    fn insert(&mut self, node: NodeId, flow: FlowId, sender: TcpSender, cold: FlowCold) {
        let slot = match self.free.pop() {
            Some(s) => {
                self.hot[s as usize] = sender;
                self.cold[s as usize] = cold;
                s
            }
            None => {
                self.hot.push(sender);
                self.cold.push(cold);
                (self.hot.len() - 1) as u32
            }
        };
        let index = &mut self.by_node[node.index()];
        debug_assert!(
            index.last().is_none_or(|&(c, _)| c < flow_counter_of(flow)),
            "per-host flow counters are monotone"
        );
        index.push((flow_counter_of(flow), slot));
    }

    /// The slot of `flow` at `node`, if the flow is still active.
    fn slot_of(&self, node: NodeId, flow: FlowId) -> Option<usize> {
        let index = &self.by_node[node.index()];
        index
            .binary_search_by_key(&flow_counter_of(flow), |&(c, _)| c)
            .ok()
            .map(|i| index[i].1 as usize)
    }

    /// Release a finished flow's slot for reuse and drop its path.
    fn free(&mut self, node: NodeId, flow: FlowId) {
        let index = &mut self.by_node[node.index()];
        if let Ok(i) = index.binary_search_by_key(&flow_counter_of(flow), |&(c, _)| c) {
            let (_, slot) = index.remove(i);
            self.cold[slot as usize].path = self.empty.clone();
            self.free.push(slot);
        }
    }
}

/// Struct-of-arrays slab of TCP receivers, replacing the former
/// `HashMap<FlowId, TcpReceiver>`. Receiver entries live at the
/// *destination* LP and are never freed (the sender cannot reach across
/// LPs to close them — LP locality); they are bounded by the flow count
/// and each is a two-word cumulative-ACK machine.
struct ReceiverSlab {
    state: Vec<TcpReceiver>,
    /// Per-node `(flow, slot)` pairs, sorted by flow id.
    by_node: Vec<Vec<(FlowId, u32)>>,
}

impl ReceiverSlab {
    fn new(nodes: usize) -> Self {
        ReceiverSlab {
            state: Vec::new(),
            by_node: vec![Vec::new(); nodes],
        }
    }

    /// The receiver for `flow` at `node`, created on first touch.
    fn entry(&mut self, node: NodeId, flow: FlowId) -> &mut TcpReceiver {
        let index = &mut self.by_node[node.index()];
        let slot = match index.binary_search_by_key(&flow, |&(f, _)| f) {
            Ok(i) => index[i].1,
            Err(i) => {
                let slot = self.state.len() as u32;
                self.state.push(TcpReceiver::default());
                index.insert(i, (flow, slot));
                slot
            }
        };
        &mut self.state[slot as usize]
    }
}

/// Mutable per-node state. A world touches only entries belonging to its
/// partition's nodes.
struct NodeStates {
    /// Per-host counter for FlowId generation.
    flow_counter: Vec<u32>,
    /// Transmit-server state per (link, direction): the time the link
    /// becomes free. Direction 0 sends from `link.a`, 1 from `link.b`.
    busy_until: Vec<SimTime>,
    /// Active TCP senders (owned by the source host).
    flows: FlowSlab,
    /// TCP receivers (owned by the destination host).
    receivers: ReceiverSlab,
    /// Memoized path resolutions, sharded by source node. Routes are
    /// only resolved while handling an event at the source's LP, so
    /// each shard is owned by exactly one partition — per-run state
    /// that stays bit-identical across executors (see `route_arc`).
    /// Doubles as the world's path *interning* table: every packet of a
    /// flow (and every concurrent flow between the same pair in the
    /// same epoch) shares the one `Arc` cached here.
    route_cache: RouteCache,
    /// Reusable `SendAction` buffer, taken (and returned empty) by each
    /// handler batch so the steady-state hot path allocates nothing.
    action_scratch: Vec<SendAction>,
    /// Retry budget handed to every newly opened TCP flow.
    max_retries: u32,
    /// Packet-side fluid coupling per (link, direction): coordinator-
    /// reported fluid rates and the packet-load estimator. Lazily
    /// allocated on the first `FluidCapUpdate` this world receives, so
    /// packet-only runs carry nothing.
    coupling: FluidCoupling,
    /// The fluid solver, present only in the world owning
    /// [`FLUID_COORDINATOR`] and only once fluid traffic appeared.
    fluid: Option<Box<FluidState>>,
}

impl NodeStates {
    fn new(shared: &SharedNet, route_cache_capacity: usize, max_retries: u32) -> Self {
        let nodes = shared.net.node_count();
        NodeStates {
            flow_counter: vec![0; nodes],
            busy_until: vec![SimTime::ZERO; shared.net.links.len() * 2],
            flows: FlowSlab::new(nodes),
            receivers: ReceiverSlab::new(nodes),
            route_cache: RouteCache::new(nodes, route_cache_capacity),
            action_scratch: Vec::new(),
            max_retries,
            coupling: FluidCoupling::default(),
            fluid: None,
        }
    }
}

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
    /// default route-cache capacity.
    pub fn new(shared: Arc<SharedNet>, app: A) -> Self {
        Self::with_route_cache(shared, app, DEFAULT_ROUTE_CACHE_CAPACITY)
    }

    /// Like [`NetWorld::new`] with an explicit per-source route-cache
    /// capacity (`0` disables route caching).
    pub fn with_route_cache(shared: Arc<SharedNet>, app: A, route_cache_capacity: usize) -> Self {
        Self::with_config(shared, app, route_cache_capacity, MAX_RETRIES)
    }

    /// Like [`NetWorld::with_route_cache`] with an explicit TCP retry
    /// budget for every flow opened in this world (see
    /// [`crate::tcp::TcpSender::with_retries`]).
    pub fn with_config(
        shared: Arc<SharedNet>,
        app: A,
        route_cache_capacity: usize,
        max_retries: u32,
    ) -> Self {
        let state = NodeStates::new(&shared, route_cache_capacity, max_retries);
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

/// Resolve a route at virtual time `now` through the world's path
/// cache, requiring ≥ 2 nodes. Keys embed the fault-epoch index, so a
/// reconvergence can never serve a pre-fault path; repeated pairs in
/// the same epoch share one `Arc` and skip the resolver entirely.
///
/// Determinism: this is only called while handling an event at `src`'s
/// LP, so the per-src cache shard — and with it every hit/miss/evict
/// counter in `profile.route_cache` — sees the same query sequence at
/// any thread count or partitioning.
fn route_arc(
    shared: &SharedNet,
    cache: &mut RouteCache,
    profile: &mut ProfileData,
    src: NodeId,
    dst: NodeId,
    now: SimTime,
) -> Option<Arc<[NodeId]>> {
    if src == dst {
        return None;
    }
    let epoch = match &shared.faults {
        // simlint: allow(cast-lossy) -- epoch count is bounded by the fault-script length, far below u32::MAX
        Some(f) => f.epoch_at(now) as u32,
        None => 0,
    };
    cache.get_or_insert_with(&mut profile.route_cache, epoch, src, dst, || {
        let path = shared.resolver_at(now).route_arc(src, dst);
        if let Some(p) = &path {
            debug_assert!(p.len() >= 2);
        }
        path
    })
}

/// Put `pkt` on the wire at `node_at(hop) → node_at(hop+1)`. Applies
/// store-and-forward serialization, FIFO queueing, and drop-tail loss;
/// schedules the arrival at the next hop. Packets offered to a dead
/// link or dead endpoint are counted as fault drops.
fn transmit(
    shared: &SharedNet,
    busy_until: &mut [SimTime],
    coupling: &mut FluidCoupling,
    profile: &mut ProfileData,
    emitter: &mut Emitter<'_, NetEvent>,
    mut pkt: Packet,
    now: SimTime,
) {
    let from = pkt.node_at(pkt.hop as usize);
    let to = pkt.node_at(pkt.hop as usize + 1);
    let link = shared
        .link_between(from, to)
        .expect("resolved paths follow existing links");
    if let Some(f) = &shared.faults {
        if !f.is_link_up(link.id, now) || !f.is_node_up(from, now) || !f.is_node_up(to, now) {
            profile.fault_drops += 1;
            return;
        }
    }
    let dir = usize::from(from != link.a);
    let slot = link.id.index() * 2 + dir;

    // Fluid → packet coupling: once the coordinator has reported a
    // fluid aggregate for this slot, packets serialize at the residual
    // line rate (the fluid share is clamped so packets keep ≥ 1/16 of
    // the link) and the fluid share of the drop-tail buffer is charged
    // as standing occupancy. Unsubscribed slots — every slot in a
    // packet-only run — take the exact pre-fluid arithmetic, so pure
    // packet runs are bit-identical to what they were.
    let fluid = match coupling.fluid_bps.get(slot) {
        Some(&f) if f != u64::MAX => {
            let cap = shared.cap_bytes_per_sec[link.id.index()];
            Some(f.min(cap - cap / PACKET_FLOOR_DIV))
        }
        _ => None,
    };
    let (bandwidth_bps, buffer) = match fluid {
        Some(fl) => {
            let cap = shared.cap_bytes_per_sec[link.id.index()];
            let buf = shared.buffer_bytes[link.id.index()];
            let fluid_buf = ((buf as u128 * fl as u128) / cap as u128) as u64;
            ((cap - fl) as f64 * 8.0, buf - fluid_buf)
        }
        None => (link.bandwidth_bps, shared.buffer_bytes[link.id.index()]),
    };

    let busy = busy_until[slot];
    let depart = busy.max(now);
    // Bytes already queued = backlog time × (residual) line rate.
    let backlog_bytes = (depart.saturating_sub(now).as_secs_f64() * bandwidth_bps / 8.0) as u64;
    if backlog_bytes + pkt.size_bytes as u64 > buffer {
        profile.drops += 1;
        return;
    }
    let tx = SimTime::from_secs_f64(pkt.size_bytes as f64 * 8.0 / bandwidth_bps);
    busy_until[slot] = depart + tx;
    profile.link_packets[link.id.index()] += 1;
    if fluid.is_some() {
        // Packet → fluid coupling: feed the slot's load estimator.
        coupling.observe(
            shared.cap_bytes_per_sec[link.id.index()],
            slot,
            pkt.size_bytes as u64,
            now,
            emitter,
        );
    }

    let arrival_delay = (depart + tx + SimTime::from_ms_f64(link.latency_ms)) - now;
    pkt.hop += 1;
    emitter.emit(arrival_delay, LpId(to.0), NetEvent::Arrive(pkt));
}

/// Open a TCP flow; shared by `SimApi` and the `StartFlow` event.
#[allow(clippy::too_many_arguments)]
fn start_tcp_flow_inner(
    shared: &SharedNet,
    state: &mut NodeStates,
    profile: &mut ProfileData,
    emitter: &mut Emitter<'_, NetEvent>,
    src: NodeId,
    dst: NodeId,
    bytes: u64,
    now: SimTime,
) -> Option<FlowId> {
    let Some(path) = route_arc(shared, &mut state.route_cache, profile, src, dst, now) else {
        profile.unroutable += 1;
        return None;
    };
    let counter = &mut state.flow_counter[src.index()];
    let flow = FlowId::new(src, *counter);
    *counter += 1;

    let mut sender = TcpSender::with_retries(bytes, state.max_retries);
    let mut actions = std::mem::take(&mut state.action_scratch);
    sender.open(now, &mut actions);
    apply_actions(
        shared,
        &mut state.busy_until,
        &mut state.coupling,
        profile,
        emitter,
        flow,
        &path,
        dst,
        &mut actions,
        now,
    );
    state.action_scratch = actions;
    let mut armed_epoch = u32::MAX;
    arm_timer(emitter, src, flow, &sender, &mut armed_epoch);
    state.flows.insert(
        src,
        flow,
        sender,
        FlowCold {
            path,
            dst,
            armed_epoch,
            unroutable: false,
        },
    );
    Some(flow)
}

/// How a batch of sender actions left the flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FlowOutcome {
    Active,
    Completed,
    Aborted,
}

/// Turn sender actions into packets; reports whether the flow ended.
/// Drains `actions`, leaving the (capacity-retaining) buffer empty for
/// reuse.
#[allow(clippy::too_many_arguments)]
fn apply_actions(
    shared: &SharedNet,
    busy_until: &mut [SimTime],
    coupling: &mut FluidCoupling,
    profile: &mut ProfileData,
    emitter: &mut Emitter<'_, NetEvent>,
    flow: FlowId,
    path: &Arc<[NodeId]>,
    dst: NodeId,
    actions: &mut Vec<SendAction>,
    now: SimTime,
) -> FlowOutcome {
    let mut outcome = FlowOutcome::Active;
    for action in actions.drain(..) {
        match action {
            SendAction::Transmit { seq } => {
                let pkt = Packet {
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
                };
                transmit(shared, busy_until, coupling, profile, emitter, pkt, now);
            }
            SendAction::Complete => outcome = FlowOutcome::Completed,
            SendAction::Abort => outcome = FlowOutcome::Aborted,
        }
    }
    outcome
}

/// (Re-)arm the RTO timer when needed and not already armed for the
/// current epoch.
fn arm_timer(
    emitter: &mut Emitter<'_, NetEvent>,
    host: NodeId,
    flow: FlowId,
    sender: &TcpSender,
    armed_epoch: &mut u32,
) {
    if sender.needs_timer() && *armed_epoch != sender.timer_epoch {
        *armed_epoch = sender.timer_epoch;
        emitter.emit(
            sender.rto,
            LpId(host.0),
            NetEvent::RtoTimer {
                flow,
                epoch: sender.timer_epoch,
            },
        );
    }
}

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
/// [`transmit`], whose link lookup `expect`s adjacency — hostile
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
        if shared.port.lookup(w[0], w[1]).is_none() {
            return Err(bad(format!("path hop {} → {} has no link", w[0].0, w[1].0)));
        }
    }
    Ok(())
}

/// Validate one in-flight event against the topology it will replay on.
/// Used when loading a snapshot: the executors and [`NetWorld::handle`]
/// trust event invariants (in-range LPs, adjacent path hops, hop index
/// within the walk) that a corrupted or hostile snapshot can violate,
/// so every deserialized event passes through here first.
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
                    // simlint: allow(cast-lossy) -- node index bounded by the u32 node-id space
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
                    // simlint: allow(cast-lossy) -- node index bounded by the u32 node-id space
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
                            // simlint: allow(cast-lossy) -- node index bounded by the u32 node-id space
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
                // simlint: allow(cast-lossy) -- slot count bounded by 2·links ≤ u32 space
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
        let state = &mut self.state;
        let profile = &mut self.profile;
        let app = &mut self.app;

        match event {
            NetEvent::Arrive(pkt) => {
                // A packet that was in flight when its link or either
                // endpoint died is lost (checked at arrival time; `hop`
                // was already advanced past the traversed link).
                if let Some(f) = &shared.faults {
                    let prev = pkt.node_at(pkt.hop as usize - 1);
                    let link_up = shared
                        .link_between(prev, node)
                        .is_some_and(|l| f.is_link_up(l.id, now));
                    if !link_up || !f.is_node_up(node, now) {
                        profile.fault_drops += 1;
                        return;
                    }
                }
                profile.node_packets[node.index()] += 1;
                if !pkt.at_destination() {
                    transmit(
                        shared,
                        &mut state.busy_until,
                        &mut state.coupling,
                        profile,
                        out,
                        pkt,
                        now,
                    );
                    return;
                }
                match pkt.kind {
                    PacketKind::Data => {
                        let recv = state.receivers.entry(node, pkt.flow);
                        let ack = recv.on_data(pkt.seq);
                        // The ACK walks the *same* interned path in
                        // reverse (kind = Ack); no second allocation.
                        let ack_pkt = Packet {
                            flow: pkt.flow,
                            meta: 0,
                            path: pkt.path.clone(),
                            dst: pkt.flow.source(),
                            seq: ack,
                            size_bytes: ACK_BYTES,
                            hop: 0,
                            kind: PacketKind::Ack,
                        };
                        transmit(
                            shared,
                            &mut state.busy_until,
                            &mut state.coupling,
                            profile,
                            out,
                            ack_pkt,
                            now,
                        );
                    }
                    PacketKind::Ack => {
                        let Some(slot) = state.flows.slot_of(node, pkt.flow) else {
                            return; // flow already completed
                        };
                        let mut actions = std::mem::take(&mut state.action_scratch);
                        state.flows.hot[slot].on_ack(pkt.seq, now, &mut actions);
                        let (path, dst) = {
                            let cold = &state.flows.cold[slot];
                            (cold.path.clone(), cold.dst)
                        };
                        let outcome = apply_actions(
                            shared,
                            &mut state.busy_until,
                            &mut state.coupling,
                            profile,
                            out,
                            pkt.flow,
                            &path,
                            dst,
                            &mut actions,
                            now,
                        );
                        state.action_scratch = actions;
                        match outcome {
                            FlowOutcome::Completed => {
                                profile.completed_flows += 1;
                                profile.completed_segments +=
                                    state.flows.hot[slot].total_segments as u64;
                                // NOTE: the receiver-side entry lives at
                                // the *destination* LP and must not be
                                // touched from here (LP locality); it is
                                // simply left behind, bounded by the
                                // flow count.
                                state.flows.free(node, pkt.flow);
                                let mut api = SimApi {
                                    host: node,
                                    now,
                                    shared,
                                    state,
                                    profile,
                                    emitter: out,
                                };
                                app.on_flow_complete(node, pkt.flow, &mut api);
                            }
                            // ACKs acknowledge progress; they never
                            // exhaust the retry budget.
                            FlowOutcome::Aborted => unreachable!("ACKs cannot abort a flow"),
                            FlowOutcome::Active => {
                                arm_timer(
                                    out,
                                    node,
                                    pkt.flow,
                                    &state.flows.hot[slot],
                                    &mut state.flows.cold[slot].armed_epoch,
                                );
                            }
                        }
                    }
                    PacketKind::Datagram => {
                        let payload = pkt.size_bytes - HEADER_BYTES;
                        let meta = pkt.meta;
                        let mut api = SimApi {
                            host: node,
                            now,
                            shared,
                            state,
                            profile,
                            emitter: out,
                        };
                        app.on_datagram(node, pkt.flow, payload, meta, &mut api);
                    }
                }
            }
            NetEvent::RtoTimer { flow, epoch } => {
                let Some(slot) = state.flows.slot_of(node, flow) else {
                    return;
                };
                if state.flows.hot[slot].timer_epoch != epoch {
                    return; // stale timer
                }
                state.flows.cold[slot].armed_epoch = u32::MAX;
                // Under fault injection a timeout may mean the path died:
                // re-resolve against the current epoch and fail over to
                // the reconverged path before retransmitting. (Skipped
                // entirely in fault-free runs, whose behavior must not
                // change.)
                if shared.faults.is_some() {
                    let dst = state.flows.cold[slot].dst;
                    match route_arc(shared, &mut state.route_cache, profile, node, dst, now) {
                        Some(path) => {
                            let cold = &mut state.flows.cold[slot];
                            cold.unroutable = false;
                            if path != cold.path {
                                cold.path = path;
                            }
                        }
                        None => state.flows.cold[slot].unroutable = true,
                    }
                }
                let mut actions = std::mem::take(&mut state.action_scratch);
                state.flows.hot[slot].on_timeout(&mut actions);
                let (path, dst) = {
                    let cold = &state.flows.cold[slot];
                    (cold.path.clone(), cold.dst)
                };
                let outcome = apply_actions(
                    shared,
                    &mut state.busy_until,
                    &mut state.coupling,
                    profile,
                    out,
                    flow,
                    &path,
                    dst,
                    &mut actions,
                    now,
                );
                state.action_scratch = actions;
                match outcome {
                    FlowOutcome::Completed => unreachable!("timeout cannot complete a flow"),
                    FlowOutcome::Aborted => {
                        profile.aborted_flows += 1;
                        let reason = if state.flows.cold[slot].unroutable {
                            AbortReason::Unroutable
                        } else {
                            AbortReason::RetryBudgetExhausted
                        };
                        // As with completion, the receiver-side entry at
                        // the destination LP is left behind.
                        state.flows.free(node, flow);
                        let mut api = SimApi {
                            host: node,
                            now,
                            shared,
                            state,
                            profile,
                            emitter: out,
                        };
                        app.on_flow_aborted(node, flow, reason, &mut api);
                    }
                    FlowOutcome::Active => {
                        arm_timer(
                            out,
                            node,
                            flow,
                            &state.flows.hot[slot],
                            &mut state.flows.cold[slot].armed_epoch,
                        );
                    }
                }
            }
            NetEvent::AppTimer { token } => {
                let mut api = SimApi {
                    host: node,
                    now,
                    shared,
                    state,
                    profile,
                    emitter: out,
                };
                app.on_timer(node, token, &mut api);
            }
            NetEvent::StartFlow { dst, bytes } => {
                start_tcp_flow_inner(shared, state, profile, out, node, dst, bytes, now);
            }
            NetEvent::SendDatagram { dst, bytes, meta } => {
                let Some(path) = route_arc(shared, &mut state.route_cache, profile, node, dst, now)
                else {
                    profile.unroutable += 1;
                    return;
                };
                let counter = &mut state.flow_counter[node.index()];
                let flow = FlowId::new(node, *counter);
                *counter += 1;
                let pkt = Packet {
                    flow,
                    meta,
                    path,
                    dst,
                    seq: 0,
                    size_bytes: bytes + HEADER_BYTES,
                    hop: 0,
                    kind: PacketKind::Datagram,
                };
                transmit(
                    shared,
                    &mut state.busy_until,
                    &mut state.coupling,
                    profile,
                    out,
                    pkt,
                    now,
                );
            }
            NetEvent::Fault { kind: _kind } => {
                profile.fault_events += 1;
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
                let fl = state
                    .fluid
                    .get_or_insert_with(|| Box::new(FluidState::new(shared)));
                fl.start(
                    shared,
                    now,
                    src,
                    dst,
                    bytes,
                    peak_bps,
                    &mut state.flow_counter[FLUID_COORDINATOR.index()],
                    profile,
                    out,
                );
            }
            NetEvent::FluidFinish { flow, epoch } => {
                let Some(fl) = state.fluid.as_deref_mut() else {
                    return;
                };
                if let Some((src, dst)) = fl.finish(shared, now, flow, epoch, profile, out) {
                    let mut api = SimApi {
                        host: node,
                        now,
                        shared,
                        state,
                        profile,
                        emitter: out,
                    };
                    app.on_fluid_complete(src, flow, dst, &mut api);
                }
            }
            NetEvent::FluidFault { kind } => {
                let Some(fl) = state.fluid.as_deref_mut() else {
                    return;
                };
                let aborted = fl.fault(shared, now, kind, profile, out);
                for (flow, src, dst) in aborted {
                    let mut api = SimApi {
                        host: node,
                        now,
                        shared,
                        state,
                        profile,
                        emitter: out,
                    };
                    app.on_fluid_aborted(src, flow, dst, &mut api);
                }
            }
            NetEvent::FluidCapUpdate { slot, fluid_bps } => {
                state
                    .coupling
                    .subscribe(shared.net.links.len() * 2, slot, fluid_bps);
            }
            NetEvent::FluidPacketLoad { slot, bps } => {
                if let Some(fl) = state.fluid.as_deref_mut() {
                    fl.packet_load(shared, now, slot, bps, profile, out);
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
mod tests {
    use super::*;
    use crate::packet::segments_for;
    use massf_engine::run_sequential;
    use massf_routing::{CostMetric, FlatResolver};
    use massf_topology::{AsId, NodeKind, Point};

    /// host A — r1 — r2 — host B with configurable bottleneck.
    fn dumbbell(bottleneck_bps: f64) -> (Arc<SharedNet>, NodeId, NodeId) {
        let mut net = Network::new();
        let a = net.add_node(NodeKind::Host, Point::new(0.0, 0.0), AsId(0));
        let r1 = net.add_node(NodeKind::Router, Point::new(10.0, 0.0), AsId(0));
        let r2 = net.add_node(NodeKind::Router, Point::new(20.0, 0.0), AsId(0));
        let b = net.add_node(NodeKind::Host, Point::new(30.0, 0.0), AsId(0));
        net.add_link(a, r1, 1e9, 0.1);
        net.add_link(r1, r2, bottleneck_bps, 1.0);
        net.add_link(r2, b, 1e9, 0.1);
        let resolver = Arc::new(FlatResolver::new(&net, CostMetric::Latency));
        (SharedNet::new(net, resolver), a, b)
    }

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
            assert_eq!(
                shared.link_between(link.a, link.b).map(|l| l.id),
                Some(link.id)
            );
            assert_eq!(
                shared.link_between(link.b, link.a).map(|l| l.id),
                Some(link.id)
            );
        }
        // Non-adjacent pairs miss: hosts a (0) and b (3) are 3 hops apart.
        assert!(shared.link_between(NodeId(0), NodeId(3)).is_none());
        assert!(shared.link_between(NodeId(0), NodeId(2)).is_none());
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
        let initial = vec![
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
        let mid = SimTime::from_ms(150);

        let mut seq = NetWorld::new(shared.clone(), NoApp);
        run_sequential_resumable(&mut seq, n, seeded_resume(initial.clone(), n), mid)
            .expect("sequential segment");
        let seq_state = seq.export_state();

        // Cut between r1 and r2 (the only cross link, 1 ms latency).
        let assignment = [0u32, 0, 1, 1];
        let shards = vec![
            NetWorld::new(shared.clone(), NoApp),
            NetWorld::new(shared, NoApp),
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
        let merged = WorldState::merge_partitions(&parts, &assignment).expect("disjoint parts");
        assert_eq!(merged, seq_state);
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
        broken_path.flows[0].path = vec![a, b]; // hosts are not adjacent
        reject(&broken_path, "non-adjacent path hop");

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

    #[test]
    fn in_flight_event_validation_catches_hostile_packets() {
        let (shared, a, b) = dumbbell(10e6);
        let r1 = NodeId(1);
        let path: Arc<[NodeId]> = vec![a, r1, NodeId(2), b].into();
        let pkt = |hop: u16, path: Arc<[NodeId]>| Packet {
            flow: FlowId::new(a, 0),
            meta: 0,
            path,
            dst: b,
            seq: 0,
            size_bytes: 100,
            hop,
            kind: PacketKind::Data,
        };

        // A well-formed in-flight packet passes.
        let ok = NetEvent::Arrive(pkt(1, path.clone()));
        assert!(validate_net_event(&shared, LpId(r1.0), &ok).is_ok());

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
                NetEvent::Arrive(pkt(1, vec![a, b].into())),
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
        for (lp, ev, what) in cases {
            match validate_net_event(&shared, lp, &ev) {
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
    use crate::packet::HEADER_BYTES;
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
