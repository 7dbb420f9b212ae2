//! Immutable per-run data shared by every partition's world: the
//! topology, the resolver, the fault timeline and the per-link
//! constants derived from them.

use crate::fluid::FLUID_CONTROL_DELAY;
use crate::packet::Hop;
use massf_engine::SimTime;
use massf_faults::FaultState;
use massf_routing::PathResolver;
use massf_topology::{Network, NodeId};
use std::sync::Arc;

/// Sorted CSR adjacency from a node pair to the directed link slot
/// joining them: for each node, its neighbor ids in ascending order and
/// the slot (`link·2 + dir`) leaving towards each, in parallel `u32`
/// arrays. Consulted where a route is interned (`SharedNet::hop_route`:
/// route resolution, snapshot restore, fluid admission), never per hop
/// — packets carry their slots.
struct PortTable {
    /// Per-node range into `neighbors`/`slots`; length `node_count + 1`.
    offsets: Box<[u32]>,
    /// Neighbor node ids, ascending within each node's range.
    neighbors: Box<[u32]>,
    /// Outgoing link slot for the corresponding neighbor entry.
    slots: Box<[u32]>,
}

#[cfg(test)]
thread_local! {
    /// `PortTable::lookup` calls made on this thread (test probe: the
    /// forwarding path must not search the table per hop).
    pub(crate) static PORT_LOOKUPS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
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
        let mut slots = vec![0u32; total];
        for link in &net.links {
            for (dir, (from, to)) in [(link.a, link.b), (link.b, link.a)].into_iter().enumerate() {
                let c = &mut cursor[from.index()];
                neighbors[*c as usize] = to.0;
                slots[*c as usize] = link.id.0 * 2 + dir as u32;
                *c += 1;
            }
        }
        // Sort each node's range by neighbor id. The sort is stable, so
        // parallel links between the same pair keep link-insertion order
        // and lookup — which takes the *last* entry of an equal-neighbor
        // run — picks the same (last-inserted) link from either end:
        // `slot(b → a) == slot(a → b) ^ 1`, the mirror an ACK walks.
        let mut scratch: Vec<(u32, u32)> = Vec::new();
        for i in 0..n {
            let range = offsets[i] as usize..offsets[i + 1] as usize;
            scratch.clear();
            scratch.extend(
                neighbors[range.clone()]
                    .iter()
                    .copied()
                    .zip(slots[range.clone()].iter().copied()),
            );
            scratch.sort_by_key(|&(nb, _)| nb);
            for (k, &(nb, l)) in scratch.iter().enumerate() {
                neighbors[offsets[i] as usize + k] = nb;
                slots[offsets[i] as usize + k] = l;
            }
        }
        PortTable {
            offsets: offsets.into(),
            neighbors: neighbors.into(),
            slots: slots.into(),
        }
    }

    /// Slot leaving `from` towards `to`, if adjacent (`None` for a node
    /// outside the table too).
    fn lookup(&self, from: NodeId, to: NodeId) -> Option<u32> {
        #[cfg(test)]
        PORT_LOOKUPS.with(|c| c.set(c.get() + 1));
        let lo = *self.offsets.get(from.index())? as usize;
        let hi = *self.offsets.get(from.index() + 1)? as usize;
        let ns = &self.neighbors[lo..hi];
        let end = ns.partition_point(|&nb| nb <= to.0);
        (end > 0 && ns[end - 1] == to.0).then(|| self.slots[lo + end - 1])
    }
}

/// What a packet needs of one link, derived once from the topology and
/// read by its index on every hop.
pub(crate) struct LinkParams {
    /// Propagation delay.
    pub(crate) latency: SimTime,
    /// Line rate, bits/s.
    pub(crate) bandwidth_bps: f64,
    /// Drop-tail buffer size, bytes.
    pub(crate) buffer_bytes: u64,
    /// Line rate in bytes/s (fixed-point image of `bandwidth_bps`,
    /// `≥ 1`), shared by the fluid solver and the packet-side coupling
    /// so both fidelities divide the same integer.
    pub(crate) cap_bytes_per_sec: u64,
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
    /// `(from, to)` → link slot, both directions (sorted CSR).
    port: PortTable,
    /// Per-link parameters, indexed by link id.
    pub(crate) links: Box<[LinkParams]>,
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

    #[expect(
        clippy::float_arithmetic,
        reason = "per-link unit conversions of one link's bandwidth, no accumulation"
    )]
    fn build(
        net: Network,
        resolver: Arc<dyn PathResolver>,
        faults: Option<Arc<FaultState>>,
    ) -> Arc<Self> {
        let port = PortTable::build(&net);
        let links = net
            .links
            .iter()
            .map(|link| LinkParams {
                latency: SimTime::from_ms_f64(link.latency_ms),
                bandwidth_bps: link.bandwidth_bps,
                buffer_bytes: ((link.bandwidth_bps * 0.050 / 8.0) as u64).max(30_000),
                cap_bytes_per_sec: ((link.bandwidth_bps / 8.0) as u64).max(1),
            })
            .collect();
        Arc::new(SharedNet {
            net,
            resolver,
            faults,
            port,
            links,
        })
    }

    /// The directed link slot (`link·2 + dir`) leaving `from` towards
    /// `to`, if they are adjacent. Between parallel links it is the
    /// last-inserted one, from either end, so `slot_between(b, a) ==
    /// slot_between(a, b) ^ 1`.
    pub fn slot_between(&self, from: NodeId, to: NodeId) -> Option<u32> {
        self.port.lookup(from, to)
    }

    /// Intern `path` (nodes, or hops whose slots are ignored) as a
    /// route: each node with the slot it leaves on ([`Hop::END`] at the
    /// last), in one exact-size allocation. `None` when a consecutive
    /// pair is not a link or a node is unknown. The one place slots are
    /// computed, for packet routes and fluid flows alike.
    pub fn hop_route<T: Copy + Into<NodeId>>(&self, path: &[T]) -> Option<Arc<[Hop]>> {
        if path.len() < 2 {
            return None;
        }
        let route: Arc<[Hop]> = path
            .iter()
            .enumerate()
            .map(|(i, &node)| {
                let node = node.into();
                Hop {
                    node,
                    slot: path
                        .get(i + 1)
                        .and_then(|&next| self.slot_between(node, next.into()))
                        .unwrap_or(Hop::END),
                }
            })
            .collect();
        route[..route.len() - 1]
            .iter()
            .all(|hop| hop.slot != Hop::END)
            .then_some(route)
    }

    /// Resolve `src → dst` with the resolver in force at `now` and
    /// intern the answer with [`SharedNet::hop_route`]. An answer is
    /// accepted only if it runs from `src` to `dst` over links; anything
    /// else is no route. The world's route table and the fluid
    /// coordinator's memo both fill through here.
    pub fn resolve_route(&self, now: SimTime, src: NodeId, dst: NodeId) -> Option<Arc<[Hop]>> {
        let path = self.resolver_at(now).route(src, dst)?;
        if path.first() != Some(&src) || path.last() != Some(&dst) {
            return None;
        }
        self.hop_route(&path)
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
        self.net
            .cut_mll_ms(assignment)
            .map_or(FLUID_CONTROL_DELAY, |mll| {
                SimTime::from_ms_f64(mll).min(FLUID_CONTROL_DELAY)
            })
    }

    /// Slots leaving `node` (CSR range; one per adjacency entry). Used
    /// by the fluid coordinator to localize a router crash to the flows
    /// traversing it.
    pub(crate) fn outgoing_slots(&self, node: NodeId) -> &[u32] {
        let lo = self.port.offsets[node.index()] as usize;
        let hi = self.port.offsets[node.index() + 1] as usize;
        &self.port.slots[lo..hi]
    }
}

/// Small worlds shared by this crate's unit tests.
#[cfg(test)]
pub(crate) mod fixtures {
    use super::*;
    use massf_routing::{CostMetric, FlatResolver};
    use massf_topology::{AsId, NodeKind, Point};

    /// host A — r1 — r2 — host B; the middle link is the bottleneck.
    /// With `bottleneck_bps = 8e6` its capacity is exactly
    /// 1 000 000 bytes/s, which keeps expected fair shares integral.
    pub(crate) fn dumbbell(bottleneck_bps: f64) -> (Arc<SharedNet>, NodeId, NodeId) {
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

    /// A route over `nodes` as a snapshot decodes it: no slots yet.
    pub(crate) fn unslotted(nodes: &[NodeId]) -> Arc<[Hop]> {
        nodes
            .iter()
            .map(|&node| Hop {
                node,
                slot: Hop::END,
            })
            .collect()
    }

    /// Routes like the flat resolver it wraps, except that `from → to`
    /// is answered with `bogus`.
    pub(crate) struct Detour {
        inner: FlatResolver,
        from: NodeId,
        to: NodeId,
        bogus: Vec<NodeId>,
    }

    impl PathResolver for Detour {
        fn route(&self, src: NodeId, dst: NodeId) -> Option<Vec<NodeId>> {
            if (src, dst) == (self.from, self.to) {
                Some(self.bogus.clone())
            } else {
                self.inner.route(src, dst)
            }
        }
    }

    /// The `dumbbell` network with `a → b` answered `a, r1, b`: the
    /// first hop is a link, the second is not.
    pub(crate) fn dumbbell_net_with_detour() -> (Network, Detour, NodeId, NodeId) {
        dumbbell_net_answering(|a, r1, b| vec![a, r1, b])
    }

    /// The `dumbbell` network with `a → b` answered `bogus(a, r1, b)`.
    pub(crate) fn dumbbell_net_answering(
        bogus: impl FnOnce(NodeId, NodeId, NodeId) -> Vec<NodeId>,
    ) -> (Network, Detour, NodeId, NodeId) {
        let (shared, a, b) = dumbbell(8e6);
        let net = shared.net.clone();
        let detour = Detour {
            inner: FlatResolver::new(&net, CostMetric::Latency),
            from: a,
            to: b,
            bogus: bogus(a, NodeId(a.0 + 1), b),
        };
        (net, detour, a, b)
    }
}
