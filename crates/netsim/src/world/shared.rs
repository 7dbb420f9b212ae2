//! Immutable per-run data shared by every partition's world: the
//! topology, the resolver, the fault timeline and the per-link
//! constants derived from them.

use crate::fluid::FLUID_CONTROL_DELAY;
use massf_engine::SimTime;
use massf_faults::FaultState;
use massf_routing::PathResolver;
use massf_topology::{Link, Network, NodeId};
use std::sync::Arc;

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
    pub(super) buffer_bytes: Vec<u64>,
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
        self.net
            .cut_mll_ms(assignment)
            .map_or(FLUID_CONTROL_DELAY, |mll| {
                SimTime::from_ms_f64(mll).min(FLUID_CONTROL_DELAY)
            })
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
        let (shared, a, b) = dumbbell(8e6);
        let net = shared.net.clone();
        let detour = Detour {
            inner: FlatResolver::new(&net, CostMetric::Latency),
            from: a,
            to: b,
            bogus: vec![a, NodeId(a.0 + 1), b],
        };
        (net, detour, a, b)
    }
}
