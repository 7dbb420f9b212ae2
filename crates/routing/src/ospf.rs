//! OSPF: intra-domain link-state shortest-path routing.
//!
//! An [`OspfDomain`] covers one routing domain — the whole network for
//! the paper's flat single-AS experiments (Section 4), or one AS of a
//! multi-AS network. Shortest-path trees (SPTs) are computed per
//! *destination* with Dijkstra and cached, so path queries cost
//! O(path length) after the first query to a destination and the domain
//! never materializes an O(N²) table: it holds the trees that were
//! actually routed on, at most `cache_capacity` of them.
//!
//! ## Storage and locking
//!
//! An SPT stores *only* the parent array — `parent[i]` is the local
//! index of the next hop from member `i` toward the destination, which
//! doubles as the next-hop table, and distances are recomputed on demand
//! by walking parents and summing link costs (4 bytes per node per
//! destination instead of 12; a 20,000-router full table is 1.6 GB, not
//! 4.8 GB — which is why no caller builds one). SPTs are computed on
//! first use and live in one bounded FIFO cache behind a mutex, the only
//! SPT store and the only read path. A domain whose capacity is at least
//! its core size (the fault subsystem's per-epoch domains) never evicts,
//! so it converges to exactly the trees its traffic needs.
//!
//! ## Host aggregation
//!
//! Hosts attach to exactly one router, so a host's routes are its
//! router's routes plus the single access link. The domain exploits
//! this: members that are single-homed hosts are classified as
//! *aggregated leaves* at build time and excluded from the Dijkstra
//! graph entirely — SPTs (and their parent arrays, and the destination
//! axis of the cache) cover only the *core* (routers plus any
//! multi-homed or isolated oddballs). Queries compose a leaf endpoint as
//! `[host] + core walk from its attach router` (and symmetrically at the
//! destination), which is exact because the access link is the host's
//! only edge. For the paper's topologies — tens of hosts per router —
//! this shrinks each tree by the host:router ratio and the number of
//! distinct trees by it again: one routing entry per attached router,
//! not per host.

// simlint: allow-file(cast-lossy) -- local router indices are positions in `members`, bounded by the domain size which is far below u32::MAX
use massf_topology::{Network, NodeId, NodeKind};
use parking_lot::Mutex;
use std::collections::{BinaryHeap, HashMap, VecDeque};

/// Link cost metric for SPF.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CostMetric {
    /// Every link costs 1 (hop count).
    Hop,
    /// Cost = propagation latency (what MaSSF's DML configs use).
    Latency,
    /// Cost = a reference rate divided by bandwidth (classic Cisco cost).
    InverseBandwidth,
}

impl CostMetric {
    fn cost(self, link: &massf_topology::Link) -> u64 {
        match self {
            CostMetric::Hop => 1,
            // Nanosecond resolution keeps ordering exact in integers.
            CostMetric::Latency => (link.latency_ms * 1e6).round() as u64,
            CostMetric::InverseBandwidth => {
                // 100 Gbps reference, floor 1 (OSPF cost is ≥ 1).
                ((1e11 / link.bandwidth_bps).round() as u64).max(1)
            }
        }
    }
}

/// A destination's shortest-path tree, stored as a flat parent array —
/// the parent *is* the next hop toward the destination, and distances
/// are recovered by walking parents (see the module docs).
#[derive(Debug, Clone)]
struct Spt {
    /// `parent[i]` = core index of next hop from core member `i` toward
    /// the destination; `u32::MAX` when unreachable or at the
    /// destination. Aggregated leaves have no row — they resolve through
    /// their attach router's.
    parent: Box<[u32]>,
}

/// Reusable Dijkstra working memory: one allocation per domain instead
/// of one per destination.
#[derive(Default)]
struct SptScratch {
    dist: Vec<u64>,
    heap: BinaryHeap<std::cmp::Reverse<(u64, u32)>>,
}

/// An OSPF routing domain over a subset of a [`Network`]'s nodes.
///
/// Queries are thread-safe: SPTs are computed on first use into a
/// bounded FIFO cache behind a mutex. Each tree is a pure function of
/// the domain and the destination, so neither query order nor the
/// querying thread can change an answer — only who pays for the tree.
pub struct OspfDomain {
    /// Member nodes (routers and hosts of the domain), defining local
    /// indices.
    members: Vec<NodeId>,
    /// Global node id → local index (u32::MAX = not a member).
    local_of: Vec<u32>,
    /// *Core* adjacency — aggregated leaves excluded — indexed by core
    /// index: `(neighbor core index, cost)`.
    adj: Vec<Vec<(u32, u64)>>,
    /// Member local index → core index; `u32::MAX` marks an aggregated
    /// leaf (single-homed host, resolved through `attach`).
    core_of: Box<[u32]>,
    /// Core index → member local index (order-preserving compaction).
    core_member: Box<[u32]>,
    /// Per member local index, for aggregated leaves: `(attach router
    /// core index, access-link cost)`. Core members hold `(u32::MAX, 0)`.
    attach: Box<[(u32, u64)]>,
    metric: CostMetric,
    cache: Mutex<SptCache>,
}

struct SptCache {
    map: HashMap<u32, Spt>, // keyed by destination *core* index
    order: VecDeque<u32>,   // FIFO for eviction
    capacity: usize,
    scratch: SptScratch, // reused across lazy Dijkstra runs
}

impl OspfDomain {
    /// Build a domain over `members` of `net`, using only links whose
    /// both endpoints are members (intra-domain links).
    pub fn new(net: &Network, members: Vec<NodeId>, metric: CostMetric) -> Self {
        Self::with_cache_capacity(net, members, metric, 1024)
    }

    /// Like [`OspfDomain::new`] with an explicit SPT cache capacity.
    pub fn with_cache_capacity(
        net: &Network,
        members: Vec<NodeId>,
        metric: CostMetric,
        cache_capacity: usize,
    ) -> Self {
        Self::with_link_filter(net, members, metric, cache_capacity, |_| true)
    }

    /// Like [`OspfDomain::with_cache_capacity`] but only links for which
    /// `alive(link)` holds enter the adjacency — the reconvergence
    /// primitive of the fault subsystem: rebuilding a domain with dead
    /// links (or all links of a crashed router) filtered out yields the
    /// post-fault shortest-path trees.
    pub fn with_link_filter(
        net: &Network,
        members: Vec<NodeId>,
        metric: CostMetric,
        cache_capacity: usize,
        alive: impl Fn(&massf_topology::Link) -> bool,
    ) -> Self {
        let mut local_of = vec![u32::MAX; net.node_count()];
        for (i, &m) in members.iter().enumerate() {
            local_of[m.index()] = i as u32;
        }
        let mut full_adj: Vec<Vec<(u32, u64)>> = vec![Vec::new(); members.len()];
        for link in &net.links {
            if !alive(link) {
                continue;
            }
            let (la, lb) = (local_of[link.a.index()], local_of[link.b.index()]);
            if la != u32::MAX && lb != u32::MAX {
                let c = metric.cost(link);
                full_adj[la as usize].push((lb, c));
                full_adj[lb as usize].push((la, c));
            }
        }

        // Leaf classification: a host with exactly one distinct (alive,
        // intra-domain) neighbor is aggregated behind that neighbor.
        // Degenerate host–host pairs (each the other's only neighbor)
        // stay in the core, so every leaf's attach point is a core node.
        // Purely a function of members + alive links — deterministic.
        let candidate: Vec<bool> = members
            .iter()
            .zip(&full_adj)
            .map(|(&m, nbrs)| {
                net.nodes[m.index()].kind == NodeKind::Host
                    && !nbrs.is_empty()
                    && nbrs.iter().all(|&(nb, _)| nb == nbrs[0].0)
            })
            .collect();
        let is_leaf: Vec<bool> = candidate
            .iter()
            .enumerate()
            .map(|(i, &c)| c && !candidate[full_adj[i][0].0 as usize])
            .collect();

        // Order-preserving core compaction.
        let mut core_of = vec![u32::MAX; members.len()].into_boxed_slice();
        let mut core_member = Vec::new();
        for (i, &leaf) in is_leaf.iter().enumerate() {
            if !leaf {
                core_of[i] = core_member.len() as u32;
                core_member.push(i as u32);
            }
        }

        // Core adjacency (leaf edges dropped — no path routes *through*
        // a degree-1 node) and leaf attach records (min cost over
        // parallel access links, matching what Dijkstra would relax).
        let mut adj: Vec<Vec<(u32, u64)>> = vec![Vec::new(); core_member.len()];
        let mut attach = vec![(u32::MAX, 0u64); members.len()].into_boxed_slice();
        for (i, nbrs) in full_adj.iter().enumerate() {
            if is_leaf[i] {
                let router = core_of[nbrs[0].0 as usize];
                let cost = nbrs
                    .iter()
                    .map(|&(_, c)| c)
                    .min()
                    .expect("leaf has at least one access link");
                attach[i] = (router, cost);
            } else {
                let ci = core_of[i] as usize;
                adj[ci].extend(
                    nbrs.iter()
                        .filter(|&&(nb, _)| !is_leaf[nb as usize])
                        .map(|&(nb, c)| (core_of[nb as usize], c)),
                );
            }
        }

        OspfDomain {
            members,
            local_of,
            adj,
            core_of,
            core_member: core_member.into_boxed_slice(),
            attach,
            metric,
            cache: Mutex::new(SptCache {
                map: HashMap::new(),
                order: VecDeque::new(),
                capacity: cache_capacity.max(1),
                scratch: SptScratch::default(),
            }),
        }
    }

    /// The metric in use.
    pub fn metric(&self) -> CostMetric {
        self.metric
    }

    /// Number of member nodes.
    pub fn member_count(&self) -> usize {
        self.members.len()
    }

    /// Is `node` part of this domain?
    pub fn contains(&self, node: NodeId) -> bool {
        self.local_of[node.index()] != u32::MAX
    }

    /// Number of core (non-aggregated) members — the size of every SPT
    /// parent array and the number of distinct trees the domain can
    /// ever hold.
    pub fn core_count(&self) -> usize {
        self.core_member.len()
    }

    /// The `NodeId` behind a core index.
    fn core_node(&self, c: u32) -> NodeId {
        self.members[self.core_member[c as usize] as usize]
    }

    /// Core anchor of member `l`: `(own core index, 0)` for core
    /// members, `(attach router core index, access-link cost)` for
    /// aggregated leaves.
    fn anchor(&self, l: u32) -> (u32, u64) {
        let c = self.core_of[l as usize];
        if c != u32::MAX {
            (c, 0)
        } else {
            self.attach[l as usize]
        }
    }

    fn compute_spt(&self, dst_local: u32, scratch: &mut SptScratch) -> Spt {
        let n = self.core_member.len();
        scratch.dist.clear();
        scratch.dist.resize(n, u64::MAX);
        scratch.heap.clear();
        let dist = &mut scratch.dist;
        let heap = &mut scratch.heap;
        let mut parent = vec![u32::MAX; n].into_boxed_slice();
        dist[dst_local as usize] = 0;
        heap.push(std::cmp::Reverse((0, dst_local)));
        while let Some(std::cmp::Reverse((d, v))) = heap.pop() {
            if d > dist[v as usize] {
                continue;
            }
            for &(u, c) in &self.adj[v as usize] {
                let nd = d + c;
                // Deterministic tie-break: strictly better distance, or
                // equal distance with a lower-indexed parent.
                let ud = dist[u as usize];
                if nd < ud || (nd == ud && v < parent[u as usize]) {
                    dist[u as usize] = nd;
                    parent[u as usize] = v;
                    heap.push(std::cmp::Reverse((nd, u)));
                }
            }
        }
        Spt { parent }
    }

    fn with_spt<R>(&self, dst_local: u32, f: impl FnOnce(&Spt) -> R) -> R {
        let mut cache = self.cache.lock();
        if !cache.map.contains_key(&dst_local) {
            let cache = &mut *cache;
            let spt = self.compute_spt(dst_local, &mut cache.scratch);
            if cache.map.len() >= cache.capacity {
                if let Some(old) = cache.order.pop_front() {
                    cache.map.remove(&old);
                }
            }
            cache.order.push_back(dst_local);
            cache.map.insert(dst_local, spt);
        }
        f(&cache.map[&dst_local])
    }

    /// Cheapest direct-edge cost `from → to`; both must be adjacent
    /// (parallel links collapse to the min cost, matching what Dijkstra
    /// relaxed with).
    fn min_edge_cost(&self, from: u32, to: u32) -> u64 {
        self.adj[from as usize]
            .iter()
            .filter(|&&(nb, _)| nb == to)
            .map(|&(_, c)| c)
            .min()
            .expect("SPT parents are adjacent members")
    }

    /// Next hop from `src` toward `dst`, or `None` if unreachable /
    /// not members / `src == dst`.
    pub fn next_hop(&self, src: NodeId, dst: NodeId) -> Option<NodeId> {
        let (ls, ld) = (self.local_of[src.index()], self.local_of[dst.index()]);
        if ls == u32::MAX || ld == u32::MAX || ls == ld {
            return None;
        }
        let (a, _) = self.anchor(ls);
        let (b, _) = self.anchor(ld);
        if self.core_of[ls as usize] == u32::MAX {
            // Aggregated leaf: its only edge goes to the attach router —
            // the answer whenever `dst` is reachable at all.
            let reachable = a == b || self.with_spt(b, |spt| spt.parent[a as usize] != u32::MAX);
            return reachable.then(|| self.core_node(a));
        }
        if a == b {
            // `src` is `dst`'s attach router (ls != ld rules out the
            // core–core case): one access-link hop remains.
            return Some(dst);
        }
        self.with_spt(b, |spt| {
            let p = spt.parent[a as usize];
            (p != u32::MAX).then(|| self.core_node(p))
        })
    }

    /// Full shortest path `src → … → dst` (inclusive), or `None` if
    /// unreachable. `src == dst` yields `[src]`.
    pub fn path(&self, src: NodeId, dst: NodeId) -> Option<Vec<NodeId>> {
        let (ls, ld) = (self.local_of[src.index()], self.local_of[dst.index()]);
        if ls == u32::MAX || ld == u32::MAX {
            return None;
        }
        if ls == ld {
            return Some(vec![src]);
        }
        // Count-then-fill inside `build_path`: one exact allocation.
        let mut path = Vec::new();
        self.build_path(ls, ld, src, dst, false, &mut path)
            .then_some(path)
    }

    /// Append the shortest path `src → … → dst` to `out`, skipping `src`
    /// itself when it already sits at `out`'s tail (the multi-AS
    /// resolver stitches legs into one buffer this way). Returns `false`
    /// — leaving `out` untouched — when either endpoint is not a member
    /// or `dst` is unreachable.
    pub(crate) fn path_append(&self, src: NodeId, dst: NodeId, out: &mut Vec<NodeId>) -> bool {
        let (ls, ld) = (self.local_of[src.index()], self.local_of[dst.index()]);
        if ls == u32::MAX || ld == u32::MAX {
            return false;
        }
        let skip_src = out.last() == Some(&src);
        if ls == ld {
            if !skip_src {
                out.push(src);
            }
            return true;
        }
        self.build_path(ls, ld, src, dst, skip_src, out)
    }

    /// Append `src → … → dst` (`ls != ld`) composed from the aggregated
    /// layout: `src`, then — when `src` is a leaf — its attach router,
    /// then the core walk to `dst`'s anchor, then `dst` itself when it
    /// is a leaf. Exact because an access link is a leaf's only edge.
    /// Returns `false` (leaving `out` untouched) when unreachable.
    fn build_path(
        &self,
        ls: u32,
        ld: u32,
        src: NodeId,
        dst: NodeId,
        skip_src: bool,
        out: &mut Vec<NodeId>,
    ) -> bool {
        let (a, _) = self.anchor(ls);
        let (b, _) = self.anchor(ld);
        let src_is_leaf = self.core_of[ls as usize] == u32::MAX;
        let dst_is_leaf = self.core_of[ld as usize] == u32::MAX;
        let fixed = usize::from(!skip_src) + usize::from(src_is_leaf) + usize::from(dst_is_leaf);
        if a == b {
            // Shared anchor: the core leg collapses to that one router
            // (covers host→router, router→host, and host→host behind
            // the same router; a == b with both ends core means ls ==
            // ld, which the callers already handled).
            out.reserve(fixed);
            if !skip_src {
                out.push(src);
            }
            if src_is_leaf {
                out.push(self.core_node(a));
            }
            if dst_is_leaf {
                out.push(dst);
            }
            return true;
        }
        self.with_spt(b, |spt| {
            if spt.parent[a as usize] == u32::MAX {
                return false;
            }
            out.reserve(fixed + walk_len(&spt.parent, a, b));
            if !skip_src {
                out.push(src);
            }
            if src_is_leaf {
                out.push(self.core_node(a));
            }
            let mut cur = a;
            while cur != b {
                cur = spt.parent[cur as usize];
                out.push(self.core_node(cur));
            }
            if dst_is_leaf {
                out.push(dst);
            }
            true
        })
    }

    /// Shortest distance (in metric units), or `None` if unreachable.
    /// Recomputed as the cost sum along the parent walk (the SPT stores
    /// only parents; the sum of minimal edge costs along the tree path
    /// is exactly the distance Dijkstra converged to), plus the access
    /// links of any aggregated-leaf endpoints.
    pub fn distance(&self, src: NodeId, dst: NodeId) -> Option<u64> {
        let (ls, ld) = (self.local_of[src.index()], self.local_of[dst.index()]);
        if ls == u32::MAX || ld == u32::MAX {
            return None;
        }
        if ls == ld {
            return Some(0);
        }
        let (a, ca) = self.anchor(ls);
        let (b, cb) = self.anchor(ld);
        if a == b {
            return Some(ca + cb);
        }
        self.with_spt(b, |spt| {
            if spt.parent[a as usize] == u32::MAX {
                return None;
            }
            let mut total = ca + cb;
            let mut cur = a;
            while cur != b {
                let p = spt.parent[cur as usize];
                total += self.min_edge_cost(cur, p);
                cur = p;
            }
            Some(total)
        })
    }
}

/// Number of edges on the tree path `from → … → to` (parents must form
/// a path, i.e. `from` is reachable).
fn walk_len(parent: &[u32], from: u32, to: u32) -> usize {
    let mut hops = 0usize;
    let mut cur = from;
    while cur != to {
        cur = parent[cur as usize];
        debug_assert_ne!(cur, u32::MAX);
        hops += 1;
    }
    hops
}

#[cfg(test)]
mod tests {
    use super::*;
    use massf_topology::{AsId, NodeKind, Point};

    /// Diamond: 0-1 (1ms), 0-2 (5ms), 1-3 (1ms), 2-3 (1ms).
    /// Shortest 0→3 is via 1 (2ms) not via 2 (6ms).
    fn diamond() -> (Network, Vec<NodeId>) {
        let mut net = Network::new();
        let ids: Vec<NodeId> = (0..4)
            .map(|i| net.add_node(NodeKind::Router, Point::new(i as f64, 0.0), AsId(0)))
            .collect();
        net.add_link(ids[0], ids[1], 1e9, 1.0);
        net.add_link(ids[0], ids[2], 1e9, 5.0);
        net.add_link(ids[1], ids[3], 1e9, 1.0);
        net.add_link(ids[2], ids[3], 1e9, 1.0);
        (net, ids)
    }

    #[test]
    fn shortest_path_by_latency() {
        let (net, ids) = diamond();
        let d = OspfDomain::new(&net, ids.clone(), CostMetric::Latency);
        assert_eq!(d.path(ids[0], ids[3]), Some(vec![ids[0], ids[1], ids[3]]));
        assert_eq!(d.distance(ids[0], ids[3]), Some(2_000_000)); // 2 ms in ns
        assert_eq!(d.next_hop(ids[0], ids[3]), Some(ids[1]));
    }

    #[test]
    fn paths_are_symmetric_in_cost() {
        let (net, ids) = diamond();
        let d = OspfDomain::new(&net, ids.clone(), CostMetric::Latency);
        assert_eq!(d.distance(ids[0], ids[3]), d.distance(ids[3], ids[0]));
    }

    #[test]
    fn hop_metric_counts_hops() {
        let (net, ids) = diamond();
        let d = OspfDomain::new(&net, ids.clone(), CostMetric::Hop);
        assert_eq!(d.distance(ids[0], ids[3]), Some(2));
    }

    #[test]
    fn self_path_is_singleton() {
        let (net, ids) = diamond();
        let d = OspfDomain::new(&net, ids.clone(), CostMetric::Latency);
        assert_eq!(d.path(ids[0], ids[0]), Some(vec![ids[0]]));
        assert_eq!(d.next_hop(ids[0], ids[0]), None);
    }

    #[test]
    fn non_member_destination_unroutable() {
        let (mut net, ids) = diamond();
        let outsider = net.add_node(NodeKind::Router, Point::new(9.0, 9.0), AsId(1));
        let d = OspfDomain::new(&net, ids.clone(), CostMetric::Latency);
        assert_eq!(d.path(ids[0], outsider), None);
        assert!(!d.contains(outsider));
    }

    #[test]
    fn unreachable_within_domain() {
        // Domain includes an isolated node.
        let mut net = Network::new();
        let a = net.add_node(NodeKind::Router, Point::new(0.0, 0.0), AsId(0));
        let b = net.add_node(NodeKind::Router, Point::new(1.0, 0.0), AsId(0));
        let c = net.add_node(NodeKind::Router, Point::new(2.0, 0.0), AsId(0));
        net.add_link(a, b, 1e9, 1.0);
        let d = OspfDomain::new(&net, vec![a, b, c], CostMetric::Latency);
        assert_eq!(d.path(a, c), None);
        assert_eq!(d.distance(a, c), None);
        assert_eq!(d.path(a, b), Some(vec![a, b]));
    }

    #[test]
    fn ignores_links_leaving_the_domain() {
        // a-b intra, b-x inter (x not a member): path a→b must not see x.
        let mut net = Network::new();
        let a = net.add_node(NodeKind::Router, Point::new(0.0, 0.0), AsId(0));
        let b = net.add_node(NodeKind::Router, Point::new(1.0, 0.0), AsId(0));
        let x = net.add_node(NodeKind::Router, Point::new(2.0, 0.0), AsId(1));
        net.add_link(a, x, 1e9, 0.1);
        net.add_link(x, b, 1e9, 0.1);
        net.add_link(a, b, 1e9, 10.0);
        let d = OspfDomain::new(&net, vec![a, b], CostMetric::Latency);
        // The short detour through x is invisible to the domain.
        assert_eq!(d.path(a, b), Some(vec![a, b]));
        assert_eq!(d.distance(a, b), Some(10_000_000));
    }

    #[test]
    fn dijkstra_matches_bellman_ford_reference() {
        use rand::prelude::*;
        use rand_chacha::ChaCha8Rng;
        let mut rng = ChaCha8Rng::seed_from_u64(17);
        // Random connected graph: ring + chords.
        let n = 40;
        let mut net = Network::new();
        let ids: Vec<NodeId> = (0..n)
            .map(|i| net.add_node(NodeKind::Router, Point::new(i as f64, 0.0), AsId(0)))
            .collect();
        for i in 0..n {
            net.add_link(ids[i], ids[(i + 1) % n], 1e9, rng.gen_range(0.1..5.0));
        }
        for _ in 0..30 {
            let (i, j) = (rng.gen_range(0..n), rng.gen_range(0..n));
            if i != j && !net.has_link(ids[i], ids[j]) {
                net.add_link(ids[i], ids[j], 1e9, rng.gen_range(0.1..5.0));
            }
        }
        let d = OspfDomain::new(&net, ids.clone(), CostMetric::Latency);

        // Bellman–Ford from destination 0.
        let mut dist = vec![u64::MAX; n];
        dist[0] = 0;
        for _ in 0..n {
            for link in &net.links {
                let c = (link.latency_ms * 1e6).round() as u64;
                let (ia, ib) = (link.a.index(), link.b.index());
                if dist[ia] != u64::MAX && dist[ia] + c < dist[ib] {
                    dist[ib] = dist[ia] + c;
                }
                if dist[ib] != u64::MAX && dist[ib] + c < dist[ia] {
                    dist[ia] = dist[ib] + c;
                }
            }
        }
        for i in 1..n {
            assert_eq!(d.distance(ids[i], ids[0]), Some(dist[i]), "node {i}");
        }
    }

    #[test]
    fn cache_eviction_keeps_answers_correct() {
        let (net, ids) = diamond();
        let d = OspfDomain::with_cache_capacity(&net, ids.clone(), CostMetric::Latency, 1);
        let p03 = d.path(ids[0], ids[3]);
        let p01 = d.path(ids[0], ids[1]); // evicts dst 3
        let p03_again = d.path(ids[0], ids[3]); // recompute
        assert_eq!(p03, p03_again);
        assert_eq!(p01, Some(vec![ids[0], ids[1]]));
    }

    #[test]
    fn path_endpoints_and_continuity() {
        let (net, ids) = diamond();
        let d = OspfDomain::new(&net, ids.clone(), CostMetric::Latency);
        let p = d.path(ids[2], ids[1]).expect("diamond is connected");
        assert_eq!(*p.first().expect("path non-empty"), ids[2]);
        assert_eq!(*p.last().expect("path non-empty"), ids[1]);
        for w in p.windows(2) {
            assert!(net.has_link(w[0], w[1]), "gap {w:?}");
        }
    }

    #[test]
    fn link_filter_reroutes_around_dead_link() {
        let (net, ids) = diamond();
        // Kill the cheap 0-1 link: traffic must detour via 2.
        let dead = net
            .links
            .iter()
            .find(|l| (l.a, l.b) == (ids[0], ids[1]) || (l.a, l.b) == (ids[1], ids[0]))
            .expect("diamond has a 0-1 link")
            .id;
        let d = OspfDomain::with_link_filter(&net, ids.clone(), CostMetric::Latency, 1024, |l| {
            l.id != dead
        });
        assert_eq!(
            d.path(ids[0], ids[3]),
            Some(vec![ids[0], ids[2], ids[3]]),
            "must detour via node 2"
        );
        assert_eq!(d.distance(ids[0], ids[3]), Some(6_000_000)); // 6 ms in ns
    }

    /// Diamond of routers with two hosts on router 0 and one on router 3.
    fn diamond_with_hosts() -> (Network, Vec<NodeId>, Vec<NodeId>) {
        let (mut net, routers) = diamond();
        let h0 = net.add_node(NodeKind::Host, Point::new(0.0, 1.0), AsId(0));
        let h1 = net.add_node(NodeKind::Host, Point::new(0.0, 2.0), AsId(0));
        let h3 = net.add_node(NodeKind::Host, Point::new(3.0, 1.0), AsId(0));
        net.add_link(routers[0], h0, 1e9, 0.5);
        net.add_link(routers[0], h1, 1e9, 0.25);
        net.add_link(routers[3], h3, 1e9, 1.0);
        let members = routers.iter().copied().chain([h0, h1, h3]).collect();
        (net, routers, members)
    }

    #[test]
    fn hosts_aggregate_behind_their_router() {
        let (net, routers, members) = diamond_with_hosts();
        let d = OspfDomain::new(&net, members.clone(), CostMetric::Latency);
        // Only the four routers are core; three hosts share their rows.
        assert_eq!(d.core_count(), 4);
        assert_eq!(d.member_count(), 7);
        let (h0, h3) = (members[4], members[6]);
        // Host → host crosses the diamond via the cheap branch.
        assert_eq!(
            d.path(h0, h3),
            Some(vec![h0, routers[0], routers[1], routers[3], h3])
        );
        // 0.5 + 1 + 1 + 1 ms.
        assert_eq!(d.distance(h0, h3), Some(3_500_000));
        assert_eq!(d.distance(h0, h3), d.distance(h3, h0));
        assert_eq!(d.next_hop(h0, h3), Some(routers[0]));
        assert_eq!(d.next_hop(routers[3], h3), Some(h3));
        assert_eq!(d.next_hop(routers[1], h3), Some(routers[3]));
    }

    #[test]
    fn host_routes_around_its_own_router() {
        let (net, routers, members) = diamond_with_hosts();
        let d = OspfDomain::new(&net, members.clone(), CostMetric::Latency);
        let (h0, h1) = (members[4], members[5]);
        // Same attach router: the core leg is that single router.
        assert_eq!(d.path(h0, h1), Some(vec![h0, routers[0], h1]));
        assert_eq!(d.distance(h0, h1), Some(750_000)); // 0.5 + 0.25 ms
                                                       // Host ↔ its attach router.
        assert_eq!(d.path(h0, routers[0]), Some(vec![h0, routers[0]]));
        assert_eq!(d.path(routers[0], h0), Some(vec![routers[0], h0]));
        assert_eq!(d.distance(h0, routers[0]), Some(500_000));
        assert_eq!(d.next_hop(h0, routers[0]), Some(routers[0]));
        assert_eq!(d.next_hop(routers[0], h0), Some(h0));
        assert_eq!(d.path(h0, h0), Some(vec![h0]));
    }

    #[test]
    fn aggregated_hosts_survive_faults() {
        let (net, routers, members) = diamond_with_hosts();
        // Kill h3's access link: the host becomes an unreachable
        // (isolated, hence core) member; everyone else still routes.
        let h3 = members[6];
        let faulted = OspfDomain::with_link_filter(&net, members, CostMetric::Latency, 1024, |l| {
            l.a != h3 && l.b != h3
        });
        assert_eq!(faulted.path(routers[0], h3), None);
        assert_eq!(faulted.next_hop(h3, routers[0]), None);
        assert_eq!(faulted.distance(h3, h3), Some(0));
        assert!(faulted.path(routers[0], routers[3]).is_some());
    }

    #[test]
    fn link_filter_can_disconnect() {
        let (net, ids) = diamond();
        // Kill both of node 3's links: it becomes unreachable.
        let d = OspfDomain::with_link_filter(&net, ids.clone(), CostMetric::Latency, 1024, |l| {
            l.a != ids[3] && l.b != ids[3]
        });
        assert_eq!(d.path(ids[0], ids[3]), None);
        assert_eq!(d.path(ids[0], ids[1]), Some(vec![ids[0], ids[1]]));
    }
}
