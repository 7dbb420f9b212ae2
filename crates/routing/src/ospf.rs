//! OSPF: intra-domain link-state shortest-path routing.
//!
//! An [`OspfDomain`] covers one routing domain — the whole network for
//! the paper's flat single-AS experiments (Section 4), or one AS of a
//! multi-AS network. Shortest-path trees (SPTs) are computed with
//! Dijkstra and cached, so path queries cost O(path length) once a tree
//! rooted at *either end* of the query is held and the domain never
//! materializes an O(N²) table: it holds the trees that were actually
//! routed on, at most `cache_capacity` of them.
//!
//! ## Storage and locking
//!
//! An SPT stores the parent array — `parent[i]` is the local index of
//! the next hop from member `i` toward the root, which doubles as the
//! next-hop table, and distances are recomputed on demand by walking
//! parents and summing link costs — plus one *tie bit* per node (33 bits
//! per node per tree instead of 12 bytes; a 20,000-router full table is
//! 1.6 GB, not 4.8 GB — which is why no caller builds one).
//! SPTs are computed on first use and live in one bounded FIFO cache
//! behind a mutex, the only SPT store, read through one accessor
//! (`with_core_walk`). A domain whose capacity is at least its core size
//! (the fault subsystem's per-epoch domains) never evicts, so it
//! converges to exactly the trees its traffic needs.
//!
//! ### The either-end rule
//!
//! The answer to `a → b` is *defined* as the walk from `a` along the
//! tree rooted at `b`, ties between equal-cost predecessors broken
//! toward the lowest index. The accessor produces that walk from, in
//! this order:
//!
//! 1. the tree rooted at `b`, if cached;
//! 2. the tree rooted at `a`, if cached **and** its walk `b → a` crosses
//!    no tied node — reversed;
//! 3. a newly built tree rooted at `b` (FIFO insert, as ever).
//!
//! Rule 2 is exact, not approximate. A node's tie bit is set iff at
//! least two *distinct* neighbours lie on shortest paths from it to the
//! root. If no node of the walk `b → a` is tied, every node on it has
//! exactly one shortest-path next hop toward `a`, so by induction the
//! shortest path `b → a` is unique as a node sequence. The adjacency is
//! undirected with symmetric costs, so the shortest paths `a → b` are
//! the reversals of the shortest paths `b → a`: there is exactly one,
//! the tree rooted at `b` can only contain that one, and no tie-break
//! was consulted in producing it. For the same reason `b` unreachable in
//! the tree at `a` means `a` unreachable in the tree at `b`. When the
//! walk does cross a tied node the tree at `b` is built as before, so an
//! answer is always a pure function of (domain, src, dst); query order
//! and thread interleaving decide only *which* tree is paid for. On
//! request/response traffic one tree per conversation is built instead
//! of two.
//!
//! ## Host aggregation
//!
//! Hosts attach to exactly one router, so a host's routes are its
//! router's routes plus the single access link. The domain exploits
//! this: members that are single-homed hosts are classified as
//! *aggregated leaves* at build time and excluded from the Dijkstra
//! graph entirely — SPTs (and their parent arrays, and the root axis of
//! the cache) cover only the *core* (routers plus any multi-homed or
//! isolated oddballs). Queries compose a leaf endpoint as
//! `[host] + core walk from its attach router` (and symmetrically at the
//! destination), which is exact because the access link is the host's
//! only edge. For the paper's topologies — tens of hosts per router —
//! this shrinks each tree by the host:router ratio and the number of
//! distinct trees by it again: one routing entry per attached router,
//! not per host.

#![expect(
    clippy::cast_possible_truncation,
    reason = "local router indices are positions in `members`, bounded by the domain size which is far below u32::MAX"
)]

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
}

impl CostMetric {
    /// OSPF cost is ≥ 1 under every metric: with a zero-cost link two
    /// mutually tight neighbours could each become the other's parent.
    fn cost(self, link: &massf_topology::Link) -> u64 {
        match self {
            CostMetric::Hop => 1,
            // Nanosecond resolution keeps ordering exact in integers.
            CostMetric::Latency => ((link.latency_ms * 1e6).round() as u64).max(1),
        }
    }
}

/// Compressed sparse rows: node `i`'s `(neighbor, cost)` edges are
/// `edges[offsets[i]..offsets[i + 1]]` — two allocations per graph.
struct Csr {
    offsets: Box<[u32]>,
    edges: Box<[(u32, u64)]>,
}

impl Csr {
    /// `n` rows from directed `(from, to, cost)` arcs; arcs of one row
    /// keep their relative order.
    fn from_arcs(n: usize, arcs: &[(u32, u32, u64)]) -> Self {
        let mut offsets = vec![0u32; n + 1].into_boxed_slice();
        for &(from, _, _) in arcs {
            offsets[from as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut next = offsets.to_vec();
        let mut edges = vec![(0u32, 0u64); arcs.len()].into_boxed_slice();
        for &(from, to, cost) in arcs {
            let slot = &mut next[from as usize];
            edges[*slot as usize] = (to, cost);
            *slot += 1;
        }
        Csr { offsets, edges }
    }

    fn row(&self, i: u32) -> &[(u32, u64)] {
        let i = i as usize;
        &self.edges[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }
}

/// What a tree walk toward the root found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Walk {
    /// The start has no path to the root.
    Unreachable,
    /// No node before the root is tied: the walk is the only shortest
    /// path between its ends, in either direction.
    Unique,
    /// Some node on the walk had a choice of next hop.
    Tied,
}

/// One root's shortest-path tree, stored as a flat parent array — the
/// parent *is* the next hop toward the root, and distances are recovered
/// by walking parents (see the module docs).
#[derive(Debug, Clone)]
struct Spt {
    /// `parent[i]` = core index of next hop from core member `i` toward
    /// the root; `u32::MAX` when unreachable or at the root. Aggregated
    /// leaves have no row — they resolve through their attach router's.
    parent: Box<[u32]>,
    /// Bit `i` set ⇔ at least two distinct neighbours of `i` lie on
    /// shortest paths from `i` to the root (`parent[i]` is the lowest).
    tied: Box<[u64]>,
}

impl Spt {
    /// Append the tree walk `from → … → root` (`from != root`, both
    /// inclusive) to `out`; appends nothing when unreachable.
    fn walk(&self, from: u32, root: u32, out: &mut Vec<u32>) -> Walk {
        if self.parent[from as usize] == u32::MAX {
            return Walk::Unreachable;
        }
        let mut tied = false;
        let mut cur = from;
        out.push(cur);
        while cur != root {
            tied |= (self.tied[cur as usize / 64] >> (cur % 64)) & 1 == 1;
            cur = self.parent[cur as usize];
            out.push(cur);
        }
        if tied {
            Walk::Tied
        } else {
            Walk::Unique
        }
    }
}

/// Reusable Dijkstra working memory: one allocation per domain instead
/// of one per tree.
#[derive(Default)]
struct SptScratch {
    dist: Vec<u64>,
    heap: BinaryHeap<std::cmp::Reverse<(u64, u32)>>,
}

/// What the SPT cache of one [`OspfDomain`] did so far
/// ([`OspfDomain::spt_stats`]).
///
/// A **host-side diagnostic**: which tree serves a query — and so every
/// count here — depends on query order, hence on thread interleaving in
/// a parallel run. It stays out of `ProfileData` and every digest;
/// only the *answers* are deterministic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SptStats {
    /// Dijkstra runs (cache misses at both ends, or a tie fallback).
    pub trees_built: u64,
    /// Queries `a → b` answered by reversing a walk of the tree at `a`.
    pub served_reversed: u64,
    /// Queries whose tree at `a` was cached but crossed a tied node, so
    /// the tree at `b` was built after all.
    pub tie_fallbacks: u64,
    /// Trees dropped by the FIFO to stay within capacity.
    pub evictions: u64,
}

/// An OSPF routing domain over a subset of a [`Network`]'s nodes.
///
/// Queries are thread-safe: SPTs are computed on first use into a
/// bounded FIFO cache behind a mutex. Each answer is a pure function of
/// the domain and the (src, dst) pair, so neither query order nor the
/// querying thread can change one — only which tree is paid for.
pub struct OspfDomain {
    /// Member nodes (routers and hosts of the domain), defining local
    /// indices.
    members: Vec<NodeId>,
    /// Global node id → local index (u32::MAX = not a member).
    local_of: Vec<u32>,
    /// *Core* adjacency — aggregated leaves excluded — indexed by core
    /// index: `(neighbor core index, cost)`.
    adj: Csr,
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
    map: HashMap<u32, Spt>, // keyed by root *core* index
    order: VecDeque<u32>,   // FIFO for eviction
    capacity: usize,
    scratch: SptScratch, // reused across lazy Dijkstra runs
    walk: Vec<u32>,      // the walk handed to the current query
    stats: SptStats,
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
        // Both directions of every alive intra-domain link, in link
        // order, over member local indices.
        let mut arcs: Vec<(u32, u32, u64)> = Vec::new();
        for link in &net.links {
            if !alive(link) {
                continue;
            }
            let (la, lb) = (local_of[link.a.index()], local_of[link.b.index()]);
            if la != u32::MAX && lb != u32::MAX {
                let c = metric.cost(link);
                arcs.push((la, lb, c));
                arcs.push((lb, la, c));
            }
        }
        let full_adj = Csr::from_arcs(members.len(), &arcs);

        // Leaf classification: a host with exactly one distinct (alive,
        // intra-domain) neighbor is aggregated behind that neighbor.
        // Degenerate host–host pairs (each the other's only neighbor)
        // stay in the core, so every leaf's attach point is a core node.
        // Purely a function of members + alive links — deterministic.
        let candidate: Vec<bool> = (0..members.len())
            .map(|i| {
                let nbrs = full_adj.row(i as u32);
                net.nodes[members[i].index()].kind == NodeKind::Host
                    && !nbrs.is_empty()
                    && nbrs.iter().all(|&(nb, _)| nb == nbrs[0].0)
            })
            .collect();
        let is_leaf: Vec<bool> = candidate
            .iter()
            .enumerate()
            .map(|(i, &c)| c && !candidate[full_adj.row(i as u32)[0].0 as usize])
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

        // Leaf attach records (min cost over parallel access links,
        // matching what Dijkstra would relax) and core adjacency (leaf
        // edges dropped — no path routes *through* a degree-1 node).
        let mut attach = vec![(u32::MAX, 0u64); members.len()].into_boxed_slice();
        for i in (0..members.len()).filter(|&i| is_leaf[i]) {
            let nbrs = full_adj.row(i as u32);
            let cost = nbrs
                .iter()
                .map(|&(_, c)| c)
                .min()
                .expect("leaf has at least one access link");
            attach[i] = (core_of[nbrs[0].0 as usize], cost);
        }
        arcs.retain(|&(from, to, _)| !is_leaf[from as usize] && !is_leaf[to as usize]);
        for (from, to, _) in &mut arcs {
            (*from, *to) = (core_of[*from as usize], core_of[*to as usize]);
        }
        let adj = Csr::from_arcs(core_member.len(), &arcs);

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
                walk: Vec::new(),
                stats: SptStats::default(),
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

    /// SPT cache counters so far — a host-side diagnostic, see
    /// [`SptStats`].
    pub fn spt_stats(&self) -> SptStats {
        self.cache.lock().stats
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

    fn compute_spt(&self, root: u32, scratch: &mut SptScratch) -> Spt {
        let n = self.core_member.len();
        scratch.dist.clear();
        scratch.dist.resize(n, u64::MAX);
        scratch.heap.clear();
        let dist = &mut scratch.dist;
        let heap = &mut scratch.heap;
        let mut parent = vec![u32::MAX; n].into_boxed_slice();
        let mut tied = vec![0u64; n.div_ceil(64)].into_boxed_slice();
        dist[root as usize] = 0;
        heap.push(std::cmp::Reverse((0, root)));
        while let Some(std::cmp::Reverse((d, v))) = heap.pop() {
            if d > dist[v as usize] {
                continue;
            }
            for &(u, c) in self.adj.row(v) {
                let nd = d + c;
                let ud = dist[u as usize];
                let bit = 1u64 << (u % 64);
                if nd < ud {
                    dist[u as usize] = nd;
                    parent[u as usize] = v;
                    tied[u as usize / 64] &= !bit;
                    heap.push(std::cmp::Reverse((nd, u)));
                } else if nd == ud && v != parent[u as usize] {
                    // A second neighbour at the same distance: `u` is
                    // tied. Deterministic tie-break: the lowest-indexed
                    // parent wins. The distance did not move, so `u`
                    // is not queued again.
                    tied[u as usize / 64] |= bit;
                    if v < parent[u as usize] {
                        parent[u as usize] = v;
                    }
                }
            }
        }
        Spt { parent, tied }
    }

    /// The one SPT read path: hand `f` the core walk `a → … → b`
    /// (`a != b`, both inclusive), or `None` when `b` is unreachable
    /// from `a`. Served by the either-end rule of the module docs; the
    /// walk is the same whichever tree produced it.
    fn with_core_walk<R>(&self, a: u32, b: u32, f: impl FnOnce(Option<&[u32]>) -> R) -> R {
        let mut cache = self.cache.lock();
        let SptCache {
            map,
            order,
            capacity,
            scratch,
            walk,
            stats,
        } = &mut *cache;
        walk.clear();
        let found = if let Some(spt) = map.get(&b) {
            spt.walk(a, b, walk)
        } else {
            let from_a = map.get(&a).map(|spt| spt.walk(b, a, walk));
            if let Some(found @ (Walk::Unique | Walk::Unreachable)) = from_a {
                stats.served_reversed += 1;
                walk.reverse();
                found
            } else {
                if from_a.is_some() {
                    stats.tie_fallbacks += 1;
                    walk.clear();
                }
                let spt = self.compute_spt(b, scratch);
                stats.trees_built += 1;
                if map.len() >= *capacity {
                    if let Some(old) = order.pop_front() {
                        map.remove(&old);
                        stats.evictions += 1;
                    }
                }
                let found = spt.walk(a, b, walk);
                order.push_back(b);
                map.insert(b, spt);
                found
            }
        };
        f((found != Walk::Unreachable).then_some(walk.as_slice()))
    }

    /// The destination-rooted definition of the core walk `a → … → b`,
    /// computed from scratch and never cached: the oracle the either-end
    /// accessor is tested against.
    #[cfg(test)]
    fn reference_walk(&self, a: u32, b: u32) -> Option<Vec<u32>> {
        let spt = self.compute_spt(b, &mut SptScratch::default());
        let mut walk = Vec::new();
        (spt.walk(a, b, &mut walk) != Walk::Unreachable).then_some(walk)
    }

    /// Cheapest direct-edge cost `from → to`; both must be adjacent
    /// (parallel links collapse to the min cost, matching what Dijkstra
    /// relaxed with).
    fn min_edge_cost(&self, from: u32, to: u32) -> u64 {
        self.adj
            .row(from)
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
            let reachable = a == b || self.with_core_walk(a, b, |walk| walk.is_some());
            return reachable.then(|| self.core_node(a));
        }
        if a == b {
            // `src` is `dst`'s attach router (ls != ld rules out the
            // core–core case): one access-link hop remains.
            return Some(dst);
        }
        self.with_core_walk(a, b, |walk| Some(self.core_node(walk?[1])))
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
        // `build_path` reserves the exact length: one allocation.
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
        // `rest` = the core walk after `a`; empty under a shared anchor,
        // where the core leg collapses to that one router (host→router,
        // router→host, host→host behind the same router; a == b with
        // both ends core means ls == ld, which the callers handled).
        let mut compose = |rest: &[u32]| {
            let fixed =
                usize::from(!skip_src) + usize::from(src_is_leaf) + usize::from(dst_is_leaf);
            out.reserve(fixed + rest.len());
            if !skip_src {
                out.push(src);
            }
            if src_is_leaf {
                out.push(self.core_node(a));
            }
            out.extend(rest.iter().map(|&c| self.core_node(c)));
            if dst_is_leaf {
                out.push(dst);
            }
        };
        if a == b {
            compose(&[]);
            return true;
        }
        self.with_core_walk(a, b, |walk| walk.map(|w| compose(&w[1..])).is_some())
    }

    /// Shortest distance (in metric units), or `None` if unreachable.
    /// Recomputed as the cost sum along the core walk (the SPT stores
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
        self.with_core_walk(a, b, |walk| {
            let hops = walk?.windows(2);
            Some(ca + cb + hops.map(|w| self.min_edge_cost(w[0], w[1])).sum::<u64>())
        })
    }
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

    /// A link shorter than half a nanosecond rounds to latency cost 0.
    /// With cost 0, r0 and r1 (both 1 ms from r2) were each the other's
    /// lower-indexed equal-distance predecessor in the tree at r2, so
    /// each became the other's parent and the parent walk never reached
    /// the root. Every metric now floors at 1.
    #[test]
    fn zero_latency_link_costs_one_and_walks_terminate() {
        let mut net = Network::new();
        let ids: Vec<NodeId> = (0..3)
            .map(|i| net.add_node(NodeKind::Router, Point::new(i as f64, 0.0), AsId(0)))
            .collect();
        net.add_link(ids[0], ids[1], 1e9, 1e-7);
        net.add_link(ids[0], ids[2], 1e9, 1.0);
        net.add_link(ids[1], ids[2], 1e9, 1.0);
        let d = OspfDomain::new(&net, ids.clone(), CostMetric::Latency);
        assert_eq!(d.distance(ids[0], ids[1]), Some(1));
        assert_eq!(d.path(ids[0], ids[2]), Some(vec![ids[0], ids[2]]));
        assert_eq!(d.path(ids[1], ids[2]), Some(vec![ids[1], ids[2]]));
    }

    /// Diamond with two equal-cost branches: 0 → 3 is tied between 1 and
    /// 2. Whichever direction is asked first, both directions get the
    /// destination-rooted, lowest-index answer — the tied walk refuses
    /// to be reversed and the other end's tree is built.
    #[test]
    fn tied_diamond_answers_identically_whichever_end_is_asked_first() {
        let mut net = Network::new();
        let ids: Vec<NodeId> = (0..4)
            .map(|i| net.add_node(NodeKind::Router, Point::new(i as f64, 0.0), AsId(0)))
            .collect();
        for (a, b) in [(0, 1), (0, 2), (1, 3), (2, 3)] {
            net.add_link(ids[a], ids[b], 1e9, 1.0);
        }
        let down = Some(vec![ids[0], ids[1], ids[3]]);
        let up = Some(vec![ids[3], ids[1], ids[0]]);
        for down_first in [true, false] {
            let d = OspfDomain::new(&net, ids.clone(), CostMetric::Latency);
            if down_first {
                assert_eq!(d.path(ids[0], ids[3]), down);
                assert_eq!(d.path(ids[3], ids[0]), up);
            } else {
                assert_eq!(d.path(ids[3], ids[0]), up);
                assert_eq!(d.path(ids[0], ids[3]), down);
            }
            let want = SptStats {
                trees_built: 2,
                tie_fallbacks: 1,
                ..SptStats::default()
            };
            assert_eq!(d.spt_stats(), want, "down_first = {down_first}");
            // The untied neighbours are served from the far end's tree.
            assert_eq!(d.path(ids[0], ids[1]), Some(vec![ids[0], ids[1]]));
            assert_eq!(d.spt_stats().served_reversed, 1);
            assert_eq!(d.spt_stats().trees_built, 2);
        }
    }

    /// The destination-rooted answer for `s → t`, composed around
    /// [`OspfDomain::reference_walk`]: a leaf's only edge is its access
    /// link, so it just brackets the core walk between the anchors.
    fn reference_path(d: &OspfDomain, s: NodeId, t: NodeId) -> Option<Vec<NodeId>> {
        let (ls, lt) = (d.local_of[s.index()], d.local_of[t.index()]);
        if ls == lt {
            return Some(vec![s]);
        }
        let (a, b) = (d.anchor(ls).0, d.anchor(lt).0);
        let core = if a == b {
            vec![a]
        } else {
            d.reference_walk(a, b)?
        };
        let mut path: Vec<NodeId> = core.iter().map(|&c| d.core_node(c)).collect();
        if path[0] != s {
            path.insert(0, s);
        }
        if path[path.len() - 1] != t {
            path.push(t);
        }
        Some(path)
    }

    /// Ring + chords of routers with everything the either-end rule and
    /// the leaf aggregation must survive: an equal-cost square hung off
    /// router 0 (tied under every metric), a parallel link, a link that
    /// rounds to zero latency, single-homed hosts (one over two parallel
    /// access links), a dual-homed host and an isolated router.
    /// Latencies are whole milliseconds from a small set, so `Latency`
    /// ties occur too.
    fn ring_chord_world(ring: usize, chords: usize, seed: u64) -> (Network, Vec<NodeId>) {
        use rand::prelude::*;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let mut net = Network::new();
        let node = |net: &mut Network, kind| net.add_node(kind, Point::new(0.0, 0.0), AsId(0));
        let r: Vec<NodeId> = (0..ring)
            .map(|_| node(&mut net, NodeKind::Router))
            .collect();
        let ms = |rng: &mut rand_chacha::ChaCha8Rng| f64::from(rng.gen_range(1u32..4));
        for i in 0..ring {
            net.add_link(r[i], r[(i + 1) % ring], 1e9, ms(&mut rng));
        }
        for _ in 0..chords {
            let (i, j) = (rng.gen_range(0..ring), rng.gen_range(0..ring));
            if i != j {
                net.add_link(r[i], r[j], 1e9, ms(&mut rng));
            }
        }
        net.add_link(r[0], r[1], 1e9, ms(&mut rng)); // parallel to the ring edge
        net.add_link(r[1], r[ring / 2 + 1], 1e9, 1e-7); // rounds to 0 ns
        let q: Vec<NodeId> = (0..3).map(|_| node(&mut net, NodeKind::Router)).collect();
        for (a, b) in [(r[0], q[0]), (r[0], q[1]), (q[0], q[2]), (q[1], q[2])] {
            net.add_link(a, b, 1e9, 1.0);
        }
        for _ in 0..3 {
            let h = node(&mut net, NodeKind::Host);
            net.add_link(h, r[rng.gen_range(0..ring)], 1e9, ms(&mut rng));
        }
        let twin = node(&mut net, NodeKind::Host);
        net.add_link(twin, q[2], 1e9, 3.0);
        net.add_link(twin, q[2], 1e9, 2.0);
        let dual = node(&mut net, NodeKind::Host);
        net.add_link(dual, r[0], 1e9, ms(&mut rng));
        net.add_link(dual, r[ring / 2], 1e9, ms(&mut rng));
        node(&mut net, NodeKind::Router); // isolated
        let ids = net.nodes.iter().map(|n| n.id).collect();
        (net, ids)
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Every ordered pair, in one shuffled order and in its reverse,
        /// at cache capacities 1, 2 and n: all four queries equal the
        /// destination-rooted reference, whichever trees happen to be
        /// held. Under `Hop` both new branches must have run.
        #[test]
        fn either_end_trees_match_destination_rooted_reference(
            ring in 4usize..11,
            chords in 0usize..6,
            seed in 0u64..10_000,
        ) {
            use rand::prelude::*;
            let (net, ids) = ring_chord_world(ring, chords, seed);
            let mut order: Vec<(NodeId, NodeId)> = ids
                .iter()
                .flat_map(|&s| ids.iter().map(move |&t| (s, t)))
                .collect();
            order.shuffle(&mut rand_chacha::ChaCha8Rng::seed_from_u64(seed ^ 0x5eed));
            let reversed: Vec<(NodeId, NodeId)> = order.iter().rev().copied().collect();

            for metric in [CostMetric::Hop, CostMetric::Latency] {
                let oracle = OspfDomain::new(&net, ids.clone(), metric);
                prop_assert!(oracle.core_count() < oracle.member_count(), "no host aggregated");
                let hop_cost = |a: NodeId, b: NodeId| {
                    let between = net.links.iter().filter(|l| {
                        (l.a, l.b) == (a, b) || (l.a, l.b) == (b, a)
                    });
                    between.map(|l| metric.cost(l)).min().expect("path hops are links")
                };
                let mut seen = SptStats::default();
                for capacity in [1, 2, ids.len()] {
                    for order in [&order, &reversed] {
                        let d = OspfDomain::with_cache_capacity(&net, ids.clone(), metric, capacity);
                        for &(s, t) in order {
                            let want = reference_path(&oracle, s, t);
                            let ctx = format!("{metric:?} cap {capacity} {s:?}→{t:?}");
                            prop_assert_eq!(d.path(s, t), want.clone(), "path {}", ctx);
                            let hop = want.as_ref().and_then(|p| p.get(1).copied());
                            prop_assert_eq!(d.next_hop(s, t), hop, "next_hop {}", ctx);
                            let dist = want.as_ref().map(|p| {
                                p.windows(2).map(|w| hop_cost(w[0], w[1])).sum::<u64>()
                            });
                            prop_assert_eq!(d.distance(s, t), dist, "distance {}", ctx);
                            // Stitching: `s` at the tail is not repeated,
                            // anything else is kept; failure adds nothing.
                            for tail in [s, t] {
                                let mut out = vec![tail];
                                let ok = d.path_append(s, t, &mut out);
                                prop_assert_eq!(ok, want.is_some(), "path_append {}", ctx);
                                let skip = usize::from(tail == s);
                                let stitched = want.iter().flat_map(|p| &p[skip..]);
                                let expect: Vec<NodeId> =
                                    std::iter::once(&tail).chain(stitched).copied().collect();
                                prop_assert_eq!(out, expect, "path_append {}", ctx);
                            }
                        }
                        let stats = d.spt_stats();
                        let held = d.cache.lock().map.len();
                        prop_assert!(held <= capacity);
                        prop_assert_eq!(stats.trees_built - stats.evictions, held as u64);
                        seen.served_reversed += stats.served_reversed;
                        seen.tie_fallbacks += stats.tie_fallbacks;
                    }
                }
                if metric == CostMetric::Hop {
                    prop_assert!(seen.served_reversed > 0, "no query was served reversed");
                    prop_assert!(seen.tie_fallbacks > 0, "no tied walk fell back");
                }
            }
        }
    }
}
