//! OSPF: intra-domain link-state shortest-path routing.
//!
//! An [`OspfDomain`] covers one routing domain — the whole network for
//! the paper's flat single-AS experiments (Section 4), or one AS of a
//! multi-AS network. Shortest-path trees (SPTs) are computed with
//! Dijkstra and kept, so path queries cost O(path length) once a tree
//! rooted at *either end* of the query is held and the domain never
//! materializes an O(N²) table: it holds the trees that were actually
//! routed on, at most one per distinct root, so at most
//! [`OspfDomain::core_count`] of them.
//!
//! ## Storage and locking
//!
//! An SPT stores the parent array — `parent[i]` is the *port* of the
//! next hop from member `i` toward the root: its position in `i`'s own
//! adjacency row, a `u16`, which doubles as the next-hop table, and
//! distances are recomputed on demand by walking parents and summing
//! link costs — plus one *tie bit* per node (17 bits per node per tree
//! instead of 12 bytes; a 20,000-router full table is 0.85 GB, not
//! 4.8 GB — which is why no caller builds one). Each adjacency entry
//! carries the port of its reverse arc in the neighbour's row, so
//! Dijkstra stores a port as cheaply as it stored a core index, and a
//! walk reads one row entry per hop to turn a port back into a node.
//! A core row therefore holds fewer than 65,535 arcs; construction
//! refuses any other domain.
//! SPTs are computed on first use and never evicted: they live in one
//! map keyed by root core index behind a mutex, the only SPT store,
//! read through one accessor (`with_core_walk`), so a domain converges
//! to exactly the trees its traffic needs. Trees held ≤ distinct roots
//! routed on ≤ `core_count`, and each tree is `core_count` × 17 bits
//! (`2n + 8⌈n/64⌉` bytes, [`SptStats::tree_bytes`]): ≈ 42 KB at 20,000
//! routers, so ≈ 77 MB for the 1,816 roots the paper-scale flat world
//! routes on (≈ 82 KB and ≈ 150 MB with `u32` core-index parents).
//!
//! Everything else a domain holds is sized by its members, never by
//! the network around it. The member list, kept ascending, is also the
//! index: a node's local index is its position there, found by binary
//! search once per query (a route resolution, never a packet), so a
//! node outside the domain — even one beyond the network's node count
//! — is simply not found. A multi-AS world's per-AS domains therefore
//! add up to the world's size, not to ASes × world.
//!
//! ## The heap key
//!
//! Dijkstra's heap holds one `u64` per entry, `dist << key_shift |
//! core index`, where `key_shift` is the bit length of the largest core
//! index: ordering keys orders by distance, then by index. Every
//! tentative distance is a sum of distinct directed arcs (a simple
//! shortest path from the root plus one arc leaving its end, which no
//! arc of the path does), so a domain whose summed arc cost is below
//! `2^(64 − key_shift)` packs every key exactly; construction refuses
//! any other domain rather than let a key wrap. A 4,000-router domain
//! admits 2^52 ns of summed link latency.
//!
//! ### The either-end rule
//!
//! The answer to `a → b` is *defined* as the walk from `a` along the
//! tree rooted at `b`, ties between equal-cost predecessors broken
//! toward the lowest index. The accessor produces that walk from, in
//! this order:
//!
//! 1. the tree rooted at `b`, if held;
//! 2. the tree rooted at `a`, if held **and** its walk `b → a` crosses
//!    no tied node — reversed;
//! 3. a newly built tree rooted at `b`, which the domain then keeps.
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
//! the tree map) cover only the *core* (routers plus any multi-homed or
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
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

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
    #[expect(
        clippy::float_arithmetic,
        reason = "one link's latency converted to integer nanoseconds, no accumulation: Dijkstra sums the integers"
    )]
    fn cost(self, link: &massf_topology::Link) -> u64 {
        match self {
            CostMetric::Hop => 1,
            // Nanosecond resolution keeps ordering exact in integers.
            CostMetric::Latency => ((link.latency_ms * 1e6).round() as u64).max(1),
        }
    }
}

/// One directed arc of a [`Csr`] row: 16 bytes, the same as a padded
/// `(u32, u64)`.
#[derive(Debug, Clone, Copy, Default)]
struct Edge {
    /// The neighbour's core index.
    to: u32,
    /// The position of the reverse arc `to → this row` in `to`'s row:
    /// the port a tree stores as `to`'s parent when this arc relaxes it.
    back: u16,
    cost: u64,
}

const _: () = assert!(size_of::<Edge>() == 16, "the back port sits in the padding");

/// Compressed sparse rows: node `i`'s edges are
/// `edges[offsets[i]..offsets[i + 1]]` — two allocations per graph.
struct Csr {
    offsets: Box<[u32]>,
    edges: Box<[Edge]>,
}

impl Csr {
    /// `n` rows from directed `(from, to, cost)` arcs pushed in reverse
    /// pairs (arc `j ^ 1` is arc `j` reversed); arcs of one row keep
    /// their relative order.
    ///
    /// # Panics
    ///
    /// When a row holds `u16::MAX` or more arcs: its length, and so each
    /// of its ports, stays below the `u16::MAX` that marks "no parent"
    /// in a tree.
    fn from_arcs(n: usize, arcs: &[(u32, u32, u64)]) -> Self {
        let mut offsets = vec![0u32; n + 1].into_boxed_slice();
        for &(from, _, _) in arcs {
            offsets[from as usize + 1] += 1;
        }
        for i in 0..n {
            assert!(
                offsets[i + 1] < u32::from(u16::MAX),
                "a core row has fewer than 65,535 arcs, so its ports fit a u16"
            );
            offsets[i + 1] += offsets[i];
        }
        // `slot[j]`: where arc `j` lands in `edges`.
        let mut next = offsets.to_vec();
        let slot: Vec<u32> = arcs
            .iter()
            .map(|&(from, _, _)| {
                next[from as usize] += 1;
                next[from as usize] - 1
            })
            .collect();
        let mut edges = vec![Edge::default(); arcs.len()].into_boxed_slice();
        for (j, &(from, to, cost)) in arcs.iter().enumerate() {
            debug_assert_eq!(arcs[j ^ 1], (to, from, cost), "arcs come in reverse pairs");
            let back = (slot[j ^ 1] - offsets[to as usize]) as u16;
            edges[slot[j] as usize] = Edge { to, back, cost };
        }
        Csr { offsets, edges }
    }

    fn row(&self, i: u32) -> &[Edge] {
        let i = i as usize;
        &self.edges[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// The node behind port `port` of row `i`.
    fn to(&self, i: u32, port: u16) -> u32 {
        self.row(i)[usize::from(port)].to
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
    /// `parent[i]` = the port, in core member `i`'s adjacency row, of the
    /// next hop toward the root; `u16::MAX` when unreachable or at the
    /// root. Aggregated leaves have no row — they resolve through their
    /// attach router's.
    parent: Box<[u16]>,
    /// Bit `i` set ⇔ at least two distinct neighbours of `i` lie on
    /// shortest paths from `i` to the root (`parent[i]` is the lowest).
    tied: Box<[u64]>,
}

impl Spt {
    /// Heap bytes of the tree: 2 per core node plus its tie bits.
    fn bytes(&self) -> u64 {
        (size_of_val(&*self.parent) + size_of_val(&*self.tied)) as u64
    }

    /// Append the tree walk `from → … → root` (`from != root`, both
    /// inclusive) over the adjacency `adj` the tree was built on to
    /// `out`; appends nothing when unreachable.
    fn walk(&self, adj: &Csr, from: u32, root: u32, out: &mut Vec<u32>) -> Walk {
        if self.parent[from as usize] == u16::MAX {
            return Walk::Unreachable;
        }
        let mut tied = false;
        let mut cur = from;
        out.push(cur);
        while cur != root {
            tied |= (self.tied[cur as usize / 64] >> (cur % 64)) & 1 == 1;
            cur = adj.to(cur, self.parent[cur as usize]);
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
    /// Packed keys `dist << key_shift | core index` (module docs).
    heap: BinaryHeap<Reverse<u64>>,
}

massf_topology::counters! {
    /// What the SPT store of one [`OspfDomain`] did so far
    /// ([`OspfDomain::spt_stats`]).
    ///
    /// A **host-side diagnostic**: which tree serves a query — and so every
    /// count here — depends on query order, hence on thread interleaving in
    /// a parallel run. It stays out of `ProfileData` and every digest;
    /// only the *answers* are deterministic.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct SptStats {
        /// Dijkstra runs (no tree at either end, or a tie fallback) — the
        /// number of trees held, since none is ever dropped.
        pub trees_built: u64,
        /// Queries `a → b` answered by reversing a walk of the tree at `a`.
        pub served_reversed: u64,
        /// Queries whose tree at `a` was held but crossed a tied node, so
        /// the tree at `b` was built after all.
        pub tie_fallbacks: u64,
        /// Heap bytes of the trees built — of the trees held, since none is
        /// ever dropped: `2n + 8⌈n/64⌉` each at `n` core nodes.
        pub tree_bytes: u64,
    }
}

impl std::iter::Sum for SptStats {
    fn sum<I: Iterator<Item = SptStats>>(iter: I) -> Self {
        iter.fold(SptStats::default(), |mut acc, s| {
            acc.merge(&s);
            acc
        })
    }
}

/// An OSPF routing domain over a subset of a [`Network`]'s nodes.
///
/// Queries are thread-safe: SPTs are computed on first use and kept in
/// a map behind a mutex. Each answer is a pure function of
/// the domain and the (src, dst) pair, so neither query order nor the
/// querying thread can change one — only which tree is paid for.
pub struct OspfDomain {
    /// Member nodes (routers and hosts of the domain), ascending and
    /// distinct: a member's position is its local index, found by binary
    /// search ([`OspfDomain::local`]).
    members: Box<[NodeId]>,
    /// *Core* adjacency — aggregated leaves excluded — indexed by core
    /// index; a tree's parents are ports into its rows.
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
    /// Low bits of a heap key that hold the core index (module docs).
    key_shift: u32,
    cache: Mutex<SptCache>,
}

struct SptCache {
    map: BTreeMap<u32, Spt>, // keyed by root *core* index
    scratch: SptScratch,     // reused across lazy Dijkstra runs
    walk: Vec<u32>,          // the walk handed to the current query
    stats: SptStats,
}

/// The heap-key shift of a domain with `cores` core members and core
/// `arcs`: the bit length of the largest core index.
///
/// # Panics
///
/// When the summed arc cost is not below `2^(64 − shift)`, the bound
/// that makes every packed key exact (module docs).
#[expect(
    clippy::expect_used,
    reason = "the documented panic: a domain whose summed cost overflows cannot order its heap keys"
)]
fn key_shift(cores: usize, arcs: &[(u32, u32, u64)]) -> u32 {
    let shift = usize::BITS - cores.saturating_sub(1).leading_zeros();
    arcs.iter()
        .try_fold(0u64, |sum, &(_, _, c)| sum.checked_add(c))
        .filter(|&sum| u128::from(sum) < 1u128 << (u64::BITS - shift))
        .map(|_| shift)
        .expect("summed arc cost fits the packed Dijkstra key")
}

impl OspfDomain {
    /// Build a domain over `members` of `net`, using only links whose
    /// both endpoints are members (intra-domain links). `members` may
    /// come in any order and repeat a node: the domain keeps them
    /// ascending and distinct, so the order passed changes no answer.
    ///
    /// # Panics
    ///
    /// When the summed cost of the domain's core arcs reaches
    /// `2^(64 − key_shift)` (module docs, "The heap key") — 2^52 ns of
    /// latency at 4,000 routers — or when a core member has 65,535 or
    /// more arcs, whose ports would not fit a tree's `u16` parent
    /// (module docs, "Storage and locking"; the paper world's largest
    /// degree is 281).
    pub fn new(net: &Network, members: Vec<NodeId>, metric: CostMetric) -> Self {
        Self::with_link_filter(net, members, metric, |_| true)
    }

    /// Like [`OspfDomain::new`] but only links for which
    /// `alive(link)` holds enter the adjacency — the reconvergence
    /// primitive of the fault subsystem: rebuilding a domain with dead
    /// links (or all links of a crashed router) filtered out yields the
    /// post-fault shortest-path trees. Panics like [`OspfDomain::new`].
    pub fn with_link_filter(
        net: &Network,
        mut members: Vec<NodeId>,
        metric: CostMetric,
        alive: impl Fn(&massf_topology::Link) -> bool,
    ) -> Self {
        members.sort_unstable();
        members.dedup();
        // Both directions of every alive intra-domain link, in link
        // order, over member local indices. The world-sized map lives
        // only while the links are scanned; queries binary-search
        // `members` instead.
        let mut arcs: Vec<(u32, u32, u64)> = Vec::new();
        {
            let mut local_of = vec![u32::MAX; net.node_count()];
            for (i, &m) in members.iter().enumerate() {
                local_of[m.index()] = i as u32;
            }
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
        }
        // Per member: its first neighbour, whether it has a second,
        // distinct one, and the cheapest arc to the first.
        let mut first = vec![(u32::MAX, false, u64::MAX); members.len()];
        for &(from, to, c) in &arcs {
            let (nb, more, cost) = &mut first[from as usize];
            if *nb == u32::MAX || *nb == to {
                (*nb, *cost) = (to, c.min(*cost));
            } else {
                *more = true;
            }
        }

        // Leaf classification: a host with exactly one distinct (alive,
        // intra-domain) neighbor is aggregated behind that neighbor.
        // Degenerate host–host pairs (each the other's only neighbor)
        // stay in the core, so every leaf's attach point is a core node.
        // Purely a function of members + alive links — deterministic.
        let candidate: Vec<bool> = (0..members.len())
            .map(|i| {
                let (nb, more, _) = first[i];
                net.nodes[members[i].index()].kind == NodeKind::Host && nb != u32::MAX && !more
            })
            .collect();
        let is_leaf: Vec<bool> = candidate
            .iter()
            .zip(&first)
            .map(|(&c, &(nb, _, _))| c && !candidate[nb as usize])
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
        // edges dropped — no path routes *through* a degree-1 node). The
        // filter is symmetric in the two ends, so the kept arcs stay in
        // reverse pairs.
        let mut attach = vec![(u32::MAX, 0u64); members.len()].into_boxed_slice();
        for i in (0..members.len()).filter(|&i| is_leaf[i]) {
            let (nb, _, cost) = first[i];
            attach[i] = (core_of[nb as usize], cost);
        }
        arcs.retain(|&(from, to, _)| !is_leaf[from as usize] && !is_leaf[to as usize]);
        for (from, to, _) in &mut arcs {
            (*from, *to) = (core_of[*from as usize], core_of[*to as usize]);
        }
        let adj = Csr::from_arcs(core_member.len(), &arcs);
        let key_shift = key_shift(core_member.len(), &arcs);

        OspfDomain {
            members: members.into_boxed_slice(),
            adj,
            core_of,
            core_member: core_member.into_boxed_slice(),
            attach,
            metric,
            key_shift,
            cache: Mutex::new(SptCache {
                map: BTreeMap::new(),
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

    /// Is `node` part of this domain? Any `NodeId` may be asked,
    /// including one beyond the network's node count.
    pub fn contains(&self, node: NodeId) -> bool {
        self.local(node).is_some()
    }

    /// The local index of `node` — its position in `members` — or
    /// `None` when it is not a member.
    fn local(&self, node: NodeId) -> Option<u32> {
        self.members.binary_search(&node).ok().map(|i| i as u32)
    }

    /// Number of core (non-aggregated) members — the size of every SPT
    /// parent array and the number of distinct trees the domain can
    /// ever hold.
    pub fn core_count(&self) -> usize {
        self.core_member.len()
    }

    /// SPT store counters so far — a host-side diagnostic, see
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
        let mut parent = vec![u16::MAX; n].into_boxed_slice();
        let mut tied = vec![0u64; n.div_ceil(64)].into_boxed_slice();
        let shift = self.key_shift;
        let index_mask = (1u64 << shift) - 1;
        dist[root as usize] = 0;
        heap.push(Reverse(u64::from(root)));
        while let Some(Reverse(key)) = heap.pop() {
            let (d, v) = (key >> shift, (key & index_mask) as u32);
            if d > dist[v as usize] {
                continue;
            }
            for &Edge { to: u, back, cost } in self.adj.row(v) {
                let nd = d + cost;
                let ud = dist[u as usize];
                let bit = 1u64 << (u % 64);
                if nd < ud {
                    dist[u as usize] = nd;
                    parent[u as usize] = back;
                    tied[u as usize / 64] &= !bit;
                    heap.push(Reverse(nd << shift | u64::from(u)));
                } else if nd == ud {
                    // `u` was reached (cost ≥ 1 rules out the root), so
                    // its parent port names a node.
                    let p = self.adj.to(u, parent[u as usize]);
                    if v != p {
                        // A second neighbour at the same distance: `u`
                        // is tied. Deterministic tie-break: the
                        // lowest-indexed parent wins. The distance did
                        // not move, so `u` is not queued again.
                        tied[u as usize / 64] |= bit;
                        if v < p {
                            parent[u as usize] = back;
                        }
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
            scratch,
            walk,
            stats,
        } = &mut *cache;
        walk.clear();
        let found = if let Some(spt) = map.get(&b) {
            spt.walk(&self.adj, a, b, walk)
        } else {
            let from_a = map.get(&a).map(|spt| spt.walk(&self.adj, b, a, walk));
            if let Some(found @ (Walk::Unique | Walk::Unreachable)) = from_a {
                stats.served_reversed += 1;
                walk.reverse();
                found
            } else {
                if from_a.is_some() {
                    stats.tie_fallbacks += 1;
                    walk.clear();
                }
                let spt = map.entry(b).or_insert(self.compute_spt(b, scratch));
                stats.trees_built += 1;
                stats.tree_bytes += spt.bytes();
                spt.walk(&self.adj, a, b, walk)
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
        (spt.walk(&self.adj, a, b, &mut walk) != Walk::Unreachable).then_some(walk)
    }

    /// Cheapest direct-edge cost `from → to`; both must be adjacent
    /// (parallel links collapse to the min cost, matching what Dijkstra
    /// relaxed with).
    #[expect(clippy::expect_used, reason = "a walk's hops are adjacent")]
    fn min_edge_cost(&self, from: u32, to: u32) -> u64 {
        self.adj
            .row(from)
            .iter()
            .filter(|e| e.to == to)
            .map(|e| e.cost)
            .min()
            .expect("SPT parents are adjacent members")
    }

    /// Next hop from `src` toward `dst`, or `None` if unreachable /
    /// not members / `src == dst`.
    pub fn next_hop(&self, src: NodeId, dst: NodeId) -> Option<NodeId> {
        let (ls, ld) = (self.local(src)?, self.local(dst)?);
        if ls == ld {
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
        let (ls, ld) = (self.local(src)?, self.local(dst)?);
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
        let (Some(ls), Some(ld)) = (self.local(src), self.local(dst)) else {
            return false;
        };
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
        let (ls, ld) = (self.local(src)?, self.local(dst)?);
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

    /// A chain of routers whose `i`-th link costs `costs_ns[i]` under
    /// `Latency`.
    fn chain(costs_ns: &[u64]) -> (Network, Vec<NodeId>) {
        let mut net = Network::new();
        let ids: Vec<NodeId> = (0..=costs_ns.len())
            .map(|i| net.add_node(NodeKind::Router, Point::new(i as f64, 0.0), AsId(0)))
            .collect();
        for (i, &c) in costs_ns.iter().enumerate() {
            net.add_link(ids[i], ids[i + 1], 1e9, c as f64 / 1e6);
        }
        for (link, &c) in net.links.iter().zip(costs_ns) {
            assert_eq!(CostMetric::Latency.cost(link), c, "latency round trip");
        }
        (net, ids)
    }

    /// 2,048 routers: indices take 11 key bits, distances the other 53.
    /// The link costs of the returned chain sum to `2^52 − 1 + extra`,
    /// so its arcs (both directions of every link) sum to
    /// `2^53 − 2 + 2·extra`.
    fn chain_at_key_limit(extra: u64) -> (Network, Vec<NodeId>) {
        let links = 2047u64;
        let total = (1u64 << 52) - 1;
        let mut costs: Vec<u64> = (0..links)
            .map(|i| total / links + u64::from(i < total % links))
            .collect();
        costs[0] += extra;
        chain(&costs)
    }

    /// The largest arc sum a link graph can have under the key bound
    /// (arcs come in pairs, so `2^53 − 2` against `2^53`): every
    /// distance from both ends of the chain is the Bellman–Ford one.
    #[test]
    fn packed_key_at_its_limit_matches_bellman_ford_reference() {
        let (net, ids) = chain_at_key_limit(0);
        let d = OspfDomain::new(&net, ids.clone(), CostMetric::Latency);
        assert_eq!((d.core_count(), d.key_shift), (2048, 11));
        for root in [0, ids.len() - 1] {
            let mut dist = vec![u64::MAX; ids.len()];
            dist[root] = 0;
            let mut changed = true;
            while changed {
                changed = false;
                for link in &net.links {
                    let c = CostMetric::Latency.cost(link);
                    let (ia, ib) = (link.a.index(), link.b.index());
                    for (from, to) in [(ia, ib), (ib, ia)] {
                        if dist[from] != u64::MAX && dist[from] + c < dist[to] {
                            dist[to] = dist[from] + c;
                            changed = true;
                        }
                    }
                }
            }
            for (i, &id) in ids.iter().enumerate() {
                assert_eq!(d.distance(id, ids[root]), Some(dist[i]), "{i} → {root}");
            }
        }
        assert_eq!(d.distance(ids[0], ids[2047]), Some((1 << 52) - 1));
        assert_eq!(d.spt_stats().trees_built, 2);
    }

    /// One unit of link cost past the limit: the arcs sum to `2^53`.
    #[test]
    #[should_panic(expected = "summed arc cost fits the packed Dijkstra key")]
    fn packed_key_refuses_a_domain_one_unit_past_its_limit() {
        let (net, ids) = chain_at_key_limit(1);
        OspfDomain::new(&net, ids, CostMetric::Latency);
    }

    /// Under `Hop` every ring-and-chord world is full of equal-distance
    /// keys, ordered by their index bits alone. The accessor matches
    /// `reference_walk`, and `reference_walk` matches a breadth-first
    /// tree with the lowest-indexed parent, built without Dijkstra.
    #[test]
    fn hop_metric_on_tied_world_matches_reference_walk() {
        for seed in 0..8 {
            let (net, ids) = ring_chord_world(10, 5, seed);
            let d = OspfDomain::new(&net, ids, CostMetric::Hop);
            let n = d.core_count() as u32;
            for b in 0..n {
                let mut dist = vec![u32::MAX; n as usize];
                dist[b as usize] = 0;
                let mut queue = std::collections::VecDeque::from([b]);
                while let Some(v) = queue.pop_front() {
                    for &Edge { to: u, .. } in d.adj.row(v) {
                        if dist[u as usize] == u32::MAX {
                            dist[u as usize] = dist[v as usize] + 1;
                            queue.push_back(u);
                        }
                    }
                }
                let parent = |u: u32| {
                    let row = d.adj.row(u).iter().map(|e| e.to);
                    row.filter(|&v| dist[v as usize] + 1 == dist[u as usize])
                        .min()
                };
                for a in (0..n).filter(|&a| a != b) {
                    let bfs = (dist[a as usize] != u32::MAX).then(|| {
                        let mut walk = vec![a];
                        while let Some(p) = parent(walk[walk.len() - 1]) {
                            walk.push(p);
                        }
                        walk
                    });
                    let want = d.reference_walk(a, b);
                    assert_eq!(want, bfs, "seed {seed}: {a} → {b}");
                    let got = d.with_core_walk(a, b, |w| w.map(<[u32]>::to_vec));
                    assert_eq!(got, want, "seed {seed}: {a} → {b}");
                }
            }
        }
    }

    /// A chain longer than 1,024 routers, every router asked for twice
    /// as a destination from the chain's head: one tree per distinct
    /// destination, none built again.
    #[test]
    fn every_tree_is_kept_past_a_thousand_roots() {
        let (net, ids) = chain(&[1_000_000; 1500]);
        let d = OspfDomain::new(&net, ids.clone(), CostMetric::Latency);
        for _ in 0..2 {
            for &dst in &ids[1..] {
                assert_eq!(d.next_hop(ids[0], dst), Some(ids[1]));
            }
        }
        assert_eq!(d.spt_stats().trees_built, ids.len() as u64 - 1);
        assert_eq!(d.cache.lock().map.len(), ids.len() - 1);
        // Each tree is a `u16` port per core node plus its tie bits.
        let n = d.core_count() as u64;
        let per_tree = 2 * n + 8 * n.div_ceil(64);
        assert_eq!(per_tree, 3_002 + 192);
        let trees = d.spt_stats().trees_built;
        assert_eq!(d.spt_stats().tree_bytes, trees * per_tree);
    }

    /// Bellman–Ford distances to `root` over every link of `net`, both
    /// directions, under `metric`: an oracle independent of the CSR.
    fn bellman_ford(net: &Network, metric: CostMetric, root: usize) -> Vec<u64> {
        bellman_ford_within(net, metric, root, |_| true)
    }

    /// [`bellman_ford`] over the links for which `keep` holds.
    fn bellman_ford_within(
        net: &Network,
        metric: CostMetric,
        root: usize,
        keep: impl Fn(&massf_topology::Link) -> bool,
    ) -> Vec<u64> {
        let mut dist = vec![u64::MAX; net.node_count()];
        dist[root] = 0;
        let mut changed = true;
        while changed {
            changed = false;
            for link in net.links.iter().filter(|l| keep(l)) {
                let c = metric.cost(link);
                let (ia, ib) = (link.a.index(), link.b.index());
                for (from, to) in [(ia, ib), (ib, ia)] {
                    if dist[from] != u64::MAX && dist[from] + c < dist[to] {
                        dist[to] = dist[from] + c;
                        changed = true;
                    }
                }
            }
        }
        dist
    }

    /// A hub router with 320 spoke routers, the spokes also in a ring,
    /// and parallel hub links: every 7th spoke has a second link of equal
    /// cost, every 11th a cheaper one laid after the first, every 13th a
    /// dearer one. The hub's row holds 418 arcs, so the ports of most
    /// spokes in it are above the `u8` range (the paper world's router 0
    /// has degree 281). Every walk to or from eleven roots, most of them
    /// behind such ports, equals `reference_walk` and the walk that takes,
    /// at each node, the lowest-indexed neighbour on a Bellman–Ford
    /// shortest path; every distance equals Bellman–Ford's.
    #[test]
    fn ports_above_the_u8_range_walk_like_the_oracles() {
        let spokes = 320;
        let mut net = Network::new();
        let ids: Vec<NodeId> = (0..=spokes)
            .map(|i| net.add_node(NodeKind::Router, Point::new(i as f64, 0.0), AsId(0)))
            .collect();
        for i in 1..=spokes {
            net.add_link(ids[0], ids[i], 1e9, 2.0);
            net.add_link(ids[i], ids[i % spokes + 1], 1e9, 1.0);
        }
        for i in 1..=spokes {
            for (every, ms) in [(7, 2.0), (11, 1.0), (13, 3.0)] {
                if i % every == 0 {
                    net.add_link(ids[i], ids[0], 1e9, ms);
                }
            }
        }
        let roots = [0, 1, 255, 256, 259, 264, 273, 286, 300, 310, 320];
        for metric in [CostMetric::Hop, CostMetric::Latency] {
            let d = OspfDomain::new(&net, ids.clone(), metric);
            assert_eq!(d.core_count(), spokes + 1);
            assert_eq!(d.adj.row(0).len(), 320 + 45 + 29 + 24);
            let dist: Vec<Vec<u64>> = (0..=spokes)
                .map(|r| bellman_ford(&net, metric, r))
                .collect();
            // An arc on a shortest path is a cheapest one to its end.
            let oracle = |a: u32, b: u32| {
                let to_b = &dist[b as usize];
                let mut walk = vec![a];
                while walk[walk.len() - 1] != b {
                    let cur = walk[walk.len() - 1] as usize;
                    let row = d.adj.row(cur as u32).iter();
                    let on_path = row.filter(|e| to_b[e.to as usize] + e.cost == to_b[cur]);
                    let next = on_path.map(|e| e.to).min();
                    walk.push(next.expect("a shortest path continues"));
                }
                walk
            };
            for &b in &roots {
                for a in (0..=spokes as u32).filter(|&a| a != b) {
                    for (s, t) in [(a, b), (b, a)] {
                        let ctx = format!("{metric:?} {s} → {t}");
                        let got = d.with_core_walk(s, t, |w| w.map(<[u32]>::to_vec));
                        assert_eq!(got, d.reference_walk(s, t), "{ctx}");
                        assert_eq!(got, Some(oracle(s, t)), "{ctx}");
                        let want = dist[t as usize][s as usize];
                        assert_eq!(
                            d.distance(ids[s as usize], ids[t as usize]),
                            Some(want),
                            "{ctx}"
                        );
                    }
                }
            }
            let cache = d.cache.lock();
            let trees = (0..=spokes as u32).filter_map(|r| cache.map.get(&r));
            let mut ports = trees.flat_map(|t| t.parent.iter().copied());
            assert!(
                ports.any(|p| p != u16::MAX && p > 255),
                "{metric:?}: no port above 255"
            );
        }
    }

    /// Two routers joined by `links` parallel links, the last one the
    /// cheapest, so each router's parent in the other's tree is the
    /// highest port of its row.
    fn parallel_pair(links: usize) -> (Network, Vec<NodeId>) {
        let mut net = Network::new();
        let ids: Vec<NodeId> = (0..2)
            .map(|i| net.add_node(NodeKind::Router, Point::new(i as f64, 0.0), AsId(0)))
            .collect();
        for _ in 1..links {
            net.add_link(ids[0], ids[1], 1e9, 2.0);
        }
        net.add_link(ids[0], ids[1], 1e9, 1.0);
        (net, ids)
    }

    /// The widest row a tree can address: 65,534 arcs, ports 0–65,533.
    #[test]
    fn a_row_of_65_534_arcs_routes_through_its_last_port() {
        let (net, ids) = parallel_pair(65_534);
        let d = OspfDomain::new(&net, ids.clone(), CostMetric::Latency);
        assert_eq!(d.path(ids[0], ids[1]), Some(vec![ids[0], ids[1]]));
        assert_eq!(d.distance(ids[1], ids[0]), Some(1_000_000));
        assert_eq!(d.cache.lock().map[&1].parent[0], 65_533);
    }

    /// One arc more and the row is refused at construction.
    #[test]
    #[should_panic(expected = "a core row has fewer than 65,535 arcs, so its ports fit a u16")]
    fn a_row_of_65_535_arcs_is_refused() {
        let (net, ids) = parallel_pair(65_535);
        OspfDomain::new(&net, ids, CostMetric::Latency);
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
        let d =
            OspfDomain::with_link_filter(&net, ids.clone(), CostMetric::Latency, |l| l.id != dead);
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
        let faulted = OspfDomain::with_link_filter(&net, members, CostMetric::Latency, |l| {
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
        let d = OspfDomain::with_link_filter(&net, ids.clone(), CostMetric::Latency, |l| {
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
                // Two trees of four 2-byte ports and one tie-bit word.
                tree_bytes: 2 * (4 * 2 + 8),
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
        let (ls, lt) = (d.local(s)?, d.local(t)?);
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

    /// A `NodeId` at or beyond the network's node count is not a member:
    /// every query involving one answers "no", at either end.
    #[test]
    fn node_ids_beyond_the_network_are_not_members() {
        let (net, ids) = diamond();
        let d = OspfDomain::new(&net, ids.clone(), CostMetric::Latency);
        for beyond in [NodeId(net.node_count() as u32), NodeId(u32::MAX)] {
            assert!(!d.contains(beyond));
            for (s, t) in [(ids[0], beyond), (beyond, ids[0]), (beyond, beyond)] {
                assert_eq!(d.path(s, t), None, "{s:?} → {t:?}");
                assert_eq!(d.distance(s, t), None, "{s:?} → {t:?}");
                assert_eq!(d.next_hop(s, t), None, "{s:?} → {t:?}");
                let mut out = vec![ids[1]];
                assert!(!d.path_append(s, t, &mut out), "{s:?} → {t:?}");
                assert_eq!(out, vec![ids[1]]);
            }
        }
    }

    /// Members passed reversed and with repeats build the domain the
    /// ascending list builds: same core, same answer to every query.
    #[test]
    fn member_order_and_repeats_do_not_change_answers() {
        for seed in 0..4 {
            let (net, ids) = ring_chord_world(8, 4, seed);
            let mut shuffled: Vec<NodeId> = ids.iter().rev().copied().collect();
            shuffled.extend(ids.iter().step_by(3));
            for metric in [CostMetric::Hop, CostMetric::Latency] {
                let want = OspfDomain::new(&net, ids.clone(), metric);
                let got = OspfDomain::new(&net, shuffled.clone(), metric);
                assert_eq!(got.member_count(), want.member_count());
                assert_eq!(got.core_count(), want.core_count());
                for &s in &ids {
                    for &t in &ids {
                        let ctx = format!("seed {seed} {metric:?} {s:?} → {t:?}");
                        assert_eq!(got.path(s, t), want.path(s, t), "{ctx}");
                        assert_eq!(got.distance(s, t), want.distance(s, t), "{ctx}");
                        assert_eq!(got.next_hop(s, t), want.next_hop(s, t), "{ctx}");
                    }
                }
            }
        }
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// A domain over a random subset of a random world, with
        /// non-members below its first member, between members and above
        /// its last: every member pair's distance is Bellman–Ford's over
        /// the links between members, its path a chain of such links
        /// costing exactly that, its next hop the path's second node;
        /// every query involving a non-member answers `None`.
        #[test]
        fn subset_domains_match_bellman_ford_on_their_members(
            ring in 4usize..11,
            chords in 0usize..6,
            seed in 0u64..10_000,
            mask in any::<u32>(),
        ) {
            let (net, ids) = ring_chord_world(ring, chords, seed);
            let n = ids.len();
            // The first and last nodes stay out; one node in between
            // stays out, so a member lies on each side of it.
            let gap = 2 + (seed as usize) % (n - 4);
            let is_member: Vec<bool> = (0..n)
                .map(|i| {
                    i > 0 && i + 1 < n && i != gap
                        && (i == gap - 1 || i == gap + 1 || mask >> (i % 32) & 1 == 1)
                })
                .collect();
            let members: Vec<NodeId> = ids
                .iter()
                .copied()
                .filter(|id| is_member[id.index()])
                .collect();
            let inside = |l: &massf_topology::Link| is_member[l.a.index()] && is_member[l.b.index()];
            for metric in [CostMetric::Hop, CostMetric::Latency] {
                let d = OspfDomain::new(&net, members.clone(), metric);
                prop_assert_eq!(d.member_count(), members.len());
                let hop_cost = |a: NodeId, b: NodeId| {
                    let between = net.links.iter().filter(|l| {
                        (l.a, l.b) == (a, b) || (l.a, l.b) == (b, a)
                    });
                    between.map(|l| metric.cost(l)).min()
                };
                for &t in &ids {
                    let dist = bellman_ford_within(&net, metric, t.index(), inside);
                    for &s in &ids {
                        let ctx = format!("{metric:?} {s:?}→{t:?}");
                        if !is_member[s.index()] || !is_member[t.index()] {
                            prop_assert!(!d.contains(s) || !d.contains(t), "contains {}", ctx);
                            prop_assert_eq!(d.path(s, t), None, "path {}", ctx);
                            prop_assert_eq!(d.distance(s, t), None, "distance {}", ctx);
                            prop_assert_eq!(d.next_hop(s, t), None, "next_hop {}", ctx);
                            prop_assert!(!d.path_append(s, t, &mut Vec::new()), "append {}", ctx);
                            continue;
                        }
                        let want = (dist[s.index()] != u64::MAX).then_some(dist[s.index()]);
                        prop_assert_eq!(d.distance(s, t), want, "distance {}", ctx);
                        let path = d.path(s, t);
                        prop_assert_eq!(path.is_some(), want.is_some(), "path {}", ctx);
                        let Some(path) = path else { continue };
                        prop_assert_eq!((path[0], path[path.len() - 1]), (s, t), "ends {}", ctx);
                        let mut cost = 0;
                        for w in path.windows(2) {
                            prop_assert!(is_member[w[0].index()] && is_member[w[1].index()]);
                            cost += hop_cost(w[0], w[1]).expect("path hops are links");
                        }
                        prop_assert_eq!(Some(cost), want, "path cost {}", ctx);
                        prop_assert_eq!(d.next_hop(s, t), path.get(1).copied(), "next_hop {}", ctx);
                    }
                }
            }
        }

        /// Every ordered pair, in one shuffled order and in its reverse:
        /// all four queries equal the destination-rooted reference,
        /// whichever trees happen to be held, and every tree built is
        /// held. Under `Hop` both either-end branches must have run: a
        /// query finds the tree at its source held before the one at
        /// its destination is built.
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
                for order in [&order, &reversed] {
                        let d = OspfDomain::new(&net, ids.clone(), metric);
                        for &(s, t) in order {
                            let want = reference_path(&oracle, s, t);
                            let ctx = format!("{metric:?} {s:?}→{t:?}");
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
                        prop_assert_eq!(stats.trees_built, d.cache.lock().map.len() as u64);
                        seen.served_reversed += stats.served_reversed;
                        seen.tie_fallbacks += stats.tie_fallbacks;
                }
                if metric == CostMetric::Hop {
                    prop_assert!(seen.served_reversed > 0, "no query was served reversed");
                    prop_assert!(seen.tie_fallbacks > 0, "no tied walk fell back");
                }
            }
        }
    }
}
