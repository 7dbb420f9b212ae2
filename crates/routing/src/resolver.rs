//! End-to-end path resolution for the packet simulator.
//!
//! The simulator forwards packets hop by hop; the resolver computes, at
//! flow-setup time, the node-level path a packet will take (NIx-vector
//! style — see DESIGN.md substitution #5). Two implementations:
//!
//! * [`FlatResolver`]: the paper's single-AS world — one OSPF domain
//!   over the whole network.
//! * [`MultiAsResolver`]: the multi-AS world — OSPF inside each AS, BGP
//!   across ASes, and (step 6 of Section 5.1.2) *default routing* in
//!   stub ASes: a stub forwards any non-local destination to its primary
//!   provider instead of holding full BGP tables.

#![expect(
    clippy::cast_possible_truncation,
    reason = "AS numbers here are usize graph indices < AsGraph::n, which the topology layer caps at u16::MAX"
)]

use crate::bgp::BgpRib;
use crate::ospf::{CostMetric, OspfDomain, SptStats};
use massf_topology::mabrite::MultiAsNetwork;
use massf_topology::{AsClass, AsGraph, MassfError, MultiAsTopologyConfig, Network, NodeId};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Resolves full node-level paths between any two nodes.
pub trait PathResolver: Send + Sync {
    /// The path `src → … → dst` inclusive of both endpoints, or `None`
    /// when `dst` is unreachable from `src` (possible under BGP policy).
    fn route(&self, src: NodeId, dst: NodeId) -> Option<Vec<NodeId>>;

    /// Like [`PathResolver::route`], returning the path as a shared
    /// slice. The default wraps `route`; a resolver that keeps its
    /// answers may override it to hand one out without copying. (The
    /// packet simulator calls `route`: it interns each answer with its
    /// link slots.)
    fn route_arc(&self, src: NodeId, dst: NodeId) -> Option<Arc<[NodeId]>> {
        self.route(src, dst).map(Arc::from)
    }

    /// Shortest-path-tree counters of a resolver built on OSPF domains
    /// (summed over its domains), else `None`. A host-side diagnostic
    /// ([`SptStats`]): it depends on thread interleaving and enters no
    /// simulated result.
    fn spt_stats(&self) -> Option<SptStats> {
        None
    }
}

impl<R: PathResolver + ?Sized> PathResolver for &R {
    fn route(&self, src: NodeId, dst: NodeId) -> Option<Vec<NodeId>> {
        (**self).route(src, dst)
    }
    fn route_arc(&self, src: NodeId, dst: NodeId) -> Option<Arc<[NodeId]>> {
        (**self).route_arc(src, dst)
    }
    fn spt_stats(&self) -> Option<SptStats> {
        (**self).spt_stats()
    }
}

impl<R: PathResolver + ?Sized> PathResolver for Arc<R> {
    fn route(&self, src: NodeId, dst: NodeId) -> Option<Vec<NodeId>> {
        (**self).route(src, dst)
    }
    fn route_arc(&self, src: NodeId, dst: NodeId) -> Option<Arc<[NodeId]>> {
        (**self).route_arc(src, dst)
    }
    fn spt_stats(&self) -> Option<SptStats> {
        (**self).spt_stats()
    }
}

/// Single-domain OSPF resolution (the paper's Section 4 network).
pub struct FlatResolver {
    domain: OspfDomain,
}

impl FlatResolver {
    /// Cover every node of `net` with one OSPF domain.
    pub fn new(net: &Network, metric: CostMetric) -> Self {
        let members = net.nodes.iter().map(|n| n.id).collect();
        Self::from_domain(OspfDomain::new(net, members, metric))
    }

    /// Resolve over an already built domain (a filtered one, say).
    pub fn from_domain(domain: OspfDomain) -> Self {
        FlatResolver { domain }
    }

    /// Access the underlying OSPF domain.
    pub fn domain(&self) -> &OspfDomain {
        &self.domain
    }
}

impl PathResolver for FlatResolver {
    fn route(&self, src: NodeId, dst: NodeId) -> Option<Vec<NodeId>> {
        self.domain.path(src, dst)
    }
    fn spt_stats(&self) -> Option<SptStats> {
        Some(self.domain.spt_stats())
    }
}

/// BGP + OSPF resolution for multi-AS networks.
pub struct MultiAsResolver {
    /// One OSPF domain per AS (routers + hosts of that AS). Independent
    /// of the AS graph, so resolvers derived by
    /// [`MultiAsResolver::with_failed_adjacencies`] share them — and the
    /// shortest-path trees they have computed so far.
    domains: Arc<[OspfDomain]>,
    rib: BgpRib,
    /// AS of every node.
    as_of: Vec<u16>,
    /// For each adjacent AS pair `(a, b)` (both orders), the chosen
    /// inter-AS link endpoints `(border in a, border in b)`. Ordered
    /// map for consistency with the other deterministic-critical state
    /// (only ever point-looked-up, but iteration must stay safe to add).
    gateways: BTreeMap<(u16, u16), (NodeId, NodeId)>,
    /// Primary (and implicit backup) provider per AS, for stub default
    /// routing; `u16::MAX` when the AS has no provider.
    primary_provider: Vec<u16>,
    /// Is the AS a stub? Stubs route by default (step 6d).
    is_stub: Vec<bool>,
}

impl MultiAsResolver {
    /// Build from a generated multi-AS network. Stub ASes always route
    /// by default (step 6d). `cfg` is unused: everything is read from
    /// `m`; pass the config used for generation.
    pub fn new(m: &MultiAsNetwork, metric: CostMetric, _cfg: &MultiAsTopologyConfig) -> Self {
        let net = &m.network;
        let n_as = m.as_graph.n;
        let as_of: Vec<u16> = net.nodes.iter().map(|n| n.as_id.0).collect();
        // One pass each buckets the nodes and the intra-AS links by AS,
        // both in ascending order, so each AS's domain is built from its
        // own bucket. The domains fan out across the shared worker pool;
        // index order is preserved, keeping domain `a` at slot `a`.
        let mut members: Vec<Vec<NodeId>> = vec![Vec::new(); n_as];
        for (node, &a) in net.nodes.iter().zip(&as_of) {
            members[usize::from(a)].push(node.id);
        }
        let mut links: Vec<Vec<&massf_topology::Link>> = vec![Vec::new(); n_as];
        for link in net.links.iter().filter(|l| !l.inter_as) {
            links[usize::from(as_of[link.a.index()])].push(link);
        }
        let domains: Vec<OspfDomain> = massf_parutil::par_map_indexed(n_as, |a| {
            OspfDomain::from_links(net, members[a].clone(), metric, links[a].iter().copied())
        });
        let rib = BgpRib::compute(&m.as_graph);

        // Deterministic gateway per adjacent AS pair: the lowest-id
        // inter-AS link between them.
        let mut gateways: BTreeMap<(u16, u16), (NodeId, NodeId)> = BTreeMap::new();
        for link in &net.links {
            if !link.inter_as {
                continue;
            }
            let (aa, ab) = (as_of[link.a.index()], as_of[link.b.index()]);
            gateways.entry((aa, ab)).or_insert((link.a, link.b));
            gateways.entry((ab, aa)).or_insert((link.b, link.a));
        }

        let primary_provider = primary_providers(&m.as_graph);
        let is_stub: Vec<bool> = (0..n_as)
            .map(|a| m.as_graph.classes[a] == AsClass::Stub)
            .collect();

        MultiAsResolver {
            domains: domains.into(),
            rib,
            as_of,
            gateways,
            primary_provider,
            is_stub,
        }
    }

    /// The converged BGP RIB.
    pub fn rib(&self) -> &BgpRib {
        &self.rib
    }

    /// Simulate concurrent failures of inter-AS adjacencies (paper
    /// Section 5.1.2 step 6d: multi-homed stubs keep default *and
    /// backup* routes). Returns a resolver whose BGP routing has
    /// re-converged once on the AS graph with every listed edge removed
    /// and whose stub default routing falls back to the next provider,
    /// so double faults compose (the result either reroutes around both
    /// or reports a destination unreachable — it never panics). Only
    /// inter-domain state is recomputed; the per-AS OSPF domains are
    /// shared with `self`. Fails with [`MassfError::NotAdjacent`] when
    /// a listed pair is not an edge of the AS graph.
    pub fn with_failed_adjacencies(
        &self,
        m: &MultiAsNetwork,
        failures: &[(usize, usize)],
    ) -> Result<Self, MassfError> {
        let mut reduced = m.as_graph.clone();
        for &(as_a, as_b) in failures {
            let adjacent = reduced.neighbors(as_a).any(|(b, _)| b == as_b);
            if !adjacent {
                return Err(MassfError::NotAdjacent { as_a, as_b });
            }
            reduced = reduced.without_edge(as_a, as_b);
        }
        let mut gateways = self.gateways.clone();
        for &(as_a, as_b) in failures {
            gateways.remove(&(as_a as u16, as_b as u16));
            gateways.remove(&(as_b as u16, as_a as u16));
        }
        Ok(MultiAsResolver {
            domains: Arc::clone(&self.domains),
            rib: BgpRib::compute(&reduced),
            as_of: self.as_of.clone(),
            gateways,
            // A stub whose sole provider link failed falls back to its
            // backup.
            primary_provider: primary_providers(&reduced),
            is_stub: self.is_stub.clone(),
        })
    }

    /// The OSPF domain of AS `a`.
    pub fn domain(&self, a: usize) -> &OspfDomain {
        &self.domains[a]
    }

    /// Next AS on the way from `cur` toward `dst_as`, honoring stub
    /// default routing.
    fn next_as(&self, cur: u16, dst_as: u16) -> Option<u16> {
        if self.is_stub[cur as usize] {
            // Default route: everything non-local goes to the primary
            // provider — unless the destination AS is directly adjacent
            // (a stub may have a peer or second provider link it knows
            // statically).
            if self.gateways.contains_key(&(cur, dst_as)) {
                return Some(dst_as);
            }
            let p = self.primary_provider[cur as usize];
            return (p != u16::MAX).then_some(p);
        }
        self.rib
            .next_as(cur as usize, dst_as as usize)
            .map(|a| a as u16)
    }
}

/// Lowest-numbered provider of every AS of `graph` (`u16::MAX` = none).
fn primary_providers(graph: &AsGraph) -> Vec<u16> {
    (0..graph.n)
        .map(|a| {
            graph
                .providers(a)
                .into_iter()
                .min()
                .map(|p| p as u16)
                .unwrap_or(u16::MAX)
        })
        .collect()
}

impl PathResolver for MultiAsResolver {
    fn route(&self, src: NodeId, dst: NodeId) -> Option<Vec<NodeId>> {
        let (as_s, as_d) = (self.as_of[src.index()], self.as_of[dst.index()]);
        if as_s == as_d {
            return self.domains[as_s as usize].path(src, dst);
        }
        // Stitch every intra-AS leg and inter-AS crossing into one
        // buffer: `path_append` writes each leg in place (reserving its
        // exact length first), so no per-leg Vec is ever allocated.
        let mut path: Vec<NodeId> = Vec::new();
        let mut cur_node = src;
        let mut cur_as = as_s;
        let mut hops = 0usize;
        while cur_as != as_d {
            hops += 1;
            if hops > self.domains.len() + 1 {
                return None; // routing loop guard (misconfiguration)
            }
            let next = self.next_as(cur_as, as_d)?;
            let &(exit, entry) = self.gateways.get(&(cur_as, next))?;
            // Intra-AS leg to the exit border router.
            if !self.domains[cur_as as usize].path_append(cur_node, exit, &mut path) {
                return None;
            }
            // Cross the inter-AS link.
            path.push(entry);
            cur_node = entry;
            cur_as = next;
        }
        if !self.domains[as_d as usize].path_append(cur_node, dst, &mut path) {
            return None;
        }
        Some(path)
    }

    /// The sum of the per-AS domains' counters, in AS order.
    fn spt_stats(&self) -> Option<SptStats> {
        Some(self.domains.iter().map(OspfDomain::spt_stats).sum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use massf_topology::{
        generate_flat_network, generate_multi_as_network, FlatTopologyConfig,
        MultiAsTopologyConfig, NodeKind,
    };

    fn flat() -> (massf_topology::Network, FlatResolver) {
        let net = generate_flat_network(&FlatTopologyConfig::tiny());
        let r = FlatResolver::new(&net, CostMetric::Latency);
        (net, r)
    }

    fn multi() -> (massf_topology::mabrite::MultiAsNetwork, MultiAsResolver) {
        let cfg = MultiAsTopologyConfig::tiny();
        let m = generate_multi_as_network(&cfg);
        let r = MultiAsResolver::new(&m, CostMetric::Latency, &cfg);
        (m, r)
    }

    pub(crate) fn check_path_valid(
        net: &massf_topology::Network,
        path: &[NodeId],
        src: NodeId,
        dst: NodeId,
    ) {
        assert_eq!(*path.first().expect("resolved paths are non-empty"), src);
        assert_eq!(*path.last().expect("resolved paths are non-empty"), dst);
        for w in path.windows(2) {
            assert!(
                net.has_link(w[0], w[1]),
                "no link between consecutive hops {w:?}"
            );
            assert_ne!(w[0], w[1], "repeated hop");
        }
    }

    #[test]
    fn flat_routes_between_hosts() {
        let (net, r) = flat();
        let hosts = net.host_ids();
        let (a, b) = (hosts[0], hosts[hosts.len() - 1]);
        let path = r.route(a, b).expect("flat network fully reachable");
        check_path_valid(&net, &path, a, b);
    }

    #[test]
    fn flat_route_to_self() {
        let (net, r) = flat();
        let h = net.host_ids()[0];
        assert_eq!(r.route(h, h), Some(vec![h]));
    }

    /// 2 and 4 threads share one resolver over a ring of 80 routers
    /// with 80 chords, every link 1, 2 or 3 ms, and hosts on every
    /// fourth router, so many shortest paths tie, and a tied walk read
    /// from the wrong end would differ. Every thread first asks for a
    /// route into the same cold root at once, then both directions of
    /// every pair in its own order; each answer must be the 1-thread
    /// answer. Only answers are compared: `SptStats` depends on the
    /// interleaving.
    #[test]
    fn concurrent_lookups_return_the_single_threaded_answers() {
        use massf_topology::{AsId, Network, Point};
        use rand::prelude::*;
        use std::sync::Barrier;

        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(36);
        let ring = 80;
        let mut net = Network::new();
        let routers: Vec<NodeId> = (0..ring)
            .map(|i| net.add_node(NodeKind::Router, Point::new(i as f64, 0.0), AsId(0)))
            .collect();
        let chords = (0..ring).map(|_| (rng.gen_range(0..ring), rng.gen_range(0..ring)));
        let ring_links = (0..ring).map(|i| (i, (i + 1) % ring));
        for (a, b) in ring_links.chain(chords.collect::<Vec<_>>()) {
            if a != b {
                let ms = f64::from(rng.gen_range(1u32..4));
                net.add_link(routers[a], routers[b], 1e9, ms);
            }
        }
        for &r in routers.iter().step_by(4) {
            let h = net.add_node(NodeKind::Host, Point::new(0.0, 1.0), AsId(0));
            net.add_link(r, h, 1e9, 0.5);
        }
        let nodes: Vec<NodeId> = net.nodes.iter().map(|n| n.id).collect();
        let pairs: Vec<(NodeId, NodeId)> = nodes
            .iter()
            .enumerate()
            .flat_map(|(i, &s)| nodes[i + 1..].iter().map(move |&t| (s, t)))
            .collect();
        let cold_root = routers[ring / 2];

        let single = FlatResolver::new(&net, CostMetric::Latency);
        let want: BTreeMap<(NodeId, NodeId), Option<Vec<NodeId>>> = pairs
            .iter()
            .flat_map(|&(s, t)| [(s, t), (t, s)])
            .map(|(s, t)| ((s, t), single.route(s, t)))
            .collect();
        assert!(want.values().all(Option::is_some), "the ring is connected");

        for threads in [2, 4] {
            let flat = FlatResolver::new(&net, CostMetric::Latency);
            let start = Barrier::new(threads);
            std::thread::scope(|scope| {
                for thread in 0..threads {
                    let (start, pairs, want, routers, flat) =
                        (&start, &pairs, &want, &routers, &flat);
                    scope.spawn(move || {
                        let mut order = pairs.clone();
                        let seed = thread as u64;
                        order.shuffle(&mut rand_chacha::ChaCha8Rng::seed_from_u64(seed));
                        order.insert(0, (routers[thread], cold_root));
                        start.wait();
                        for (s, t) in order {
                            for (s, t) in [(s, t), (t, s)] {
                                let got = flat.route(s, t);
                                assert_eq!(got, want[&(s, t)], "{threads} threads: {s:?} → {t:?}");
                            }
                        }
                    });
                }
            });
        }
    }

    #[test]
    fn multi_as_routes_cross_as() {
        let (m, r) = multi();
        let hosts = m.network.host_ids();
        let mut cross = 0;
        for i in 0..hosts.len().min(12) {
            for j in (i + 1)..hosts.len().min(12) {
                let (a, b) = (hosts[i], hosts[j]);
                if m.network.nodes[a.index()].as_id == m.network.nodes[b.index()].as_id {
                    continue;
                }
                let path = r.route(a, b).expect("hierarchy guarantees reachability");
                check_path_valid(&m.network, &path, a, b);
                cross += 1;
            }
        }
        assert!(cross > 0, "test needs at least one cross-AS host pair");
    }

    #[test]
    fn multi_as_spt_stats_sum_the_per_as_domains() {
        let (m, r) = multi();
        let hosts = m.network.host_ids();
        let (a, b) = (hosts[0], hosts[hosts.len() - 1]);
        assert_ne!(
            m.network.nodes[a.index()].as_id,
            m.network.nodes[b.index()].as_id
        );
        r.route(a, b)
            .expect("tiny multi-AS network fully reachable");
        let per_as: SptStats = (0..m.as_graph.n).map(|a| r.domain(a).spt_stats()).sum();
        let total = r.spt_stats().expect("a multi-AS resolver has domains");
        assert!(total.trees_built > 0, "the route built no tree");
        assert_eq!(total, per_as);
    }

    #[test]
    fn multi_as_path_visits_expected_as_sequence() {
        let (m, r) = multi();
        let hosts = m.network.host_ids();
        let (a, b) = (hosts[0], *hosts.last().expect("topology has hosts"));
        if m.network.nodes[a.index()].as_id == m.network.nodes[b.index()].as_id {
            return; // same AS in this seed; covered elsewhere
        }
        let path = r.route(a, b).expect("hierarchy guarantees reachability");
        // The AS sequence along the path must be loop-free at AS level.
        let mut as_seq: Vec<u16> = path
            .iter()
            .map(|n| m.network.nodes[n.index()].as_id.0)
            .collect();
        as_seq.dedup();
        let mut seen = std::collections::BTreeSet::new();
        for &a in &as_seq {
            assert!(seen.insert(a), "AS-level loop: {as_seq:?}");
        }
    }

    #[test]
    fn stub_first_hop_respects_default_routing() {
        let (m, r) = multi();
        // Pick a host in a stub AS with a single provider, route far.
        let hosts = m.network.host_ids();
        for &h in &hosts {
            let as_h = m.network.nodes[h.index()].as_id.0 as usize;
            let provs = m.as_graph.providers(as_h);
            if provs.len() != 1 {
                continue;
            }
            // Find a destination in a different, non-adjacent AS.
            let Some(&d) = hosts.iter().find(|&&d| {
                let as_d = m.network.nodes[d.index()].as_id.0;
                as_d as usize != as_h
                    && !m.as_graph.neighbors(as_h).any(|(b, _)| b == as_d as usize)
            }) else {
                continue;
            };
            let path = r.route(h, d).expect("hierarchy guarantees reachability");
            // First AS transition must be into the sole provider.
            let first_foreign = path
                .iter()
                .map(|n| m.network.nodes[n.index()].as_id.0 as usize)
                .find(|&a| a != as_h)
                .expect("cross-AS path leaves the source AS");
            assert_eq!(first_foreign, provs[0], "stub did not default-route");
            return;
        }
        // No single-provider stub host in this topology: vacuous.
    }

    #[test]
    fn intra_as_route_stays_inside_as() {
        let (m, r) = multi();
        // Two routers of AS 0.
        let routers = &m.routers_of[0];
        let path = r
            .route(routers[0], routers[routers.len() - 1])
            .expect("intra-AS routers are connected");
        for n in &path {
            assert_eq!(m.network.nodes[n.index()].as_id.0, 0);
        }
    }

    #[test]
    fn routers_route_too() {
        let (net, r) = flat();
        let routers = net.router_ids();
        let path = r
            .route(routers[3], routers[routers.len() / 2])
            .expect("router-to-router");
        assert!(path
            .iter()
            .all(|n| net.nodes[n.index()].kind == NodeKind::Router
                || net.nodes[n.index()].kind == NodeKind::Host));
    }
}

#[cfg(test)]
mod failover_tests {
    use super::*;
    use crate::PathResolver;
    use massf_topology::{generate_multi_as_network, MultiAsTopologyConfig};

    #[test]
    fn multi_homed_stub_survives_primary_provider_failure() {
        let cfg = MultiAsTopologyConfig {
            as_count: 20,
            routers_per_as: 8,
            hosts: 60,
            ..MultiAsTopologyConfig::default()
        };
        let m = generate_multi_as_network(&cfg);
        let resolver = MultiAsResolver::new(&m, CostMetric::Latency, &cfg);

        // Find a multi-homed stub (≥ 2 providers).
        let Some(stub) = (0..m.as_graph.n).find(|&a| {
            m.as_graph.classes[a] == massf_topology::AsClass::Stub
                && m.as_graph.providers(a).len() >= 2
        }) else {
            return; // topology has no multi-homed stub at this seed
        };
        let providers = m.as_graph.providers(stub);
        let primary = *providers.iter().min().expect("stub has ≥ 2 providers") as u16;
        assert_eq!(resolver.primary_provider[stub], primary);

        // Fail the primary provider adjacency; the backup takes over.
        let failed = resolver
            .with_failed_adjacencies(&m, &[(stub, primary as usize)])
            .expect("adjacent");
        assert_ne!(failed.primary_provider[stub], primary);
        assert_ne!(failed.primary_provider[stub], u16::MAX);

        // Hosts of the stub can still reach remote hosts.
        let hosts = m.network.host_ids();
        let Some(&src) = hosts
            .iter()
            .find(|&&h| m.network.nodes[h.index()].as_id.0 as usize == stub)
        else {
            return;
        };
        let Some(&dst) = hosts
            .iter()
            .find(|&&h| m.network.nodes[h.index()].as_id.0 as usize != stub)
        else {
            return;
        };
        let path = failed.route(src, dst).expect("backup route exists");
        // The path must not cross the failed adjacency.
        for w in path.windows(2) {
            let (aa, ab) = (
                m.network.nodes[w[0].index()].as_id.0 as usize,
                m.network.nodes[w[1].index()].as_id.0 as usize,
            );
            assert!(
                !((aa == stub && ab == primary as usize) || (ab == stub && aa == primary as usize)),
                "path crossed the failed adjacency"
            );
        }
    }

    #[test]
    fn non_adjacent_failure_is_rejected() {
        let cfg = MultiAsTopologyConfig::tiny();
        let m = generate_multi_as_network(&cfg);
        let resolver = MultiAsResolver::new(&m, CostMetric::Latency, &cfg);
        // An AS is never adjacent to itself.
        assert_eq!(
            resolver.with_failed_adjacencies(&m, &[(0, 0)]).err(),
            Some(massf_topology::MassfError::NotAdjacent { as_a: 0, as_b: 0 })
        );
    }

    #[test]
    fn double_fault_composes_reroute_or_unreachable() {
        // Two concurrent adjacency failures: every host pair must either
        // get a valid path avoiding both dead adjacencies or a clean
        // `None` — never a panic and never a path over a dead edge.
        let cfg = MultiAsTopologyConfig {
            as_count: 20,
            routers_per_as: 8,
            hosts: 60,
            ..MultiAsTopologyConfig::default()
        };
        let m = generate_multi_as_network(&cfg);
        let resolver = MultiAsResolver::new(&m, CostMetric::Latency, &cfg);

        // Pick two distinct AS-graph edges deterministically.
        let mut edges = Vec::new();
        for a in 0..m.as_graph.n {
            for (b, _) in m.as_graph.neighbors(a) {
                if a < b {
                    edges.push((a, b));
                }
            }
        }
        assert!(edges.len() >= 2, "AS graph too small for a double fault");
        let fail_a = edges[0];
        let fail_b = edges[edges.len() / 2];
        if fail_a == fail_b {
            return;
        }
        let failed = resolver
            .with_failed_adjacencies(&m, &[fail_a, fail_b])
            .expect("both pairs are AS-graph edges");

        // Only inter-domain state is rebuilt: every OSPF domain is the
        // base resolver's own.
        for a in 0..m.as_graph.n {
            assert!(std::ptr::eq(failed.domain(a), resolver.domain(a)), "AS {a}");
        }
        // Reference: the from-scratch construction — fresh domains from
        // the network, then the reduced graph's RIB, gateways and
        // providers patched in.
        let reduced = m
            .as_graph
            .without_edge(fail_a.0, fail_a.1)
            .without_edge(fail_b.0, fail_b.1);
        let mut reference = MultiAsResolver::new(&m, CostMetric::Latency, &cfg);
        reference.rib = BgpRib::compute(&reduced);
        for (a, b) in [fail_a, fail_b] {
            reference.gateways.remove(&(a as u16, b as u16));
            reference.gateways.remove(&(b as u16, a as u16));
        }
        reference.primary_provider = primary_providers(&reduced);

        let hosts = m.network.host_ids();
        for &s in &hosts {
            for &d in &hosts {
                assert_eq!(failed.route(s, d), reference.route(s, d), "{s:?}→{d:?}");
            }
        }
        let mut routed = 0;
        for i in 0..hosts.len().min(10) {
            for j in (i + 1)..hosts.len().min(10) {
                let (s, d) = (hosts[i], hosts[j]);
                let Some(path) = failed.route(s, d) else {
                    continue; // unreachable under the double fault: fine
                };
                routed += 1;
                super::tests::check_path_valid(&m.network, &path, s, d);
                // Must not cross either failed adjacency.
                for w in path.windows(2) {
                    let (aa, ab) = (
                        m.network.nodes[w[0].index()].as_id.0 as usize,
                        m.network.nodes[w[1].index()].as_id.0 as usize,
                    );
                    for &(fa, fb) in &[fail_a, fail_b] {
                        assert!(
                            !((aa == fa && ab == fb) || (aa == fb && ab == fa)),
                            "path crossed failed adjacency ({fa},{fb})"
                        );
                    }
                }
            }
        }
        assert!(routed > 0, "double fault must not sever every host pair");
    }

    #[test]
    fn double_fault_rejects_pair_dead_after_first_failure() {
        // Listing the same adjacency twice: the second removal sees a
        // non-edge and must error, not panic.
        let cfg = MultiAsTopologyConfig::tiny();
        let m = generate_multi_as_network(&cfg);
        let resolver = MultiAsResolver::new(&m, CostMetric::Latency, &cfg);
        let (a, b) = (0..m.as_graph.n)
            .find_map(|a| m.as_graph.neighbors(a).next().map(|(b, _)| (a, b)))
            .expect("AS graph has edges");
        assert_eq!(
            resolver
                .with_failed_adjacencies(&m, &[(a, b), (a, b)])
                .err(),
            Some(massf_topology::MassfError::NotAdjacent { as_a: a, as_b: b })
        );
    }

    #[test]
    fn failed_core_link_reroutes_through_clique() {
        // The dense core is a clique, so failing one core-core peering
        // leaves full reachability via other core members.
        let cfg = MultiAsTopologyConfig {
            as_count: 15,
            routers_per_as: 6,
            hosts: 40,
            ..MultiAsTopologyConfig::default()
        };
        let m = generate_multi_as_network(&cfg);
        let cores = m.as_graph.core_ases();
        if cores.len() < 3 {
            return;
        }
        let resolver = MultiAsResolver::new(&m, CostMetric::Latency, &cfg);
        let failed = resolver
            .with_failed_adjacencies(&m, &[(cores[0], cores[1])])
            .expect("cores are adjacent");
        assert_eq!(failed.rib().reachability_fraction(), 1.0);
    }
}
