//! The compiled fault timeline: versioned epochs with lazily
//! reconverged per-epoch routing.

use crate::script::{FaultKind, FaultScript};
use massf_engine::SimTime;
use massf_routing::{
    CostMetric, FlatResolver, MultiAsResolver, OspfDomain, PathResolver, SptStats,
};
use massf_topology::mabrite::MultiAsNetwork;
use massf_topology::{LinkId, MassfError, MultiAsTopologyConfig, Network, NodeId};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// The network's failure state during one epoch (the interval between
/// two consecutive fault times). The `version` is the epoch index —
/// `SharedNet` consumers can cheaply compare versions to detect that
/// routing changed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EpochState {
    /// Epoch index (0 = the fault-free prefix of the run).
    pub version: u32,
    /// Dead link ids, sorted.
    pub dead_links: Vec<u32>,
    /// Dead node ids, sorted.
    pub dead_nodes: Vec<u32>,
    /// Dead AS adjacencies as normalized `(min, max)` pairs, sorted.
    pub dead_adjacencies: Vec<(u16, u16)>,
}

impl EpochState {
    /// No faults at all?
    pub fn is_clean(&self) -> bool {
        self.dead_links.is_empty() && self.dead_nodes.is_empty() && self.dead_adjacencies.is_empty()
    }
}

type ResolverFactory = dyn Fn(&EpochState) -> Arc<dyn PathResolver> + Send + Sync;

/// A [`FaultScript`] compiled against a network: per-entity up/down
/// timelines for O(log f) liveness queries on the packet hot path, and
/// one lazily built [`PathResolver`] per epoch ("online reconvergence").
///
/// Every query is a pure function of virtual time, never of wall-clock
/// or thread interleaving, which preserves the engine's bit-identical
/// parallel execution. Epoch resolvers are built at most once (behind
/// `OnceLock`s) by whichever partition enters that epoch first, its
/// shortest-path trees by whichever first needs one; every *answer* is
/// a pure function of the epoch, so who builds what cannot matter.
pub struct FaultState {
    script: FaultScript,
    /// Start time of epoch `e + 1` (epoch 0 starts at time zero).
    epoch_starts: Vec<SimTime>,
    /// Failure state per epoch; `epochs[0]` is clean.
    epochs: Vec<EpochState>,
    /// Per-link transitions `(time, up_after)`, only for faulted links.
    link_transitions: BTreeMap<u32, Vec<(SimTime, bool)>>,
    /// Per-node transitions `(time, up_after)`, only for crashed nodes.
    node_transitions: BTreeMap<u32, Vec<(SimTime, bool)>>,
    resolvers: Vec<OnceLock<Arc<dyn PathResolver>>>,
    factory: Box<ResolverFactory>,
    /// Epochs entered after epoch 0: the online reconvergence episodes
    /// of this run (episodes, not routing tables built).
    reconvergences: AtomicUsize,
}

impl FaultState {
    /// Compile `script` against `net`. `base` serves epoch 0 (the
    /// fault-free prefix); `factory` builds the resolver of any later
    /// epoch from its [`EpochState`]. Prefer [`FaultState::flat`] /
    /// [`FaultState::multi_as`] unless you need custom routing.
    pub fn with_factory(
        net: &Network,
        script: FaultScript,
        base: Arc<dyn PathResolver>,
        factory: Box<ResolverFactory>,
    ) -> Result<Arc<Self>, MassfError> {
        Self::with_factory_and_adjacency_map(net, script, base, factory, |_| None)
    }

    /// Like [`FaultState::with_factory`], additionally translating
    /// faults of inter-AS links into adjacency failures via `adj_of`
    /// (returns the AS pair a link connects, `None` for intra-AS links).
    fn with_factory_and_adjacency_map(
        net: &Network,
        script: FaultScript,
        base: Arc<dyn PathResolver>,
        factory: Box<ResolverFactory>,
        adj_of: impl Fn(LinkId) -> Option<(u16, u16)>,
    ) -> Result<Arc<Self>, MassfError> {
        script.validate(net)?;
        let sorted = script.sorted_events();

        // Distinct fault times = epoch boundaries.
        let mut epoch_starts: Vec<SimTime> = sorted.iter().map(|e| e.at).collect();
        epoch_starts.dedup();

        // Walk the timeline accumulating the dead sets per epoch.
        // Adjacencies are reference-counted: two parallel inter-AS links
        // both failing must not flip the adjacency back up when only one
        // recovers. Ordered collections so the epoch snapshots below
        // come out sorted without a post-hoc sort (hash iteration would
        // trip clippy's `disallowed_methods` even with the sort, and rightly: the sorted
        // result hides that intermediate order was hasher-dependent).
        let mut dead_links: BTreeSet<u32> = BTreeSet::new();
        let mut dead_nodes: BTreeSet<u32> = BTreeSet::new();
        let mut adj_down: BTreeMap<(u16, u16), i32> = BTreeMap::new();
        let mut link_transitions: BTreeMap<u32, Vec<(SimTime, bool)>> = BTreeMap::new();
        let mut node_transitions: BTreeMap<u32, Vec<(SimTime, bool)>> = BTreeMap::new();
        let mut epochs = vec![EpochState::default()];
        let mut cursor = 0usize;
        for &start in &epoch_starts {
            while cursor < sorted.len() && sorted[cursor].at == start {
                let e = sorted[cursor];
                cursor += 1;
                let mut adj_delta = |pair: Option<(u16, u16)>, fail: bool| {
                    if let Some((a, b)) = pair {
                        let key = (a.min(b), a.max(b));
                        *adj_down.entry(key).or_insert(0) += if fail { 1 } else { -1 };
                    }
                };
                match e.kind {
                    FaultKind::LinkDown(l) => {
                        dead_links.insert(l.0);
                        link_transitions.entry(l.0).or_default().push((e.at, false));
                        adj_delta(adj_of(l), true);
                    }
                    FaultKind::LinkUp(l) => {
                        dead_links.remove(&l.0);
                        link_transitions.entry(l.0).or_default().push((e.at, true));
                        adj_delta(adj_of(l), false);
                    }
                    FaultKind::RouterCrash(n) => {
                        dead_nodes.insert(n.0);
                        node_transitions.entry(n.0).or_default().push((e.at, false));
                    }
                    FaultKind::RouterRecover(n) => {
                        dead_nodes.remove(&n.0);
                        node_transitions.entry(n.0).or_default().push((e.at, true));
                    }
                    FaultKind::AsAdjacencyFail { as_a, as_b } => {
                        adj_delta(Some((as_a, as_b)), true);
                    }
                    FaultKind::AsAdjacencyRestore { as_a, as_b } => {
                        adj_delta(Some((as_a, as_b)), false);
                    }
                }
            }
            // BTree iteration is already ascending: the EpochState
            // fields' "sorted" contract holds by construction.
            epochs.push(EpochState {
                version: epochs.len() as u32,
                dead_links: dead_links.iter().copied().collect(),
                dead_nodes: dead_nodes.iter().copied().collect(),
                dead_adjacencies: adj_down
                    .iter()
                    .filter(|&(_, &c)| c > 0)
                    .map(|(&k, _)| k)
                    .collect(),
            });
        }

        let resolvers: Vec<OnceLock<Arc<dyn PathResolver>>> =
            (0..epochs.len()).map(|_| OnceLock::new()).collect();
        resolvers[0]
            .set(base)
            .unwrap_or_else(|_| unreachable!("fresh OnceLock"));
        Ok(Arc::new(FaultState {
            script,
            epoch_starts,
            epochs,
            link_transitions,
            node_transitions,
            resolvers,
            factory,
            reconvergences: AtomicUsize::new(0),
        }))
    }

    /// Compile `script` for a flat single-AS world. Entering a faulty
    /// epoch builds only the OSPF domain with dead links and dead nodes'
    /// links filtered out; an SPT is computed the first time the epoch
    /// routes between two routers neither of whose trees can answer, and
    /// kept like every domain's trees. A clean epoch *is* the
    /// base network: it shares `base`.
    pub fn flat(
        net: &Network,
        metric: CostMetric,
        script: FaultScript,
    ) -> Result<Arc<Self>, MassfError> {
        let base: Arc<dyn PathResolver> = Arc::new(FlatResolver::new(net, metric));
        let base_for_factory = base.clone();
        let owned = Arc::new(net.clone());
        let factory = Box::new(move |epoch: &EpochState| -> Arc<dyn PathResolver> {
            if epoch.is_clean() {
                return base_for_factory.clone();
            }
            let members: Vec<NodeId> = owned.nodes.iter().map(|n| n.id).collect();
            let dead_links = &epoch.dead_links;
            let dead_nodes = &epoch.dead_nodes;
            let domain = OspfDomain::with_link_filter(&owned, members, metric, |l| {
                dead_links.binary_search(&l.id.0).is_err()
                    && dead_nodes.binary_search(&l.a.0).is_err()
                    && dead_nodes.binary_search(&l.b.0).is_err()
            });
            Arc::new(FlatResolver::from_domain(domain))
        });
        Self::with_factory(net, script, base, factory)
    }

    /// Compile `script` for a multi-AS world. AS-adjacency faults (and
    /// faults of inter-AS links, which take their adjacency down) make
    /// BGP re-converge on the reduced AS graph with stub failover
    /// (`MultiAsResolver::with_failed_adjacencies`). Intra-AS link and
    /// router faults drop packets but do not recompute intra-AS OSPF —
    /// a documented modeling simplification (DESIGN.md §3.9).
    pub fn multi_as(
        m: &MultiAsNetwork,
        metric: CostMetric,
        script: FaultScript,
    ) -> Result<Arc<Self>, MassfError> {
        // Reject adjacency events that do not exist in the AS graph up
        // front, so the factory below cannot fail at simulation time.
        for e in script.events() {
            if let FaultKind::AsAdjacencyFail { as_a, as_b }
            | FaultKind::AsAdjacencyRestore { as_a, as_b } = e.kind
            {
                let adjacent = as_a != as_b
                    && m.as_graph
                        .neighbors(as_a as usize)
                        .any(|(b, _)| b == as_b as usize);
                if !adjacent {
                    return Err(MassfError::NotAdjacent {
                        as_a: as_a as usize,
                        as_b: as_b as usize,
                    });
                }
            }
        }
        // The resolver reads nothing from the generator config.
        let base_typed = Arc::new(MultiAsResolver::new(
            m,
            metric,
            &MultiAsTopologyConfig::default(),
        ));
        let base: Arc<dyn PathResolver> = base_typed.clone();
        let base_for_factory: Arc<dyn PathResolver> = base_typed.clone();
        let owned = Arc::new(m.clone());
        let as_of: Vec<u16> = m.network.nodes.iter().map(|n| n.as_id.0).collect();
        let factory = Box::new(move |epoch: &EpochState| -> Arc<dyn PathResolver> {
            if epoch.dead_adjacencies.is_empty() {
                // Only intra-AS faults: inter-domain routing unchanged.
                return base_for_factory.clone();
            }
            let fails: Vec<(usize, usize)> = epoch
                .dead_adjacencies
                .iter()
                .map(|&(a, b)| (a as usize, b as usize))
                .collect();
            match base_typed.with_failed_adjacencies(&owned, &fails) {
                Ok(r) => Arc::new(r),
                // Unreachable: adjacency events were validated above and
                // distinct edges stay removable in any order.
                Err(_) => base_for_factory.clone(),
            }
        });
        let net = &m.network;
        Self::with_factory_and_adjacency_map(net, script, base, factory, move |l: LinkId| {
            let link = &m.network.links[l.index()];
            link.inter_as
                .then(|| (as_of[link.a.index()], as_of[link.b.index()]))
        })
    }

    /// The source script.
    pub fn script(&self) -> &FaultScript {
        &self.script
    }

    /// Number of epochs (fault-free prefix included).
    pub fn epoch_count(&self) -> usize {
        self.epochs.len()
    }

    /// The epoch index in force at `t`. A fault scheduled at `t` is
    /// already in force at `t` (fault events sort before same-time
    /// packet deliveries only by LP/tag order; state flips are
    /// time-based so ordering among same-time events cannot matter).
    pub fn epoch_at(&self, t: SimTime) -> usize {
        self.epoch_starts.partition_point(|&s| s <= t)
    }

    /// The failure state of epoch `e`.
    pub fn epoch_state(&self, e: usize) -> &EpochState {
        &self.epochs[e]
    }

    /// The start time of epoch `e` (`SimTime::ZERO` for epoch 0).
    pub fn epoch_start(&self, e: usize) -> SimTime {
        if e == 0 {
            SimTime::ZERO
        } else {
            self.epoch_starts[e - 1]
        }
    }

    /// Is `link` up at `t`? Non-faulted links answer without a search.
    pub fn is_link_up(&self, link: LinkId, t: SimTime) -> bool {
        match self.link_transitions.get(&link.0) {
            None => true,
            Some(ts) => last_state(ts, t),
        }
    }

    /// Is `node` up at `t`?
    pub fn is_node_up(&self, node: NodeId, t: SimTime) -> bool {
        match self.node_transitions.get(&node.0) {
            None => true,
            Some(ts) => last_state(ts, t),
        }
    }

    /// The routing resolver in force at `t`, reconverging (building the
    /// epoch's resolver) on first use.
    pub fn resolver_at(&self, t: SimTime) -> &Arc<dyn PathResolver> {
        self.resolver_for_epoch(self.epoch_at(t))
    }

    /// The resolver of epoch `e`, building it on first use.
    pub fn resolver_for_epoch(&self, e: usize) -> &Arc<dyn PathResolver> {
        self.resolvers[e].get_or_init(|| {
            self.reconvergences.fetch_add(1, Ordering::Relaxed);
            (self.factory)(&self.epochs[e])
        })
    }

    /// Shortest-path-tree counters of epoch `e`'s resolver — `None` if
    /// the run never entered the epoch (asking does not enter it) or the
    /// resolver is not a single OSPF domain. Host-side diagnostic only.
    pub fn epoch_spt_stats(&self, e: usize) -> Option<SptStats> {
        self.resolvers[e].get()?.spt_stats()
    }

    /// Enter the epoch in force at `t` (the fault event handler calls
    /// this so the epoch's link-state view / BGP RIB is paid for at
    /// fault time; shortest-path trees still wait for their first route).
    pub fn reconverge_at(&self, t: SimTime) {
        self.resolver_for_epoch(self.epoch_at(t));
    }

    /// Online reconvergence episodes so far: epochs after the first
    /// that the run entered. Deterministic at end of run — the *set* of
    /// epochs entered does not depend on thread count.
    pub fn reconvergence_count(&self) -> usize {
        self.reconvergences.load(Ordering::Relaxed)
    }
}

/// Last recorded up/down state at or before `t`; `true` before the
/// first transition.
fn last_state(transitions: &[(SimTime, bool)], t: SimTime) -> bool {
    let idx = transitions.partition_point(|&(at, _)| at <= t);
    if idx == 0 {
        true
    } else {
        transitions[idx - 1].1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use massf_topology::{AsId, NodeKind, Point};

    /// Diamond with hosts: ha - r0 - r1 - hb, plus detour r0 - r2 - r1.
    /// Primary r0-r1 is cheap (1 ms); detour is 3 ms per leg.
    fn diamond_hosts() -> (Network, Vec<NodeId>) {
        let mut net = Network::new();
        let ha = net.add_node(NodeKind::Host, Point::new(0.0, 0.0), AsId(0));
        let r0 = net.add_node(NodeKind::Router, Point::new(1.0, 0.0), AsId(0));
        let r1 = net.add_node(NodeKind::Router, Point::new(2.0, 0.0), AsId(0));
        let r2 = net.add_node(NodeKind::Router, Point::new(1.5, 1.0), AsId(0));
        let hb = net.add_node(NodeKind::Host, Point::new(3.0, 0.0), AsId(0));
        net.add_link(ha, r0, 1e9, 0.1);
        net.add_link(r0, r1, 1e9, 1.0); // primary
        net.add_link(r0, r2, 1e9, 3.0); // detour
        net.add_link(r2, r1, 1e9, 3.0);
        net.add_link(r1, hb, 1e9, 0.1);
        (net, vec![ha, r0, r1, r2, hb])
    }

    fn primary_link(net: &Network, a: NodeId, b: NodeId) -> LinkId {
        net.links
            .iter()
            .find(|l| (l.a, l.b) == (a, b) || (l.a, l.b) == (b, a))
            .expect("link exists")
            .id
    }

    #[test]
    fn epochs_and_liveness_windows() {
        let (net, ids) = diamond_hosts();
        let l = primary_link(&net, ids[1], ids[2]);
        let mut script = FaultScript::new();
        script.link_down(SimTime::from_ms(100), l);
        script.link_up(SimTime::from_ms(200), l);
        let fs = FaultState::flat(&net, CostMetric::Latency, script).expect("valid script");

        assert_eq!(fs.epoch_count(), 3);
        assert_eq!(fs.epoch_at(SimTime::from_ms(50)), 0);
        assert_eq!(fs.epoch_at(SimTime::from_ms(100)), 1, "fault applies at T");
        assert_eq!(fs.epoch_at(SimTime::from_ms(150)), 1);
        assert_eq!(fs.epoch_at(SimTime::from_ms(200)), 2);
        assert_eq!(fs.epoch_start(0), SimTime::ZERO);
        assert_eq!(fs.epoch_start(1), SimTime::from_ms(100));

        assert!(fs.is_link_up(l, SimTime::from_ms(99)));
        assert!(!fs.is_link_up(l, SimTime::from_ms(100)));
        assert!(!fs.is_link_up(l, SimTime::from_ms(199)));
        assert!(fs.is_link_up(l, SimTime::from_ms(200)));
        // Unfaulted entities are always up.
        assert!(fs.is_link_up(LinkId(0), SimTime::from_ms(150)));
        assert!(fs.is_node_up(ids[1], SimTime::from_ms(150)));

        assert!(fs.epoch_state(1).dead_links.contains(&l.0));
        assert!(fs.epoch_state(2).is_clean());
    }

    #[test]
    fn flat_reconvergence_reroutes_and_restores() {
        let (net, ids) = diamond_hosts();
        let (ha, r0, r1, r2, hb) = (ids[0], ids[1], ids[2], ids[3], ids[4]);
        let l = primary_link(&net, r0, r1);
        let mut script = FaultScript::new();
        script.link_down(SimTime::from_ms(100), l);
        script.link_up(SimTime::from_ms(200), l);
        let fs = FaultState::flat(&net, CostMetric::Latency, script).expect("valid script");

        let pre = fs
            .resolver_at(SimTime::from_ms(10))
            .route(ha, hb)
            .expect("reachable before fault");
        let during = fs
            .resolver_at(SimTime::from_ms(150))
            .route(ha, hb)
            .expect("detour exists");
        let after = fs
            .resolver_at(SimTime::from_ms(250))
            .route(ha, hb)
            .expect("reachable after recovery");
        assert_eq!(pre, vec![ha, r0, r1, hb]);
        assert_eq!(during, vec![ha, r0, r2, r1, hb], "must take the detour");
        assert_eq!(after, pre, "recovery restores the primary path");
        assert_ne!(pre, during, "pre-fault path differs from post-fault path");
        assert!(
            Arc::ptr_eq(
                fs.resolver_at(SimTime::from_ms(10)),
                fs.resolver_at(SimTime::from_ms(250))
            ),
            "a clean epoch is the base network, not a second copy of it"
        );
        assert_eq!(fs.reconvergence_count(), 2, "one episode per epoch entered");
    }

    #[test]
    fn crashed_router_filtered_from_routing() {
        let (net, ids) = diamond_hosts();
        let (ha, r2, hb) = (ids[0], ids[3], ids[4]);
        let mut script = FaultScript::new();
        script.router_crash(SimTime::from_ms(50), r2);
        let fs = FaultState::flat(&net, CostMetric::Latency, script).expect("valid script");
        // r2 dead: only the primary path remains.
        let during = fs
            .resolver_at(SimTime::from_ms(60))
            .route(ha, hb)
            .expect("primary path still up");
        assert!(
            !during.contains(&r2),
            "dead router must not be routed through"
        );
        assert!(!fs.is_node_up(r2, SimTime::from_ms(60)));
    }

    #[test]
    fn total_cut_yields_unroutable() {
        let (net, ids) = diamond_hosts();
        let (ha, r0, r1, r2, hb) = (ids[0], ids[1], ids[2], ids[3], ids[4]);
        let mut script = FaultScript::new();
        script.link_down(SimTime::from_ms(10), primary_link(&net, r0, r1));
        script.router_crash(SimTime::from_ms(10), r2);
        let fs = FaultState::flat(&net, CostMetric::Latency, script).expect("valid script");
        assert!(fs.resolver_at(SimTime::from_ms(20)).route(ha, hb).is_none());
    }

    #[test]
    fn resolver_at_is_idempotent_and_shared() {
        let (net, ids) = diamond_hosts();
        let l = primary_link(&net, ids[1], ids[2]);
        let mut script = FaultScript::new();
        script.link_down(SimTime::from_ms(100), l);
        let fs = FaultState::flat(&net, CostMetric::Latency, script).expect("valid script");
        let a = fs.resolver_at(SimTime::from_ms(150));
        let b = fs.resolver_at(SimTime::from_ms(999));
        assert!(Arc::ptr_eq(a, b), "same epoch → same resolver instance");
        assert_eq!(fs.reconvergence_count(), 1);
        fs.reconverge_at(SimTime::from_ms(150));
        assert_eq!(fs.reconvergence_count(), 1, "idempotent");
    }

    #[test]
    fn invalid_script_rejected_at_compile() {
        let (net, _) = diamond_hosts();
        let mut script = FaultScript::new();
        script.link_down(SimTime::from_ms(1), LinkId(999));
        assert!(FaultState::flat(&net, CostMetric::Latency, script).is_err());
    }

    mod multi_as {
        use super::*;
        use massf_topology::{generate_multi_as_network, MultiAsTopologyConfig};

        #[test]
        fn adjacency_fault_reconverges_bgp() {
            let cfg = MultiAsTopologyConfig::tiny();
            let m = generate_multi_as_network(&cfg);
            let (a, b) = (0..m.as_graph.n)
                .find_map(|a| m.as_graph.neighbors(a).next().map(|(b, _)| (a, b)))
                .expect("AS graph has edges");
            let mut script = FaultScript::new();
            script.adjacency_fail(SimTime::from_ms(100), a as u16, b as u16);
            let fs = FaultState::multi_as(&m, CostMetric::Latency, script).expect("valid script");
            let pre = fs.resolver_at(SimTime::ZERO);
            let during = fs.resolver_at(SimTime::from_ms(100));
            assert!(
                !Arc::ptr_eq(pre, during),
                "adjacency fault must swap in a reconverged resolver"
            );
            // Routing still works (or cleanly reports unreachable) for
            // every host pair.
            let hosts = m.network.host_ids();
            for i in 0..hosts.len().min(6) {
                for j in (i + 1)..hosts.len().min(6) {
                    let _ = during.route(hosts[i], hosts[j]);
                }
            }
        }

        #[test]
        fn intra_as_fault_keeps_bgp_resolver() {
            let cfg = MultiAsTopologyConfig::tiny();
            let m = generate_multi_as_network(&cfg);
            let intra = m
                .network
                .links
                .iter()
                .find(|l| !l.inter_as)
                .expect("multi-AS nets have intra-AS links")
                .id;
            let mut script = FaultScript::new();
            script.link_down(SimTime::from_ms(100), intra);
            let fs = FaultState::multi_as(&m, CostMetric::Latency, script).expect("valid script");
            assert!(Arc::ptr_eq(
                fs.resolver_at(SimTime::ZERO),
                fs.resolver_at(SimTime::from_ms(100))
            ));
            assert!(!fs.is_link_up(intra, SimTime::from_ms(100)));
        }

        #[test]
        fn inter_as_link_fault_takes_adjacency_down() {
            let cfg = MultiAsTopologyConfig::tiny();
            let m = generate_multi_as_network(&cfg);
            let inter = m
                .network
                .links
                .iter()
                .find(|l| l.inter_as)
                .expect("multi-AS nets have inter-AS links");
            let mut script = FaultScript::new();
            script.link_down(SimTime::from_ms(100), inter.id);
            let fs = FaultState::multi_as(&m, CostMetric::Latency, script).expect("valid script");
            let e = fs.epoch_state(1);
            assert_eq!(e.dead_adjacencies.len(), 1);
            assert!(
                !Arc::ptr_eq(
                    fs.resolver_at(SimTime::ZERO),
                    fs.resolver_at(SimTime::from_ms(100))
                ),
                "inter-AS link fault must reconverge BGP"
            );
        }

        #[test]
        fn unknown_adjacency_rejected() {
            let cfg = MultiAsTopologyConfig::tiny();
            let m = generate_multi_as_network(&cfg);
            let mut script = FaultScript::new();
            script.adjacency_fail(SimTime::from_ms(1), 0, 0);
            assert!(matches!(
                FaultState::multi_as(&m, CostMetric::Latency, script),
                Err(MassfError::NotAdjacent { .. })
            ));
        }
    }
}
