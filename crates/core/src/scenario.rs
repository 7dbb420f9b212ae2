//! Experiment scenarios: the paper's two network worlds (single-AS flat
//! OSPF, multi-AS BGP4+OSPF) at selectable scale, with the paper's
//! workload mix (HTTP background + ScaLapack or GridNPB foreground).
//!
//! Paper scale (Sections 4.2, 5.2.1): 20,000 routers / 10,000 hosts
//! (flat) or 100 AS × 200 routers (multi-AS); 8,000 HTTP clients and
//! 2,000 servers; applications run ~30 minutes. Scaled-down presets keep
//! every ratio (80/20 client/server split, host:router ratio, metro
//! clustering) so the load-balance physics is preserved while running
//! on one machine; `Scale::Paper` reproduces the full sizes.

use massf_engine::{LpId, SimTime};
use massf_netsim::{AbortReason, AppLogic, FlowId, NetEvent, SimApi};
use massf_routing::{CostMetric, FlatResolver, MultiAsResolver, PathResolver};
use massf_topology::{
    generate_flat_network, generate_multi_as_network, FlatTopologyConfig, MultiAsTopologyConfig,
    Network, NodeId,
};
use massf_workloads::{
    helical_chain, mixed_bag, visualization_pipeline, HttpConfig, HttpTraffic, Pair, ScaLapackApp,
    ScaLapackConfig, WorkflowApp,
};
use std::sync::Arc;

/// Which network world (paper Section 4 vs Section 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioKind {
    /// Flat 20,000-router network, OSPF shortest-path routing.
    SingleAs,
    /// 100 AS × 200 routers, BGP4 policy + OSPF routing.
    MultiAs,
}

/// Experiment scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Unit-test size (seconds to run).
    Tiny,
    /// Default figure-regeneration size (minutes on one core).
    Small,
    /// Closer to the paper (tens of minutes).
    Medium,
    /// The paper's full size (20k routers / 100 AS).
    Paper,
}

impl Scale {
    /// Flat-network generator config at this scale.
    pub fn flat_config(self, seed: u64) -> FlatTopologyConfig {
        // Metro counts keep the paper's cluster:engine granularity: a
        // 90-engine mapping needs well over 90 geographic clusters
        // separable at ≥ sync-cost latency, as the real 20,000-router
        // network (hundreds of POP metros) provides.
        let (routers, hosts, metros) = match self {
            Scale::Tiny => (150, 60, 16),
            Scale::Small => (1_000, 500, 150),
            Scale::Medium => (4_000, 2_000, 300),
            Scale::Paper => (20_000, 10_000, 600),
        };
        FlatTopologyConfig {
            routers,
            hosts,
            metro_count: metros,
            seed,
        }
    }

    /// Multi-AS generator config at this scale.
    pub fn multi_as_config(self, seed: u64) -> MultiAsTopologyConfig {
        // The 100-AS structure is preserved from Small upward (the AS
        // count, not the per-AS size, is what shapes BGP routing and the
        // partitioning granularity).
        let (ases, per_as, hosts) = match self {
            Scale::Tiny => (8, 20, 60),
            Scale::Small => (100, 10, 500),
            Scale::Medium => (100, 50, 2_000),
            Scale::Paper => (100, 200, 10_000),
        };
        MultiAsTopologyConfig {
            as_count: ases,
            routers_per_as: per_as,
            hosts,
            seed,
        }
    }

    /// Virtual duration of the measured run (the paper's applications
    /// run ~30 virtual minutes; scaled presets shorten this).
    pub fn run_duration(self) -> SimTime {
        match self {
            Scale::Tiny => SimTime::from_secs(5),
            Scale::Small => SimTime::from_secs(15),
            Scale::Medium => SimTime::from_secs(30),
            Scale::Paper => SimTime::from_secs(120),
        }
    }

    /// Mean HTTP request gap (paper: 5 s; shortened with duration so
    /// each client issues a comparable number of requests).
    pub fn http_gap(self) -> SimTime {
        match self {
            Scale::Tiny => SimTime::from_ms(800),
            Scale::Small => SimTime::from_secs(2),
            Scale::Medium => SimTime::from_secs(3),
            Scale::Paper => SimTime::from_secs(5),
        }
    }
}

/// Which foreground application (the paper evaluates both).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadKind {
    ScaLapack,
    /// HC + VP + MB combination, as in the paper.
    GridNpb,
}

impl WorkloadKind {
    /// Figure label.
    pub fn label(self) -> &'static str {
        match self {
            WorkloadKind::ScaLapack => "ScaLapack",
            WorkloadKind::GridNpb => "GridNPB",
        }
    }
}

/// The foreground application union (concrete type for composition).
#[derive(Clone)]
pub enum Foreground {
    ScaLapack(ScaLapackApp),
    /// The HC, VP and MB workflows, called in that order.
    GridNpb(Pair<WorkflowApp, Pair<WorkflowApp, WorkflowApp>>),
}

impl Foreground {
    /// The application every callback goes to.
    fn app(&mut self) -> &mut dyn AppLogic {
        match self {
            Foreground::ScaLapack(a) => a,
            Foreground::GridNpb(a) => a,
        }
    }
}

impl AppLogic for Foreground {
    fn on_flow_complete(&mut self, host: NodeId, flow: FlowId, api: &mut SimApi<'_, '_>) {
        self.app().on_flow_complete(host, flow, api);
    }

    fn on_timer(&mut self, host: NodeId, token: u64, api: &mut SimApi<'_, '_>) {
        self.app().on_timer(host, token, api);
    }

    fn on_datagram(
        &mut self,
        host: NodeId,
        from: FlowId,
        bytes: u32,
        meta: u64,
        api: &mut SimApi<'_, '_>,
    ) {
        self.app().on_datagram(host, from, bytes, meta, api);
    }

    fn on_flow_aborted(
        &mut self,
        host: NodeId,
        flow: FlowId,
        reason: AbortReason,
        api: &mut SimApi<'_, '_>,
    ) {
        self.app().on_flow_aborted(host, flow, reason, api);
    }

    fn on_fluid_complete(
        &mut self,
        src: NodeId,
        flow: FlowId,
        dst: NodeId,
        api: &mut SimApi<'_, '_>,
    ) {
        self.app().on_fluid_complete(src, flow, dst, api);
    }

    fn on_fluid_aborted(
        &mut self,
        src: NodeId,
        flow: FlowId,
        dst: NodeId,
        api: &mut SimApi<'_, '_>,
    ) {
        self.app().on_fluid_aborted(src, flow, dst, api);
    }
}

/// The workload mix used by every paper experiment.
pub type ScenarioApp = Pair<HttpTraffic, Foreground>;

/// A fully built experiment world.
pub struct Scenario {
    pub kind: ScenarioKind,
    pub scale: Scale,
    pub workload: WorkloadKind,
    pub seed: u64,
    pub net: Network,
    pub resolver: Arc<dyn PathResolver>,
    /// HTTP background clients (80% of hosts, as in the paper's
    /// 8,000 : 2,000 split).
    pub clients: Vec<NodeId>,
    /// HTTP background servers.
    pub servers: Vec<NodeId>,
    /// Hosts running the foreground Grid application (the paper uses 7
    /// dedicated application nodes; we reserve 8–16 hosts).
    pub app_hosts: Vec<NodeId>,
}

const NS_HTTP: u8 = 0;
const NS_APP: u8 = 1;
const NS_APP2: u8 = 2;
const NS_APP3: u8 = 3;

impl Scenario {
    /// Generate the network and role assignments.
    pub fn build(kind: ScenarioKind, scale: Scale, workload: WorkloadKind, seed: u64) -> Scenario {
        let (net, resolver): (Network, Arc<dyn PathResolver>) = match kind {
            ScenarioKind::SingleAs => {
                let net = generate_flat_network(&scale.flat_config(seed));
                let resolver = Arc::new(FlatResolver::new(&net, CostMetric::Latency));
                (net, resolver)
            }
            ScenarioKind::MultiAs => {
                let cfg = scale.multi_as_config(seed);
                let m = generate_multi_as_network(&cfg);
                let resolver = Arc::new(MultiAsResolver::new(&m, CostMetric::Latency, &cfg));
                (m.network, resolver)
            }
        };
        let hosts = net.host_ids();
        assert!(hosts.len() >= 16, "scenario needs at least 16 hosts");
        // App hosts come off the tail; remaining hosts split 80/20.
        // At least 9 so the three GridNPB workflows get ≥ 3 hosts each.
        let app_count = (hosts.len() / 16).clamp(9, 16);
        let (rest, app_hosts) = hosts.split_at(hosts.len() - app_count);
        let split = rest.len() * 4 / 5;
        let (clients, servers) = rest.split_at(split);
        Scenario {
            kind,
            scale,
            workload,
            seed,
            net,
            resolver,
            clients: clients.to_vec(),
            servers: servers.to_vec(),
            app_hosts: app_hosts.to_vec(),
        }
    }

    /// Build fresh application logic plus its initial events; called
    /// once per run (profiling run, measured run, parallel run, …).
    pub fn make_app(&self) -> (ScenarioApp, Vec<(SimTime, LpId, NetEvent)>) {
        let mut http_cfg =
            HttpConfig::paper(self.clients.clone(), self.servers.clone(), self.seed ^ 0xBB);
        http_cfg.mean_gap = self.scale.http_gap();
        let http = HttpTraffic::new(http_cfg, NS_HTTP);
        let mut events = http.initial_events();

        let fg = match self.workload {
            WorkloadKind::ScaLapack => {
                let n = self.app_hosts.len().min(16);
                let cols = if n >= 8 { 4 } else { 2 };
                let n = n - n % cols;
                // Run for the whole simulation: iterations effectively
                // unbounded.
                let cfg = ScaLapackConfig::new(self.app_hosts[..n].to_vec(), cols, 10_000);
                let app = ScaLapackApp::new(cfg, NS_APP);
                events.extend(app.initial_events());
                Foreground::ScaLapack(app)
            }
            WorkloadKind::GridNpb => {
                let hosts = &self.app_hosts;
                let third = hosts.len() / 3;
                debug_assert!(third >= 3);
                let compute = SimTime::from_ms(400);
                let hc = WorkflowApp::new(
                    helical_chain(hosts[..third].to_vec(), 12, 150_000, compute),
                    NS_APP,
                );
                let vp = WorkflowApp::new(
                    visualization_pipeline(hosts[third..2 * third].to_vec(), 12, 150_000, compute),
                    NS_APP2,
                );
                let mb = WorkflowApp::new(
                    mixed_bag(hosts[2 * third..].to_vec(), 12, 100_000, compute),
                    NS_APP3,
                );
                events.extend(hc.initial_events());
                events.extend(vp.initial_events());
                events.extend(mb.initial_events());
                Foreground::GridNpb(Pair::new(hc, Pair::new(vp, mb)))
            }
        };
        (Pair::new(http, fg), events)
    }

    /// A naive initial partition for profiling runs (round-robin over
    /// nodes — the "naive initial partition" of Section 3.3).
    pub fn naive_partition(&self, engines: usize) -> Vec<u32> {
        (0..self.net.node_count())
            .map(|i| (i % engines) as u32)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_as_scenario_builds() {
        let s = Scenario::build(
            ScenarioKind::SingleAs,
            Scale::Tiny,
            WorkloadKind::ScaLapack,
            1,
        );
        assert!(s.net.router_count() >= 100);
        assert!(!s.clients.is_empty() && !s.servers.is_empty());
        assert!(s.app_hosts.len() >= 9);
        // Roles are disjoint.
        for c in &s.clients {
            assert!(!s.servers.contains(c));
            assert!(!s.app_hosts.contains(c));
        }
        // ~80/20 split.
        let ratio = s.clients.len() as f64 / (s.clients.len() + s.servers.len()) as f64;
        assert!((0.75..0.85).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn multi_as_scenario_builds() {
        let s = Scenario::build(ScenarioKind::MultiAs, Scale::Tiny, WorkloadKind::GridNpb, 2);
        assert!(s.net.as_ids().len() >= 2);
        let (_, events) = s.make_app();
        assert!(!events.is_empty());
    }

    #[test]
    fn make_app_is_repeatable() {
        let s = Scenario::build(
            ScenarioKind::SingleAs,
            Scale::Tiny,
            WorkloadKind::ScaLapack,
            3,
        );
        let (_, e1) = s.make_app();
        let (_, e2) = s.make_app();
        assert_eq!(e1.len(), e2.len());
        for (a, b) in e1.iter().zip(&e2) {
            assert_eq!(a.0, b.0);
            assert_eq!(a.1, b.1);
        }
    }

    #[test]
    fn naive_partition_round_robins() {
        let s = Scenario::build(
            ScenarioKind::SingleAs,
            Scale::Tiny,
            WorkloadKind::ScaLapack,
            4,
        );
        let p = s.naive_partition(7);
        assert_eq!(p.len(), s.net.node_count());
        assert!(p.iter().all(|&x| x < 7));
        assert_eq!(p[0], 0);
        assert_eq!(p[8], 1);
    }

    #[test]
    fn paper_scale_configs_match_paper() {
        // Sections 4.2 and 5.2.1: 20,000 routers and 10,000 hosts over
        // a 5000 mi × 5000 mi area; 100 AS × 200 routers.
        let f = Scale::Paper.flat_config(0);
        assert_eq!((f.routers, f.hosts, f.metro_count), (20_000, 10_000, 600));
        assert_eq!(massf_topology::config::AREA_MILES, 5_000.0);
        let m = Scale::Paper.multi_as_config(0);
        assert_eq!((m.as_count, m.routers_per_as, m.hosts), (100, 200, 10_000));
        assert_eq!(Scale::Paper.http_gap(), SimTime::from_secs(5));
    }
}
