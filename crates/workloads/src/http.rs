//! HTTP background traffic (paper Sections 4.2 / 5.2.1).
//!
//! Clients send a small request datagram to a uniformly chosen server at
//! exponentially distributed intervals (mean 5 s); the server answers
//! with a TCP transfer whose size is exponential with mean 50 kB. The
//! request/response split matters for load balance: response bytes flow
//! server→client, concentrating transmit load near the 2,000 servers.

use crate::rng::{exp_sample, HostRngs};
use crate::{tag, untag};
use massf_engine::{LpId, SimTime};
use massf_netsim::{AppLogic, FlowId, NetEvent, SimApi};
use massf_topology::NodeId;
use rand::Rng;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Mean response size in bytes (paper: 50 kB).
pub const MEAN_FILE_BYTES: f64 = 50_000.0;
/// Request datagram payload, bytes.
pub const REQUEST_BYTES: u32 = 300;
/// Lower bound on a sampled response size, bytes.
pub const MIN_FILE_BYTES: u64 = 2_000;
/// Upper bound on a sampled response size, bytes.
pub const MAX_FILE_BYTES: u64 = 500_000;

/// Configuration of the background-traffic generator.
#[derive(Debug, Clone)]
pub struct HttpConfig {
    pub clients: Vec<NodeId>,
    pub servers: Vec<NodeId>,
    /// Mean think time between a client's requests (paper: 5 s).
    pub mean_gap: SimTime,
    /// Workload RNG seed.
    pub seed: u64,
}

impl HttpConfig {
    /// The paper's 5 s mean gap over the given client/server hosts.
    pub fn paper(clients: Vec<NodeId>, servers: Vec<NodeId>, seed: u64) -> Self {
        HttpConfig {
            clients,
            servers,
            mean_gap: SimTime::from_secs(5),
            seed,
        }
    }
}

const TOKEN_REQUEST: u64 = 1;

/// The background-traffic application logic.
#[derive(Clone)]
pub struct HttpTraffic {
    cfg: Arc<HttpConfig>,
    ns: u8,
    rngs: HostRngs,
    server_set: BTreeSet<u32>,
    /// Response flows started by servers of this shard.
    pending: BTreeSet<FlowId>,
    /// Completed response flows.
    pub responses_completed: u64,
    /// Requests issued by clients of this shard.
    pub requests_sent: u64,
}

impl HttpTraffic {
    /// Build with app namespace `ns` (for composition).
    pub fn new(cfg: HttpConfig, ns: u8) -> Self {
        assert!(!cfg.clients.is_empty() && !cfg.servers.is_empty());
        let rngs = HostRngs::new(cfg.seed);
        let server_set = cfg.servers.iter().map(|s| s.0).collect();
        HttpTraffic {
            cfg: Arc::new(cfg),
            ns,
            rngs,
            server_set,
            pending: BTreeSet::new(),
            responses_completed: 0,
            requests_sent: 0,
        }
    }

    /// Initial events: one staggered first-request timer per client.
    /// Offsets are drawn from a derived stream so per-host streams stay
    /// aligned across shard layouts.
    pub fn initial_events(&self) -> Vec<(SimTime, LpId, NetEvent)> {
        let mut rng = self.rngs.derived(0x11_77);
        self.cfg
            .clients
            .iter()
            .map(|&c| {
                let offset =
                    SimTime::from_secs_f64(exp_sample(&mut rng, self.cfg.mean_gap.as_secs_f64()));
                (
                    offset,
                    LpId(c.0),
                    NetEvent::AppTimer {
                        token: tag(self.ns, TOKEN_REQUEST),
                    },
                )
            })
            .collect()
    }

    fn is_server(&self, host: NodeId) -> bool {
        self.server_set.contains(&host.0)
    }
}

impl AppLogic for HttpTraffic {
    fn on_timer(&mut self, host: NodeId, token: u64, api: &mut SimApi<'_, '_>) {
        let (ns, value) = untag(token);
        if ns != self.ns || value != TOKEN_REQUEST {
            return;
        }
        let cfg = self.cfg.clone();
        let rng = self.rngs.get(host);
        // Pick a server (avoid self if the host doubles as a server).
        let mut server = cfg.servers[rng.gen_range(0..cfg.servers.len())];
        if server == host {
            server = cfg.servers[rng.gen_range(0..cfg.servers.len())];
        }
        let gap = SimTime::from_secs_f64(exp_sample(rng, cfg.mean_gap.as_secs_f64()));
        if server != host {
            api.send_datagram(server, REQUEST_BYTES, tag(self.ns, 0));
            self.requests_sent += 1;
        }
        api.set_timer(gap, tag(self.ns, TOKEN_REQUEST));
    }

    fn on_datagram(
        &mut self,
        host: NodeId,
        from_flow: FlowId,
        _payload: u32,
        meta: u64,
        api: &mut SimApi<'_, '_>,
    ) {
        let (ns, _) = untag(meta);
        if ns != self.ns || !self.is_server(host) {
            return;
        }
        let rng = self.rngs.get(host);
        let size = exp_sample(rng, MEAN_FILE_BYTES)
            .round()
            .clamp(MIN_FILE_BYTES as f64, MAX_FILE_BYTES as f64) as u64;
        let client = from_flow.source();
        if let Some(flow) = api.start_tcp_flow(client, size) {
            self.pending.insert(flow);
        }
    }

    fn on_flow_complete(&mut self, _host: NodeId, flow: FlowId, _api: &mut SimApi<'_, '_>) {
        if self.pending.remove(&flow) {
            self.responses_completed += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use massf_netsim::NetSimBuilder;
    use massf_routing::{CostMetric, FlatResolver};
    use massf_topology::{generate_flat_network, FlatTopologyConfig};

    fn setup() -> (NetSimBuilder, HttpTraffic) {
        let net = generate_flat_network(&FlatTopologyConfig::tiny());
        let hosts = net.host_ids();
        let (clients, servers) = hosts.split_at(hosts.len() * 3 / 4);
        let mut cfg = HttpConfig::paper(clients.to_vec(), servers.to_vec(), 42);
        cfg.mean_gap = SimTime::from_ms(500); // denser for a short test
        let resolver = Arc::new(FlatResolver::new(&net, CostMetric::Latency));
        let app = HttpTraffic::new(cfg, 0);
        let mut builder = NetSimBuilder::new(net, resolver);
        builder.add_initial_events(app.initial_events());
        (builder, app)
    }

    #[test]
    fn traffic_flows_and_completes() {
        let (builder, app) = setup();
        let out = builder.run_sequential(app, SimTime::from_secs(10));
        let app = &out.apps[0];
        assert!(app.requests_sent > 20, "requests {}", app.requests_sent);
        assert!(
            app.responses_completed > 10,
            "responses {}",
            app.responses_completed
        );
        assert!(out.profile.total_link_packets() > 1000);
    }

    #[test]
    fn deterministic_across_runs() {
        let (b1, a1) = setup();
        let (b2, a2) = setup();
        let o1 = b1.run_sequential(a1, SimTime::from_secs(5));
        let o2 = b2.run_sequential(a2, SimTime::from_secs(5));
        assert_eq!(o1.stats.total_events, o2.stats.total_events);
        assert_eq!(o1.profile, o2.profile);
    }

    #[test]
    fn ignores_foreign_namespaces() {
        let (builder, app) = setup();
        let shared = builder.shared();
        let client = app.cfg.clients[0];
        let mut b2 = NetSimBuilder::new(shared.net.clone(), shared.resolver.clone());
        // A timer in namespace 9 must be ignored by an ns-0 app.
        b2.add_initial(
            SimTime::from_ms(1),
            LpId(client.0),
            NetEvent::AppTimer { token: tag(9, 1) },
        );
        let out = b2.run_sequential(app, SimTime::from_secs(2));
        assert_eq!(out.apps[0].requests_sent, 0);
    }

    #[test]
    fn mean_response_size_is_plausible() {
        let (builder, app) = setup();
        let out = builder.run_sequential(app, SimTime::from_secs(20));
        let app = &out.apps[0];
        let mean_segments =
            out.profile.completed_segments as f64 / out.profile.completed_flows.max(1) as f64;
        // 50 kB mean at 1460 B/segment ≈ 34 segments; clamping shifts it
        // a little. Accept a generous band.
        assert!(
            (15.0..60.0).contains(&mean_segments),
            "mean segments {mean_segments}, flows {}",
            app.responses_completed
        );
    }
}
