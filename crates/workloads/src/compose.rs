//! Workload composition.
//!
//! The paper's experiments always mix background HTTP traffic with a
//! foreground Grid application. Every workload in this crate tags its
//! timers, datagram metadata, and flows with a construction-time
//! namespace and ignores everything else, so composition is plain
//! fan-out: deliver each callback to both members.

use massf_netsim::{AbortReason, AppLogic, FlowId, SimApi};
use massf_topology::NodeId;

/// Two workloads running concurrently. Nest pairs for more.
#[derive(Clone)]
pub struct Pair<A, B> {
    pub first: A,
    pub second: B,
}

impl<A, B> Pair<A, B> {
    /// Compose `first` and `second`. They must use distinct namespaces;
    /// that is the constructor argument each workload takes.
    pub fn new(first: A, second: B) -> Self {
        Pair { first, second }
    }
}

impl<A: AppLogic, B: AppLogic> AppLogic for Pair<A, B> {
    fn on_flow_complete(&mut self, host: NodeId, flow: FlowId, api: &mut SimApi<'_, '_>) {
        self.first.on_flow_complete(host, flow, api);
        self.second.on_flow_complete(host, flow, api);
    }

    fn on_timer(&mut self, host: NodeId, token: u64, api: &mut SimApi<'_, '_>) {
        self.first.on_timer(host, token, api);
        self.second.on_timer(host, token, api);
    }

    fn on_datagram(
        &mut self,
        host: NodeId,
        from: FlowId,
        bytes: u32,
        meta: u64,
        api: &mut SimApi<'_, '_>,
    ) {
        self.first.on_datagram(host, from, bytes, meta, api);
        self.second.on_datagram(host, from, bytes, meta, api);
    }

    fn on_flow_aborted(
        &mut self,
        host: NodeId,
        flow: FlowId,
        reason: AbortReason,
        api: &mut SimApi<'_, '_>,
    ) {
        self.first.on_flow_aborted(host, flow, reason, api);
        self.second.on_flow_aborted(host, flow, reason, api);
    }

    fn on_fluid_complete(
        &mut self,
        src: NodeId,
        flow: FlowId,
        dst: NodeId,
        api: &mut SimApi<'_, '_>,
    ) {
        self.first.on_fluid_complete(src, flow, dst, api);
        self.second.on_fluid_complete(src, flow, dst, api);
    }

    fn on_fluid_aborted(
        &mut self,
        src: NodeId,
        flow: FlowId,
        dst: NodeId,
        api: &mut SimApi<'_, '_>,
    ) {
        self.first.on_fluid_aborted(src, flow, dst, api);
        self.second.on_fluid_aborted(src, flow, dst, api);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::{HttpConfig, HttpTraffic};
    use crate::scalapack::{ScaLapackApp, ScaLapackConfig};
    use massf_engine::SimTime;
    use massf_netsim::NetSimBuilder;
    use massf_routing::{CostMetric, FlatResolver};
    use massf_topology::{generate_flat_network, FlatTopologyConfig};
    use std::sync::Arc;

    #[test]
    fn http_and_scalapack_coexist() {
        let net = generate_flat_network(&FlatTopologyConfig::tiny());
        let hosts = net.host_ids();
        let (clients, rest) = hosts.split_at(hosts.len() / 2);
        let (servers, app_hosts) = rest.split_at(rest.len() / 2);

        let mut http_cfg = HttpConfig::paper(clients.to_vec(), servers.to_vec(), 7);
        http_cfg.mean_gap = SimTime::from_ms(500);
        let http = HttpTraffic::new(http_cfg, 0);
        let sl = ScaLapackApp::new(
            ScaLapackConfig::new(app_hosts[..8.min(app_hosts.len())].to_vec(), 4, 4),
            1,
        );

        let resolver = Arc::new(FlatResolver::new(&net, CostMetric::Latency));
        let mut builder = NetSimBuilder::new(net, resolver);
        builder.add_initial_events(http.initial_events());
        builder.add_initial_events(sl.initial_events());
        let out = builder.run_sequential(Pair::new(http, sl), SimTime::from_secs(30));

        let pair = &out.apps[0];
        assert!(pair.first.requests_sent > 10, "http starved");
        assert_eq!(pair.second.iterations_done, 4, "scalapack starved");
    }
}
