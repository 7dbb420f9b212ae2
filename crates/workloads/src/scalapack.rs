//! ScaLAPACK-style foreground application traffic.
//!
//! The paper runs real ScaLAPACK through the MicroGrid (GrADS
//! experiment); we model its communication structure (DESIGN.md
//! substitution #2): an LU/QR-style factorization on a `Pr × Pc` process
//! grid proceeds in iterations; in iteration `k` the panel owner
//! broadcasts the factored panel along its process row and column, and
//! the next iteration cannot start before the broadcast completes.
//! This produces the synchronized, communication-heavy traffic that
//! makes ScaLAPACK the harder load-balance case in the paper (GridNPB
//! "has less communication compared to ScaLapack", Section 5.2.2).

use crate::{tag, untag};
use massf_engine::{LpId, SimTime};
use massf_netsim::{AppLogic, FlowId, NetEvent, SimApi};
use massf_topology::NodeId;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Configuration of the ScaLapack traffic model.
#[derive(Debug, Clone)]
pub struct ScaLapackConfig {
    /// Participating hosts, row-major over the process grid.
    pub hosts: Vec<NodeId>,
    /// Process-grid columns (rows = hosts.len() / grid_cols).
    pub grid_cols: usize,
    /// Number of factorization iterations.
    pub iterations: u32,
}

impl ScaLapackConfig {
    /// A `grid_cols`-wide process grid over `hosts`.
    pub fn new(hosts: Vec<NodeId>, grid_cols: usize, iterations: u32) -> Self {
        assert!(!hosts.is_empty());
        assert!(grid_cols >= 1 && hosts.len().is_multiple_of(grid_cols));
        ScaLapackConfig {
            hosts,
            grid_cols,
            iterations,
        }
    }
}

/// Panel size broadcast each iteration, bytes.
pub const PANEL_BYTES: u64 = 300_000;
/// Local compute time between receiving a panel and broadcasting the
/// next.
pub const COMPUTE: SimTime = SimTime::from_ms(150);

const CTRL_BYTES: u32 = 64;

/// The iterative panel-broadcast application.
#[derive(Clone)]
pub struct ScaLapackApp {
    cfg: Arc<ScaLapackConfig>,
    ns: u8,
    /// Outstanding broadcast flows per iteration (owner-host state).
    outstanding: BTreeMap<u32, usize>,
    /// Flow → iteration, for completion accounting (owner-host state).
    flow_iter: BTreeMap<FlowId, u32>,
    /// Iterations fully completed (incremented at each owner).
    pub iterations_done: u32,
    /// Virtual time the final iteration's broadcast completed.
    pub finished_at: Option<SimTime>,
}

impl ScaLapackApp {
    /// Build with app namespace `ns`.
    pub fn new(cfg: ScaLapackConfig, ns: u8) -> Self {
        ScaLapackApp {
            cfg: Arc::new(cfg),
            ns,
            outstanding: BTreeMap::new(),
            flow_iter: BTreeMap::new(),
            iterations_done: 0,
            finished_at: None,
        }
    }

    /// Kick-off: the owner of iteration 0 computes, then broadcasts.
    pub fn initial_events(&self) -> Vec<(SimTime, LpId, NetEvent)> {
        let owner = self.owner(0);
        vec![(
            COMPUTE,
            LpId(owner.0),
            NetEvent::AppTimer {
                token: tag(self.ns, 0),
            },
        )]
    }

    fn owner(&self, iter: u32) -> NodeId {
        self.cfg.hosts[iter as usize % self.cfg.hosts.len()]
    }

    /// Row/column peers of the owner on the process grid.
    fn broadcast_targets(&self, iter: u32) -> Vec<NodeId> {
        let n = self.cfg.hosts.len();
        let cols = self.cfg.grid_cols;
        let idx = iter as usize % n;
        let (row, col) = (idx / cols, idx % cols);
        let mut targets = Vec::new();
        for c in 0..cols {
            if c != col {
                targets.push(self.cfg.hosts[row * cols + c]);
            }
        }
        let rows = n / cols;
        for r in 0..rows {
            if r != row {
                targets.push(self.cfg.hosts[r * cols + col]);
            }
        }
        targets
    }
}

impl AppLogic for ScaLapackApp {
    fn on_timer(&mut self, host: NodeId, token: u64, api: &mut SimApi<'_, '_>) {
        let (ns, iter) = untag(token);
        if ns != self.ns {
            return;
        }
        let iter = iter as u32;
        debug_assert_eq!(host, self.owner(iter));
        let targets = self.broadcast_targets(iter);
        let mut started = 0usize;
        for t in targets {
            if let Some(flow) = api.start_tcp_flow(t, PANEL_BYTES) {
                self.flow_iter.insert(flow, iter);
                started += 1;
            }
        }
        if started == 0 {
            // Degenerate 1-host grid or all-unroutable: advance directly.
            self.complete_iteration(iter, api);
        } else {
            self.outstanding.insert(iter, started);
        }
    }

    fn on_flow_complete(&mut self, _host: NodeId, flow: FlowId, api: &mut SimApi<'_, '_>) {
        let Some(iter) = self.flow_iter.remove(&flow) else {
            return; // not ours
        };
        #[expect(clippy::expect_used, reason = "a started iteration counts its flows")]
        let left = self
            .outstanding
            .get_mut(&iter)
            .expect("iteration has outstanding count");
        *left -= 1;
        if *left == 0 {
            self.outstanding.remove(&iter);
            self.complete_iteration(iter, api);
        }
    }

    fn on_datagram(
        &mut self,
        host: NodeId,
        _from: FlowId,
        _bytes: u32,
        meta: u64,
        api: &mut SimApi<'_, '_>,
    ) {
        let (ns, iter) = untag(meta);
        if ns != self.ns {
            return;
        }
        debug_assert_eq!(host, self.owner(iter as u32));
        // Compute, then broadcast this iteration's panel.
        api.set_timer(COMPUTE, tag(self.ns, iter));
    }
}

impl ScaLapackApp {
    fn complete_iteration(&mut self, iter: u32, api: &mut SimApi<'_, '_>) {
        self.iterations_done += 1;
        let next = iter + 1;
        if next >= self.cfg.iterations {
            self.finished_at = Some(api.now());
            return;
        }
        let next_owner = self.owner(next);
        if next_owner == api.host() {
            api.set_timer(COMPUTE, tag(self.ns, next as u64));
        } else {
            api.send_datagram(next_owner, CTRL_BYTES, tag(self.ns, next as u64));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use massf_netsim::NetSimBuilder;
    use massf_routing::{CostMetric, FlatResolver};
    use massf_topology::{generate_flat_network, FlatTopologyConfig};

    fn run(iterations: u32, hosts_n: usize, cols: usize) -> (ScaLapackApp, u64) {
        let net = generate_flat_network(&FlatTopologyConfig::tiny());
        let hosts: Vec<NodeId> = net.host_ids().into_iter().take(hosts_n).collect();
        let cfg = ScaLapackConfig::new(hosts, cols, iterations);
        let app = ScaLapackApp::new(cfg, 2);
        let resolver = Arc::new(FlatResolver::new(&net, CostMetric::Latency));
        let mut builder = NetSimBuilder::new(net, resolver);
        builder.add_initial_events(app.initial_events());
        let out = builder.run_sequential(app, SimTime::from_secs(600));
        let app = out.apps.into_iter().next().expect("one app was registered");
        (app, out.stats.total_events)
    }

    #[test]
    fn all_iterations_complete() {
        let (app, events) = run(6, 8, 4);
        assert_eq!(app.iterations_done, 6);
        assert!(app.finished_at.is_some());
        assert!(events > 1000);
    }

    #[test]
    fn broadcast_targets_cover_row_and_column() {
        let net = generate_flat_network(&FlatTopologyConfig::tiny());
        let hosts: Vec<NodeId> = net.host_ids().into_iter().take(12).collect();
        let app = ScaLapackApp::new(ScaLapackConfig::new(hosts.clone(), 4, 1), 0);
        // Owner of iter 5 = hosts[5] at grid (row 1, col 1).
        let targets = app.broadcast_targets(5);
        // Row peers: (1,0),(1,2),(1,3) = hosts[4],hosts[6],hosts[7];
        // col peers: (0,1),(2,1) = hosts[1],hosts[9].
        assert_eq!(targets.len(), 5);
        for expect in [hosts[4], hosts[6], hosts[7], hosts[1], hosts[9]] {
            assert!(targets.contains(&expect));
        }
    }

    #[test]
    fn ownership_rotates() {
        let net = generate_flat_network(&FlatTopologyConfig::tiny());
        let hosts: Vec<NodeId> = net.host_ids().into_iter().take(4).collect();
        let app = ScaLapackApp::new(ScaLapackConfig::new(hosts.clone(), 2, 8), 0);
        assert_eq!(app.owner(0), hosts[0]);
        assert_eq!(app.owner(3), hosts[3]);
        assert_eq!(app.owner(5), hosts[1]);
    }

    #[test]
    fn makespan_grows_with_iterations() {
        let (a3, _) = run(3, 8, 4);
        let (a9, _) = run(9, 8, 4);
        let t9 = a9.finished_at.expect("9-iteration run finishes");
        let t3 = a3.finished_at.expect("3-iteration run finishes");
        assert!(t9 > t3);
    }

    #[test]
    fn single_host_grid_degenerates_gracefully() {
        let (app, _) = run(4, 1, 1);
        assert_eq!(app.iterations_done, 4);
    }
}
