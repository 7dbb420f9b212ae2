//! Simulation assembly and execution front-end.
//!
//! [`NetSimBuilder`] ties a topology, a path resolver, initial traffic
//! (from [`crate::Agent`] scripts and workload timers) and application
//! logic together, and runs the result on any of the engine's executors.

use crate::agent::Agent;
use crate::fluid::FLUID_COORDINATOR;
use crate::packet::NetEvent;
use crate::profiling::ProfileData;
use crate::tcp::MAX_RETRIES;
use crate::world::{AppLogic, NetWorld, SharedNet, DEFAULT_ROUTE_CACHE_CAPACITY};
use massf_engine::{
    run_sequential, run_sequential_windowed, try_run_parallel_observed, BarrierObserver,
    ExecutionStats, LpId, MassfError, NoopBarrierObserver, Scoring, SimTime,
};
use massf_faults::{FaultKind, FaultState};
use massf_routing::PathResolver;
use massf_topology::Network;
use std::sync::Arc;

/// Results of one simulation run.
pub struct SimOutput<A, S = ExecutionStats> {
    /// Engine statistics (per-LP event counts; per-window per-partition
    /// counts for parallel runs). A scored run holds one
    /// [`ExecutionStats`] per scoring.
    pub stats: S,
    /// Merged traffic profile.
    pub profile: ProfileData,
    /// Application logic instances (one for sequential runs, one per
    /// partition for parallel runs).
    pub apps: Vec<A>,
}

/// Builds and runs packet-level simulations.
pub struct NetSimBuilder {
    shared: Arc<SharedNet>,
    initial: Vec<(SimTime, LpId, NetEvent)>,
    route_cache_capacity: usize,
}

impl NetSimBuilder {
    /// A builder over `net` routed by `resolver`.
    pub fn new(net: Network, resolver: Arc<dyn PathResolver>) -> Self {
        NetSimBuilder {
            shared: SharedNet::new(net, resolver),
            initial: Vec::new(),
            route_cache_capacity: DEFAULT_ROUTE_CACHE_CAPACITY,
        }
    }

    /// A builder over `net` with fault injection: routing follows the
    /// fault timeline (see [`SharedNet::with_faults`]) and every scripted
    /// fault is additionally injected as a first-class
    /// [`NetEvent::Fault`] event, appended *after* all traffic events so
    /// event tags — and therefore the parallel execution order — stay
    /// deterministic regardless of when traffic was added.
    pub fn new_with_faults(net: Network, faults: Arc<FaultState>) -> Self {
        NetSimBuilder {
            shared: SharedNet::with_faults(net, faults),
            initial: Vec::new(),
            route_cache_capacity: DEFAULT_ROUTE_CACHE_CAPACITY,
        }
    }

    /// Per-source route-cache capacity for the worlds this builder
    /// runs; `0` disables route caching (every resolve goes straight to
    /// the resolver). Simulation results are bit-identical either way —
    /// only the `route_cache` profile counters and resolve cost differ.
    pub fn route_cache_capacity(&mut self, per_src: usize) -> &mut Self {
        self.route_cache_capacity = per_src;
        self
    }

    /// The shared network handle (topology + routing + link constants).
    pub fn shared(&self) -> Arc<SharedNet> {
        self.shared.clone()
    }

    /// Append an agent's scripted traffic.
    pub fn add_agent(&mut self, agent: Agent) -> &mut Self {
        self.initial.extend(agent.into_initial_events());
        self
    }

    /// Append one raw initial event (workloads use this for their
    /// kick-off timers).
    pub fn add_initial(&mut self, at: SimTime, lp: LpId, event: NetEvent) -> &mut Self {
        self.initial.push((at, lp, event));
        self
    }

    /// Append many raw initial events.
    pub fn add_initial_events(
        &mut self,
        events: impl IntoIterator<Item = (SimTime, LpId, NetEvent)>,
    ) -> &mut Self {
        self.initial.extend(events);
        self
    }

    /// All initial events for a run: the accumulated traffic, then the
    /// fault script (if any) as `Fault` events in time-sorted order.
    /// Fault events target the LP of the faulted entity (a link's `a`
    /// endpoint, the crashed router) so the reconvergence work is
    /// attributed near the fault; adjacency events target LP 0.
    ///
    /// Public so checkpoint sessions can seed their own executors with
    /// exactly the events a builder-driven run would use.
    pub fn initial_events(&self) -> Vec<(SimTime, LpId, NetEvent)> {
        let mut events = self.initial.clone();
        if let Some(faults) = &self.shared.faults {
            for e in faults.script().sorted_events() {
                let lp = match e.kind {
                    FaultKind::LinkDown(l) | FaultKind::LinkUp(l) => {
                        LpId(self.shared.net.links[l.index()].a.0)
                    }
                    FaultKind::RouterCrash(n) | FaultKind::RouterRecover(n) => LpId(n.0),
                    FaultKind::AsAdjacencyFail { .. } | FaultKind::AsAdjacencyRestore { .. } => {
                        LpId(0)
                    }
                };
                events.push((e.at, lp, NetEvent::Fault { kind: e.kind }));
            }
        }
        // Mirror the fault script to the fluid coordinator so flows
        // traversing a failed element reroute or abort at fault time.
        // Appended only when the scenario injects fluid traffic (so
        // packet-only runs keep their exact event tags), and after the
        // `Fault` events so reconvergence precedes the fluid reaction
        // at equal timestamps.
        let any_fluid = self
            .initial
            .iter()
            .any(|(_, _, e)| matches!(e, NetEvent::FluidStart { .. }));
        if any_fluid {
            if let Some(faults) = &self.shared.faults {
                for e in faults.script().sorted_events() {
                    events.push((
                        e.at,
                        LpId(FLUID_COORDINATOR.0),
                        NetEvent::FluidFault { kind: e.kind },
                    ));
                }
            }
        }
        events
    }

    /// One world (a sequential run's model, a parallel run's shard)
    /// with this builder's tunables.
    fn world<A: AppLogic>(&self, app: A) -> NetWorld<A> {
        NetWorld::with_config(
            self.shared.clone(),
            app,
            self.route_cache_capacity,
            MAX_RETRIES,
        )
    }

    /// Fold a finished run's worlds into its output: profiles merged,
    /// application instances kept in world order.
    fn collect<A: AppLogic, S>(&self, stats: S, worlds: Vec<NetWorld<A>>) -> SimOutput<A, S> {
        let mut profile =
            ProfileData::new(self.shared.net.node_count(), self.shared.net.links.len());
        let mut apps = Vec::with_capacity(worlds.len());
        for world in worlds {
            let (p, a) = world.into_parts();
            profile.merge(&p);
            apps.push(a);
        }
        SimOutput {
            stats,
            profile,
            apps,
        }
    }

    /// Run on the sequential reference executor.
    pub fn run_sequential<A: AppLogic>(&self, app: A, end: SimTime) -> SimOutput<A> {
        let mut world = self.world(app);
        let stats = run_sequential(
            &mut world,
            self.shared.lp_count(),
            self.initial_events(),
            end,
        );
        self.collect(stats, vec![world])
    }

    /// Run sequentially once, attributing events to `(window,
    /// partition)` cells for each of `scorings` — the trace-driven mode
    /// behind the cluster performance model (DESIGN.md substitution #1).
    /// The output holds one [`ExecutionStats`] per scoring, in order; a
    /// scoring inconsistent with the network is
    /// [`MassfError::InvalidConfig`].
    pub fn run_sequential_windowed<A: AppLogic>(
        &self,
        app: A,
        end: SimTime,
        scorings: &[Scoring<'_>],
    ) -> Result<SimOutput<A, Vec<ExecutionStats>>, MassfError> {
        let mut world = self.world(app);
        let stats = run_sequential_windowed(
            &mut world,
            self.shared.lp_count(),
            self.initial_events(),
            end,
            scorings,
        )?;
        Ok(self.collect(stats, vec![world]))
    }

    /// Run on the real multi-threaded conservative executor, one thread
    /// per partition. `window` must not exceed the minimum latency of
    /// any cross-partition link (the achieved MLL): a larger one comes
    /// back as [`MassfError::LookaheadViolation`], a zero window or an
    /// assignment inconsistent with `partitions` as
    /// [`MassfError::InvalidConfig`].
    pub fn try_run_parallel<A: AppLogic + Clone>(
        &self,
        app: A,
        end: SimTime,
        window: SimTime,
        assignment: &[u32],
        partitions: usize,
    ) -> Result<SimOutput<A>, MassfError> {
        self.try_run_parallel_observed(
            app,
            end,
            window,
            assignment,
            partitions,
            &NoopBarrierObserver,
        )
    }

    /// [`Self::try_run_parallel`] with a [`BarrierObserver`] wrapped
    /// around every executor barrier, for bench-side measurement of
    /// wall-clock synchronization cost; the observer's totals land in
    /// [`ExecutionStats::barrier_wait_us`].
    pub fn try_run_parallel_observed<A: AppLogic + Clone, O: BarrierObserver>(
        &self,
        app: A,
        end: SimTime,
        window: SimTime,
        assignment: &[u32],
        partitions: usize,
        observer: &O,
    ) -> Result<SimOutput<A>, MassfError> {
        let shards = (0..partitions).map(|_| self.world(app.clone())).collect();
        let (shards, stats) = try_run_parallel_observed(
            shards,
            self.shared.lp_count(),
            assignment,
            self.initial_events(),
            end,
            window,
            observer,
        )?;
        Ok(self.collect(stats, shards))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::NoApp;
    use massf_routing::{CostMetric, FlatResolver};
    use massf_topology::NodeId;
    use massf_topology::{generate_flat_network, FlatTopologyConfig};

    fn builder_with_traffic() -> (NetSimBuilder, Vec<NodeId>) {
        let net = generate_flat_network(&FlatTopologyConfig::tiny());
        let hosts = net.host_ids();
        let resolver = Arc::new(FlatResolver::new(&net, CostMetric::Latency));
        let mut b = NetSimBuilder::new(net, resolver);
        let mut agent = Agent::new();
        for i in 0..10 {
            agent.inject_tcp(
                SimTime::from_ms(i as u64),
                hosts[i],
                hosts[hosts.len() - 1 - i],
                20_000,
            );
        }
        b.add_agent(agent);
        (b, hosts)
    }

    #[test]
    fn sequential_run_completes_flows() {
        let (b, _) = builder_with_traffic();
        let out = b.run_sequential(NoApp, SimTime::from_secs(30));
        assert_eq!(out.profile.completed_flows, 10);
        assert!(out.stats.total_events > 100);
    }

    #[test]
    fn windowed_matches_plain_sequential() {
        let (b, _) = builder_with_traffic();
        let n = b.shared().lp_count();
        let plain = b.run_sequential(NoApp, SimTime::from_secs(10));
        let assignment: Vec<u32> = (0..n).map(|i| (i % 4) as u32).collect();
        let scoring = Scoring {
            window: SimTime::from_ms(1),
            assignment: &assignment,
            partitions: 4,
        };
        let windowed = b
            .run_sequential_windowed(NoApp, SimTime::from_secs(10), &[scoring])
            .expect("valid scoring");
        assert_eq!(plain.stats.total_events, windowed.stats[0].total_events);
        assert_eq!(plain.profile, windowed.profile);
        assert_eq!(plain.stats.lp_events, windowed.stats[0].lp_events);
    }

    #[test]
    fn parallel_matches_sequential_exactly() {
        let (b, _) = builder_with_traffic();
        let shared = b.shared();
        let n = shared.lp_count();
        let seq = b.run_sequential(NoApp, SimTime::from_secs(5));

        // Partition: 2 parts split by node id parity of router index —
        // any split works, but the window must respect the cut MLL.
        let assignment: Vec<u32> = (0..n).map(|i| (i % 2) as u32).collect();
        let mll = shared
            .net
            .cut_mll_ms(&assignment)
            .expect("parity split cuts links");
        let window = SimTime::from_ms_f64(mll);
        assert!(window > SimTime::ZERO);

        let par = b
            .try_run_parallel(NoApp, SimTime::from_secs(5), window, &assignment, 2)
            .expect("window within lookahead");
        assert_eq!(seq.stats.total_events, par.stats.total_events);
        assert_eq!(seq.stats.lp_events, par.stats.lp_events);
        assert_eq!(seq.profile, par.profile);
    }

    #[test]
    fn zero_window_is_invalid_config_not_a_panic() {
        let (b, _) = builder_with_traffic();
        let n = b.shared().lp_count();
        let assignment: Vec<u32> = (0..n).map(|i| (i % 2) as u32).collect();
        let run = |window, assignment: &[u32], partitions| {
            b.try_run_parallel(NoApp, SimTime::from_secs(1), window, assignment, partitions)
                .map(|out| out.stats.total_events)
        };
        for outcome in [
            run(SimTime::ZERO, &assignment, 2),
            // Partition ids 0 and 1 over a single shard.
            run(SimTime::from_ms(1), &assignment, 1),
        ] {
            assert!(
                matches!(outcome, Err(MassfError::InvalidConfig(_))),
                "got {outcome:?}"
            );
        }
    }

    #[test]
    fn oversized_window_is_a_structured_error() {
        let (b, _) = builder_with_traffic();
        let shared = b.shared();
        let n = shared.lp_count();
        let assignment: Vec<u32> = (0..n).map(|i| (i % 2) as u32).collect();
        let mll = shared
            .net
            .cut_mll_ms(&assignment)
            .expect("parity split cuts links");
        // Deliberately above the cut's MLL: conservative execution is
        // unsound and the run must abort with the structured error.
        let window = SimTime::from_ms_f64(mll * 64.0);
        let err = match b.try_run_parallel(NoApp, SimTime::from_secs(5), window, &assignment, 2) {
            Ok(_) => panic!("window far above the MLL must violate lookahead"),
            Err(e) => e,
        };
        match err {
            MassfError::LookaheadViolation {
                event_time_ns,
                window_ns,
                ..
            } => {
                assert_eq!(window_ns, window.as_ns());
                assert!(event_time_ns < SimTime::from_secs(5).as_ns());
            }
            other => panic!("expected LookaheadViolation, got {other}"),
        }
    }
}
