//! The four benchmark workloads and how each builds its inputs.
//!
//! Sizes are compiled in, not knobs: a number printed by this harness
//! always refers to the same inputs for a given `(workload, seed)`.
//! The only alternative is [`Size::Tiny`], used by the in-crate tests
//! and `run.sh --quick`, which checks digests and counts, not times.
//!
//! Why these four (the reasoning later optimisation PRs rely on):
//!
//! * `flat_packet` — the paper's Fig 6 world: one 4 000-router OSPF
//!   domain, HTTP background + ScaLapack. Route resolution does real
//!   work (lazy shortest-path trees, almost no cache reuse), so the
//!   `routing` and `netsim` packet layers share the time.
//! * `multias_packet` — the paper's Fig 10 world: 100 AS × 50 routers,
//!   BGP + per-AS OSPF, HTTP + GridNPB. Same packet code, but routing
//!   is cheap (50-router domains), so the event core and TCP handlers
//!   dominate. A routing optimisation must show no change here.
//! * `flap_session` — seeded TCP + fluid traffic under scripted link
//!   flaps, driven through the resumable `Session` API: the sequential
//!   leg checkpoints (atomic save + load) at every segment boundary,
//!   the parallel leg runs the online rebalancer. Routing is *rebuilt*
//!   per fault epoch here, and snapshot codec/I-O plus the rebalance
//!   driver are on the path — nowhere else.
//! * `fluid_background` — mostly fluid flows on a connected topology:
//!   few events, almost all time in the max-min solver on the
//!   coordinator LP, 1 ms barrier windows. The bypass workload for
//!   packet-path changes.

use crate::trace::{Phases, ResolveTotals, TimedResolver};
use massf_core::{Scale, Scenario, ScenarioKind, WorkloadKind};
use massf_engine::{LpId, RebalanceConfig, SimTime};
use massf_netsim::{Agent, AppLogic, FaultScript, FaultState, NetEvent, NetSimBuilder, NoApp};
use massf_routing::{CostMetric, FlatResolver, MultiAsResolver, PathResolver};
use massf_snapshot::RebalancePolicy;
use massf_topology::{
    generate_flat_network, generate_multi_as_network, MultiAsTopologyConfig, Network, NodeId,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    FlatPacket,
    MultiasPacket,
    FlapSession,
    FluidBackground,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::FlatPacket,
        Workload::MultiasPacket,
        Workload::FlapSession,
        Workload::FluidBackground,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::FlatPacket => "flat_packet",
            Workload::MultiasPacket => "multias_packet",
            Workload::FlapSession => "flap_session",
            Workload::FluidBackground => "fluid_background",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input size: the benchmark's compiled-in size, or the test size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

/// How a leg obtains routing state nothing else has warmed: every leg
/// (profiling, sequential, parallel) builds its own, outside the timed
/// region, so no leg inherits shortest-path trees or epoch tables from
/// another.
pub enum Routing {
    /// One OSPF domain over the whole network.
    Flat,
    /// BGP + per-AS OSPF; the multi-AS structure is regenerated from
    /// its config (a few ms) rather than kept alive between legs.
    MultiAs(MultiAsTopologyConfig),
    /// Flat OSPF under a fault timeline: epoch resolvers are rebuilt
    /// lazily inside the run, which is what `flap_session` measures.
    Faulted(FaultScript),
}

/// How `flap_session` drives the resumable API.
pub struct SessionPlan {
    /// The sequential leg saves and reloads a checkpoint every this
    /// much virtual time.
    pub segment: SimTime,
    /// The parallel leg's online-rebalancer policy.
    pub policy: RebalancePolicy,
}

/// One workload's generated inputs: everything the program receives.
pub struct Inputs<A> {
    pub net: Network,
    pub routing: Routing,
    pub app: A,
    /// Initial traffic events (scripted faults are appended by the
    /// builder).
    pub traffic: Vec<(SimTime, LpId, NetEvent)>,
    pub horizon: SimTime,
    pub session: Option<SessionPlan>,
}

impl<A: AppLogic + Clone> Inputs<A> {
    /// A builder over fresh routing state, seeded with the traffic.
    /// Construction time lands in `phases` under the layer it belongs
    /// to. With `timed` set, the resolver is wrapped so that route
    /// lookups are counted and timed into it (fault timelines build
    /// their resolvers internally and cannot be wrapped from outside).
    pub fn fresh_builder(
        &self,
        phases: &mut Phases,
        timed: Option<&Arc<ResolveTotals>>,
    ) -> NetSimBuilder {
        let wrap = |r: Arc<dyn PathResolver>| -> Arc<dyn PathResolver> {
            match timed {
                Some(totals) => Arc::new(TimedResolver::new(r, totals.clone())),
                None => r,
            }
        };
        // Routing state first (timed under its own layer), then the
        // shared world around it.
        enum Fresh {
            Resolver(Arc<dyn PathResolver>),
            Faults(Arc<FaultState>),
        }
        let fresh = match &self.routing {
            Routing::Flat => Fresh::Resolver(phases.time("routing.build_s", || {
                Arc::new(FlatResolver::new(&self.net, CostMetric::Latency))
            })),
            Routing::MultiAs(cfg) => {
                let m = phases.time("topology.generate_s", || generate_multi_as_network(cfg));
                Fresh::Resolver(phases.time("routing.build_s", || {
                    Arc::new(MultiAsResolver::new(&m, CostMetric::Latency, cfg))
                }))
            }
            Routing::Faulted(script) => Fresh::Faults(phases.time("faults.compile_s", || {
                FaultState::flat(&self.net, CostMetric::Latency, script.clone())
                    .expect("generated flap scripts validate against their own network")
            })),
        };
        let mut builder = phases.time("netsim.world_build_s", || match fresh {
            Fresh::Resolver(r) => NetSimBuilder::new(self.net.clone(), wrap(r)),
            Fresh::Faults(f) => NetSimBuilder::new_with_faults(self.net.clone(), f),
        });
        builder.add_initial_events(self.traffic.iter().cloned());
        builder
    }
}

/// The paper's scenario worlds (`flat_packet`, `multias_packet`).
pub fn scenario_inputs(
    kind: ScenarioKind,
    size: Size,
    seed: u64,
    phases: &mut Phases,
) -> Inputs<massf_core::scenario::ScenarioApp> {
    let (scale, horizon) = match size {
        Size::Full => (Scale::Medium, SimTime::from_secs(6)),
        Size::Tiny => (Scale::Tiny, SimTime::from_secs(2)),
    };
    let (workload, routing) = match kind {
        ScenarioKind::SingleAs => (WorkloadKind::ScaLapack, Routing::Flat),
        ScenarioKind::MultiAs => (
            WorkloadKind::GridNpb,
            Routing::MultiAs(scale.multi_as_config(seed)),
        ),
    };
    // Topology, the first resolver and the host roles in one call; the
    // per-leg fresh builds split topology from routing.
    let scenario = phases.time("core.scenario_build_s", || {
        Scenario::build(kind, scale, workload, seed)
    });
    let (app, traffic) = phases.time("workloads.make_app_s", || scenario.make_app());
    Inputs {
        net: scenario.net,
        routing,
        app,
        traffic,
        horizon,
        session: None,
    }
}

/// Seeded TCP and fluid transfers between random distinct host pairs,
/// started over the first 60 % of the horizon (the traffic shape of the
/// repository's `fault_flap_study`). TCP flows run between any two
/// hosts; fluid flows run among a seeded subset of `fluid_hosts` hosts.
fn seeded_traffic(
    hosts: &[NodeId],
    horizon: SimTime,
    tcp_flows: usize,
    fluid_flows: usize,
    fluid_hosts: usize,
    fluid_bytes: std::ops::Range<u64>,
    seed: u64,
) -> Vec<(SimTime, LpId, NetEvent)> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xF1A9);
    let span = (horizon.as_ns() * 6 / 10).max(1);
    // A distinct destination by construction: no self-pairs, so no flow
    // is unroutable for a reason other than the network.
    let pair = |rng: &mut ChaCha8Rng, among: &[NodeId]| {
        let src = rng.gen_range(0..among.len());
        let dst = (src + rng.gen_range(1..among.len())) % among.len();
        (among[src], among[dst], SimTime(rng.gen_range(0..span)))
    };
    let mut agent = Agent::new();
    for _ in 0..tcp_flows {
        let (src, dst, at) = pair(&mut rng, hosts);
        agent.inject_tcp(at, src, dst, rng.gen_range(10_000u64..200_000));
    }
    // Partial Fisher–Yates: the first `fluid_hosts` entries become a
    // uniform sample of the hosts.
    let mut pool = hosts.to_vec();
    let fluid_hosts = fluid_hosts.clamp(2, pool.len());
    for i in 0..fluid_hosts {
        let j = rng.gen_range(i..pool.len());
        pool.swap(i, j);
    }
    for _ in 0..fluid_flows {
        let (src, dst, at) = pair(&mut rng, &pool[..fluid_hosts]);
        agent.inject_fluid(at, src, dst, rng.gen_range(fluid_bytes.clone()));
    }
    agent.into_initial_events()
}

fn flat_net(scale: Scale, seed: u64, phases: &mut Phases) -> Network {
    phases.time("topology.generate_s", || {
        generate_flat_network(&scale.flat_config(seed))
    })
}

/// `flap_session`: link flaps over mixed traffic, run through `Session`.
pub fn flap_inputs(size: Size, seed: u64, phases: &mut Phases) -> Inputs<NoApp> {
    let (scale, horizon, tcp, fluid, flaps) = match size {
        Size::Full => (Scale::Small, SimTime::from_secs(30), 2_000, 250, 6),
        Size::Tiny => (Scale::Tiny, SimTime::from_secs(10), 120, 15, 2),
    };
    let net = flat_net(scale, seed, phases);
    let traffic = phases.time("workloads.make_app_s", || {
        let hosts = net.host_ids();
        seeded_traffic(
            &hosts,
            horizon,
            tcp,
            fluid,
            hosts.len(),
            200_000..2_000_000,
            seed,
        )
    });
    // Flaps fall in the middle 60 % of the run, so a clean prefix and a
    // recovered tail both exist.
    let down = SimTime::from_secs(2);
    let script = FaultScript::random_link_flaps(
        &net,
        flaps,
        down,
        SimTime(horizon.as_ns() / 5),
        SimTime(horizon.as_ns() * 4 / 5) - down,
        seed,
    )
    .expect("every generated network has router-router links to flap");
    Inputs {
        net,
        routing: Routing::Faulted(script),
        app: NoApp,
        traffic,
        horizon,
        session: Some(SessionPlan {
            segment: SimTime(horizon.as_ns() / 6),
            policy: RebalancePolicy {
                cfg: RebalanceConfig {
                    epoch: SimTime::from_secs(2),
                    threshold_permille: 1100,
                    ..RebalanceConfig::default()
                },
                ..RebalancePolicy::default()
            },
        }),
    }
}

/// `fluid_background`: long-lived fluid bulk transfers among a subset
/// of hosts (think storage elements), a little packet foreground.
///
/// The shape is chosen for a steady cost, not only a large one. The
/// max-min solver re-solves the connected closure of flows and links
/// around every change, and with flows between uniformly random hosts
/// the closure sizes sit near a percolation threshold: the same flow
/// count costs 1 M or 2 M link recomputations depending on the seed.
/// Concentrating the flows on 225 hosts (each access link shared by a
/// few flows) keeps nearly all live flows in one closure for every
/// seed, which is also the case an incremental solver is for. The
/// flow count is set by the clock: solver work grows with its square,
/// and a leg of about 0.6 s lets one run fit nine or ten pipeline
/// executions, which its median needs on a noisy host.
pub fn fluid_inputs(size: Size, seed: u64, phases: &mut Phases) -> Inputs<NoApp> {
    let (scale, horizon, tcp, fluid, fluid_hosts) = match size {
        Size::Full => (Scale::Medium, SimTime::from_secs(10), 150, 450, 225),
        Size::Tiny => (Scale::Tiny, SimTime::from_secs(5), 20, 40, 20),
    };
    let net = flat_net(scale, seed, phases);
    let traffic = phases.time("workloads.make_app_s", || {
        seeded_traffic(
            &net.host_ids(),
            horizon,
            tcp,
            fluid,
            fluid_hosts,
            20_000_000..60_000_000,
            seed,
        )
    });
    Inputs {
        net,
        routing: Routing::Flat,
        app: NoApp,
        traffic,
        horizon,
        session: None,
    }
}
