//! The online re-partitioning study (`rebalance_study`,
//! BENCH_rebalance.json): two drifting-traffic scenarios, each replayed
//! by a static and an adaptive rebalancing driver from the same
//! deployment-time HPROF mapping.
//!
//! Setup: a calibration run with uniform traffic feeds HPROF the
//! profile it would have measured at deployment time; each scenario's
//! workload then *moves* — regional busy-hours rotate across the map,
//! or link flaps reroute a hot region's transit — exactly the drift a
//! static mapping cannot follow. The **static** driver is the
//! rebalancing driver with the trigger threshold at `u64::MAX`
//! (identical epoch segmentation, zero migrations); the **adaptive**
//! one uses the configured threshold. Both are asserted bit-identical
//! to one sequential reference run before anything is reported.

use massf_core::prelude::*;
use massf_engine::RebalanceConfig;
use massf_netsim::{
    Agent, FaultScript, FaultState, NetSimBuilder, NoApp, SimOutput, DEFAULT_ROUTE_CACHE_CAPACITY,
    MAX_RETRIES,
};
use massf_routing::{CostMetric, FlatResolver};
use massf_snapshot::{RebalanceOutcome, RebalancePolicy, Session};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

/// Geometry and policy of one study run.
pub struct StudyConfig {
    pub scale: Scale,
    pub seed: u64,
    /// Partitions of the HPROF mapping (and busy-hour regions).
    pub engines: usize,
    pub duration: SimTime,
    /// The adaptive driver's policy; the static driver shares its epoch.
    pub rebalance: RebalanceConfig,
    /// Link flaps scripted into the fault-flap scenario.
    pub flaps: usize,
}

/// Uniform calibration traffic: what HPROF profiles at deployment time.
fn uniform_traffic(hosts: &[NodeId], duration: SimTime, flows: usize, seed: u64) -> Agent {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xCA11);
    let mut agent = Agent::new();
    let span = duration.as_ns().max(1);
    for _ in 0..flows {
        let src = hosts[rng.gen_range(0..hosts.len())];
        let dst = hosts[rng.gen_range(0..hosts.len())];
        if src == dst {
            continue;
        }
        agent.inject_tcp(
            SimTime(rng.gen_range(0..span)),
            src,
            dst,
            10_000 + rng.gen_range(0u64..90_000),
        );
    }
    agent
}

/// Regional busy-hour rotation: the run is split into `groups.len()`
/// phases and phase `p`'s flows run only among the hosts HPROF placed
/// in partition `p` — the load sweeps across the map while every static
/// mapping keeps each region colocated (that *is* the cut-minimizing
/// choice). `fluid_every` > 0 adds one fluid background flow per that
/// many TCP flows so migration moves mixed-fidelity state too.
fn phased_traffic(
    groups: &[Vec<NodeId>],
    duration: SimTime,
    flows_per_phase: usize,
    fluid_every: usize,
    seed: u64,
) -> Agent {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xB0257);
    let mut agent = Agent::new();
    let phases = groups.len() as u64;
    let phase_ns = (duration.as_ns() / phases.max(1)).max(1);
    for (p, group) in groups.iter().enumerate() {
        if group.len() < 2 {
            continue;
        }
        let base = p as u64 * phase_ns;
        for i in 0..flows_per_phase {
            let src = group[rng.gen_range(0..group.len())];
            let dst = group[rng.gen_range(0..group.len())];
            if src == dst {
                continue;
            }
            let at = SimTime(base + rng.gen_range(0..phase_ns));
            if fluid_every > 0 && i % fluid_every == 0 {
                agent.inject_fluid(at, src, dst, 200_000 + rng.gen_range(0u64..800_000));
            } else {
                agent.inject_tcp(at, src, dst, 10_000 + rng.gen_range(0u64..90_000));
            }
        }
    }
    agent
}

/// One driver's run: its outcome and where it left the mapping.
pub struct DriverRun {
    pub outcome: RebalanceOutcome,
    pub partitions: u32,
    pub final_assignment: Vec<u32>,
}

impl DriverRun {
    /// Aggregate max/mean partition load, permille.
    pub fn imbalance(&self) -> u64 {
        self.outcome
            .aggregate_imbalance_permille(self.partitions as usize)
    }
}

/// Run one driver to `duration` and assert it answers exactly what the
/// sequential `reference` does.
fn run_driver(
    name: &str,
    builder: &NetSimBuilder,
    policy: RebalancePolicy,
    assignment: Vec<u32>,
    duration: SimTime,
    reference: &SimOutput<NoApp>,
) -> DriverRun {
    let mut session = Session::new_rebalancing(
        builder.shared(),
        builder.initial_events(),
        DEFAULT_ROUTE_CACHE_CAPACITY,
        MAX_RETRIES,
        policy,
        assignment,
    )
    .expect("valid policy and assignment");
    let outcome = session.run_rebalancing(duration).expect("driver runs");
    assert_eq!(
        session.total_events(),
        reference.stats.total_events,
        "{name} driver event count diverged from the sequential reference"
    );
    assert_eq!(
        session.lp_events(),
        &reference.stats.lp_events[..],
        "{name} driver per-LP attribution diverged from the sequential reference"
    );
    assert_eq!(
        session.profile(),
        &reference.profile,
        "{name} driver traffic profile diverged from the sequential reference"
    );
    let state = session.rebalance_state().expect("rebalancing session");
    DriverRun {
        outcome,
        partitions: state.partitions,
        final_assignment: state.assignment.clone(),
    }
}

/// Both drivers over one scenario.
pub struct ScenarioReport {
    pub name: &'static str,
    pub static_run: DriverRun,
    pub adaptive_run: DriverRun,
}

impl ScenarioReport {
    /// How many times lower the adaptive driver's imbalance is.
    pub fn improvement(&self) -> f64 {
        self.static_run.imbalance() as f64 / self.adaptive_run.imbalance().max(1) as f64
    }
}

/// Build the network and both scenarios, run both drivers on each, and
/// return the network with the two reports: "bursty busy-hour rotation"
/// and "fault-flap region shift".
pub fn run(cfg: &StudyConfig) -> (Network, [ScenarioReport; 2]) {
    let (scale, seed, k, duration) = (cfg.scale, cfg.seed, cfg.engines, cfg.duration);
    let policy = RebalancePolicy {
        cfg: cfg.rebalance,
        ..RebalancePolicy::default()
    };
    let static_policy = RebalancePolicy {
        cfg: RebalanceConfig {
            // Same epoch segmentation, trigger can never fire: this is
            // the static mapping measured through the identical driver.
            threshold_permille: u64::MAX,
            ..policy.cfg
        },
        ..policy
    };

    eprintln!("# generating {scale:?} single-AS network (seed {seed}) …");
    let net = generate_flat_network(&scale.flat_config(seed));
    let hosts = net.host_ids();
    let flows = (hosts.len() * 2).clamp(64, 4000);

    // Deployment-time HPROF mapping: profile uniform calibration
    // traffic, map with the profiled weights.
    eprintln!("# calibration run + HPROF mapping ({k} engines) …");
    let resolver = Arc::new(FlatResolver::new(&net, CostMetric::Latency));
    let mut calib = NetSimBuilder::new(net.clone(), resolver.clone());
    calib.add_agent(uniform_traffic(&hosts, duration, flows, seed));
    let calib_out = calib.run_sequential(NoApp, duration);
    let mapping = map_network(
        &net,
        Some(&calib_out.profile),
        MappingApproach::Hprof,
        &MappingConfig::new(k),
    );
    let initial = mapping.partition.assignment;

    // The regions HPROF colocated: phase p's busy hour lands on the
    // hosts of partition p.
    let mut groups: Vec<Vec<NodeId>> = vec![Vec::new(); k];
    for &h in &hosts {
        groups[initial[h.index()] as usize % k].push(h);
    }

    let run_scenario = |name: &'static str, builder: &NetSimBuilder| -> ScenarioReport {
        eprintln!("# {name}: sequential reference …");
        let reference = builder.run_sequential(NoApp, duration);
        eprintln!("# {name}: static driver …");
        let static_run = run_driver(
            "static",
            builder,
            static_policy,
            initial.clone(),
            duration,
            &reference,
        );
        eprintln!("# {name}: adaptive driver …");
        let adaptive_run = run_driver(
            "adaptive",
            builder,
            policy,
            initial.clone(),
            duration,
            &reference,
        );
        ScenarioReport {
            name,
            static_run,
            adaptive_run,
        }
    };

    // Scenario 1 — bursty: busy hours rotate through all k regions.
    let mut bursty = NetSimBuilder::new(net.clone(), resolver);
    bursty.add_agent(phased_traffic(&groups, duration, flows / k.max(1), 8, seed));
    let bursty_report = run_scenario("bursty busy-hour rotation", &bursty);

    // Scenario 2 — fault-flap: two regions trade the busy hour while
    // link flaps in the middle of the run reroute the transit load.
    let start = SimTime(duration.as_ns() * 3 / 10);
    let end = SimTime(duration.as_ns() * 7 / 10);
    let script =
        FaultScript::random_link_flaps(&net, cfg.flaps, SimTime::from_ms(800), start, end, seed)
            .expect("a generated flat network has links to flap");
    let faults = FaultState::flat(&net, CostMetric::Latency, script)
        .expect("random_link_flaps scripts validate");
    let mut flap = NetSimBuilder::new_with_faults(net.clone(), faults);
    let two_regions = &groups[..k.min(2)];
    flap.add_agent(phased_traffic(
        two_regions,
        duration,
        flows / 2,
        8,
        seed ^ 1,
    ));
    let flap_report = run_scenario("fault-flap region shift", &flap);

    (net, [bursty_report, flap_report])
}
