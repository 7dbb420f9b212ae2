//! Determinism regression tests for the shared worker-pool layer:
//! every parallelized phase — the HPROF threshold sweep and multi-AS
//! resolver construction — must produce results bit-identical to its
//! sequential execution, at any thread count.
//!
//! These pin the ISSUE's acceptance criterion that figure output is
//! byte-identical across `--threads` settings: all figure numbers
//! derive from the values compared here.

use massf_core::prelude::*;
use massf_integration::{tiny_mapping_config, tiny_multi_as, tiny_single_as};
use massf_netsim::{Agent, FaultScript, FaultState, NetSimBuilder, NoApp};
use massf_parutil::with_threads;
use massf_routing::{CostMetric, MultiAsResolver};
use massf_topology::{
    generate_flat_network, generate_multi_as_network, FlatTopologyConfig, MultiAsTopologyConfig,
};

/// HPROF over a scenario at a given worker-thread count, returning
/// everything a figure would print.
fn hprof_at(scenario: &Scenario, threads: usize) -> (Vec<u32>, u64, u64, Option<u64>) {
    with_threads(threads, || {
        let profile = run_profiling(scenario, SimTime::from_secs(1)).profile;
        let cfg = tiny_mapping_config(4);
        let mapping = map_network(&scenario.net, Some(&profile), MappingApproach::Hprof, &cfg);
        (
            mapping.partition.assignment.clone(),
            mapping.achieved_mll_ms.to_bits(),
            mapping.evaluation.e.to_bits(),
            mapping.tmll_ms.map(f64::to_bits),
        )
    })
}

#[test]
fn hprof_winner_identical_across_thread_counts_single_as() {
    let scenario = tiny_single_as(11);
    let seq = hprof_at(&scenario, 1);
    for threads in [2, 4, 8] {
        assert_eq!(seq, hprof_at(&scenario, threads), "threads = {threads}");
    }
}

#[test]
fn hprof_winner_identical_across_thread_counts_multi_as() {
    let scenario = tiny_multi_as(23);
    let seq = hprof_at(&scenario, 1);
    for threads in [2, 4] {
        assert_eq!(seq, hprof_at(&scenario, threads), "threads = {threads}");
    }
}

#[test]
fn full_suite_rows_identical_across_thread_counts() {
    let scenario = tiny_single_as(7);
    let cfg = tiny_mapping_config(4);
    let model = ClusterModel::default();
    let approaches = [
        MappingApproach::Top2,
        MappingApproach::Prof2,
        MappingApproach::Htop,
        MappingApproach::Hprof,
    ];
    let run = |threads| {
        with_threads(threads, || {
            run_approaches(&scenario, &approaches, &cfg, &model, SimTime::from_secs(1))
                .into_iter()
                .map(|o| {
                    (
                        o.approach,
                        o.mapping.partition.assignment,
                        o.run_stats.total_events,
                        o.metrics.simulation_time_secs.to_bits(),
                        o.metrics.parallel_efficiency.to_bits(),
                    )
                })
                .collect::<Vec<_>>()
        })
    };
    assert_eq!(run(1), run(4));
}

/// A fault-injected network run must be bit-identical between the
/// sequential engine and the parallel engine at any partition / worker
/// count. The script deliberately places one fault at *exactly* the
/// same timestamp as a traffic injection: fault events carry engine
/// tags like any other external event, so colliding timestamps sort
/// deterministically regardless of which LP processes them first.
#[test]
fn fault_injected_run_identical_across_thread_counts() {
    let net = generate_flat_network(&FlatTopologyConfig::tiny());
    let hosts = net.host_ids();
    let collision = SimTime::from_ms(50);

    // Fresh per run: epoch resolvers and their shortest-path trees are
    // built lazily by whichever partition needs them first, so each run
    // must reconverge at its own thread count rather than inherit trees
    // computed by a previous run.
    let make_faults = || {
        let mut script = FaultScript::new();
        script.link_down(collision, net.links[0].id);
        script.link_up(SimTime::from_ms(400), net.links[0].id);
        script.link_down(SimTime::from_ms(200), net.links[7].id);
        script.link_up(SimTime::from_ms(600), net.links[7].id);
        FaultState::flat(&net, CostMetric::Latency, script).expect("script validates")
    };

    let traffic = || {
        let mut agent = Agent::new();
        for (i, pair) in hosts.chunks(2).take(24).enumerate() {
            if let [a, b] = pair {
                agent.inject_tcp(
                    SimTime::from_ms(10 * i as u64),
                    *a,
                    *b,
                    20_000 + 1_000 * i as u64,
                );
            }
        }
        // This flow starts at the first fault's exact timestamp.
        agent.inject_tcp(collision, hosts[0], hosts[hosts.len() - 1], 30_000);
        agent
    };

    let duration = SimTime::from_secs(2);
    let fingerprint = |threads: usize, partitions: usize| {
        with_threads(threads, || {
            let faults = make_faults();
            let mut builder = NetSimBuilder::new_with_faults(net.clone(), faults.clone());
            builder.add_agent(traffic());
            let out = if partitions == 1 {
                builder.run_sequential(NoApp, duration)
            } else {
                let assignment: Vec<u32> = (0..net.node_count())
                    .map(|i| (i % partitions) as u32)
                    .collect();
                let mut window = f64::INFINITY;
                for link in &net.links {
                    if assignment[link.a.index()] != assignment[link.b.index()] {
                        window = window.min(link.latency_ms);
                    }
                }
                builder
                    .try_run_parallel(
                        NoApp,
                        duration,
                        SimTime::from_ms_f64(window),
                        &assignment,
                        partitions,
                    )
                    .expect("window within lookahead")
            };
            (
                out.stats.total_events,
                out.profile,
                faults.reconvergence_count(),
            )
        })
    };

    let reference = fingerprint(1, 1);
    assert!(reference.1.fault_events > 0, "faults must actually fire");
    assert!(reference.2 > 0, "faults must trigger reconvergence");
    for (threads, partitions) in [(1, 2), (2, 2), (4, 4), (4, 2)] {
        assert_eq!(
            reference,
            fingerprint(threads, partitions),
            "threads = {threads}, partitions = {partitions}"
        );
    }
}

/// The route table must be deterministic: parallel runs bit-identical
/// to sequential, *including* the hit/miss counters, at any thread
/// count. This holds because routes are only resolved from the source
/// LP's event handler, in time order. (That its answers are those of
/// resolving every lookup is `routes::tests` in `massf-netsim`.)
#[test]
fn route_cache_transparent_and_identical_across_thread_counts() {
    let net = generate_flat_network(&FlatTopologyConfig::tiny());
    let hosts = net.host_ids();
    let traffic = || {
        let mut agent = Agent::new();
        // Repeated pairs, so the table actually hits.
        for i in 0..24 {
            let a = hosts[i % 4];
            let b = hosts[hosts.len() - 1 - (i % 6)];
            if a != b {
                agent.inject_tcp(SimTime::from_ms(5 * i as u64), a, b, 15_000);
            }
        }
        agent
    };
    let duration = SimTime::from_secs(2);

    let run = |threads: usize, partitions: usize| {
        with_threads(threads, || {
            let resolver =
                std::sync::Arc::new(massf_routing::FlatResolver::new(&net, CostMetric::Latency));
            let mut builder = NetSimBuilder::new(net.clone(), resolver);
            builder.add_agent(traffic());
            if partitions == 1 {
                builder.run_sequential(NoApp, duration)
            } else {
                let assignment: Vec<u32> = (0..net.node_count())
                    .map(|i| (i % partitions) as u32)
                    .collect();
                let mut window = f64::INFINITY;
                for link in &net.links {
                    if assignment[link.a.index()] != assignment[link.b.index()] {
                        window = window.min(link.latency_ms);
                    }
                }
                builder
                    .try_run_parallel(
                        NoApp,
                        duration,
                        SimTime::from_ms_f64(window),
                        &assignment,
                        partitions,
                    )
                    .expect("window within lookahead")
            }
        })
    };

    let seq = run(1, 1);
    assert!(
        seq.profile.route_cache.hits > 0,
        "repeated pairs must hit the table"
    );
    for (threads, partitions) in [(1, 2), (2, 2), (4, 2)] {
        let par = run(threads, partitions);
        assert_eq!(
            par.profile, seq.profile,
            "threads {threads}, partitions {partitions}"
        );
        assert_eq!(par.stats.total_events, seq.stats.total_events);
    }
}

#[test]
fn multi_as_resolver_identical_across_thread_counts() {
    let cfg = MultiAsTopologyConfig::tiny();
    let m = generate_multi_as_network(&cfg);
    let hosts = m.network.host_ids();
    let routes_at = |threads: usize| {
        with_threads(threads, || {
            let r = MultiAsResolver::new(&m, CostMetric::Latency, &cfg);
            let mut routes = Vec::new();
            for &a in &hosts {
                for &b in hosts.iter().step_by(5) {
                    routes.push(massf_routing::PathResolver::route(&r, a, b));
                }
            }
            routes
        })
    };
    let seq = routes_at(1);
    for threads in [2, 4] {
        assert_eq!(seq, routes_at(threads), "threads = {threads}");
    }
}
