//! The strongest engine-correctness property: running the full packet
//! workload on the real multi-threaded conservative executor, with a
//! partition produced by the actual mappers and a window equal to the
//! achieved MLL, gives results bit-identical to sequential execution.

use massf_core::prelude::*;
use massf_engine::Scoring;
use massf_integration::{tiny_mapping_config, tiny_single_as};
use massf_netsim::NetSimBuilder;

fn mll_window(scenario: &Scenario, assignment: &[u32]) -> SimTime {
    let mll = achieved_mll_ms(&scenario.net, assignment).expect("some link is cut");
    SimTime::from_ms_f64(mll)
}

#[test]
fn parallel_run_matches_sequential_under_hprof_mapping() {
    let scenario = tiny_single_as(41);
    let cfg = tiny_mapping_config(3);
    let profile = run_profiling(&scenario, SimTime::from_secs(1)).profile;
    let mapping = map_network(&scenario.net, Some(&profile), MappingApproach::Hprof, &cfg);
    let window = mll_window(&scenario, &mapping.partition.assignment);
    assert!(window > SimTime::ZERO);

    let end = SimTime::from_secs(3);
    let (app, events) = scenario.make_app();
    let mut builder = NetSimBuilder::new(scenario.net.clone(), scenario.resolver.clone());
    builder.add_initial_events(events);

    let seq = builder.run_sequential(app.clone(), end);
    let par = builder
        .try_run_parallel(app, end, window, &mapping.partition.assignment, 3)
        .expect("window within lookahead");

    assert_eq!(seq.stats.total_events, par.stats.total_events);
    assert_eq!(seq.stats.lp_events, par.stats.lp_events);
    assert_eq!(
        seq.profile, par.profile,
        "traffic counters must be identical"
    );
}

#[test]
fn parallel_run_matches_sequential_on_multi_as_bgp_network() {
    let scenario = massf_integration::tiny_multi_as(43);
    let cfg = tiny_mapping_config(2);
    let mapping = map_network(&scenario.net, None, MappingApproach::Htop, &cfg);
    let window = mll_window(&scenario, &mapping.partition.assignment);

    let end = SimTime::from_secs(2);
    let (app, events) = scenario.make_app();
    let mut builder = NetSimBuilder::new(scenario.net.clone(), scenario.resolver.clone());
    builder.add_initial_events(events);

    let seq = builder.run_sequential(app.clone(), end);
    let par = builder
        .try_run_parallel(app, end, window, &mapping.partition.assignment, 2)
        .expect("window within lookahead");

    assert_eq!(seq.stats.total_events, par.stats.total_events);
    assert_eq!(seq.stats.lp_events, par.stats.lp_events);
    assert_eq!(seq.profile, par.profile);
}

#[test]
fn windowed_sequential_matches_plain_sequential_on_full_workload() {
    let scenario = tiny_single_as(47);
    let cfg = tiny_mapping_config(4);
    let mapping = map_network(&scenario.net, None, MappingApproach::Top2, &cfg);
    let window = mll_window(&scenario, &mapping.partition.assignment);

    let end = SimTime::from_secs(3);
    let (app, events) = scenario.make_app();
    let mut builder = NetSimBuilder::new(scenario.net.clone(), scenario.resolver.clone());
    builder.add_initial_events(events);

    let plain = builder.run_sequential(app.clone(), end);
    let scoring = Scoring {
        window,
        assignment: &mapping.partition.assignment,
        partitions: 4,
    };
    let windowed = builder
        .run_sequential_windowed(app, end, &[scoring])
        .expect("the mapping covers every LP");
    let stats = &windowed.stats[0];

    assert_eq!(plain.stats.total_events, stats.total_events);
    assert_eq!(plain.profile, windowed.profile);
    // Windowed bookkeeping is consistent.
    let by_window: u64 = stats.bucket_totals.iter().sum();
    let by_partition: u64 = stats.partition_totals.iter().sum();
    assert_eq!(by_window, stats.total_events);
    assert_eq!(by_partition, stats.total_events);
    assert!(stats.critical_path_events() <= stats.total_events);
    assert!(
        stats.critical_path_events() * 4 >= stats.total_events,
        "critical path cannot beat perfect 4-way speedup"
    );
}
