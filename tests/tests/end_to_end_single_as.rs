//! End-to-end pipeline tests on the single-AS world (paper Section 4).

use massf_core::prelude::*;
use massf_integration::{tiny_mapping_config, tiny_single_as};

#[test]
fn every_mapping_approach_completes_the_pipeline() {
    let scenario = tiny_single_as(11);
    let cfg = tiny_mapping_config(4);
    let model = ClusterModel::default();
    let duration = SimTime::from_secs(2);
    let approaches = [
        MappingApproach::Top,
        MappingApproach::Top2,
        MappingApproach::Prof,
        MappingApproach::Prof2,
        MappingApproach::Htop,
        MappingApproach::Hprof,
        MappingApproach::Random,
        MappingApproach::GreedyKCluster,
    ];
    let outputs = run_approaches(&scenario, &approaches, &cfg, &model, duration);
    assert_eq!(outputs.len(), approaches.len());
    for (out, approach) in outputs.into_iter().zip(approaches) {
        assert_eq!(out.approach, approach);
        assert_eq!(
            out.mapping.partition.len(),
            scenario.net.node_count(),
            "{approach:?}"
        );
        assert_eq!(out.mapping.partition.used_parts(), 4, "{approach:?}");
        assert!(out.metrics.achieved_mll_ms > 0.0, "{approach:?}");
        assert!(out.metrics.simulation_time_secs > 0.0, "{approach:?}");
        assert!(
            out.metrics.parallel_efficiency > 0.0 && out.metrics.parallel_efficiency <= 1.0,
            "{approach:?}: PE {}",
            out.metrics.parallel_efficiency
        );
        assert!(out.run_stats.total_events > 500, "{approach:?}");
        // Traffic actually flowed.
        assert!(out.run_profile.completed_flows > 0, "{approach:?}");
    }
}

#[test]
fn hierarchical_mll_guarantee_holds_end_to_end() {
    let scenario = tiny_single_as(5);
    let cfg = tiny_mapping_config(4);
    let model = ClusterModel::default();
    let out = run_mapping_experiment(
        &scenario,
        MappingApproach::Htop,
        &cfg,
        &model,
        SimTime::from_secs(2),
    );
    let tmll = out.mapping.tmll_ms.expect("hierarchical approach");
    assert!(
        out.metrics.achieved_mll_ms >= tmll,
        "MLL {} < winning Tmll {}",
        out.metrics.achieved_mll_ms,
        tmll
    );
    // And no cross-partition link violates it, checked against the raw
    // topology.
    let assignment = &out.mapping.partition.assignment;
    for link in &scenario.net.links {
        if assignment[link.a.index()] != assignment[link.b.index()] {
            assert!(
                link.latency_ms >= tmll,
                "cut link with latency {} < Tmll {}",
                link.latency_ms,
                tmll
            );
        }
    }
}

#[test]
fn experiment_is_deterministic() {
    let run = || {
        let scenario = tiny_single_as(23);
        let cfg = tiny_mapping_config(3);
        let out = run_mapping_experiment(
            &scenario,
            MappingApproach::Hprof,
            &cfg,
            &ClusterModel::default(),
            SimTime::from_secs(2),
        );
        (
            out.mapping.partition.assignment.clone(),
            out.run_stats.total_events,
            out.metrics.load_imbalance.to_bits(),
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn profiled_weights_reflect_actual_traffic() {
    let scenario = tiny_single_as(31);
    let profile = run_profiling(&scenario, SimTime::from_secs(2)).profile;
    // Total node packets must be positive and concentrated: the busiest
    // node should be well above the median (heavy-tailed network load).
    let mut counts = profile.node_packets.clone();
    counts.sort_unstable();
    let median = counts[counts.len() / 2];
    let max = *counts.last().expect("profile covers some nodes");
    assert!(max > 0);
    assert!(
        max >= median.max(1) * 5,
        "expected skewed load: median {median}, max {max}"
    );
}

#[test]
fn single_partition_run_has_no_cut_and_full_efficiency_denominator() {
    let scenario = tiny_single_as(3);
    let cfg = tiny_mapping_config(1);
    let out = run_mapping_experiment(
        &scenario,
        MappingApproach::Top,
        &cfg,
        &ClusterModel::default(),
        SimTime::from_secs(1),
    );
    assert!(out.metrics.achieved_mll_ms.is_infinite());
    assert_eq!(out.mapping.partition.used_parts(), 1);
}
