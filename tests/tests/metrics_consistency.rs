//! Cross-checks between independently computed quantities: the metrics
//! pipeline, the cluster model, and raw engine statistics must agree
//! with each other on the same run.

use massf_core::prelude::*;
use massf_integration::{tiny_mapping_config, tiny_single_as};

fn experiment() -> (MappingConfig, ExperimentOutput) {
    let scenario = tiny_single_as(61);
    let cfg = tiny_mapping_config(4);
    let out = run_mapping_experiment(
        &scenario,
        MappingApproach::Htop,
        &cfg,
        &ClusterModel::default(),
        SimTime::from_secs(2),
    );
    (cfg, out)
}

#[test]
fn engine_lp_counts_and_partition_totals_agree() {
    let (_, out) = experiment();
    let stats = &out.run_stats;
    // Summing LP events by partition must equal the windowed
    // partition totals — two independent accounting paths.
    let mut by_partition = vec![0u64; out.mapping.partition.k];
    for (lp, &c) in stats.lp_events.iter().enumerate() {
        by_partition[out.mapping.partition.assignment[lp] as usize] += c;
    }
    assert_eq!(by_partition, stats.partition_totals);
}

#[test]
fn netsim_packet_counts_bound_engine_events() {
    let (_, out) = experiment();
    // Every packet arrival is an engine event; timers and app events
    // add more, so: node_packets ≤ lp_events, per LP.
    for (lp, (&packets, &events)) in out
        .run_profile
        .node_packets
        .iter()
        .zip(&out.run_stats.lp_events)
        .enumerate()
    {
        assert!(
            packets <= events,
            "LP {lp}: {packets} packets > {events} events"
        );
    }
    // And globally packets dominate (packet-level simulation).
    assert!(out.run_profile.total_node_packets() * 2 > out.run_stats.total_events);
}

#[test]
fn predicted_time_bounds_are_sane() {
    let (cfg, out) = experiment();
    let model = ClusterModel::default();
    let stats = &out.run_stats;
    let t = model.predicted_time_secs(stats, cfg.engines);
    let tseq = model.sequential_time_secs(stats);
    // Parallel time can never beat Tseq / N, and never exceeds Tseq
    // plus total synchronization.
    let sync_total = stats.n_windows as f64 * model.sync.cost_us(cfg.engines) * 1e-6;
    assert!(t >= tseq / cfg.engines as f64 - 1e-9);
    assert!(t <= tseq + sync_total + 1e-9);
    // PE = Tseq/(N·T) in [0, 1].
    let pe = model.parallel_efficiency(stats, cfg.engines);
    assert!((0.0..=1.0 + 1e-9).contains(&pe));
}

#[test]
fn evaluation_ec_tracks_measured_imbalance_direction() {
    // The static Ec estimate and the measured load imbalance must agree
    // at the extremes: compare a good mapping against random.
    let scenario = tiny_single_as(67);
    let cfg = tiny_mapping_config(4);
    let model = ClusterModel::default();
    let good = run_mapping_experiment(
        &scenario,
        MappingApproach::Htop,
        &cfg,
        &model,
        SimTime::from_secs(2),
    );
    let bad = run_mapping_experiment(
        &scenario,
        MappingApproach::Random,
        &cfg,
        &model,
        SimTime::from_secs(2),
    );
    // Random cuts everything: far smaller MLL.
    assert!(good.metrics.achieved_mll_ms > bad.metrics.achieved_mll_ms * 3.0);
    // And the static efficiency score must rank them the same way.
    assert!(good.mapping.evaluation.e > bad.mapping.evaluation.e);
}
