//! Online re-partitioning study: how much load imbalance does the
//! epoch-cadenced rebalancer (`massf_snapshot::Session::run_rebalancing`)
//! recover when the traffic pattern drifts away from the static HPROF
//! mapping it started on (BENCH_rebalance.json)?
//!
//! [`massf_bench::rebalance_study`] builds the two drifting scenarios
//! and runs a static and an adaptive driver over each, both asserted
//! bit-identical to one sequential reference (the speedup compares
//! equal answers; the decision signal is per-LP event counts, never
//! wall-clock). The headline metric is aggregate max/mean partition
//! load permille (`RebalanceOutcome::aggregate_imbalance_permille`):
//! each barrier window costs its busiest partition, so this ratio is
//! the parallel time a cluster would pay. Critical-path event counts
//! (`ExecutionStats::critical_path_events`) are reported alongside as
//! the schedule-independent proxy. `crates/bench/tests/rebalance_study.rs`
//! checks the recovery at `--scale tiny`.
//!
//! Takes the shared harness flags only; the rebalancer runs at
//! `RebalanceConfig::default()` (500 ms epochs, rebalance when the
//! busiest partition exceeds 1.2x the mean, at most 64 moves an epoch).

use massf_bench::rebalance_study::{run, ScenarioReport, StudyConfig};
use massf_bench::HarnessOptions;
use massf_core::prelude::*;
use massf_engine::RebalanceConfig;

fn report_scenario(r: &ScenarioReport) {
    let (s, a) = (&r.static_run.outcome, &r.adaptive_run.outcome);
    println!();
    println!("scenario: {}", r.name);
    println!("{:<34} {:>12} {:>12}", "metric", "static", "adaptive");
    println!(
        "{:<34} {:>12} {:>12}",
        "max/mean load (permille)",
        r.static_run.imbalance(),
        r.adaptive_run.imbalance()
    );
    println!(
        "{:<34} {:>12} {:>12}",
        "critical-path events", s.critical_path_events, a.critical_path_events
    );
    println!("{:<34} {:>12} {:>12}", "epochs", s.epochs, a.epochs);
    println!(
        "{:<34} {:>12} {:>12}",
        "rebalances", s.rebalances, a.rebalances
    );
    println!(
        "{:<34} {:>12} {:>12}",
        "LP migrations", s.migrations, a.migrations
    );
    println!(
        "{:<34} {:>12} {:>12}",
        "windows executed", s.windows_executed, a.windows_executed
    );
    let moved = r
        .static_run
        .final_assignment
        .iter()
        .zip(&r.adaptive_run.final_assignment)
        .filter(|(x, y)| x != y)
        .count();
    println!(
        "{:<34} {:>12} {:>12}",
        "LPs off the initial mapping", 0, moved
    );
    println!("{:<34} {:>11.2}x", "imbalance improvement", r.improvement());
}

fn main() {
    let harness = HarnessOptions::from_env();
    let cfg = StudyConfig {
        scale: harness.scale,
        seed: harness.seed,
        engines: harness.engines(),
        duration: harness.scale.run_duration().max(SimTime::from_secs(10)),
        rebalance: RebalanceConfig::default(),
        flaps: 12,
    };
    let (net, reports) = run(&cfg);

    println!("== rebalance_study ({:?}, seed {}) ==", cfg.scale, cfg.seed);
    println!(
        "network: {} nodes / {} links, {} partitions, {:.0}s run, \
         epoch {:.0} ms, threshold {} permille, {} moves/epoch",
        net.node_count(),
        net.links.len(),
        cfg.engines,
        cfg.duration.as_secs_f64(),
        cfg.rebalance.epoch.as_ms_f64(),
        cfg.rebalance.threshold_permille,
        cfg.rebalance.max_moves
    );
    for r in &reports {
        report_scenario(r);
    }
}
