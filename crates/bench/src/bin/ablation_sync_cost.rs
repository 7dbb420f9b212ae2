//! Ablation: how sensitive is the HPROF-vs-TOP2 comparison to the
//! synchronization-cost model (the one exogenous hardware parameter)?
//!
//! Scores both mappings against one measured run, then re-scores the
//! same traces under scaled versions of the Figure-5 model — cheap
//! because the cluster model is applied to recorded per-window traces.
//! Also ablates the per-event cost. This substantiates DESIGN.md's claim that the
//! *orderings* are robust to the calibration constants.

use massf_bench::{HarnessOptions, MeasuredBarriers};
use massf_core::prelude::*;
use massf_netsim::NetSimBuilder;

fn main() {
    let opts = HarnessOptions::from_env();
    let scenario = Scenario::build(
        ScenarioKind::SingleAs,
        opts.scale,
        WorkloadKind::ScaLapack,
        opts.seed,
    );
    let cfg = opts.mapping_config();
    let base_model = opts.cluster_model();
    let duration = opts.scale.run_duration();

    // One measured run scored against both mappings; the mapping itself
    // uses the unscaled sync model (as the real system would have).
    let runs = run_approaches(
        &scenario,
        &[MappingApproach::Top2, MappingApproach::Hprof],
        &cfg,
        &base_model,
        duration,
    );

    println!(
        "== Sync-cost ablation (single-AS {:?}, {} engines) ==",
        opts.scale,
        opts.engines()
    );
    println!(
        "{:>10} {:>12} {:>12} {:>10} | {:>8} {:>8}",
        "C scale", "T_top2[s]", "T_hprof[s]", "HPROF adv", "PE_top2", "PE_hprof"
    );
    for scale in [0.25f64, 0.5, 1.0, 2.0, 4.0] {
        let model = ClusterModel::new(
            SyncCostModel::new(
                base_model.sync.base_us * scale,
                base_model.sync.per_log2_us * scale,
            ),
            base_model.event_cost_us,
        );
        let t: Vec<f64> = runs
            .iter()
            .map(|r| model.predicted_time_secs(&r.run_stats, cfg.engines))
            .collect();
        let pe: Vec<f64> = runs
            .iter()
            .map(|r| model.parallel_efficiency(&r.run_stats, cfg.engines))
            .collect();
        println!(
            "{:>10.2} {:>12.2} {:>12.2} {:>9.1}% | {:>8.3} {:>8.3}",
            scale,
            t[0],
            t[1],
            (1.0 - t[1] / t[0]) * 100.0,
            pe[0],
            pe[1],
        );
    }

    println!("\n== Event-cost ablation (same traces) ==");
    println!(
        "{:>12} {:>12} {:>12} {:>10}",
        "t_event[us]", "T_top2[s]", "T_hprof[s]", "HPROF adv"
    );
    for t_event in [2.0f64, 5.0, 10.0, 20.0, 50.0] {
        let model = ClusterModel::new(base_model.sync, t_event);
        let t: Vec<f64> = runs
            .iter()
            .map(|r| model.predicted_time_secs(&r.run_stats, cfg.engines))
            .collect();
        println!(
            "{:>12.1} {:>12.2} {:>12.2} {:>9.1}%",
            t_event,
            t[0],
            t[1],
            (1.0 - t[1] / t[0]) * 100.0
        );
    }
    println!(
        "\n(HPROF's advantage grows with sync cost and shrinks as event\n\
         processing dominates — but the sign never flips.)"
    );

    // Measured executor sync cost per mapping: re-run each mapping on
    // the real parallel executor with the bench-side barrier observer
    // and put the measured barrier-wait next to the model's
    // n_windows × C(N) term — both the nominal-window version the
    // cluster model uses and the skip-aware windows_executed × C(N)
    // that the fast-forward actually pays.
    let c_n_us = base_model.sync.cost_us(cfg.engines);
    println!(
        "\n== Measured executor sync cost ({} partitions, C(N) = {:.1} us) ==",
        cfg.engines, c_n_us
    );
    println!(
        "{:>8} {:>9} {:>10} {:>9} {:>14} {:>13} {:>13}",
        "mapping", "rounds", "executed", "skipped", "wait/part [us]", "model [us]", "skip-aware"
    );
    for r in &runs {
        if !r.mapping.achieved_mll_ms.is_finite() {
            println!("{:>8?} (nothing cut; no sync needed)", r.approach);
            continue;
        }
        let window = SimTime::from_ms_f64(r.mapping.achieved_mll_ms);
        if window == SimTime::ZERO {
            println!("{:>8?} (cut has zero MLL; skipped)", r.approach);
            continue;
        }
        let (app, events) = scenario.make_app();
        let mut builder = NetSimBuilder::new(scenario.net.clone(), scenario.resolver.clone());
        builder.add_initial_events(events);
        let observer = MeasuredBarriers::new(cfg.engines);
        match builder.try_run_parallel_observed(
            app,
            duration,
            window,
            &r.mapping.partition.assignment,
            cfg.engines,
            &observer,
        ) {
            Ok(out) => {
                let waits = &out.stats.barrier_wait_us;
                let mean = waits.iter().sum::<f64>() / waits.len().max(1) as f64;
                println!(
                    "{:>8?} {:>9} {:>10} {:>9} {:>14.1} {:>13.1} {:>13.1}",
                    r.approach,
                    out.stats.barrier_rounds,
                    out.stats.windows_executed,
                    out.stats.windows_skipped,
                    mean,
                    out.stats.n_windows as f64 * c_n_us,
                    out.stats.windows_executed as f64 * c_n_us,
                );
            }
            Err(e) => println!("{:>8?} run failed: {e}", r.approach),
        }
    }
    println!(
        "(model = n_windows × C(N), the term the cluster model charges;\n\
         skip-aware = windows_executed × C(N), what the overhauled executor\n\
         pays after fast-forwarding empty windows. The measured wait column\n\
         is host scheduling on this container, not TeraGrid sync.)"
    );
}
