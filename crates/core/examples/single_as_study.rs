//! The paper's Section 4 study in miniature: compare every mapping
//! approach on a flat single-AS OSPF network and print the four
//! evaluation metrics side by side.
//!
//! ```sh
//! cargo run --release -p massf-core --example single_as_study
//! ```

use massf_core::prelude::*;

fn main() {
    let scenario = Scenario::build(
        ScenarioKind::SingleAs,
        Scale::Tiny,
        WorkloadKind::ScaLapack,
        2004,
    );
    let engines = 6;
    let cfg = MappingConfig::new(engines);
    let model = ClusterModel::default();
    let duration = SimTime::from_secs(5);

    // One profiling run shared by the PROF-family approaches, as the
    // paper's methodology does, and one measured run scored against
    // every mapping.
    let outputs = run_approaches(
        &scenario,
        &[
            MappingApproach::Top,
            MappingApproach::Top2,
            MappingApproach::Prof,
            MappingApproach::Prof2,
            MappingApproach::Htop,
            MappingApproach::Hprof,
            MappingApproach::GreedyKCluster,
            MappingApproach::Random,
        ],
        &cfg,
        &model,
        duration,
    );

    println!(
        "single-AS network: {} routers / {} hosts on {} engines\n",
        scenario.net.router_count(),
        scenario.net.host_count(),
        engines
    );
    println!(
        "{:<10} {:>10} {:>12} {:>12} {:>8} {:>10}",
        "approach", "MLL[ms]", "T[s]", "imbalance", "PE", "Tmll[ms]"
    );
    for out in outputs {
        println!(
            "{:<10} {:>10.3} {:>12.3} {:>12.3} {:>8.3} {:>10}",
            out.approach.label(),
            out.metrics.achieved_mll_ms,
            out.metrics.simulation_time_secs,
            out.metrics.load_imbalance,
            out.metrics.parallel_efficiency,
            out.mapping
                .tmll_ms
                .map(|t| format!("{t:.1}"))
                .unwrap_or_else(|| "-".into()),
        );
    }
    println!("\n(The hierarchical approaches guarantee MLL ≥ Tmll by merging");
    println!("all faster links before partitioning — Section 3.4 of the paper.)");
}
