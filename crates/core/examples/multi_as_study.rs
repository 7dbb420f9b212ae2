//! The paper's Section 5 study in miniature: a multi-AS Internet-like
//! network with automatically configured BGP policy routing, evaluated
//! under the same mapping approaches.
//!
//! ```sh
//! cargo run --release -p massf-core --example multi_as_study
//! ```

use massf_core::prelude::*;

fn main() {
    let scenario = Scenario::build(
        ScenarioKind::MultiAs,
        Scale::Tiny,
        WorkloadKind::GridNpb,
        2004,
    );
    println!(
        "multi-AS network: {} ASes, {} routers, {} hosts",
        scenario.net.as_ids().len(),
        scenario.net.router_count(),
        scenario.net.host_count()
    );
    let inter = scenario.net.links.iter().filter(|l| l.inter_as).count();
    println!(
        "links: {} total, {} inter-AS (BGP-routed), {} intra-AS (OSPF-routed)\n",
        scenario.net.link_count(),
        inter,
        scenario.net.link_count() - inter
    );

    let engines = 6;
    let cfg = MappingConfig::new(engines);
    let model = ClusterModel::default();
    let duration = SimTime::from_secs(5);
    let outputs = run_approaches(
        &scenario,
        &MappingApproach::paper_six(),
        &cfg,
        &model,
        duration,
    );

    println!(
        "{:<10} {:>10} {:>12} {:>12} {:>8}",
        "approach", "MLL[ms]", "T[s]", "imbalance", "PE"
    );
    for out in outputs {
        println!(
            "{:<10} {:>10.3} {:>12.3} {:>12.3} {:>8.3}",
            out.approach.label(),
            out.metrics.achieved_mll_ms,
            out.metrics.simulation_time_secs,
            out.metrics.load_imbalance,
            out.metrics.parallel_efficiency,
        );
    }
    println!("\nBGP traffic is less coupled to topology than OSPF traffic, so the");
    println!("multi-AS world shows larger load imbalance — and a bigger win for");
    println!("the profile-based approaches (paper Section 5.2.2).");
}
