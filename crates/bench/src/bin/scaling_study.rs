//! Engine-count scaling study (the paper's Section 7 outlook: "we will
//! use … a 256-node Itanium-2 Linux cluster"): how simulation time and
//! parallel efficiency move with the number of engines, for HPROF vs
//! TOP2. Shows HPROF's advantage widening as the synchronization cost
//! C(N) grows and partitions get finer.

use massf_bench::HarnessOptions;
use massf_core::prelude::*;

fn main() {
    let opts = HarnessOptions::from_env();
    let scenario = Scenario::build(
        ScenarioKind::SingleAs,
        opts.scale,
        WorkloadKind::ScaLapack,
        opts.seed,
    );
    let model = opts.cluster_model();
    let duration = opts.scale.run_duration();
    let profile = run_profiling(&scenario, duration).profile;

    // Every (engines, approach) mapping, scored against one run.
    let cfgs = [2usize, 4, 8, 16, 32, 64].map(MappingConfig::new);
    let jobs: Vec<(&MappingConfig, MappingApproach)> = cfgs
        .iter()
        .flat_map(|cfg| [(cfg, MappingApproach::Top2), (cfg, MappingApproach::Hprof)])
        .collect();
    let mappings = massf_parutil::par_map(&jobs, |&(cfg, approach)| {
        map_network(&scenario.net, Some(&profile), approach, cfg)
    });
    let outputs = score_mappings(&scenario, mappings, Some(&profile), &model, duration)
        .expect("map_network assigns every node to one of cfg.engines parts");

    println!(
        "== Engine scaling, single-AS {:?} ({} routers) ==",
        opts.scale,
        scenario.net.router_count()
    );
    println!(
        "{:>8} {:>10} | {:>10} {:>8} {:>8} | {:>10} {:>8} {:>8}",
        "engines", "C(N)[us]", "T_top2[s]", "PE", "MLL", "T_hprof[s]", "PE", "MLL"
    );
    for (cfg, pair) in cfgs.iter().zip(outputs.chunks(2)) {
        let (top2, hprof) = (pair[0].metrics, pair[1].metrics);
        println!(
            "{:>8} {:>10.0} | {:>10.2} {:>8.3} {:>8.2} | {:>10.2} {:>8.3} {:>8.2}",
            cfg.engines,
            cfg.sync.cost_us(cfg.engines),
            top2.simulation_time_secs,
            top2.parallel_efficiency,
            top2.achieved_mll_ms,
            hprof.simulation_time_secs,
            hprof.parallel_efficiency,
            hprof.achieved_mll_ms,
        );
    }
    println!(
        "\n(Efficiency falls with N once per-engine work shrinks below the\n\
         barrier cost; HPROF postpones the collapse by holding the MLL up.)"
    );
}
