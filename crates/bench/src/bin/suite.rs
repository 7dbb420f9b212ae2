//! Run the complete evaluation — Figures 6–13 — in one pass (per world
//! × workload, one profiling run and one measured run scored against
//! every approach's mapping, reused for all four metrics) and print
//! every figure plus the paper's quoted relative improvements.

use massf_bench::{print_figure, print_improvements, run_suite, HarnessOptions};
use massf_core::prelude::*;

fn main() {
    let opts = HarnessOptions::from_env();
    for (kind, figs) in [
        (ScenarioKind::SingleAs, ["6", "7", "8", "9"]),
        (ScenarioKind::MultiAs, ["10", "11", "12", "13"]),
    ] {
        let rows = run_suite(kind, &opts, &MappingApproach::paper_six());
        let world = match kind {
            ScenarioKind::SingleAs => "Single-AS",
            ScenarioKind::MultiAs => "Multi-AS",
        };
        let four: Vec<_> = rows
            .iter()
            .filter(|r| MappingApproach::paper_four().contains(&r.approach))
            .cloned()
            .collect();
        print_figure(
            &format!(
                "Figure {}: Simulation Time on the {world} Network (scale {:?}, {} engines)",
                figs[0],
                opts.scale,
                opts.engines()
            ),
            &four,
            "T [s, modeled]",
            |m| m.simulation_time_secs,
        );
        print_figure(
            &format!("Figure {}: Achieved MLL on the {world} Network", figs[1]),
            &rows,
            "MLL [ms]",
            |m| m.achieved_mll_ms,
        );
        print_figure(
            &format!("Figure {}: Load Imbalance on the {world} Network", figs[2]),
            &four,
            "imbalance",
            |m| m.load_imbalance,
        );
        print_figure(
            &format!(
                "Figure {}: Parallel Efficiency on the {world} Network",
                figs[3]
            ),
            &four,
            "PE",
            |m| m.parallel_efficiency,
        );
        print_improvements(&rows);
    }
}
