//! The paper's headline claims (Figures 6–13, Section 5) as assertions
//! on the evaluation suite's model outputs: modeled time, achieved MLL,
//! load imbalance and parallel efficiency, never wall clock.
//!
//! Each world runs once, through `massf_bench::run_suite`, the function
//! the `suite` binary calls, at `Scale::Tiny`, seed 2004, one repeat,
//! with all six mappers; every test of a world reads those rows. A
//! failure prints the paper's number beside ours. A claim that does not
//! hold at this scale is `#[ignore]`d with both numbers in its reason;
//! its bound is the paper's and stays so.

use massf_bench::{run_suite, HarnessOptions, SuiteRow};
use massf_core::mappers::MappingApproach;
use massf_core::metrics::ExperimentMetrics;
use massf_core::scenario::{Scale, ScenarioKind, WorkloadKind};
use std::sync::OnceLock;

/// The efficiency the paper reports for HPROF ("about 40 %").
const PAPER_EFFICIENCY: f64 = 0.40;
/// How far from it a run may land and still count as "about 40 %".
const EFFICIENCY_BAND: f64 = 0.10;

/// The suite's rows for `kind`, computed on first use.
fn rows(kind: ScenarioKind) -> &'static [SuiteRow] {
    static SINGLE: OnceLock<Vec<SuiteRow>> = OnceLock::new();
    static MULTI: OnceLock<Vec<SuiteRow>> = OnceLock::new();
    let cell = match kind {
        ScenarioKind::SingleAs => &SINGLE,
        ScenarioKind::MultiAs => &MULTI,
    };
    cell.get_or_init(|| {
        let opts = HarnessOptions {
            scale: Scale::Tiny,
            seed: 2004,
            repeats: 1,
            ..HarnessOptions::default()
        };
        run_suite(kind, &opts, &MappingApproach::paper_six())
    })
}

/// The metrics of one `(workload, approach)` cell of `kind`'s figures.
fn cell(
    kind: ScenarioKind,
    workload: WorkloadKind,
    approach: MappingApproach,
) -> ExperimentMetrics {
    let row = rows(kind)
        .iter()
        .find(|r| (r.workload, r.approach) == (workload, approach));
    row.expect("the suite scores all six mappers on both workloads")
        .metrics
}

const WORKLOADS: [WorkloadKind; 2] = [WorkloadKind::ScaLapack, WorkloadKind::GridNpb];

/// Every row's efficiency is the product of its decomposition: PE =
/// 1 / (static × per-window × (1 + sync)), each imbalance factor ≥ 1,
/// in both worlds; the heaviest LP's share and ρ are positive wherever
/// events ran.
#[test]
fn efficiency_is_the_product_of_its_decomposition() {
    for kind in [ScenarioKind::SingleAs, ScenarioKind::MultiAs] {
        for row in rows(kind) {
            let m = &row.metrics;
            let ctx = format!("{kind:?} {:?} {}", row.workload, row.approach.label());
            let product = 1.0 / (m.static_imbalance * m.window_imbalance * (1.0 + m.sync_share));
            assert!(
                (m.parallel_efficiency - product).abs() < 1e-9,
                "{ctx}: PE {} against 1 / (static {} × per-window {} × (1 + sync {})) = {product}",
                m.parallel_efficiency,
                m.static_imbalance,
                m.window_imbalance,
                m.sync_share
            );
            for (name, factor) in [
                ("static", m.static_imbalance),
                ("per-window", m.window_imbalance),
            ] {
                assert!(
                    factor >= 1.0 - 1e-12,
                    "{ctx}: {name} factor {factor} below 1"
                );
            }
            assert!(m.sync_share >= 0.0, "{ctx}: sync {}", m.sync_share);
            assert!(
                m.heaviest_lp_share > 0.0,
                "{ctx}: heaviest LP {}",
                m.heaviest_lp_share
            );
            assert!(m.rho > 0.0, "{ctx}: ρ {}", m.rho);
        }
    }
}

/// Figures 6 and 10: HPROF's modeled time is below TOP2's; the paper
/// reads ≈ −40 % (115 s against 190 s) single-AS and −41 % (82 s
/// against 140 s) multi-AS.
fn hprof_is_faster_than_top2(kind: ScenarioKind, paper: &str) {
    for workload in WORKLOADS {
        let hprof = cell(kind, workload, MappingApproach::Hprof).simulation_time_secs;
        let top2 = cell(kind, workload, MappingApproach::Top2).simulation_time_secs;
        assert!(
            hprof < top2,
            "{kind:?} {workload:?}: HPROF {hprof:.4} s against TOP2 {top2:.4} s \
             ({:+.1} %); paper: {paper}",
            (hprof / top2 - 1.0) * 100.0
        );
    }
}

#[test]
fn single_as_hprof_is_faster_than_top2() {
    hprof_is_faster_than_top2(ScenarioKind::SingleAs, "≈ 115 s against ≈ 190 s (≈ −40 %)");
}

#[test]
#[ignore = "does not hold at tiny scale: HPROF 3.1255 s against TOP2 3.1220 s on ScaLapack \
            (+0.1 %) and 2.5235 s against 2.1753 s on GridNPB (+16 %); paper ≈ 82 s against \
            ≈ 140 s (−41 %)"]
fn multi_as_hprof_is_faster_than_top2() {
    hprof_is_faster_than_top2(ScenarioKind::MultiAs, "≈ 82 s against ≈ 140 s (−41 %)");
}

/// Figures 7 and 11: a hierarchical mapper's achieved MLL is above its
/// flat counterpart's, HPROF over PROF and HTOP over TOP. The paper
/// reads HPROF ≈ 2.2 ms and HTOP ≈ 3.0 ms against ≈ 0.1–0.3 ms
/// single-AS, and ≈ 1.0 and ≈ 1.2 ms against ≈ 0.15 ms multi-AS.
fn hierarchical_mll_exceeds_flat(kind: ScenarioKind, paper: &str) {
    for workload in WORKLOADS {
        for (hier, flat) in [
            (MappingApproach::Hprof, MappingApproach::Prof),
            (MappingApproach::Htop, MappingApproach::Top),
        ] {
            let h = cell(kind, workload, hier).achieved_mll_ms;
            let f = cell(kind, workload, flat).achieved_mll_ms;
            assert!(
                h > f,
                "{kind:?} {workload:?}: {} MLL {h:.4} ms against {} {f:.4} ms; paper: {paper}",
                hier.label(),
                flat.label()
            );
        }
    }
}

#[test]
fn single_as_hierarchical_mll_exceeds_flat_mll() {
    hierarchical_mll_exceeds_flat(
        ScenarioKind::SingleAs,
        "HPROF ≈ 2.2 ms, HTOP ≈ 3.0 ms against PROF and TOP ≈ 0.1–0.3 ms",
    );
}

#[test]
fn multi_as_hierarchical_mll_exceeds_flat_mll() {
    hierarchical_mll_exceeds_flat(
        ScenarioKind::MultiAs,
        "HPROF ≈ 1.0 ms, HTOP ≈ 1.2 ms against PROF and TOP ≈ 0.15 ms",
    );
}

/// Figures 8 and 12: HPROF's load imbalance is below HTOP's; the paper
/// reads −11 % single-AS and −31 % multi-AS.
fn hprof_is_better_balanced_than_htop(kind: ScenarioKind, paper: &str) {
    for workload in WORKLOADS {
        let hprof = cell(kind, workload, MappingApproach::Hprof).load_imbalance;
        let htop = cell(kind, workload, MappingApproach::Htop).load_imbalance;
        assert!(
            hprof < htop,
            "{kind:?} {workload:?}: HPROF imbalance {hprof:.4} against HTOP {htop:.4} \
             ({:+.1} %); paper: {paper}",
            (hprof / htop - 1.0) * 100.0
        );
    }
}

#[test]
#[ignore = "does not hold at tiny scale on ScaLapack: HPROF imbalance 0.3894 against HTOP \
            0.3409 (+14 %; GridNPB 0.1091 against 0.3172 holds); paper −11 %"]
fn single_as_hprof_is_better_balanced_than_htop() {
    hprof_is_better_balanced_than_htop(ScenarioKind::SingleAs, "−11 %");
}

#[test]
fn multi_as_hprof_is_better_balanced_than_htop() {
    hprof_is_better_balanced_than_htop(ScenarioKind::MultiAs, "−31 %");
}

/// Figures 9 and 13: "HPROF for ScaLapack achieves about 40 % parallel
/// efficiency", read here as `PAPER_EFFICIENCY ± EFFICIENCY_BAND` on
/// both workloads.
fn hprof_efficiency_is_about_forty_percent(kind: ScenarioKind) {
    for workload in WORKLOADS {
        let pe = cell(kind, workload, MappingApproach::Hprof).parallel_efficiency;
        assert!(
            (pe - PAPER_EFFICIENCY).abs() <= EFFICIENCY_BAND,
            "{kind:?} {workload:?}: HPROF efficiency {pe:.4}, outside \
             {PAPER_EFFICIENCY} ± {EFFICIENCY_BAND}; paper: ≈ {PAPER_EFFICIENCY}"
        );
    }
}

#[test]
fn single_as_hprof_efficiency_is_about_forty_percent() {
    hprof_efficiency_is_about_forty_percent(ScenarioKind::SingleAs);
}

#[test]
#[ignore = "does not hold at tiny scale: HPROF efficiency 0.2273 on ScaLapack and 0.1816 on \
            GridNPB; paper ≈ 0.40"]
fn multi_as_hprof_efficiency_is_about_forty_percent() {
    hprof_efficiency_is_about_forty_percent(ScenarioKind::MultiAs);
}
