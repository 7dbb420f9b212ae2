//! Golden fingerprints of the mapper's output.
//!
//! The values below were recorded from the commit before the
//! partitioner's graph contraction and boundary refinement were made
//! cheaper; that change must leave every partition bit-identical. Three
//! layers are pinned, innermost first:
//!
//! - `metis_kway` alone, at k = 2, 8 and 90 on the tiny and small flat
//!   worlds (bandwidth vertex weights, standard edge weights);
//! - every `hierarchical_partition` candidate at k = 2 (threshold,
//!   reduced size, `E` and MLL bits) plus the winner's assignment, for
//!   HTOP and HPROF on the small flat and multi-AS worlds;
//! - `map_network` for all eight approaches on both tiny worlds at k = 2.
//!
//! The PROF-family weights come from `run_profiling`'s profile.

use massf_core::prelude::*;
use massf_core::HierResult;
use massf_netsim::ProfileData;
use massf_snapshot::wire::fnv1a64;

const SEED: u64 = 2004;

/// FNV-1a of an assignment's little-endian bytes.
fn assignment_hash(assignment: &[u32]) -> u64 {
    let bytes: Vec<u8> = assignment.iter().flat_map(|a| a.to_le_bytes()).collect();
    fnv1a64(&bytes)
}

/// The scenario of `kind` at `scale`, with the workload the figures pair
/// it with.
fn scenario(kind: ScenarioKind, scale: Scale) -> Scenario {
    let workload = match kind {
        ScenarioKind::SingleAs => WorkloadKind::ScaLapack,
        ScenarioKind::MultiAs => WorkloadKind::GridNpb,
    };
    Scenario::build(kind, scale, workload, SEED)
}

fn profile(scenario: &Scenario) -> ProfileData {
    run_profiling(scenario, SimTime::from_secs(2)).profile
}

#[test]
fn metis_kway_matches_the_recorded_partitions() {
    let golden: [(Scale, usize, u64, u64); 6] = [
        (Scale::Tiny, 2, 0xc9a9_0e06_9006_e965, 358),
        (Scale::Tiny, 8, 0x3f6a_44f9_a545_2557, 2162),
        (Scale::Tiny, 90, 0x66d0_6eac_5768_6320, 19139),
        (Scale::Small, 2, 0xaf79_7af1_63fd_b7d4, 1190),
        (Scale::Small, 8, 0xaf57_e7d6_47eb_b811, 2481),
        (Scale::Small, 90, 0x1b1d_d1bd_79c3_4678, 11150),
    ];
    let mut got = Vec::new();
    for scale in [Scale::Tiny, Scale::Small] {
        let net = scenario(ScenarioKind::SingleAs, scale).net;
        let g = build_weighted_graph(
            &net,
            VertexWeighting::Bandwidth,
            EdgeWeighting::Standard,
            None,
        );
        for k in [2, 8, 90] {
            let p = metis_kway(&g, k, &KwayConfig::default());
            got.push((scale, k, assignment_hash(&p.assignment), p.edge_cut(&g)));
        }
    }
    let listing: String = got
        .iter()
        .map(|(scale, k, h, cut)| format!("\n    (Scale::{scale:?}, {k}, {h:#x}, {cut}),"))
        .collect();
    assert_eq!(got, golden, "got{listing}");
}

/// FNV-1a over every candidate's threshold, reduced size, `E` and MLL
/// bits, then the winner's threshold bits and assignment hash.
fn sweep_fingerprint(r: &HierResult) -> u64 {
    let mut bytes = Vec::new();
    let mut eat = |x: u64| bytes.extend_from_slice(&x.to_le_bytes());
    for c in &r.candidates {
        eat(c.tmll_ms.to_bits());
        eat(c.reduced_vertices as u64);
        eat(c.evaluation.e.to_bits());
        eat(c.evaluation.mll_ms.to_bits());
    }
    eat(r.tmll_ms.to_bits());
    eat(assignment_hash(&r.partition.assignment));
    fnv1a64(&bytes)
}

#[test]
fn hierarchical_sweeps_match_the_recorded_candidates() {
    type Row = (&'static str, &'static str, usize, u64);
    let golden: [Row; 4] = [
        ("SingleAs", "HTOP", 200, 0xcffc_0ba4_0415_1861),
        ("SingleAs", "HPROF", 200, 0x76f3_565b_2b32_a0ac),
        ("MultiAs", "HTOP", 200, 0x68f_27bf_4c59_0bd2),
        ("MultiAs", "HPROF", 200, 0x54f4_f14c_b82a_174c),
    ];
    let cfg = MappingConfig::new(2);
    let mut got: Vec<Row> = Vec::new();
    for (label, kind) in [
        ("SingleAs", ScenarioKind::SingleAs),
        ("MultiAs", ScenarioKind::MultiAs),
    ] {
        let scenario = scenario(kind, Scale::Small);
        let profile = profile(&scenario);
        for (name, vertex, profile) in [
            ("HTOP", VertexWeighting::Bandwidth, None),
            ("HPROF", VertexWeighting::Profile, Some(&profile)),
        ] {
            let g = build_weighted_graph(&scenario.net, vertex, EdgeWeighting::Standard, profile);
            let r = hierarchical_partition(&scenario.net, &g, &cfg);
            got.push((label, name, r.candidates.len(), sweep_fingerprint(&r)));
        }
    }
    let listing: String = got
        .iter()
        .map(|(world, name, n, h)| format!("\n    ({world:?}, {name:?}, {n}, {h:#x}),"))
        .collect();
    assert_eq!(got, golden, "got{listing}");
}

/// Per approach: the assignment hash and the bits of `E`, of the
/// achieved MLL and of the winning threshold.
#[test]
fn mappers_match_the_recorded_assignments_at_two_engines() {
    type Row = (&'static str, u64, u64, u64, Option<u64>);
    let golden: [(ScenarioKind, [Row; 8]); 2] = [
        (
            ScenarioKind::SingleAs,
            [
                (
                    "TOP",
                    0xc9a9_0e06_9006_e965,
                    0x3fed_7aaf_4bd3_39f5,
                    0x4007_8f5b_b292_977a,
                    None,
                ),
                (
                    "TOP2",
                    0xfa5_c843_b251_8d05,
                    0x3fee_65a0_f7c0_1b00,
                    0x401c_c394_96ef_f25b,
                    None,
                ),
                (
                    "PROF",
                    0x726d_2d5f_4566_d1b4,
                    0x3fee_3889_9362_8741,
                    0x401d_a93d_76f1_690e,
                    None,
                ),
                (
                    "PROF2",
                    0x585b_ef6e_ef82_0615,
                    0x3fee_0d96_c4bf_c28c,
                    0x401d_6098_c2d9_e531,
                    None,
                ),
                (
                    "HTOP",
                    0xaf75_29cb_b75b_c115,
                    0x3fef_430e_58b6_9a0d,
                    0x401d_6098_c2d9_e531,
                    Some(0x4004_cccc_cccc_cccd),
                ),
                (
                    "HPROF",
                    0x4233_706d_be81_3f05,
                    0x3fef_529c_3f4d_4d5b,
                    0x401d_1eba_8abf_41fe,
                    Some(0x4008_cccc_cccc_cccd),
                ),
                (
                    "RANDOM",
                    0x90f7_0909_047c_a024,
                    0x0,
                    0x3f84_7ae1_47ae_147b,
                    None,
                ),
                (
                    "KCLUSTER",
                    0x43f8_a070_5e33_dbf4,
                    0x0,
                    0x3fb9_963b_e6fb_72df,
                    None,
                ),
            ],
        ),
        (
            ScenarioKind::MultiAs,
            [
                (
                    "TOP",
                    0x3178_4798_6544_ce25,
                    0x3fee_fafa_6a21_b6e0,
                    0x4033_6a54_f4b6_cd20,
                    None,
                ),
                (
                    "TOP2",
                    0x833f_7780_5f23_b625,
                    0x3fee_e852_6214_23df,
                    0x4025_0999_6c71_e510,
                    None,
                ),
                (
                    "PROF",
                    0x4022_074d_6d7c_e334,
                    0x3fe0_b116_dad3_188f,
                    0x3fca_c316_c9c5_c251,
                    None,
                ),
                (
                    "PROF2",
                    0x20d_c796_16f7_46c5,
                    0x3fe5_9dd2_9ff6_84eb,
                    0x3fe6_af0f_ab25_246a,
                    None,
                ),
                (
                    "HTOP",
                    0xff22_fe39_4b97_d625,
                    0x3fef_9cd4_8a3c_9c9e,
                    0x4033_4f7f_9112_375a,
                    Some(0x3fe9_9999_9999_999a),
                ),
                (
                    "HPROF",
                    0xba48_0267_48cd_1564,
                    0x3fea_7322_ffea_8555,
                    0x3fe6_b552_26ef_9188,
                    Some(0x3fe3_3333_3333_3334),
                ),
                (
                    "RANDOM",
                    0xa5de_2b60_9aeb_f454,
                    0x0,
                    0x3f84_7ae1_47ae_147b,
                    None,
                ),
                (
                    "KCLUSTER",
                    0xc52d_2ef7_91be_8eb4,
                    0x3fa8_1d6f_5bce_c4a6,
                    0x3fbb_44bc_1de2_8dbb,
                    None,
                ),
            ],
        ),
    ];
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
    let cfg = MappingConfig::new(2);
    for (kind, want) in golden {
        let scenario = scenario(kind, Scale::Tiny);
        let profile = profile(&scenario);
        let got: Vec<Row> = approaches
            .iter()
            .map(|&approach| {
                let m = map_network(&scenario.net, Some(&profile), approach, &cfg);
                (
                    approach.label(),
                    assignment_hash(&m.partition.assignment),
                    m.evaluation.e.to_bits(),
                    m.achieved_mll_ms.to_bits(),
                    m.tmll_ms.map(f64::to_bits),
                )
            })
            .collect();
        let listing: String = got
            .iter()
            .map(|(label, h, e, mll, tmll)| {
                let tmll = tmll.map_or("None".into(), |t| format!("Some({t:#x})"));
                format!("\n    ({label:?}, {h:#x}, {e:#x}, {mll:#x}, {tmll}),")
            })
            .collect();
        assert_eq!(got, want, "{kind:?}: got{listing}");
    }
}
