//! Golden fingerprints of the generated networks.
//!
//! The generators' preferential attachment draws targets through
//! `massf_topology`'s Fenwick-tree sampler; the values below were
//! recorded from the commit that still rescanned every earlier router
//! per link. A generator change that moves one link, latency, bandwidth
//! or coordinate — and with it every digest downstream — fails here
//! first, by configuration.

use massf_core::prelude::*;
use massf_snapshot::wire::fnv1a64;
use massf_topology::{generate_flat_network, generate_multi_as_network, Network};

/// FNV-1a over link endpoints, latency/bandwidth bits and node
/// positions, in storage order.
fn fingerprint(net: &Network) -> u64 {
    let mut bytes = Vec::new();
    let mut eat = |x: u64| bytes.extend_from_slice(&x.to_le_bytes());
    for l in &net.links {
        eat(u64::from(l.a.0));
        eat(u64::from(l.b.0));
        eat(l.latency_ms.to_bits());
        eat(l.bandwidth_bps.to_bits());
    }
    for n in &net.nodes {
        eat(n.position.x.to_bits());
        eat(n.position.y.to_bits());
    }
    fnv1a64(&bytes)
}

#[test]
fn flat_networks_match_the_linear_scan_generator() {
    let golden = [
        (Scale::Tiny, 2004u64, 0x1c78_dcfd_6f5a_fa81u64),
        (Scale::Tiny, 7, 0xc323_d8e7_0188_0811),
        (Scale::Small, 2004, 0x7f8d_6462_a132_1f2b),
        (Scale::Small, 7, 0x8c09_dcae_94a1_4807),
        (Scale::Medium, 2004, 0x8b4f_608c_e695_b128),
        (Scale::Medium, 7, 0x3fb7_fd4c_2851_c80d),
    ];
    for (scale, seed, want) in golden {
        let got = fingerprint(&generate_flat_network(&scale.flat_config(seed)));
        assert_eq!(got, want, "{scale:?} seed {seed}: got {got:#018x}");
    }
}

#[test]
fn multi_as_network_matches_the_linear_scan_generator() {
    for (scale, seed, want) in [
        (Scale::Small, 2004u64, 0x6a87_3332_cfd9_db0cu64),
        (Scale::Medium, 7, 0x59e5_34a7_aef6_f6f3),
    ] {
        let got = fingerprint(&generate_multi_as_network(&scale.multi_as_config(seed)).network);
        assert_eq!(got, want, "{scale:?} seed {seed}: got {got:#018x}");
    }
}

/// `map_network` at the default `MappingConfig` on both tiny worlds,
/// seed 2004: per approach, the FNV-1a of the assignment's
/// little-endian bytes and the bits of the achieved MLL and of the
/// winning threshold. PROF-family approaches map on the profile of
/// `run_profiling`. A partitioner, weighting or evaluation change that
/// moves one node fails here, before any figure moves.
#[test]
fn mappers_match_the_recorded_assignments() {
    type Row = (&'static str, u64, u64, Option<u64>);
    let golden: [(ScenarioKind, [Row; 8]); 2] = [
        (
            ScenarioKind::SingleAs,
            [
                ("TOP", 0x4801_ab27_7622_d337, 0x3fd0_8f01_6d88_7075, None),
                ("TOP2", 0x1336_9d5b_c7d4_1105, 0x4006_4012_2e9d_2d30, None),
                ("PROF", 0x5af6_c7d5_dfef_7b44, 0x3fb2_851c_4685_8707, None),
                ("PROF2", 0x2eff_22bd_ffa3_25e4, 0x4007_8f5b_b292_977a, None),
                (
                    "HTOP",
                    0x215b_e7fd_3554_e174,
                    0x401d_a93d_76f1_690e,
                    Some(0x401d_3333_3333_3334),
                ),
                (
                    "HPROF",
                    0x5986_7a41_97cf_f264,
                    0x401d_1eba_8abf_41fe,
                    Some(0x4015_3333_3333_3334),
                ),
                ("RANDOM", 0x08f1_1bd9_c39b_10e6, 0x3f84_7ae1_47ae_147b, None),
                (
                    "KCLUSTER",
                    0xed00_4b54_bd66_f196,
                    0x3faf_63b1_75bf_857d,
                    None,
                ),
            ],
        ),
        (
            ScenarioKind::MultiAs,
            [
                ("TOP", 0xdcfe_5b27_332a_6da4, 0x3fe7_5c83_7b59_561f, None),
                ("TOP2", 0xbea4_c637_5100_f427, 0x3ff5_e78e_3238_d3e0, None),
                ("PROF", 0x79fa_88ef_025f_9a95, 0x3fa1_e711_2cac_a803, None),
                ("PROF2", 0x92ae_0137_f7bf_5464, 0x3fe6_b552_26ef_9188, None),
                (
                    "HTOP",
                    0xc4cd_be4c_4f18_f005,
                    0x4025_0999_6c71_e510,
                    Some(0x3fd3_3333_3333_3334),
                ),
                (
                    "HPROF",
                    0x96af_bed9_f65d_0fb4,
                    0x3fe6_af0f_ab25_246a,
                    Some(0x3fd3_3333_3333_3334),
                ),
                ("RANDOM", 0x428b_cd1d_6367_9d54, 0x3f84_7ae1_47ae_147b, None),
                (
                    "KCLUSTER",
                    0x53df_b145_0e51_c1d4,
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
    let cfg = MappingConfig::new(4);
    for (kind, want) in golden {
        let workload = match kind {
            ScenarioKind::SingleAs => WorkloadKind::ScaLapack,
            ScenarioKind::MultiAs => WorkloadKind::GridNpb,
        };
        let scenario = Scenario::build(kind, Scale::Tiny, workload, 2004);
        let profile = run_profiling(&scenario, SimTime::from_secs(2)).profile;
        let got: Vec<Row> = approaches
            .iter()
            .map(|&approach| {
                let m = map_network(&scenario.net, Some(&profile), approach, &cfg);
                let bytes: Vec<u8> = m
                    .partition
                    .assignment
                    .iter()
                    .flat_map(|a| a.to_le_bytes())
                    .collect();
                (
                    approach.label(),
                    fnv1a64(&bytes),
                    m.achieved_mll_ms.to_bits(),
                    m.tmll_ms.map(f64::to_bits),
                )
            })
            .collect();
        let listing: String = got
            .iter()
            .map(|(label, h, mll, tmll)| {
                let tmll = tmll.map_or("None".into(), |t| format!("Some({t:#x})"));
                format!("\n    ({label:?}, {h:#x}, {mll:#x}, {tmll}),")
            })
            .collect();
        assert_eq!(got, want, "{kind:?}: got{listing}");
    }
}
