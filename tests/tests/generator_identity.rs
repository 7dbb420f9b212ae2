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
