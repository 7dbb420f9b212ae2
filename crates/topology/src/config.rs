//! Generator configuration.
//!
//! A config holds what callers vary: sizes, the metro count and the
//! seed. The physical settings the paper fixes for both of its networks
//! (Sections 4.2 and 5.2.1) are the constants below. `Default` gives a
//! laptop-scale variant of each network and `tiny` a unit-test one;
//! `massf_core::Scale` builds the figure sizes, the paper's included.

use serde::{Deserialize, Serialize};

/// Side of the square placement area, miles (paper: 5000 mi × 5000 mi).
pub const AREA_MILES: f64 = 5_000.0;
/// Links added per new router during preferential attachment (BRITE's
/// `m`). The resulting mean degree is ≈ 2·m.
pub const LINKS_PER_NEW_ROUTER: usize = 2;
/// Fraction of flat-network routers placed in dense metro clusters
/// (producing the small-latency edges central to the paper's MLL
/// problem).
pub const METRO_FRACTION: f64 = 0.7;
/// Radius of a flat-network metro cluster, miles.
pub const METRO_RADIUS_MILES: f64 = 30.0;
/// Inter-AS links added per new AS in the AS-level power-law graph.
pub const AS_LINKS_PER_NEW_AS: usize = 2;
/// Geographic radius of one AS's router cloud, miles.
pub const AS_RADIUS_MILES: f64 = 120.0;
/// Bound on the share of ASes classified Core (the classification
/// itself is by degree rank; see [`crate::AsGraph::generate`]).
pub const CORE_FRACTION: f64 = 0.10;
/// Flat-network backbone link bandwidth, bits/s (links toward
/// high-degree routers).
pub const FLAT_BACKBONE_BPS: f64 = 2.5e9;
/// Intra-AS backbone link bandwidth, bits/s.
pub const MULTI_AS_BACKBONE_BPS: f64 = 1e9;
/// Inter-AS (provider/peer) link bandwidth, bits/s.
pub const INTER_AS_BPS: f64 = 2.5e9;
/// Edge link bandwidth, bits/s, in both networks.
pub const EDGE_BPS: f64 = 622e6;
/// Host access link bandwidth, bits/s, in both networks.
pub const HOST_BPS: f64 = 100e6;

/// Configuration for the flat (single-AS) BRITE-style generator.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FlatTopologyConfig {
    /// Number of routers.
    pub routers: usize,
    /// Number of hosts, attached to random low-degree routers.
    pub hosts: usize,
    /// Number of metro clusters.
    pub metro_count: usize,
    /// RNG seed.
    pub seed: u64,
}

impl FlatTopologyConfig {
    /// A reduced configuration for unit tests.
    pub fn tiny() -> Self {
        FlatTopologyConfig {
            routers: 120,
            hosts: 40,
            metro_count: 3,
            ..Self::default()
        }
    }
}

impl Default for FlatTopologyConfig {
    fn default() -> Self {
        FlatTopologyConfig {
            routers: 2_000,
            hosts: 1_000,
            metro_count: 40,
            seed: 0x5EED_0001,
        }
    }
}

/// Configuration for the maBrite multi-AS generator.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MultiAsTopologyConfig {
    /// Number of Autonomous Systems.
    pub as_count: usize,
    /// Routers per AS.
    pub routers_per_as: usize,
    /// Total hosts, attached to random routers of Stub ASes.
    pub hosts: usize,
    /// RNG seed.
    pub seed: u64,
}

impl MultiAsTopologyConfig {
    /// A reduced configuration for unit tests.
    pub fn tiny() -> Self {
        MultiAsTopologyConfig {
            as_count: 10,
            routers_per_as: 12,
            hosts: 30,
            ..Self::default()
        }
    }
}

impl Default for MultiAsTopologyConfig {
    fn default() -> Self {
        MultiAsTopologyConfig {
            as_count: 20,
            routers_per_as: 100,
            hosts: 1_000,
            seed: 0x5EED_0002,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_configs_match_section_4_2_and_5_2_1() {
        // Both networks sit on a 5000 mi × 5000 mi area with the same
        // edge and host classes; the sizes are `Scale::Paper`'s.
        assert_eq!(AREA_MILES, 5_000.0);
        assert_eq!(
            (FLAT_BACKBONE_BPS, EDGE_BPS, HOST_BPS),
            (2.5e9, 622e6, 100e6)
        );
        assert_eq!((MULTI_AS_BACKBONE_BPS, INTER_AS_BPS), (1e9, 2.5e9));
    }

    #[test]
    fn configs_implement_serde() {
        fn assert_serde<T: serde::Serialize + for<'a> serde::Deserialize<'a>>(_: &T) {}
        assert_serde(&FlatTopologyConfig::default());
        assert_serde(&MultiAsTopologyConfig::default());
    }
}
