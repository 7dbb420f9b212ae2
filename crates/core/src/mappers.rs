//! The unified mapping front-end: TOP, TOP2, PROF, PROF2, HTOP, HPROF,
//! plus the related-work baselines (random, ModelNet greedy k-cluster).

use crate::evaluate::{efficiency, PartitionEvaluation};
use crate::hier::{hierarchical_partition, reduce_graph};
use crate::weights::{build_weighted_graph, EdgeWeighting, VertexWeighting, TUNED_KNEE_MS};
use massf_engine::SyncCostModel;
use massf_netsim::ProfileData;
use massf_partition::{greedy_kcluster, metis_kway, random_partition, KwayConfig, Partition, SEED};
use massf_topology::Network;

/// The mapping approaches evaluated in the paper (plus baselines).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MappingApproach {
    /// Topology-based (Section 3.3), standard latency conversion.
    Top,
    /// TOP with the hand-tuned steeper conversion (Section 4.3).
    Top2,
    /// Profile-based (Section 3.3), standard conversion.
    Prof,
    /// PROF with the tuned conversion.
    Prof2,
    /// Hierarchical topology-based (Section 3.4).
    Htop,
    /// Hierarchical profile-based — the paper's best.
    Hprof,
    /// Uniform random assignment (baseline).
    Random,
    /// ModelNet greedy k-cluster (related work, Section 6).
    GreedyKCluster,
}

impl MappingApproach {
    /// The four approaches of the paper's main figures.
    pub fn paper_four() -> [MappingApproach; 4] {
        [
            MappingApproach::Hprof,
            MappingApproach::Prof2,
            MappingApproach::Htop,
            MappingApproach::Top2,
        ]
    }

    /// The six approaches of the MLL figures (7 and 11).
    pub fn paper_six() -> [MappingApproach; 6] {
        [
            MappingApproach::Hprof,
            MappingApproach::Prof2,
            MappingApproach::Htop,
            MappingApproach::Top2,
            MappingApproach::Prof,
            MappingApproach::Top,
        ]
    }

    /// Figure label.
    pub fn label(self) -> &'static str {
        match self {
            MappingApproach::Top => "TOP",
            MappingApproach::Top2 => "TOP2",
            MappingApproach::Prof => "PROF",
            MappingApproach::Prof2 => "PROF2",
            MappingApproach::Htop => "HTOP",
            MappingApproach::Hprof => "HPROF",
            MappingApproach::Random => "RANDOM",
            MappingApproach::GreedyKCluster => "KCLUSTER",
        }
    }

    /// Does the approach need a profiling run first?
    pub fn needs_profile(self) -> bool {
        matches!(
            self,
            MappingApproach::Prof | MappingApproach::Prof2 | MappingApproach::Hprof
        )
    }

    /// Is it one of the hierarchical (Section 3.4) approaches?
    pub fn is_hierarchical(self) -> bool {
        matches!(self, MappingApproach::Htop | MappingApproach::Hprof)
    }
}

/// Configuration shared by all mappers, hierarchical ones included:
/// every mapping setting a caller may vary. The partitioner's others
/// are `massf_partition` constants.
#[derive(Debug, Clone)]
pub struct MappingConfig {
    /// Number of simulation-engine nodes.
    pub engines: usize,
    /// Synchronization-cost model (drives HTOP/HPROF and evaluation).
    pub sync: SyncCostModel,
    /// The multilevel partitioner's refinement passes.
    pub kway: KwayConfig,
    /// HTOP/HPROF sweep step, ms (paper: 0.1).
    pub hier_step_ms: f64,
    /// HTOP/HPROF maximum sweep steps.
    pub hier_max_steps: usize,
}

impl MappingConfig {
    /// Paper-shaped defaults for `engines` engines (METIS-like 5%
    /// balance tolerance; merged-cluster mappers treat it as best
    /// effort).
    pub fn new(engines: usize) -> Self {
        MappingConfig {
            engines,
            sync: SyncCostModel::teragrid(),
            kway: KwayConfig::default(),
            hier_step_ms: 0.1,
            hier_max_steps: 200,
        }
    }
}

/// A completed mapping.
#[derive(Debug, Clone)]
pub struct MappingResult {
    pub approach: MappingApproach,
    /// Node → engine assignment.
    pub partition: Partition,
    /// Achieved minimum link latency across engines, ms
    /// (`f64::INFINITY` when nothing is cut).
    pub achieved_mll_ms: f64,
    /// Static evaluation `E = Es · Ec` of the mapping.
    pub evaluation: PartitionEvaluation,
    /// The winning threshold for hierarchical approaches.
    pub tmll_ms: Option<f64>,
}

/// Map `net` onto `cfg.engines` engines with `approach`. `profile` must
/// be `Some` for the PROF-family approaches.
pub fn map_network(
    net: &Network,
    profile: Option<&ProfileData>,
    approach: MappingApproach,
    cfg: &MappingConfig,
) -> MappingResult {
    let vertex = if approach.needs_profile() {
        VertexWeighting::Profile
    } else {
        VertexWeighting::Bandwidth
    };
    let edge = match approach {
        MappingApproach::Top2 | MappingApproach::Prof2 => EdgeWeighting::Tuned,
        _ => EdgeWeighting::Standard,
    };
    let graph = build_weighted_graph(net, vertex, edge, profile);

    let (partition, tmll_ms) = match approach {
        MappingApproach::Top2 | MappingApproach::Prof2 => {
            // The Section 4.3 manual tuning, in its limit form: the
            // conversion was adjusted until the partitioner no longer cut
            // links below ≈ the synchronization cost (Figures 7/11 show
            // TOP2/PROF2 pinned at ≈ 0.6 ms in both worlds). We realize
            // that limit by pre-merging all links faster than the fixed
            // knee — one threshold, hand-picked, with none of HPROF's
            // sweep or E-evaluation.
            let (reduced, labels) = reduce_graph(net, &graph, TUNED_KNEE_MS);
            let reduced_partition = metis_kway(&reduced, cfg.engines, &cfg.kway);
            let assignment: Vec<u32> = labels
                .iter()
                .map(|&c| reduced_partition.assignment[c as usize])
                .collect();
            (Partition::new(assignment, cfg.engines), None)
        }
        MappingApproach::Htop | MappingApproach::Hprof => {
            let r = hierarchical_partition(net, &graph, cfg);
            (r.partition, Some(r.tmll_ms))
        }
        MappingApproach::Random => (random_partition(net.node_count(), cfg.engines, SEED), None),
        MappingApproach::GreedyKCluster => (greedy_kcluster(&graph, cfg.engines, SEED), None),
        _ => (metis_kway(&graph, cfg.engines, &cfg.kway), None),
    };

    let evaluation = efficiency(net, &graph, &partition, cfg.engines, &cfg.sync);
    let mll = net
        .cut_mll_ms(&partition.assignment)
        .unwrap_or(f64::INFINITY);
    MappingResult {
        approach,
        partition,
        achieved_mll_ms: mll,
        evaluation,
        tmll_ms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use massf_topology::{generate_flat_network, FlatTopologyConfig};

    fn net() -> Network {
        generate_flat_network(&FlatTopologyConfig {
            routers: 300,
            hosts: 80,
            ..FlatTopologyConfig::tiny()
        })
    }

    fn fake_profile(net: &Network, hot_every: usize) -> ProfileData {
        let mut p = ProfileData::new(net.node_count(), net.link_count());
        for (i, c) in p.node_packets.iter_mut().enumerate() {
            *c = if i % hot_every == 0 { 1000 } else { 5 };
        }
        p
    }

    #[test]
    fn all_approaches_produce_valid_partitions() {
        let net = net();
        let profile = fake_profile(&net, 7);
        let cfg = MappingConfig::new(6);
        for approach in [
            MappingApproach::Top,
            MappingApproach::Top2,
            MappingApproach::Prof,
            MappingApproach::Prof2,
            MappingApproach::Htop,
            MappingApproach::Hprof,
            MappingApproach::Random,
            MappingApproach::GreedyKCluster,
        ] {
            let r = map_network(&net, Some(&profile), approach, &cfg);
            assert_eq!(r.partition.len(), net.node_count(), "{approach:?}");
            assert_eq!(r.partition.used_parts(), 6, "{approach:?}");
            assert!(r.achieved_mll_ms > 0.0, "{approach:?}");
        }
    }

    #[test]
    fn hierarchical_achieves_larger_mll_than_flat() {
        let net = net();
        let cfg = MappingConfig::new(6);
        let top = map_network(&net, None, MappingApproach::Top, &cfg);
        let htop = map_network(&net, None, MappingApproach::Htop, &cfg);
        assert!(
            htop.achieved_mll_ms > top.achieved_mll_ms,
            "HTOP {} vs TOP {}",
            htop.achieved_mll_ms,
            top.achieved_mll_ms
        );
        assert!(htop.tmll_ms.is_some());
        assert!(top.tmll_ms.is_none());
    }

    #[test]
    fn tuned_conversion_raises_mll_over_standard() {
        // The Section 4.3 observation: TOP2's steeper conversion avoids
        // cutting the smallest-latency links that plain TOP cuts.
        let net = net();
        let cfg = MappingConfig::new(8);
        let top = map_network(&net, None, MappingApproach::Top, &cfg);
        let top2 = map_network(&net, None, MappingApproach::Top2, &cfg);
        assert!(
            top2.achieved_mll_ms >= top.achieved_mll_ms,
            "TOP2 {} vs TOP {}",
            top2.achieved_mll_ms,
            top.achieved_mll_ms
        );
    }

    #[test]
    fn prof_balances_hot_nodes_better_than_top() {
        // Give a skewed profile; PROF should spread estimated load more
        // evenly than TOP does (measured by estimated Ec on the profile
        // weights).
        let net = net();
        let profile = fake_profile(&net, 11);
        let cfg = MappingConfig::new(6);
        let prof = map_network(&net, Some(&profile), MappingApproach::Prof2, &cfg);
        let top = map_network(&net, Some(&profile), MappingApproach::Top2, &cfg);
        // Evaluate both on PROFILE weights (the "true" load).
        let true_graph = build_weighted_graph(
            &net,
            VertexWeighting::Profile,
            EdgeWeighting::Standard,
            Some(&profile),
        );
        let bal = |p: &Partition| p.balance(&true_graph);
        assert!(
            bal(&prof.partition) <= bal(&top.partition) + 0.05,
            "PROF balance {} vs TOP {}",
            bal(&prof.partition),
            bal(&top.partition)
        );
    }

    #[test]
    fn labels_and_flags() {
        assert_eq!(MappingApproach::Hprof.label(), "HPROF");
        assert!(MappingApproach::Hprof.needs_profile());
        assert!(MappingApproach::Hprof.is_hierarchical());
        assert!(!MappingApproach::Top2.needs_profile());
        assert!(!MappingApproach::Prof2.is_hierarchical());
        assert_eq!(MappingApproach::paper_four().len(), 4);
        assert_eq!(MappingApproach::paper_six().len(), 6);
    }
}
