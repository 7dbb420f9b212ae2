//! Graph preparation (the paper's Figure 4): turn a network plus traffic
//! information into the weighted graph handed to the partitioner.
//!
//! Vertex weights estimate per-node simulation load; edge weights
//! express the reluctance to cut a link. "In TOP and PROF mappings, the
//! link latency is converted to edge weight of the graph G, and smaller
//! link latency leads to a larger edge weight" (Section 3.4.2). The
//! `Tuned` conversion is the Section 4.3 adjustment ("TOP2"/"PROF2"):
//! steeper, so the partitioner avoids cutting small-latency links — a
//! manual, topology-specific fix the hierarchical approach supersedes.

use massf_netsim::ProfileData;
use massf_partition::WeightedGraph;
use massf_topology::Network;

/// How vertex weights (estimated load) are derived.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VertexWeighting {
    /// TOP: total bandwidth in and out of the node.
    Bandwidth,
    /// PROF: measured kernel events per node from a profiling run.
    Profile,
}

/// How link latency becomes edge weight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeWeighting {
    /// `w = K / latency` — the original TOP/PROF conversion.
    Standard,
    /// `w = (K / latency)²` — the hand-tuned steeper conversion of
    /// Section 4.3 (TOP2/PROF2), making sub-threshold-latency links
    /// effectively uncuttable.
    Tuned,
}

/// Reference latency for the conversions, ms: a link of this latency has
/// edge weight [`EDGE_WEIGHT_SCALE`].
const REFERENCE_LATENCY_MS: f64 = 1.0;
/// Weight of a reference-latency link.
const EDGE_WEIGHT_SCALE: f64 = 64.0;
/// The tuned conversion's knee, ms: links faster than this get an extra
/// prohibitive multiplier. The paper tuned TOP2/PROF2 by hand until the
/// partitioner stopped cutting links below roughly the synchronization
/// cost (the achieved MLL in Figures 7/11 is ≈ 0.6 ms); 0.7 ms encodes
/// that hand-tuning. "It is not a general solution and has to be done
/// according \[to\] different topologies manually" (Section 4.3) — the
/// hierarchical approaches replace it.
pub const TUNED_KNEE_MS: f64 = 0.7;
/// Penalty factor applied below the knee.
const TUNED_PENALTY: f64 = 4096.0;
/// Profile vertex weights are clamped to this multiple of the mean.
pub const PROFILE_WEIGHT_CAP: u64 = 16;

/// Convert one link latency to an edge weight.
#[expect(clippy::float_arithmetic, reason = "a function of one link's latency")]
pub fn edge_weight(latency_ms: f64, weighting: EdgeWeighting) -> u64 {
    debug_assert!(latency_ms > 0.0);
    let ratio = REFERENCE_LATENCY_MS / latency_ms;
    let w = match weighting {
        EdgeWeighting::Standard => EDGE_WEIGHT_SCALE * ratio,
        EdgeWeighting::Tuned => {
            let base = EDGE_WEIGHT_SCALE * ratio;
            if latency_ms < TUNED_KNEE_MS {
                base * TUNED_PENALTY * (TUNED_KNEE_MS / latency_ms)
            } else {
                base
            }
        }
    };
    (w.round() as u64).max(1)
}

/// Build the partitioner input graph. `profile` is required for
/// [`VertexWeighting::Profile`].
///
/// Vertex indices equal node indices in `net`; edges mirror links.
#[expect(
    clippy::float_arithmetic,
    reason = "each vertex weight is a function of one node, computed in index order"
)]
pub fn build_weighted_graph(
    net: &Network,
    vertex: VertexWeighting,
    edge: EdgeWeighting,
    profile: Option<&ProfileData>,
) -> WeightedGraph {
    let vweights: Vec<u64> = match vertex {
        VertexWeighting::Bandwidth => net
            .nodes
            .iter()
            // Scale Mbps so typical weights are O(10²..10⁴); floor 1 so
            // zero-degree nodes stay movable.
            .map(|n| ((net.total_bandwidth(n.id) / 1e6) as u64).max(1))
            .collect(),
        VertexWeighting::Profile => {
            #[expect(
                clippy::expect_used,
                reason = "PROF weighting without profile data is a caller bug the signature cannot express"
            )]
            let p = profile.expect("PROF weighting requires profile data");
            assert_eq!(p.node_packets.len(), net.node_count());
            // Cap the heavy tail: a single node's load beyond a bounded
            // multiple of the mean cannot be split anyway, and uncapped
            // outliers (hot HTTP servers) force the partitioner into
            // balance-driven moves that cut tiny-latency links.
            let mean = (p.total_node_packets() / p.node_packets.len().max(1) as u64).max(1);
            let cap = mean * PROFILE_WEIGHT_CAP;
            p.node_packets.iter().map(|&c| c.clamp(1, cap)).collect()
        }
    };
    let edges: Vec<(u32, u32, u64)> = net
        .links
        .iter()
        .map(|l| (l.a.0, l.b.0, edge_weight(l.latency_ms, edge)))
        .collect();
    WeightedGraph::from_edges(vweights, &edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use massf_topology::{AsId, NodeKind, Point};

    fn two_link_net() -> Network {
        let mut net = Network::new();
        let a = net.add_node(NodeKind::Router, Point::new(0.0, 0.0), AsId(0));
        let b = net.add_node(NodeKind::Router, Point::new(1.0, 0.0), AsId(0));
        let c = net.add_node(NodeKind::Router, Point::new(2.0, 0.0), AsId(0));
        net.add_link(a, b, 1e9, 0.1); // short
        net.add_link(b, c, 2e9, 10.0); // long
        net
    }

    #[test]
    fn smaller_latency_gives_larger_weight() {
        assert!(
            edge_weight(0.1, EdgeWeighting::Standard) > edge_weight(1.0, EdgeWeighting::Standard)
        );
        assert!(
            edge_weight(1.0, EdgeWeighting::Standard) > edge_weight(10.0, EdgeWeighting::Standard)
        );
    }

    #[test]
    fn tuned_is_steeper_than_standard() {
        let s_ratio = edge_weight(0.1, EdgeWeighting::Standard) as f64
            / edge_weight(1.0, EdgeWeighting::Standard) as f64;
        let t_ratio = edge_weight(0.1, EdgeWeighting::Tuned) as f64
            / edge_weight(1.0, EdgeWeighting::Tuned) as f64;
        assert!(
            t_ratio > s_ratio * 5.0,
            "tuned {t_ratio} vs standard {s_ratio}"
        );
    }

    #[test]
    fn weights_never_zero() {
        assert!(edge_weight(1e6, EdgeWeighting::Standard) >= 1);
        assert!(edge_weight(1e6, EdgeWeighting::Tuned) >= 1);
    }

    #[test]
    fn bandwidth_vertex_weights() {
        let net = two_link_net();
        let g = build_weighted_graph(
            &net,
            VertexWeighting::Bandwidth,
            EdgeWeighting::Standard,
            None,
        );
        assert_eq!(g.vertex_count(), 3);
        assert_eq!(g.edge_count(), 2);
        // b touches 1+2 Gbps = 3000 Mbps; a touches 1000.
        assert_eq!(g.vertex_weight(0), 1000);
        assert_eq!(g.vertex_weight(1), 3000);
        assert_eq!(g.vertex_weight(2), 2000);
    }

    #[test]
    fn profile_vertex_weights() {
        let net = two_link_net();
        let mut p = ProfileData::new(3, 2);
        p.node_packets = vec![100, 0, 7];
        let g = build_weighted_graph(
            &net,
            VertexWeighting::Profile,
            EdgeWeighting::Standard,
            Some(&p),
        );
        assert_eq!(g.vertex_weight(0), 100);
        assert_eq!(g.vertex_weight(1), 1, "zero-load nodes floored to 1");
        assert_eq!(g.vertex_weight(2), 7);
    }

    #[test]
    #[should_panic(expected = "requires profile data")]
    fn profile_weighting_needs_profile() {
        let net = two_link_net();
        build_weighted_graph(
            &net,
            VertexWeighting::Profile,
            EdgeWeighting::Standard,
            None,
        );
    }
}
