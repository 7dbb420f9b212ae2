//! The *maBrite* multi-AS generator (paper Section 5.1.2, steps 1–3 and 6).
//!
//! Builds on [`crate::ashier::AsGraph`] for AS-level structure, then:
//!
//! * gives every AS a geographic home region (so intra-AS links are short
//!   and inter-AS links span larger distances — ASes are regional in
//!   practice),
//! * creates a power-law router topology *inside* every AS (step 6a),
//! * realizes each inter-AS adjacency as a link between randomly chosen
//!   border routers of the two ASes,
//! * attaches hosts to routers of Stub ASes only (the paper attaches its
//!   10,000 background/agent hosts to Stub ASes).
//!
//! Routing-policy configuration (steps 4–5) lives in `massf-routing`,
//! driven by the [`AsGraph`] relationships embedded here.

use crate::ashier::AsGraph;
use crate::brite::{attach_hosts, grow_powerlaw_routers, place_points};
use crate::config::{
    MultiAsTopologyConfig, AREA_MILES, AS_LINKS_PER_NEW_AS, AS_RADIUS_MILES, CORE_FRACTION,
    INTER_AS_BPS, MULTI_AS_BACKBONE_BPS,
};
use crate::geom::{link_latency_ms, Point};
use crate::graph::{AsId, Network, NodeId};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

/// A generated multi-AS network together with its AS-level structure.
#[derive(Debug, Clone)]
pub struct MultiAsNetwork {
    /// The full router/host/link graph. Node `as_id`s index into `as_graph`.
    pub network: Network,
    /// AS-level adjacency, classes, and business relationships.
    pub as_graph: AsGraph,
    /// `routers_of[a]` lists the routers of AS `a` in creation order.
    pub routers_of: Vec<Vec<NodeId>>,
}

impl MultiAsNetwork {
    /// Border routers of AS `a` (those terminating an inter-AS link).
    pub fn border_routers(&self, a: usize) -> Vec<NodeId> {
        self.routers_of[a]
            .iter()
            .copied()
            .filter(|&r| self.network.nodes[r.index()].border)
            .collect()
    }
}

/// Generate a multi-AS Internet-like network per the paper's Section 5.2.1
/// setup (100 ASes × 200 routers at paper scale).
pub fn generate_multi_as_network(cfg: &MultiAsTopologyConfig) -> MultiAsNetwork {
    assert!(cfg.as_count >= 3, "need at least 3 ASes");
    assert!(cfg.routers_per_as >= 2, "need at least 2 routers per AS");
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);

    // AS-level structure (steps 1–3).
    let as_graph = AsGraph::generate(
        cfg.as_count,
        AS_LINKS_PER_NEW_AS,
        CORE_FRACTION,
        cfg.seed ^ 0xA5A5_A5A5,
    );

    // Home region per AS: uniform centers over the area. Core ASes sit
    // closer to the middle (long-haul providers), stubs anywhere.
    let centers: Vec<Point> = (0..cfg.as_count)
        .map(|_| {
            Point::new(
                rng.gen_range(0.0..AREA_MILES),
                rng.gen_range(0.0..AREA_MILES),
            )
        })
        .collect();

    let mut network = Network::new();
    let mut routers_of: Vec<Vec<NodeId>> = Vec::with_capacity(cfg.as_count);

    // Per-AS router clouds (step 6a: power law inside each AS).
    for (a, center) in centers.iter().enumerate().take(cfg.as_count) {
        let positions = place_points(
            &mut rng,
            cfg.routers_per_as,
            AS_RADIUS_MILES * 2.0,
            0.8,
            3,
            AS_RADIUS_MILES / 4.0,
        )
        .into_iter()
        .map(|p| {
            Point::new(
                (center.x + p.x - AS_RADIUS_MILES).clamp(0.0, AREA_MILES),
                (center.y + p.y - AS_RADIUS_MILES).clamp(0.0, AREA_MILES),
            )
        })
        .collect::<Vec<_>>();
        let routers = grow_powerlaw_routers(
            &mut network,
            &mut rng,
            &positions,
            AsId(a as u16),
            MULTI_AS_BACKBONE_BPS,
        );
        routers_of.push(routers);
    }

    // Inter-AS links: one physical link per AS-level adjacency, between
    // the highest-degree (hub) routers of each side — real ISPs peer at
    // well-connected POPs. Jitter the choice so multiple adjacencies of
    // one AS do not all land on a single router.
    for e in &as_graph.edges {
        let pick = |routers: &[NodeId], rng: &mut ChaCha8Rng, net: &Network| -> NodeId {
            let mut best: Vec<NodeId> = routers.to_vec();
            best.sort_by_key(|&r| std::cmp::Reverse(net.degree(r)));
            let top = &best[..best.len().min(4)];
            top[rng.gen_range(0..top.len())]
        };
        let ra = pick(&routers_of[e.a], &mut rng, &network);
        let rb = pick(&routers_of[e.b], &mut rng, &network);
        let lat = link_latency_ms(
            &network.nodes[ra.index()].position,
            &network.nodes[rb.index()].position,
        );
        network.add_link(ra, rb, INTER_AS_BPS, lat);
    }

    // Hosts on Stub ASes only.
    let stubs = as_graph.stub_ases();
    if !stubs.is_empty() && cfg.hosts > 0 {
        // Round-robin over stubs with a random remainder so host counts
        // are near-even but not perfectly regular.
        let base = cfg.hosts / stubs.len();
        let mut remainder = cfg.hosts % stubs.len();
        for &a in &stubs {
            let extra = if remainder > 0 {
                remainder -= 1;
                1
            } else {
                0
            };
            let count = base + extra;
            if count > 0 {
                attach_hosts(&mut network, &mut rng, &routers_of[a], count);
            }
        }
    }

    debug_assert!(network.is_connected());
    MultiAsNetwork {
        network,
        as_graph,
        routers_of,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ashier::AsClass;
    use crate::graph::NodeKind;

    fn gen() -> MultiAsNetwork {
        generate_multi_as_network(&MultiAsTopologyConfig::tiny())
    }

    #[test]
    fn produces_requested_shape() {
        let cfg = MultiAsTopologyConfig::tiny();
        let m = gen();
        assert_eq!(m.as_graph.n, cfg.as_count);
        assert_eq!(m.network.router_count(), cfg.as_count * cfg.routers_per_as);
        assert_eq!(m.network.host_count(), cfg.hosts);
    }

    #[test]
    fn network_is_connected() {
        assert!(gen().network.is_connected());
    }

    #[test]
    fn inter_as_links_match_as_graph() {
        let m = gen();
        let inter = m.network.links.iter().filter(|l| l.inter_as).count();
        assert_eq!(inter, m.as_graph.edges.len());
    }

    #[test]
    fn every_as_has_its_routers() {
        let m = gen();
        for (a, routers) in m.routers_of.iter().enumerate() {
            for &r in routers {
                assert_eq!(m.network.nodes[r.index()].as_id, AsId(a as u16));
                assert_eq!(m.network.nodes[r.index()].kind, NodeKind::Router);
            }
        }
    }

    #[test]
    fn hosts_only_on_stub_ases() {
        let m = gen();
        for h in m.network.host_ids() {
            let as_id = m.network.nodes[h.index()].as_id;
            assert_eq!(
                m.as_graph.classes[as_id.0 as usize],
                AsClass::Stub,
                "host {h:?} attached to non-stub AS {as_id:?}"
            );
        }
    }

    #[test]
    fn every_non_isolated_as_has_border_routers() {
        let m = gen();
        for a in 0..m.as_graph.n {
            assert!(
                !m.border_routers(a).is_empty(),
                "AS {a} has no border router"
            );
        }
    }

    #[test]
    fn intra_as_links_shorter_than_typical_inter_as() {
        let m = gen();
        let mean = |iter: &mut dyn Iterator<Item = f64>| -> f64 {
            let v: Vec<f64> = iter.collect();
            v.iter().sum::<f64>() / v.len() as f64
        };
        let intra = mean(
            &mut m
                .network
                .links
                .iter()
                .filter(|l| !l.inter_as)
                .map(|l| l.latency_ms),
        );
        let inter = mean(
            &mut m
                .network
                .links
                .iter()
                .filter(|l| l.inter_as)
                .map(|l| l.latency_ms),
        );
        assert!(
            intra < inter,
            "mean intra-AS latency {intra:.3} ms should be below inter-AS {inter:.3} ms"
        );
    }

    #[test]
    fn deterministic_generation() {
        let a = gen();
        let b = gen();
        assert_eq!(a.network.link_count(), b.network.link_count());
        for (x, y) in a.network.links.iter().zip(&b.network.links) {
            assert_eq!((x.a, x.b), (y.a, y.b));
        }
    }
}
