//! BRITE-style degree-based power-law topology generation.
//!
//! Following BRITE (Medina et al., MASCOTS'01) as adapted by the paper:
//! routers join one at a time and attach `m` links by *preferential
//! attachment* (probability proportional to current degree), which yields
//! a power-law degree distribution (Faloutsos³, SIGCOMM'99). We add the
//! geographic dimension the paper needs: most routers land inside dense
//! metro clusters, so that many links are short (small latency) while the
//! backbone links spanning the 5000-mile area are long. The resulting
//! latency spectrum is exactly what makes flat partitioning achieve a tiny
//! MLL on large networks (Section 3.4.1).

use crate::config::{
    FlatTopologyConfig, AREA_MILES, EDGE_BPS, FLAT_BACKBONE_BPS, HOST_BPS, LINKS_PER_NEW_ROUTER,
    METRO_FRACTION, METRO_RADIUS_MILES,
};
use crate::geom::{link_latency_ms, Point};
use crate::graph::{AsId, Network, NodeId, NodeKind};
use crate::sampler::grow_preferential;
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

/// Place `count` points: a `metro_fraction` share inside randomly-centered
/// metro discs, the rest uniform over the square.
pub(crate) fn place_points(
    rng: &mut impl Rng,
    count: usize,
    area: f64,
    metro_fraction: f64,
    metro_count: usize,
    metro_radius: f64,
) -> Vec<Point> {
    let centers: Vec<Point> = (0..metro_count.max(1))
        .map(|_| Point::new(rng.gen_range(0.0..area), rng.gen_range(0.0..area)))
        .collect();
    (0..count)
        .map(|_| {
            if rng.gen_bool(metro_fraction.clamp(0.0, 1.0)) {
                let c = centers[rng.gen_range(0..centers.len())];
                // Uniform in disc.
                let r = metro_radius * rng.gen::<f64>().sqrt();
                let theta = rng.gen_range(0.0..std::f64::consts::TAU);
                Point::new(
                    (c.x + r * theta.cos()).clamp(0.0, area),
                    (c.y + r * theta.sin()).clamp(0.0, area),
                )
            } else {
                Point::new(rng.gen_range(0.0..area), rng.gen_range(0.0..area))
            }
        })
        .collect()
}

/// Grow a power-law router graph over the given placed positions inside
/// `net`, assigning bandwidth by degree tier: `backbone_bw` toward
/// high-degree routers, [`EDGE_BPS`] elsewhere. Returns the created
/// router ids, in creation order. Used by both the flat generator and
/// (per AS) by maBrite.
pub(crate) fn grow_powerlaw_routers(
    net: &mut Network,
    rng: &mut impl Rng,
    positions: &[Point],
    as_id: AsId,
    backbone_bw: f64,
) -> Vec<NodeId> {
    let n = positions.len();
    assert!(n >= 2, "need at least two routers");
    let m = LINKS_PER_NEW_ROUTER;
    let mut routers = Vec::with_capacity(n);
    for &p in positions {
        routers.push(net.add_node(NodeKind::Router, p, as_id));
    }
    // Seed: connect router 1 to router 0.
    {
        let lat = link_latency_ms(&positions[0], &positions[1]);
        net.add_link(routers[0], routers[1], backbone_bw, lat);
    }
    // Attachment is by local index: while a graph grows its routers
    // link only among themselves, so `net.degree` is the local degree.
    grow_preferential(rng, n, m, |i, t| {
        let target = routers[t];
        let lat = link_latency_ms(&positions[i], &positions[t]);
        // Bandwidth tier: links toward high-degree (backbone) routers
        // get backbone capacity.
        let bw = if net.degree(target) >= 2 * m + 2 {
            backbone_bw
        } else {
            EDGE_BPS
        };
        net.add_link(routers[i], target, bw, lat);
    });
    routers
}

/// Attach `hosts` host nodes to the given routers, preferring low-degree
/// (edge) routers as real access networks do. Each host gets one
/// [`HOST_BPS`] access link whose latency reflects a short local loop.
pub(crate) fn attach_hosts(
    net: &mut Network,
    rng: &mut impl Rng,
    routers: &[NodeId],
    hosts: usize,
) -> Vec<NodeId> {
    assert!(!routers.is_empty());
    // Candidate pool: the half of routers with the smallest degree.
    let mut by_degree: Vec<NodeId> = routers.to_vec();
    by_degree.sort_by_key(|&r| net.degree(r));
    let pool = &by_degree[..by_degree.len().div_ceil(2)];
    (0..hosts)
        .map(|_| {
            let r = pool[rng.gen_range(0..pool.len())];
            let rp = net.nodes[r.index()].position;
            // Hosts sit 0.5–5 miles from their router.
            let d = rng.gen_range(0.5..5.0);
            let theta = rng.gen_range(0.0..std::f64::consts::TAU);
            let hp = Point::new(rp.x + d * theta.cos(), rp.y + d * theta.sin());
            let h = net.add_node(NodeKind::Host, hp, net.nodes[r.index()].as_id);
            net.add_link(h, r, HOST_BPS, link_latency_ms(&hp, &rp));
            h
        })
        .collect()
}

/// Generate a flat single-AS network per the paper's Section 4.2 setup.
///
/// The returned network is connected; all nodes carry `AsId(0)`.
pub fn generate_flat_network(cfg: &FlatTopologyConfig) -> Network {
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
    let mut net = Network::new();
    let positions = place_points(
        &mut rng,
        cfg.routers,
        AREA_MILES,
        METRO_FRACTION,
        cfg.metro_count,
        METRO_RADIUS_MILES,
    );
    let routers = grow_powerlaw_routers(&mut net, &mut rng, &positions, AsId(0), FLAT_BACKBONE_BPS);
    attach_hosts(&mut net, &mut rng, &routers, cfg.hosts);
    debug_assert!(net.is_connected());
    net
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gen_tiny() -> Network {
        generate_flat_network(&FlatTopologyConfig::tiny())
    }

    #[test]
    fn produces_requested_counts() {
        let cfg = FlatTopologyConfig::tiny();
        let net = gen_tiny();
        assert_eq!(net.router_count(), cfg.routers);
        assert_eq!(net.host_count(), cfg.hosts);
    }

    #[test]
    fn network_is_connected() {
        assert!(gen_tiny().is_connected());
    }

    #[test]
    fn deterministic_for_same_seed() {
        let a = gen_tiny();
        let b = gen_tiny();
        assert_eq!(a.link_count(), b.link_count());
        for (la, lb) in a.links.iter().zip(&b.links) {
            assert_eq!((la.a, la.b), (lb.a, lb.b));
            assert_eq!(la.latency_ms, lb.latency_ms);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = gen_tiny();
        let mut cfg = FlatTopologyConfig::tiny();
        cfg.seed ^= 0xDEAD_BEEF;
        let b = generate_flat_network(&cfg);
        let same = a
            .links
            .iter()
            .zip(&b.links)
            .all(|(x, y)| (x.a, x.b) == (y.a, y.b));
        assert!(!same, "distinct seeds should give distinct graphs");
    }

    #[test]
    fn degree_distribution_is_skewed() {
        // Power-law graphs have a max degree far above the mean.
        let net = generate_flat_network(&FlatTopologyConfig {
            routers: 800,
            hosts: 0,
            ..FlatTopologyConfig::tiny()
        });
        let degrees: Vec<usize> = net.router_ids().iter().map(|&r| net.degree(r)).collect();
        let mean = degrees.iter().sum::<usize>() as f64 / degrees.len() as f64;
        let max = *degrees.iter().max().expect("routers exist");
        assert!(
            (max as f64) > 4.0 * mean,
            "max degree {max} should dominate mean {mean:.2}"
        );
    }

    #[test]
    fn mean_degree_tracks_links_per_new_router() {
        let cfg = FlatTopologyConfig {
            routers: 500,
            hosts: 0,
            ..FlatTopologyConfig::tiny()
        };
        let net = generate_flat_network(&cfg);
        let mean = 2.0 * net.link_count() as f64 / net.router_count() as f64;
        let target = 2.0 * LINKS_PER_NEW_ROUTER as f64;
        assert!(
            (mean - target).abs() < 0.5,
            "mean degree {mean:.2} vs target {target}"
        );
    }

    #[test]
    fn latency_spectrum_has_short_and_long_links() {
        let net = gen_tiny();
        let min = net.min_link_latency_ms().expect("links exist");
        let max = net
            .links
            .iter()
            .map(|l| l.latency_ms)
            .fold(0.0f64, f64::max);
        // Metro links are sub-ms; backbone links span hundreds of miles.
        assert!(min < 0.5, "min latency {min}");
        assert!(max > 1.0, "max latency {max}");
    }

    #[test]
    fn all_nodes_in_as_zero() {
        let net = gen_tiny();
        assert_eq!(net.as_ids(), vec![AsId(0)]);
        assert!(net.links.iter().all(|l| !l.inter_as));
    }

    #[test]
    fn hosts_have_single_router_attachment() {
        let net = gen_tiny();
        for h in net.host_ids() {
            assert_eq!(net.degree(h), 1);
            assert!(net.host_attachment(h).is_some());
        }
    }

    #[test]
    fn positions_within_area() {
        let net = gen_tiny();
        for node in &net.nodes {
            if node.kind == NodeKind::Router {
                assert!(node.position.x >= 0.0 && node.position.x <= AREA_MILES);
                assert!(node.position.y >= 0.0 && node.position.y <= AREA_MILES);
            }
        }
    }
}
