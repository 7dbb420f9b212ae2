//! Property-based equivalence of cached and uncached route resolution:
//! over random topologies, random query sequences, random fault
//! scripts, and every cache-capacity regime (disabled, eviction-
//! thrashing capacity 1, and plenty), the deterministic route cache
//! must be a pure memoizer — same answers as the resolver it fronts,
//! query by query.

use massf_engine::SimTime;
use massf_netsim::{FaultScript, FaultState};
use massf_routing::{
    CostMetric, FlatResolver, MultiAsResolver, PathResolver, RouteCache, RouteCacheStats,
};
use massf_topology::{
    generate_flat_network, generate_multi_as_network, FlatTopologyConfig, MultiAsTopologyConfig,
};
use proptest::prelude::*;

/// Capacity regimes: disabled, thrashing, small, comfortable.
fn capacity() -> impl Strategy<Value = usize> {
    (0usize..5).prop_map(|i| [0usize, 1, 2, 8, 128][i])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    #[test]
    fn cached_matches_uncached_on_random_flat_topologies(
        routers in 30usize..80,
        seed in 0u64..500,
        cap in capacity(),
        queries in proptest::collection::vec((0usize..64, 0usize..64), 1..120),
    ) {
        let net = generate_flat_network(&FlatTopologyConfig {
            routers,
            hosts: 12,
            metro_count: 5,
            seed,
        });
        let hosts = net.host_ids();
        let uncached = FlatResolver::new(&net, CostMetric::Latency);
        let inner = FlatResolver::new(&net, CostMetric::Latency);
        let mut cache = RouteCache::new(net.node_count(), cap);
        let mut stats = RouteCacheStats::default();
        for (i, j) in queries {
            let (s, d) = (hosts[i % hosts.len()], hosts[j % hosts.len()]);
            let want = uncached.route(s, d);
            for _ in 0..2 {
                let got = cache.get_or_insert_with(&mut stats, 0, s, d, || inner.route_arc(s, d));
                prop_assert_eq!(
                    want.clone(),
                    got.map(|p| p.to_vec()),
                    "cap {} diverged for {:?}→{:?}", cap, s, d
                );
            }
        }
        if cap == 0 {
            prop_assert_eq!(stats, RouteCacheStats::default());
        }
    }

    #[test]
    fn cached_matches_uncached_on_random_multi_as(
        as_count in 4usize..10,
        seed in 0u64..200,
        cap in capacity(),
        queries in proptest::collection::vec((0usize..64, 0usize..64), 1..80),
    ) {
        let cfg = MultiAsTopologyConfig {
            as_count,
            routers_per_as: 5,
            hosts: 20,
            seed,
        };
        let m = generate_multi_as_network(&cfg);
        let hosts = m.network.host_ids();
        let uncached = MultiAsResolver::new(&m, CostMetric::Latency, &cfg);
        let inner = MultiAsResolver::new(&m, CostMetric::Latency, &cfg);
        let mut cache = RouteCache::new(m.network.node_count(), cap);
        let mut stats = RouteCacheStats::default();
        for (i, j) in queries {
            let (s, d) = (hosts[i % hosts.len()], hosts[j % hosts.len()]);
            let got = cache.get_or_insert_with(&mut stats, 0, s, d, || inner.route_arc(s, d));
            prop_assert_eq!(
                uncached.route(s, d),
                got.map(|p| p.to_vec()),
                "cap {} diverged for {:?}→{:?}", cap, s, d
            );
        }
    }

    /// Epoch-keyed caching across a random link-flap script: every
    /// `(epoch, src, dst)` answer must equal the epoch's own resolver,
    /// no matter how queries interleave across epochs or how small the
    /// cache is.
    #[test]
    fn cached_matches_uncached_across_fault_epochs(
        routers in 30usize..70,
        seed in 0u64..200,
        flaps in 1usize..5,
        cap in capacity(),
        queries in proptest::collection::vec((0usize..64, 0usize..64, 0usize..16), 1..100),
    ) {
        let net = generate_flat_network(&FlatTopologyConfig {
            routers,
            hosts: 12,
            metro_count: 5,
            seed,
        });
        let hosts = net.host_ids();
        let script = FaultScript::random_link_flaps(
            &net,
            flaps,
            SimTime::from_secs(1),
            SimTime::from_secs(5),
            SimTime::from_secs(30),
            seed,
        ).expect("flap script over a generated network validates");
        let faults = FaultState::flat(&net, CostMetric::Latency, script)
            .expect("random_link_flaps scripts validate");
        let epochs = faults.epoch_count();
        let mut cache = RouteCache::new(net.node_count(), cap);
        let mut stats = RouteCacheStats::default();
        for (i, j, e) in queries {
            let (s, d) = (hosts[i % hosts.len()], hosts[j % hosts.len()]);
            let e = e % epochs;
            let r = faults.resolver_for_epoch(e);
            let got = cache.get_or_insert_with(
                &mut stats,
                u32::try_from(e).expect("epoch count is tiny"),
                s,
                d,
                || r.route_arc(s, d),
            );
            prop_assert_eq!(
                r.route(s, d),
                got.map(|p| p.to_vec()),
                "cap {} epoch {} diverged for {:?}→{:?}", cap, e, s, d
            );
        }
        if cap == 0 {
            prop_assert_eq!(stats, RouteCacheStats::default());
        } else {
            prop_assert_eq!(stats.hits + stats.misses > 0, true);
        }
    }
}
