//! Route-resolution fast-path benchmarks (DESIGN.md §3 item 11): the
//! per-query cost of answering `route(src, dst)` with and without the
//! deterministic path cache, on the flat single-AS resolver, the
//! multi-AS resolver, and across fault epochs.
//!
//! The workload is *repeated pairs* — a small working set of `(src,
//! dst)` pairs queried round-robin, the pattern TCP retransmission
//! timers and long-running workload flows generate — plus a cold-cache
//! variant that rebuilds the cache every iteration to expose the
//! miss-path overhead. Results are recorded in BENCH_routing.json.
//!
//! Unlike the other benches this one has a hand-rolled `main` so that
//! `--smoke` runs a fast self-checking mode (used by scripts/check.sh):
//! cached and uncached resolution must return identical paths on every
//! topology variant, under eviction pressure (capacity 1) and with the
//! cache disabled (capacity 0); and a resolver asked requests and
//! responses alternately must reuse the requests' shortest-path trees
//! for the responses yet answer exactly as one-directional resolvers do.

use criterion::{criterion_group, BenchmarkId, Criterion};
use massf_core::prelude::*;
use massf_netsim::{FaultScript, FaultState};
use massf_routing::{
    CachedResolver, CostMetric, FlatResolver, MultiAsResolver, PathResolver, RouteCache,
    RouteCacheStats,
};
use std::sync::Arc;

/// Cached-bench working set: distinct enough to exercise the shards,
/// small enough that a warm cache holds it entirely.
const PAIRS: usize = 64;
/// Resolves per timed iteration.
const QUERIES: usize = 8_192;

fn flat_network(routers: usize) -> Network {
    generate_flat_network(&FlatTopologyConfig {
        routers,
        hosts: 200,
        metro_count: (routers / 12).max(8),
        ..FlatTopologyConfig::default()
    })
}

fn multi_as_config() -> MultiAsTopologyConfig {
    MultiAsTopologyConfig {
        as_count: 50,
        routers_per_as: 20,
        hosts: 300,
        ..MultiAsTopologyConfig::default()
    }
}

/// A deterministic repeated-pairs query set over the hosts.
fn pairs(hosts: &[NodeId], count: usize) -> Vec<(NodeId, NodeId)> {
    (0..count)
        .filter_map(|i| {
            let a = hosts[(i * 7 + 3) % hosts.len()];
            let b = hosts[(i * 13 + 11) % hosts.len()];
            (a != b).then_some((a, b))
        })
        .collect()
}

/// Resolve `QUERIES` queries round-robin over `pairs`, summing hop
/// counts (the black-box result).
fn drive(resolver: &dyn PathResolver, pairs: &[(NodeId, NodeId)]) -> usize {
    let mut hops = 0usize;
    for i in 0..QUERIES {
        let (s, d) = pairs[i % pairs.len()];
        hops += resolver.route_arc(s, d).map(|p| p.len()).unwrap_or(0);
    }
    hops
}

fn bench_flat_repeated_pairs(c: &mut Criterion) {
    let net = flat_network(2_000);
    let hosts = net.host_ids();
    let set = pairs(&hosts, PAIRS);
    let uncached = FlatResolver::new(&net, CostMetric::Latency);
    // Warm the SPT table once so both rows measure query cost, not
    // Dijkstra build cost.
    let _ = drive(&uncached, &set);
    let cached = CachedResolver::new(
        FlatResolver::new(&net, CostMetric::Latency),
        net.node_count(),
        128,
    );
    let _ = drive(&cached, &set);

    let mut group = c.benchmark_group("flat_2k_repeated_pairs");
    group.sample_size(40);
    group.bench_function("uncached", |b| b.iter(|| drive(&uncached, &set)));
    group.bench_function("cached_warm", |b| b.iter(|| drive(&cached, &set)));
    group.bench_function("cached_cold", |b| {
        b.iter(|| {
            // Fresh cache (over the already-warmed resolver) every
            // iteration: all-miss first pass, then hits — isolates the
            // cache machinery's cold-start overhead from SPT builds.
            let r = CachedResolver::new(&uncached, net.node_count(), 128);
            drive(&r, &set)
        })
    });
    group.finish();
    eprintln!(
        "flat cached stats: {:?} ({:.1}% hit rate)",
        cached.stats(),
        cached.stats().hit_rate() * 100.0
    );
}

/// `pairs` with every pair followed by its reverse: a request and its
/// response, the shape of every TCP conversation.
fn request_response(pairs: &[(NodeId, NodeId)]) -> Vec<(NodeId, NodeId)> {
    pairs.iter().flat_map(|&(s, d)| [(s, d), (d, s)]).collect()
}

/// Cold resolution of conversations: a fresh resolver every iteration,
/// so the time is the shortest-path trees the pair set makes it build.
/// `one_way` asks only the requests; `both_ways` asks each response
/// right after — twice the queries, served from the request's tree.
fn bench_flat_request_response(c: &mut Criterion) {
    let net = flat_network(2_000);
    let hosts = net.host_ids();
    let one_way = pairs(&hosts, PAIRS);
    let both_ways = request_response(&one_way);
    let cold = |set: &[(NodeId, NodeId)]| {
        let r = FlatResolver::new(&net, CostMetric::Latency);
        let hops: usize = set
            .iter()
            .map(|&(s, d)| r.route(s, d).map_or(0, |p| p.len()))
            .sum();
        (hops, r.domain().spt_stats())
    };

    let mut group = c.benchmark_group("flat_2k_request_response");
    group.sample_size(20);
    group.bench_function("one_way", |b| b.iter(|| cold(&one_way)));
    group.bench_function("both_ways", |b| b.iter(|| cold(&both_ways)));
    group.finish();
    eprintln!(
        "flat request/response SPT stats: one_way {:?}, both_ways {:?}",
        cold(&one_way).1,
        cold(&both_ways).1
    );
}

fn bench_multi_as_repeated_pairs(c: &mut Criterion) {
    let cfg = multi_as_config();
    let m = generate_multi_as_network(&cfg);
    let hosts = m.network.host_ids();
    let set = pairs(&hosts, PAIRS);
    let uncached = MultiAsResolver::new(&m, CostMetric::Latency, &cfg);
    let _ = drive(&uncached, &set);
    let cached = CachedResolver::new(
        MultiAsResolver::new(&m, CostMetric::Latency, &cfg),
        m.network.node_count(),
        128,
    );
    let _ = drive(&cached, &set);

    let mut group = c.benchmark_group("multi_as_50_repeated_pairs");
    group.sample_size(30);
    group.bench_function("uncached", |b| b.iter(|| drive(&uncached, &set)));
    group.bench_function("cached_warm", |b| b.iter(|| drive(&cached, &set)));
    group.finish();
}

/// Fault-epoch variant: resolve the same pair set in every epoch of a
/// link-flap script, uncached (per-epoch resolver directly) vs cached
/// with epoch-embedded keys.
fn bench_faulted_epochs(c: &mut Criterion) {
    let net = flat_network(500);
    let hosts = net.host_ids();
    let set = pairs(&hosts, PAIRS);
    let script = FaultScript::random_link_flaps(
        &net,
        8,
        SimTime::from_secs(2),
        SimTime::from_secs(10),
        SimTime::from_secs(50),
        42,
    )
    .expect("flap script over a connected network validates");
    let faults = FaultState::flat(&net, CostMetric::Latency, script)
        .expect("random_link_flaps scripts validate");
    let epochs = faults.epoch_count();

    let drive_epochs = |cache: &mut RouteCache, stats: &mut RouteCacheStats| -> usize {
        let mut hops = 0usize;
        for i in 0..QUERIES {
            let (s, d) = set[i % set.len()];
            let e = i % epochs;
            let r = faults.resolver_for_epoch(e);
            let p = cache.get_or_insert_with(stats, e as u32, s, d, || r.route_arc(s, d));
            hops += p.map(|p| p.len()).unwrap_or(0);
        }
        hops
    };

    let mut group = c.benchmark_group("faulted_epochs_repeated_pairs");
    group.sample_size(20);
    group.bench_function(BenchmarkId::new("uncached", epochs), |b| {
        b.iter(|| {
            let mut hops = 0usize;
            for i in 0..QUERIES {
                let (s, d) = set[i % set.len()];
                let r = faults.resolver_for_epoch(i % epochs);
                hops += r.route_arc(s, d).map(|p| p.len()).unwrap_or(0);
            }
            hops
        })
    });
    group.bench_function(BenchmarkId::new("cached_warm", epochs), |b| {
        let mut cache = RouteCache::new(net.node_count(), 128);
        let mut stats = RouteCacheStats::default();
        let _ = drive_epochs(&mut cache, &mut stats);
        b.iter(|| drive_epochs(&mut cache, &mut stats))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_flat_repeated_pairs,
    bench_flat_request_response,
    bench_multi_as_repeated_pairs,
    bench_faulted_epochs
);

/// `--smoke`: fast self-checking correctness pass for scripts/check.sh.
/// Panics on any cached/uncached divergence.
fn run_smoke() {
    // Flat network, every capacity regime.
    let net = flat_network(120);
    let hosts = net.host_ids();
    let set = pairs(&hosts, 24);
    let uncached = FlatResolver::new(&net, CostMetric::Latency);
    for capacity in [0usize, 1, 4, 128] {
        let cached = CachedResolver::new(
            FlatResolver::new(&net, CostMetric::Latency),
            net.node_count(),
            capacity,
        );
        for pass in 0..3 {
            for &(s, d) in &set {
                let want = uncached.route(s, d);
                let got = cached.route_arc(s, d).map(|p| p.to_vec());
                assert_eq!(
                    want, got,
                    "flat cap {capacity} pass {pass}: cached diverged for {s:?}→{d:?}"
                );
            }
        }
        if capacity == 1 {
            // Force eviction pressure: two destinations alternating in
            // one source shard; answers must stay correct throughout.
            let (s, d0) = set[0];
            let d1 = set.iter().map(|&(_, d)| d).find(|&d| d != d0 && d != s);
            let d1 = d1.expect("pair set has a second destination");
            for _ in 0..3 {
                for d in [d0, d1] {
                    assert_eq!(
                        uncached.route(s, d),
                        cached.route_arc(s, d).map(|p| p.to_vec()),
                        "capacity-1 thrash diverged for {s:?}→{d:?}"
                    );
                }
            }
            assert!(cached.stats().evictions > 0, "capacity 1 must evict");
        }
        let stats = cached.stats();
        match capacity {
            0 => assert_eq!(stats, Default::default(), "disabled cache moved counters"),
            1 => {}
            _ => assert!(stats.hits > 0, "repeated pairs must hit at cap {capacity}"),
        }
    }

    // Request/response: a cold resolver asked each pair and then its
    // reverse serves responses from the requests' trees, and answers
    // what resolvers only ever asked in one direction answer.
    let both_ways = request_response(&set);
    let either_end = FlatResolver::new(&net, CostMetric::Latency);
    let requests_only = FlatResolver::new(&net, CostMetric::Latency);
    let responses_only = FlatResolver::new(&net, CostMetric::Latency);
    for (i, &(s, d)) in both_ways.iter().enumerate() {
        let one_direction = if i % 2 == 0 {
            &requests_only
        } else {
            &responses_only
        };
        assert_eq!(
            either_end.route(s, d),
            one_direction.route(s, d),
            "request/response diverged for {s:?}→{d:?}"
        );
    }
    let stats = either_end.domain().spt_stats();
    assert!(
        stats.served_reversed > 0,
        "no response used a request's tree: {stats:?}"
    );
    let mut destinations: Vec<NodeId> = both_ways.iter().map(|&(_, d)| d).collect();
    destinations.sort_unstable();
    destinations.dedup();
    assert!(
        stats.trees_built < destinations.len() as u64,
        "{stats:?} for {} distinct destinations",
        destinations.len()
    );

    // Multi-AS network.
    let cfg = MultiAsTopologyConfig {
        as_count: 8,
        routers_per_as: 6,
        hosts: 60,
        ..MultiAsTopologyConfig::default()
    };
    let m = generate_multi_as_network(&cfg);
    let mhosts = m.network.host_ids();
    let mset = pairs(&mhosts, 24);
    let muncached = MultiAsResolver::new(&m, CostMetric::Latency, &cfg);
    let mcached = CachedResolver::new(
        MultiAsResolver::new(&m, CostMetric::Latency, &cfg),
        m.network.node_count(),
        16,
    );
    for _ in 0..2 {
        for &(s, d) in &mset {
            assert_eq!(
                muncached.route(s, d),
                mcached.route_arc(s, d).map(|p| p.to_vec()),
                "multi-AS cached diverged for {s:?}→{d:?}"
            );
        }
    }
    assert!(mcached.stats().hits > 0);

    // Fault epochs: cached answers must match the epoch's own resolver.
    let fnet = flat_network(120);
    let fhosts = fnet.host_ids();
    let fset = pairs(&fhosts, 24);
    let script = FaultScript::random_link_flaps(
        &fnet,
        4,
        SimTime::from_secs(2),
        SimTime::from_secs(5),
        SimTime::from_secs(25),
        7,
    )
    .expect("flap script validates");
    let faults = FaultState::flat(&fnet, CostMetric::Latency, script)
        .expect("random_link_flaps scripts validate");
    let mut cache = RouteCache::new(fnet.node_count(), 16);
    let mut stats = RouteCacheStats::default();
    for _ in 0..2 {
        for e in 0..faults.epoch_count() {
            let r: &Arc<dyn PathResolver> = faults.resolver_for_epoch(e);
            for &(s, d) in &fset {
                let got =
                    cache.get_or_insert_with(&mut stats, e as u32, s, d, || r.route_arc(s, d));
                assert_eq!(
                    r.route(s, d),
                    got.map(|p| p.to_vec()),
                    "epoch {e}: cached diverged for {s:?}→{d:?}"
                );
            }
        }
    }
    assert!(stats.hits > 0, "epoch replay must hit");
    println!("route_resolution smoke checks passed");
}

fn main() {
    // cargo bench passes harness args like `--bench`; only `--smoke` is
    // meaningful here, everything else is ignored.
    if std::env::args().skip(1).any(|a| a == "--smoke") {
        run_smoke();
        return;
    }
    benches();
}
