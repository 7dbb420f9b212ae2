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
//! That cached and uncached resolution answer alike is checked by the
//! proptests in `tests/tests/route_cache.rs`, request/response tree
//! reuse by `ospf::either_end_trees_match_destination_rooted_reference`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use massf_core::prelude::*;
use massf_netsim::{FaultScript, FaultState};
use massf_routing::{
    CachedResolver, CostMetric, FlatResolver, MultiAsResolver, PathResolver, RouteCache,
    RouteCacheStats,
};

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
criterion_main!(benches);
