//! Routing-substrate benchmarks: OSPF shortest-path-tree computation,
//! BGP convergence, and end-to-end multi-AS path resolution — the setup
//! costs a MaSSF-style simulator pays before and during a run.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use massf_core::prelude::*;
use massf_routing::{BgpRib, CostMetric, FlatResolver, MultiAsResolver, PathResolver};
use massf_topology::ashier::AsGraph;

fn bench_ospf_spt(c: &mut Criterion) {
    let mut group = c.benchmark_group("ospf_route_queries");
    group.sample_size(10);
    for routers in [500usize, 2_000] {
        let net = generate_flat_network(&FlatTopologyConfig {
            routers,
            hosts: 100,
            metro_count: (routers / 12).max(8),
            ..FlatTopologyConfig::default()
        });
        let hosts = net.host_ids();
        group.bench_with_input(
            BenchmarkId::new("cold_spt_then_100_paths", routers),
            &net,
            |b, net| {
                b.iter(|| {
                    // Fresh resolver each iteration: measures SPT build +
                    // path extraction.
                    let r = FlatResolver::new(net, CostMetric::Latency);
                    let mut hops = 0usize;
                    for i in 0..100 {
                        let p = r.route(hosts[i % hosts.len()], hosts[(i * 7 + 1) % hosts.len()]);
                        hops += p.map(|p| p.len()).unwrap_or(0);
                    }
                    hops
                })
            },
        );
    }
    group.finish();
}

fn bench_bgp_convergence(c: &mut Criterion) {
    let mut group = c.benchmark_group("bgp_convergence");
    group.sample_size(10);
    for ases in [50usize, 100, 200] {
        let g = AsGraph::generate(ases, 2, 0.08, 42);
        group.bench_with_input(BenchmarkId::from_parameter(ases), &g, |b, g| {
            b.iter(|| BgpRib::compute(g).rounds)
        });
    }
    group.finish();

    let g = AsGraph::generate(100, 2, 0.08, 42);
    let rib = BgpRib::compute(&g);
    eprintln!(
        "BGP(100 AS): {} rounds, reachability {:.3}",
        rib.rounds,
        rib.reachability_fraction()
    );
}

fn bench_multi_as_resolution(c: &mut Criterion) {
    let cfg = MultiAsTopologyConfig {
        as_count: 50,
        routers_per_as: 20,
        hosts: 300,
        ..MultiAsTopologyConfig::default()
    };
    let m = generate_multi_as_network(&cfg);
    let resolver = MultiAsResolver::new(&m, CostMetric::Latency, &cfg);
    let hosts = m.network.host_ids();
    let mut group = c.benchmark_group("multi_as_path_resolution");
    group.sample_size(20);
    group.bench_function("1000_host_pairs_warm_cache", |b| {
        b.iter(|| {
            let mut hops = 0usize;
            for i in 0..1_000 {
                let a = hosts[i % hosts.len()];
                let d = hosts[(i * 13 + 5) % hosts.len()];
                if a != d {
                    hops += resolver.route(a, d).map(|p| p.len()).unwrap_or(0);
                }
            }
            hops
        })
    });
    group.finish();
}

/// Thread scaling of the parallel routing build: constructing a
/// MultiAsResolver (per-AS domain fan-out) at 1, 2, and 4 worker
/// threads. Resolvers are bit-identical across rows.
fn bench_routing_thread_scaling(c: &mut Criterion) {
    let cfg = MultiAsTopologyConfig {
        as_count: 50,
        routers_per_as: 20,
        hosts: 300,
        ..MultiAsTopologyConfig::default()
    };
    let m = generate_multi_as_network(&cfg);

    let mut group = c.benchmark_group("routing_build_threads");
    group.sample_size(10);
    for threads in [1usize, 2, 4] {
        group.bench_with_input(
            BenchmarkId::new("multi_as_resolver_50as", threads),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    massf_parutil::with_threads(threads, || {
                        MultiAsResolver::new(&m, CostMetric::Latency, &cfg)
                            .rib()
                            .rounds
                    })
                })
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_ospf_spt,
    bench_bgp_convergence,
    bench_multi_as_resolution,
    bench_routing_thread_scaling
);
criterion_main!(benches);
