//! Partitioner microbenchmarks.
//!
//! The paper's feasibility argument for the HPROF sweep rests on
//! partitioner speed: "The METIS graph partitioner used in MaSSF can
//! partition a graph with 10,000 vertexes in about 10 seconds"
//! (Section 3.4.3). This bench measures our multilevel k-way
//! partitioner at 1k/5k/10k vertices, compares it with the ModelNet
//! greedy k-cluster baseline, and ablates the KL/FM
//! refinement stage (reporting its cut-quality effect on stderr).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use massf_core::prelude::*;
use massf_core::{EdgeWeighting, VertexWeighting};
use massf_partition::greedy_kcluster;

fn network_graph(routers: usize, seed: u64) -> WeightedGraph {
    let net = generate_flat_network(&FlatTopologyConfig {
        routers,
        hosts: routers / 2,
        metro_count: (routers / 12).max(8),
        seed,
    });
    massf_core::build_weighted_graph(
        &net,
        VertexWeighting::Bandwidth,
        EdgeWeighting::Standard,
        None,
    )
}

fn bench_kway_sizes(c: &mut Criterion) {
    let mut group = c.benchmark_group("metis_kway_90parts");
    group.sample_size(10);
    for routers in [1_000usize, 5_000, 10_000] {
        let graph = network_graph(routers, 7);
        group.bench_with_input(BenchmarkId::from_parameter(routers), &graph, |b, g| {
            b.iter(|| metis_kway(g, 90, &KwayConfig::default()))
        });
    }
    group.finish();
}

fn bench_algorithms(c: &mut Criterion) {
    let graph = network_graph(2_000, 11);
    let mut group = c.benchmark_group("partitioners_2k_16parts");
    group.sample_size(10);
    group.bench_function("metis_kway", |b| {
        b.iter(|| metis_kway(&graph, 16, &KwayConfig::default()))
    });
    group.bench_function("greedy_kcluster", |b| {
        b.iter(|| greedy_kcluster(&graph, 16, 3))
    });
    group.finish();
}

fn bench_refinement_ablation(c: &mut Criterion) {
    let graph = network_graph(2_000, 13);
    let mut group = c.benchmark_group("refinement_ablation_2k_16parts");
    group.sample_size(10);
    for passes in [0usize, 2, 8] {
        let cfg = KwayConfig {
            refine_passes: passes,
        };
        group.bench_with_input(BenchmarkId::new("passes", passes), &cfg, |b, cfg| {
            b.iter(|| metis_kway(&graph, 16, cfg))
        });
    }
    group.finish();
    for passes in [0usize, 2, 8] {
        let cfg = KwayConfig {
            refine_passes: passes,
        };
        let p = metis_kway(&graph, 16, &cfg);
        eprintln!(
            "refinement passes {passes}: edge-cut {}, balance {:.3}",
            p.edge_cut(&graph),
            p.balance(&graph)
        );
    }
}

criterion_group!(
    benches,
    bench_kway_sizes,
    bench_algorithms,
    bench_refinement_ablation
);
criterion_main!(benches);
