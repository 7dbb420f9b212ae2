//! Cost of the hierarchical threshold sweep (Section 3.4.3).
//!
//! The paper's argument: partitioning is fast enough "to enable us to
//! consider thousands of possible Tmll". This bench measures a full
//! HTOP sweep on a 2,000-router network, ablating the sweep step
//! (0.1 ms as in the paper vs 0.2/0.4 ms) and the graph-reduction step
//! alone, and the flat generator that feeds it at the benchmark's
//! (4,000 routers) and the paper's (20,000 routers) size.

use criterion::{criterion_group, BenchmarkId, Criterion};
use massf_core::hier::reduce_graph;
use massf_core::prelude::*;
use massf_core::{EdgeWeighting, VertexWeighting};

fn setup() -> (Network, WeightedGraph) {
    let net = generate_flat_network(&FlatTopologyConfig {
        routers: 2_000,
        hosts: 800,
        metro_count: 160,
        ..FlatTopologyConfig::default()
    });
    let graph = massf_core::build_weighted_graph(
        &net,
        VertexWeighting::Bandwidth,
        EdgeWeighting::Standard,
        None,
    );
    (net, graph)
}

fn bench_sweep(c: &mut Criterion) {
    let (net, graph) = setup();
    let mut group = c.benchmark_group("hierarchical_sweep_2k_16parts");
    group.sample_size(10);
    for step_ms in [0.1f64, 0.2, 0.4] {
        let cfg = HierConfig {
            engines: 16,
            step_ms,
            ..HierConfig::new(16)
        };
        group.bench_with_input(
            BenchmarkId::new("step_ms", format!("{step_ms}")),
            &cfg,
            |b, cfg| b.iter(|| hierarchical_partition(&net, &graph, cfg)),
        );
    }
    group.finish();

    let r = hierarchical_partition(&net, &graph, &HierConfig::new(16));
    eprintln!(
        "sweep candidates: {}, winner Tmll {} ms, MLL {:.3} ms, E {:.3}",
        r.candidates.len(),
        r.tmll_ms,
        r.evaluation.mll_ms,
        r.evaluation.e
    );
}

/// Thread scaling of the parallel sweep: identical work at 1, 2, and 4
/// worker threads (results are bit-identical by construction; only the
/// wall clock may differ). The 1-thread row is the sequential baseline
/// the ISSUE's speedup criterion compares against.
fn bench_sweep_thread_scaling(c: &mut Criterion) {
    let (net, graph) = setup();
    let cfg = HierConfig::new(16);
    let mut group = c.benchmark_group("hierarchical_sweep_2k_threads");
    group.sample_size(10);
    for threads in [1usize, 2, 4] {
        group.bench_with_input(
            BenchmarkId::new("threads", threads),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    massf_parutil::with_threads(threads, || {
                        hierarchical_partition(&net, &graph, &cfg)
                    })
                })
            },
        );
    }
    group.finish();
}

fn bench_reduction(c: &mut Criterion) {
    let (net, graph) = setup();
    let mut group = c.benchmark_group("graph_reduction_2k");
    group.sample_size(20);
    for tmll in [0.5f64, 1.0, 3.0] {
        group.bench_with_input(
            BenchmarkId::new("tmll_ms", format!("{tmll}")),
            &tmll,
            |b, &tmll| b.iter(|| reduce_graph(&net, &graph, tmll)),
        );
    }
    group.finish();
}

/// Flat-network generation at `Scale::Medium` and `Scale::Paper` size:
/// near-linear since preferential attachment samples from a Fenwick
/// tree (the per-link rescan took 0.24 s and 8.5 s here).
fn bench_generate(c: &mut Criterion) {
    let mut group = c.benchmark_group("topology_generate");
    group.sample_size(10);
    for (name, scale) in [("4k", Scale::Medium), ("20k", Scale::Paper)] {
        let cfg = scale.flat_config(2004);
        group.bench_with_input(BenchmarkId::from_parameter(name), &cfg, |b, cfg| {
            b.iter(|| generate_flat_network(cfg))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_sweep,
    bench_sweep_thread_scaling,
    bench_reduction,
    bench_generate
);

/// `--smoke`: fast self-checking pass for scripts/check.sh. The sweep's
/// full result must not depend on the worker-thread count (batch
/// boundaries do), and generating the paper's 20,000-router network
/// must stay near-linear: < 1 s where the per-link rescan took 8.5 s
/// and the Fenwick sampler takes 14 ms.
fn run_smoke() {
    let (net, graph) = setup();
    let cfg = HierConfig::new(16);
    let sweep = |threads| {
        massf_parutil::with_threads(threads, || hierarchical_partition(&net, &graph, &cfg))
    };
    let (one, two) = (sweep(1), sweep(2));
    assert!(one.candidates.len() >= 2, "sweep too short");
    assert_eq!(one.tmll_ms.to_bits(), two.tmll_ms.to_bits(), "winner Tmll");
    assert_eq!(
        one.partition.assignment, two.partition.assignment,
        "winning partition differs between 1 and 2 threads"
    );
    assert_eq!(one.candidates.len(), two.candidates.len());
    for (a, b) in one.candidates.iter().zip(&two.candidates) {
        assert_eq!(
            (
                a.tmll_ms.to_bits(),
                a.reduced_vertices,
                a.evaluation.e.to_bits()
            ),
            (
                b.tmll_ms.to_bits(),
                b.reduced_vertices,
                b.evaluation.e.to_bits()
            ),
            "candidate differs between 1 and 2 threads"
        );
    }

    let start = std::time::Instant::now();
    let paper = generate_flat_network(&Scale::Paper.flat_config(2004));
    let elapsed = start.elapsed();
    assert_eq!(paper.router_count(), 20_000);
    assert!(
        elapsed.as_secs_f64() < 1.0,
        "20,000-router generation took {elapsed:?}: preferential attachment is no longer near-linear"
    );
    println!(
        "hprof_sweep smoke checks passed ({} candidates, winner Tmll {} ms; 20k routers in {elapsed:.1?})",
        one.candidates.len(),
        one.tmll_ms
    );
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
