//! Simulation-engine throughput: events per second of the sequential
//! reference executor, the windowed (trace-collecting) executor, and the
//! real threaded conservative executor, on a packet workload.
//!
//! The seq-vs-windowed comparison bounds the cost of the per-window
//! accounting; seq-vs-parallel shows the barrier overhead at small
//! partition counts (the 2-partition leg runs on 2 threads: it means
//! speed-up only where `nproc` ≥ 2, engine overhead otherwise).

use criterion::{criterion_group, Criterion};
use massf_core::prelude::*;
use massf_engine::{run_sequential_resumable, seed_events, ResumeState, Scoring};
use massf_netsim::{Agent, NetSimBuilder, NetWorld, NoApp};
use massf_routing::{CostMetric, FlatResolver};
use std::sync::Arc;

fn builder() -> NetSimBuilder {
    let net = generate_flat_network(&FlatTopologyConfig {
        routers: 400,
        hosts: 160,
        metro_count: 16,
        ..FlatTopologyConfig::default()
    });
    let hosts = net.host_ids();
    let resolver = Arc::new(FlatResolver::new(&net, CostMetric::Latency));
    let mut b = NetSimBuilder::new(net, resolver);
    let mut agent = Agent::new();
    for i in 0..40 {
        agent.inject_tcp(
            SimTime::from_ms(5 * i as u64),
            hosts[i],
            hosts[hosts.len() - 1 - i],
            100_000,
        );
    }
    b.add_agent(agent);
    b
}

fn bench_executors(c: &mut Criterion) {
    let b = builder();
    let shared = b.shared();
    let n = shared.lp_count();
    let end = SimTime::from_secs(2);
    let assignment: Vec<u32> = (0..n).map(|i| (i % 2) as u32).collect();
    let mll = shared
        .net
        .links
        .iter()
        .filter(|l| assignment[l.a.index()] != assignment[l.b.index()])
        .map(|l| l.latency_ms)
        .fold(f64::INFINITY, f64::min);
    let window = SimTime::from_ms_f64(mll);

    let mut group = c.benchmark_group("engine_executors");
    group.sample_size(10);
    group.bench_function("sequential", |bch| {
        bch.iter(|| b.run_sequential(NoApp, end).stats.total_events)
    });
    let scoring = Scoring {
        window,
        assignment: &assignment,
        partitions: 2,
    };
    group.bench_function("sequential_windowed", |bch| {
        bch.iter(|| {
            b.run_sequential_windowed(NoApp, end, &[scoring])
                .expect("valid scoring")
                .stats[0]
                .total_events
        })
    });
    group.bench_function("parallel_2threads", |bch| {
        bch.iter(|| {
            b.try_run_parallel(NoApp, end, window, &assignment, 2)
                .expect("window within lookahead")
                .stats
                .total_events
        })
    });
    group.finish();

    let out = b.run_sequential(NoApp, end);
    eprintln!(
        "workload: {} events over {} virtual seconds",
        out.stats.total_events,
        end.as_secs_f64()
    );
}

criterion_group!(benches, bench_executors);

/// `--smoke`: fast self-checking correctness pass for scripts/check.sh.
/// All three measured executors must produce identical results on the
/// bench's own workload — the throughput comparison is only meaningful
/// if they answer the same question.
fn run_smoke() {
    let b = builder();
    let shared = b.shared();
    let n = shared.lp_count();
    let end = SimTime::from_secs(1);
    // simlint: allow(cast-lossy) -- partition index over a tiny smoke net
    let assignment: Vec<u32> = (0..n).map(|i| (i % 2) as u32).collect();
    let mll = shared
        .net
        .links
        .iter()
        .filter(|l| assignment[l.a.index()] != assignment[l.b.index()])
        .map(|l| l.latency_ms)
        .fold(f64::INFINITY, f64::min);
    let window = SimTime::from_ms_f64(mll);

    let seq = b.run_sequential(NoApp, end);
    assert!(
        seq.stats.total_events > 0,
        "smoke workload produced no events"
    );
    let scoring = Scoring {
        window,
        assignment: &assignment,
        partitions: 2,
    };
    let win = b
        .run_sequential_windowed(NoApp, end, &[scoring])
        .expect("valid scoring");
    assert_eq!(
        win.stats[0].total_events, seq.stats.total_events,
        "windowed executor diverged from sequential"
    );
    assert_eq!(
        win.profile, seq.profile,
        "windowed profile diverged from sequential"
    );
    let par = b
        .try_run_parallel(NoApp, end, window, &assignment, 2)
        .expect("window within lookahead");
    assert_eq!(
        par.stats.total_events, seq.stats.total_events,
        "parallel executor diverged from sequential"
    );
    assert_eq!(
        par.stats.lp_events, seq.stats.lp_events,
        "parallel per-LP attribution diverged from sequential"
    );
    assert_eq!(
        par.profile, seq.profile,
        "parallel profile diverged from sequential"
    );

    // Two resumable segments split at 2^29 ns (where every bit of the
    // event queue's floor below bit 29 turns over) ≡ the straight run.
    let mut events = seed_events(b.initial_events());
    events.sort_unstable();
    let mut resume = ResumeState {
        events,
        counters: vec![0; n],
    };
    let mut world = NetWorld::new(shared, NoApp);
    let mut lp_events = vec![0u64; n];
    for cut in [SimTime::from_ns(1 << 29), end] {
        let (stats, next) =
            run_sequential_resumable(&mut world, n, resume, cut).expect("valid frontier");
        for (sum, e) in lp_events.iter_mut().zip(&stats.lp_events) {
            *sum += e;
        }
        resume = next;
    }
    assert_eq!(
        lp_events, seq.stats.lp_events,
        "segmented per-LP attribution diverged from the straight run"
    );
    assert_eq!(
        *world.profile(),
        seq.profile,
        "segmented profile diverged from the straight run"
    );
    println!("engine_throughput smoke checks passed");
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
