//! Memory-layout determinism: the SoA flow slabs (PR 6) recycle slot
//! indices through a free list, so a flow's dense index depends on the
//! complete/start interleaving. These tests pin that free/reuse keeps
//! the flow-id → state mapping bit-identical across thread and
//! partition counts: randomized overlapping flow schedules — sized so
//! many flows *complete* mid-run and their slots are reused by later
//! flows — must produce identical profiles under the sequential engine
//! and the parallel engine at every partition count.

use massf_engine::SimTime;
use massf_netsim::{Agent, NetSimBuilder, NoApp};
use massf_parutil::with_threads;
use massf_routing::{CostMetric, FlatResolver};
use massf_topology::{generate_flat_network, FlatTopologyConfig, Network};
use proptest::prelude::*;
use std::sync::Arc;

/// Run a flow schedule at a given thread / partition count and return
/// everything observable: the full profile (per-node and per-link
/// packet counts included) plus the engine event total.
fn run_schedule(
    net: &Network,
    flows: &[(u64, usize, usize, u64)],
    threads: usize,
    partitions: usize,
) -> (massf_netsim::ProfileData, u64) {
    let hosts = net.host_ids();
    with_threads(threads, || {
        let resolver = Arc::new(FlatResolver::new(net, CostMetric::Latency));
        let mut builder = NetSimBuilder::new(net.clone(), resolver);
        let mut agent = Agent::new();
        for &(start_ms, src, dst, bytes) in flows {
            // Concentrate sources on four hosts so the same per-node
            // slab recycles slots many times within one run.
            let a = hosts[src % 4];
            let b = hosts[dst % hosts.len()];
            if a != b {
                agent.inject_tcp(SimTime::from_ms(start_ms), a, b, bytes);
            }
        }
        builder.add_agent(agent);
        let duration = SimTime::from_secs(2);
        let out = if partitions == 1 {
            builder.run_sequential(NoApp, duration)
        } else {
            let assignment: Vec<u32> = (0..net.node_count())
                .map(|i| (i % partitions) as u32)
                .collect();
            let mut window = f64::INFINITY;
            for link in &net.links {
                if assignment[link.a.index()] != assignment[link.b.index()] {
                    window = window.min(link.latency_ms);
                }
            }
            builder
                .try_run_parallel(
                    NoApp,
                    duration,
                    SimTime::from_ms_f64(window),
                    &assignment,
                    partitions,
                )
                .expect("window within lookahead")
        };
        (out.profile, out.stats.total_events)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn slab_recycling_is_bit_identical_across_thread_counts(
        flows in proptest::collection::vec(
            // (start ms, src pick, dst pick, bytes): small transfers so
            // most flows finish inside the run and free their slots.
            (0u64..600, 0usize..16, 0usize..64, 1_000u64..40_000),
            10..50,
        ),
    ) {
        let net = generate_flat_network(&FlatTopologyConfig::tiny());
        let reference = run_schedule(&net, &flows, 1, 1);
        prop_assert!(
            reference.0.completed_flows > 0,
            "schedule must complete flows so slots actually recycle"
        );
        for (threads, partitions) in [(1, 2), (2, 2), (4, 4)] {
            let par = run_schedule(&net, &flows, threads, partitions);
            prop_assert_eq!(
                &reference.0, &par.0,
                "profile diverged at threads {} partitions {}",
                threads, partitions
            );
            prop_assert_eq!(reference.1, par.1);
        }
    }
}
