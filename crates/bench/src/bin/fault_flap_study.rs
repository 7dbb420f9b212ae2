//! Fault-injection study: replay a seeded link-flap script over the
//! single-AS scenario and report how the simulation absorbs it —
//! packet-loss windows, flow abort rates, online reconvergence count,
//! and how much the HPROF load-balance mapping drifts when it is fed the
//! faulted traffic profile instead of the clean one.
//!
//! Defaults to `--scale medium` (the 2,000-router single-AS network);
//! see EXPERIMENTS.md ("Link-flap runbook") for the expected output.
//!
//! Takes the shared harness flags only. The script is `FLAPS` (12) link
//! flaps of `DOWN` (2000 ms) each, and every flow keeps the default
//! TCP retry budget, `MAX_RETRIES`.
//!
//! The report is bit-identical across `--threads` values: fault state is
//! a pure function of virtual time, so worker-pool scheduling cannot
//! leak into any number printed here
//! (`parallel_determinism::fault_injected_run_identical_across_thread_counts`
//! asserts the sequential/parallel equality directly). For the online
//! rebalancer under link flaps, see `rebalance_study`'s "fault-flap
//! region shift" scenario.

use massf_bench::{count_list, HarnessOptions};
use massf_core::prelude::*;
use massf_netsim::{
    Agent, FaultScript, FaultState, NetSimBuilder, NoApp, ProfileData, SimOutput, MAX_RETRIES,
};
use massf_routing::{CostMetric, FlatResolver};
use massf_topology::Counters;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

/// Link flaps scripted into the middle of the run.
const FLAPS: usize = 12;

/// Downtime per flap.
const DOWN: SimTime = SimTime::from_ms(2000);

/// Seeded background traffic: TCP flows between random host pairs,
/// injected over the first 60% of the run, plus one fluid background
/// flow per four TCP flows so the study exercises the mixed-fidelity
/// fault interaction (reroute/terminate on flap) at study scale.
fn traffic(hosts: &[NodeId], duration: SimTime, flows: usize, seed: u64) -> Agent {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xF1A9);
    let mut agent = Agent::new();
    let span = (duration.as_ns() * 6 / 10).max(1);
    for _ in 0..flows {
        let src = hosts[rng.gen_range(0..hosts.len())];
        let mut dst = hosts[rng.gen_range(0..hosts.len())];
        if dst == src {
            dst = hosts[(rng.gen_range(0..hosts.len()) + 1) % hosts.len()];
        }
        if dst == src {
            continue;
        }
        let at = SimTime(rng.gen_range(0..span));
        let bytes = 10_000 + rng.gen_range(0u64..190_000);
        agent.inject_tcp(at, src, dst, bytes);
    }
    for _ in 0..flows / 4 {
        let src = hosts[rng.gen_range(0..hosts.len())];
        let dst = hosts[rng.gen_range(0..hosts.len())];
        if dst == src {
            continue;
        }
        let at = SimTime(rng.gen_range(0..span));
        let bytes = 200_000 + rng.gen_range(0u64..1_800_000);
        agent.inject_fluid(at, src, dst, bytes);
    }
    agent
}

/// Per-partition packet loads under an assignment, for imbalance.
fn partition_loads(profile: &ProfileData, assignment: &[u32], engines: usize) -> Vec<f64> {
    let mut loads = vec![0.0; engines];
    for (node, &packets) in profile.node_packets.iter().enumerate() {
        loads[assignment[node] as usize] += packets as f64;
    }
    loads
}

fn main() {
    let mut opts = HarnessOptions::from_env();
    // This study defaults to the 2k-router single-AS world (the shared
    // harness default is small); an explicit --scale wins.
    if !std::env::args().any(|a| a == "--scale") {
        opts.scale = Scale::Medium;
    }

    let scale = opts.scale;
    let seed = opts.seed;
    let duration = scale.run_duration().max(SimTime::from_secs(30));

    eprintln!("# generating {scale:?} single-AS network (seed {seed}) …");
    let net = generate_flat_network(&scale.flat_config(seed));
    let hosts = net.host_ids();
    let flows = (hosts.len() * 2).clamp(64, 4000);

    // Fault script: seeded link flaps inside the middle of the run, so
    // both a clean prefix and a recovered tail exist.
    let start = SimTime(duration.as_ns() / 5);
    let end = SimTime(duration.as_ns() * 4 / 5);
    let script = FaultScript::random_link_flaps(&net, FLAPS, DOWN, start, end, seed)
        .unwrap_or_else(|e| HarnessOptions::usage_exit(&format!("cannot build fault script: {e}")));
    eprintln!(
        "# scripted {} fault events over [{:.1}s, {:.1}s], {} ms downtime per flap",
        script.len(),
        start.as_secs_f64(),
        end.as_secs_f64(),
        DOWN.as_ms_f64(),
    );

    // Clean run (reference) and faulted run over identical traffic.
    let run = |faults: Option<Arc<FaultState>>| -> SimOutput<NoApp> {
        let mut builder = match faults {
            Some(f) => NetSimBuilder::new_with_faults(net.clone(), f),
            None => {
                let resolver = Arc::new(FlatResolver::new(&net, CostMetric::Latency));
                NetSimBuilder::new(net.clone(), resolver)
            }
        };
        builder.add_agent(traffic(&hosts, duration, flows, seed));
        builder.run_sequential(NoApp, duration)
    };

    eprintln!("# clean reference run …");
    let clean = run(None);
    eprintln!("# faulted run …");
    let faults = FaultState::flat(&net, CostMetric::Latency, script)
        .expect("random_link_flaps scripts validate");
    let faulted = run(Some(faults.clone()));

    println!("== fault_flap_study ({scale:?}, seed {seed}) ==");
    println!(
        "network: {} nodes / {} links, {} flows over {:.0}s, TCP retry budget {}",
        net.node_count(),
        net.links.len(),
        flows,
        duration.as_secs_f64(),
        MAX_RETRIES
    );

    // Packet-loss windows: the faulty epochs, with their failure state.
    println!();
    println!(
        "{:>5} {:>10} {:>10} {:>11} {:>11}",
        "epoch", "start_s", "end_s", "links_down", "nodes_down"
    );
    for e in 0..faults.epoch_count() {
        let start = faults.epoch_start(e);
        let end = if e + 1 < faults.epoch_count() {
            faults.epoch_start(e + 1)
        } else {
            duration
        };
        let st = faults.epoch_state(e);
        println!(
            "{:>5} {:>10.2} {:>10.2} {:>11} {:>11}",
            e,
            start.as_secs_f64(),
            end.as_secs_f64(),
            st.dead_links.len(),
            st.dead_nodes.len()
        );
    }

    let abort_rate = |p: &ProfileData| {
        let total = p.completed_flows + p.aborted_flows;
        if total == 0 {
            0.0
        } else {
            p.aborted_flows as f64 / total as f64
        }
    };
    println!();
    // Every profile count under its declared name, then the derived
    // rates.
    println!("{:<27} {:>14} {:>14}", "metric", "clean", "faulted");
    println!(
        "{:<27} {:>14} {:>14}",
        "total events", clean.stats.total_events, faulted.stats.total_events
    );
    let faulted_counts = faulted.profile.counts();
    for ((name, c), (_, f)) in clean.profile.counts().into_iter().zip(faulted_counts) {
        println!("{name:<27} {c:>14} {f:>14}");
    }
    println!(
        "{:<27} {:>14.4} {:>14.4}",
        "route-cache hit rate",
        clean.profile.route_cache.hit_rate(),
        faulted.profile.route_cache.hit_rate()
    );
    println!(
        "{:<27} {:>14.4} {:>14.4}",
        "flow abort rate",
        abort_rate(&clean.profile),
        abort_rate(&faulted.profile)
    );
    println!(
        "{:<27} {:>14} {:>14}",
        "reconvergences",
        0,
        faults.reconvergence_count()
    );
    println!("  (= fault epochs entered, not tables built: a tree is computed on the first route neither of whose ends has one)");

    // Which shortest-path trees each entered epoch paid for (clean
    // epochs share the base resolver, so they repeat its line). Host-side
    // diagnostic: in a parallel run these depend on thread interleaving.
    println!();
    for e in 0..faults.epoch_count() {
        if let Some(s) = faults.epoch_spt_stats(e) {
            println!("epoch {e:>3}: {}", count_list(&s));
        }
    }

    // HPROF drift: map the network with the clean profile and with the
    // faulted profile; report how far the assignment and the resulting
    // load balance move.
    let cfg = opts.mapping_config();
    eprintln!("# HPROF mapping with clean profile …");
    let map_clean = map_network(&net, Some(&clean.profile), MappingApproach::Hprof, &cfg);
    eprintln!("# HPROF mapping with faulted profile …");
    let map_fault = map_network(&net, Some(&faulted.profile), MappingApproach::Hprof, &cfg);
    let moved = map_clean
        .partition
        .assignment
        .iter()
        .zip(&map_fault.partition.assignment)
        .filter(|(a, b)| a != b)
        .count();
    let drift = moved as f64 / net.node_count() as f64;
    let engines = cfg.engines;
    let imb_clean = load_imbalance(&partition_loads(
        &faulted.profile,
        &map_clean.partition.assignment,
        engines,
    ));
    let imb_fault = load_imbalance(&partition_loads(
        &faulted.profile,
        &map_fault.partition.assignment,
        engines,
    ));
    println!();
    println!("HPROF drift ({engines} engines):");
    println!(
        "  assignment drift:    {:.4} ({moved}/{} nodes reassigned)",
        drift,
        net.node_count()
    );
    println!("  imbalance (clean-profile map, faulted load):   {imb_clean:.4}");
    println!("  imbalance (faulted-profile map, faulted load): {imb_fault:.4}");
}
