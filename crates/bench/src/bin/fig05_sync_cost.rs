//! Figure 5: synchronization cost of the TeraGrid cluster vs number of
//! simulation-engine nodes.
//!
//! Prints the fitted model C(N) at the paper's x-axis points, and — for
//! thread counts this host can actually run — a live measurement of one
//! barrier round for comparison. A second section runs the real
//! parallel executor over a small packet workload with the
//! [`MeasuredBarriers`] observer attached, reporting *measured*
//! per-partition barrier-wait time, executed barrier rounds, and the
//! empty windows the fast-forward skipped — the executor-level ground
//! truth behind the model's `n_windows × C(N)` term.

use massf_bench::{measure_barrier_cost_us, MeasuredBarriers};
use massf_engine::synccost::SyncCostModel;
use massf_engine::SimTime;
use massf_netsim::{Agent, NetSimBuilder, NoApp};
use massf_routing::{CostMetric, FlatResolver};
use massf_topology::{generate_flat_network, FlatTopologyConfig};
use std::sync::Arc;

fn main() {
    let model = SyncCostModel::teragrid();
    println!("== Figure 5: Synchronization Cost of the TeraGrid Cluster ==");
    println!(
        "{:>6} {:>16} {:>22}",
        "nodes", "model C(N) [us]", "measured barrier [us]"
    );
    for n in [2usize, 6, 16, 48, 80, 112, 128] {
        let measured = if n <= 16 {
            format!("{:.1}", measure_barrier_cost_us(n, 200))
        } else {
            "-".to_string()
        };
        println!("{:>6} {:>16.1} {:>22}", n, model.cost_us(n), measured);
    }
    println!();
    println!(
        "paper anchor: C(100) ≈ 580 us (Section 3.4.1); model gives {:.1} us",
        model.cost_us(100)
    );

    // Measured executor sync cost: real parallel runs over a tiny flat
    // network, barrier waits measured by the bench-side observer (the
    // engine itself never reads the clock).
    let net = generate_flat_network(&FlatTopologyConfig::tiny());
    let resolver = Arc::new(FlatResolver::new(&net, CostMetric::Latency));
    let hosts = net.host_ids();
    let duration = SimTime::from_secs(10);
    let traffic = || {
        let mut agent = Agent::new();
        for (i, pair) in hosts.chunks(2).take(24).enumerate() {
            if let [a, b] = pair {
                agent.inject_tcp(SimTime::from_ms(40 * i as u64), *a, *b, 40_000);
            }
        }
        agent
    };

    println!();
    println!(
        "== Measured executor synchronization (tiny flat network, {:.0}s) ==",
        duration.as_secs_f64()
    );
    println!(
        "{:>6} {:>9} {:>10} {:>9} {:>14} {:>10}",
        "parts", "rounds", "executed", "skipped", "wait/part [us]", "us/round"
    );
    for partitions in [2usize, 4, 8] {
        let assignment: Vec<u32> = (0..net.node_count())
            .map(|i| (i % partitions) as u32)
            .collect();
        let mll = net.cut_mll_ms(&assignment).unwrap_or(f64::INFINITY);
        let window = SimTime::from_ms_f64(mll);
        if window == SimTime::ZERO {
            println!("{partitions:>6} (cut has zero MLL; skipped)");
            continue;
        }
        let mut builder = NetSimBuilder::new(net.clone(), resolver.clone());
        builder.add_agent(traffic());
        let observer = MeasuredBarriers::new(partitions);
        match builder.try_run_parallel_observed(
            NoApp,
            duration,
            window,
            &assignment,
            partitions,
            &observer,
        ) {
            Ok(out) => {
                let waits = &out.stats.barrier_wait_us;
                let mean = waits.iter().sum::<f64>() / waits.len().max(1) as f64;
                let per_round = if out.stats.barrier_rounds > 0 {
                    mean / out.stats.barrier_rounds as f64
                } else {
                    0.0
                };
                println!(
                    "{:>6} {:>9} {:>10} {:>9} {:>14.1} {:>10.2}",
                    partitions,
                    out.stats.barrier_rounds,
                    out.stats.windows_executed,
                    out.stats.windows_skipped,
                    mean,
                    per_round
                );
            }
            Err(e) => println!("{partitions:>6} run failed: {e}"),
        }
    }
    println!(
        "(skipped = empty windows the fast-forward jumped; the pre-overhaul\n\
         executor paid 2 barriers for each of them. With more partitions\n\
         than cores every wait parks at once and the wait column measures\n\
         scheduling, not synchronization — the model above feeds the\n\
         evaluation.)"
    );
}
