//! Fluid-model scaling bench: million-flow background traffic on one
//! host (BENCH_fluid.json).
//!
//! Builds `groups` disconnected host pairs (one bottleneck link each)
//! and starts `flows_per_group` fluid flows on every pair, staggered
//! over the first 100 ms. All of them are concurrently live for most of
//! the run — the probe phase stops mid-transfer and counts live flows —
//! then the measured phase runs to completion and compares the executed
//! event count against the analytic packet-level equivalent of the same
//! byte volume (`segments × 2·hops` kernel events per flow, the
//! *one-hop* lower bound, so the reported reduction is conservative).
//!
//! ```text
//! cargo run --release -p massf-bench --bin fluid_scaling [-- --smoke]
//! ```
//!
//! `--smoke` runs a seconds-scale fixture for CI and self-checks the
//! acceptance properties: ≥ 50× event reduction, max-min invariants at
//! the probe point, sequential ↔ parallel bit-identity (window
//! capped at `FLUID_CONTROL_DELAY`), and the fixture's deterministic
//! event and solver counters equal to the recorded ones. The full run
//! sustains 1 048 576 concurrent fluid flows.

use massf_engine::{run_sequential, SimTime};
use massf_netsim::packet::segments_for;
use massf_netsim::world::events_per_roundtrip;
use massf_netsim::{NetSimBuilder, NetWorld, NoApp, FLUID_CONTROL_DELAY};
use massf_routing::{CostMetric, FlatResolver};
use massf_topology::{AsId, Network, NodeKind, Point};
use std::sync::Arc;
use std::time::Instant;

struct Config {
    label: &'static str,
    groups: usize,
    flows_per_group: usize,
    bytes_per_flow: u64,
    /// Virtual time at which every flow is live and none has finished.
    probe: SimTime,
    end: SimTime,
}

/// Per-group bottleneck: 1 Gbit/s ⇒ exactly 125 MB/s of shareable
/// capacity, so fair shares stay integral-ish and finish times are easy
/// to predict.
const LINK_BPS: f64 = 1e9;
/// All starts are staggered across this window.
const START_WINDOW: SimTime = SimTime::from_ms(100);

fn build(cfg: &Config) -> NetSimBuilder {
    let mut net = Network::new();
    let mut pairs = Vec::with_capacity(cfg.groups);
    for g in 0..cfg.groups {
        let x = g as f64;
        let a = net.add_node(NodeKind::Host, Point::new(x, 0.0), AsId(0));
        let b = net.add_node(NodeKind::Host, Point::new(x, 1.0), AsId(0));
        net.add_link(a, b, LINK_BPS, 1.0);
        pairs.push((a, b));
    }
    let resolver = Arc::new(FlatResolver::new(&net, CostMetric::Latency));
    let mut builder = NetSimBuilder::new(net, resolver);
    let total = cfg.groups * cfg.flows_per_group;
    let spacing = (START_WINDOW.as_ns() / total as u64).max(1);
    for i in 0..total {
        let (a, b) = pairs[i % cfg.groups];
        builder.add_fluid_flow(
            SimTime(i as u64 * spacing),
            a,
            b,
            cfg.bytes_per_flow,
            0, // unbounded: bottleneck-limited
        );
    }
    builder
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = match args.as_slice() {
        [] => false,
        [a] if a == "--smoke" => true,
        other => {
            eprintln!("error: unknown arguments {other:?}\nusage: fluid_scaling [--smoke]");
            std::process::exit(2);
        }
    };
    let cfg = if smoke {
        Config {
            label: "smoke_16k",
            groups: 64,
            flows_per_group: 256,
            bytes_per_flow: 600_000,
            probe: SimTime::from_ms(300),
            end: SimTime::from_secs(5),
        }
    } else {
        Config {
            label: "flows_1m",
            groups: 1024,
            flows_per_group: 1024,
            bytes_per_flow: 1_500_000,
            probe: SimTime::from_secs(1),
            end: SimTime::from_secs(30),
        }
    };
    let total_flows = (cfg.groups * cfg.flows_per_group) as u64;
    eprintln!(
        "# {}: {} groups × {} flows = {} fluid flows, {} B each …",
        cfg.label, cfg.groups, cfg.flows_per_group, total_flows, cfg.bytes_per_flow
    );

    let builder = build(&cfg);
    let shared = builder.shared();
    let events = builder.initial_events();

    // Probe: stop mid-transfer, count live flows, check solver
    // invariants over the full million-flow state.
    eprintln!("# probe run to {:.1}s …", cfg.probe.as_secs_f64());
    let n = shared.lp_count();
    let mut probe_world = NetWorld::new(shared.clone(), NoApp);
    run_sequential(&mut probe_world, n, events.clone(), cfg.probe);
    let concurrent = probe_world.fluid_live_flows() as u64;
    eprintln!("# {concurrent} flows live at the probe point");
    if let Err(e) = probe_world.check_fluid_invariants() {
        eprintln!("error: max-min invariants violated at probe: {e}");
        std::process::exit(1);
    }
    assert_eq!(
        concurrent, total_flows,
        "every flow must be mid-transfer at the probe point"
    );

    // Measured run: everything completes; wall-clock timed.
    eprintln!("# measured run to {:.1}s …", cfg.end.as_secs_f64());
    let wall = Instant::now();
    let out = builder.run_sequential(NoApp, cfg.end);
    let fluid_ms = wall.elapsed().as_secs_f64() * 1e3;
    assert_eq!(out.profile.fluid.started, total_flows);
    assert_eq!(
        out.profile.fluid.completed, total_flows,
        "all flows must finish inside the horizon"
    );

    // Analytic packet-level equivalent of the same delivered bytes:
    // every MSS segment costs `2·hops` kernel events (data + ACK
    // arrivals), and each group path is a single hop.
    let packet_equiv =
        total_flows * segments_for(cfg.bytes_per_flow) as u64 * events_per_roundtrip(1);
    let reduction = packet_equiv as f64 / out.stats.total_events as f64;
    eprintln!(
        "# {} fluid events vs {} packet-equivalent: {reduction:.0}× reduction, {:.0} ms wall",
        out.stats.total_events, packet_equiv, fluid_ms
    );

    // Self-checks (CI gate under --smoke; cheap enough to always run).
    assert!(
        reduction >= 50.0,
        "event-count reduction {reduction:.1}× is below the 50× acceptance floor"
    );
    let mut par_line = String::new();
    if smoke {
        // Bit-identity: the same workload on the threaded conservative
        // executor. Groups are whole per partition, so no topology link
        // is cut and the window is bounded only by the fluid control
        // delay.
        let nodes = shared.net.node_count();
        let parts = 4u32;
        // simlint: allow(cast-lossy) -- group index over a bench fixture
        let assignment: Vec<u32> = (0..nodes).map(|i| ((i / 2) as u32) % parts).collect();
        let par = builder
            .try_run_parallel(
                NoApp,
                cfg.end,
                FLUID_CONTROL_DELAY,
                &assignment,
                parts as usize,
            )
            .expect("window equals the fluid control delay, the promised lookahead");
        assert_eq!(
            par.stats.total_events, out.stats.total_events,
            "parallel fluid run diverged from sequential"
        );
        assert_eq!(
            par.stats.lp_events, out.stats.lp_events,
            "per-LP event attribution diverged"
        );
        assert_eq!(
            par.profile, out.profile,
            "parallel fluid profile diverged from sequential"
        );
        par_line = format!(",\n    \"parallel_bit_identical\": true, \"partitions\": {parts}");
        // Deterministic fixture: a solver edit that moves simulated
        // behaviour fails here by counter name (BENCH_fluid.json).
        let fl = &out.profile.fluid;
        for (name, got, recorded) in [
            ("fluid_events", out.stats.total_events, 109_760),
            ("rate_recomputes", fl.rate_recomputes, 4_194_304),
            ("bottleneck_recomputes", fl.bottleneck_recomputes, 32_768),
            ("finish_arms", fl.finish_arms, 93_248),
            ("cap_updates", fl.cap_updates, 128),
        ] {
            assert_eq!(got, recorded, "{name} moved from its recorded value");
        }
        eprintln!("# smoke checks passed (≥ 50×, seq ↔ par bit-identical, recorded counters)");
    }

    let events_per_sec = out.stats.total_events as f64 / (fluid_ms / 1e3);
    println!("{{");
    println!("  \"config\": \"{}\",", cfg.label);
    println!(
        "  \"workload\": {{ \"groups\": {}, \"flows_per_group\": {}, \"bytes_per_flow\": {}, \"link_bps\": {}, \"start_window_ms\": {}, \"horizon_s\": {} }},",
        cfg.groups,
        cfg.flows_per_group,
        cfg.bytes_per_flow,
        LINK_BPS,
        START_WINDOW.as_ms_f64(),
        cfg.end.as_secs_f64()
    );
    println!("  \"results\": {{");
    println!("    \"concurrent_fluid_flows\": {concurrent},");
    println!(
        "    \"completed_fluid_flows\": {},",
        out.profile.fluid.completed
    );
    println!("    \"fluid_events\": {},", out.stats.total_events);
    println!("    \"packet_equivalent_events\": {packet_equiv},");
    println!("    \"event_reduction\": {reduction:.1},");
    println!("    \"wall_ms\": {fluid_ms:.1},");
    println!("    \"events_per_sec\": {events_per_sec:.0},");
    println!("    \"finish_arms\": {},", out.profile.fluid.finish_arms);
    println!(
        "    \"rate_recomputes\": {},",
        out.profile.fluid.rate_recomputes
    );
    println!(
        "    \"bottleneck_recomputes\": {},",
        out.profile.fluid.bottleneck_recomputes
    );
    println!(
        "    \"cap_updates\": {}{par_line}",
        out.profile.fluid.cap_updates
    );
    println!("  }}");
    println!("}}");
}
