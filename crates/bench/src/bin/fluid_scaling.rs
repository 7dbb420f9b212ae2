//! Fluid-model scaling bench: million-flow background traffic on one
//! host (BENCH_fluid.json).
//!
//! Runs [`massf_bench::fluid_scaling`]'s 1M-flow workload. All flows
//! are concurrently live for most of the run — the probe phase stops
//! mid-transfer and counts live flows — then the measured phase runs to
//! completion and compares the executed event count against the
//! analytic packet-level equivalent of the same byte volume
//! (`segments × 2·hops` kernel events per flow, the *one-hop* lower
//! bound, so the reported reduction is conservative).
//!
//! ```text
//! cargo run --release -p massf-bench --bin fluid_scaling
//! ```
//!
//! Takes no arguments. The run asserts ≥ 50× event reduction and the
//! max-min invariants at the probe point over 1 048 576 concurrent
//! fluid flows; `crates/bench/tests/fluid_scaling.rs` checks the same
//! on a 16k-flow fixture, plus sequential ≡ parallel and its recorded
//! event and solver counters.

use massf_bench::fluid_scaling::{FluidScaling, LINK_BPS, START_WINDOW};
use massf_engine::{run_sequential, SimTime};
use massf_netsim::{NetWorld, NoApp};
use std::time::Instant;

fn main() {
    if std::env::args().len() > 1 {
        eprintln!("error: fluid_scaling takes no arguments\nusage: fluid_scaling");
        std::process::exit(2);
    }
    let cfg = FluidScaling {
        groups: 1024,
        flows_per_group: 1024,
        bytes_per_flow: 1_500_000,
        probe: SimTime::from_secs(1),
        end: SimTime::from_secs(30),
    };
    let total_flows = cfg.flows();
    eprintln!(
        "# flows_1m: {} groups × {} flows = {} fluid flows, {} B each …",
        cfg.groups, cfg.flows_per_group, total_flows, cfg.bytes_per_flow
    );

    let builder = cfg.builder();
    let shared = builder.shared();
    let events = builder.initial_events();

    // Probe: stop mid-transfer, count live flows, check solver
    // invariants over the full million-flow state.
    eprintln!("# probe run to {:.1}s …", cfg.probe.as_secs_f64());
    let n = shared.lp_count();
    let mut probe_world = NetWorld::new(shared, NoApp);
    run_sequential(&mut probe_world, n, events, cfg.probe);
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

    let packet_equiv = cfg.packet_equivalent_events();
    let reduction = packet_equiv as f64 / out.stats.total_events as f64;
    eprintln!(
        "# {} fluid events vs {} packet-equivalent: {reduction:.0}× reduction, {:.0} ms wall",
        out.stats.total_events, packet_equiv, fluid_ms
    );
    assert!(
        reduction >= 50.0,
        "event-count reduction {reduction:.1}× is below the 50× acceptance floor"
    );

    let events_per_sec = out.stats.total_events as f64 / (fluid_ms / 1e3);
    println!("{{");
    println!("  \"config\": \"flows_1m\",");
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
    println!("    \"cap_updates\": {}", out.profile.fluid.cap_updates);
    println!("  }}");
    println!("}}");
}
