//! The fluid-scaling workload at 16k flows: every flow is live and the
//! max-min invariants hold mid-transfer, the run costs ≥ 50× fewer
//! events than its packet-level equivalent, a 4-partition parallel run
//! answers exactly what the sequential one does, and the event and
//! solver counters equal the ones recorded in BENCH_fluid.json — a
//! solver edit that moves simulated behaviour fails here by counter
//! name.

use massf_bench::fluid_scaling::FluidScaling;
use massf_engine::{run_sequential, SimTime};
use massf_netsim::{NetWorld, NoApp, FLUID_CONTROL_DELAY};

const FIXTURE_16K: FluidScaling = FluidScaling {
    groups: 64,
    flows_per_group: 256,
    bytes_per_flow: 600_000,
    probe: SimTime::from_ms(300),
    end: SimTime::from_secs(5),
};

#[test]
fn sixteen_thousand_fluid_flows_keep_their_recorded_counters() {
    let cfg = FIXTURE_16K;
    let builder = cfg.builder();
    let shared = builder.shared();

    let n = shared.lp_count();
    let mut probe = NetWorld::new(shared.clone(), NoApp);
    run_sequential(&mut probe, n, builder.initial_events(), cfg.probe);
    assert_eq!(probe.fluid_live_flows() as u64, cfg.flows());
    probe
        .check_fluid_invariants()
        .expect("max-min invariants hold at the probe point");

    let seq = builder.run_sequential(NoApp, cfg.end);
    let fl = &seq.profile.fluid;
    assert_eq!((fl.started, fl.completed), (cfg.flows(), cfg.flows()));
    for (name, got, recorded) in [
        ("fluid_events", seq.stats.total_events, 109_760),
        ("rate_recomputes", fl.rate_recomputes, 4_194_304),
        ("bottleneck_recomputes", fl.bottleneck_recomputes, 32_768),
        ("finish_arms", fl.finish_arms, 93_248),
        ("cap_updates", fl.cap_updates, 128),
    ] {
        assert_eq!(got, recorded, "{name} moved from its recorded value");
    }
    let reduction = cfg.packet_equivalent_events() as f64 / seq.stats.total_events as f64;
    assert!(reduction >= 50.0, "event reduction {reduction:.1}× < 50×");

    // Groups are whole per partition, so no link is cut and the window
    // is bounded only by the fluid control delay.
    let parts = 4u32;
    let assignment: Vec<u32> = (0..n).map(|i| ((i / 2) as u32) % parts).collect();
    let par = builder
        .try_run_parallel(
            NoApp,
            cfg.end,
            FLUID_CONTROL_DELAY,
            &assignment,
            parts as usize,
        )
        .expect("window equals the fluid control delay, the promised lookahead");
    assert_eq!(par.stats.total_events, seq.stats.total_events);
    assert_eq!(par.stats.lp_events, seq.stats.lp_events);
    assert_eq!(par.profile, seq.profile);
}
