//! D5 clean fixture: the deterministic way to produce event times and
//! seeds — everything derives from scenario config or simulated state.
//! Must pass every rule in the strictest scopes.

pub fn schedule_from_sim_state(q: &mut EventQueue, now: SimTime, flow: &Flow) {
    // Event time = current virtual time + a latency computed from the
    // scenario topology. No host clock anywhere in the chain.
    let latency = flow.route_latency_ns();
    let t = now + SimDuration::from_ns(latency);
    q.schedule_at(t, flow.next_event());
}

pub fn seed_from_config(cfg: &ScenarioConfig, world: &mut World) {
    // Per-host streams are split off the scenario's master seed; rerun
    // with the same config and every stream replays identically.
    let stream = cfg.master_seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    world.cfg.seed = stream ^ u64::from(world.host_id);
}

pub fn emit_sim_measurements(bus: &mut Bus, now: SimTime, delivered: u64) {
    // Emitting values that are pure functions of the simulation is the
    // whole point — only host-derived inputs are banned.
    bus.emit(Sample::new(now, delivered));
}
