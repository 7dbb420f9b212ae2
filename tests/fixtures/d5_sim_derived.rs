//! D5 clean fixture: the deterministic way to produce event times and
//! seeds — everything derives from scenario config or simulated state.
//! Clippy must report nothing here in the strictest scopes.

pub fn schedule_from_sim_state(q: &mut EventQueue, now: SimTime, flow: &Flow) {
    // Event time = current virtual time + a latency computed from the
    // scenario topology. No host clock anywhere in the chain.
    let latency = flow.route_latency_ns();
    let t = SimTime(now.0 + latency);
    q.schedule_at(t, flow.next_event());
}

pub fn seed_from_config(cfg: &ScenarioConfig, world: &mut World) {
    // Per-host streams are split off the scenario's master seed; rerun
    // with the same config and every stream replays identically.
    let stream = cfg.master_seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    world.seed = stream ^ u64::from(world.host_id);
}

pub fn emit_sim_measurements(bus: &mut Bus, now: SimTime, delivered: u64) {
    // Emitting values that are pure functions of the simulation is the
    // whole point — only host-derived inputs are banned.
    bus.emit((now.0, delivered));
}

#[derive(Clone, Copy)]
pub struct SimTime(pub u64);
pub struct Event(pub u32);
pub struct EventQueue(Vec<(SimTime, Event)>);
impl EventQueue {
    pub fn schedule_at(&mut self, t: SimTime, ev: Event) {
        self.0.push((t, ev));
    }
}
pub struct Flow {
    pub hops: Vec<u64>,
}
impl Flow {
    fn route_latency_ns(&self) -> u64 {
        self.hops.iter().sum()
    }
    fn next_event(&self) -> Event {
        Event(0)
    }
}
pub struct ScenarioConfig {
    pub master_seed: u64,
}
pub struct World {
    pub seed: u64,
    pub host_id: u32,
}
pub struct Bus(Vec<(u64, u64)>);
impl Bus {
    pub fn emit(&mut self, sample: (u64, u64)) {
        self.0.push(sample);
    }
}
