//! D5 fixture: host-environment values flowing through locals into
//! simulation inputs. Clippy cuts every such flow at its source, whatever
//! sink the value would reach: the wall-clock read and the OS-entropy
//! seed (`disallowed-types`), the address read (`disallowed-methods`) and
//! the hash container (`disallowed-types`). Host reads are flagged even
//! without a sink, and in test code. Each flagged line says so.

pub fn wall_clock_becomes_event_time(q: &mut EventQueue, ev: Event) {
    let stamp = std::time::SystemTime::now(); // flagged: wall clock
    let nanos = to_ns(stamp); // taint would propagate: nanos <- stamp
    let t = SimTime::from_ns(nanos); // sink: an event time
    q.schedule_at(t, ev); // sink: `t` carries the taint
}

pub fn entropy_becomes_seed(world: &mut World) {
    let raw = std::hash::BuildHasher::hash_one(&std::hash::RandomState::new(), 7u64); // flagged
    let mixed = raw ^ 0x9e37_79b9_7f4a_7c15; // taint would propagate: mixed <- raw
    world.seed = mixed; // sink: a seed field
}

pub fn pointer_order_leaks_into_emit(hosts: &[Host], bus: &mut Bus) {
    let key = hosts.as_ptr() as usize; // flagged: address read
    bus.emit(key as u64); // sink: an emitted value
}

pub fn hash_order_becomes_event_time(
    delays: &std::collections::HashMap<u32, u64>, // flagged: hash container
    q: &mut EventQueue,
    ev: Event,
) {
    let first = delays.get(&0).copied().unwrap_or(0);
    q.schedule_at(SimTime::from_ns(first), ev);
}

// Shapes with no host value, which must NOT fire:

pub fn sim_derived_time_is_fine(q: &mut EventQueue, now: SimTime, ev: Event) {
    let t = SimTime::from_ns(now.0 + ev.delay_ns); // derived purely from simulated state
    q.schedule_at(t, ev);
}

pub fn taint_without_a_sink(metrics: &mut Metrics) {
    metrics.wall_start_ns = to_ns(std::time::SystemTime::now()); // flagged: still a host read
}

pub struct SimTime(pub u64);
impl SimTime {
    pub fn from_ns(ns: u64) -> SimTime {
        SimTime(ns)
    }
}
pub struct Event {
    pub delay_ns: u64,
}
pub struct EventQueue(Vec<(SimTime, Event)>);
impl EventQueue {
    pub fn schedule_at(&mut self, t: SimTime, ev: Event) {
        self.0.push((t, ev));
    }
}
pub struct World {
    pub seed: u64,
}
pub struct Host;
pub struct Bus(Vec<u64>);
impl Bus {
    pub fn emit(&mut self, v: u64) {
        self.0.push(v);
    }
}
pub struct Metrics {
    pub wall_start_ns: u64,
}
fn to_ns<T>(_stamp: T) -> u64 {
    0
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_is_checked_too() {
        let t = super::to_ns(std::time::SystemTime::now()); // flagged
        assert!(t < u64::MAX);
    }
}
