//! D5 fixture: host-environment values flowing through locals into
//! simulation inputs. Clippy flags the wall-clock / entropy reads at
//! their own lines; determinism-taint fires at the *sinks* and names
//! the originating source line.

pub fn wall_clock_becomes_event_time(q: &mut EventQueue, ev: Event) {
    let stamp = SystemTime::now(); // `stamp` is now tainted
    let nanos = to_ns(stamp); // taint propagates: nanos <- stamp
    let t = SimTime::from_ns(nanos); // line 9: D5 at the from_ns sink
    q.schedule_at(t, ev); // line 10: D5 again — `t` carries the taint
}

pub fn entropy_becomes_seed(world: &mut World) {
    let raw = next_u64(&mut OsRng); // `raw` is tainted
    let mixed = raw ^ 0x9e37_79b9_7f4a_7c15; // taint propagates: mixed <- raw
    world.cfg.seed = mixed; // line 16: D5 at the `.seed =` field sink
}

pub fn pointer_order_leaks_into_emit(hosts: &[Host], bus: &mut Bus) {
    let key = hosts.as_ptr() as usize; // `key` tainted by the address read
    bus.emit(key as u64); // line 21: D5 at the emit sink
}

// Shapes that must NOT fire D5:

pub fn sim_derived_time_is_fine(q: &mut EventQueue, now: SimTime, ev: Event) {
    let t = now + ev.delay; // derived purely from simulated state
    q.schedule_at(t, ev);
}

pub fn taint_without_a_sink_is_fine(metrics: &mut Metrics) {
    let started = SystemTime::now(); // tainted, but no taint sink
    metrics.wall_start = started; // `.wall_start` is not a sim input
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_is_exempt() {
        let t = SimTime::from_ns(elapsed_ns(SystemTime::now()));
        assert!(t.as_ns() >= 0);
    }
}
