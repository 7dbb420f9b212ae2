//! D5 fixture: measured barrier-wait times are wall-clock readings even
//! though they live in `ExecutionStats` next to deterministic counters.
//! Their type, `WallMicros`, converts into no `SimTime` and no integer,
//! and `disallowed-methods` (crates/clippy.toml) flags both of their
//! reads outside the bench crate — a report-only read too. Each flagged
//! line says so.

use massf_engine::{ExecutionStats, SimTime};

pub fn wait_steers_event_time(stats: &ExecutionStats) -> SimTime {
    let stall = stats.total_barrier_wait_us(); // flagged: measured wall clock
    SimTime::from_secs_f64(stall)
}

pub fn per_round_wait_becomes_seed(stats: &ExecutionStats) -> SimTime {
    let waits = stats.barrier_wait_us.iter();
    let widest = waits.map(|w| w.as_f64()).fold(0.0, f64::max); // flagged: per-round wall clock
    SimTime::from_secs_f64(widest)
}

pub fn waits_reported(stats: &ExecutionStats, report: &mut String) {
    let stall = stats.total_barrier_wait_us(); // flagged: a report-only read
    report.push_str(&format!("{stall}"));
}

// Shapes that must NOT fire: deterministic load signals may steer the
// decision, and the number of measurements is not a measurement.

pub fn totals_steer_the_decision(stats: &ExecutionStats, threshold_permille: u64) -> bool {
    stats.imbalance_permille() > threshold_permille
}

pub fn measured_partitions(stats: &ExecutionStats) -> usize {
    stats.barrier_wait_us.len()
}
