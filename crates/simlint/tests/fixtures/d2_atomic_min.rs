//! The overhauled parallel executor's atomic-min rendezvous pattern
//! (crates/engine/src/par.rs): each worker publishes its next local
//! event time with a Relaxed store, crosses a barrier, and reduces the
//! global minimum with Relaxed loads — the barrier provides the
//! happens-before edge, no clock or entropy is involved, and the loop
//! iterates a slice (not a hash map). clippy must report nothing here,
//! for any crate: the hot path is clean by construction, not by
//! suppression.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;

const IDLE: u64 = u64::MAX;

pub fn publish_and_global_min(
    next_times: &[AtomicU64],
    mine: usize,
    local_next: Option<u64>,
    barrier: &Barrier,
) -> u64 {
    next_times[mine].store(local_next.unwrap_or(IDLE), Ordering::Relaxed);
    barrier.wait();
    let mut min = IDLE;
    for slot in next_times {
        min = min.min(slot.load(Ordering::Relaxed));
    }
    min
}

pub fn fast_forward_target(global_min: u64, end_ns: u64, window_ns: u64) -> Option<u64> {
    if global_min >= end_ns {
        return None;
    }
    Some(global_min / window_ns)
}
