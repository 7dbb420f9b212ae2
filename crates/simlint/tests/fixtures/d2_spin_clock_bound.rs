//! Violating twin of `d2_spin_park_barrier.rs`: the same spin on a
//! generation word, but bounded by elapsed host time instead of an
//! iteration count. A deterministic-critical crate must not read the
//! clock, even "only to decide when to stop spinning".

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

const SPIN_FOR: Duration = Duration::from_micros(50);

pub fn spin_until_released(generation: &AtomicU64, gen: u64) -> bool {
    let start = std::time::Instant::now(); // line 12: disallowed type
    while generation.load(Ordering::Acquire) == gen {
        if start.elapsed() > SPIN_FOR {
            return false; // caller parks
        }
        std::hint::spin_loop();
    }
    true
}
