// Fixture: D2 wall-clock reads. Scanned by tests/fixtures.rs, never
// compiled (the fixtures directory is excluded from workspace scans).
use std::time::{Instant, SystemTime, UNIX_EPOCH};

fn measures() -> f64 {
    let start = Instant::now(); // violation
    let _epoch = SystemTime::now() // violation (SystemTime)
        .duration_since(UNIX_EPOCH); // violation (UNIX_EPOCH)
    start.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    // No violation: test code may time itself.
    #[test]
    fn timing_in_tests_is_fine() {
        let _ = std::time::Instant::now();
    }
}
