// Fixture: wall-clock reads clippy denies outside bench. Checked with
// clippy by tests/fixtures.rs; the fixtures directory is never built.
use std::time::Duration;

fn measures() -> Duration {
    let start = std::time::Instant::now(); // violation
    let _epoch = std::time::SystemTime::now() // violation (SystemTime)
        .duration_since(std::time::SystemTime::UNIX_EPOCH); // violation (its epoch)
    start.elapsed()
}

#[cfg(test)]
mod tests {
    #[test]
    fn timing_in_tests() {
        let _ = std::time::Instant::now(); // violation: tests get no exemption
    }
}
