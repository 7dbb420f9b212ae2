// Fixture: suppression forms. Scanned by tests/fixtures.rs, never
// compiled (the fixtures directory is excluded from workspace scans).
// simlint: allow-file(cast-lossy) -- fixture-wide: indices bounded by construction

fn site_suppressed(o: Option<u32>) -> u32 {
    // simlint: allow(unwrap-audit) -- exercised by the suppression test
    o.unwrap()
}

fn trailing_suppressed(o: Option<u32>) -> u32 {
    o.unwrap() // simlint: allow(unwrap-audit) -- trailing form
}

fn file_suppressed(n: usize) -> u32 {
    n as u32 // covered by the allow-file directive above
}

fn still_fires(o: Option<u32>) -> u32 {
    o.unwrap() // violation: no suppression reaches this line
}
