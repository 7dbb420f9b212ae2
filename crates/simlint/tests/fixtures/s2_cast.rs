// Fixture: lossy `as` casts. Checked with clippy by tests/fixtures.rs as
// the `engine` crate; the fixtures directory is never built.

fn narrows(n: usize, x: u64, f: f64) -> (u32, u16, f32) {
    let a = n as u32; // violation
    let b = x as u16; // violation
    let c = f as f32; // violation
    (a, b, c)
}

fn widens(a: u16, b: u32) -> (u64, f64, usize) {
    // No violations: widening casts cannot truncate.
    (a as u64, b as f64, b as usize)
}
