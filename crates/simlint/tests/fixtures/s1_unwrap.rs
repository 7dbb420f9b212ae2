// Fixture: unwrap/expect/panic. Checked with clippy by tests/fixtures.rs;
// the fixtures directory is never built.

fn panics(o: Option<u32>, r: Result<u32, String>) -> u32 {
    let a = o.unwrap(); // violation: no message
    let b = r.expect(""); // the documented gap: no lint matches an empty message
    if a + b == 0 {
        panic!("zero"); // violation: panic!
    }
    a + b
}

fn documented(o: Option<u32>) -> u32 {
    // No violations: a written justification or a non-panicking fallback.
    o.expect("validated by the caller") + o.unwrap_or(0)
}

#[test]
fn test_fns_may_panic() {
    let x = documented(Some(1));
    if x != 2 { panic!("sum is {x}"); } // no violation: allow-panic-in-tests
}
