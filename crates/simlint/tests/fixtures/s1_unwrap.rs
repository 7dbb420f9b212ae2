// Fixture: S1 unwrap/expect/panic audit. Scanned by tests/fixtures.rs,
// never compiled (the fixtures directory is excluded from workspace scans).

fn panics(o: Option<u32>, r: Result<u32, String>) -> u32 {
    let a = o.unwrap(); // violation: no message
    let b = r.expect(""); // violation: empty message
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
fn test_fns_are_exempt() {
    let x: Option<u32> = Some(1);
    assert_eq!(x.unwrap(), 1); // no violation: test code
}
