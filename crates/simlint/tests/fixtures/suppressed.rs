// Fixture: suppression forms, `#[expect]` attributes with a reason.
// Checked with clippy by tests/fixtures.rs as the `engine` crate.
#![expect(clippy::cast_possible_truncation, reason = "fixture-wide: indices bounded by construction")]

fn site_suppressed(o: Option<u32>) -> u32 {
    #[expect(clippy::unwrap_used, reason = "exercised by the suppression test")]
    let v = o.unwrap();
    v + 1
}

#[expect(clippy::unwrap_used, reason = "item form: the whole function")]
fn item_suppressed(o: Option<u32>) -> u32 { o.unwrap() }

fn file_suppressed(n: usize) -> u32 {
    n as u32 // covered by the module-wide expect above
}

fn still_fires(o: Option<u32>) -> u32 {
    o.unwrap() // violation: no expectation reaches this line
}
