//! One fixture file per rule, checked by clippy under a crate's lint
//! configuration: assert exactly the marked lines fire. The fixtures
//! live in `tests/fixtures/`, which is never built; DESIGN.md §3 item 15
//! maps each determinism and safety rule to the lint or type that holds
//! it.

mod clippy;

use clippy::{findings, members, Finding};
use std::path::Path;

fn read_fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name);
    std::fs::read_to_string(path).expect("fixture file is readable")
}

fn clippy_fixture(name: &str, krate: &str) -> Vec<Finding> {
    findings(krate, &read_fixture(name))
}

/// The distinct lines of `found`, each checked to be one of `lints`.
fn lines_of(found: &[Finding], lints: &[&str]) -> Vec<u32> {
    assert!(
        found.iter().all(|f| lints.contains(&f.lint.as_str())),
        "{found:?}"
    );
    let mut lines: Vec<u32> = found.iter().map(|f| f.line).collect();
    lines.dedup();
    lines
}

const HASH_LINTS: [&str; 2] = ["clippy::disallowed_methods", "clippy::iter_over_hash_type"];
const BANNED_TYPE: &str = "clippy::disallowed_types";
const BANNED_METHOD: &str = "clippy::disallowed_methods";
const FLOAT: &str = "clippy::float_arithmetic";
const UNWRAP: &str = "clippy::unwrap_used";

#[test]
fn d1_hash_iteration_fixture() {
    let found = clippy_fixture("d1_hash_iter.rs", "engine");
    // The `use` line and each field naming a hash container; the keys()
    // loop, the for-loop over the set, the indexed-receiver iter().
    let [method, for_loop] = HASH_LINTS;
    assert_eq!(
        found,
        [
            (BANNED_TYPE, 4),
            (BANNED_TYPE, 7),
            (BANNED_TYPE, 8),
            (BANNED_TYPE, 9),
            (method, 14),
            (for_loop, 14),
            (for_loop, 18),
            (method, 22)
        ]
    );
}

#[test]
fn d1_does_not_apply_outside_deterministic_crates() {
    // The shims inherit no workspace lints and read no clippy.toml.
    let found = clippy_fixture("d1_hash_iter.rs", "shims/rand");
    assert!(found.is_empty(), "{found:?}");
}

#[test]
fn d2_wall_clock_fixture() {
    let found = clippy_fixture("d2_wallclock.rs", "engine");
    let lines = lines_of(&found, &[BANNED_TYPE]);
    // The test module's clock read is flagged too: clippy checks test
    // builds with the same configuration.
    assert_eq!(lines, [6, 7, 8, 16], "{found:?}");
    // bench is allowed to read the clock.
    assert!(clippy_fixture("d2_wallclock.rs", "bench").is_empty());
}

#[test]
fn d2_atomic_min_pattern_is_clean() {
    // The executor's Relaxed-atomics-plus-barrier rendezvous must pass
    // every lint without an expectation, in the strictest crate scope.
    for krate in ["engine", "core", "bench"] {
        let found = clippy_fixture("d2_atomic_min.rs", krate);
        assert!(found.is_empty(), "{krate}: {found:?}");
    }
}

#[test]
fn d2_spin_park_barrier_pattern_is_clean() {
    // The window barrier's atomic generation + `spin_loop` + iteration
    // budget + condvar park must pass every lint without an expectation.
    for krate in ["engine", "core", "bench"] {
        let found = clippy_fixture("d2_spin_park_barrier.rs", krate);
        assert!(found.is_empty(), "{krate}: {found:?}");
    }
}

#[test]
fn d2_clock_bounded_spin_is_flagged() {
    // The same spin bounded by `Instant::now()` reads the host clock.
    let found = clippy_fixture("d2_spin_clock_bound.rs", "engine");
    assert_eq!(found, [(BANNED_TYPE, 12)]);
    assert!(clippy_fixture("d2_spin_clock_bound.rs", "bench").is_empty());
}

#[test]
fn d1_route_interning_pattern_is_clean() {
    // The million-host layout's interning table (ordered-map point
    // lookups only) and CSR port table (sorted-array walks) must pass
    // every lint without an expectation in the crates that use them.
    for krate in ["netsim", "engine", "routing"] {
        let found = clippy_fixture("route_interning.rs", krate);
        assert!(found.is_empty(), "{krate}: {found:?}");
    }
}

#[test]
fn d1_snapshot_serializer_pattern_is_clean() {
    // The checkpoint serializer (sorted-slab walks + streaming CRC,
    // crates/snapshot) must pass every lint without an expectation in
    // the snapshot crate's own configuration and in the other
    // deterministic-critical crates.
    for krate in ["snapshot", "engine", "netsim"] {
        let found = clippy_fixture("snapshot_serializer.rs", krate);
        assert!(found.is_empty(), "{krate}: {found:?}");
    }
}

#[test]
fn d1_applies_to_the_snapshot_crate_by_default() {
    // A hash container in the snapshot crate is a violation: checkpoint
    // bytes must be a pure function of the world.
    let found = clippy_fixture("d1_hash_iter.rs", "snapshot");
    assert_eq!(found, clippy_fixture("d1_hash_iter.rs", "engine"));
}

#[test]
fn d3_entropy_fixture() {
    let found = clippy_fixture("d3_entropy.rs", "engine");
    assert_eq!(found, [(BANNED_TYPE, 7), (BANNED_TYPE, 8)]);
    assert!(clippy_fixture("d3_entropy.rs", "bench").is_empty());
}

#[test]
fn s1_unwrap_fixture() {
    let found = clippy_fixture("s1_unwrap.rs", "workloads");
    // unwrap, an expect whatever its message, and panic!.
    assert_eq!(
        found,
        [
            (UNWRAP, 5),
            ("clippy::expect_used", 6),
            ("clippy::panic", 8)
        ]
    );
}

#[test]
fn s2_cast_fixture() {
    let found = clippy_fixture("s2_cast.rs", "engine");
    let narrowing = ["clippy::cast_possible_truncation"];
    assert_eq!(lines_of(&found, &narrowing), [5, 6, 7], "{found:?}");
    // Out of scope for crates that do not deny narrowing casts.
    assert!(clippy_fixture("s2_cast.rs", "netsim").is_empty());
}

#[test]
fn d4_float_order_fixture() {
    let found = clippy_fixture("d4_float_order.rs", "engine");
    // The fold's `+` and the loop's `+=`; the adder passed by path. The
    // turbofish sum on line 8 is lint_config.rs's text check; the
    // max-fold, integer and test-module shapes are silent.
    assert_eq!(found, [(FLOAT, 12), (FLOAT, 18), (BANNED_METHOD, 24)]);
}

#[test]
fn d4_out_of_scope_crate_is_exempt() {
    // `workloads` does not deny float arithmetic: replay there never
    // feeds state back into the deterministic core. Only the adder by
    // path, banned in every crate, still fires.
    let found = clippy_fixture("d4_float_order.rs", "workloads");
    assert_eq!(found, [(BANNED_METHOD, 24)]);
}

#[test]
fn d4_partition_reduce_pattern_is_clean() {
    // The documented remediation — sort by partition id, reduce in a
    // fixed order, and say so in the expectation — must pass every lint
    // in the strictest scopes.
    for krate in ["engine", "parutil", "core"] {
        let found = clippy_fixture("d4_partition_reduce.rs", krate);
        assert!(found.is_empty(), "{krate}: {found:?}");
    }
}

/// Introducing a float reduction over per-partition results into
/// `crates/engine` fails the gate; the same code in `crates/workloads`
/// passes.
#[test]
fn deliberate_float_reduction_in_engine_fails_the_gate() {
    let reduction = "pub fn total(per_partition: &[f64]) -> f64 {\n\
                     \x20   per_partition.iter().fold(0.0, |sum, x| sum + x)\n\
                     }\n";
    assert_eq!(findings("engine", reduction), [(FLOAT, 2)]);
    // The same code is fine in a crate whose floats never feed a run.
    assert!(findings("workloads", reduction).is_empty());
}

#[test]
fn d5_taint_fixture() {
    // Every host value is flagged at its source: the wall clock (also
    // in the test module), OS entropy, an address, a hash container.
    let found = clippy_fixture("d5_taint.rs", "engine");
    assert_eq!(
        found,
        [
            (BANNED_TYPE, 9),
            (BANNED_TYPE, 16),
            (BANNED_METHOD, 22),
            (BANNED_TYPE, 27),
            (BANNED_TYPE, 43),
            (BANNED_TYPE, 82)
        ]
    );
}

#[test]
fn d5_barrier_wait_fixture() {
    // Both reads of a measured wait, a report-only read included; the
    // deterministic imbalance and the count of waits stay silent.
    let found = clippy_fixture("d5_barrier_wait.rs", "engine");
    assert_eq!(
        lines_of(&found, &[BANNED_METHOD]),
        [11, 17, 22],
        "{found:?}"
    );
    // bench may measure whatever it likes.
    let found = clippy_fixture("d5_barrier_wait.rs", "bench");
    assert!(found.is_empty(), "{found:?}");
}

#[test]
fn d5_bench_crate_is_exempt() {
    let found = clippy_fixture("d5_taint.rs", "bench");
    assert!(found.is_empty(), "{found:?}");
}

#[test]
fn d5_sim_derived_pattern_is_clean() {
    // Event times and seeds derived from scenario config / simulated
    // state hit the same sink functions and must stay silent.
    for krate in ["engine", "core", "netsim"] {
        let found = clippy_fixture("d5_sim_derived.rs", krate);
        assert!(found.is_empty(), "{krate}: {found:?}");
    }
}

#[test]
fn suppression_fixture() {
    let found = clippy_fixture("suppressed.rs", "engine");
    // Everything expected except the final undocumented unwrap.
    assert_eq!(found, [(UNWRAP, 19)]);
}

#[test]
fn suppressed_site_does_not_fire() {
    // One suppressed unwrap (doesn't count), one real one.
    let src = "pub fn f(o: Option<u32>) -> u32 {\n\
               \x20   #[expect(clippy::unwrap_used, reason = \"fixture: justified on purpose\")]\n\
               \x20   let v = o.unwrap();\n\
               \x20   v + 1\n\
               }\n\
               pub fn g(o: Option<u32>) -> u32 { o.unwrap() }\n";
    let found = findings("engine", src);
    assert_eq!(found, [(UNWRAP, 6)], "suppressed site must not fire");
}

#[test]
fn malformed_suppression_always_denies() {
    // An allow without a reason fails clippy in every member, even one
    // no other lint reaches.
    let src = "#[allow(clippy::unwrap_used)]\nfn f() {}\n";
    for member in members() {
        assert_eq!(
            findings(&member, src),
            [("clippy::allow_attributes_without_reason", 1)],
            "in {member}"
        );
    }
}

#[test]
fn clean_fixture_is_clean() {
    for krate in ["engine", "routing", "bench", "workloads"] {
        let found = clippy_fixture("clean.rs", krate);
        assert!(found.is_empty(), "{krate}: {found:?}");
    }
}

#[test]
fn d5_pointer_sources_fail_clippy_in_netsim() {
    // Every pointer-making line fires; `Arc::ptr_eq`, a coercion and
    // `{:p}` do not.
    let found = clippy_fixture("d5_pointer_source.rs", "netsim");
    let lints = [
        "clippy::disallowed_methods",
        "clippy::disallowed_macros",
        "clippy::ref_as_ptr",
        "clippy::borrow_as_ptr",
    ];
    assert_eq!(
        lines_of(&found, &lints),
        [8, 12, 16, 20, 24, 28, 32, 36, 40],
        "{found:?}"
    );
}
