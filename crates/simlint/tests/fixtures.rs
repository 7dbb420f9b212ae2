//! One fixture file per rule: scan each as one crate and assert exactly
//! the marked violations fire. The fixtures directory is excluded from
//! workspace scans and is never compiled.

use massf_simlint::{scan_source, Rule};
use std::path::Path;

fn scan_fixture(name: &str, krate: &str) -> Vec<(Rule, u32)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let src = std::fs::read_to_string(&path)
        // simlint: allow(unwrap-audit) -- test helper: abort with the fixture path on IO failure
        .unwrap_or_else(|e| panic!("fixture {} unreadable: {e}", path.display()));
    scan_source(name, krate, &src)
        .into_iter()
        .map(|v| (v.rule, v.line))
        .collect()
}

#[test]
fn d1_hash_iteration_fixture() {
    let found = scan_fixture("d1_hash_iter.rs", "engine");
    assert_eq!(found.len(), 3, "{found:?}");
    assert!(found.iter().all(|(r, _)| *r == Rule::HashIteration));
    // keys() loop, for-loop over the set, indexed-receiver iter().
    let lines: Vec<u32> = found.iter().map(|(_, l)| *l).collect();
    assert_eq!(lines, vec![13, 17, 21], "{found:?}");
}

#[test]
fn d1_does_not_apply_outside_deterministic_crates() {
    let found = scan_fixture("d1_hash_iter.rs", "workloads");
    assert!(found.is_empty(), "{found:?}");
}

#[test]
fn d2_wall_clock_fixture() {
    let found = scan_fixture("d2_wallclock.rs", "engine");
    assert!(found.len() >= 3, "{found:?}");
    assert!(found.iter().all(|(r, _)| *r == Rule::WallClock));
    // The #[cfg(test)] module's Instant::now() is exempt.
    assert!(found.iter().all(|(_, l)| *l < 12), "{found:?}");
    // bench is allowed to read the clock.
    assert!(scan_fixture("d2_wallclock.rs", "bench").is_empty());
}

#[test]
fn d2_atomic_min_pattern_is_clean() {
    // The executor's Relaxed-atomics-plus-barrier rendezvous must pass
    // every rule without suppressions, in the strictest crate scope.
    for krate in ["engine", "core", "bench"] {
        let found = scan_fixture("d2_atomic_min.rs", krate);
        assert!(found.is_empty(), "{krate}: {found:?}");
    }
}

#[test]
fn d2_spin_park_barrier_pattern_is_clean() {
    // The window barrier's atomic generation + `spin_loop` + iteration
    // budget + condvar park must pass every rule without suppressions.
    for krate in ["engine", "core", "bench"] {
        let found = scan_fixture("d2_spin_park_barrier.rs", krate);
        assert!(found.is_empty(), "{krate}: {found:?}");
    }
}

#[test]
fn d2_clock_bounded_spin_is_flagged() {
    // The same spin bounded by `Instant::now()` reads the host clock.
    let found = scan_fixture("d2_spin_clock_bound.rs", "engine");
    assert_eq!(found, vec![(Rule::WallClock, 12)], "{found:?}");
    assert!(scan_fixture("d2_spin_clock_bound.rs", "bench").is_empty());
}

#[test]
fn d1_route_interning_pattern_is_clean() {
    // The million-host layout's interning table (point HashMap lookups
    // only) and CSR port table (sorted-array walks) must pass every
    // rule without suppressions in the crates that use the pattern.
    for krate in ["netsim", "engine", "routing"] {
        let found = scan_fixture("route_interning.rs", krate);
        assert!(found.is_empty(), "{krate}: {found:?}");
    }
}

#[test]
fn d1_snapshot_serializer_pattern_is_clean() {
    // The checkpoint serializer (sorted-slab walks + streaming CRC,
    // crates/snapshot) must pass every rule without suppressions in the
    // snapshot crate's own scope — which is on the strictest D1 list —
    // and in the other deterministic-critical scopes.
    for krate in ["snapshot", "engine", "netsim"] {
        let found = scan_fixture("snapshot_serializer.rs", krate);
        assert!(found.is_empty(), "{krate}: {found:?}");
    }
}

#[test]
fn d1_applies_to_the_snapshot_crate_by_default() {
    // A hash-iteration in the snapshot crate is a violation: checkpoint
    // bytes must be a pure function of the world.
    let found = scan_fixture("d1_hash_iter.rs", "snapshot");
    assert_eq!(found.len(), 3, "{found:?}");
    assert!(found.iter().all(|(r, _)| *r == Rule::HashIteration));
}

#[test]
fn d3_entropy_fixture() {
    let found = scan_fixture("d3_entropy.rs", "engine");
    assert_eq!(found.len(), 2, "{found:?}");
    assert!(found.iter().all(|(r, _)| *r == Rule::EntropyRng));
    assert!(scan_fixture("d3_entropy.rs", "bench").is_empty());
}

#[test]
fn s1_unwrap_fixture() {
    let found = scan_fixture("s1_unwrap.rs", "workloads");
    assert_eq!(found.len(), 3, "{found:?}");
    assert!(found.iter().all(|(r, _)| *r == Rule::UnwrapAudit));
    let lines: Vec<u32> = found.iter().map(|(_, l)| *l).collect();
    assert_eq!(lines, vec![5, 6, 8], "unwrap, empty expect, panic!");
}

#[test]
fn s2_cast_fixture() {
    let found = scan_fixture("s2_cast.rs", "engine");
    assert_eq!(found.len(), 3, "{found:?}");
    assert!(found.iter().all(|(r, _)| *r == Rule::CastLossy));
    // Out of scope for crates not in the rule's include list.
    assert!(scan_fixture("s2_cast.rs", "netsim").is_empty());
}

#[test]
fn d4_float_order_fixture() {
    let found = scan_fixture("d4_float_order.rs", "engine");
    assert!(
        found.iter().all(|(r, _)| *r == Rule::FloatOrder),
        "{found:?}"
    );
    let lines: Vec<u32> = found.iter().map(|(_, l)| *l).collect();
    // sum::<f64> turbofish, float fold, += in a hinted loop; the
    // max-fold / unhinted / integer / #[cfg(test)] shapes are silent.
    assert_eq!(lines, vec![5, 9, 15], "{found:?}");
}

#[test]
fn d4_out_of_scope_crate_is_exempt() {
    // `workloads` is not in the float-order include list: replay there
    // never feeds state back into the deterministic core.
    assert!(scan_fixture("d4_float_order.rs", "workloads").is_empty());
}

#[test]
fn d4_partition_reduce_pattern_is_clean() {
    // The documented remediation — sort by partition id, then reduce in
    // a fixed order — must pass every rule in the strictest scopes.
    for krate in ["engine", "parutil", "core"] {
        let found = scan_fixture("d4_partition_reduce.rs", krate);
        assert!(found.is_empty(), "{krate}: {found:?}");
    }
}

#[test]
fn d5_taint_fixture() {
    let found = scan_fixture("d5_taint.rs", "engine");
    // The raw reads fire their own rules at the source lines…
    let d2: Vec<u32> = found
        .iter()
        .filter(|(r, _)| *r == Rule::WallClock)
        .map(|(_, l)| *l)
        .collect();
    assert_eq!(d2, vec![7, 32], "{found:?}");
    assert!(
        found
            .iter()
            .any(|(r, l)| *r == Rule::EntropyRng && *l == 14),
        "{found:?}"
    );
    // …and the taint rule fires at the four sinks the values reach.
    let d5: Vec<u32> = found
        .iter()
        .filter(|(r, _)| *r == Rule::DeterminismTaint)
        .map(|(_, l)| *l)
        .collect();
    assert_eq!(d5, vec![9, 10, 16, 21], "{found:?}");
}

#[test]
fn d5_barrier_wait_fixture() {
    let found = scan_fixture("d5_barrier_wait.rs", "engine");
    // Only the taint rule fires: barrier waits are not Instant/SystemTime
    // reads, so D2 stays silent at the source lines.
    assert!(
        found.iter().all(|(r, _)| *r == Rule::DeterminismTaint),
        "{found:?}"
    );
    let lines: Vec<u32> = found.iter().map(|(_, l)| *l).collect();
    // from_us sink, schedule_at sink, `.seed =` field sink; the
    // deterministic partition_totals decision and the report-only wait
    // read stay silent.
    assert_eq!(lines, vec![10, 11, 16], "{found:?}");
    // bench may measure whatever it likes.
    assert!(scan_fixture("d5_barrier_wait.rs", "bench").is_empty());
}

#[test]
fn d5_bench_crate_is_exempt() {
    let found = scan_fixture("d5_taint.rs", "bench");
    assert!(
        found.iter().all(|(r, _)| *r != Rule::DeterminismTaint),
        "{found:?}"
    );
}

#[test]
fn d5_sim_derived_pattern_is_clean() {
    // Event times and seeds derived from scenario config / simulated
    // state hit the same sink functions and must stay silent.
    for krate in ["engine", "core", "netsim"] {
        let found = scan_fixture("d5_sim_derived.rs", krate);
        assert!(found.is_empty(), "{krate}: {found:?}");
    }
}

#[test]
fn suppression_fixture() {
    let found = scan_fixture("suppressed.rs", "engine");
    // Everything suppressed except the final undocumented unwrap.
    assert_eq!(found, vec![(Rule::UnwrapAudit, 19)], "{found:?}");
}

#[test]
fn clean_fixture_is_clean() {
    for krate in ["engine", "routing", "bench", "workloads"] {
        let found = scan_fixture("clean.rs", krate);
        assert!(found.is_empty(), "{krate}: {found:?}");
    }
}
