//! # massf-simlint
//!
//! Workspace determinism & safety static analysis for `massf-rs`.
//!
//! The whole value of the reproduction rests on conservative-PDES
//! determinism: runs must be bit-identical across thread and partition
//! counts. That invariant is protected at runtime by the parallel
//! determinism tests — and at *check time* by this tool, which scans
//! every workspace source file with a hand-rolled lexer plus a
//! tolerant Rust-subset item parser ([`parser`]; no registry access,
//! in the spirit of `shims/`) and enforces:
//!
//! * **D1 `hash-iteration`** — no `HashMap`/`HashSet` iteration in
//!   deterministic-critical crates (lookups are fine; iteration must go
//!   through `BTreeMap`/`BTreeSet` or explicitly sorted collections).
//! * **D2 `wall-clock`** — no `Instant::now`/`SystemTime` reads outside
//!   the bench crate.
//! * **D3 `entropy-rng`** — no entropy-seeded RNGs outside bench.
//! * **D4 `float-order`** — no schedule-ordered float accumulation
//!   over partition/worker-shaped state (float `+` is not
//!   associative; sort by partition id or walk a slab in index order).
//! * **D5 `determinism-taint`** — an intra-procedural dataflow pass:
//!   host-derived values (wall clock, OS entropy, pointer addresses,
//!   hash iteration) must not reach simulation inputs (event
//!   emit/schedule, `SimTime::from_*`, seed stores), even laundered
//!   through let-bindings and arithmetic.
//! * **S1 `unwrap-audit`** — no `.unwrap()`, `.expect("")`, or `panic!`
//!   in non-test code.
//! * **S2 `cast-lossy`** — narrowing `as` casts in the engine/routing
//!   hot paths need a written justification.
//!
//! Every rule denies. Which crates each rule covers is fixed in
//! [`Rule::applies_to`]; a justified site is suppressed in the source
//! with a `// simlint: allow(<rule>) -- <reason>` comment. See
//! DESIGN.md §3 items 10 and 15 for the rationale behind each rule, or
//! `--explain <rule>` for the long form.
//!
//! CLI: `cargo run -p massf-simlint` scans `crates/` and `tests/` under
//! the working directory and renders findings compiler-style with caret
//! spans; `cargo run -p massf-simlint -- --explain <rule>` prints a
//! rule's rationale.

#![forbid(unsafe_code)]

pub mod lexer;
pub mod parser;
pub mod report;
pub mod rules;

pub use rules::{scan_source, Rule, Violation};

use config::{FIXTURES, INCLUDE};
use std::fs;
use std::path::Path;

/// The scan's fixed settings. Which crates each rule covers is
/// [`Rule::applies_to`]; the tests here pin both to the values the
/// former `simlint.toml` held.
mod config {
    /// Workspace-relative directories scanned for `.rs` files.
    pub const INCLUDE: [&str; 2] = ["crates", "tests"];

    /// Fixture files deliberately full of violations, never scanned as
    /// part of the workspace (`crates/simlint/tests/fixtures.rs` scans
    /// them one by one).
    pub const FIXTURES: &str = "crates/simlint/tests/fixtures";

    #[cfg(test)]
    mod tests {
        use super::*;
        use crate::{scan_source, Rule};

        /// Every crate name a scope can see: the `crates/` members and
        /// the workspace `tests` member.
        const CRATES: [&str; 13] = [
            "bench",
            "core",
            "engine",
            "faults",
            "netsim",
            "partition",
            "parutil",
            "routing",
            "simlint",
            "snapshot",
            "topology",
            "workloads",
            "tests",
        ];

        #[test]
        fn default_config_matches_checked_in_simlint_toml() {
            // `[lint]` and each rule's `crates` / `exclude-crates` lists,
            // copied verbatim from the checked-in simlint.toml these
            // constants and `Rule::applies_to` replaced. A rule with no
            // `crates` list covered every crate.
            assert_eq!(INCLUDE, ["crates", "tests"]);
            assert_eq!(FIXTURES, "crates/simlint/tests/fixtures");
            for rule in Rule::ALL {
                let (crates, exclude): (&[&str], &[&str]) = match rule {
                    Rule::HashIteration => (
                        &[
                            "engine",
                            "routing",
                            "netsim",
                            "faults",
                            "partition",
                            "core",
                            "snapshot",
                            "simlint",
                        ],
                        &[],
                    ),
                    Rule::WallClock | Rule::EntropyRng | Rule::DeterminismTaint => {
                        (&CRATES, &["bench"])
                    }
                    Rule::FloatOrder => (
                        &[
                            "engine",
                            "parutil",
                            "netsim",
                            "routing",
                            "partition",
                            "core",
                            "snapshot",
                            "faults",
                        ],
                        &[],
                    ),
                    Rule::CastLossy => (&["engine", "routing"], &[]),
                    Rule::UnwrapAudit | Rule::MalformedSuppression => (&CRATES, &[]),
                };
                for krate in CRATES {
                    let expected = crates.contains(&krate) && !exclude.contains(&krate);
                    assert_eq!(rule.applies_to(krate), expected, "{rule:?} on {krate}");
                }
            }
        }

        #[test]
        fn defaults_scope_rules_sensibly() {
            // (rule, a crate it checks, a crate it skips): one row per
            // rule, and the match makes a new rule add its own row.
            for rule in Rule::ALL {
                let (inside, outside) = match rule {
                    Rule::HashIteration => ("engine", Some("workloads")),
                    Rule::WallClock => ("engine", Some("bench")),
                    Rule::EntropyRng => ("workloads", Some("bench")),
                    Rule::FloatOrder => ("parutil", Some("workloads")),
                    Rule::DeterminismTaint => ("core", Some("bench")),
                    Rule::CastLossy => ("routing", Some("topology")),
                    Rule::UnwrapAudit | Rule::MalformedSuppression => ("bench", None),
                };
                assert!(rule.applies_to(inside), "{rule:?} must check {inside}");
                if let Some(outside) = outside {
                    assert!(!rule.applies_to(outside), "{rule:?} must skip {outside}");
                } else {
                    for krate in ["engine", "simlint", "tests", "workloads"] {
                        assert!(rule.applies_to(krate), "{rule:?} must check {krate}");
                    }
                }
            }
        }

        #[test]
        fn malformed_suppression_always_denies() {
            // An allow without a reason is a finding in every crate, even
            // one no other rule reaches, and every finding fails the scan.
            let src = "// simlint: allow(wall-clock)\nfn f() {}\n";
            for krate in CRATES.into_iter().chain(["anything"]) {
                assert!(Rule::MalformedSuppression.applies_to(krate));
                let found: Vec<Rule> = scan_source("x.rs", krate, src)
                    .into_iter()
                    .map(|v| v.rule)
                    .collect();
                assert_eq!(found, [Rule::MalformedSuppression], "in {krate}");
            }
        }
    }
}

/// Collect the workspace-relative paths of every `.rs` file under
/// `crates/` and `tests/`, with the crate each belongs to.
/// Deterministically sorted; `target` directories and simlint's own
/// fixtures are skipped.
fn workspace_files(root: &Path) -> Result<Vec<(String, String)>, String> {
    let mut files = Vec::new();
    for inc in INCLUDE {
        let dir = root.join(inc);
        if dir.is_dir() {
            walk(root, &dir, &mut files)?;
        }
    }
    files.sort();
    Ok(files)
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<(String, String)>) -> Result<(), String> {
    let entries = fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
        let path = entry.path();
        let rel = path
            .strip_prefix(root)
            .map_err(|_| format!("{} escapes the workspace root", path.display()))?
            .to_string_lossy()
            .replace('\\', "/");
        if path.is_dir() {
            if entry.file_name() == "target" || rel == FIXTURES {
                continue;
            }
            walk(root, &path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push((rel.clone(), crate_of(&rel)));
        }
    }
    Ok(())
}

/// The crate a workspace-relative path belongs to, as used for rule
/// scoping: `crates/<name>/…` → `<name>`, anything else → its top-level
/// directory (the integration-test member `tests/…` → `tests`).
fn crate_of(rel: &str) -> String {
    let mut parts = rel.split('/');
    match (parts.next(), parts.next()) {
        (Some("crates"), Some(name)) => name.to_string(),
        (Some(top), _) => top.to_string(),
        (None, _) => String::new(),
    }
}

/// Scan every workspace file under `root`. Returns the violations,
/// sorted by path, line and rule, and the number of files scanned.
/// This is the CLI's whole body — tests drive the identical code path.
pub fn run(root: &Path) -> Result<(Vec<Violation>, usize), String> {
    let files = workspace_files(root)?;
    let mut violations = Vec::new();
    for (rel, krate) in &files {
        let src =
            fs::read_to_string(root.join(rel)).map_err(|e| format!("cannot read {rel}: {e}"))?;
        violations.extend(scan_source(rel, krate, &src));
    }
    violations.sort_by(|a, b| {
        (&a.path, a.line, a.rule, &a.message).cmp(&(&b.path, b.line, b.rule, &b.message))
    });
    Ok((violations, files.len()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_of_maps_paths() {
        assert_eq!(crate_of("crates/engine/src/lib.rs"), "engine");
        assert_eq!(crate_of("crates/simlint/src/rules.rs"), "simlint");
        assert_eq!(crate_of("tests/tests/fault_injection.rs"), "tests");
    }
}
