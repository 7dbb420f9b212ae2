//! # massf-simlint
//!
//! Workspace determinism static analysis for `massf-rs`: the checks
//! clippy cannot say.
//!
//! The whole value of the reproduction rests on conservative-PDES
//! determinism: runs must be bit-identical across thread and partition
//! counts. That invariant is protected at runtime by the parallel
//! determinism tests — and at *check time* by clippy and this tool.
//! Clippy denies hash iteration, wall-clock and entropy types, unwrap,
//! panic, narrowing casts in the engine and routing crates, and allows
//! without a reason (root `Cargo.toml`'s `[workspace.lints.clippy]`,
//! `crates/clippy.toml`; the table in [`rules`] maps the former rules
//! D1–D3, S1 and S2 to their lints). simlint scans every workspace
//! source file with a hand-rolled lexer plus a tolerant Rust-subset
//! item parser ([`parser`]; no registry access, in the spirit of
//! `shims/`) and enforces the two rules no lint expresses:
//!
//! * **D4 `float-order`** — no schedule-ordered float accumulation
//!   over partition/worker-shaped state (float `+` is not
//!   associative; sort by partition id or walk a slab in index order).
//! * **D5 `determinism-taint`** — an intra-procedural dataflow pass:
//!   host-derived values (wall clock, OS entropy, pointer addresses,
//!   hash iteration) must not reach simulation inputs (event
//!   emit/schedule, `SimTime::from_*`, seed stores), even laundered
//!   through let-bindings and arithmetic.
//!
//! Every rule denies, and nothing suppresses one: a false positive is
//! fixed in the rule. Which crates each rule covers is fixed in
//! [`Rule::applies_to`]. See DESIGN.md §3 items 10 and 15 for the
//! rationale behind each rule, or `--explain <rule>` for the long form.
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

#[cfg(test)]
#[path = "../tests/clippy/mod.rs"]
mod clippy;

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
        use crate::Rule;

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
                    Rule::DeterminismTaint => (&CRATES, &["bench"]),
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
                    Rule::FloatOrder => ("parutil", "workloads"),
                    Rule::DeterminismTaint => ("core", "bench"),
                };
                assert!(rule.applies_to(inside), "{rule:?} must check {inside}");
                assert!(!rule.applies_to(outside), "{rule:?} must skip {outside}");
            }
        }

        #[test]
        fn malformed_suppression_always_denies() {
            // An allow without a reason fails clippy in every member,
            // even one no other lint reaches.
            let src = "#[allow(clippy::unwrap_used)]\nfn f() {}\n";
            for krate in CRATES {
                assert_eq!(
                    crate::clippy::findings(krate, src),
                    [("clippy::allow_attributes_without_reason", 1)],
                    "in {krate}"
                );
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
