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
//! Rules are configured by the checked-in `simlint.toml`, suppressed
//! per-site via `// simlint: allow(<rule>) -- <reason>` comments, and a
//! `--baseline` file lets the gate fail only on *new* violations. See
//! DESIGN.md §3 items 10 and 15 for the rationale behind each rule, or
//! `--explain <rule>` for the long form.
//!
//! CLI: `cargo run -p massf-simlint -- --workspace
//! [--baseline simlint-baseline.txt] [--update-baseline]
//! [--changed-since REV] [--format text|json]`; findings render
//! compiler-style with caret spans, or as line-oriented JSON for
//! `scripts/lint_annotations.sh`.

#![forbid(unsafe_code)]

pub mod baseline;
pub mod config;
pub mod lexer;
pub mod parser;
pub mod report;
pub mod rules;

pub use baseline::{Baseline, Comparison};
pub use config::{Config, CrateScope, Severity};
pub use rules::{scan_source, Rule, Violation};

use std::fs;
use std::path::{Path, PathBuf};

/// CLI/run options.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workspace root (the directory holding `simlint.toml`).
    pub root: PathBuf,
    /// Config file path, relative to `root` (default `simlint.toml`);
    /// missing file = built-in defaults.
    pub config_path: PathBuf,
    /// Baseline file path relative to `root`, if baseline mode is on.
    pub baseline_path: Option<PathBuf>,
    /// Rewrite the baseline from the current scan instead of comparing.
    pub update_baseline: bool,
    /// Incremental mode: lint only files changed vs. this git rev
    /// (plus untracked files); every rule is per-file, so the other
    /// files are not even read. Baseline entries for unscanned files
    /// are not reported as stale in this mode.
    pub changed_since: Option<String>,
}

impl Options {
    pub fn new(root: impl Into<PathBuf>) -> Options {
        Options {
            root: root.into(),
            config_path: PathBuf::from("simlint.toml"),
            baseline_path: None,
            update_baseline: false,
            changed_since: None,
        }
    }
}

/// Everything a caller needs to report and gate on.
#[derive(Debug)]
pub struct Outcome {
    /// All violations, sorted (path, line, rule).
    pub violations: Vec<Violation>,
    /// Baseline comparison, when a baseline was supplied and compared.
    pub comparison: Option<Comparison>,
    /// Files scanned.
    pub files: usize,
    /// True when `--update-baseline` rewrote the baseline file.
    pub baseline_written: bool,
}

impl Outcome {
    /// Gate verdict: non-zero when the scan must fail the check.
    /// Deny violations fail; with a baseline, only *new* ones do.
    pub fn exit_code(&self) -> i32 {
        let failing = match &self.comparison {
            Some(c) => c.new.len(),
            None => self
                .violations
                .iter()
                .filter(|v| v.severity == Severity::Deny)
                .count(),
        };
        i32::from(failing > 0)
    }
}

/// Collect the workspace-relative paths of every `.rs` file under the
/// configured include directories, with the crate each belongs to.
/// Deterministically sorted; `target` directories and configured
/// exclude prefixes are skipped.
pub fn workspace_files(root: &Path, cfg: &Config) -> Result<Vec<(String, String)>, String> {
    let mut files = Vec::new();
    for inc in &cfg.include {
        let dir = root.join(inc);
        if dir.is_dir() {
            walk(root, &dir, cfg, &mut files)?;
        }
    }
    files.sort();
    Ok(files)
}

fn walk(
    root: &Path,
    dir: &Path,
    cfg: &Config,
    out: &mut Vec<(String, String)>,
) -> Result<(), String> {
    let entries = fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
        let path = entry.path();
        let rel = path
            .strip_prefix(root)
            .map_err(|_| format!("{} escapes the workspace root", path.display()))?
            .to_string_lossy()
            .replace('\\', "/");
        // Prefix exclusion on whole path components: `a/b` excludes
        // `a/b` and `a/b/c.rs` but not the sibling file `a/b.rs`.
        if cfg
            .exclude
            .iter()
            .any(|ex| rel == *ex || rel.starts_with(&format!("{ex}/")))
        {
            continue;
        }
        if path.is_dir() {
            if entry.file_name() == "target" {
                continue;
            }
            walk(root, &path, cfg, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push((rel.clone(), crate_of(&rel)));
        }
    }
    Ok(())
}

/// The crate a workspace-relative path belongs to, as used for rule
/// scoping: `crates/<name>/…` → `<name>`, anything else → its top-level
/// directory (the integration-test member `tests/…` → `tests`).
pub fn crate_of(rel: &str) -> String {
    let mut parts = rel.split('/');
    match (parts.next(), parts.next()) {
        (Some("crates"), Some(name)) => name.to_string(),
        (Some(top), _) => top.to_string(),
        (None, _) => String::new(),
    }
}

/// Run a full workspace scan with the given options. This is the CLI's
/// whole body — tests drive the identical code path.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let cfg_path = opts.root.join(&opts.config_path);
    let cfg = if cfg_path.is_file() {
        let text = fs::read_to_string(&cfg_path)
            .map_err(|e| format!("cannot read {}: {e}", cfg_path.display()))?;
        Config::parse(&text).map_err(|e| format!("{}: {e}", cfg_path.display()))?
    } else {
        Config::default()
    };

    // Incremental mode: scan (and read) only the changed files.
    let changed = match &opts.changed_since {
        Some(rev) => Some(changed_files(&opts.root, rev)?),
        None => None,
    };
    let scanned: Vec<(String, String)> = workspace_files(&opts.root, &cfg)?
        .into_iter()
        .filter(|(rel, _)| changed.as_ref().is_none_or(|ch| ch.contains(rel)))
        .collect();

    let mut violations = Vec::new();
    for (rel, krate) in &scanned {
        let src = fs::read_to_string(opts.root.join(rel))
            .map_err(|e| format!("cannot read {rel}: {e}"))?;
        violations.extend(scan_source(rel, krate, &src, &cfg));
    }
    violations.sort_by(|a, b| {
        (&a.path, a.line, a.rule, &a.message).cmp(&(&b.path, b.line, b.rule, &b.message))
    });

    let mut comparison = None;
    let mut baseline_written = false;
    if let Some(bl_rel) = &opts.baseline_path {
        let bl_path = opts.root.join(bl_rel);
        if opts.update_baseline {
            if opts.changed_since.is_some() {
                return Err("--update-baseline requires a full scan; \
                            drop --changed-since"
                    .to_string());
            }
            fs::write(&bl_path, Baseline::render(&violations))
                .map_err(|e| format!("cannot write {}: {e}", bl_path.display()))?;
            baseline_written = true;
        } else {
            let baseline = if bl_path.is_file() {
                let text = fs::read_to_string(&bl_path)
                    .map_err(|e| format!("cannot read {}: {e}", bl_path.display()))?;
                Baseline::parse(&text).map_err(|e| format!("{}: {e}", bl_path.display()))?
            } else {
                Baseline::default()
            };
            let mut cmp = baseline.compare(&violations);
            if opts.changed_since.is_some() {
                // A partial scan cannot tell "fixed" from "not scanned":
                // only entries for files we did scan can be called stale.
                cmp.stale
                    .retain(|entry| scanned.iter().any(|(rel, _)| entry.contains(rel.as_str())));
            }
            comparison = Some(cmp);
        }
    }

    Ok(Outcome {
        violations,
        comparison,
        files: scanned.len(),
        baseline_written,
    })
}

/// Workspace-relative paths of `.rs` files changed vs. `rev`, plus
/// untracked files — `git diff --name-only <rev>` and `git ls-files
/// --others --exclude-standard` against the workspace root.
fn changed_files(root: &Path, rev: &str) -> Result<std::collections::BTreeSet<String>, String> {
    let mut set = std::collections::BTreeSet::new();
    for args in [
        vec!["diff", "--name-only", rev],
        vec!["ls-files", "--others", "--exclude-standard"],
    ] {
        let out = std::process::Command::new("git")
            .arg("-C")
            .arg(root)
            .args(&args)
            .output()
            .map_err(|e| format!("cannot run git {}: {e}", args.join(" ")))?;
        if !out.status.success() {
            return Err(format!(
                "git {} failed: {}",
                args.join(" "),
                String::from_utf8_lossy(&out.stderr).trim()
            ));
        }
        for line in String::from_utf8_lossy(&out.stdout).lines() {
            let rel = line.trim().replace('\\', "/");
            if rel.ends_with(".rs") {
                set.insert(rel);
            }
        }
    }
    Ok(set)
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

    #[test]
    fn exit_code_follows_new_violations() {
        let deny = Violation {
            rule: Rule::UnwrapAudit,
            path: "a.rs".into(),
            line: 1,
            col: 3,
            caret: 2,
            len: 6,
            snippet: "x.unwrap()".into(),
            message: String::new(),
            severity: Severity::Deny,
        };
        let clean = Outcome {
            violations: vec![],
            comparison: None,
            files: 1,
            baseline_written: false,
        };
        assert_eq!(clean.exit_code(), 0);
        let dirty = Outcome {
            violations: vec![deny.clone()],
            comparison: None,
            files: 1,
            baseline_written: false,
        };
        assert_eq!(dirty.exit_code(), 1);
        // Baselined: same violation, absorbed.
        let b = Baseline::parse(&Baseline::render(std::slice::from_ref(&deny)))
            .expect("baseline parses");
        let absorbed = Outcome {
            violations: vec![deny.clone()],
            comparison: Some(b.compare(std::slice::from_ref(&deny))),
            files: 1,
            baseline_written: false,
        };
        assert_eq!(absorbed.exit_code(), 0);
    }
}
