//! End-to-end runs of the `run()` entry point the CLI wraps: the real
//! workspace against the committed baseline, a deliberately broken
//! temp workspace (the gate must fail), and the `--update-baseline`
//! round trip.

use massf_simlint::{run, Options, Rule};
use std::fs;
use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("repo root exists")
}

/// A scratch workspace under the repo's own `target/` directory (tests
/// must not write outside the repo), torn down on drop.
struct TempWorkspace {
    root: PathBuf,
}

impl TempWorkspace {
    fn new(tag: &str) -> TempWorkspace {
        let root = repo_root()
            .join("target")
            .join(format!("simlint-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        fs::create_dir_all(root.join("crates/engine/src")).expect("create temp workspace");
        TempWorkspace { root }
    }

    fn write(&self, rel: &str, content: &str) {
        let path = self.root.join(rel);
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir).expect("create parent dir");
        }
        fs::write(&path, content).expect("write temp file");
    }
}

impl Drop for TempWorkspace {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.root);
    }
}

#[test]
fn real_workspace_matches_committed_baseline() {
    let mut opts = Options::new(repo_root());
    opts.baseline_path = Some(PathBuf::from("simlint-baseline.txt"));
    let outcome = run(&opts).expect("workspace scan succeeds");
    assert!(outcome.files > 50, "scanned only {} files?", outcome.files);
    let cmp = outcome.comparison.as_ref().expect("baseline compared");
    assert!(
        cmp.new.is_empty(),
        "new violations not in simlint-baseline.txt:\n{}",
        massf_simlint::report::render_violations(&cmp.new)
    );
    assert!(
        cmp.stale.is_empty(),
        "stale baseline entries (violation fixed? prune the file): {:?}",
        cmp.stale
    );
    // The committed baseline is EMPTY and must stay that way: every rule
    // — including the v2 families D4 float-order and D5
    // determinism-taint, which both ran in this scan — passes on the
    // real workspace without absorbing a single violation.
    assert_eq!(cmp.baselined, 0, "the committed baseline must stay empty");
    assert_eq!(outcome.exit_code(), 0);
}

/// `--changed-since` narrows the scan to the changed set.
#[test]
fn changed_since_scans_a_subset_of_the_workspace() {
    let mut full = Options::new(repo_root());
    full.baseline_path = Some(PathBuf::from("simlint-baseline.txt"));
    let all = run(&full).expect("full scan succeeds");

    let mut incremental = Options::new(repo_root());
    incremental.baseline_path = Some(PathBuf::from("simlint-baseline.txt"));
    incremental.changed_since = Some("HEAD".to_string());
    let subset = run(&incremental).expect("incremental scan succeeds");
    assert!(
        subset.files <= all.files,
        "changed-since scanned {} of {} files",
        subset.files,
        all.files
    );
    assert_eq!(subset.exit_code(), 0, "{:?}", subset.violations);

    // --update-baseline refuses to run from a partial view.
    incremental.update_baseline = true;
    assert!(run(&incremental).is_err());
}

/// The acceptance criterion from the issue: introducing a HashMap
/// iteration into `crates/engine` makes simlint exit non-zero.
#[test]
fn deliberate_hash_iteration_in_engine_fails_the_gate() {
    let ws = TempWorkspace::new("d1");
    ws.write(
        "crates/engine/src/lib.rs",
        r#"
use std::collections::HashMap;
pub fn drain_in_arbitrary_order(m: &HashMap<u32, u64>) -> u64 {
    let mut total = 0;
    for (_, v) in m.iter() {
        total += v;
    }
    total
}
"#,
    );
    let outcome = run(&Options::new(&ws.root)).expect("scan succeeds");
    assert_eq!(outcome.exit_code(), 1, "{:?}", outcome.violations);
    assert_eq!(outcome.violations.len(), 1);
    assert_eq!(outcome.violations[0].rule, Rule::HashIteration);

    // The same code is fine in a non-deterministic-critical crate.
    let ws2 = TempWorkspace::new("d1-scope");
    ws2.write(
        "crates/workloads/src/lib.rs",
        "use std::collections::HashMap;\n\
         pub fn f(m: &HashMap<u32, u64>) -> u64 { m.values().sum() }\n",
    );
    let outcome2 = run(&Options::new(&ws2.root)).expect("scan succeeds");
    assert_eq!(outcome2.exit_code(), 0, "{:?}", outcome2.violations);
}

#[test]
fn suppression_and_update_baseline_round_trip() {
    let ws = TempWorkspace::new("roundtrip");
    // One suppressed violation (doesn't count), one real one.
    ws.write(
        "crates/engine/src/lib.rs",
        "pub fn f(o: Option<u32>) -> u32 {\n\
         \x20   // simlint: allow(unwrap-audit) -- fixture: justified on purpose\n\
         \x20   o.unwrap()\n\
         }\n\
         pub fn g(o: Option<u32>) -> u32 { o.unwrap() }\n",
    );
    let mut opts = Options::new(&ws.root);
    let outcome = run(&opts).expect("scan succeeds");
    assert_eq!(outcome.violations.len(), 1, "suppressed site must not fire");
    assert_eq!(outcome.exit_code(), 1);

    // `--update-baseline` freezes the remaining violation…
    opts.baseline_path = Some(PathBuf::from("simlint-baseline.txt"));
    opts.update_baseline = true;
    let updated = run(&opts).expect("baseline write succeeds");
    assert!(updated.baseline_written);
    assert!(ws.root.join("simlint-baseline.txt").is_file());

    // …so the next gated run passes.
    opts.update_baseline = false;
    let gated = run(&opts).expect("scan succeeds");
    assert_eq!(gated.exit_code(), 0);
    assert_eq!(gated.comparison.as_ref().expect("compared").baselined, 1);

    // A *new* violation still fails, and the old one stays absorbed.
    ws.write(
        "crates/engine/src/extra.rs",
        "pub fn h() { panic!(\"boom\"); }\n",
    );
    let regressed = run(&opts).expect("scan succeeds");
    assert_eq!(regressed.exit_code(), 1);
    let cmp = regressed.comparison.as_ref().expect("compared");
    assert_eq!(cmp.new.len(), 1);
    assert_eq!(cmp.new[0].rule, Rule::UnwrapAudit);
    assert_eq!(cmp.baselined, 1);
}

#[test]
fn custom_config_overrides_defaults() {
    let ws = TempWorkspace::new("config");
    ws.write(
        "crates/engine/src/lib.rs",
        "pub fn f(o: Option<u32>) -> u32 { o.unwrap() }\n",
    );
    // Default config: S1 denies.
    assert_eq!(run(&Options::new(&ws.root)).expect("scan").exit_code(), 1);
    // Config turning S1 off: clean.
    ws.write(
        "simlint.toml",
        "[lint]\ninclude = [\"crates\"]\nexclude = []\n\n[rule.unwrap-audit]\nseverity = \"off\"\n",
    );
    assert_eq!(run(&Options::new(&ws.root)).expect("scan").exit_code(), 0);
    // Malformed config is a hard error, not a silent default.
    ws.write("simlint.toml", "[rule.unwrap-audit]\nseverity = fatal\n");
    assert!(run(&Options::new(&ws.root)).is_err());
}
