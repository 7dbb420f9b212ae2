//! End-to-end runs of the `run()` entry point the CLI wraps, and of the
//! binary itself: the real workspace must be clean, and a deliberately
//! broken temp workspace must fail the scan.

use massf_simlint::{run, Rule};
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

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

    /// Exit code of the simlint binary run with this workspace as its
    /// working directory.
    fn cli_exit_code(&self) -> Option<i32> {
        Command::new(env!("CARGO_BIN_EXE_massf-simlint"))
            .current_dir(&self.root)
            .output()
            .expect("simlint binary runs")
            .status
            .code()
    }
}

impl Drop for TempWorkspace {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.root);
    }
}

#[test]
fn real_workspace_has_zero_violations() {
    let (violations, files) = run(&repo_root()).expect("workspace scan succeeds");
    assert!(files > 50, "scanned only {files} files?");
    // Every rule — including D4 float-order and D5 determinism-taint —
    // passes on the real workspace: each tolerated site carries an
    // in-source `simlint: allow(..) -- <reason>`.
    assert!(
        violations.is_empty(),
        "{}",
        massf_simlint::report::render_violations(&violations)
    );
}

/// Introducing a HashMap iteration into `crates/engine` makes simlint
/// exit non-zero; the same code in `crates/workloads` passes.
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
    let (violations, _) = run(&ws.root).expect("scan succeeds");
    assert_eq!(violations.len(), 1, "{violations:?}");
    assert_eq!(violations[0].rule, Rule::HashIteration);
    assert_eq!(ws.cli_exit_code(), Some(1));

    // The same code is fine in a non-deterministic-critical crate.
    let ws2 = TempWorkspace::new("d1-scope");
    ws2.write(
        "crates/workloads/src/lib.rs",
        "use std::collections::HashMap;\n\
         pub fn f(m: &HashMap<u32, u64>) -> u64 { m.values().sum() }\n",
    );
    let (violations, files) = run(&ws2.root).expect("scan succeeds");
    assert_eq!(files, 1);
    assert!(violations.is_empty(), "{violations:?}");
    assert_eq!(ws2.cli_exit_code(), Some(0));
}

#[test]
fn suppressed_site_does_not_fire() {
    let ws = TempWorkspace::new("suppressed");
    // One suppressed violation (doesn't count), one real one.
    ws.write(
        "crates/engine/src/lib.rs",
        "pub fn f(o: Option<u32>) -> u32 {\n\
         \x20   // simlint: allow(unwrap-audit) -- fixture: justified on purpose\n\
         \x20   o.unwrap()\n\
         }\n\
         pub fn g(o: Option<u32>) -> u32 { o.unwrap() }\n",
    );
    let (violations, _) = run(&ws.root).expect("scan succeeds");
    assert_eq!(violations.len(), 1, "suppressed site must not fire");
    assert_eq!(violations[0].rule, Rule::UnwrapAudit);
    assert_eq!(violations[0].line, 5);
}
