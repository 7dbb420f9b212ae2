//! End-to-end runs of the `run()` entry point the CLI wraps, and of the
//! binary itself: the real workspace must be clean, and a deliberately
//! broken temp workspace must fail the scan.

mod clippy;

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
    assert!(
        violations.is_empty(),
        "{}",
        massf_simlint::report::render_violations(&violations)
    );
}

/// Introducing a float reduction over per-partition results into
/// `crates/engine` makes simlint exit non-zero; the same code in
/// `crates/workloads` passes.
#[test]
fn deliberate_float_reduction_in_engine_fails_the_gate() {
    let reduction = "pub fn total(per_partition: &[f64]) -> f64 {\n\
                     \x20   per_partition.iter().sum::<f64>()\n\
                     }\n";
    let ws = TempWorkspace::new("d4");
    ws.write("crates/engine/src/lib.rs", reduction);
    let (violations, _) = run(&ws.root).expect("scan succeeds");
    assert_eq!(violations.len(), 1, "{violations:?}");
    assert_eq!(violations[0].rule, Rule::FloatOrder);
    assert_eq!(violations[0].line, 2);
    assert_eq!(ws.cli_exit_code(), Some(1));

    // The same code is fine in a crate whose floats never feed a run.
    let ws2 = TempWorkspace::new("d4-scope");
    ws2.write("crates/workloads/src/lib.rs", reduction);
    let (violations, files) = run(&ws2.root).expect("scan succeeds");
    assert_eq!(files, 1);
    assert!(violations.is_empty(), "{violations:?}");
    assert_eq!(ws2.cli_exit_code(), Some(0));
}

#[test]
fn suppressed_site_does_not_fire() {
    // One suppressed unwrap (doesn't count), one real one. Clippy holds
    // unwraps and their `#[expect]`s; simlint passes the file.
    let src = "pub fn f(o: Option<u32>) -> u32 {\n\
               \x20   #[expect(clippy::unwrap_used, reason = \"fixture: justified on purpose\")]\n\
               \x20   let v = o.unwrap();\n\
               \x20   v + 1\n\
               }\n\
               pub fn g(o: Option<u32>) -> u32 { o.unwrap() }\n";
    let found = clippy::findings("engine", src);
    assert_eq!(
        found,
        [("clippy::unwrap_used", 6)],
        "suppressed site must not fire"
    );

    let ws = TempWorkspace::new("suppressed");
    ws.write("crates/engine/src/lib.rs", src);
    let (violations, _) = run(&ws.root).expect("scan succeeds");
    assert!(violations.is_empty(), "{violations:?}");
    assert_eq!(ws.cli_exit_code(), Some(0));
}
