//! Run clippy on a snippet the way `scripts/check.sh` runs it on a
//! workspace member, so the tests can pin what the clippy configuration
//! catches: the determinism rules D1–D5, the safety rules S1 and S2 and
//! the `#[expect]` suppression grammar (DESIGN.md §3 item 15).
//!
//! `findings("engine", src)` compiles `src` as a module of a scratch
//! crate that stands in for `crates/engine`: the member's crate-root lint
//! attributes, its `[lints] workspace = true` inheritance of the root
//! `[workspace.lints.clippy]` table, the `clippy.toml` clippy finds above
//! its manifest, and `-D warnings`. Like `cargo clippy --all-targets`,
//! the snippet is checked once as a library and once as a test harness.
//! A snippet may name the workspace's library crates (`massf_engine::…`):
//! each one it names is linked from the build that runs the tests.

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};

/// One diagnostic that fails the build: the lint (`clippy::unwrap_used`,
/// `unfulfilled_lint_expectations`, …) and the snippet line it points at.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    pub line: u32,
    pub lint: String,
}

impl fmt::Debug for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}", self.lint, self.line)
    }
}

impl PartialEq<(&str, u32)> for Finding {
    fn eq(&self, other: &(&str, u32)) -> bool {
        self.lint == other.0 && self.line == other.1
    }
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .canonicalize()
        .expect("repo root exists")
}

/// Every member a snippet can stand in for: each `crates/` directory
/// that holds a manifest, then the workspace `tests` member.
pub fn members() -> Vec<String> {
    let mut names: Vec<String> = fs::read_dir(repo_root().join("crates"))
        .expect("crates/ is readable")
        .map(|entry| entry.expect("crates/ entry is readable").path())
        .filter(|dir| dir.join("Cargo.toml").is_file())
        .filter_map(|dir| Some(dir.file_name()?.to_string_lossy().into_owned()))
        .collect();
    names.sort();
    names.push("tests".to_string());
    names
}

/// `--extern` flags for every workspace library `src` names
/// (`massf_engine::`), each the newest such rlib beside this test
/// binary, and the `-L` path their own dependencies resolve from.
fn extern_flags(src: &str) -> Vec<String> {
    let exe = std::env::current_exe().expect("test binary path");
    let deps = exe.parent().expect("test binary sits in a deps directory");
    let mut flags = vec![format!("-Ldependency={}", deps.display())];
    let mut named: Vec<&str> = src
        .split(|c: char| !(c.is_alphanumeric() || c == '_' || c == ':'))
        .filter_map(|path| path.split_once("::"))
        .map(|(name, _)| name)
        .filter(|name| name.starts_with("massf_"))
        .collect();
    named.sort_unstable();
    named.dedup();
    for name in named {
        let prefix = format!("lib{name}-");
        let newest = fs::read_dir(deps)
            .expect("deps directory is readable")
            .filter_map(|entry| entry.ok())
            .filter(|entry| {
                let file = entry.file_name().to_string_lossy().into_owned();
                file.starts_with(&prefix) && file.ends_with(".rlib")
            })
            .max_by_key(|entry| entry.metadata().and_then(|m| m.modified()).ok())
            .expect("a named workspace library is a dependency of the tests member");
        flags.push(format!("--extern={name}={}", newest.path().display()));
    }
    flags
}

/// The toolchain's clippy-driver: beside the cargo running the tests,
/// else on `PATH`.
fn clippy_driver() -> PathBuf {
    std::env::var_os("CARGO")
        .map(|cargo| PathBuf::from(cargo).with_file_name("clippy-driver"))
        .filter(|driver| driver.is_file())
        .unwrap_or_else(|| PathBuf::from("clippy-driver"))
}

/// `-D clippy::<lint>` for every lint the root `Cargo.toml` denies, when
/// the member's manifest inherits `[workspace.lints]`.
fn workspace_lint_flags(root: &Path, manifest_dir: &Path) -> Vec<String> {
    let manifest = fs::read_to_string(manifest_dir.join("Cargo.toml")).unwrap_or_default();
    if !manifest.contains("\n[lints]\nworkspace = true\n") {
        return Vec::new();
    }
    let workspace = fs::read_to_string(root.join("Cargo.toml")).expect("root Cargo.toml");
    let table = workspace
        .split("\n[workspace.lints.clippy]\n")
        .nth(1)
        .and_then(|rest| rest.split("\n[").next())
        .unwrap_or_default();
    table
        .lines()
        .filter_map(|line| line.strip_suffix(" = \"deny\""))
        .map(|lint| format!("-Dclippy::{lint}"))
        .collect()
}

/// The member's single-line crate-root attributes (`#![forbid(..)]`,
/// `#![cfg_attr(not(test), deny(clippy::..))]`).
fn crate_attributes(manifest_dir: &Path) -> String {
    let lib = fs::read_to_string(manifest_dir.join("src/lib.rs")).unwrap_or_default();
    lib.lines()
        .filter(|line| line.starts_with("#![") && line.ends_with(")]"))
        .map(|line| format!("{line}\n"))
        .collect()
}

/// The denied findings clippy reports in `src` compiled as part of
/// `member`: a `crates/` directory name, `tests`, or any other
/// workspace-relative directory (`shims/rand`, `perf`). Sorted by line,
/// then lint; a lint reported in both build modes counts once. Panics if
/// the snippet does not compile or clippy does not run.
pub fn findings(member: &str, src: &str) -> Vec<Finding> {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let root = repo_root();
    let manifest_dir = match member {
        "tests" => root.join("tests"),
        _ if member.contains('/') => root.join(member),
        _ => root.join("crates").join(member),
    };
    assert!(
        manifest_dir.is_dir(),
        "no member at {}",
        manifest_dir.display()
    );
    let dir = root.join("target").join(format!(
        "clippy-fixture-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    fs::create_dir_all(&dir).expect("create snippet dir");
    fs::write(dir.join("snippet.rs"), src).expect("write snippet");
    let crate_root = format!("{}mod snippet;\n", crate_attributes(&manifest_dir));
    fs::write(dir.join("root.rs"), crate_root).expect("write crate root");

    let (mut found, mut errors) = (Vec::new(), Vec::new());
    for mode in [None, Some("--test")] {
        let out = Command::new(clippy_driver())
            .current_dir(&dir)
            .env("CARGO_MANIFEST_DIR", &manifest_dir)
            .env_remove("CLIPPY_CONF_DIR")
            .env_remove("CLIPPY_ARGS")
            .args(["--edition=2021", "--crate-type=lib", "--crate-name=snippet"])
            .args(["--emit=metadata", "--error-format=json", "-o", "out.rmeta"])
            .args(mode)
            .args(["-Dwarnings", "-Adead_code"])
            .args(workspace_lint_flags(&root, &manifest_dir))
            .args(extern_flags(src))
            .arg("root.rs")
            .output()
            .expect("clippy-driver runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let reported = found.len() + errors.len();
        for diagnostic in stderr.lines().filter(|l| l.starts_with('{')) {
            match parse(diagnostic) {
                Some(Ok(finding)) => found.push(finding),
                Some(Err(error)) => errors.push(error),
                None => {}
            }
        }
        assert!(
            out.status.success() || found.len() + errors.len() > reported,
            "clippy-driver failed: {stderr}"
        );
    }
    let _ = fs::remove_dir_all(&dir);
    assert!(errors.is_empty(), "snippet does not compile: {errors:?}");
    found.sort();
    found.dedup();
    found
}

/// The top-level fields of one JSON diagnostic that matter here: `None`
/// for anything that does not fail the build, else the lint and line, or
/// the diagnostic itself if it is not a lint (a compile error). Message
/// text is JSON-escaped, so the first unescaped `"code":` and `"level":`
/// are the diagnostic's own, and its spans come before its children.
fn parse(diagnostic: &str) -> Option<Result<Finding, String>> {
    let after = |key: &str| Some(&diagnostic[diagnostic.find(key)? + key.len()..]);
    if !after("\"level\":")?.starts_with("\"error\"") {
        return None;
    }
    if after("\"message\":")?.starts_with("\"aborting due to") {
        return None;
    }
    let lint = after("\"code\":")?
        .strip_prefix("{\"code\":\"")
        .and_then(|rest| rest.split('"').next())
        .filter(|code| !code.starts_with('E'));
    let Some(lint) = lint else {
        return Some(Err(diagnostic.to_string()));
    };
    let spans = diagnostic.split("\"children\":").next()?;
    let primary = spans
        .split("{\"file_name\":")
        .find(|span| span.contains("\"is_primary\":true"))?;
    if !primary.starts_with("\"snippet.rs\"") {
        return None;
    }
    let line = primary.split("\"line_start\":").nth(1)?;
    let line = line[..line.find(',')?].parse().ok()?;
    Some(Ok(Finding {
        lint: lint.to_string(),
        line,
    }))
}
