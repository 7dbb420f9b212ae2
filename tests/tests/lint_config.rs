//! The clippy configuration that holds the determinism and safety rules
//! simlint used to check itself (hash iteration, wall clock, entropy,
//! unwrap/panic, narrowing casts, allows without a reason). Clippy
//! enforces it in `scripts/check.sh`; these tests pin the configuration
//! so that dropping a path or a manifest's `[lints]` table fails
//! `cargo test`.

use std::fs;
use std::path::{Path, PathBuf};

/// The iterating methods of `HashMap` and `HashSet`: their order
/// depends on the per-process hash seed.
const HASH_METHODS: [&str; 12] = [
    "std::collections::HashMap::iter",
    "std::collections::HashMap::iter_mut",
    "std::collections::HashMap::keys",
    "std::collections::HashMap::into_keys",
    "std::collections::HashMap::values",
    "std::collections::HashMap::values_mut",
    "std::collections::HashMap::into_values",
    "std::collections::HashMap::drain",
    "std::collections::HashMap::retain",
    "std::collections::HashSet::iter",
    "std::collections::HashSet::drain",
    "std::collections::HashSet::retain",
];

/// Host time and OS entropy: allowed only in the bench crate.
const CLOCK_AND_ENTROPY_TYPES: [&str; 3] = [
    "std::time::Instant",
    "std::time::SystemTime",
    "std::hash::RandomState",
];

/// Every way safe code makes a raw pointer from a reference without a
/// cast: an address differs between runs.
const POINTER_METHODS: [&str; 6] = [
    "slice::as_ptr",
    "alloc::vec::Vec::as_ptr",
    "str::as_ptr",
    "std::sync::Arc::as_ptr",
    "std::ptr::from_ref",
    "std::ptr::from_mut",
];
const POINTER_MACROS: [&str; 2] = ["std::ptr::addr_of", "std::ptr::addr_of_mut"];

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .canonicalize()
        .expect("repo root exists")
}

fn read(rel: &str) -> String {
    fs::read_to_string(repo_root().join(rel)).expect("config file is readable")
}

fn lists(config: &str, path: &str) -> bool {
    config.contains(&format!("path = \"{path}\""))
}

#[test]
fn workspace_lints_deny_unwrap_panic_hash_loops_and_reasonless_allows() {
    let root = read("Cargo.toml");
    let table = root
        .split("[workspace.lints.clippy]")
        .nth(1)
        .and_then(|rest| rest.split("\n[").next())
        .expect("root Cargo.toml has [workspace.lints.clippy]");
    for lint in [
        "unwrap_used",
        "panic",
        "iter_over_hash_type",
        "disallowed_methods",
        "disallowed_types",
        "disallowed_macros",
        "ref_as_ptr",
        "borrow_as_ptr",
        "allow_attributes_without_reason",
    ] {
        assert!(
            table.contains(&format!("\n{lint} = \"deny\"")),
            "{lint} is not denied in:{table}"
        );
    }
}

#[test]
fn every_member_manifest_inherits_the_workspace_lints() {
    let root = repo_root();
    let mut manifests: Vec<PathBuf> = fs::read_dir(root.join("crates"))
        .expect("crates/ is readable")
        .map(|entry| {
            entry
                .expect("crates/ entry is readable")
                .path()
                .join("Cargo.toml")
        })
        .filter(|manifest| manifest.is_file())
        .collect();
    manifests.sort();
    assert!(manifests.len() >= 12, "{manifests:?}");
    manifests.push(root.join("tests/Cargo.toml"));
    for manifest in manifests {
        let text = fs::read_to_string(&manifest).expect("manifest is readable");
        assert!(
            text.contains("\n[lints]\nworkspace = true\n"),
            "{} does not inherit [workspace.lints]",
            manifest.display()
        );
    }
}

#[test]
fn crates_clippy_toml_bans_hash_iteration_clock_and_entropy() {
    let config = read("crates/clippy.toml");
    let paths = HASH_METHODS.iter().chain(&CLOCK_AND_ENTROPY_TYPES);
    for path in paths.chain(&POINTER_METHODS).chain(&POINTER_MACROS) {
        assert!(lists(&config, path), "crates/clippy.toml misses {path}");
    }
    assert!(config.contains("\nallow-panic-in-tests = true\n"));
}

#[test]
fn tests_clippy_toml_is_the_crates_file() {
    assert_eq!(read("tests/clippy.toml"), read("crates/clippy.toml"));
}

#[test]
fn bench_clippy_toml_bans_hash_iteration_only() {
    let config = read("crates/bench/clippy.toml");
    for path in HASH_METHODS {
        assert!(lists(&config, path), "bench's clippy.toml misses {path}");
    }
    for path in CLOCK_AND_ENTROPY_TYPES {
        assert!(!config.contains(path), "bench may use {path}");
    }
}

#[test]
fn no_clippy_toml_at_the_repo_root() {
    // Clippy searches upward from each manifest: a root file would ban
    // the clock inside perf/, which times itself.
    for name in ["clippy.toml", ".clippy.toml"] {
        assert!(!repo_root().join(name).exists(), "{name} at the root");
    }
}

#[test]
fn narrowing_casts_are_denied_in_engine_and_routing() {
    for lib in ["crates/engine/src/lib.rs", "crates/routing/src/lib.rs"] {
        assert!(
            read(lib)
                .contains("\n#![cfg_attr(not(test), deny(clippy::cast_possible_truncation))]\n"),
            "{lib} does not deny narrowing casts"
        );
    }
}

/// Every `.rs` file under `dir`, skipping build output.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("source directory is readable") {
        let path = entry.expect("directory entry is readable").path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n != "target") {
                rust_files(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn no_source_file_carries_a_simlint_directive() {
    // Suppressions are `#[expect(.., reason = "..")]` attributes now: a
    // comment whose text starts with the old directive prefix is dead.
    let prefix = "simlint:";
    let mut files = Vec::new();
    for dir in ["crates", "tests"] {
        rust_files(&repo_root().join(dir), &mut files);
    }
    assert!(files.len() > 50, "found only {} files", files.len());
    for file in files {
        let src = fs::read_to_string(&file).expect("source file is readable");
        for (n, line) in src.lines().enumerate() {
            let directive = line.split("//").skip(1).any(|comment| {
                comment
                    .trim_start_matches(['/', '!'])
                    .trim_start()
                    .starts_with(prefix)
            });
            assert!(!directive, "{}:{}: {line}", file.display(), n + 1);
        }
    }
}
