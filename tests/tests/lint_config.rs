//! The clippy configuration that holds the determinism and safety rules
//! (hash containers and iteration, wall clock, entropy, pointers,
//! measured waits, float order, unwrap/expect/panic, narrowing casts,
//! allows without a reason; DESIGN.md §3 item 15). Clippy enforces it in
//! `scripts/check.sh`; these tests pin the configuration so that dropping
//! a path, a crate-root attribute or a manifest's `[lints]` table fails
//! `cargo test`. One rule is a text check here: clippy cannot see a
//! turbofish float `sum`/`product`.

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

/// The hash containers themselves: clippy cannot name a by-value
/// `into_iter()` on them, so their iteration order cannot be banned
/// method by method.
const HASH_TYPES: [&str; 2] = ["std::collections::HashMap", "std::collections::HashSet"];

/// The reads of a measured barrier wait, and the float adder by path.
const WALL_CLOCK_AND_ADDER_METHODS: [&str; 3] = [
    "massf_engine::stats::WallMicros::as_f64",
    "massf_engine::stats::ExecutionStats::total_barrier_wait_us",
    "core::ops::Add::add",
];

/// The crates whose floats feed a run: `clippy::float_arithmetic` is
/// denied in each root, and no turbofish float reduction hides from it.
const FLOAT_ORDER_CRATES: [&str; 8] = [
    "engine",
    "parutil",
    "netsim",
    "routing",
    "partition",
    "core",
    "snapshot",
    "faults",
];

/// Every simulation crate: all of `crates/` but the bench crate.
const SIMULATION_CRATES: [&str; 10] = [
    "core",
    "engine",
    "faults",
    "netsim",
    "partition",
    "parutil",
    "routing",
    "snapshot",
    "topology",
    "workloads",
];

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
    let mut manifests: Vec<PathBuf> = member_crates()
        .iter()
        .map(|krate| root.join("crates").join(krate).join("Cargo.toml"))
        .collect();
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
fn hash_containers_are_banned_types_and_waits_banned_reads() {
    let config = read("crates/clippy.toml");
    let section = |key: &str| {
        config
            .split(&format!("\n{key} = ["))
            .nth(1)
            .and_then(|rest| rest.split("\n]").next())
            .unwrap_or_default()
            .to_string()
    };
    for path in HASH_TYPES {
        assert!(lists(&section("disallowed-types"), path), "{path}");
    }
    let methods = section("disallowed-methods");
    for path in WALL_CLOCK_AND_ADDER_METHODS {
        assert!(lists(&methods, path), "{path}");
    }
    // A crate that does not depend on the engine cannot resolve the
    // engine's paths; without allow-invalid clippy would warn there.
    let engine_entries = methods
        .lines()
        .filter(|line| line.contains("massf_engine::"));
    for entry in engine_entries {
        assert!(entry.contains("allow-invalid = true"), "{entry}");
    }
}

/// Whether `lib` carries `attribute` as a line of its own.
fn root_has(krate: &str, attribute: &str) -> bool {
    read(&format!("crates/{krate}/src/lib.rs")).contains(&format!("\n{attribute}\n"))
}

#[test]
fn float_arithmetic_is_denied_in_exactly_the_float_order_crates() {
    let attribute = "#![cfg_attr(not(test), deny(clippy::float_arithmetic))]";
    for krate in member_crates() {
        let expected = FLOAT_ORDER_CRATES.contains(&krate.as_str());
        assert_eq!(root_has(&krate, attribute), expected, "{krate}");
    }
}

#[test]
fn expect_is_denied_in_every_simulation_crate() {
    let attribute = "#![cfg_attr(not(test), deny(clippy::expect_used))]";
    for krate in member_crates() {
        let expected = SIMULATION_CRATES.contains(&krate.as_str());
        assert_eq!(root_has(&krate, attribute), expected, "{krate}");
    }
}

/// The directory names under `crates/` that hold a member manifest.
fn member_crates() -> Vec<String> {
    let mut names: Vec<String> = fs::read_dir(repo_root().join("crates"))
        .expect("crates/ is readable")
        .map(|entry| entry.expect("crates/ entry is readable").path())
        .filter(|dir| dir.join("Cargo.toml").is_file())
        .map(|dir| {
            dir.file_name()
                .expect("a crate dir")
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    names.sort();
    assert_eq!(names.len(), SIMULATION_CRATES.len() + 1, "{names:?}");
    names
}

/// The 1-based lines of `src`, outside `#[cfg(test)]` items, that reduce
/// floats with a turbofish `sum`/`product`: `clippy::float_arithmetic`
/// sees `a + b` but not these. A test item runs from its attribute to
/// where its braces close, or to its first `;` if it has none.
fn turbofish_float_reductions(src: &str) -> Vec<usize> {
    let reductions = [
        "sum::<f32>",
        "sum::<f64>",
        "product::<f32>",
        "product::<f64>",
    ];
    let (mut found, mut in_test, mut opened, mut depth) = (Vec::new(), false, false, 0i64);
    for (n, line) in src.lines().enumerate() {
        let code = line.split("//").next().unwrap_or_default();
        if !in_test && code.trim_start().starts_with("#[cfg(test)]") {
            (in_test, opened, depth) = (true, false, 0);
        }
        if in_test {
            let open = code.matches('{').count() as i64;
            depth += open - code.matches('}').count() as i64;
            opened |= open > 0;
            let ended = if opened {
                depth <= 0
            } else {
                code.trim_end().ends_with(';')
            };
            in_test = !ended;
            continue;
        }
        if reductions.iter().any(|r| code.contains(r)) {
            found.push(n + 1);
        }
    }
    found
}

#[test]
fn no_turbofish_float_reduction_in_the_float_order_crates() {
    let mut files = Vec::new();
    for krate in FLOAT_ORDER_CRATES {
        rust_files(
            &repo_root().join("crates").join(krate).join("src"),
            &mut files,
        );
    }
    assert!(files.len() > 50, "found only {} files", files.len());
    for file in files {
        let src = fs::read_to_string(&file).expect("source file is readable");
        let lines = turbofish_float_reductions(&src);
        assert!(lines.is_empty(), "{}: lines {lines:?}", file.display());
    }
}

#[test]
fn turbofish_check_flags_the_float_order_fixture() {
    // The fixture's turbofish sum is its one flagged line clippy cannot
    // see (tests/fixtures.rs checks the rest); the test module's sum is
    // exempt.
    let src = read("tests/fixtures/d4_float_order.rs");
    assert_eq!(turbofish_float_reductions(&src), [8]);
    assert!(src.lines().nth(7).is_some_and(|l| l.contains("// flagged")));
    // A braceless test item ends at its `;`.
    let src = "#[cfg(test)]
use x::y;
fn f(v: &[f64]) -> f64 { v.iter().sum::<f64>() }
";
    assert_eq!(turbofish_float_reductions(src), [3]);
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
