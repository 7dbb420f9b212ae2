//! Every citation in a root `BENCH_*.json` file resolves against the
//! tree: a recorded number is only evidence while the code it names
//! still exists.
//!
//! The files are scanned as text (the serde shim has no JSON backend):
//!
//! - every `crates/…` or `tests/…` `.rs` path exists;
//! - a `::name` right after such a path names a `fn` in that file;
//! - in `"benchmark": "group/case (path)"`, every `/`-separated name is
//!   a string literal of that file (the Criterion group and case ids);
//! - each `--bin X`, and the first word of each `"command"`, is a
//!   binary of `crates/bench`.

use std::fs;
use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the tests crate sits one level below the repository root")
        .to_path_buf()
}

fn is_path_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || matches!(c, '_' | '-' | '.' | '/')
}

fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// The identifier at the start of `s` (possibly empty).
fn ident(s: &str) -> &str {
    let end = s.find(|c: char| !is_ident_char(c)).unwrap_or(s.len());
    &s[..end]
}

/// Each `crates/…` / `tests/…` `.rs` path in `text`, with the `::name`
/// that follows it, if any. A path starts at a token boundary, so the
/// `tests/x.rs` inside `crates/bench/tests/x.rs` is not a second hit.
fn cited_paths(text: &str) -> Vec<(&str, Option<&str>)> {
    let mut out = Vec::new();
    for (start, _) in text.char_indices() {
        let rest = &text[start..];
        if !(rest.starts_with("crates/") || rest.starts_with("tests/")) {
            continue;
        }
        if text[..start].chars().next_back().is_some_and(is_path_char) {
            continue;
        }
        let len = rest.find(|c: char| !is_path_char(c)).unwrap_or(rest.len());
        let token = rest[..len].trim_end_matches('.');
        if !token.ends_with(".rs") {
            continue;
        }
        let item = rest[token.len()..]
            .strip_prefix("::")
            .map(ident)
            .filter(|name| !name.is_empty());
        out.push((token, item));
    }
    out
}

/// The string values of every `"key": "value"` pair in `text`.
fn values_of<'t>(text: &'t str, key: &str) -> Vec<&'t str> {
    let needle = format!("\"{key}\": \"");
    text.match_indices(&needle)
        .map(|(at, _)| {
            let rest = &text[at + needle.len()..];
            &rest[..rest.find('"').unwrap_or(rest.len())]
        })
        .collect()
}

/// Does `src` define a `fn` called `name`?
fn defines_fn(src: &str, name: &str) -> bool {
    let needle = format!("fn {name}");
    src.match_indices(&needle).any(|(at, _)| {
        !src[at + needle.len()..].starts_with(is_ident_char) && !src[..at].ends_with(is_ident_char)
    })
}

/// Binaries of `crates/bench`: one per `src/bin/*.rs` file.
fn bench_binaries(root: &Path) -> Vec<String> {
    let dir = root.join("crates/bench/src/bin");
    fs::read_dir(&dir)
        .expect("crates/bench/src/bin is readable")
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "rs"))
        .filter_map(|p| Some(p.file_stem()?.to_str()?.to_string()))
        .collect()
}

/// Every unresolved citation in one BENCH file's `text`, relative to
/// the repository at `root`.
fn findings(root: &Path, text: &str, bins: &[String]) -> Vec<String> {
    let mut out = Vec::new();
    let read = |path: &str| fs::read_to_string(root.join(path)).ok();

    for (path, item) in cited_paths(text) {
        match (read(path), item) {
            (None, _) => out.push(format!("{path}: no such file")),
            (Some(src), Some(name)) if !defines_fn(&src, name) => {
                out.push(format!("{path}::{name}: no `fn {name}` in that file"));
            }
            _ => {}
        }
    }

    for value in values_of(text, "benchmark") {
        let Some((ids, path)) = value.split_once(" (") else {
            out.push(format!(
                "benchmark {value:?}: expected \"group/case (path)\""
            ));
            continue;
        };
        let path = path.trim_end_matches(')');
        let Some(src) = read(path) else {
            continue; // already reported as a missing file
        };
        for id in ids.split('/') {
            if !src.contains(&format!("\"{id}\"")) {
                out.push(format!(
                    "benchmark {value:?}: {id:?} is not a literal of {path}"
                ));
            }
        }
    }

    let mut cited_bins: Vec<&str> = text
        .match_indices("--bin ")
        .map(|(at, m)| ident(&text[at + m.len()..]))
        .collect();
    cited_bins.extend(
        values_of(text, "command")
            .into_iter()
            .map(|c| c.split_whitespace().next().unwrap_or("")),
    );
    for bin in cited_bins {
        if !bins.iter().any(|b| b == bin) {
            out.push(format!("binary {bin:?}: not a binary of crates/bench"));
        }
    }
    out
}

#[test]
fn every_citation_in_a_bench_file_resolves() {
    let root = repo_root();
    let bins = bench_binaries(&root);
    let mut files: Vec<PathBuf> = fs::read_dir(&root)
        .expect("repository root is readable")
        .map(|e| e.expect("directory entry").path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        })
        .collect();
    files.sort();
    assert!(!files.is_empty(), "no BENCH_*.json at {}", root.display());

    let mut problems = Vec::new();
    for file in &files {
        let text = fs::read_to_string(file).expect("BENCH file is readable");
        let name = file.file_name().and_then(|n| n.to_str()).unwrap_or("?");
        problems.extend(
            findings(&root, &text, &bins)
                .into_iter()
                .map(|p| format!("{name}: {p}")),
        );
    }
    assert!(
        problems.is_empty(),
        "stale citations:\n  {}",
        problems.join("\n  ")
    );
}

/// The scanner catches each kind of stale citation, and only those.
#[test]
fn findings_name_each_kind_of_stale_citation() {
    let root = repo_root();
    let bins = vec!["suite".to_string()];
    let text = r#"{
  "a": "see crates/bench/tests/fluid_scaling.rs::sixteen_thousand_fluid_flows_keep_their_recorded_counters.",
  "b": "see crates/bench/tests/fluid_scaling.rs::no_such_test and crates/nowhere.rs",
  "benchmark": "hierarchical_sweep_2k_threads/no_such_case (crates/bench/benches/hprof_sweep.rs)",
  "command": "fig06_time_single_as --scale tiny",
  "c": "Command: cargo run -p massf-bench --bin suite. Also --bin gone_bin."
}"#;
    assert_eq!(
        findings(&root, text, &bins),
        vec![
            "crates/bench/tests/fluid_scaling.rs::no_such_test: no `fn no_such_test` in that file"
                .to_string(),
            "crates/nowhere.rs: no such file".to_string(),
            "benchmark \"hierarchical_sweep_2k_threads/no_such_case \
             (crates/bench/benches/hprof_sweep.rs)\": \"no_such_case\" is not a literal of \
             crates/bench/benches/hprof_sweep.rs"
                .to_string(),
            "binary \"gone_bin\": not a binary of crates/bench".to_string(),
            "binary \"fig06_time_single_as\": not a binary of crates/bench".to_string(),
        ]
    );
}
