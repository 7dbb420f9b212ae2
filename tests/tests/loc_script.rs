//! `scripts/loc.sh` counts every line of `crates/` except those of
//! `#[cfg(test)]` items: a doc comment that mentions the attribute is
//! prose, and a test-only field or method in the middle of a file hides
//! nothing below it.

use std::fs;
use std::path::Path;
use std::process::Command;

/// 13 counted lines: 1–4, 7–9 and 14–19; lines 5–6 (a test-only
/// field), 10–13 (a test-only method) and 20–24 (the test module) are
/// skipped.
const DEMO: &str = "\
//! Demo crate: a doc comment that mentions #[cfg(test)] is prose.

pub struct Counter {
    pub hits: u64,
    #[cfg(test)]
    pub probes: u64,
}

impl Counter {
    #[cfg(test)]
    fn reset(&mut self) {
        self.hits = 0;
    }

    pub fn hit(&mut self) {
        self.hits += 1;
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn hit() {}
}
";

#[test]
fn loc_script_skips_only_test_items() {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("loc-script");
    let _ = fs::remove_dir_all(&root);
    fs::create_dir_all(root.join("crates/demo/src")).expect("create temp tree");
    fs::write(root.join("crates/demo/src/lib.rs"), DEMO).expect("write demo crate");

    let script = Path::new(env!("CARGO_MANIFEST_DIR")).join("../scripts/loc.sh");
    let out = Command::new("bash")
        .arg(&script)
        .arg(&root)
        .output()
        .expect("bash runs scripts/loc.sh");
    let _ = fs::remove_dir_all(&root);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let count = |label: &str| {
        stdout
            .lines()
            .find_map(|l| l.trim().strip_suffix(label)?.trim().parse::<u32>().ok())
    };
    assert_eq!(count("demo"), Some(13), "{stdout}");
    assert_eq!(count("total"), Some(13), "{stdout}");
}
