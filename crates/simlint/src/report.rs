//! Reporting. Output is fully deterministic (sorted by path, then
//! line, then rule) so simlint's own output can be diffed.

use crate::rules::Violation;
use std::fmt::Write;

/// Render `violations` in compiler style with a caret span:
///
/// ```text
/// crates/engine/src/par.rs:42:34: float-order (D4): `.sum::<f64>()` over …
///    42 | let t = per_partition.iter().sum::<f64>();
///       |                              ^^^
///       = note: float addition is not associative: …
/// ```
pub fn render_violations(violations: &[Violation]) -> String {
    let mut sorted: Vec<&Violation> = violations.iter().collect();
    sorted.sort_by(|a, b| {
        (&a.path, a.line, a.rule, &a.message).cmp(&(&b.path, b.line, b.rule, &b.message))
    });
    let mut out = String::new();
    for v in sorted {
        let _ = writeln!(
            out,
            "{}:{}:{}: {} ({}): {}",
            v.path,
            v.line,
            v.col,
            v.rule.slug(),
            v.rule.code(),
            v.message
        );
        if !v.snippet.is_empty() {
            let gutter = format!("{:>5}", v.line);
            let _ = writeln!(out, "{gutter} | {}", v.snippet);
            let _ = writeln!(
                out,
                "{:>5} | {}{}",
                "",
                " ".repeat(v.caret as usize),
                "^".repeat(v.len.max(1) as usize)
            );
        }
        let _ = writeln!(out, "      = note: {}", v.rule.hint());
    }
    out
}

/// One-line scan summary.
pub fn render_summary(files: usize, violations: &[Violation]) -> String {
    format!(
        "simlint: {} file(s), {} violation(s)",
        files,
        violations.len()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::Rule;

    fn sample() -> Vec<Violation> {
        vec![
            Violation {
                rule: Rule::DeterminismTaint,
                path: "crates/b.rs".into(),
                line: 9,
                col: 9,
                caret: 8,
                len: 12,
                snippet: "let t = seed_from_u64(wall);".into(),
                message: "nondeterministic value flows into `seed_from_u64(…)`".into(),
            },
            Violation {
                rule: Rule::FloatOrder,
                path: "crates/a.rs".into(),
                line: 3,
                col: 15,
                caret: 14,
                len: 4,
                snippet: "let total = parts.iter().sum::<f64>();".into(),
                message: "`.sum::<f64>()` over partition-ordered data".into(),
            },
        ]
    }

    #[test]
    fn rendering_is_sorted_and_complete() {
        let vs = sample();
        let text = render_violations(&vs);
        let a = text.find("crates/a.rs:3:15:").expect("a.rs reported");
        let b = text.find("crates/b.rs:9:9:").expect("b.rs reported");
        assert!(a < b, "sorted by path");
        assert!(text.contains("crates/a.rs:3:15: float-order (D4): `.sum::<f64>()`"));
        assert!(text.contains("= note:"));
        assert!(render_summary(2, &vs).contains("2 violation(s)"));
    }

    #[test]
    fn caret_line_points_at_the_finding() {
        let text = render_violations(&sample());
        // The taint snippet: caret 8, len 12 → 8 spaces then ^^^.
        let caret_line = text
            .lines()
            .find(|l| {
                l.trim_start().starts_with('|') && l.contains('^') && l.contains("^^^^^^^^^^^^")
            })
            .expect("caret line rendered");
        let after_bar = caret_line.split('|').nth(1).expect("gutter bar");
        assert_eq!(after_bar, " ".repeat(9) + &"^".repeat(12), "{caret_line:?}");
    }
}
