//! simlint CLI.
//!
//! ```text
//! cargo run -p massf-simlint -- --workspace \
//!     [--root DIR] [--config PATH] \
//!     [--baseline simlint-baseline.txt] [--update-baseline] \
//!     [--changed-since REV] [--format text|json]
//! cargo run -p massf-simlint -- --explain RULE
//! ```
//!
//! Exit codes: 0 clean (or all deny violations baselined), 1 violations
//! (or new-vs-baseline), 2 usage / IO / config error.

#![forbid(unsafe_code)]

use massf_simlint::{report, Options, Rule};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: simlint --workspace [--root DIR] [--config PATH] \
                     [--baseline PATH] [--update-baseline] [--changed-since REV] \
                     [--format text|json]\n       simlint --explain RULE";

/// Output format for findings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Format {
    Text,
    Json,
}

/// What the command line asked for.
#[derive(Debug)]
enum Invocation {
    Scan(Options, Format),
    Explain(Rule),
}

fn parse_args(args: &[String]) -> Result<Invocation, String> {
    let mut workspace = false;
    let mut opts = Options::new(".");
    let mut format = Format::Text;
    let mut explain: Option<Rule> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workspace" => workspace = true,
            "--root" => {
                let v = it.next().ok_or("--root needs a directory argument")?;
                opts.root = PathBuf::from(v);
            }
            "--config" => {
                let v = it.next().ok_or("--config needs a path argument")?;
                opts.config_path = PathBuf::from(v);
            }
            "--baseline" => {
                let v = it.next().ok_or("--baseline needs a path argument")?;
                opts.baseline_path = Some(PathBuf::from(v));
            }
            "--update-baseline" => opts.update_baseline = true,
            "--changed-since" => {
                let v = it
                    .next()
                    .ok_or("--changed-since needs a git rev argument")?;
                opts.changed_since = Some(v.clone());
            }
            "--format" => {
                let v = it.next().ok_or("--format needs text|json")?;
                format = match v.as_str() {
                    "text" => Format::Text,
                    "json" => Format::Json,
                    other => return Err(format!("unknown format `{other}` (text|json)")),
                };
            }
            "--explain" => {
                let v = it.next().ok_or("--explain needs a rule slug or code")?;
                let rule = Rule::from_slug(v)
                    .or_else(|| Rule::ALL.into_iter().find(|r| r.code() == v.as_str()))
                    .ok_or_else(|| {
                        let known: Vec<&str> = Rule::ALL.iter().map(|r| r.slug()).collect();
                        format!("unknown rule `{v}`; known rules: {}", known.join(", "))
                    })?;
                explain = Some(rule);
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    if let Some(rule) = explain {
        return Ok(Invocation::Explain(rule));
    }
    if !workspace {
        return Err(format!("`--workspace` is required\n{USAGE}"));
    }
    if opts.update_baseline && opts.baseline_path.is_none() {
        return Err("`--update-baseline` requires `--baseline PATH`".to_string());
    }
    Ok(Invocation::Scan(opts, format))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (opts, format) = match parse_args(&args) {
        Ok(Invocation::Scan(o, f)) => (o, f),
        Ok(Invocation::Explain(rule)) => {
            println!("{}", rule.explain());
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let outcome = match massf_simlint::run(&opts) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("simlint: error: {msg}");
            return ExitCode::from(2);
        }
    };
    if outcome.baseline_written {
        println!(
            "simlint: baseline updated with {} violation(s) across {} file(s)",
            outcome.violations.len(),
            outcome.files
        );
        return ExitCode::SUCCESS;
    }
    // With a baseline, print only the violations that actually gate
    // (new ones); a bare scan prints everything.
    let reported = match &outcome.comparison {
        Some(cmp) => &cmp.new,
        None => &outcome.violations,
    };
    match format {
        Format::Text => print!("{}", report::render_violations(reported)),
        Format::Json => print!("{}", report::render_json(reported)),
    }
    if let Some(cmp) = &outcome.comparison {
        for s in &cmp.stale {
            eprintln!("simlint: stale baseline entry (fix landed — prune it): {s}");
        }
    }
    // JSON mode keeps stdout machine-parseable: the summary goes to
    // stderr there.
    let summary = report::render_summary(
        outcome.files,
        &outcome.violations,
        outcome.comparison.as_ref(),
    );
    match format {
        Format::Text => println!("{summary}"),
        Format::Json => eprintln!("{summary}"),
    }
    ExitCode::from(u8::try_from(outcome.exit_code()).unwrap_or(2))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_full_command_line() {
        let Invocation::Scan(opts, format) = parse_args(&argv(&[
            "--workspace",
            "--root",
            "/w",
            "--config",
            "custom.toml",
            "--baseline",
            "b.txt",
            "--update-baseline",
            "--format",
            "json",
            "--changed-since",
            "HEAD~1",
        ]))
        .expect("valid args") else {
            panic!("expected a scan invocation");
        };
        assert_eq!(opts.root, PathBuf::from("/w"));
        assert_eq!(opts.config_path, PathBuf::from("custom.toml"));
        assert_eq!(opts.baseline_path, Some(PathBuf::from("b.txt")));
        assert!(opts.update_baseline);
        assert_eq!(opts.changed_since.as_deref(), Some("HEAD~1"));
        assert_eq!(format, Format::Json);
    }

    #[test]
    fn explain_accepts_slug_and_code_without_workspace() {
        let Invocation::Explain(r) =
            parse_args(&argv(&["--explain", "float-order"])).expect("slug works")
        else {
            panic!("expected explain");
        };
        assert_eq!(r, Rule::FloatOrder);
        let Invocation::Explain(r) = parse_args(&argv(&["--explain", "D5"])).expect("code works")
        else {
            panic!("expected explain");
        };
        assert_eq!(r, Rule::DeterminismTaint);
        assert!(parse_args(&argv(&["--explain", "nope"])).is_err());
        assert!(parse_args(&argv(&["--explain", "D6"])).is_err());
    }

    #[test]
    fn rejects_bad_usage() {
        assert!(parse_args(&argv(&[])).is_err(), "--workspace required");
        assert!(parse_args(&argv(&["--workspace", "--bogus"])).is_err());
        assert!(parse_args(&argv(&["--workspace", "--root"])).is_err());
        assert!(parse_args(&argv(&["--workspace", "--format", "xml"])).is_err());
        assert!(
            parse_args(&argv(&["--workspace", "--update-baseline"])).is_err(),
            "--update-baseline without --baseline"
        );
    }
}
