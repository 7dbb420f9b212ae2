//! simlint CLI.
//!
//! ```text
//! cargo run -p massf-simlint                     # scan crates/ and tests/ under the working directory
//! cargo run -p massf-simlint -- --explain RULE   # long-form rationale of a rule (slug or code)
//! ```
//!
//! Exit codes: 0 clean, 1 violations, 2 usage or IO error.

#![forbid(unsafe_code)]

use massf_simlint::{report, Rule};
use std::path::Path;
use std::process::ExitCode;

const USAGE: &str = "usage: simlint\n       simlint --explain RULE";

/// What the command line asked for.
enum Invocation {
    Scan,
    Explain(Rule),
}

fn parse_args(args: &[String]) -> Result<Invocation, String> {
    match args {
        [] => Ok(Invocation::Scan),
        [flag, name] if flag == "--explain" => Rule::from_slug(name)
            .or_else(|| Rule::ALL.into_iter().find(|r| r.code() == name.as_str()))
            .map(Invocation::Explain)
            .ok_or_else(|| {
                let known: Vec<&str> = Rule::ALL.iter().map(|r| r.slug()).collect();
                format!("unknown rule `{name}`; known rules: {}", known.join(", "))
            }),
        _ => Err(USAGE.to_string()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args) {
        Ok(Invocation::Scan) => {}
        Ok(Invocation::Explain(rule)) => {
            println!("{}", rule.explain());
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    }
    let (violations, files) = match massf_simlint::run(Path::new(".")) {
        Ok(scan) => scan,
        Err(msg) => {
            eprintln!("simlint: error: {msg}");
            return ExitCode::from(2);
        }
    };
    print!("{}", report::render_violations(&violations));
    println!("{}", report::render_summary(files, &violations));
    ExitCode::from(u8::from(!violations.is_empty()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_full_command_line() {
        assert!(matches!(parse_args(&argv(&[])), Ok(Invocation::Scan)));
        assert!(matches!(
            parse_args(&argv(&["--explain", "D4"])),
            Ok(Invocation::Explain(Rule::FloatOrder))
        ));
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
        // D1–D3, S1 and S2 are clippy lints now; D6 is gone.
        for gone in ["D1", "hash-iteration", "S1", "cast-lossy", "D6"] {
            assert!(parse_args(&argv(&["--explain", gone])).is_err(), "{gone}");
        }
    }

    #[test]
    fn rejects_bad_usage() {
        for bad in [
            &["--bogus"][..],
            &["--workspace"],
            &["--explain"],
            &["--explain", "D4", "extra"],
            &["--help"],
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "accepted {bad:?}");
        }
    }
}
