//! Command-line parsing. Anything unrecognised is an error: the caller
//! prints it with the usage text and exits with status 2.

use crate::run::RunOptions;
use crate::workload::{Size, Workload};

pub const USAGE: &str = "\
usage:
  massf-perf --workload W [--seed S] [--seconds T] [--trace 0|1] [--tiny]
      one run; the last line of stdout is the result as one JSON object.
      W: flat_packet | multias_packet | flap_session | fluid_background
      --seed S      inputs are generated from S (default 2004)
      --seconds T   repeat the measured legs for T seconds (default 25)
      --trace 1     time the layers instead of the end-to-end metrics
      --tiny        test-sized inputs: digests and counts only
  massf-perf suite [--seed S] [--runs N] [--quick]
      N untraced runs (default 5) + 1 traced run per workload, aggregated
      into perf/out/results.json; --quick = --tiny, 1 run, checks only
  massf-perf selfcheck [--runs N] [--workload W]
      two sets of N differently seeded runs (default 10) per workload
      (or of W only), held against the bounds in BENCHMARK.json
  massf-perf diff BEFORE.json AFTER.json
      compare two results.json files";

/// Default measuring time of one run; `BENCHMARK.json` passes its own.
pub const DEFAULT_SECONDS: f64 = 25.0;
pub const DEFAULT_SEED: u64 = 2004;

pub struct SuiteOptions {
    pub seed: u64,
    pub runs: usize,
    pub quick: bool,
}

pub enum Command {
    One(RunOptions),
    Suite(SuiteOptions),
    Selfcheck {
        runs: usize,
        /// Check this workload only (all four when absent).
        only: Option<Workload>,
    },
    Diff {
        before: String,
        after: String,
    },
}

fn value(args: &mut impl Iterator<Item = String>, flag: &str) -> Result<String, String> {
    args.next().ok_or_else(|| format!("{flag} needs a value"))
}

fn number<T: std::str::FromStr>(
    args: &mut impl Iterator<Item = String>,
    flag: &str,
) -> Result<T, String> {
    let v = value(args, flag)?;
    v.parse()
        .map_err(|_| format!("{flag} must be a number, got {v:?}"))
}

fn count(args: &mut impl Iterator<Item = String>, flag: &str) -> Result<usize, String> {
    match number(args, flag)? {
        0 => Err(format!("{flag} must be at least 1")),
        n => Ok(n),
    }
}

fn workload(args: &mut impl Iterator<Item = String>) -> Result<Workload, String> {
    let v = value(args, "--workload")?;
    Workload::parse(&v).ok_or_else(|| {
        format!(
            "unknown workload {v:?} (expected one of: {})",
            Workload::ALL.map(Workload::name).join(", ")
        )
    })
}

pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Command, String> {
    let mut args = args.into_iter().peekable();
    match args.peek().map(String::as_str) {
        Some("suite") => {
            args.next();
            let mut opts = SuiteOptions {
                seed: DEFAULT_SEED,
                runs: 5,
                quick: false,
            };
            while let Some(arg) = args.next() {
                match arg.as_str() {
                    "--seed" => opts.seed = number(&mut args, "--seed")?,
                    "--runs" => opts.runs = count(&mut args, "--runs")?,
                    "--quick" => opts.quick = true,
                    other => return Err(format!("unknown suite argument {other:?}")),
                }
            }
            Ok(Command::Suite(opts))
        }
        Some("selfcheck") => {
            args.next();
            let (mut runs, mut only) = (10, None);
            while let Some(arg) = args.next() {
                match arg.as_str() {
                    "--runs" => runs = count(&mut args, "--runs")?,
                    "--workload" => only = Some(workload(&mut args)?),
                    other => return Err(format!("unknown selfcheck argument {other:?}")),
                }
            }
            Ok(Command::Selfcheck { runs, only })
        }
        Some("diff") => {
            args.next();
            match (args.next(), args.next(), args.next()) {
                (Some(before), Some(after), None) => Ok(Command::Diff { before, after }),
                _ => Err("diff takes exactly two results files".into()),
            }
        }
        _ => {
            let mut chosen = None;
            let mut opts = RunOptions {
                workload: Workload::FlatPacket,
                seed: DEFAULT_SEED,
                seconds: DEFAULT_SECONDS,
                trace: false,
                size: Size::Full,
                out_dir: crate::run::OUT_DIR.into(),
            };
            while let Some(arg) = args.next() {
                match arg.as_str() {
                    "--workload" => chosen = Some(workload(&mut args)?),
                    "--seed" => opts.seed = number(&mut args, "--seed")?,
                    "--seconds" => {
                        opts.seconds = number(&mut args, "--seconds")?;
                        if !(0.0..=600.0).contains(&opts.seconds) {
                            return Err("--seconds must be between 0 and 600".into());
                        }
                    }
                    "--trace" => {
                        opts.trace = match value(&mut args, "--trace")?.as_str() {
                            "0" => false,
                            "1" => true,
                            v => return Err(format!("--trace must be 0 or 1, got {v:?}")),
                        }
                    }
                    "--tiny" => opts.size = Size::Tiny,
                    other => return Err(format!("unknown argument {other:?}")),
                }
            }
            opts.workload = chosen.ok_or("--workload is required")?;
            Ok(Command::One(opts))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_str(s: &str) -> Result<Command, String> {
        parse(s.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn driver_invocation_parses() {
        let Ok(Command::One(o)) =
            parse_str("--workload flap_session --seed 7 --seconds 10 --trace 1")
        else {
            panic!("the driver's argument form must parse");
        };
        assert_eq!(o.workload, Workload::FlapSession);
        assert_eq!((o.seed, o.seconds, o.trace), (7, 10.0, true));
        assert_eq!(o.size, Size::Full);
    }

    #[test]
    fn bad_input_is_rejected() {
        for bad in [
            "",
            "--workload nope",
            "--workload",
            "--workload flat_packet --seed x",
            "--workload flat_packet --trace 2",
            "--workload flat_packet --seconds -1",
            "--workload flat_packet --bogus",
            "suite --runs 0",
            "suite --what",
            "selfcheck --runs",
            "selfcheck --workload nope",
            "diff only-one.json",
            "diff a b c",
        ] {
            assert!(parse_str(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn subcommands_parse() {
        assert!(matches!(
            parse_str("suite --quick --seed 3 --runs 2"),
            Ok(Command::Suite(SuiteOptions {
                seed: 3,
                runs: 2,
                quick: true
            }))
        ));
        assert!(matches!(
            parse_str("selfcheck --runs 4"),
            Ok(Command::Selfcheck {
                runs: 4,
                only: None
            })
        ));
        assert!(matches!(
            parse_str("selfcheck --workload fluid_background"),
            Ok(Command::Selfcheck {
                runs: 10,
                only: Some(Workload::FluidBackground)
            })
        ));
        assert!(matches!(
            parse_str("diff a.json b.json"),
            Ok(Command::Diff { .. })
        ));
    }
}
