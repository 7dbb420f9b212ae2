//! `massf-perf` — host-time benchmark of the massf-rs paper pipeline.
//!
//! ```text
//! massf-perf --workload W [--seed S] [--seconds T] [--trace 0|1]   one run
//! massf-perf suite [--seed S] [--runs N] [--quick]                 all workloads
//! massf-perf selfcheck [--runs N] [--workload W]                   steadiness vs bounds
//! massf-perf diff A.json B.json                                    before/after table
//! ```
//!
//! See `perf/README.md` for what is measured and why.

#![forbid(unsafe_code)]

mod cli;
mod json;
mod layers;
mod legs;
mod metrics;
mod run;
mod stats;
mod suite;
#[cfg(test)]
mod tests;
mod trace;
mod workload;

use cli::Command;

fn main() {
    let code = match cli::parse(std::env::args().skip(1)) {
        Ok(Command::One(opts)) => suite::run_one(&opts),
        Ok(Command::Suite(opts)) => suite::suite(&opts),
        Ok(Command::Selfcheck { runs, only }) => suite::selfcheck(runs, only),
        Ok(Command::Diff { before, after }) => suite::diff(&before, &after),
        Err(e) => {
            eprintln!("error: {e}\n\n{}", cli::USAGE);
            2
        }
    };
    std::process::exit(code);
}
