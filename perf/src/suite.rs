//! Everything above a single run: printing its result, running sets of
//! runs as child processes (each run is a fresh process, so `VmHWM`
//! and allocator state never carry over), aggregating them, checking
//! steadiness against `BENCHMARK.json`, and diffing two result files.

use crate::cli::SuiteOptions;
use crate::json::Json;
use crate::metrics::END_TO_END;
use crate::run::{run, RunOptions, OUT_DIR};
use crate::stats::{median, quartiles, spread};
use crate::workload::{Size, Workload};
use std::path::Path;
use std::process::Command;

/// Run once in this process; print every metric by name with its unit,
/// the digest, and — as the last line — the result object.
pub fn run_one(opts: &RunOptions) -> i32 {
    let out = run(opts);
    for v in &out.violations {
        println!("# VIOLATION: {v}");
    }
    let mut metrics = Vec::new();
    for (name, value, unit) in out.metrics.rows() {
        println!("{name} {value} {unit}");
        metrics.push((
            name,
            Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
        ));
    }
    println!("ops_failed/ops_attempted {}/{}", out.failed, out.attempted);
    println!("digest {:016x}", out.digest);
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(out.correct)),
            ("attempted", Json::Num(out.attempted as f64)),
            ("failed", Json::Num(out.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
    );
    i32::from(!out.correct)
}

/// What a child run reported.
struct ChildRun {
    correct: bool,
    attempted: f64,
    failed: f64,
    digest: String,
    /// `(name, value, unit)` in the child's order.
    metrics: Vec<(String, f64, String)>,
}

fn child(
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if size == Size::Tiny {
        cmd.arg("--tiny");
    }
    // `output` waits for the child and collects its pipes.
    let out = cmd.output().map_err(|e| format!("cannot start run: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let what = format!("{} seed {seed} trace {}", workload.name(), u8::from(trace));
    let last = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{what}: no output (exit {:?})", out.status.code()))?;
    let result = Json::parse(last).map_err(|e| format!("{what}: bad result line: {e}"))?;
    let field = |k: &str| {
        result
            .get(k)
            .ok_or_else(|| format!("{what}: result lacks {k:?}"))
    };
    let metrics = field("metrics")?
        .as_obj()
        .ok_or_else(|| format!("{what}: metrics is not an object"))?
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Json::as_f64);
            let unit = m.get("unit").and_then(Json::as_str);
            match (value, unit) {
                (Some(v), Some(u)) => Ok((name.clone(), v, u.to_owned())),
                _ => Err(format!("{what}: metric {name:?} lacks value or unit")),
            }
        })
        .collect::<Result<_, _>>()?;
    let run = ChildRun {
        correct: field("correct")?.as_bool().unwrap_or(false),
        attempted: field("attempted")?.as_f64().unwrap_or(0.0),
        failed: field("failed")?.as_f64().unwrap_or(0.0),
        digest: stdout
            .lines()
            .find_map(|l| l.strip_prefix("digest "))
            .unwrap_or("")
            .to_owned(),
        metrics,
    };
    if !run.correct {
        for line in stdout.lines().filter(|l| l.starts_with("# VIOLATION")) {
            eprintln!("{what}: {line}");
        }
    }
    Ok(run)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn write_out(name: &str, doc: &Json) {
    let path = Path::new(OUT_DIR).join(name);
    let written =
        std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&path, doc.pretty()));
    match written {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
    }
}

fn summary(values: &[f64], unit: &str) -> Json {
    let (q1, q3) = quartiles(values);
    Json::obj([
        ("median", Json::Num(median(values))),
        ("q1", Json::Num(q1)),
        ("q3", Json::Num(q3)),
        ("n", Json::Num(values.len() as f64)),
        ("unit", Json::str(unit)),
        (
            "values",
            Json::Arr(values.iter().copied().map(Json::Num).collect()),
        ),
    ])
}

/// N untraced + 1 traced run per workload; aggregate and record.
pub fn suite(opts: &SuiteOptions) -> i32 {
    let (size, runs, seconds) = if opts.quick {
        (Size::Tiny, 1, 0.0)
    } else {
        (Size::Full, opts.runs, crate::cli::DEFAULT_SECONDS)
    };
    let mut failures = 0;
    let mut workloads = Vec::new();
    for w in Workload::ALL {
        let mut children = Vec::new();
        for i in 0..=runs {
            // The last run of each workload is the traced one.
            let trace = i == runs;
            eprintln!(
                "# {} run {}/{}{}",
                w.name(),
                i + 1,
                runs + 1,
                if trace { " (traced)" } else { "" }
            );
            match child(w, opts.seed, seconds, trace, size) {
                Ok(c) => children.push((trace, c)),
                Err(e) => {
                    eprintln!("FAILED: {e}");
                    failures += 1;
                }
            }
        }
        let Some((_, first)) = children.first() else {
            continue;
        };
        // The correctness gate across runs: every run of one (workload,
        // seed) — traced or not — simulates the same statistics.
        let digest = first.digest.clone();
        for (_, c) in &children {
            if !c.correct || c.digest != digest {
                eprintln!(
                    "FAILED: {} run is incorrect or its digest {} differs from {digest}",
                    w.name(),
                    c.digest
                );
                failures += 1;
            }
        }
        println!(
            "\n== {} (seed {}, digest {digest}, ops failed/attempted {}/{}) ==",
            w.name(),
            opts.seed,
            first.failed,
            first.attempted
        );
        let untraced: Vec<&ChildRun> = children
            .iter()
            .filter(|(t, _)| !t)
            .map(|(_, c)| c)
            .collect();
        let mut end_to_end = Vec::new();
        if let Some(u0) = untraced.first() {
            for (i, (name, _, unit)) in u0.metrics.iter().enumerate() {
                let values: Vec<f64> = untraced.iter().map(|c| c.metrics[i].1).collect();
                let (q1, q3) = quartiles(&values);
                println!(
                    "{name} {} {unit}  (q1 {q1:.4}, q3 {q3:.4}, n {})",
                    median(&values),
                    values.len()
                );
                end_to_end.push((name.clone(), summary(&values, unit)));
            }
        }
        let mut per_layer = Vec::new();
        if let Some((_, t)) = children.iter().find(|(t, _)| *t) {
            for (name, value, unit) in &t.metrics {
                println!("{name} {value} {unit}");
                per_layer.push((
                    name.clone(),
                    Json::obj([
                        ("value", Json::Num(*value)),
                        ("unit", Json::str(unit.as_str())),
                    ]),
                ));
            }
        }
        workloads.push((
            w.name(),
            Json::obj([
                ("digest", Json::str(digest)),
                ("attempted", Json::Num(first.attempted)),
                ("failed", Json::Num(first.failed)),
                ("end_to_end", Json::obj(end_to_end)),
                ("per_layer", Json::obj(per_layer)),
            ]),
        ));
    }
    write_out(
        if opts.quick {
            "results-quick.json"
        } else {
            "results.json"
        },
        &Json::obj([
            ("seed", Json::Num(opts.seed as f64)),
            ("nproc", Json::Num(nproc() as f64)),
            ("quick", Json::Bool(opts.quick)),
            ("workloads", Json::obj(workloads)),
        ]),
    );
    if failures > 0 {
        eprintln!("{failures} failure(s)");
        return 1;
    }
    println!("all runs correct");
    0
}

/// The bounds `BENCHMARK.json` fixes, as `(metric, bound)`, plus its
/// `run_seconds`.
fn benchmark_contract() -> Result<(Vec<(String, f64)>, f64), String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("cannot read BENCHMARK.json (run from the repository root): {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let bounds = doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json lacks end_to_end")?
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str);
            let bound = m.get("bound").and_then(Json::as_f64);
            name.zip(bound)
                .map(|(n, b)| (n.to_owned(), b))
                .ok_or("BENCHMARK.json: end_to_end entry lacks name or bound")
        })
        .collect::<Result<_, _>>()?;
    let seconds = doc
        .get("run_seconds")
        .and_then(Json::as_f64)
        .ok_or("BENCHMARK.json lacks run_seconds")?;
    Ok((bounds, seconds))
}

/// The driver's acceptance procedure, run locally: two sets of `runs`
/// differently seeded untraced runs per workload. Per metric, the
/// interquartile spread of each set must stay within the metric's
/// bound (`setup_s` excepted), and the second set's median may not be
/// worse than the first's by more than the bound.
pub fn selfcheck(runs: usize, only: Option<Workload>) -> i32 {
    let (bounds, seconds) = match benchmark_contract() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    let mut failures = 0;
    let mut report = Vec::new();
    for w in Workload::ALL
        .into_iter()
        .filter(|w| only.is_none_or(|o| o == *w))
    {
        let mut sets: Vec<Vec<ChildRun>> = Vec::new();
        for set in 0..2 {
            let mut children = Vec::new();
            for i in 0..runs {
                let seed = 1_000 + i as u64;
                eprintln!(
                    "# {} set {} run {}/{runs} (seed {seed})",
                    w.name(),
                    set + 1,
                    i + 1
                );
                match child(w, seed, seconds, false, Size::Full) {
                    Ok(c) if c.correct => children.push(c),
                    Ok(_) => {
                        eprintln!("FAILED: {} seed {seed} is incorrect", w.name());
                        failures += 1;
                    }
                    Err(e) => {
                        eprintln!("FAILED: {e}");
                        failures += 1;
                    }
                }
            }
            sets.push(children);
        }
        if sets.iter().any(|s| s.len() != runs) {
            continue;
        }
        // Same seeds, same code: every simulated statistic must repeat.
        let same = sets[0]
            .iter()
            .zip(&sets[1])
            .all(|(a, b)| a.digest == b.digest);
        if !same {
            eprintln!("FAILED: {} digests differ between the two sets", w.name());
            failures += 1;
        }
        println!("\n== {} ==", w.name());
        let mut rows = Vec::new();
        for (name, bound) in &bounds {
            let column = |set: &[ChildRun]| -> Vec<f64> {
                set.iter()
                    .filter_map(|c| c.metrics.iter().find(|m| &m.0 == name).map(|m| m.1))
                    .collect()
            };
            let (a, b) = (column(&sets[0]), column(&sets[1]));
            if a.len() != runs || b.len() != runs {
                eprintln!("FAILED: {} runs lack metric {name}", w.name());
                failures += 1;
                continue;
            }
            let (sa, sb) = (spread(&a), spread(&b));
            // Every end-to-end metric is lower-is-better.
            let drift = median(&b) / median(&a) - 1.0;
            let steady = name == "setup_s" || sa.max(sb) <= *bound;
            let ok = steady && drift <= *bound;
            if !ok {
                failures += 1;
            }
            println!(
                "{name}: medians {:.4} / {:.4} (drift {:+.1}%), spread {:.1}% / {:.1}%, bound {:.0}% \
                 => {}{}",
                median(&a),
                median(&b),
                drift * 100.0,
                sa * 100.0,
                sb * 100.0,
                bound * 100.0,
                if ok { "ok" } else { "FAILED" },
                if sa.max(sb) > bound / 3.0 && name != "setup_s" {
                    " (spread above a third of the bound)"
                } else {
                    ""
                }
            );
            rows.push((
                name.clone(),
                Json::obj([
                    ("bound", Json::Num(*bound)),
                    ("median_first", Json::Num(median(&a))),
                    ("median_second", Json::Num(median(&b))),
                    ("drift", Json::Num(drift)),
                    ("spread_first", Json::Num(sa)),
                    ("spread_second", Json::Num(sb)),
                    ("ok", Json::Bool(ok)),
                ]),
            ));
        }
        report.push((w.name(), Json::obj(rows)));
    }
    write_out(
        &only.map_or("selfcheck.json".to_owned(), |w| {
            format!("selfcheck-{}.json", w.name())
        }),
        &Json::obj([
            ("runs_per_set", Json::Num(runs as f64)),
            ("run_seconds", Json::Num(seconds)),
            ("nproc", Json::Num(nproc() as f64)),
            ("workloads", Json::obj(report)),
        ]),
    );
    if failures > 0 {
        eprintln!("selfcheck FAILED: {failures} problem(s)");
        return 1;
    }
    println!("selfcheck passed");
    0
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Per workload × end-to-end metric: before, after, change, against the
/// bound; then the per-layer times that changed most. The table later
/// PRs paste.
pub fn diff(before: &str, after: &str) -> i32 {
    let (a, b) = match (load(before), load(after)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    // Bounds are optional here: result files can be compared anywhere.
    let bounds = benchmark_contract().map(|c| c.0).unwrap_or_default();
    let mut regressions = 0;
    for w in Workload::ALL {
        let side = |doc: &'_ Json| {
            doc.get("workloads")
                .and_then(|ws| ws.get(w.name()))
                .cloned()
        };
        let (Some(wa), Some(wb)) = (side(&a), side(&b)) else {
            println!("\n== {}: missing from one file ==", w.name());
            continue;
        };
        let digest = |d: &Json| {
            d.get("digest")
                .and_then(Json::as_str)
                .unwrap_or("?")
                .to_owned()
        };
        let (da, db) = (digest(&wa), digest(&wb));
        println!(
            "\n== {} (digest {}) ==",
            w.name(),
            if da == db {
                format!("{da} unchanged")
            } else {
                format!("CHANGED {da} -> {db}: simulated statistics differ")
            }
        );
        for (name, unit, _) in END_TO_END {
            let med = |d: &Json| {
                d.get("end_to_end")
                    .and_then(|e| e.get(name))
                    .and_then(|m| m.get("median"))
                    .and_then(Json::as_f64)
            };
            let (Some(ma), Some(mb)) = (med(&wa), med(&wb)) else {
                continue;
            };
            let change = mb / ma - 1.0;
            let bound = bounds.iter().find(|(n, _)| n == name).map(|(_, b)| *b);
            let verdict = match bound {
                Some(bd) if change > bd => {
                    regressions += 1;
                    "REGRESSED beyond bound"
                }
                Some(_) => "within bound",
                None => "",
            };
            println!(
                "{name}: {ma:.4} -> {mb:.4} {unit} ({:+.1}%{}) {verdict}",
                change * 100.0,
                bound.map_or(String::new(), |b| format!(", bound {:.0}%", b * 100.0)),
            );
        }
        let layer = |d: &Json, name: &str| {
            d.get("per_layer")
                .and_then(|p| p.get(name))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64)
        };
        let mut moved: Vec<(String, f64, f64)> = wa
            .get("per_layer")
            .and_then(Json::as_obj)
            .unwrap_or(&[])
            .iter()
            .filter(|(name, _)| name.ends_with("_s"))
            .filter_map(|(name, _)| Some((name.clone(), layer(&wa, name)?, layer(&wb, name)?)))
            .collect();
        moved.sort_by(|x, y| (y.2 - y.1).abs().total_cmp(&(x.2 - x.1).abs()));
        println!("layer times that changed most (traced run):");
        for (name, va, vb) in moved.iter().take(6) {
            println!("  {name}: {va:.4} -> {vb:.4} s ({:+.4} s)", vb - va);
        }
    }
    i32::from(regressions > 0)
}
