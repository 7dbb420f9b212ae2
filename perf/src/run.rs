//! One benchmark run: build the inputs from the seed, execute the
//! paper's pipeline (scenario → profiling run → HPROF map onto 2
//! engines → sequential measured run → 2-partition parallel measured
//! run), check the outputs, report the metrics.
//!
//! An untraced run reports the end-to-end metrics; a traced run wraps
//! the trait seams with the timers of [`crate::trace`] and reports the
//! per-layer metrics. The two never mix: end-to-end numbers always come
//! from uninstrumented executors.

use crate::legs::{self, Leg, PARTITIONS};
use crate::metrics::{Values, END_TO_END};
use crate::stats::{median, quartiles};
use crate::trace::Phases;
use crate::workload::{flap_inputs, fluid_inputs, scenario_inputs, Inputs, Size, Workload};
use massf_core::{map_network, MappingApproach, MappingConfig, MappingResult, ScenarioKind};
use massf_engine::MassfError;
use massf_netsim::{AppLogic, ProfileData};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Where the command line puts scratch, trace and result files: inside
/// the checkout (relative to its root, where the benchmark command
/// runs), git-ignored.
pub const OUT_DIR: &str = "perf/out";

pub struct RunOptions {
    pub workload: Workload,
    pub seed: u64,
    /// How long the measured legs repeat for.
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
    /// Directory for the session checkpoint scratch file and the
    /// Chrome trace.
    pub out_dir: PathBuf,
}

/// What one run reports: the driver's result object plus the digest
/// that must be equal across runs of one `(workload, seed)`.
pub struct RunOutput {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub digest: u64,
    pub metrics: Values,
    /// Why `correct` is false, one line per violation.
    pub violations: Vec<String>,
}

pub fn run(opts: &RunOptions) -> RunOutput {
    let (size, seed) = (opts.size, opts.seed);
    match opts.workload {
        Workload::FlatPacket => run_with(opts, |p| {
            scenario_inputs(ScenarioKind::SingleAs, size, seed, p)
        }),
        Workload::MultiasPacket => run_with(opts, |p| {
            scenario_inputs(ScenarioKind::MultiAs, size, seed, p)
        }),
        Workload::FlapSession => run_with(opts, |p| flap_inputs(size, seed, p)),
        Workload::FluidBackground => run_with(opts, |p| fluid_inputs(size, seed, p)),
    }
}

fn run_with<A: AppLogic + Clone>(
    opts: &RunOptions,
    make: impl Fn(&mut Phases) -> Inputs<A>,
) -> RunOutput {
    if opts.trace {
        crate::layers::traced_run(opts, make)
    } else {
        untraced_run(opts, make)
    }
}

/// The pipeline up to the mapping: what `setup_s` times.
pub(crate) struct Prepared<A> {
    pub inputs: Inputs<A>,
    pub profiling: Leg,
    pub mapping: MappingResult,
    pub phases: Phases,
    pub setup_s: f64,
}

pub(crate) fn setup<A: AppLogic + Clone>(
    make: &impl Fn(&mut Phases) -> Inputs<A>,
    origin: Instant,
) -> Prepared<A> {
    let t0 = Instant::now();
    let mut phases = Phases::new(origin);
    let inputs = make(&mut phases);
    let builder = inputs.fresh_builder(&mut phases, None);
    // The paper's profiling step: a quarter of the measured horizon.
    let profiling = phases.time("core.profiling_s", || {
        legs::seq_leg(&inputs, &builder, inputs.horizon / 4)
    });
    let mapping = phases.time("core.map_hprof_s", || {
        map_network(
            &inputs.net,
            Some(&profiling.profile),
            MappingApproach::Hprof,
            &MappingConfig::new(PARTITIONS),
        )
    });
    phases.push("setup", t0);
    Prepared {
        inputs,
        profiling,
        mapping,
        phases,
        setup_s: t0.elapsed().as_secs_f64(),
    }
}

/// Collects correctness violations; a run is correct when none occur.
#[derive(Default)]
pub(crate) struct Gate {
    pub reference: Option<u64>,
    violations: Vec<String>,
}

impl Gate {
    /// Every leg of a run must produce the same simulated statistics.
    pub fn leg(&mut self, what: &str, leg: Result<Leg, MassfError>) -> Option<Leg> {
        match leg {
            Ok(leg) => {
                let reference = *self.reference.get_or_insert(leg.digest);
                if leg.digest != reference {
                    self.violations.push(format!(
                        "{what}: digest {:016x} differs from the run's first leg {reference:016x}",
                        leg.digest
                    ));
                }
                Some(leg)
            }
            Err(e) => {
                self.violations
                    .push(format!("{what}: executor failed: {e}"));
                None
            }
        }
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }
}

/// Operations are flows that reached an outcome by the horizon (packet
/// and fluid); the failed ones aborted or had no route. Flows still in
/// flight at the horizon have no outcome and are not counted.
fn operations(p: &ProfileData) -> (u64, u64) {
    let failed = p.aborted_flows + p.unroutable + p.fluid.aborted + p.fluid.unroutable;
    (p.completed_flows + p.fluid.completed + failed, failed)
}

pub(crate) fn finish(gate: Gate, first_seq: Option<&Leg>, metrics: Values) -> RunOutput {
    let correct = gate.violations.is_empty();
    let (attempted, failed) = first_seq.map_or((1, 1), |l| operations(&l.profile));
    RunOutput {
        correct,
        attempted: attempted.max(1),
        // A run that fails its checks delivered nothing trustworthy.
        failed: if correct { failed } else { attempted.max(1) },
        digest: gate.reference.unwrap_or(0),
        metrics,
        violations: gate.violations,
    }
}

impl RunOptions {
    /// Create the output directory and name the session scratch file in
    /// it. The name is per process and workload: concurrent runs (and
    /// parallel tests) do not collide.
    pub(crate) fn snapshot_path(&self) -> PathBuf {
        if let Err(e) = std::fs::create_dir_all(&self.out_dir) {
            eprintln!("warning: cannot create {}: {e}", self.out_dir.display());
        }
        self.out_dir.join(format!(
            "session-{}-{}.snap",
            self.workload.name(),
            std::process::id()
        ))
    }
}

/// A value of `/proc/self/status` in MiB (`VmHWM`: peak resident set,
/// `VmRSS`: current). Zero where the file does not exist.
pub(crate) fn proc_status_mb(key: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(key)?.strip_prefix(':').map(str::to_owned))
        })
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn assignment_digest(m: &MappingResult) -> u64 {
    let bytes: Vec<u8> = m
        .partition
        .assignment
        .iter()
        .flat_map(|p| p.to_le_bytes())
        .collect();
    massf_snapshot::wire::fnv1a64(&bytes)
}

fn untraced_run<A: AppLogic + Clone>(
    opts: &RunOptions,
    make: impl Fn(&mut Phases) -> Inputs<A>,
) -> RunOutput {
    let origin = Instant::now();
    let mut gate = Gate::default();
    let snap = opts.snapshot_path();
    let mut scratch = Phases::new(origin);
    let (mut setups, mut seq_walls, mut par_walls) = (Vec::new(), Vec::new(), Vec::new());
    // Setup digests and sequential leg of the first execution.
    let mut first: Option<((u64, u64), Leg)> = None;
    let mut peak_rss_mb = None;
    let budget = Duration::from_secs_f64(opts.seconds);

    // Execute the whole pipeline again and again for the measuring
    // time: one execution is too short to time steadily on a shared
    // host, and every execution must simulate the same statistics.
    loop {
        let prepared = setup(&make, origin);
        setups.push(prepared.setup_s);
        let inputs = &prepared.inputs;
        let assignment = &prepared.mapping.partition.assignment;
        let setup_digests = (
            prepared.profiling.digest,
            assignment_digest(&prepared.mapping),
        );

        let b = inputs.fresh_builder(&mut scratch, None);
        let seq = gate.leg("sequential leg", legs::workload_seq_leg(inputs, &b, &snap));
        let b = inputs.fresh_builder(&mut scratch, None);
        let par = gate.leg(
            "parallel leg",
            legs::workload_par_leg(inputs, &b, assignment),
        );
        par_walls.extend(par.map(|l| l.wall_s));
        if let Some(seq) = seq {
            seq_walls.push(seq.wall_s);
            match &first {
                None => first = Some((setup_digests, seq)),
                Some((reference, _)) => gate.check(*reference == setup_digests, || {
                    "setups of one seed produced different profiles or mappings".into()
                }),
            }
        }
        // The peak of the first execution only: what running the
        // pipeline once in a fresh process costs. Repeating it is a
        // device for timing; the heap growth it causes (a few percent,
        // different in every process) is not the program's footprint.
        peak_rss_mb.get_or_insert_with(|| proc_status_mb("VmHWM"));
        if origin.elapsed() >= budget {
            break;
        }
    }

    let mut metrics = Values::new(END_TO_END);
    for (name, walls) in [
        ("setup_s", &setups),
        ("seq_wall_s", &seq_walls),
        ("par_wall_s", &par_walls),
    ] {
        if !walls.is_empty() {
            metrics.set(name, median(walls));
            let (q1, q3) = quartiles(walls);
            println!(
                "# {name}: median of {} pipeline executions (q1 {q1:.4}, q3 {q3:.4}, fastest {:.4})",
                walls.len(),
                walls.iter().copied().fold(f64::INFINITY, f64::min),
            );
        }
    }
    metrics.set("peak_rss_mb", peak_rss_mb.unwrap_or(0.0));
    println!(
        "# {} seed {}: {} pipeline executions, digest {:016x}",
        opts.workload.name(),
        opts.seed,
        setups.len(),
        gate.reference.unwrap_or(0),
    );
    finish(gate, first.as_ref().map(|f| &f.1), metrics)
}
