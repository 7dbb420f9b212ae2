//! The traced run: where the time goes, layer by layer.
//!
//! One setup with a span per pipeline phase, then — for the run's
//! measuring time — repetitions of three direct legs over the same
//! inputs: an untraced sequential leg (the overhead baseline), a traced
//! sequential leg and a traced 2-partition parallel leg. Times reported
//! are means over the repetitions; counts are the (identical) count of
//! each. Workloads with a session plan add the session legs that put
//! the snapshot layer on the path, and every workload adds three
//! single-layer micro-measurements.
//!
//! Self time = a span minus the child spans it covers: executor wall
//! minus handler time is the engine's; handler time minus callback and
//! resolver time is netsim's; callback time minus the resolver time
//! nested in it is the workload's. They add up to the leg's wall time.

use crate::legs::{self, Leg, PARTITIONS};
use crate::metrics::{Values, PER_LAYER};
use crate::run::{finish, proc_status_mb, setup, Gate, Prepared, RunOptions, RunOutput};
use crate::trace::{write_chrome_trace, Class, Phases, ResolveTotals, ARRIVE_PERIOD, CLASSES};
use crate::workload::{Inputs, SessionPlan};
use massf_core::{
    build_weighted_graph, load_imbalance, ClusterModel, EdgeWeighting, VertexWeighting,
};
use massf_engine::{run_sequential, Emitter, LpId, Model, SimTime, SyncCostModel};
use massf_netsim::{AppLogic, ProfileData};
use massf_partition::{metis_kway, KwayConfig};
use massf_routing::PathResolver;
use massf_topology::Network;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

fn mean_of(legs: &[Leg], f: impl Fn(&Leg) -> f64) -> f64 {
    mean(&legs.iter().map(f).collect::<Vec<_>>())
}

/// A no-op ring: every event schedules one successor on the next LP.
/// Its cost per event is the engine's queue + dispatch cost alone.
struct NullRing {
    lps: u32,
}

impl Model for NullRing {
    type Event = ();
    fn handle(&mut self, target: LpId, _: SimTime, (): (), out: &mut Emitter<'_, ()>) {
        out.emit(SimTime::from_ms(1), LpId((target.0 + 1) % self.lps), ());
    }
}

fn null_event_ns() -> f64 {
    const LPS: u32 = 6_000;
    // One event in flight per LP, 100 rounds: 600 k events.
    let initial = (0..LPS).map(|i| (SimTime::ZERO, LpId(i), ())).collect();
    let t0 = Instant::now();
    let stats = run_sequential(
        &mut NullRing { lps: LPS },
        LPS as usize,
        initial,
        SimTime::from_ms(100),
    );
    t0.elapsed().as_nanos() as f64 / stats.total_events as f64
}

/// Mean lookup cost over 2 000 seeded host pairs on a fresh resolver
/// (cold: shortest-path trees get built), then over the same pairs
/// again (warm).
fn resolve_cold_warm_us(resolver: &dyn PathResolver, net: &Network, seed: u64) -> (f64, f64) {
    let hosts = net.host_ids();
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x9E50);
    let pairs: Vec<_> = (0..2_000)
        .map(|_| {
            let s = rng.gen_range(0..hosts.len());
            let d = (s + rng.gen_range(1..hosts.len())) % hosts.len();
            (hosts[s], hosts[d])
        })
        .collect();
    let pass = || {
        let t0 = Instant::now();
        for &(s, d) in &pairs {
            std::hint::black_box(resolver.route_arc(s, d));
        }
        t0.elapsed().as_secs_f64() * 1e6 / pairs.len() as f64
    };
    (pass(), pass())
}

/// Single-layer measurements outside the pipeline.
fn micro_metrics<A: AppLogic + Clone>(
    m: &mut Values,
    phases: &mut Phases,
    inputs: &Inputs<A>,
    profile: &ProfileData,
    seed: u64,
) {
    m.set(
        "engine.null_event_ns",
        phases.time("engine.null_ring", null_event_ns),
    );
    let shared = inputs.fresh_builder(phases, None).shared();
    let (cold, warm) = phases.time("routing.resolve_probe", || {
        resolve_cold_warm_us(shared.resolver.as_ref(), &inputs.net, seed)
    });
    m.set("routing.resolve_cold_us", cold);
    m.set("routing.resolve_warm_us", warm);
    // The partitioner alone, on the graph the PROF mappers hand it.
    let graph = build_weighted_graph(
        &inputs.net,
        VertexWeighting::Profile,
        EdgeWeighting::Standard,
        Some(profile),
    );
    let t = Instant::now();
    let partition = metis_kway(&graph, PARTITIONS, &KwayConfig::default());
    m.set("partition.kway_s", t.elapsed().as_secs_f64());
    phases.push("partition.kway", t);
    m.set("partition.edge_cut", partition.edge_cut(&graph) as f64);
}

/// The session legs of a workload with a session plan: the snapshot
/// layer's codec, I/O and rebalance driver, each timed from outside.
fn session_metrics<A: AppLogic + Clone>(
    m: &mut Values,
    gate: &mut Gate,
    phases: &mut Phases,
    inputs: &Inputs<A>,
    plan: &SessionPlan,
    assignment: &[u32],
    snapshot_path: &Path,
) {
    let end = inputs.horizon;
    let b = inputs.fresh_builder(phases, None);
    let t = Instant::now();
    let leg = legs::session_seq_leg(&b, end, plan.segment, snapshot_path);
    phases.push("snapshot.session_seq", t);
    if let Some(leg) = gate.leg("segmented session leg", leg) {
        let s = leg.snapshots;
        m.set("snapshot.checkpoints", s.checkpoints as f64);
        m.set("snapshot.bytes", s.bytes as f64);
        m.set("snapshot.save_s", s.save_s);
        m.set("snapshot.load_s", s.load_s);
        m.set("snapshot.segment_run_s", s.run_s);
    }

    let b = inputs.fresh_builder(phases, None);
    match phases.time("snapshot.encode", || legs::session_encode_s(&b, end / 2)) {
        Ok(s) => m.set("snapshot.encode_s", s),
        Err(e) => gate.check(false, || format!("session encode: {e}")),
    }

    let b = inputs.fresh_builder(phases, None);
    let t = Instant::now();
    let leg = legs::session_rebalancing_leg(&b, end, plan.policy, assignment);
    phases.push("snapshot.session_rebalancing", t);
    let rebalancing = gate.leg("rebalancing session leg", leg);

    let b = inputs.fresh_builder(phases, None);
    let t = Instant::now();
    let leg = legs::session_parallel_leg(&b, end, assignment);
    phases.push("snapshot.session_parallel", t);
    let plain = gate.leg("parallel session leg", leg);

    if let (Some(r), Some(p)) = (rebalancing, plain) {
        let o = r
            .rebalance
            .as_ref()
            .expect("rebalancing legs carry an outcome");
        m.set("snapshot.rebalance_epochs", o.epochs as f64);
        m.set("snapshot.rebalances", o.rebalances as f64);
        m.set("snapshot.migrations", o.migrations as f64);
        // Epoch segmentation, load folding and migration, over a plain
        // parallel session run of the same starting assignment.
        m.set("snapshot.rebalance_overhead_s", r.wall_s - p.wall_s);
    }
}

/// The repeated direct legs and what the resolver wrapper saw during
/// the traced sequential ones.
#[derive(Default)]
struct DirectLegs {
    plain_seq: Vec<Leg>,
    seq: Vec<Leg>,
    par: Vec<Leg>,
    seq_resolve_calls: u64,
    seq_resolve_ns: u64,
    /// `(epochs, reconvergences)` of the last traced sequential leg.
    faults: Option<(usize, usize)>,
}

fn direct_legs<A: AppLogic + Clone>(
    gate: &mut Gate,
    phases: &mut Phases,
    inputs: &Inputs<A>,
    assignment: &[u32],
    origin: Instant,
    until: Duration,
) -> DirectLegs {
    let end = inputs.horizon;
    let resolve = Arc::new(ResolveTotals::default());
    let read = |r: &ResolveTotals| {
        (
            r.calls.load(Ordering::Relaxed),
            r.ns.load(Ordering::Relaxed),
        )
    };
    let mut d = DirectLegs::default();
    loop {
        let b = inputs.fresh_builder(phases, None);
        let leg = phases.time("engine.seq_untraced", || legs::seq_leg(inputs, &b, end));
        d.plain_seq
            .extend(gate.leg("untraced sequential leg", Ok(leg)));

        let b = inputs.fresh_builder(phases, Some(&resolve));
        let before = read(&resolve);
        let leg = phases.time("engine.seq_traced", || {
            legs::seq_leg_traced(inputs, &b, end, origin, ARRIVE_PERIOD)
        });
        let after = read(&resolve);
        d.seq_resolve_calls += after.0 - before.0;
        d.seq_resolve_ns += after.1 - before.1;
        d.faults = b
            .shared()
            .faults
            .as_ref()
            .map(|f| (f.epoch_count(), f.reconvergence_count()));
        d.seq.extend(gate.leg("traced sequential leg", Ok(leg)));

        let b = inputs.fresh_builder(phases, Some(&resolve));
        let leg = phases.time("engine.par_traced", || {
            legs::par_leg_traced(inputs, &b, assignment, end, origin)
        });
        d.par.extend(gate.leg("traced parallel leg", leg));
        if origin.elapsed() >= until {
            return d;
        }
    }
}

fn class_busy(legs: &[Leg], class: Class) -> f64 {
    mean_of(legs, |l| {
        l.trace
            .as_ref()
            .map_or(0.0, |t| t.handlers.class(class).busy_s())
    })
}

/// Metrics of the traced sequential legs: handler classes, callbacks,
/// resolver, and the self-time split.
fn seq_metrics(m: &mut Values, d: &DirectLegs) {
    // Nothing to report when a leg failed (the gate has recorded why).
    let Some(first) = d.seq.first().filter(|_| !d.plain_seq.is_empty()) else {
        return;
    };
    let reps = d.seq.len() as f64;
    let seq_wall = mean_of(&d.seq, |l| l.wall_s);
    let plain_wall = mean_of(&d.plain_seq, |l| l.wall_s);
    let events = first.total_events as f64;
    m.set("engine.events_total", events);
    m.set("engine.seq_events_per_s", events / plain_wall);
    m.set("trace_overhead_pct", (seq_wall / plain_wall - 1.0) * 100.0);

    let trace = first.trace.as_ref().expect("traced legs carry a trace");
    for (class, events_name, busy_name) in [
        (
            Class::Arrive,
            "netsim.arrive_events",
            "netsim.arrive_busy_s",
        ),
        (Class::Rto, "netsim.rto_events", "netsim.rto_busy_s"),
        (
            Class::StartFlow,
            "netsim.start_flow_events",
            "netsim.start_flow_busy_s",
        ),
        (
            Class::AppTimer,
            "netsim.app_timer_events",
            "netsim.app_timer_busy_s",
        ),
        (Class::Fluid, "netsim.fluid_events", "netsim.fluid_busy_s"),
    ] {
        m.set(events_name, trace.handlers.class(class).events as f64);
        m.set(busy_name, class_busy(&d.seq, class));
    }
    let app = |f: fn(&crate::trace::AppTotals) -> u64| {
        mean_of(&d.seq, |l| {
            l.trace.as_ref().map_or(0.0, |t| f(&t.app) as f64 * 1e-9)
        })
    };
    let handlers: f64 = CLASSES.iter().map(|&c| class_busy(&d.seq, c)).sum();
    let reconverge = class_busy(&d.seq, Class::Fault);
    let callbacks = app(|a| a.ns);
    let nested = app(|a| a.nested_resolve_ns);
    let resolve_busy = d.seq_resolve_ns as f64 * 1e-9 / reps;
    m.set("faults.reconverge_busy_s", reconverge);
    m.set("workloads.callbacks", trace.app.calls as f64);
    m.set("workloads.callback_busy_s", callbacks);
    m.set("routing.resolve_calls", d.seq_resolve_calls as f64 / reps);
    m.set("routing.resolve_busy_s", resolve_busy);
    let engine_self = seq_wall - handlers;
    let workloads_self = callbacks - nested;
    let netsim_self = handlers - reconverge - callbacks - (resolve_busy - nested);
    m.set("engine.seq_self_s", engine_self);
    m.set("workloads.seq_self_s", workloads_self);
    m.set("netsim.seq_self_s", netsim_self);
    println!(
        "# self times of the traced sequential leg ({seq_wall:.4} s wall): \
         engine {engine_self:.4} + netsim {netsim_self:.4} + routing {resolve_busy:.4} + \
         workloads {workloads_self:.4} + faults {reconverge:.4} = {:.4} s",
        engine_self + netsim_self + resolve_busy + workloads_self + reconverge
    );

    if let Some((epochs, reconvergences)) = d.faults {
        m.set("faults.epochs", epochs as f64);
        m.set("faults.reconvergences", reconvergences as f64);
    }
    let p = &first.profile;
    for (name, value) in [
        ("faults.fault_drops", p.fault_drops),
        ("routing.cache_hits", p.route_cache.hits),
        ("routing.cache_misses", p.route_cache.misses),
        ("routing.cache_evictions", p.route_cache.evictions),
        ("netsim.fluid_rate_recomputes", p.fluid.rate_recomputes),
        (
            "netsim.fluid_bottleneck_recomputes",
            p.fluid.bottleneck_recomputes,
        ),
        ("netsim.fluid_finish_arms", p.fluid.finish_arms),
        ("netsim.fluid_cap_updates", p.fluid.cap_updates),
        (
            "netsim.fluid_packet_load_updates",
            p.fluid.packet_load_updates,
        ),
        ("netsim.completed_flows", p.completed_flows),
        ("netsim.completed_segments", p.completed_segments),
        ("netsim.drops", p.drops),
        ("netsim.aborted_flows", p.aborted_flows),
    ] {
        m.set(name, value as f64);
    }
}

/// Metrics of the traced parallel legs. Each thread's wall time is its
/// handlers plus its barrier waits plus exchange and queue work — the
/// engine's self time.
fn par_metrics(m: &mut Values, d: &DirectLegs) {
    let Some(first) = d.par.first().filter(|_| !d.plain_seq.is_empty()) else {
        return;
    };
    let stats = first
        .stats
        .as_ref()
        .expect("direct legs carry engine stats");
    let threads = PARTITIONS as f64;
    let par_wall = mean_of(&d.par, |l| l.wall_s);
    let plain_wall = mean_of(&d.plain_seq, |l| l.wall_s);
    let events = first.total_events as f64;
    let traced =
        |f: fn(&legs::LegTrace) -> f64| mean_of(&d.par, |l| l.trace.as_ref().map_or(0.0, f));
    let handlers = traced(|t| t.handlers.busy_s());
    let barrier_wait = traced(|t| t.barrier_wait_s);
    m.set("engine.par_events_per_s", events / par_wall);
    m.set(
        "engine.par_speedup",
        mean_of(&d.seq, |l| l.wall_s) / par_wall,
    );
    m.set("engine.barrier_wait_s", barrier_wait / threads);
    m.set(
        "engine.par_self_s",
        par_wall - (handlers + barrier_wait) / threads,
    );
    m.set("engine.barrier_rounds", stats.barrier_rounds as f64);
    m.set("engine.windows_executed", stats.windows_executed as f64);
    m.set("engine.windows_skipped", stats.windows_skipped as f64);
    m.set(
        "engine.critical_path_events",
        stats.critical_path_events() as f64,
    );
    m.set(
        "engine.imbalance_permille",
        stats.imbalance_permille() as f64,
    );
    m.set(
        "core.load_imbalance",
        load_imbalance(&stats.partition_event_rates()),
    );
    // The cluster model's prediction for this run, calibrated with this
    // host's per-event and per-barrier cost, to read beside the
    // measured parallel wall time: the loop of the paper's Fig 5/6.
    let barrier_us = massf_bench::measure_barrier_cost_us(PARTITIONS, 2_000);
    let model = ClusterModel::new(
        SyncCostModel::new(barrier_us, 0.0),
        plain_wall * 1e6 / events,
    );
    m.set(
        "core.model_par_s",
        model.predicted_time_secs(stats, PARTITIONS),
    );
}

/// Pipeline-phase metrics from the recorded spans (means where a phase
/// ran once per leg).
fn phase_metrics(m: &mut Values, phases: &Phases, net: &Network) {
    let phase = |name: &str| mean(&phases.secs(name));
    let routing_build = phase("routing.build_s");
    let generate = phases.secs("topology.generate_s");
    m.set(
        "topology.generate_s",
        if generate.is_empty() {
            // Scenario::build generates the topology and the first
            // resolver in one call.
            (phase("core.scenario_build_s") - routing_build).max(0.0)
        } else {
            mean(&generate)
        },
    );
    m.set("topology.nodes", net.node_count() as f64);
    m.set("topology.links", net.link_count() as f64);
    m.set("routing.build_s", routing_build);
    for name in [
        "faults.compile_s",
        "workloads.make_app_s",
        "netsim.world_build_s",
        "core.profiling_s",
        "core.map_hprof_s",
    ] {
        m.set(name, phase(name));
    }
}

pub fn traced_run<A: AppLogic + Clone>(
    opts: &RunOptions,
    make: impl Fn(&mut Phases) -> Inputs<A>,
) -> RunOutput {
    let origin = Instant::now();
    let mut gate = Gate::default();
    let mut m = Values::new(PER_LAYER);
    let snap = opts.snapshot_path();

    let Prepared {
        inputs,
        profiling,
        mapping,
        mut phases,
        ..
    } = setup(&make, origin);
    m.set("netsim.rss_after_setup_mb", proc_status_mb("VmRSS"));
    m.set("core.achieved_mll_ms", mapping.achieved_mll_ms);
    m.set("core.model_efficiency", mapping.evaluation.e);
    m.set("workloads.initial_events", inputs.traffic.len() as f64);
    m.set("parutil.threads", massf_parutil::current_threads() as f64);
    let assignment = &mapping.partition.assignment;

    // The one-off measurements first, the repeated legs for the rest of
    // the measuring time.
    if let Some(plan) = &inputs.session {
        session_metrics(
            &mut m,
            &mut gate,
            &mut phases,
            &inputs,
            plan,
            assignment,
            &snap,
        );
    }
    micro_metrics(&mut m, &mut phases, &inputs, &profiling.profile, opts.seed);
    let mut d = direct_legs(
        &mut gate,
        &mut phases,
        &inputs,
        assignment,
        origin,
        Duration::from_secs_f64(opts.seconds),
    );
    seq_metrics(&mut m, &d);
    par_metrics(&mut m, &d);
    phase_metrics(&mut m, &phases, &inputs.net);

    let mut spans = std::mem::take(&mut phases.spans);
    for leg in d.seq.iter_mut().chain(d.par.iter_mut()) {
        if let Some(t) = leg.trace.as_mut() {
            spans.append(&mut t.spans);
        }
    }
    let path = opts
        .out_dir
        .join(format!("trace-{}.json", opts.workload.name()));
    match write_chrome_trace(&path, &spans) {
        Ok(()) => println!("# {} spans written to {}", spans.len(), path.display()),
        Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
    }
    println!(
        "# {} seed {}: {} traced repetitions, digest {:016x}",
        opts.workload.name(),
        opts.seed,
        d.seq.len(),
        gate.reference.unwrap_or(0),
    );
    finish(gate, d.plain_seq.first(), m)
}
