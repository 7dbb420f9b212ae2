//! The legs of one pipeline run: a sequential and a 2-partition
//! parallel execution of the same inputs to the same virtual horizon,
//! each over routing state built fresh for it.
//!
//! Every leg returns its executor wall time and a digest of the
//! simulated statistics; a speed-only change must leave every digest
//! unchanged.

use crate::trace::{AppTotals, HandlerTotals, Span, TimedApp, TimedModel};
use crate::workload::Inputs;
use massf_bench::MeasuredBarriers;
use massf_engine::{
    run_sequential, try_run_parallel_observed, BarrierObserver, ExecutionStats, MassfError, Model,
    NoopBarrierObserver, SimTime,
};
use massf_netsim::{
    AppLogic, NetEvent, NetSimBuilder, NetWorld, ProfileData, DEFAULT_ROUTE_CACHE_CAPACITY,
    MAX_RETRIES,
};
use massf_snapshot::{wire::fnv1a64, ExecMode, RebalanceOutcome, Session};
use std::path::Path;
use std::time::Instant;

/// Partitions (= threads) of every parallel leg. Two on every host, so
/// numbers compare across machines.
pub const PARTITIONS: usize = 2;

/// What the handler/callback/barrier wrappers saw during a traced leg.
#[derive(Default)]
pub struct LegTrace {
    pub handlers: HandlerTotals,
    pub app: AppTotals,
    /// Σ over partitions of measured barrier wait, seconds.
    pub barrier_wait_s: f64,
    pub spans: Vec<Span>,
}

/// Checkpoint activity of a segmented session leg.
#[derive(Debug, Clone, Copy, Default)]
pub struct SnapshotTotals {
    pub checkpoints: u64,
    pub bytes: u64,
    pub save_s: f64,
    pub load_s: f64,
    pub run_s: f64,
}

/// The outcome of one leg.
pub struct Leg {
    /// Executor wall time, first event to horizon, seconds.
    pub wall_s: f64,
    pub digest: u64,
    pub total_events: u64,
    pub profile: ProfileData,
    /// Engine statistics (direct legs only; sessions keep their own).
    pub stats: Option<ExecutionStats>,
    pub trace: Option<LegTrace>,
    pub snapshots: SnapshotTotals,
    pub rebalance: Option<RebalanceOutcome>,
}

/// FNV-64 over every simulated statistic a run produces: total and
/// per-LP event counts and the whole traffic profile.
pub fn digest(total_events: u64, lp_events: &[u64], p: &ProfileData) -> u64 {
    let f = &p.fluid;
    let scalars = [
        total_events,
        p.drops,
        p.completed_flows,
        p.completed_segments,
        p.unroutable,
        p.fault_drops,
        p.aborted_flows,
        p.fault_events,
        p.route_cache.hits,
        p.route_cache.misses,
        p.route_cache.evictions,
        f.started,
        f.completed,
        f.aborted,
        f.rerouted,
        f.unroutable,
        f.rate_recomputes,
        f.bottleneck_recomputes,
        f.finish_arms,
        f.cap_updates,
        f.packet_load_updates,
    ];
    let mut bytes = Vec::with_capacity(
        8 * (scalars.len() + lp_events.len() + p.node_packets.len() + p.link_packets.len()),
    );
    for v in scalars
        .iter()
        .chain(lp_events)
        .chain(&p.node_packets)
        .chain(&p.link_packets)
    {
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    fnv1a64(&bytes)
}

fn direct_leg(
    wall_s: f64,
    stats: ExecutionStats,
    profile: ProfileData,
    trace: Option<LegTrace>,
) -> Leg {
    Leg {
        wall_s,
        digest: digest(stats.total_events, &stats.lp_events, &profile),
        total_events: stats.total_events,
        profile,
        stats: Some(stats),
        trace,
        snapshots: SnapshotTotals::default(),
        rebalance: None,
    }
}

fn world<A: AppLogic>(b: &NetSimBuilder, app: A) -> NetWorld<A> {
    NetWorld::with_config(b.shared(), app, DEFAULT_ROUTE_CACHE_CAPACITY, MAX_RETRIES)
}

fn timed_seq<M: Model<Event = NetEvent>>(
    model: &mut M,
    b: &NetSimBuilder,
    end: SimTime,
) -> (ExecutionStats, f64) {
    let initial = b.initial_events();
    let t0 = Instant::now();
    let stats = run_sequential(model, b.shared().lp_count(), initial, end);
    (stats, t0.elapsed().as_secs_f64())
}

#[allow(clippy::type_complexity)] // (shards, stats, wall) is the natural result
fn timed_par<M: Model<Event = NetEvent>, O: BarrierObserver>(
    shards: Vec<M>,
    b: &NetSimBuilder,
    assignment: &[u32],
    end: SimTime,
    observer: &O,
) -> Result<(Vec<M>, ExecutionStats, f64), MassfError> {
    let initial = b.initial_events();
    let shared = b.shared();
    // The achieved MLL of the cut, capped at the fluid control delay.
    let window = shared.safe_parallel_window(assignment);
    let t0 = Instant::now();
    let (shards, stats) = try_run_parallel_observed(
        shards,
        shared.lp_count(),
        assignment,
        initial,
        end,
        window,
        observer,
    )?;
    Ok((shards, stats, t0.elapsed().as_secs_f64()))
}

/// Sequential executor over `b`'s world until `end`.
pub fn seq_leg<A: AppLogic + Clone>(inp: &Inputs<A>, b: &NetSimBuilder, end: SimTime) -> Leg {
    let mut w = world(b, inp.app.clone());
    let (stats, wall_s) = timed_seq(&mut w, b, end);
    direct_leg(wall_s, stats, w.into_parts().0, None)
}

/// [`seq_leg`] with handlers and callbacks timed (`arrive_period` as in
/// [`crate::trace::ARRIVE_PERIOD`]).
pub fn seq_leg_traced<A: AppLogic + Clone>(
    inp: &Inputs<A>,
    b: &NetSimBuilder,
    end: SimTime,
    origin: Instant,
    arrive_period: u64,
) -> Leg {
    let w = world(b, TimedApp::new(inp.app.clone()));
    let mut model = TimedModel::new(w, origin, 1, arrive_period);
    let (stats, wall_s) = timed_seq(&mut model, b, end);
    let mut trace = LegTrace {
        handlers: model.totals,
        spans: std::mem::take(&mut model.spans),
        ..LegTrace::default()
    };
    let (profile, app) = model.into_inner().into_parts();
    trace.app = app.totals;
    direct_leg(wall_s, stats, profile, Some(trace))
}

fn merged_profile(b: &NetSimBuilder, parts: impl Iterator<Item = ProfileData>) -> ProfileData {
    let net = &b.shared().net;
    let mut profile = ProfileData::new(net.node_count(), net.links.len());
    for p in parts {
        profile.merge(&p);
    }
    profile
}

/// The real 2-thread conservative executor under `assignment`.
pub fn par_leg<A: AppLogic + Clone>(
    inp: &Inputs<A>,
    b: &NetSimBuilder,
    assignment: &[u32],
    end: SimTime,
) -> Result<Leg, MassfError> {
    let shards = (0..PARTITIONS).map(|_| world(b, inp.app.clone())).collect();
    let (shards, stats, wall_s) = timed_par(shards, b, assignment, end, &NoopBarrierObserver)?;
    let profile = merged_profile(b, shards.into_iter().map(|w| w.into_parts().0));
    Ok(direct_leg(wall_s, stats, profile, None))
}

/// [`par_leg`] with handlers, callbacks and barrier waits timed.
pub fn par_leg_traced<A: AppLogic + Clone>(
    inp: &Inputs<A>,
    b: &NetSimBuilder,
    assignment: &[u32],
    end: SimTime,
    origin: Instant,
) -> Result<Leg, MassfError> {
    let shards = (0..PARTITIONS)
        .map(|p| {
            let w = world(b, TimedApp::new(inp.app.clone()));
            TimedModel::new(w, origin, 1 + p as u32, crate::trace::ARRIVE_PERIOD)
        })
        .collect();
    let observer = MeasuredBarriers::new(PARTITIONS);
    let (shards, stats, wall_s) = timed_par(shards, b, assignment, end, &observer)?;
    let mut trace = LegTrace {
        barrier_wait_s: stats.total_barrier_wait_us() * 1e-6,
        ..LegTrace::default()
    };
    let mut profiles = Vec::with_capacity(PARTITIONS);
    for mut model in shards {
        trace.handlers.merge(&model.totals);
        trace.spans.append(&mut model.spans);
        let (profile, app) = model.into_inner().into_parts();
        trace.app.merge(&app.totals);
        profiles.push(profile);
    }
    let profile = merged_profile(b, profiles.into_iter());
    Ok(direct_leg(wall_s, stats, profile, Some(trace)))
}

fn session_leg(wall_s: f64, s: &Session) -> Leg {
    Leg {
        wall_s,
        digest: digest(s.total_events(), s.lp_events(), s.profile()),
        total_events: s.total_events(),
        profile: s.profile().clone(),
        stats: None,
        trace: None,
        snapshots: SnapshotTotals::default(),
        rebalance: None,
    }
}

fn session(b: &NetSimBuilder) -> Session {
    Session::new(
        b.shared(),
        b.initial_events(),
        DEFAULT_ROUTE_CACHE_CAPACITY,
        MAX_RETRIES,
    )
}

/// The sequential executor driven through the resumable API: run a
/// segment, save the checkpoint atomically, load it back, continue.
/// The leg's wall time includes the checkpoint I/O.
pub fn session_seq_leg(
    b: &NetSimBuilder,
    end: SimTime,
    segment: SimTime,
    snapshot_path: &Path,
) -> Result<Leg, MassfError> {
    let mut s = session(b);
    let fingerprint = s.fingerprint();
    let mut snap = SnapshotTotals::default();
    let t0 = Instant::now();
    while s.now() < end {
        let t = Instant::now();
        s.run_until((s.now() + segment).min(end), &ExecMode::Sequential)?;
        snap.run_s += t.elapsed().as_secs_f64();
        if s.now() < end {
            let t = Instant::now();
            s.save(snapshot_path)?;
            snap.save_s += t.elapsed().as_secs_f64();
            let t = Instant::now();
            s = Session::load(snapshot_path, b.shared(), fingerprint)?;
            snap.load_s += t.elapsed().as_secs_f64();
            snap.checkpoints += 1;
        }
    }
    let wall_s = t0.elapsed().as_secs_f64();
    snap.bytes = std::fs::metadata(snapshot_path).map_or(0, |m| m.len());
    // Best effort: a leftover scratch file is harmless and overwritten
    // by the next leg.
    let _ = std::fs::remove_file(snapshot_path);
    Ok(Leg {
        snapshots: snap,
        ..session_leg(wall_s, &s)
    })
}

/// Seconds to serialise a mid-run session into snapshot bytes (codec
/// only, no I/O).
pub fn session_encode_s(b: &NetSimBuilder, at: SimTime) -> Result<f64, MassfError> {
    let mut s = session(b);
    s.run_until(at, &ExecMode::Sequential)?;
    let t0 = Instant::now();
    std::hint::black_box(s.encode());
    Ok(t0.elapsed().as_secs_f64())
}

/// The parallel executor driven through the online-rebalancing session.
pub fn session_rebalancing_leg(
    b: &NetSimBuilder,
    end: SimTime,
    policy: massf_snapshot::RebalancePolicy,
    assignment: &[u32],
) -> Result<Leg, MassfError> {
    let mut s = Session::new_rebalancing(
        b.shared(),
        b.initial_events(),
        DEFAULT_ROUTE_CACHE_CAPACITY,
        MAX_RETRIES,
        policy,
        assignment.to_vec(),
    )?;
    let t0 = Instant::now();
    let outcome = s.run_rebalancing(end)?;
    let wall_s = t0.elapsed().as_secs_f64();
    Ok(Leg {
        rebalance: Some(outcome),
        ..session_leg(wall_s, &s)
    })
}

/// A plain parallel session run of a fixed assignment: the baseline
/// the rebalancing leg's overhead is measured against.
pub fn session_parallel_leg(
    b: &NetSimBuilder,
    end: SimTime,
    assignment: &[u32],
) -> Result<Leg, MassfError> {
    let mut s = session(b);
    let mode = ExecMode::Parallel {
        assignment: assignment.to_vec(),
        window: b.shared().safe_parallel_window(assignment),
    };
    let t0 = Instant::now();
    s.run_until(end, &mode)?;
    Ok(session_leg(t0.elapsed().as_secs_f64(), &s))
}

/// The sequential leg of a workload: direct, or segmented through
/// `Session` when the workload has a session plan.
pub fn workload_seq_leg<A: AppLogic + Clone>(
    inp: &Inputs<A>,
    b: &NetSimBuilder,
    snapshot_path: &Path,
) -> Result<Leg, MassfError> {
    match &inp.session {
        Some(plan) => session_seq_leg(b, inp.horizon, plan.segment, snapshot_path),
        None => Ok(seq_leg(inp, b, inp.horizon)),
    }
}

/// The parallel leg of a workload (see [`workload_seq_leg`]).
pub fn workload_par_leg<A: AppLogic + Clone>(
    inp: &Inputs<A>,
    b: &NetSimBuilder,
    assignment: &[u32],
) -> Result<Leg, MassfError> {
    match &inp.session {
        Some(plan) => session_rebalancing_leg(b, inp.horizon, plan.policy, assignment),
        None => par_leg(inp, b, assignment, inp.horizon),
    }
}
