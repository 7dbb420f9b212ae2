//! Wall-clock spans recorded from *outside* the simulator.
//!
//! The engine and the models never read a clock (the repository's
//! simlint D2/D5 gates); every timing here wraps one of their public
//! trait seams — [`Model`], [`PathResolver`], [`AppLogic`] — or a call
//! into a layer's entry point. Spans stay in memory and are written as
//! a Chrome trace-event file when the run ends.
//!
//! Nesting: an engine run calls handlers ([`TimedModel`]), a handler
//! may call application callbacks ([`TimedApp`]), and both may resolve
//! routes ([`TimedResolver`]). A layer's self time is its span minus
//! its children's, so callbacks record how much resolver time ran
//! inside them (per thread, via [`RESOLVE_NS`]).

use massf_engine::{Emitter, LpId, Model, SimTime};
use massf_netsim::{AbortReason, AppLogic, FlowId, NetEvent, SimApi};
use massf_routing::PathResolver;
use massf_topology::NodeId;
use std::cell::Cell;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Thread lane in the trace viewer: 0 for the pipeline, `1 + p`
    /// for partition `p`'s handlers.
    pub lane: u32,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// Pipeline-phase recorder: one span per call into a layer.
pub struct Phases {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Phases {
    pub fn new(origin: Instant) -> Self {
        Phases {
            origin,
            spans: Vec::new(),
        }
    }

    /// Run `f` and record its wall time under `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let r = f();
        self.push(name, start);
        r
    }

    /// Record a span that began at `start` and ends now.
    pub fn push(&mut self, name: &'static str, start: Instant) {
        self.spans.push(Span {
            name,
            lane: 0,
            start_ns: (start - self.origin).as_nanos() as u64,
            dur_ns: start.elapsed().as_nanos() as u64,
        });
    }

    /// Durations recorded under `name`, seconds, in recording order.
    pub fn secs(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns as f64 * 1e-9)
            .collect()
    }
}

thread_local! {
    /// Resolver time accumulated on this thread, so an enclosing
    /// callback span can subtract the resolver time nested in it.
    static RESOLVE_NS: Cell<u64> = const { Cell::new(0) };
}

/// Route-lookup totals shared by every [`TimedResolver`] of a run.
#[derive(Default)]
pub struct ResolveTotals {
    // Relaxed: plain statistics, read after the run's threads joined.
    pub calls: AtomicU64,
    pub ns: AtomicU64,
}

/// A [`PathResolver`] that counts and times every lookup.
pub struct TimedResolver {
    inner: Arc<dyn PathResolver>,
    totals: Arc<ResolveTotals>,
}

impl TimedResolver {
    pub fn new(inner: Arc<dyn PathResolver>, totals: Arc<ResolveTotals>) -> Self {
        TimedResolver { inner, totals }
    }

    fn timed<R>(&self, f: impl FnOnce(&dyn PathResolver) -> R) -> R {
        let t0 = Instant::now();
        let r = f(self.inner.as_ref());
        let ns = t0.elapsed().as_nanos() as u64;
        self.totals.calls.fetch_add(1, Ordering::Relaxed);
        self.totals.ns.fetch_add(ns, Ordering::Relaxed);
        RESOLVE_NS.with(|c| c.set(c.get() + ns));
        r
    }
}

impl PathResolver for TimedResolver {
    fn route(&self, src: NodeId, dst: NodeId) -> Option<Vec<NodeId>> {
        self.timed(|r| r.route(src, dst))
    }
    fn route_arc(&self, src: NodeId, dst: NodeId) -> Option<Arc<[NodeId]>> {
        self.timed(|r| r.route_arc(src, dst))
    }
}

/// Callback totals of one [`TimedApp`] instance (one per partition).
#[derive(Debug, Clone, Copy, Default)]
pub struct AppTotals {
    pub calls: u64,
    pub ns: u64,
    /// Resolver time that ran inside callbacks (a child span).
    pub nested_resolve_ns: u64,
}

impl AppTotals {
    pub fn merge(&mut self, o: &AppTotals) {
        self.calls += o.calls;
        self.ns += o.ns;
        self.nested_resolve_ns += o.nested_resolve_ns;
    }
}

/// An [`AppLogic`] that counts and times every callback.
#[derive(Clone)]
pub struct TimedApp<A> {
    inner: A,
    pub totals: AppTotals,
}

impl<A> TimedApp<A> {
    pub fn new(inner: A) -> Self {
        TimedApp {
            inner,
            totals: AppTotals::default(),
        }
    }

    fn timed(&mut self, f: impl FnOnce(&mut A)) {
        let nested0 = RESOLVE_NS.with(Cell::get);
        let t0 = Instant::now();
        f(&mut self.inner);
        self.totals.ns += t0.elapsed().as_nanos() as u64;
        self.totals.nested_resolve_ns += RESOLVE_NS.with(Cell::get) - nested0;
        self.totals.calls += 1;
    }
}

impl<A: AppLogic> AppLogic for TimedApp<A> {
    fn on_flow_complete(&mut self, host: NodeId, flow: FlowId, api: &mut SimApi<'_, '_>) {
        self.timed(|a| a.on_flow_complete(host, flow, api));
    }
    fn on_timer(&mut self, host: NodeId, token: u64, api: &mut SimApi<'_, '_>) {
        self.timed(|a| a.on_timer(host, token, api));
    }
    fn on_datagram(
        &mut self,
        host: NodeId,
        from: FlowId,
        bytes: u32,
        meta: u64,
        api: &mut SimApi<'_, '_>,
    ) {
        self.timed(|a| a.on_datagram(host, from, bytes, meta, api));
    }
    fn on_flow_aborted(
        &mut self,
        host: NodeId,
        flow: FlowId,
        reason: AbortReason,
        api: &mut SimApi<'_, '_>,
    ) {
        self.timed(|a| a.on_flow_aborted(host, flow, reason, api));
    }
    fn on_fluid_complete(
        &mut self,
        src: NodeId,
        flow: FlowId,
        dst: NodeId,
        api: &mut SimApi<'_, '_>,
    ) {
        self.timed(|a| a.on_fluid_complete(src, flow, dst, api));
    }
    fn on_fluid_aborted(
        &mut self,
        src: NodeId,
        flow: FlowId,
        dst: NodeId,
        api: &mut SimApi<'_, '_>,
    ) {
        self.timed(|a| a.on_fluid_aborted(src, flow, dst, api));
    }
}

/// Handler classes: the public `NetEvent` variants grouped by the
/// per-layer metric that reports them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Arrive,
    Rto,
    StartFlow,
    AppTimer,
    Fault,
    Fluid,
}

pub const CLASSES: [Class; 6] = [
    Class::Arrive,
    Class::Rto,
    Class::StartFlow,
    Class::AppTimer,
    Class::Fault,
    Class::Fluid,
];

impl Class {
    fn of(event: &NetEvent) -> Class {
        match event {
            NetEvent::Arrive(_) => Class::Arrive,
            NetEvent::RtoTimer { .. } => Class::Rto,
            NetEvent::StartFlow { .. } | NetEvent::SendDatagram { .. } => Class::StartFlow,
            NetEvent::AppTimer { .. } => Class::AppTimer,
            NetEvent::Fault { .. } => Class::Fault,
            NetEvent::FluidStart { .. }
            | NetEvent::FluidFinish { .. }
            | NetEvent::FluidFault { .. }
            | NetEvent::FluidCapUpdate { .. }
            | NetEvent::FluidPacketLoad { .. } => Class::Fluid,
        }
    }

    fn span_name(self) -> &'static str {
        match self {
            Class::Arrive => "netsim.arrive",
            Class::Rto => "netsim.rto",
            Class::StartFlow => "netsim.start_flow",
            Class::AppTimer => "netsim.app_timer",
            Class::Fault => "faults.reconverge",
            Class::Fluid => "netsim.fluid",
        }
    }
}

/// Events seen, events timed, and time of the timed ones, per class.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClassTotals {
    pub events: u64,
    pub timed: u64,
    pub ns: u64,
}

impl ClassTotals {
    /// Estimated handler time of all `events`: the timed sample scaled
    /// to the population (exact when every event was timed).
    pub fn busy_s(&self) -> f64 {
        if self.timed == 0 {
            return 0.0;
        }
        self.ns as f64 * 1e-9 * self.events as f64 / self.timed as f64
    }
}

/// Per-class handler totals of one model (one per partition).
#[derive(Debug, Clone, Copy, Default)]
pub struct HandlerTotals(pub [ClassTotals; CLASSES.len()]);

impl HandlerTotals {
    pub fn class(&self, c: Class) -> &ClassTotals {
        &self.0[c as usize]
    }

    pub fn merge(&mut self, o: &HandlerTotals) {
        for (a, b) in self.0.iter_mut().zip(&o.0) {
            a.events += b.events;
            a.timed += b.timed;
            a.ns += b.ns;
        }
    }

    pub fn busy_s(&self) -> f64 {
        self.0.iter().map(ClassTotals::busy_s).sum()
    }
}

/// `Arrive` is the one high-volume class (one per packet hop); timing
/// one in this many keeps tracing overhead at a few percent. Every
/// other class is rare or heavy-tailed (a `Fault` handler rebuilds a
/// routing table) and is timed on every event.
pub const ARRIVE_PERIOD: u64 = 16;

/// Handler spans at least this long are kept individually for the
/// trace file; shorter ones only feed the class totals.
const SPAN_MIN_NS: u64 = 100_000;
/// Bound on individually kept handler spans per model.
const SPAN_CAP: usize = 20_000;

/// Is the `nth` event (1-based) of `class` timed under `arrive_period`?
pub(crate) fn is_timed(class: Class, nth: u64, arrive_period: u64) -> bool {
    class != Class::Arrive || nth.is_multiple_of(arrive_period)
}

/// A [`Model`] that classifies every event and times a deterministic
/// sample of `handle` calls. Results are unaffected: the wrapper only
/// observes.
pub struct TimedModel<M> {
    inner: M,
    origin: Instant,
    lane: u32,
    arrive_period: u64,
    /// Keep a handler span individually when it lasted at least this
    /// long and fewer than `span_cap` are kept.
    pub span_min_ns: u64,
    pub span_cap: usize,
    pub totals: HandlerTotals,
    pub spans: Vec<Span>,
}

impl<M> TimedModel<M> {
    pub fn new(inner: M, origin: Instant, lane: u32, arrive_period: u64) -> Self {
        TimedModel {
            inner,
            origin,
            lane,
            arrive_period,
            span_min_ns: SPAN_MIN_NS,
            span_cap: SPAN_CAP,
            totals: HandlerTotals::default(),
            spans: Vec::new(),
        }
    }

    pub fn into_inner(self) -> M {
        self.inner
    }
}

impl<M: Model<Event = NetEvent>> Model for TimedModel<M> {
    type Event = NetEvent;

    fn handle(
        &mut self,
        target: LpId,
        now: SimTime,
        event: NetEvent,
        out: &mut Emitter<'_, NetEvent>,
    ) {
        let class = Class::of(&event);
        let t = &mut self.totals.0[class as usize];
        t.events += 1;
        if !is_timed(class, t.events, self.arrive_period) {
            return self.inner.handle(target, now, event, out);
        }
        let t0 = Instant::now();
        self.inner.handle(target, now, event, out);
        let ns = t0.elapsed().as_nanos() as u64;
        let t = &mut self.totals.0[class as usize];
        t.timed += 1;
        t.ns += ns;
        if ns >= self.span_min_ns && self.spans.len() < self.span_cap {
            self.spans.push(Span {
                name: class.span_name(),
                lane: self.lane,
                start_ns: (t0 - self.origin).as_nanos() as u64,
                dur_ns: ns,
            });
        }
    }
}

/// Write `spans` as a Chrome trace-event file (`chrome://tracing`,
/// Perfetto). The category of a span is its layer: the name up to the
/// first dot.
pub fn write_chrome_trace(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "{{\"traceEvents\": [")?;
    for (i, s) in spans.iter().enumerate() {
        let cat = s.name.split('.').next().unwrap_or(s.name);
        let sep = if i + 1 < spans.len() { "," } else { "" };
        writeln!(
            w,
            "{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \
             \"ts\": {:.3}, \"dur\": {:.3}}}{}",
            s.name,
            cat,
            s.lane,
            s.start_ns as f64 / 1e3,
            s.dur_ns as f64 / 1e3,
            sep
        )?;
    }
    writeln!(w, "], \"displayTimeUnit\": \"ms\"}}")?;
    w.flush()
}
