//! Whole-run tests at test size: they check digests, counts and the
//! declared metric lists — never times.

use crate::json::Json;
use crate::metrics::{Spec, END_TO_END, PER_LAYER};
use crate::run::{run, RunOptions, RunOutput};
use crate::trace::{is_timed, Class, Phases, TimedModel, ARRIVE_PERIOD};
use crate::workload::{scenario_inputs, Size, Workload};
use massf_core::ScenarioKind;
use massf_engine::{run_sequential, Emitter, LpId, Model, SimTime};
use massf_netsim::{NetEvent, NetWorld, PacketKind, DEFAULT_ROUTE_CACHE_CAPACITY, MAX_RETRIES};
use std::time::Instant;

fn tiny_run(workload: Workload, trace: bool) -> RunOutput {
    let out = run(&RunOptions {
        workload,
        seed: 7,
        // One pipeline execution (one repetition when traced).
        seconds: 0.0,
        trace,
        size: Size::Tiny,
        out_dir: std::env::temp_dir().join(format!("massf-perf-test-{}", std::process::id())),
    });
    assert!(out.correct, "{}: {:?}", workload.name(), out.violations);
    assert_eq!(out.failed, 0, "{}: no operation may fail", workload.name());
    assert!(out.attempted > 1);
    out
}

fn value(out: &RunOutput, name: &str) -> f64 {
    out.metrics
        .rows()
        .find(|r| r.0 == name)
        .unwrap_or_else(|| panic!("{name} not reported"))
        .1
}

#[test]
fn digest_repeats_and_is_the_same_with_the_timing_wrappers() {
    for w in Workload::ALL {
        let a = tiny_run(w, false);
        let b = tiny_run(w, false);
        let traced = tiny_run(w, true);
        assert_eq!(a.digest, b.digest, "{}: two runs, one seed", w.name());
        assert_eq!(a.digest, traced.digest, "{}: traced vs untraced", w.name());
        assert_ne!(a.digest, 0);
        assert_eq!(a.metrics.rows().count(), END_TO_END.len());
        assert!(a.metrics.rows().all(|(_, v, _)| v > 0.0));
    }
}

#[test]
fn traced_run_reports_every_layer_with_zeros_where_bypassed() {
    let flat = tiny_run(Workload::FlatPacket, true);
    let flap = tiny_run(Workload::FlapSession, true);
    let fluid = tiny_run(Workload::FluidBackground, true);
    for out in [&flat, &flap, &fluid] {
        assert_eq!(out.metrics.rows().count(), PER_LAYER.len());
        assert!(value(out, "engine.events_total") > 0.0);
        assert!(value(out, "netsim.arrive_events") > 0.0);
        assert!(value(out, "engine.barrier_rounds") > 0.0);
    }
    // The separation the workloads exist for, in counts.
    assert!(value(&flat, "routing.resolve_calls") > 0.0);
    assert!(value(&flat, "workloads.callbacks") > 0.0);
    assert_eq!(value(&flat, "netsim.fluid_events"), 0.0);
    assert_eq!(value(&flat, "snapshot.checkpoints"), 0.0);
    assert_eq!(value(&flat, "faults.reconvergences"), 0.0);
    assert!(value(&flap, "snapshot.checkpoints") > 0.0);
    assert!(value(&flap, "snapshot.bytes") > 0.0);
    assert!(value(&flap, "snapshot.rebalance_epochs") > 0.0);
    assert!(value(&flap, "faults.reconvergences") > 0.0);
    assert!(value(&fluid, "netsim.fluid_events") > 0.0);
    assert!(value(&fluid, "netsim.fluid_bottleneck_recomputes") > 0.0);
    assert_eq!(value(&fluid, "snapshot.checkpoints"), 0.0);
}

/// Records, in handling order, what kind of packet each `Arrive` event
/// carries: the property its handler's cost depends on (forwarding a
/// packet in transit is cheap, delivering it to TCP is not).
struct ArriveKinds<M> {
    inner: M,
    kinds: Vec<(PacketKind, bool)>,
}

impl<M: Model<Event = NetEvent>> Model for ArriveKinds<M> {
    type Event = NetEvent;
    fn handle(&mut self, lp: LpId, now: SimTime, ev: NetEvent, out: &mut Emitter<'_, NetEvent>) {
        if let NetEvent::Arrive(p) = &ev {
            self.kinds.push((p.kind, p.at_destination()));
        }
        self.inner.handle(lp, now, ev, out);
    }
}

/// The 1-in-`ARRIVE_PERIOD` sample must be representative: the mix of
/// packet kinds among the timed `Arrive` events equals their mix among
/// all of them, so scaling the sample up estimates the every-event
/// total without bias from a pattern in the event stream that beats
/// against the sampling period. Asked of the event stream itself, not
/// of a clock: at test size the handlers of a whole run total about
/// 10 ms, so one scheduler preemption inside one sampled span, scaled
/// by 16, moves a timed comparison by tens of percent (it failed about
/// one run in ten beside the other tests). This check repeats exactly.
#[test]
fn arrive_sample_is_representative_of_every_event() {
    let origin = Instant::now();
    let mut phases = Phases::new(origin);
    let inputs = scenario_inputs(ScenarioKind::SingleAs, Size::Tiny, 7, &mut phases);
    let b = inputs.fresh_builder(&mut phases, None);
    let world = NetWorld::with_config(
        b.shared(),
        inputs.app.clone(),
        DEFAULT_ROUTE_CACHE_CAPACITY,
        MAX_RETRIES,
    );
    let recorder = ArriveKinds {
        inner: world,
        kinds: Vec::new(),
    };
    let mut model = TimedModel::new(recorder, origin, 1, ARRIVE_PERIOD);
    run_sequential(
        &mut model,
        b.shared().lp_count(),
        b.initial_events(),
        inputs.horizon,
    );
    let arrive = *model.totals.class(Class::Arrive);
    let kinds = model.into_inner().kinds;
    assert!(kinds.len() > 10_000, "enough events to sample from");
    assert_eq!(arrive.events, kinds.len() as u64, "every event is counted");
    assert_eq!(
        arrive.timed,
        arrive.events / ARRIVE_PERIOD,
        "1 in 16 is timed"
    );
    assert!(arrive.ns > 0 && arrive.busy_s() > 0.0);

    // The events TimedModel timed, by the rule it applies (1-based).
    let sampled: Vec<(PacketKind, bool)> = kinds
        .iter()
        .enumerate()
        .filter(|(i, _)| is_timed(Class::Arrive, *i as u64 + 1, ARRIVE_PERIOD))
        .map(|(_, k)| *k)
        .collect();
    assert_eq!(sampled.len() as u64, arrive.timed);
    let share = |of: &[(PacketKind, bool)], k: (PacketKind, bool)| {
        of.iter().filter(|x| **x == k).count() as f64 / of.len() as f64
    };
    for kind in [PacketKind::Data, PacketKind::Ack, PacketKind::Datagram] {
        for at_destination in [false, true] {
            let k = (kind, at_destination);
            let (all, sample) = (share(&kinds, k), share(&sampled, k));
            assert!(
                (all - sample).abs() < 0.03,
                "{k:?}: {:.1}% of all Arrive events but {:.1}% of the timed ones",
                all * 100.0,
                sample * 100.0
            );
        }
    }
}

fn declared(doc: &Json, key: &str) -> Vec<(String, String, String)> {
    doc.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"))
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .unwrap_or_else(|| panic!("{key} entry lacks {k}"))
                    .to_owned()
            };
            (field("name"), field("unit"), field("better"))
        })
        .collect()
}

fn owned(specs: &[Spec]) -> Vec<(String, String, String)> {
    specs
        .iter()
        .map(|s| (s.0.to_owned(), s.1.to_owned(), s.2.to_owned()))
        .collect()
}

#[test]
fn benchmark_json_declares_exactly_these_metrics_and_workloads() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    assert_eq!(declared(&doc, "end_to_end"), owned(END_TO_END));
    assert_eq!(declared(&doc, "per_layer"), owned(PER_LAYER));
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
        .collect();
    assert_eq!(workloads, Workload::ALL.map(Workload::name));
    for m in doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .expect("end_to_end")
    {
        let bound = m.get("bound").and_then(Json::as_f64).expect("bound");
        assert!(bound > 0.0 && bound <= 0.25);
    }
}
