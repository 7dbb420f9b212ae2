//! `netsim::tcp` against closed forms, on a dumbbell built through
//! `NetSimBuilder`. Every expected value and every tolerance below is
//! derived from the link constants and the TCP constants, never read
//! off a run.
//!
//! Step 1, no loss: the bottleneck's drop-tail buffer holds 50 ms of
//! line rate and the round trip is ≈ 40 ms, so the buffer exceeds the
//! bandwidth-delay product and no segment is dropped. Segments per RTT
//! then double from `INITIAL_CWND` until `INITIAL_SSTHRESH` (slow
//! start) and grow by one per RTT after it (congestion avoidance).
//!
//! Step 3, timeouts: the bottleneck fails before the first segment
//! reaches it, so no RTT sample exists and the retransmission timer runs
//! its schedule from `INITIAL_RTO`, doubling per timeout up to
//! `MAX_RTO`. An outage longer than the retry budget aborts the flow at
//! the `MAX_RETRIES + 1`-th timeout; a shorter one is repaired by the
//! first timeout after it ends, and the flow completes. An outage
//! after the window has grown past 60 that spans two timeouts must,
//! per RFC 5681 §3.1, leave ssthresh at half the old window: the flow
//! slow-starts back to it, then grows linearly (`#[ignore]`d: the
//! sender halves ssthresh again on the second timeout).
//!
//! Step 4, sharing: `FLOWS` long transfers a → b start together. As TCP
//! flows they split the bottleneck fairly (Jain's index of their
//! goodputs at least 0.9) and keep it busy (aggregate goodput at least
//! ¾ of its rate). As fluid flows they get exactly the max-min share,
//! a `FLOWS`-th of the bottleneck each, so all finish together at the
//! closed-form time.

use massf_engine::SimTime;
use massf_netsim::packet::{ACK_BYTES, HEADER_BYTES, MSS};
use massf_netsim::tcp::{INITIAL_CWND, INITIAL_RTO, INITIAL_SSTHRESH, MAX_RTO, MIN_RTO};
use massf_netsim::{
    AbortReason, Agent, AppLogic, FaultScript, FaultState, FlowId, NetSimBuilder, SimApi,
    MAX_RETRIES,
};
use massf_routing::{CostMetric, FlatResolver};
use massf_topology::{AsId, LinkId, Network, NodeId, NodeKind, Point};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Access links: rate (bit/s) and one-way latency (ms).
const ACCESS_BPS: f64 = 1e9;
const ACCESS_MS: f64 = 1.0;
/// The bottleneck between the two routers.
const BOTTLENECK_BPS: f64 = 100e6;
const BOTTLENECK_MS: f64 = 18.0;

/// The transfer, in full segments: past slow start and a dozen rounds
/// into congestion avoidance.
const SEGMENTS: u64 = 1_000;

/// The bottleneck's id: the second link [`dumbbell`] adds.
const BOTTLENECK: LinkId = LinkId(1);

/// host a — r1 — r2 — host b, the middle link the bottleneck.
fn dumbbell() -> (Network, NodeId, NodeId) {
    let mut net = Network::new();
    let a = net.add_node(NodeKind::Host, Point::new(0.0, 0.0), AsId(0));
    let r1 = net.add_node(NodeKind::Router, Point::new(10.0, 0.0), AsId(0));
    let r2 = net.add_node(NodeKind::Router, Point::new(20.0, 0.0), AsId(0));
    let b = net.add_node(NodeKind::Host, Point::new(30.0, 0.0), AsId(0));
    net.add_link(a, r1, ACCESS_BPS, ACCESS_MS);
    net.add_link(r1, r2, BOTTLENECK_BPS, BOTTLENECK_MS);
    net.add_link(r2, b, ACCESS_BPS, ACCESS_MS);
    (net, a, b)
}

/// Seconds to serialize `bytes` at `bps`.
fn ser(bytes: u32, bps: f64) -> f64 {
    f64::from(bytes) * 8.0 / bps
}

/// Round-trip time of one segment and its ACK through the idle
/// dumbbell, seconds: latency plus store-and-forward serialization at
/// every hop, both ways.
fn rtt_s() -> f64 {
    let latency = 2.0 * (2.0 * ACCESS_MS + BOTTLENECK_MS) / 1e3;
    let per_hop = |bytes: u32| 2.0 * ser(bytes, ACCESS_BPS) + ser(bytes, BOTTLENECK_BPS);
    latency + per_hop(MSS + HEADER_BYTES) + per_hop(ACK_BYTES)
}

/// The window of each round trip of a lossless transfer of
/// `segments`, until the windows cover it: `INITIAL_CWND`, doubling
/// each round while below `INITIAL_SSTHRESH`, then one more per round.
fn closed_form_windows(segments: u64) -> Vec<u64> {
    windows_from(INITIAL_CWND as u64, INITIAL_SSTHRESH as u64, segments)
}

/// The window of each round trip of `segments` sent from a window of
/// `first`, until the windows cover them: doubling each round while
/// below `ssthresh`, then one more per round.
fn windows_from(first: u64, ssthresh: u64, segments: u64) -> Vec<u64> {
    let mut window = first;
    let (mut windows, mut covered) = (Vec::new(), 0);
    while covered < segments {
        windows.push(window);
        covered += window;
        window = if window < ssthresh {
            (2 * window).min(ssthresh)
        } else {
            window + 1
        };
    }
    windows
}

/// Records how the one flow ended, and when.
#[derive(Clone, Default)]
struct Outcome {
    completed: Option<SimTime>,
    aborted: Option<(SimTime, AbortReason)>,
}

impl AppLogic for Outcome {
    fn on_flow_complete(&mut self, _: NodeId, _: FlowId, api: &mut SimApi<'_, '_>) {
        self.completed = Some(api.now());
    }
    fn on_timer(&mut self, _: NodeId, _: u64, _: &mut SimApi<'_, '_>) {}
    fn on_flow_aborted(
        &mut self,
        _: NodeId,
        _: FlowId,
        why: AbortReason,
        api: &mut SimApi<'_, '_>,
    ) {
        self.aborted = Some((api.now(), why));
    }
}

/// One `SEGMENTS`-segment transfer a → b from time zero, run to `end`:
/// (data segments arrived at b, queue drops, completion time).
fn transfer(end: SimTime) -> (u64, u64, Option<SimTime>) {
    let (net, a, b) = dumbbell();
    let resolver = Arc::new(FlatResolver::new(&net, CostMetric::Latency));
    let mut builder = NetSimBuilder::new(net, resolver);
    let mut agent = Agent::new();
    agent.inject_tcp(SimTime::ZERO, a, b, SEGMENTS * u64::from(MSS));
    builder.add_agent(agent);
    let out = builder.run_sequential(Outcome::default(), end);
    let done = out.apps.first().and_then(|app| app.completed);
    (out.profile.node_packets[b.index()], out.profile.drops, done)
}

#[test]
fn lossless_transfer_follows_slow_start_then_linear_growth() {
    let rtt = rtt_s();
    let windows = closed_form_windows(SEGMENTS);
    // The closed form's own shape: doubling up to ssthresh, then +1.
    let ss = INITIAL_SSTHRESH as u64;
    let doubling = windows.iter().take_while(|&&w| w < ss).count();
    assert_eq!(windows[..=doubling], [2, 4, 8, 16, 32, 64]);
    let last = windows.len() - 1;
    let linear = last - doubling - 1;
    assert!(linear >= 8, "{windows:?}");

    // Round k's segments leave a as round k − 1's ACKs return, and the
    // largest window serializes onto the bottleneck in less than half
    // an RTT, so at t = (k + 1)·RTT round k has fully arrived at b and
    // round k + 1 has not begun to.
    let largest = windows[last] as f64;
    assert!(largest * ser(MSS + HEADER_BYTES, BOTTLENECK_BPS) < rtt / 2.0);
    let mut arrived_before = 0;
    for (k, &window) in windows.iter().enumerate() {
        let at = SimTime::from_secs_f64((k + 1) as f64 * rtt);
        let (arrived, drops, _) = transfer(at);
        assert_eq!(drops, 0, "round {k}: the buffer exceeds the BDP");
        let got = arrived - arrived_before;
        let why = format!("round {k}: {got} segments, closed-form window {window}");
        if k <= doubling {
            // Slow start adds a whole segment per ACK: exact.
            assert_eq!(got, window, "{why}");
        } else if k < last {
            // Congestion avoidance adds 1/cwnd per ACK, so a round grows
            // the window by w / (w + ½) < 1 segment, and the sender
            // sends only on its whole part: the growth shows one round
            // late, never early.
            assert!(got == window || got + 1 == window, "{why}");
        } else {
            assert!(got <= window, "{why}");
        }
        arrived_before = arrived;
    }
    // That lag costs at most one segment per linear round, and the
    // last window has room for it, so the rounds still cover the
    // transfer.
    let room = windows.iter().sum::<u64>() - SEGMENTS;
    assert!(linear as u64 <= room, "{linear} linear rounds, room {room}");
    assert_eq!(arrived_before, SEGMENTS);

    // Completion: the last round's ACK returns one RTT after the round
    // began, plus at most that round's serialization at the bottleneck.
    let (arrived, drops, done) = transfer(SimTime::from_secs(10));
    assert_eq!((arrived, drops), (SEGMENTS, 0));
    let done = done.expect("transfer completes").as_secs_f64();
    let closed = windows.len() as f64 * rtt;
    assert!(
        (done - closed).abs() <= rtt,
        "completed at {done:.4} s, closed form {closed:.4} s, RTT {rtt:.4} s"
    );
    let goodput_bps = (SEGMENTS * u64::from(MSS) * 8) as f64 / done;
    assert!(goodput_bps <= BOTTLENECK_BPS, "{goodput_bps} bit/s");
}

/// The bottleneck fails this long after the transfer starts: before
/// the first segment has crossed the access link to reach it.
const DOWN_AT: SimTime = SimTime(500_000);

/// The `SEGMENTS`-segment transfer a → b from time zero with the
/// bottleneck down from `DOWN_AT` until `up_at`, run to `end`: how the
/// flow ended, and the packets dropped at the dead link.
fn transfer_across_outage(up_at: SimTime, end: SimTime) -> (Outcome, u64) {
    assert!(DOWN_AT.as_secs_f64() < ser(MSS + HEADER_BYTES, ACCESS_BPS) + ACCESS_MS / 1e3);
    transfer_with_outage(SEGMENTS, DOWN_AT, up_at, end)
}

/// A `segments`-segment transfer a → b from time zero with the
/// bottleneck down from `down_at` until `up_at`, run to `end`: how the
/// flow ended, and the packets dropped at the dead link.
fn transfer_with_outage(
    segments: u64,
    down_at: SimTime,
    up_at: SimTime,
    end: SimTime,
) -> (Outcome, u64) {
    let (net, a, b) = dumbbell();
    let mut script = FaultScript::new();
    script
        .link_down(down_at, BOTTLENECK)
        .link_up(up_at, BOTTLENECK);
    let faults = FaultState::flat(&net, CostMetric::Latency, script).expect("script validates");
    let mut builder = NetSimBuilder::new_with_faults(net, faults);
    let mut agent = Agent::new();
    agent.inject_tcp(SimTime::ZERO, a, b, segments * u64::from(MSS));
    builder.add_agent(agent);
    let out = builder.run_sequential(Outcome::default(), end);
    let outcome = out.apps.first().cloned().unwrap_or_default();
    (outcome, out.profile.fault_drops)
}

/// The times of the retransmission timeouts of a flow that never gets
/// an ACK, from its start: the timer waits `INITIAL_RTO`, then twice as
/// long after each timeout, never longer than `MAX_RTO`. The flow
/// aborts at the `MAX_RETRIES + 1`-th, when its retries exceed the
/// budget.
fn timeout_schedule() -> Vec<SimTime> {
    let (mut at, mut rto) = (SimTime::ZERO, INITIAL_RTO);
    (0..=MAX_RETRIES)
        .map(|_| {
            at += rto;
            rto = (rto + rto).min(MAX_RTO);
            at
        })
        .collect()
}

#[test]
fn outage_beyond_the_retry_budget_aborts_at_the_closed_form_time() {
    let schedule = timeout_schedule();
    // 1, 3, 7, 15, 31, 47, 63 s with the shipped constants.
    let abort_at = *schedule.last().expect("MAX_RETRIES + 1 timeouts");
    let (outcome, fault_drops) = transfer_across_outage(
        abort_at + SimTime::from_secs(10),
        abort_at + SimTime::from_secs(20),
    );
    assert_eq!(outcome.completed, None);
    // Each timeout retransmits one segment into the dead link; the
    // first flight of INITIAL_CWND segments died there too.
    assert_eq!(fault_drops, INITIAL_CWND as u64 + u64::from(MAX_RETRIES));
    // Routing has no path around the dead bottleneck, so the sender's
    // failover at each timeout finds the destination unreachable. Every
    // timer fires at an exact nanosecond, so the abort time is exact.
    assert_eq!(outcome.aborted, Some((abort_at, AbortReason::Unroutable)));
}

#[test]
fn outage_within_the_retry_budget_recovers_and_completes() {
    let schedule = timeout_schedule();
    // The link returns between the third and fourth timeouts; the
    // fourth finds the path up again and its retransmission gets through.
    let up_at = SimTime::from_secs(10);
    assert!(schedule[2] < up_at && up_at < schedule[3]);
    let repaired_at = schedule[3];
    let (outcome, fault_drops) = transfer_across_outage(up_at, SimTime::from_secs(100));
    assert_eq!(outcome.aborted, None);
    assert_eq!(fault_drops, INITIAL_CWND as u64 + 3);

    // After a timeout the sender restarts in congestion avoidance from
    // cwnd = ssthresh = 2: round k carries at most k + 2 segments (one
    // round of the retransmitted hole alone first) and, as in step 1,
    // at least k + 1. Each round lasts an RTT plus at most its own
    // serialization at the bottleneck.
    let rounds = |window: &dyn Fn(u64) -> u64| {
        let (mut k, mut covered) = (0, 1);
        while covered < SEGMENTS {
            covered += window(k);
            k += 1;
        }
        k + 1
    };
    let (fewest, most) = (rounds(&|k| k + 2), rounds(&|k| k + 1));
    let rtt = rtt_s();
    let round_max = rtt + (most + 1) as f64 * ser(MSS + HEADER_BYTES, BOTTLENECK_BPS);
    let done = outcome.completed.expect("transfer completes").as_secs_f64();
    let after = done - repaired_at.as_secs_f64();
    assert!(
        fewest as f64 * rtt <= after && after <= most as f64 * round_max,
        "completed {after:.4} s after the repairing timeout: {fewest}..{most} rounds of \
         {rtt:.4}..{round_max:.4} s"
    );
}

/// The transfer of the second-timeout test, in full segments: three
/// times step 1's, so most of it is sent after the outage.
const OUTAGE_SEGMENTS: u64 = 3 * SEGMENTS;

/// The second-timeout test's outage begins in this round: three rounds
/// into congestion avoidance, with the window past 60.
const OUTAGE_ROUND: usize = 8;

/// Step 3, continued: a timeout after the window has grown. The
/// bottleneck fails once round `OUTAGE_ROUND - 1` is fully
/// acknowledged, stays down across two retransmission timeouts and is
/// back for the third, whose retransmission repairs the hole. RFC 5681
/// §3.1 sets ssthresh to half the window on the segment's first timeout
/// only, so after the repair the flow slow-starts to half its old
/// window and grows linearly from there.
#[test]
#[ignore = "TcpSender::on_timeout sets ssthresh = max(cwnd / 2, 2) on every timeout, so the \
            second drops it to 2 and the flow grows linearly from 2: completed at 4.7867 s, \
            RFC 5681 closed form 3.8189..3.9474 s (53..54 rounds of 0.0401 s after the \
            repairing timeout)"]
fn an_outage_across_two_timeouts_slow_starts_to_half_the_old_window() {
    let rtt = rtt_s();
    let seg = ser(MSS + HEADER_BYTES, BOTTLENECK_BPS);
    let windows = closed_form_windows(OUTAGE_SEGMENTS);
    let k = OUTAGE_ROUND - 1;
    let burst = windows[OUTAGE_ROUND] as f64 * seg;
    // Round k arrives at b by (k + 1)·RTT (step 1) and its ACKs clear
    // the bottleneck within the round's burst after that; round k + 1
    // begins to arrive at b half an RTT later. Failing the link between
    // the two leaves b holding nothing the sender has not seen
    // acknowledged, and every segment of round k + 1 is lost.
    assert!(burst < rtt / 4.0);
    let down_at = (k + 1) as f64 * rtt + rtt / 4.0;
    // The window is round k + 1's, and every linear round acknowledged
    // may be one segment short of its closed form (step 1's lag).
    let acked: u64 = windows[..=k].iter().sum();
    let linear = windows[..=k]
        .iter()
        .filter(|&&w| w >= INITIAL_SSTHRESH as u64)
        .count() as u64;
    let window = windows[OUTAGE_ROUND];
    assert!(window - 1 > 60, "the window has grown past 60: {window}");

    // Every RTT sample lies between the idle RTT and that plus one
    // window's queue at the bottleneck, so srtt + 4·rttvar stays below
    // MIN_RTO and the timer runs MIN_RTO, doubling per timeout: the
    // timeouts fire 1, 3 and 7 MIN_RTO after the last ACK, which
    // arrived within an RTT before the failure. The link is back
    // between the second and the third.
    let rto = MIN_RTO.as_secs_f64();
    assert!(rtt + burst + 4.0 * (rtt / 2.0).max(burst) < rto);
    let up_at = down_at + 5.0 * rto;
    assert!(down_at + 3.0 * rto < up_at && up_at < down_at - rtt + 7.0 * rto);
    let repaired = (down_at - rtt + 7.0 * rto, down_at + 7.0 * rto);

    // After the repair the hole goes alone for a round; its ACK grows
    // cwnd from INITIAL_CWND by one. Then slow start doubles the window
    // up to ssthresh, half the old window, and it grows by one per round
    // (one round late at most, in each linear round).
    let rounds = |ssthresh: u64, remaining: u64, lag: u64| {
        let after = windows_from(INITIAL_CWND as u64 + 1, ssthresh, 2 * remaining);
        let (mut rounds, mut covered) = (1, 1);
        while covered < remaining {
            let w = after[rounds - 1];
            covered += if w >= ssthresh { w - lag } else { w };
            rounds += 1;
        }
        rounds as u64
    };
    let fewest = rounds(window.div_ceil(2), OUTAGE_SEGMENTS - acked, 0);
    let most = rounds((window - 1) / 2, OUTAGE_SEGMENTS - acked + linear, 1);

    let (outcome, fault_drops) = transfer_with_outage(
        OUTAGE_SEGMENTS,
        SimTime::from_secs_f64(down_at),
        SimTime::from_secs_f64(up_at),
        SimTime::from_secs(60),
    );
    assert_eq!(outcome.aborted, None);
    assert!(fault_drops > 2, "round k + 1 and two retransmissions die");
    let done = outcome.completed.expect("transfer completes").as_secs_f64();
    // As in step 1, the last round adds at most an RTT and its own
    // serialization.
    let (lo, hi) = (
        repaired.0 + fewest as f64 * rtt,
        repaired.1 + (most + 1) as f64 * rtt + burst,
    );
    assert!(
        lo <= done && done <= hi,
        "completed at {done:.4} s, closed form {lo:.4}..{hi:.4} s: {fewest}..{most} rounds of \
         {rtt:.4} s after the repairing timeout"
    );
}

/// Transfers sharing the bottleneck in step 4.
const FLOWS: u64 = 4;

/// Each sharing transfer, in full segments: ten times step 1's, so the
/// slow-start rounds (a few RTTs) are a small part of a transfer that
/// takes ≈ `FLOWS · LONG_SEGMENTS · MSS · 8 / BOTTLENECK_BPS` ≈ 4.7 s.
const LONG_SEGMENTS: u64 = 10 * SEGMENTS;

/// When each flow completed, by flow id: TCP flows through
/// `on_flow_complete`, fluid flows through `on_fluid_complete`.
#[derive(Clone, Default)]
struct Completions(BTreeMap<FlowId, SimTime>);

impl AppLogic for Completions {
    fn on_flow_complete(&mut self, _: NodeId, flow: FlowId, api: &mut SimApi<'_, '_>) {
        self.0.insert(flow, api.now());
    }
    fn on_timer(&mut self, _: NodeId, _: u64, _: &mut SimApi<'_, '_>) {}
    fn on_fluid_complete(&mut self, _: NodeId, flow: FlowId, _: NodeId, api: &mut SimApi<'_, '_>) {
        self.0.insert(flow, api.now());
    }
}

/// `FLOWS` transfers of `LONG_SEGMENTS` segments a → b from time zero,
/// TCP or fluid, run until all must have ended: each one's completion
/// time.
fn shared_transfers(fluid: bool) -> Vec<SimTime> {
    let (net, a, b) = dumbbell();
    let resolver = Arc::new(FlatResolver::new(&net, CostMetric::Latency));
    let mut builder = NetSimBuilder::new(net, resolver);
    let mut agent = Agent::new();
    for _ in 0..FLOWS {
        let bytes = LONG_SEGMENTS * u64::from(MSS);
        if fluid {
            agent.inject_fluid(SimTime::ZERO, a, b, bytes);
        } else {
            agent.inject_tcp(SimTime::ZERO, a, b, bytes);
        }
    }
    builder.add_agent(agent);
    let out = builder.run_sequential(Completions::default(), SimTime::from_secs(60));
    let done: Vec<SimTime> = out
        .apps
        .iter()
        .flat_map(|app| app.0.values().copied())
        .collect();
    assert_eq!(done.len() as u64, FLOWS, "every transfer completes");
    done
}

#[test]
fn long_tcp_flows_share_the_bottleneck_fairly_and_fluid_flows_get_the_max_min_share() {
    let bits = (LONG_SEGMENTS * u64::from(MSS) * 8) as f64;
    let done = shared_transfers(false);
    let goodputs: Vec<f64> = done.iter().map(|t| bits / t.as_secs_f64()).collect();
    let sum: f64 = goodputs.iter().sum();
    let squares: f64 = goodputs.iter().map(|g| g * g).sum();
    let jain = sum * sum / (FLOWS as f64 * squares);
    assert!(
        jain >= 0.9,
        "Jain's index {jain:.4} of goodputs {goodputs:?} bit/s"
    );
    let last = done.iter().max().expect("FLOWS > 0");
    let aggregate = FLOWS as f64 * bits / last.as_secs_f64();
    assert!(
        aggregate >= 0.75 * BOTTLENECK_BPS,
        "aggregate goodput {aggregate:.0} bit/s, bottleneck {BOTTLENECK_BPS} bit/s"
    );

    // The fluid solver shares the bottleneck's whole byte rate in equal
    // integer parts and arms each finish at the exact, rounded-up
    // nanosecond.
    let share = (BOTTLENECK_BPS / 8.0) as u128 / u128::from(FLOWS);
    let bytes = u128::from(LONG_SEGMENTS * u64::from(MSS));
    let at = u64::try_from((bytes * 1_000_000_000).div_ceil(share)).expect("fits");
    assert_eq!(
        shared_transfers(true),
        vec![SimTime::from_ns(at); FLOWS as usize]
    );
}
