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

use massf_engine::SimTime;
use massf_netsim::packet::{ACK_BYTES, HEADER_BYTES, MSS};
use massf_netsim::tcp::{INITIAL_CWND, INITIAL_SSTHRESH};
use massf_netsim::{Agent, AppLogic, FlowId, NetSimBuilder, SimApi};
use massf_routing::{CostMetric, FlatResolver};
use massf_topology::{AsId, Network, NodeId, NodeKind, Point};
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
    let (mut window, ssthresh) = (INITIAL_CWND as u64, INITIAL_SSTHRESH as u64);
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

/// Records when the one flow completed.
#[derive(Clone, Default)]
struct Completion(Option<SimTime>);

impl AppLogic for Completion {
    fn on_flow_complete(&mut self, _: NodeId, _: FlowId, api: &mut SimApi<'_, '_>) {
        self.0 = Some(api.now());
    }
    fn on_timer(&mut self, _: NodeId, _: u64, _: &mut SimApi<'_, '_>) {}
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
    let out = builder.run_sequential(Completion::default(), end);
    let done = out.apps.first().and_then(|app| app.0);
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
