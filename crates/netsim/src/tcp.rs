//! TCP sender/receiver state machines.
//!
//! A Reno-family TCP sufficient for realistic traffic shaping: slow
//! start, congestion avoidance (AIMD), duplicate-ACK fast retransmit,
//! and exponential-backoff retransmission timers with Jacobson/Karels
//! RTT estimation. Packets on one flow share one path and FIFO links, so
//! reordering cannot occur; the receiver is a cumulative-ACK machine.
//!
//! The state machines are pure (no engine types) so they are unit-tested
//! exhaustively here; `world` wires them to packets and timers.

use crate::packet::segments_for;
use massf_engine::SimTime;
use massf_topology::MassfError;

/// Initial congestion window, segments.
pub const INITIAL_CWND: f64 = 2.0;
/// Initial slow-start threshold, segments.
pub const INITIAL_SSTHRESH: f64 = 64.0;
/// Duplicate ACKs that trigger fast retransmit.
pub const DUPACK_THRESHOLD: u32 = 3;
/// Initial retransmission timeout.
pub const INITIAL_RTO: SimTime = SimTime(1_000_000_000);
/// Lower bound on the RTO.
pub const MIN_RTO: SimTime = SimTime(200_000_000);
/// Upper bound on the RTO.
pub const MAX_RTO: SimTime = SimTime(16_000_000_000);
/// Consecutive retransmission timeouts tolerated before a flow gives
/// up (≈ 47 s with the default RTO schedule: 1+2+4+8+16+16 s).
pub const MAX_RETRIES: u32 = 6;

/// Sender-side actions decided by the state machine; the world layer
/// turns them into packets and timers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendAction {
    /// Transmit segment `seq` (fresh or retransmission).
    Transmit { seq: u32 },
    /// The flow completed (all segments acknowledged).
    Complete,
    /// The flow gave up: the retry budget is exhausted without forward
    /// progress (the loss-tolerance escape hatch — a flow across a dead
    /// path terminates instead of retransmitting forever).
    Abort,
}

/// Why a TCP flow terminated without completing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbortReason {
    /// `MAX_RETRIES` consecutive retransmission timeouts elapsed with no
    /// new data acknowledged.
    RetryBudgetExhausted,
    /// Same retry exhaustion, but routing additionally reported the
    /// destination unreachable when the sender tried to fail over.
    Unroutable,
}

impl std::fmt::Display for AbortReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AbortReason::RetryBudgetExhausted => write!(f, "retry budget exhausted"),
            AbortReason::Unroutable => write!(f, "destination unroutable"),
        }
    }
}

/// TCP sender for one flow. Every field is public so a checkpoint can
/// carry the sender whole; [`TcpSender::validate`] checks one that
/// comes back from a snapshot file.
#[derive(Debug, Clone, PartialEq)]
pub struct TcpSender {
    /// Total segments to deliver.
    pub total_segments: u32,
    /// Lowest unacknowledged segment.
    pub acked: u32,
    /// Next never-before-sent segment.
    pub next_seq: u32,
    /// Congestion window, segments (fractional during CA growth).
    pub cwnd: f64,
    /// Slow-start threshold, segments.
    pub ssthresh: f64,
    /// Duplicate-ACK counter.
    pub dup_acks: u32,
    /// Smoothed RTT (None until first sample).
    pub srtt: Option<SimTime>,
    /// RTT variance estimate.
    pub rttvar: SimTime,
    /// Current RTO.
    pub rto: SimTime,
    /// Monotone timer epoch; pending timer events carry the epoch they
    /// were armed with and are ignored if the epoch moved on.
    pub timer_epoch: u32,
    /// Send time of the segment used for RTT sampling (Karn's rule: only
    /// never-retransmitted segments are sampled).
    pub rtt_probe: Option<(u32, SimTime)>,
    /// True once a retransmission happened for the current `acked` value
    /// (suppresses RTT sampling per Karn).
    pub retransmitted_low: bool,
    /// Consecutive retransmission timeouts with no forward progress.
    pub retries: u32,
    /// Retry budget; `retries` exceeding it aborts the flow.
    pub max_retries: u32,
    /// Completed?
    pub done: bool,
    /// Gave up (retry budget exhausted)?
    pub aborted: bool,
}

impl TcpSender {
    /// A sender for `bytes` of payload with the default retry budget.
    pub fn new(bytes: u64) -> Self {
        Self::with_retries(bytes, MAX_RETRIES)
    }

    /// A sender for `bytes` of payload tolerating `max_retries`
    /// consecutive timeouts before aborting (see
    /// `NetWorld::with_config`).
    pub fn with_retries(bytes: u64, max_retries: u32) -> Self {
        TcpSender {
            total_segments: segments_for(bytes),
            acked: 0,
            next_seq: 0,
            cwnd: INITIAL_CWND,
            ssthresh: INITIAL_SSTHRESH,
            dup_acks: 0,
            srtt: None,
            rttvar: SimTime::ZERO,
            rto: INITIAL_RTO,
            timer_epoch: 0,
            rtt_probe: None,
            retransmitted_low: false,
            retries: 0,
            max_retries,
            done: false,
            aborted: false,
        }
    }

    /// Check a sender read from a snapshot file: the sequence-number
    /// and window invariants that, broken, would mean arithmetic
    /// underflow or a stuck flow later. A violation is
    /// `MassfError::SnapshotCorrupt` in section "tcp".
    pub fn validate(&self) -> Result<(), MassfError> {
        let bad = |reason: String| MassfError::SnapshotCorrupt {
            section: "tcp".into(),
            reason,
        };
        if self.acked > self.next_seq || self.next_seq > self.total_segments {
            return Err(bad(format!(
                "sequence invariant violated: acked {} ≤ next_seq {} ≤ total {}",
                self.acked, self.next_seq, self.total_segments
            )));
        }
        let (cwnd, ssthresh) = (self.cwnd, self.ssthresh);
        if !(cwnd.is_finite() && cwnd >= 1.0 && ssthresh.is_finite() && ssthresh >= 0.0) {
            return Err(bad(format!(
                "window invariant violated: cwnd {cwnd}, ssthresh {ssthresh}"
            )));
        }
        Ok(())
    }

    /// Segments in flight.
    pub fn in_flight(&self) -> u32 {
        self.next_seq - self.acked
    }

    /// The window currently allows sending up to this many *new*
    /// segments.
    pub fn sendable(&self) -> u32 {
        let window = self.cwnd.floor().max(1.0) as u32;
        let limit = (self.acked + window).min(self.total_segments);
        limit.saturating_sub(self.next_seq)
    }

    /// Open the flow: emit the initial window. Returns seqs to transmit.
    pub fn open(&mut self, now: SimTime, out: &mut Vec<SendAction>) {
        self.emit_new(now, out);
    }

    fn emit_new(&mut self, now: SimTime, out: &mut Vec<SendAction>) {
        for _ in 0..self.sendable() {
            let seq = self.next_seq;
            self.next_seq += 1;
            if self.rtt_probe.is_none() && !self.retransmitted_low {
                self.rtt_probe = Some((seq, now));
            }
            out.push(SendAction::Transmit { seq });
        }
    }

    /// Handle a cumulative ACK for "next expected = `ack`" at `now`.
    pub fn on_ack(&mut self, ack: u32, now: SimTime, out: &mut Vec<SendAction>) {
        if self.done || self.aborted {
            return;
        }
        if ack > self.acked {
            // New data acknowledged: forward progress resets the retry
            // budget.
            self.retries = 0;
            self.retransmitted_low = false;
            // RTT sample per Karn's algorithm.
            if let Some((probe_seq, sent_at)) = self.rtt_probe {
                if ack > probe_seq {
                    self.rtt_sample(now.saturating_sub(sent_at));
                    self.rtt_probe = None;
                }
            }
            let newly = ack - self.acked;
            self.acked = ack;
            self.dup_acks = 0;
            // Window growth.
            for _ in 0..newly {
                if self.cwnd < self.ssthresh {
                    self.cwnd += 1.0; // slow start
                } else {
                    self.cwnd += 1.0 / self.cwnd; // congestion avoidance
                }
            }
            self.timer_epoch += 1; // restart timer (re-armed by caller)
            if self.acked >= self.total_segments {
                self.done = true;
                out.push(SendAction::Complete);
                return;
            }
            self.emit_new(now, out);
        } else if ack == self.acked {
            // Duplicate ACK.
            self.dup_acks += 1;
            if self.dup_acks == DUPACK_THRESHOLD {
                // Fast retransmit + multiplicative decrease.
                self.ssthresh = (self.cwnd / 2.0).max(2.0);
                self.cwnd = self.ssthresh;
                self.retransmitted_low = true;
                self.rtt_probe = None;
                self.timer_epoch += 1;
                out.push(SendAction::Transmit { seq: self.acked });
            }
        }
    }

    /// Handle an RTO firing (caller checked the epoch).
    pub fn on_timeout(&mut self, out: &mut Vec<SendAction>) {
        if self.done || self.aborted || self.in_flight() == 0 {
            return;
        }
        self.retries += 1;
        if self.retries > self.max_retries {
            self.aborted = true;
            out.push(SendAction::Abort);
            return;
        }
        self.ssthresh = (self.cwnd / 2.0).max(2.0);
        self.cwnd = INITIAL_CWND.min(self.ssthresh);
        self.dup_acks = 0;
        self.rto = (self.rto * 2).min(MAX_RTO);
        self.retransmitted_low = true;
        self.rtt_probe = None;
        self.timer_epoch += 1;
        // Go-back-N to the hole.
        self.next_seq = self.acked + 1;
        out.push(SendAction::Transmit { seq: self.acked });
    }

    fn rtt_sample(&mut self, rtt: SimTime) {
        match self.srtt {
            None => {
                self.srtt = Some(rtt);
                self.rttvar = rtt / 2;
            }
            Some(srtt) => {
                // RFC 6298 with α=1/8, β=1/4 in integer ns.
                let delta = if srtt >= rtt { srtt - rtt } else { rtt - srtt };
                self.rttvar = SimTime((3 * self.rttvar.0 + delta.0) / 4);
                self.srtt = Some(SimTime((7 * srtt.0 + rtt.0) / 8));
            }
        }
        let srtt = self.srtt.expect("just set");
        self.rto = SimTime(srtt.0 + 4 * self.rttvar.0)
            .max(MIN_RTO)
            .min(MAX_RTO);
    }

    /// Does the flow still need a running retransmission timer?
    pub fn needs_timer(&self) -> bool {
        !self.done && !self.aborted && self.in_flight() > 0
    }
}

/// TCP receiver for one flow: cumulative-ACK machine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TcpReceiver {
    /// Next expected segment.
    pub rcv_next: u32,
    /// Total data segments received (including duplicates).
    pub segments_seen: u64,
}

impl TcpReceiver {
    /// Process data segment `seq`; returns the cumulative ACK to send.
    pub fn on_data(&mut self, seq: u32) -> u32 {
        self.segments_seen += 1;
        if seq == self.rcv_next {
            self.rcv_next += 1;
        }
        // In-order links: seq > rcv_next means an earlier loss; duplicate
        // ACKs for rcv_next trigger the sender's fast retransmit.
        self.rcv_next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(s: &mut TcpSender, now: SimTime) -> Vec<u32> {
        let mut out = Vec::new();
        s.open(now, &mut out);
        out.iter()
            .filter_map(|a| match a {
                SendAction::Transmit { seq } => Some(*seq),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn opens_with_initial_window() {
        let mut s = TcpSender::new(100_000);
        let sent = drain(&mut s, SimTime::ZERO);
        assert_eq!(sent, vec![0, 1]);
        assert_eq!(s.in_flight(), 2);
    }

    #[test]
    fn tiny_flow_sends_single_segment_and_completes() {
        let mut s = TcpSender::new(100);
        let sent = drain(&mut s, SimTime::ZERO);
        assert_eq!(sent, vec![0]);
        let mut out = Vec::new();
        s.on_ack(1, SimTime::from_ms(50), &mut out);
        assert_eq!(out, vec![SendAction::Complete]);
        assert!(s.done);
    }

    #[test]
    fn slow_start_doubles_per_rtt() {
        let mut s = TcpSender::new(10_000_000);
        drain(&mut s, SimTime::ZERO);
        let mut out = Vec::new();
        // ACK both initial segments: cwnd 2 → 4, sends 4 more.
        s.on_ack(2, SimTime::from_ms(10), &mut out);
        let txs = out
            .iter()
            .filter(|a| matches!(a, SendAction::Transmit { .. }))
            .count();
        assert_eq!(s.cwnd, 4.0);
        assert_eq!(txs, 4);
    }

    #[test]
    fn congestion_avoidance_growth_is_linear() {
        let mut s = TcpSender::new(10_000_000);
        s.ssthresh = 2.0; // force CA from the start
        drain(&mut s, SimTime::ZERO);
        let mut out = Vec::new();
        s.on_ack(1, SimTime::from_ms(10), &mut out);
        // cwnd 2 → 2 + 1/2 = 2.5
        assert!((s.cwnd - 2.5).abs() < 1e-12);
    }

    #[test]
    fn triple_dupack_fast_retransmits_and_halves() {
        let mut s = TcpSender::new(10_000_000);
        s.cwnd = 8.0;
        s.ssthresh = 64.0;
        drain(&mut s, SimTime::ZERO); // sends 0..8
        let mut out = Vec::new();
        s.on_ack(1, SimTime::from_ms(5), &mut out); // ack seg 0
        out.clear();
        for _ in 0..2 {
            s.on_ack(1, SimTime::from_ms(6), &mut out);
            assert!(out.is_empty(), "no retransmit before 3 dupacks");
        }
        s.on_ack(1, SimTime::from_ms(7), &mut out);
        assert_eq!(out, vec![SendAction::Transmit { seq: 1 }]);
        assert!((s.ssthresh - 4.5).abs() < 1e-9, "ssthresh {}", s.ssthresh);
        assert_eq!(s.cwnd, s.ssthresh);
    }

    #[test]
    fn timeout_collapses_window_and_backs_off() {
        let mut s = TcpSender::new(10_000_000);
        s.cwnd = 16.0;
        drain(&mut s, SimTime::ZERO);
        let rto_before = s.rto;
        let epoch_before = s.timer_epoch;
        let mut out = Vec::new();
        s.on_timeout(&mut out);
        assert_eq!(out, vec![SendAction::Transmit { seq: 0 }]);
        assert_eq!(s.cwnd, INITIAL_CWND);
        assert_eq!(s.ssthresh, 8.0);
        assert_eq!(s.rto, rto_before * 2);
        assert!(s.timer_epoch > epoch_before);
    }

    #[test]
    fn timeout_without_outstanding_data_is_ignored() {
        let mut s = TcpSender::new(100);
        let mut out = Vec::new();
        s.on_timeout(&mut out); // nothing sent yet → nothing in flight
        assert!(out.is_empty());
    }

    #[test]
    fn rtt_estimation_updates_rto() {
        let mut s = TcpSender::new(1_000_000);
        drain(&mut s, SimTime::ZERO);
        let mut out = Vec::new();
        s.on_ack(1, SimTime::from_ms(100), &mut out);
        // First sample: srtt=100ms, rttvar=50ms, rto=100+200=300ms.
        assert_eq!(s.srtt, Some(SimTime::from_ms(100)));
        assert_eq!(s.rto, SimTime::from_ms(300));
    }

    #[test]
    fn rto_respects_min_bound() {
        let mut s = TcpSender::new(1_000_000);
        drain(&mut s, SimTime::ZERO);
        let mut out = Vec::new();
        s.on_ack(1, SimTime::from_us(100), &mut out); // 0.1 ms RTT
        assert_eq!(s.rto, MIN_RTO);
    }

    #[test]
    fn stale_acks_ignored() {
        let mut s = TcpSender::new(1_000_000);
        drain(&mut s, SimTime::ZERO);
        let mut out = Vec::new();
        s.on_ack(2, SimTime::from_ms(10), &mut out);
        out.clear();
        s.on_ack(1, SimTime::from_ms(11), &mut out); // old
        assert!(out.is_empty());
        assert_eq!(s.acked, 2);
    }

    #[test]
    fn full_transfer_without_loss_completes() {
        // Simulate an ideal network: every transmitted segment is acked
        // one RTT later, in order.
        let mut s = TcpSender::new(50_000); // 35 segments
        let mut pending: Vec<u32> = drain(&mut s, SimTime::ZERO);
        let mut now = SimTime::ZERO;
        let mut recv = TcpReceiver::default();
        let mut completed = false;
        let mut iterations = 0;
        while !completed {
            iterations += 1;
            assert!(iterations < 1000, "no progress");
            now += SimTime::from_ms(10);
            let mut out = Vec::new();
            for seq in std::mem::take(&mut pending) {
                let ack = recv.on_data(seq);
                s.on_ack(ack, now, &mut out);
            }
            for a in out {
                match a {
                    SendAction::Transmit { seq } => pending.push(seq),
                    SendAction::Complete => completed = true,
                    SendAction::Abort => panic!("lossless transfer cannot abort"),
                }
            }
        }
        assert_eq!(recv.rcv_next, 35);
        assert!(s.done);
    }

    #[test]
    fn receiver_dupacks_on_gap() {
        let mut r = TcpReceiver::default();
        assert_eq!(r.on_data(0), 1);
        assert_eq!(r.on_data(2), 1, "gap at 1 → duplicate ACK");
        assert_eq!(r.on_data(1), 2);
        // Segment 2 was lost from the receiver's viewpoint (go-back-N
        // retransmission will resend it).
        assert_eq!(r.on_data(2), 3);
        assert_eq!(r.segments_seen, 4);
    }

    #[test]
    fn exhausted_retry_budget_aborts() {
        let mut s = TcpSender::new(100_000);
        drain(&mut s, SimTime::ZERO);
        let mut out = Vec::new();
        for i in 0..MAX_RETRIES {
            out.clear();
            s.on_timeout(&mut out);
            assert!(
                out.contains(&SendAction::Transmit { seq: 0 }),
                "retry {i} still retransmits"
            );
            assert!(!s.aborted);
        }
        out.clear();
        s.on_timeout(&mut out);
        assert_eq!(out, vec![SendAction::Abort]);
        assert!(s.aborted);
        assert!(!s.needs_timer(), "aborted flows stop their timer");
        // Further events are inert.
        out.clear();
        s.on_timeout(&mut out);
        s.on_ack(1, SimTime::from_ms(1), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn forward_progress_resets_retry_budget() {
        let mut s = TcpSender::new(100_000);
        drain(&mut s, SimTime::ZERO);
        let mut out = Vec::new();
        for _ in 0..MAX_RETRIES {
            s.on_timeout(&mut out);
        }
        assert_eq!(s.retries, MAX_RETRIES);
        out.clear();
        s.on_ack(1, SimTime::from_ms(5), &mut out); // new data acked
        assert_eq!(s.retries, 0, "an advancing ACK must reset the budget");
        assert!(!s.aborted);
        for _ in 0..MAX_RETRIES {
            out.clear();
            s.on_timeout(&mut out);
            assert!(!s.aborted, "full budget available again");
        }
    }

    #[test]
    fn custom_retry_budget_is_honored() {
        let mut s = TcpSender::with_retries(100_000, 2);
        drain(&mut s, SimTime::ZERO);
        let mut out = Vec::new();
        s.on_timeout(&mut out);
        s.on_timeout(&mut out);
        assert!(!s.aborted);
        out.clear();
        s.on_timeout(&mut out);
        assert_eq!(out, vec![SendAction::Abort]);
    }

    #[test]
    fn hostile_sender_states_are_rejected() {
        let good = TcpSender::new(100_000);
        good.validate().expect("a fresh sender is valid");
        let mut acked_past_sent = good.clone();
        acked_past_sent.acked = 5;
        let mut sent_past_total = good.clone();
        sent_past_total.next_seq = good.total_segments + 1;
        let mut nan_window = good.clone();
        nan_window.cwnd = f64::NAN;
        let mut zero_window = good;
        zero_window.cwnd = 0.5;
        for bad in [acked_past_sent, sent_past_total, nan_window, zero_window] {
            match bad.validate() {
                Err(MassfError::SnapshotCorrupt { section, .. }) => {
                    assert_eq!(section, "tcp");
                }
                other => panic!("expected SnapshotCorrupt, got {other:?}"),
            }
        }
    }

    #[test]
    fn sendable_respects_total() {
        let mut s = TcpSender::new(2000); // 2 segments
        s.cwnd = 100.0;
        assert_eq!(s.sendable(), 2);
        drain(&mut s, SimTime::ZERO);
        assert_eq!(s.sendable(), 0);
    }
}
