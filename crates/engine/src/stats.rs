//! Execution statistics: the raw material of the paper's evaluation.
//!
//! The paper measures load as "the event rate of the simulation kernel
//! (essentially one per network packet)" per engine node (Section 4.1).
//! The executors record per-LP totals and, when windowed, per-window
//! aggregates. Because a fine window (≈ MLL) over a long run can mean
//! hundreds of millions of windows, **nothing here is sized
//! `O(n_windows)`**; all per-window aggregates are streamed into at most
//! [`TRACE_BUCKETS`] buckets plus exact scalar totals:
//!
//! * `bucket_critical[b]` — Σ over the windows of bucket `b` of the
//!   busiest partition's event count in that window. Summing the array
//!   gives the *exact* critical-path event count (every window costs
//!   `max_p events + sync` on a barrier-synchronized cluster); the
//!   per-bucket resolution shows where on the timeline the critical
//!   path concentrates.
//! * `bucket_totals[b]` — all events in bucket `b` (sums to
//!   `total_events`).
//! * `partition_totals[p]` — events per partition (load imbalance).
//! * `coarse_trace[b][p]` — the bucketed per-partition time series for
//!   load-variation plots (the paper's Figure 3).
//!
//! Window *counts* stay exact as scalars: `n_windows` (the nominal
//! barrier count: every MLL window of the horizon, which is what the
//! cluster performance model charges sync cost for), `windows_executed`
//! (windows that actually contained events — the only ones the
//! fast-forwarding parallel executor synchronizes for), and
//! `windows_skipped` (= `n_windows - windows_executed`).

use crate::time::SimTime;
use massf_topology::MassfError;

/// Maximum number of buckets kept in any per-window aggregate
/// (`bucket_critical`, `bucket_totals`, `coarse_trace`).
pub const TRACE_BUCKETS: usize = 512;

/// Statistics from one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionStats {
    /// Events handled per LP.
    pub lp_events: Vec<u64>,
    /// Window length used (zero when not windowed).
    pub window: SimTime,
    /// Nominal window count: `ceil(end_time / window)` (zero when not
    /// windowed). This is the number of barrier rounds a conservative
    /// cluster without empty-window fast-forward executes, and what the
    /// cluster performance model charges sync cost for.
    pub n_windows: usize,
    /// Σ over the windows of bucket `b` of the busiest partition's event
    /// count in that window. `bucket_critical.iter().sum()` is the exact
    /// critical-path event count.
    pub bucket_critical: Vec<u64>,
    /// Total events per bucket (sums to `total_events`).
    pub bucket_totals: Vec<u64>,
    /// Total events per partition.
    pub partition_totals: Vec<u64>,
    /// `coarse_trace[b][p]`: events of partition `p` in bucket `b`
    /// (each bucket spans `windows_per_bucket` windows).
    pub coarse_trace: Vec<Vec<u64>>,
    /// Windows per coarse bucket.
    pub windows_per_bucket: usize,
    /// Windows that contained at least one event. The fast-forwarding
    /// parallel executor synchronizes only for these; identical between
    /// sequential-windowed and parallel runs by construction.
    pub windows_executed: u64,
    /// Empty windows jumped over (`n_windows - windows_executed`).
    pub windows_skipped: u64,
    /// Barrier rounds the executor actually performed (zero for
    /// sequential runs, which have no barriers).
    pub barrier_rounds: u64,
    /// Measured wall-clock barrier-wait time per partition,
    /// microseconds. Empty unless the run was instrumented with a
    /// measuring [`crate::par::BarrierObserver`]; the engine itself
    /// never reads host clocks (`disallowed_types`), so these values come from
    /// the observer and are *not* deterministic.
    pub barrier_wait_us: Vec<f64>,
    /// Virtual time at which the run stopped.
    pub end_time: SimTime,
    /// Total events handled.
    pub total_events: u64,
}

impl ExecutionStats {
    pub(crate) fn new(lp_count: usize) -> Self {
        ExecutionStats {
            lp_events: vec![0; lp_count],
            window: SimTime::ZERO,
            n_windows: 0,
            bucket_critical: Vec::new(),
            bucket_totals: Vec::new(),
            partition_totals: Vec::new(),
            coarse_trace: Vec::new(),
            windows_per_bucket: 1,
            windows_executed: 0,
            windows_skipped: 0,
            barrier_rounds: 0,
            barrier_wait_us: Vec::new(),
            end_time: SimTime::ZERO,
            total_events: 0,
        }
    }

    /// Per-partition event *rate* (events per virtual second).
    pub fn partition_event_rates(&self) -> Vec<f64> {
        let secs = self.end_time.as_secs_f64();
        if secs == 0.0 {
            return vec![0.0; self.partition_totals.len()];
        }
        self.partition_totals
            .iter()
            .map(|&t| t as f64 / secs)
            .collect()
    }

    /// Sum over windows of the busiest partition's event count — the
    /// critical-path event work of a barrier-synchronized run. Exact:
    /// bucketing preserves the sum.
    pub fn critical_path_events(&self) -> u64 {
        self.bucket_critical.iter().sum()
    }

    /// Total measured barrier-wait time across partitions, microseconds
    /// (zero unless the run was instrumented).
    pub fn total_barrier_wait_us(&self) -> f64 {
        self.barrier_wait_us.iter().sum()
    }

    /// Max/mean load imbalance of `partition_totals` in permille — see
    /// [`imbalance_permille`]. This is the deterministic load signal a
    /// rebalancer may act on; never feed `barrier_wait_us` (measured
    /// wall clock) into simulation decisions.
    pub fn imbalance_permille(&self) -> u64 {
        imbalance_permille(&self.partition_totals)
    }
}

/// Max/mean load imbalance in permille: `max(loads)·1000·k / Σloads`.
///
/// `1000` means perfectly balanced; `k·1000` means all load on one of
/// `k` parts. Empty or all-zero inputs report `1000` (nothing to
/// balance). Integer-only by construction (D4-safe): rebalance
/// decisions thresholded on this value never depend on float
/// rounding or summation order.
#[expect(
    clippy::cast_possible_truncation,
    reason = "max <= total, so the quotient is at most 1000 * loads.len()"
)]
pub fn imbalance_permille(loads: &[u64]) -> u64 {
    let k = loads.len() as u64;
    let total: u64 = loads.iter().sum();
    if total == 0 {
        return 1000;
    }
    let max = loads.iter().copied().max().unwrap_or(0);
    (max as u128 * 1000 * k as u128 / total as u128) as u64
}

/// One accounting of a run's events into `(window, partition)` cells:
/// an event of LP `l` at time `t` counts for `assignment[l]` in window
/// `t / window`. One sequential run can be scored any number of ways;
/// a parallel run is scored by its own window and assignment.
#[derive(Debug, Clone, Copy)]
pub struct Scoring<'a> {
    /// Window length.
    pub window: SimTime,
    /// LP → partition, one entry per LP.
    pub assignment: &'a [u32],
    /// Number of partitions; every `assignment` entry is below it.
    pub partitions: usize,
}

impl Scoring<'_> {
    /// Check this scoring against a run over `lp_count` LPs: a zero
    /// window, an assignment of the wrong length or a partition id past
    /// `partitions` (so, with any LP, no partitions at all) is
    /// [`MassfError::InvalidConfig`].
    pub(crate) fn check(&self, lp_count: usize) -> Result<(), MassfError> {
        let invalid = |msg: String| Err(MassfError::InvalidConfig(msg));
        if self.window == SimTime::ZERO {
            return invalid("window must be positive".into());
        }
        if self.assignment.len() != lp_count {
            return invalid(format!(
                "assignment covers {} LPs, the run has {lp_count}",
                self.assignment.len()
            ));
        }
        for (lp, &p) in self.assignment.iter().enumerate() {
            if p as usize >= self.partitions {
                let n = self.partitions;
                return invalid(format!(
                    "LP {lp} is assigned to partition {p}, but there are {n} partitions"
                ));
            }
        }
        Ok(())
    }
}

/// Streaming accumulator both executors build windowed stats with,
/// without materializing anything `O(n_windows)`: memory is
/// `O(partitions + TRACE_BUCKETS × partitions)`, and the empty windows
/// between two executed ones cost nothing. The parallel executor folds
/// whole windows; the sequential one records events one at a time.
#[derive(Debug, Clone)]
pub(crate) struct WindowAccumulator {
    window: SimTime,
    n_windows: usize,
    windows_per_bucket: usize,
    current_window: usize,
    current_counts: Vec<u64>,
    bucket_critical: Vec<u64>,
    bucket_totals: Vec<u64>,
    partition_totals: Vec<u64>,
    coarse_trace: Vec<Vec<u64>>,
    windows_executed: u64,
}

impl WindowAccumulator {
    /// An accumulator for `partitions` partitions over the
    /// `ceil(end_time / window)` windows of a run to `end_time`.
    pub(crate) fn new(partitions: usize, window: SimTime, end_time: SimTime) -> Self {
        #[expect(
            clippy::cast_possible_truncation,
            reason = "the accumulator holds one cell per window, so the count fits usize"
        )]
        let n_windows = end_time.as_ns().div_ceil(window.as_ns()) as usize;
        let windows_per_bucket = n_windows.div_ceil(TRACE_BUCKETS).max(1);
        let buckets = n_windows.div_ceil(windows_per_bucket);
        WindowAccumulator {
            window,
            n_windows,
            windows_per_bucket,
            current_window: 0,
            current_counts: vec![0; partitions],
            bucket_critical: vec![0; buckets],
            bucket_totals: vec![0; buckets],
            partition_totals: vec![0; partitions],
            coarse_trace: vec![vec![0; partitions]; buckets],
            windows_executed: 0,
        }
    }

    /// Record one event of partition `p` in window `w`. Windows must be
    /// non-decreasing (guaranteed by time-ordered execution).
    pub(crate) fn record(&mut self, w: usize, p: usize) {
        debug_assert!(w >= self.current_window, "windows must advance");
        if w != self.current_window {
            self.flush_current();
            // Direct jump: the skipped windows are empty and contribute
            // nothing to any aggregate.
            self.current_window = w;
        }
        self.current_counts[p] += 1;
    }

    /// Fold the window [`Self::record`] is filling, unless it is empty.
    fn flush_current(&mut self) {
        if self.current_counts.iter().any(|&c| c > 0) {
            let mut counts = std::mem::take(&mut self.current_counts);
            self.record_window(self.current_window, counts.iter().copied());
            counts.fill(0);
            self.current_counts = counts;
        }
    }

    /// Fold executed window `w`, given its event count per partition in
    /// partition order. Windows arrive in increasing order, each at most
    /// once, and each holds at least one event.
    pub(crate) fn record_window(&mut self, w: usize, counts: impl IntoIterator<Item = u64>) {
        let b = w / self.windows_per_bucket;
        let (mut total, mut max) = (0, 0);
        for (q, c) in counts.into_iter().enumerate() {
            total += c;
            max = max.max(c);
            self.partition_totals[q] += c;
            self.coarse_trace[b][q] += c;
        }
        debug_assert!(total > 0, "an executed window holds events");
        self.bucket_critical[b] += max;
        self.bucket_totals[b] += total;
        self.windows_executed += 1;
    }

    /// Flush the last window and return `stats` with its windowed
    /// fields written.
    pub(crate) fn finish(mut self, mut stats: ExecutionStats) -> ExecutionStats {
        self.flush_current();
        stats.window = self.window;
        stats.n_windows = self.n_windows;
        stats.bucket_critical = self.bucket_critical;
        stats.bucket_totals = self.bucket_totals;
        stats.partition_totals = self.partition_totals;
        stats.coarse_trace = self.coarse_trace;
        stats.windows_per_bucket = self.windows_per_bucket;
        stats.windows_executed = self.windows_executed;
        stats.windows_skipped = self.n_windows as u64 - self.windows_executed;
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulator_tracks_max_total_and_totals() {
        let mut acc = WindowAccumulator::new(3, SimTime::from_ms(1), SimTime::from_ms(4));
        // window 0: p0×2, p1×1
        acc.record(0, 0);
        acc.record(0, 0);
        acc.record(0, 1);
        // window 2 (window 1 empty): p2×3
        acc.record(2, 2);
        acc.record(2, 2);
        acc.record(2, 2);
        let stats = acc.finish(ExecutionStats::new(0));
        // 4 windows, 1 window per bucket: buckets mirror windows here.
        assert_eq!(stats.bucket_critical, vec![2, 0, 3, 0]);
        assert_eq!(stats.bucket_totals, vec![3, 0, 3, 0]);
        assert_eq!(stats.partition_totals, vec![2, 1, 3]);
        assert_eq!(stats.critical_path_events(), 5);
        assert_eq!(stats.n_windows, 4);
        assert_eq!(stats.windows_executed, 2);
        assert_eq!(stats.windows_skipped, 2);
    }

    #[test]
    fn coarse_trace_buckets_many_windows() {
        let n_windows = TRACE_BUCKETS * 3;
        let mut acc =
            WindowAccumulator::new(2, SimTime::from_ms(1), SimTime::from_ms(n_windows as u64));
        for w in 0..n_windows {
            acc.record(w, w % 2);
        }
        let stats = acc.finish(ExecutionStats::new(0));
        assert_eq!(stats.windows_per_bucket, 3);
        assert_eq!(stats.coarse_trace.len(), TRACE_BUCKETS);
        let bucket_sum: u64 = stats.coarse_trace.iter().flatten().sum();
        assert_eq!(bucket_sum, n_windows as u64);
        assert_eq!(stats.bucket_critical.len(), TRACE_BUCKETS);
        assert_eq!(stats.bucket_totals.len(), TRACE_BUCKETS);
        assert_eq!(stats.critical_path_events(), n_windows as u64);
        assert_eq!(stats.windows_executed, n_windows as u64);
        assert_eq!(stats.windows_skipped, 0);
    }

    #[test]
    fn accumulator_jumps_long_empty_stretches_in_o1() {
        // A horizon of 100 million windows with three events: memory and
        // time must both stay bucket-bounded (the pre-overhaul
        // accumulator walked every window).
        let n_windows = 100_000_000;
        let mut acc = WindowAccumulator::new(2, SimTime::from_us(1), SimTime::from_secs(100));
        acc.record(0, 0);
        acc.record(57_000_000, 1);
        acc.record(99_999_999, 0);
        let stats = acc.finish(ExecutionStats::new(0));
        assert!(stats.bucket_critical.len() <= TRACE_BUCKETS);
        assert!(stats.bucket_totals.len() <= TRACE_BUCKETS);
        assert_eq!(stats.critical_path_events(), 3);
        assert_eq!(stats.windows_executed, 3);
        assert_eq!(stats.windows_skipped, n_windows as u64 - 3);
        assert_eq!(stats.partition_totals, vec![2, 1]);
    }

    #[test]
    fn rates_divide_by_virtual_seconds() {
        let mut s = ExecutionStats::new(0);
        s.partition_totals = vec![10, 30];
        s.end_time = SimTime::from_secs(2);
        assert_eq!(s.partition_event_rates(), vec![5.0, 15.0]);
    }

    #[test]
    fn empty_stats_are_safe() {
        let s = ExecutionStats::new(3);
        assert!(s.partition_totals.is_empty());
        assert!(s.partition_event_rates().is_empty());
        assert_eq!(s.n_windows, 0);
        assert_eq!(s.critical_path_events(), 0);
        assert_eq!(s.total_barrier_wait_us(), 0.0);
        assert_eq!(s.imbalance_permille(), 1000);
    }

    #[test]
    fn imbalance_permille_measures_max_over_mean() {
        assert_eq!(imbalance_permille(&[]), 1000);
        assert_eq!(imbalance_permille(&[0, 0, 0]), 1000);
        assert_eq!(imbalance_permille(&[7, 7, 7, 7]), 1000);
        // All load on one of four parts: max/mean = 4.
        assert_eq!(imbalance_permille(&[100, 0, 0, 0]), 4000);
        // 60/20/20: max/mean = 60/33.33 = 1.8.
        assert_eq!(imbalance_permille(&[60, 20, 20]), 1800);
        // Truncation, never rounding up: 2/1 over k=2 → 1333.
        assert_eq!(imbalance_permille(&[2, 1]), 1333);
        // u64-scale loads must not overflow the intermediate product.
        assert_eq!(imbalance_permille(&[u64::MAX / 2, u64::MAX / 2]), 1000);
    }

    #[test]
    fn imbalance_permille_reads_partition_totals() {
        let mut s = ExecutionStats::new(0);
        s.partition_totals = vec![30, 10];
        assert_eq!(s.imbalance_permille(), 1500);
    }
}
