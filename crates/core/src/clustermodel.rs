//! Trace-driven cluster performance model (DESIGN.md substitution #1).
//!
//! MaSSF ran on 90 nodes of the TeraGrid Itanium-2 cluster; we have one
//! machine. The engine's windowed statistics record, for every
//! MLL-length window, how many kernel events each partition handled —
//! which is exactly the work a barrier-synchronized engine performs. The
//! predicted parallel runtime is therefore
//!
//! ```text
//! T(L, N) = Σ_w [ max_p events_p(w) · t_event + C(N) ]
//! ```
//!
//! with `C(N)` the Figure-5 synchronization-cost model and `t_event`
//! the calibrated per-event kernel cost. The sequential baseline follows
//! the paper's Section 4.1 approximation
//! `Tseq = TotalEventNumber / MaximalEventRateOnEachNode`
//! = `TotalEventNumber · t_event`.

use massf_engine::{ExecutionStats, SyncCostModel};

/// Default per-event kernel cost, microseconds. Calibrated to the
/// paper's era (Itanium-2 1.3 GHz, ~100k events/s per engine node).
pub const DEFAULT_EVENT_COST_US: f64 = 10.0;

/// The cluster performance model.
#[derive(Debug, Clone, Copy)]
pub struct ClusterModel {
    pub sync: SyncCostModel,
    /// Per-event processing cost, microseconds.
    pub event_cost_us: f64,
}

impl Default for ClusterModel {
    fn default() -> Self {
        ClusterModel {
            sync: SyncCostModel::teragrid(),
            event_cost_us: DEFAULT_EVENT_COST_US,
        }
    }
}

#[expect(
    clippy::float_arithmetic,
    reason = "the predicted times are model outputs, closed forms of one run's counters"
)]
impl ClusterModel {
    /// Model with explicit parameters.
    pub fn new(sync: SyncCostModel, event_cost_us: f64) -> Self {
        ClusterModel {
            sync,
            event_cost_us,
        }
    }

    /// Predicted parallel runtime (seconds) of the run described by
    /// `stats` on `engines` cluster nodes.
    ///
    /// # Panics
    /// Panics when `stats` carries no windowed trace.
    pub fn predicted_time_secs(&self, stats: &ExecutionStats, engines: usize) -> f64 {
        assert!(stats.n_windows > 0, "cluster model needs a windowed run");
        let event_secs = self.event_cost_us * 1e-6;
        let sync_secs = self.sync.cost_us(engines) * 1e-6;
        stats.critical_path_events() as f64 * event_secs + stats.n_windows as f64 * sync_secs
    }

    /// The paper's sequential-time approximation (seconds).
    pub fn sequential_time_secs(&self, stats: &ExecutionStats) -> f64 {
        stats.total_events as f64 * self.event_cost_us * 1e-6
    }

    /// Parallel efficiency `PE(N, L) = Tseq / (N · T(L, N))`.
    pub fn parallel_efficiency(&self, stats: &ExecutionStats, engines: usize) -> f64 {
        let t = self.predicted_time_secs(stats, engines);
        if t == 0.0 {
            return 1.0;
        }
        self.sequential_time_secs(stats) / (engines as f64 * t)
    }

    /// The slowdown factor the paper's soft real-time scheduler would
    /// need: predicted wall-clock time over simulated virtual time
    /// (Section 2.1 "run in a scaled-down (slowdown) mode when the
    /// simulated system is too large to run in real time"; the Figure 7
    /// discussion deems ≈ 8× feasible). Values ≤ 1 mean the simulation
    /// keeps up with real time.
    pub fn required_slowdown(&self, stats: &ExecutionStats, engines: usize) -> f64 {
        let virtual_secs = stats.end_time.as_secs_f64();
        if virtual_secs == 0.0 {
            return f64::INFINITY;
        }
        self.predicted_time_secs(stats, engines) / virtual_secs
    }

    /// Fraction of predicted runtime spent in synchronization.
    pub fn sync_fraction(&self, stats: &ExecutionStats, engines: usize) -> f64 {
        let total = self.predicted_time_secs(stats, engines);
        if total == 0.0 {
            return 0.0;
        }
        let sync = stats.n_windows as f64 * self.sync.cost_us(engines) * 1e-6;
        sync / total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use massf_engine::SimTime;

    fn stats(per_window_max: Vec<u64>, totals: Vec<u64>, total: u64) -> ExecutionStats {
        // Assemble by hand through the public fields. One window per
        // bucket, so the per-window maxes land one per bucket slot.
        let mut s = dummy();
        s.n_windows = per_window_max.len();
        s.bucket_critical = per_window_max;
        s.partition_totals = totals;
        s.total_events = total;
        s
    }

    fn dummy() -> ExecutionStats {
        ExecutionStats {
            lp_events: vec![],
            window: SimTime::from_ms(1),
            n_windows: 0,
            bucket_critical: vec![],
            bucket_totals: vec![],
            partition_totals: vec![],
            coarse_trace: vec![],
            windows_per_bucket: 1,
            windows_executed: 0,
            windows_skipped: 0,
            barrier_rounds: 0,
            barrier_wait_us: vec![],
            end_time: SimTime::from_secs(1),
            total_events: 0,
        }
    }

    #[test]
    fn perfect_balance_efficiency_bounded_by_sync() {
        // 2 partitions, each window perfectly balanced: max = total/2.
        let model = ClusterModel::new(SyncCostModel::new(0.0, 0.0), 10.0);
        let s = stats(vec![50, 50], vec![100, 100], 200);
        // No sync cost: T = 100 events × 10 µs = 1 ms; Tseq = 2 ms;
        // PE = 2ms / (2 × 1ms) = 1.0.
        assert!((model.parallel_efficiency(&s, 2) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn imbalance_reduces_efficiency() {
        let model = ClusterModel::new(SyncCostModel::new(0.0, 0.0), 10.0);
        // Same total work, but one partition does everything.
        let balanced = stats(vec![50, 50], vec![100, 100], 200);
        let skewed = stats(vec![100, 100], vec![200, 0], 200);
        assert!(
            model.parallel_efficiency(&balanced, 2) > model.parallel_efficiency(&skewed, 2) * 1.9
        );
    }

    #[test]
    fn sync_cost_reduces_efficiency_with_window_count() {
        let model = ClusterModel::default();
        let few_windows = stats(vec![1000], vec![1000, 1000], 2000);
        let many_windows = stats(vec![10; 100], vec![1000, 1000], 2000);
        assert!(
            model.parallel_efficiency(&few_windows, 90)
                > model.parallel_efficiency(&many_windows, 90)
        );
        assert!(model.sync_fraction(&many_windows, 90) > 0.8);
    }

    #[test]
    fn predicted_time_formula() {
        let model = ClusterModel::new(SyncCostModel::new(100.0, 0.0), 10.0);
        let s = stats(vec![10, 20], vec![30], 30);
        // T = (10+20)·10µs + 2·100µs = 300µs + 200µs = 0.0005 s.
        assert!((model.predicted_time_secs(&s, 4) - 0.0005).abs() < 1e-12);
        assert!((model.sequential_time_secs(&s) - 0.0003).abs() < 1e-12);
    }

    #[test]
    fn slowdown_is_wallclock_over_virtual() {
        let model = ClusterModel::new(SyncCostModel::new(0.0, 0.0), 10.0);
        let mut s = stats(vec![100_000; 2], vec![200_000], 200_000);
        s.end_time = SimTime::from_secs(1);
        // T = 200k × 10 µs = 2 s over 1 virtual second → slowdown 2.
        assert!((model.required_slowdown(&s, 2) - 2.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "windowed run")]
    fn requires_windowed_stats() {
        let model = ClusterModel::default();
        model.predicted_time_secs(&dummy(), 4);
    }
}
