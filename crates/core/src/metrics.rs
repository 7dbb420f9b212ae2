//! The paper's evaluation metrics (Section 4.1).
//!
//! 1. **Application simulation time `T`** — predicted by the
//!    [`crate::clustermodel::ClusterModel`] from the measured run trace.
//! 2. **Achieved MLL** — reported by the partitioner
//!    ([`massf_topology::Network::cut_mll_ms`]).
//! 3. **Load imbalance** — "Assuming the simulation kernel event rates
//!    are k1, k2, …, kn … the load imbalance is normalized by the
//!    standard deviation of {k}": population std-dev / mean of the
//!    per-engine kernel event rates.
//! 4. **Parallel efficiency** — `PE(N, L) = Tseq(L) / (N · T(L, N))`
//!    with `Tseq ≈ TotalEventNumber / MaximalEventRateOnEachNode`.
//!
//! ## Where the efficiency goes
//!
//! With `E` events in all, `M` on the busiest engine over the whole
//! run, `K` on the critical path (each window's busiest engine, summed
//! over windows), `W` windows, event cost `e` and barrier cost `C(N)`,
//! the cluster model's `T = K·e + W·C` and `Tseq = E·e` give
//!
//! ```text
//! PE = 1 / (static × per-window × (1 + sync))
//!   static     = M / (E / N)     engine totals against a fair share
//!   per-window = K / M           windows' busiest engines against it
//!   sync       = W·C / (K·e)     barrier time per unit of compute
//! ```
//!
//! exactly: each factor is ≥ 1 and names one way the mapping loses.
//! [`ExperimentMetrics`] carries all three, plus the heaviest LP against
//! a fair share (the floor no partition of the LPs can go below) and
//! the load factor ρ = `E·e / (N · horizon)`: the share of real time an
//! engine computes when the run keeps pace with simulated time.

use crate::clustermodel::ClusterModel;
use massf_engine::ExecutionStats;

/// Normalized load imbalance of measured per-partition loads.
pub fn load_imbalance(partition_rates: &[f64]) -> f64 {
    massf_partition::Partition::normalized_imbalance(partition_rates)
}

/// Parallel efficiency from a windowed run trace.
pub fn parallel_efficiency(stats: &ExecutionStats, engines: usize, model: &ClusterModel) -> f64 {
    model.parallel_efficiency(stats, engines)
}

/// All four Section-4.1 metrics for one mapping + run, and the factors
/// the efficiency decomposes into (module docs, "Where the efficiency
/// goes").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExperimentMetrics {
    /// Predicted application simulation time, seconds.
    pub simulation_time_secs: f64,
    /// Achieved minimum link latency across partitions, ms.
    pub achieved_mll_ms: f64,
    /// Normalized load imbalance.
    pub load_imbalance: f64,
    /// Parallel efficiency.
    pub parallel_efficiency: f64,
    /// The busiest engine's events over a fair share of all events.
    pub static_imbalance: f64,
    /// Critical-path events over the busiest engine's events.
    pub window_imbalance: f64,
    /// Barrier time over critical-path compute time.
    pub sync_share: f64,
    /// The heaviest LP's events over a fair share of all events.
    pub heaviest_lp_share: f64,
    /// Load factor ρ: events × event cost over engines × horizon.
    pub rho: f64,
}

impl ExperimentMetrics {
    /// Derive all metrics from a windowed run.
    #[expect(
        clippy::float_arithmetic,
        reason = "experiment metrics are model outputs computed after the run"
    )]
    pub fn from_run(
        stats: &ExecutionStats,
        achieved_mll_ms: f64,
        engines: usize,
        model: &ClusterModel,
    ) -> Self {
        let n = engines as f64;
        let events = stats.total_events as f64;
        let fair = events / n;
        let busiest = stats.partition_totals.iter().copied().max().unwrap_or(0) as f64;
        let heaviest = stats.lp_events.iter().copied().max().unwrap_or(0) as f64;
        let critical = stats.critical_path_events() as f64;
        let compute_secs = critical * model.event_cost_us * 1e-6;
        let sync_secs = stats.n_windows as f64 * model.sync.cost_us(engines) * 1e-6;
        ExperimentMetrics {
            simulation_time_secs: model.predicted_time_secs(stats, engines),
            achieved_mll_ms,
            load_imbalance: load_imbalance(&stats.partition_event_rates()),
            parallel_efficiency: model.parallel_efficiency(stats, engines),
            static_imbalance: busiest / fair,
            window_imbalance: critical / busiest,
            sync_share: sync_secs / compute_secs,
            heaviest_lp_share: heaviest / fair,
            rho: model.sequential_time_secs(stats) / (n * stats.end_time.as_secs_f64()),
        }
    }

    /// `f` applied field by field to `self` and `other`: how the suite
    /// sums metrics over repeats and divides the sums. The
    /// decomposition's product identity holds per run, not for a mean.
    pub fn zip_with(self, other: Self, f: impl Fn(f64, f64) -> f64) -> Self {
        ExperimentMetrics {
            simulation_time_secs: f(self.simulation_time_secs, other.simulation_time_secs),
            achieved_mll_ms: f(self.achieved_mll_ms, other.achieved_mll_ms),
            load_imbalance: f(self.load_imbalance, other.load_imbalance),
            parallel_efficiency: f(self.parallel_efficiency, other.parallel_efficiency),
            static_imbalance: f(self.static_imbalance, other.static_imbalance),
            window_imbalance: f(self.window_imbalance, other.window_imbalance),
            sync_share: f(self.sync_share, other.sync_share),
            heaviest_lp_share: f(self.heaviest_lp_share, other.heaviest_lp_share),
            rho: f(self.rho, other.rho),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn imbalance_zero_for_equal_rates() {
        assert_eq!(load_imbalance(&[7.0; 16]), 0.0);
    }

    #[test]
    fn imbalance_grows_with_spread() {
        let tight = load_imbalance(&[9.0, 10.0, 11.0]);
        let wide = load_imbalance(&[1.0, 10.0, 19.0]);
        assert!(wide > tight * 3.0);
    }

    #[test]
    fn imbalance_is_scale_invariant() {
        let a = load_imbalance(&[1.0, 2.0, 3.0]);
        let b = load_imbalance(&[100.0, 200.0, 300.0]);
        assert!((a - b).abs() < 1e-12);
    }
}
