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

/// All four Section-4.1 metrics for one mapping + run.
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
}

impl ExperimentMetrics {
    /// Derive all metrics from a windowed run.
    pub fn from_run(
        stats: &ExecutionStats,
        achieved_mll_ms: f64,
        engines: usize,
        model: &ClusterModel,
    ) -> Self {
        ExperimentMetrics {
            simulation_time_secs: model.predicted_time_secs(stats, engines),
            achieved_mll_ms,
            load_imbalance: load_imbalance(&stats.partition_event_rates()),
            parallel_efficiency: model.parallel_efficiency(stats, engines),
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
