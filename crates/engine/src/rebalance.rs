//! Online re-partitioning decision layer: deterministic load signals,
//! epoch geometry, and the imbalance trigger.
//!
//! The paper's HPROF mapping is computed once, up front; fault epochs,
//! TCP backoff storms, and bursty workloads skew per-partition load
//! over time. This module holds everything the *engine* contributes to
//! fixing that online:
//!
//! * [`RebalanceConfig`] — epoch cadence, imbalance threshold, and the
//!   per-epoch migration budget.
//! * [`partition_loads`] / [`should_rebalance`] — fold per-LP event
//!   counts (a deterministic function of simulated state) into
//!   per-partition loads and test them against the threshold using the
//!   integer-only [`crate::stats::imbalance_permille`] metric.
//! * [`RebalanceCounters`] — what happened, for reporting and
//!   checkpointing.
//!
//! **Determinism contract.** Decisions are a pure function of simulated
//! state: the load signal is `ExecutionStats::lp_events` /
//! `partition_totals` (events executed — one per packet/fluid update,
//! identical on every host and thread count), never
//! `ExecutionStats::barrier_wait_us`, which is *measured wall clock*
//! and differs run to run. Its type, [`crate::WallMicros`], converts
//! into no `SimTime` and no integer, and clippy refuses its reads
//! outside the bench crate (`disallowed_methods`), precisely so a future
//! rebalancer tweak cannot regress this. Epoch boundaries are absolute
//! multiples of `epoch` from virtual time zero, so a run segmented by
//! checkpoints replays the same decision sequence as a straight-through
//! run.
//!
//! The actual move search lives in `massf-partition`
//! (`rebalance::rebalance`, RNG-free integer-only local moves) and the
//! migration transport in `massf_snapshot`'s one session segment loop
//! (owner-filtered world export, merge, re-restore under the new
//! assignment, with the [`crate::ResumeState`] frontier handed to the
//! new owners); this module stays model-agnostic.

use crate::stats::imbalance_permille;
use crate::time::SimTime;
use massf_topology::MassfError;

/// Configuration of the online rebalancer's decision function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RebalanceConfig {
    /// Epoch cadence: imbalance is evaluated whenever virtual time
    /// crosses a multiple of `epoch` (absolute from t = 0, so decision
    /// points are independent of how the run is segmented).
    pub epoch: SimTime,
    /// Trigger threshold on [`imbalance_permille`] of the last epoch's
    /// per-partition loads; `1000` = perfectly balanced. A rebalance is
    /// attempted when the measured value *exceeds* this.
    pub threshold_permille: u64,
    /// Maximum LP migrations per triggered rebalance (bounds the
    /// export/restore work paid at one epoch boundary).
    pub max_moves: usize,
}

impl Default for RebalanceConfig {
    fn default() -> Self {
        RebalanceConfig {
            epoch: SimTime::from_ms(500),
            threshold_permille: 1200,
            max_moves: 64,
        }
    }
}

impl RebalanceConfig {
    /// Structural validation; configs may arrive from callers or
    /// snapshot files.
    pub fn validate(&self) -> Result<(), MassfError> {
        if self.epoch <= SimTime::ZERO {
            return Err(MassfError::InvalidConfig(
                "rebalance epoch must be positive".into(),
            ));
        }
        if self.threshold_permille < 1000 {
            return Err(MassfError::InvalidConfig(format!(
                "rebalance threshold {} permille is below 1000 (perfect balance); \
                 the trigger would fire on every epoch",
                self.threshold_permille
            )));
        }
        if self.max_moves == 0 {
            return Err(MassfError::InvalidConfig(
                "rebalance max_moves must be at least 1".into(),
            ));
        }
        Ok(())
    }

    /// First epoch boundary strictly after `now` (absolute multiples of
    /// `epoch` from virtual time zero).
    pub fn next_boundary(&self, now: SimTime) -> SimTime {
        let e = self.epoch.as_ns();
        SimTime::from_ns((now.as_ns() / e + 1) * e)
    }
}

/// Fold per-LP loads into per-partition loads under `assignment`.
pub fn partition_loads(lp_loads: &[u64], assignment: &[u32], partitions: usize) -> Vec<u64> {
    assert_eq!(lp_loads.len(), assignment.len(), "load/assignment length");
    let mut loads = vec![0u64; partitions];
    for (&l, &p) in lp_loads.iter().zip(assignment) {
        loads[p as usize] += l;
    }
    loads
}

/// The trigger: does the measured per-partition load of the last epoch
/// exceed the configured imbalance threshold?
pub fn should_rebalance(cfg: &RebalanceConfig, epoch_partition_loads: &[u64]) -> bool {
    imbalance_permille(epoch_partition_loads) > cfg.threshold_permille
}

massf_topology::counters! {
    /// Cumulative rebalancer activity, carried in checkpoints.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct RebalanceCounters {
        /// Epoch boundaries evaluated.
        pub epochs: u64,
        /// Boundaries where the trigger fired *and* the move search found
        /// improving moves (i.e. an actual migration round happened).
        pub rebalances: u64,
        /// Total LPs migrated across all rebalances.
        pub migrations: u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_validation() {
        assert!(RebalanceConfig::default().validate().is_ok());
        let bad = RebalanceConfig {
            epoch: SimTime::ZERO,
            ..RebalanceConfig::default()
        };
        assert!(bad.validate().is_err());
        let bad = RebalanceConfig {
            threshold_permille: 999,
            ..RebalanceConfig::default()
        };
        assert!(bad.validate().is_err());
        let bad = RebalanceConfig {
            max_moves: 0,
            ..RebalanceConfig::default()
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn boundaries_are_absolute_multiples() {
        let cfg = RebalanceConfig {
            epoch: SimTime::from_ms(100),
            ..RebalanceConfig::default()
        };
        assert_eq!(cfg.next_boundary(SimTime::ZERO), SimTime::from_ms(100));
        assert_eq!(
            cfg.next_boundary(SimTime::from_ms(99)),
            SimTime::from_ms(100)
        );
        // Sitting exactly on a boundary advances to the next one, so a
        // driver paused at a boundary never re-evaluates the same epoch.
        assert_eq!(
            cfg.next_boundary(SimTime::from_ms(100)),
            SimTime::from_ms(200)
        );
        assert_eq!(
            cfg.next_boundary(SimTime::from_ms(250)),
            SimTime::from_ms(300)
        );
    }

    #[test]
    fn loads_fold_by_assignment() {
        let loads = partition_loads(&[5, 1, 2, 10], &[0, 1, 1, 0], 3);
        assert_eq!(loads, vec![15, 3, 0]);
    }

    #[test]
    fn trigger_compares_strictly() {
        let cfg = RebalanceConfig {
            threshold_permille: 1500,
            ..RebalanceConfig::default()
        };
        assert!(!should_rebalance(&cfg, &[30, 10])); // exactly 1500
        assert!(should_rebalance(&cfg, &[31, 10]));
        assert!(!should_rebalance(&cfg, &[0, 0])); // nothing to balance
        assert!(!should_rebalance(&cfg, &[]));
    }
}
