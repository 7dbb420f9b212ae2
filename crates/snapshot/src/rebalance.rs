//! Online dynamic re-partitioning: deterministic LP migration that
//! keeps the mapping optimal while the sim runs.
//!
//! A rebalancing [`Session`] advances in *epochs* (absolute multiples
//! of the configured cadence from virtual time zero), through the same
//! segment loop as [`Session::run_until`]: the call is cut at every
//! epoch boundary, and the partition worlds stay resident from one
//! segment to the next with no export/restore cost. At each boundary
//! the loop:
//!
//! 1. folds the epoch's per-LP event counts (a deterministic function
//!    of simulated state — never wall-clock barrier waits) into
//!    per-partition loads,
//! 2. tests `massf_engine::imbalance_permille` against the configured
//!    threshold, and
//! 3. if exceeded, asks `massf_partition::rebalance` (RNG-free,
//!    integer-only Kurve-style local moves over the topology graph with
//!    core's standard inverse-latency edge weights) for a bounded move
//!    list, then **migrates**: the assignment is rewritten, the resident
//!    worlds are flushed through owner-filtered `WorldState` export +
//!    `merge_partitions` under the cut they were restored with, and the
//!    next segment restores partition-subset worlds under the new map.
//!    Pending events for a migrated LP travel in the session's
//!    `ResumeState` frontier; the engine routes them to the LP's new
//!    owner when the next segment starts. The barrier window is
//!    recomputed from the new cut's MLL.
//!
//! **Determinism.** Every input to steps 1–3 (event counts, topology,
//! assignment, policy) is identical on every host and thread count, so
//! the decision trajectory — and therefore the simulation output — is
//! bit-identical to a sequential run at any cadence, threshold, or
//! partition count (proptest-pinned in `tests/tests/rebalance.rs`).
//! Epoch boundaries being absolute means a checkpoint taken mid-epoch
//! (the partial epoch's loads are captured in the snapshot's rebalance
//! section) restores and replays the very same decisions.

use crate::checkpoint::{Cut, Session};
use crate::wire::{fnv1a64, put_slice, ByteWriter, Wire};
use massf_engine::{
    imbalance_permille, partition_loads, should_rebalance, LpId, RebalanceConfig,
    RebalanceCounters, SimTime,
};
use massf_netsim::{NetEvent, SharedNet};
use massf_partition::{apply_moves, rebalance, RebalanceParams, WeightedGraph};
use massf_topology::MassfError;
use std::sync::Arc;

/// Everything that parameterizes the online rebalancer: the engine-side
/// decision function plus the partition-side cost weights.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RebalancePolicy {
    /// Epoch cadence, trigger threshold, per-epoch migration budget.
    pub cfg: RebalanceConfig,
    /// Weight of the load-imbalance term in the move search.
    pub load_weight: u64,
    /// Weight of the edge-cut term in the move search.
    pub cut_weight: u64,
}

impl Default for RebalancePolicy {
    fn default() -> Self {
        let params = RebalanceParams::default();
        RebalancePolicy {
            cfg: RebalanceConfig::default(),
            load_weight: params.load_weight,
            cut_weight: params.cut_weight,
        }
    }
}

impl RebalancePolicy {
    /// Structural validation (configs arrive from CLI flags and
    /// snapshot files).
    pub fn validate(&self) -> Result<(), MassfError> {
        self.cfg.validate()
    }

    fn params(&self) -> RebalanceParams {
        RebalanceParams {
            max_moves: self.cfg.max_moves,
            load_weight: self.load_weight,
            cut_weight: self.cut_weight,
        }
    }
}

/// The rebalancer's live state, carried inside rebalancing sessions and
/// their checkpoints: without it a restored run could not replay the
/// same decision trajectory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RebalanceSessionState {
    /// The (fingerprint-bound) policy.
    pub policy: RebalancePolicy,
    /// Partition count (fixed for the session; migration moves LPs
    /// between existing partitions, it never grows the set).
    pub partitions: u32,
    /// The live LP → partition map (the initial mapping plus every
    /// migration applied so far).
    pub assignment: Vec<u32>,
    /// Per-LP event counts accumulated inside the current — possibly
    /// partial — epoch; folded and reset at each boundary.
    pub epoch_loads: Vec<u64>,
    /// Cumulative activity.
    pub counters: RebalanceCounters,
}

impl RebalanceSessionState {
    /// Structural validation against `lp_count` (snapshot bytes are
    /// untrusted input).
    pub fn validate(&self, lp_count: usize) -> Result<(), MassfError> {
        self.policy.validate()?;
        if self.assignment.len() != lp_count {
            return Err(MassfError::InvalidConfig(format!(
                "rebalance assignment covers {} LPs, network has {lp_count}",
                self.assignment.len()
            )));
        }
        if self.partitions == 0 || self.partitions as usize > lp_count {
            return Err(MassfError::InvalidConfig(format!(
                "rebalance state has {} partitions for {lp_count} LPs",
                self.partitions
            )));
        }
        if let Some(&p) = self.assignment.iter().find(|&&p| p >= self.partitions) {
            return Err(MassfError::InvalidConfig(format!(
                "rebalance assignment references partition {p} of {}",
                self.partitions
            )));
        }
        if self.epoch_loads.len() != lp_count {
            return Err(MassfError::InvalidConfig(format!(
                "rebalance epoch loads cover {} LPs, network has {lp_count}",
                self.epoch_loads.len()
            )));
        }
        Ok(())
    }

    /// The partition worlds the live assignment runs on, barrier-
    /// synchronized at its cut's minimum link latency.
    pub(crate) fn cut(&self, shared: &SharedNet) -> Cut {
        Cut {
            window: shared.safe_parallel_window(&self.assignment),
            assignment: self.assignment.clone(),
            partitions: self.partitions,
        }
    }

    /// Close the epoch that just ended: count it, record its load
    /// signal in `outcome` and reset the accumulator. When the trigger
    /// fires and the move search finds improving moves, apply them to
    /// the live assignment and return `true`.
    pub(crate) fn close_epoch(
        &mut self,
        shared: &SharedNet,
        outcome: &mut RebalanceOutcome,
    ) -> bool {
        let partitions = self.partitions as usize;
        let loads = partition_loads(&self.epoch_loads, &self.assignment, partitions);
        self.counters.epochs += 1;
        outcome
            .epoch_imbalance_permille
            .push(imbalance_permille(&loads));
        outcome.max_load_sum += loads.iter().copied().max().unwrap_or(0);
        outcome.total_load += loads.iter().sum::<u64>();
        let moves = if should_rebalance(&self.policy.cfg, &loads) {
            let graph = conflict_graph(shared);
            let params = self.policy.params();
            rebalance(
                &graph,
                partitions,
                &self.assignment,
                &self.epoch_loads,
                &params,
            )
        } else {
            Vec::new()
        };
        self.epoch_loads.fill(0);
        if moves.is_empty() {
            return false;
        }
        apply_moves(&mut self.assignment, &moves);
        self.counters.rebalances += 1;
        self.counters.migrations += moves.len() as u64;
        true
    }
}

/// Fingerprint of a rebalancing scenario: the base
/// [`crate::scenario_fingerprint`] mixed with the policy and the
/// initial assignment. Rebalancing alters the *trajectory* of a session
/// (which assignment is live when), so a rebalancing snapshot must
/// never restore into a plain session or one with different knobs.
pub fn rebalancing_fingerprint(base: u64, policy: &RebalancePolicy, assignment: &[u32]) -> u64 {
    let mut w = ByteWriter::new();
    base.put(&mut w);
    policy.put(&mut w);
    put_slice(assignment, &mut w);
    fnv1a64(&w.into_inner())
}

/// What one [`Session::run_rebalancing`] call did, for reporting.
/// Everything here except `epochs`-independent sums is deterministic.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RebalanceOutcome {
    /// Epoch boundaries evaluated during this call.
    pub epochs: u64,
    /// Migration rounds executed.
    pub rebalances: u64,
    /// LPs migrated.
    pub migrations: u64,
    /// Per completed epoch: `imbalance_permille` of the measured
    /// per-partition loads (pre-decision, i.e. what the static mapping
    /// delivered over that epoch).
    pub epoch_imbalance_permille: Vec<u64>,
    /// Σ over completed epochs of the busiest partition's load.
    pub max_load_sum: u64,
    /// Σ over completed epochs of all partitions' load (= events).
    pub total_load: u64,
    /// Σ per-segment critical-path event counts
    /// ([`massf_engine::ExecutionStats::critical_path_events`]).
    pub critical_path_events: u64,
    /// Σ windows that actually synchronized.
    pub windows_executed: u64,
    /// Σ barrier rounds performed.
    pub barrier_rounds: u64,
}

impl RebalanceOutcome {
    /// Aggregate max/mean load imbalance across all completed epochs,
    /// permille: `Σ max_p load · 1000 · k / Σ total load`. This is the
    /// quantity a barrier-synchronized cluster pays for — each epoch
    /// costs its busiest partition — and the headline number of the
    /// `rebalance_study` bench.
    pub fn aggregate_imbalance_permille(&self, partitions: usize) -> u64 {
        if self.total_load == 0 {
            return 1000;
        }
        (self.max_load_sum as u128 * 1000 * partitions as u128 / self.total_load as u128) as u64
    }
}

/// The move-search graph: topology vertices with unit weights and the
/// standard inverse-latency edge weights of `massf_core::weights`
/// (`round(64 / latency_ms)`, min 1) — low-latency links are expensive
/// to cut, both for routing locality and because the cut MLL bounds the
/// barrier window.
fn conflict_graph(shared: &SharedNet) -> WeightedGraph {
    let edges: Vec<(u32, u32, u64)> = shared
        .net
        .links
        .iter()
        .map(|l| {
            let w = (64.0 / l.latency_ms).round() as u64;
            (l.a.0, l.b.0, w.max(1))
        })
        .collect();
    WeightedGraph::from_edges(vec![1; shared.net.node_count()], &edges)
}

impl Session {
    /// A session at virtual time zero that rebalances online: it starts
    /// on `assignment` (LP → partition, e.g. an HPROF mapping) and
    /// migrates LPs whenever an epoch's measured load imbalance exceeds
    /// the policy threshold. The fingerprint binds the policy and the
    /// initial assignment on top of the base scenario.
    pub fn new_rebalancing(
        shared: Arc<SharedNet>,
        initial: Vec<(SimTime, LpId, NetEvent)>,
        route_cache_capacity: usize,
        max_retries: u32,
        policy: RebalancePolicy,
        assignment: Vec<u32>,
    ) -> Result<Session, MassfError> {
        let lp_count = shared.lp_count();
        let state = RebalanceSessionState {
            policy,
            partitions: assignment.iter().copied().max().map_or(1, |m| m + 1),
            assignment,
            epoch_loads: vec![0; lp_count],
            counters: RebalanceCounters::default(),
        };
        state.validate(lp_count)?;
        let mut session = Session::new(shared, initial, route_cache_capacity, max_retries);
        session.meta.fingerprint =
            rebalancing_fingerprint(session.meta.fingerprint, &policy, &state.assignment);
        session.rebalance = Some(state);
        Ok(session)
    }

    /// The rebalancer's live state, if this is a rebalancing session.
    pub fn rebalance_state(&self) -> Option<&RebalanceSessionState> {
        self.rebalance.as_ref()
    }

    /// Advance a rebalancing session to virtual time `end`, evaluating
    /// the imbalance trigger at every epoch boundary crossed and
    /// migrating LPs when it fires. Like [`Session::run_until`],
    /// segmentation is invisible: stopping at any `end` (mid-epoch
    /// included) and continuing — directly or through snapshot bytes —
    /// reproduces the straight-through run bit for bit. An `Err` leaves
    /// the session as it was before the call.
    pub fn run_rebalancing(&mut self, end: SimTime) -> Result<RebalanceOutcome, MassfError> {
        let Some(rb) = &self.rebalance else {
            return Err(MassfError::InvalidConfig(
                "session has no rebalance policy; use run_until".into(),
            ));
        };
        let cut = rb.cut(&self.shared);
        self.run(end, Some(cut))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_validation_delegates_to_config() {
        assert!(RebalancePolicy::default().validate().is_ok());
        let bad = RebalancePolicy {
            cfg: RebalanceConfig {
                epoch: SimTime::ZERO,
                ..RebalanceConfig::default()
            },
            ..RebalancePolicy::default()
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn session_state_validation_rejects_shape_mismatches() {
        let good = RebalanceSessionState {
            policy: RebalancePolicy::default(),
            partitions: 2,
            assignment: vec![0, 1, 0],
            epoch_loads: vec![0; 3],
            counters: RebalanceCounters::default(),
        };
        assert!(good.validate(3).is_ok());
        assert!(good.validate(4).is_err());
        let mut bad = good.clone();
        bad.partitions = 0;
        assert!(bad.validate(3).is_err());
        let mut bad = good.clone();
        bad.partitions = 4; // more partitions than LPs
        assert!(bad.validate(3).is_err());
        let mut bad = good.clone();
        bad.assignment[1] = 2; // >= partitions
        assert!(bad.validate(3).is_err());
        let mut bad = good.clone();
        bad.epoch_loads.pop();
        assert!(bad.validate(3).is_err());
    }

    #[test]
    fn fingerprint_binds_policy_and_assignment() {
        let policy = RebalancePolicy::default();
        let base = 0x1234_5678_9abc_def0;
        let fp = rebalancing_fingerprint(base, &policy, &[0, 1, 0]);
        assert_ne!(fp, base);
        assert_ne!(fp, rebalancing_fingerprint(base, &policy, &[0, 1, 1]));
        let other = RebalancePolicy {
            cut_weight: policy.cut_weight + 1,
            ..policy
        };
        assert_ne!(fp, rebalancing_fingerprint(base, &other, &[0, 1, 0]));
        assert_eq!(fp, rebalancing_fingerprint(base, &policy, &[0, 1, 0]));
    }

    #[test]
    fn aggregate_imbalance_is_sum_ratio() {
        let o = RebalanceOutcome {
            max_load_sum: 60,
            total_load: 80,
            ..RebalanceOutcome::default()
        };
        assert_eq!(o.aggregate_imbalance_permille(2), 1500);
        assert_eq!(
            RebalanceOutcome::default().aggregate_imbalance_permille(4),
            1000
        );
    }
}
