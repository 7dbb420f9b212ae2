//! Cluster synchronization cost: the paper's Figure 5.
//!
//! Figure 5 reports the global-barrier cost of the TeraGrid NCSA/SDSC
//! Itanium-2 cluster (Myrinet 2000, MPICH-GM) as a function of the
//! number of simulation-engine nodes: "the time used by the simulation
//! engine nodes for global synchronization, which need to be executed
//! every MLL time". The anchor quoted in the text is **~0.58 ms for 100
//! nodes** (Section 3.4.1), with the curve rising from tens of
//! microseconds at 2 nodes toward ~0.8 ms at 112+.
//!
//! A dissemination/tree barrier costs `Θ(log N)` message rounds, so we
//! model `C(N) = a + b·log2(N)` and fit `(a, b)` to the figure's
//! anchors. [`SyncCostModel::teragrid`] is that fit; a custom model can
//! be built with [`SyncCostModel::new`] for sensitivity studies
//! (ablation bench `sync_model`).

use crate::time::SimTime;

/// Affine-in-log2 synchronization cost model `C(N) = a + b·log2(N)`.
#[derive(Debug, Clone, Copy)]
pub struct SyncCostModel {
    /// Fixed cost per barrier, microseconds.
    pub base_us: f64,
    /// Cost per doubling of the node count, microseconds.
    pub per_log2_us: f64,
}

impl SyncCostModel {
    /// A custom model.
    pub fn new(base_us: f64, per_log2_us: f64) -> Self {
        SyncCostModel {
            base_us,
            per_log2_us,
        }
    }

    /// Fit to the paper's Figure 5 (TeraGrid Itanium-2 / Myrinet):
    /// `C(100) ≈ 580 µs`, `C(2) ≈ 100 µs`.
    pub fn teragrid() -> Self {
        // b = (580 - 100) / (log2(100) - 1) ≈ 85.1; a = 100 - b.
        SyncCostModel::new(14.9, 85.1)
    }

    /// Barrier cost for `n` engine nodes, microseconds. 1 node needs no
    /// synchronization.
    pub fn cost_us(&self, n: usize) -> f64 {
        if n <= 1 {
            return 0.0;
        }
        self.base_us + self.per_log2_us * (n as f64).log2()
    }

    /// Barrier cost as virtual time.
    pub fn cost(&self, n: usize) -> SimTime {
        SimTime::from_ms_f64(self.cost_us(n) / 1_000.0)
    }
}

// The wall-clock *measurement* companion to this model
// (`measure_barrier_cost_us`) lives in the bench crate: the engine is
// deterministic-critical and must never read host time (clippy's
// `disallowed_types` bans `Instant` and `SystemTime` here).

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn teragrid_anchors_match_paper() {
        let m = SyncCostModel::teragrid();
        // ~0.58 ms at 100 nodes (Section 3.4.1).
        let c100 = m.cost_us(100);
        assert!((c100 - 580.0).abs() < 15.0, "C(100) = {c100}");
        let c2 = m.cost_us(2);
        assert!((c2 - 100.0).abs() < 5.0, "C(2) = {c2}");
    }

    #[test]
    fn monotone_in_node_count() {
        let m = SyncCostModel::teragrid();
        let mut prev = 0.0;
        for n in [1, 2, 6, 16, 48, 80, 112, 128] {
            let c = m.cost_us(n);
            assert!(c >= prev, "C({n}) = {c} < {prev}");
            prev = c;
        }
    }

    #[test]
    fn single_node_costs_nothing() {
        assert_eq!(SyncCostModel::teragrid().cost_us(1), 0.0);
        assert_eq!(SyncCostModel::teragrid().cost(1), SimTime::ZERO);
    }

    #[test]
    fn cost_as_simtime_roundtrips() {
        let m = SyncCostModel::teragrid();
        let t = m.cost(90);
        assert!((t.as_ms_f64() * 1000.0 - m.cost_us(90)).abs() < 0.01);
    }
}
