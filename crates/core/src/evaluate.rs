//! Partition evaluation without running the simulation (Section 3.4.3).
//!
//! A candidate partition is scored `E = Es · Ec`:
//!
//! * `Es = (MLL − C_N) / MLL` — synchronization efficiency from the
//!   achieved minimum link latency across partitions and the barrier
//!   cost `C_N` of `N` engines;
//! * `Ec = C_avg / C_max` — computational balance from the estimated
//!   per-partition loads.
//!
//! "Maximizing Es and Ec separately does not work because they represent
//! the tradeoff between simulation efficiency and available parallelism."

use massf_engine::SyncCostModel;
use massf_partition::{Partition, WeightedGraph};
use massf_topology::Network;

/// The evaluation of one candidate partition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartitionEvaluation {
    /// Achieved MLL, ms (`f64::INFINITY` when nothing is cut).
    pub mll_ms: f64,
    /// Synchronization efficiency `Es` (clamped to `[0, 1]`).
    pub es: f64,
    /// Balance efficiency `Ec ∈ (0, 1]`.
    pub ec: f64,
    /// Overall `E = Es · Ec`.
    pub e: f64,
}

/// Score `partition` of `graph` projected on `net` for `engines` nodes.
#[expect(
    clippy::float_arithmetic,
    reason = "the mapping evaluation (Es, Ec, E) is a model output computed from fixed inputs"
)]
pub fn efficiency(
    net: &Network,
    graph: &WeightedGraph,
    partition: &Partition,
    engines: usize,
    sync: &SyncCostModel,
) -> PartitionEvaluation {
    let mll_ms = net
        .cut_mll_ms(&partition.assignment)
        .unwrap_or(f64::INFINITY);
    let cost_ms = sync.cost_us(engines) / 1_000.0;
    let es = if mll_ms.is_infinite() {
        1.0
    } else {
        ((mll_ms - cost_ms) / mll_ms).clamp(0.0, 1.0)
    };
    let weights = partition.part_weights(graph);
    let max = weights.iter().copied().max().unwrap_or(0) as f64;
    let avg = weights.iter().sum::<u64>() as f64 / partition.k as f64;
    let ec = if max == 0.0 {
        1.0
    } else {
        (avg / max).clamp(0.0, 1.0)
    };
    PartitionEvaluation {
        mll_ms,
        es,
        ec,
        e: es * ec,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use massf_engine::SyncCostModel;
    use massf_topology::{AsId, NodeKind, Point};

    /// Path a-b-c-d with latencies 0.2, 5.0, 0.3 ms.
    fn path_net() -> Network {
        let mut net = Network::new();
        let ids: Vec<_> = (0..4)
            .map(|i| net.add_node(NodeKind::Router, Point::new(i as f64, 0.0), AsId(0)))
            .collect();
        net.add_link(ids[0], ids[1], 1e9, 0.2);
        net.add_link(ids[1], ids[2], 1e9, 5.0);
        net.add_link(ids[2], ids[3], 1e9, 0.3);
        net
    }

    fn graph(net: &Network) -> WeightedGraph {
        crate::weights::build_weighted_graph(
            net,
            crate::weights::VertexWeighting::Bandwidth,
            crate::weights::EdgeWeighting::Standard,
            None,
        )
    }

    #[test]
    fn es_rewards_larger_mll() {
        let net = path_net();
        let g = graph(&net);
        let sync = SyncCostModel::teragrid();
        let good = efficiency(&net, &g, &Partition::new(vec![0, 0, 1, 1], 2), 90, &sync);
        let bad = efficiency(&net, &g, &Partition::new(vec![0, 1, 1, 1], 2), 90, &sync);
        assert!(good.mll_ms > bad.mll_ms);
        assert!(good.es > bad.es);
        // C(90) ≈ 0.57 ms: Es(5ms) ≈ (5-0.57)/5 ≈ 0.885.
        assert!((good.es - 0.885).abs() < 0.02, "Es = {}", good.es);
    }

    #[test]
    fn es_zero_when_mll_below_sync_cost() {
        let net = path_net();
        let g = graph(&net);
        let sync = SyncCostModel::teragrid();
        // MLL 0.2 ms < C(90) ≈ 0.57 ms → Es clamps to 0.
        let eval = efficiency(&net, &g, &Partition::new(vec![0, 1, 2, 2], 3), 90, &sync);
        assert_eq!(eval.es, 0.0);
        assert_eq!(eval.e, 0.0);
    }

    #[test]
    fn ec_is_avg_over_max() {
        let net = path_net();
        let g = graph(&net);
        // All vertices weight 1000 except b,c = 2000. Split {a} | {b,c,d}:
        // weights 1000 vs 5000, avg 3000 → Ec = 0.6.
        let eval = efficiency(
            &net,
            &g,
            &Partition::new(vec![0, 1, 1, 1], 2),
            2,
            &SyncCostModel::new(0.0, 0.0),
        );
        assert!((eval.ec - 0.6).abs() < 1e-9, "Ec = {}", eval.ec);
    }

    #[test]
    fn uncut_partition_has_perfect_es() {
        let net = path_net();
        let g = graph(&net);
        let eval = efficiency(
            &net,
            &g,
            &Partition::new(vec![0, 0, 0, 0], 1),
            1,
            &SyncCostModel::teragrid(),
        );
        assert_eq!(eval.es, 1.0);
        assert!(eval.mll_ms.is_infinite());
    }
}
