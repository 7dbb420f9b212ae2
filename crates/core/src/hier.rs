//! Hierarchical partitioning — the paper's contribution (Section 3.4).
//!
//! The flat mappers achieve tiny MLLs on large networks because the
//! partitioner optimizes total edge-cut, to which any single
//! small-latency edge contributes little (Section 3.4.2). The fix:
//!
//! ```text
//! Input:  graph G, partition N, and synchronization cost C
//! Output: the best partition P of graph G
//! Hierarchical Partition:
//!   Set the initial Threshold of MLL (Tmll)
//!   Loop through all reasonable Tmll:
//!     Get the dumped graph Gd(Tmll)
//!     Partition the Gd(Tmll) using an existing partitioner → P(Tmll)
//!     Evaluate the partition result Pd(Tmll)
//!   Pick up the best partition Pd(Tmll)
//!   Get the best partition P of original G
//! ```
//!
//! `Gd(Tmll)` merges every edge with latency < `Tmll` (union-find), so
//! no such edge can be cut — the worst-case MLL is guaranteed ≥ `Tmll`.
//! Candidates are scored with `E = Es · Ec` ([`crate::evaluate`]);
//! the sweep starts just above the synchronization cost ("we require a
//! Tmll to be larger than the synchronization cost") and steps by 0.1 ms
//! ("0.1ms in our experiments").

use crate::evaluate::{efficiency, PartitionEvaluation};
use crate::mappers::MappingConfig;
use massf_partition::{metis_kway, Partition, UnionFind, WeightedGraph};
use massf_topology::Network;
use std::sync::Arc;

/// One swept candidate.
#[derive(Debug, Clone)]
pub struct HierCandidate {
    pub tmll_ms: f64,
    /// Vertices of the reduced ("dumped") graph.
    pub reduced_vertices: usize,
    pub evaluation: PartitionEvaluation,
}

/// Result of the hierarchical partition.
#[derive(Debug, Clone)]
pub struct HierResult {
    /// The winning partition of the *original* graph.
    pub partition: Partition,
    /// The winning threshold.
    pub tmll_ms: f64,
    /// Its evaluation.
    pub evaluation: PartitionEvaluation,
    /// The full sweep (for ablation studies / Figure-7-style analysis).
    pub candidates: Vec<HierCandidate>,
}

/// Merge all vertices joined by links with `latency < tmll_ms`,
/// returning the reduced graph and the node → cluster map.
pub fn reduce_graph(
    net: &Network,
    graph: &WeightedGraph,
    tmll_ms: f64,
) -> (WeightedGraph, Vec<u32>) {
    let n = graph.vertex_count();
    debug_assert_eq!(n, net.node_count());
    let mut uf = UnionFind::new(n);
    for link in &net.links {
        if link.latency_ms < tmll_ms {
            uf.union(link.a.index(), link.b.index());
        }
    }
    let (labels, clusters) = uf.dense_labels();
    (graph.contract(&labels, clusters), labels)
}

/// Incrementally coarsened view of a graph along an ascending sweep of
/// latency thresholds.
///
/// Merge sets only grow as `Tmll` increases, so each threshold's
/// reduced ("dumped") graph can be built by contracting the *previous*
/// threshold's reduced graph rather than the full graph — the per-step
/// cost tracks the (rapidly shrinking) quotient size instead of the
/// original network. The result is bit-identical to
/// [`reduce_graph`] at every threshold: dense cluster labels are
/// ordered by smallest original member, an ordering composition of
/// contractions preserves, and edge/vertex weights are sums that
/// re-associate exactly (see the `incremental_*` tests and the
/// proptest invariant).
pub struct SweepReducer {
    /// Network links as `(latency_ms, a, b)`, ascending by latency.
    sorted_links: Vec<(f64, u32, u32)>,
    /// First entry of `sorted_links` not yet merged.
    next_link: usize,
    /// The current reduced graph, shared with the sweep's batch jobs.
    reduced: Arc<WeightedGraph>,
    /// Original vertex → current reduced-graph cluster.
    labels: Vec<u32>,
}

impl SweepReducer {
    /// Start a sweep over `graph` (threshold 0: nothing merged).
    pub fn new(net: &Network, graph: &WeightedGraph) -> Self {
        let n = graph.vertex_count();
        debug_assert_eq!(n, net.node_count());
        let mut sorted_links: Vec<(f64, u32, u32)> = net
            .links
            .iter()
            .map(|l| (l.latency_ms, l.a.index() as u32, l.b.index() as u32))
            .collect();
        sorted_links.sort_by(|x, y| x.0.total_cmp(&y.0));
        SweepReducer {
            sorted_links,
            next_link: 0,
            reduced: Arc::new(graph.clone()),
            labels: (0..n as u32).collect(),
        }
    }

    /// The reduced graph at the last advanced threshold.
    pub fn reduced(&self) -> &WeightedGraph {
        &self.reduced
    }

    /// Original vertex → reduced cluster at the last threshold.
    pub fn labels(&self) -> &[u32] {
        &self.labels
    }

    /// Advance to `tmll_ms`, merging every link with a strictly smaller
    /// latency. Thresholds must be passed in ascending order.
    pub fn advance(&mut self, tmll_ms: f64) {
        let k = self.reduced.vertex_count();
        let mut uf = UnionFind::new(k);
        let mut merged_any = false;
        while self.next_link < self.sorted_links.len()
            && self.sorted_links[self.next_link].0 < tmll_ms
        {
            let (_, a, b) = self.sorted_links[self.next_link];
            let (ca, cb) = (self.labels[a as usize], self.labels[b as usize]);
            if ca != cb {
                merged_any |= uf.union(ca as usize, cb as usize);
            }
            self.next_link += 1;
        }
        if !merged_any {
            return;
        }
        let (relabel, clusters) = uf.dense_labels();
        self.reduced = Arc::new(self.reduced.contract(&relabel, clusters));
        for l in self.labels.iter_mut() {
            *l = relabel[*l as usize];
        }
    }
}

/// Run the hierarchical partition of `graph` (weights chosen by the
/// caller: bandwidth ⇒ HTOP, profile ⇒ HPROF) onto `cfg.engines`
/// parts, sweeping at most `cfg.hier_max_steps` thresholds
/// `cfg.hier_step_ms` apart.
///
/// The sweep is streamed in batches of `4 × current_threads()`
/// thresholds: a sequential pass builds the batch's reduced graphs
/// incrementally ([`SweepReducer`]), the batch is partitioned and
/// evaluated concurrently on the shared worker pool (`massf-parutil`;
/// thread count from `--threads` / `MASSF_THREADS` / available
/// parallelism), its candidates are folded into the result in
/// threshold order, and the batch is dropped — what is held at once is
/// one batch of reduced graphs and the best partition so far, not the
/// whole sweep. Results are bit-identical to a sequential sweep at any
/// thread count (batch boundaries move, the fold order does not):
/// strictly higher `E` wins, so ties keep the lowest `Tmll`.
///
/// # Panics
/// Panics when `engines == 0` or the graph is empty.
#[expect(
    clippy::float_arithmetic,
    reason = "the threshold sweep's latencies are a function of the config alone, computed step by step in a fixed order"
)]
pub fn hierarchical_partition(
    net: &Network,
    graph: &WeightedGraph,
    cfg: &MappingConfig,
) -> HierResult {
    assert!(cfg.engines >= 1);
    assert!(graph.vertex_count() > 0);
    let sync_ms = cfg.sync.cost_us(cfg.engines) / 1_000.0;
    // "We require a Tmll to be larger than the synchronization cost":
    // start at the first step-multiple above it.
    let first_step = (sync_ms / cfg.hier_step_ms).floor() as usize + 1;

    // Sequential, cheap: incremental reduction per threshold, until the
    // reduced graph is coarser than the engine count (no parallelism
    // left).
    let mut reducer = SweepReducer::new(net, graph);
    let mut jobs = (0..cfg.hier_max_steps)
        .map_while(|step| {
            let tmll_ms = (first_step + step) as f64 * cfg.hier_step_ms;
            reducer.advance(tmll_ms);
            (reducer.reduced().vertex_count() >= cfg.engines).then(|| {
                (
                    tmll_ms,
                    Arc::clone(&reducer.reduced),
                    reducer.labels().to_vec(),
                )
            })
        })
        .fuse();
    let batch_len = 4 * massf_parutil::current_threads();
    let mut candidates = Vec::new();
    let mut best: Option<(Partition, f64, PartitionEvaluation)> = None;
    loop {
        let batch: Vec<(f64, Arc<WeightedGraph>, Vec<u32>)> =
            jobs.by_ref().take(batch_len).collect();
        if batch.is_empty() {
            break;
        }

        // Parallel: partition + evaluate every candidate of the batch.
        let evaluated: Vec<(HierCandidate, Partition)> =
            massf_parutil::par_map(&batch, |(tmll_ms, reduced, labels)| {
                let reduced_partition = metis_kway(reduced, cfg.engines, &cfg.kway);
                // Project to the original graph.
                let assignment: Vec<u32> = labels
                    .iter()
                    .map(|&c| reduced_partition.assignment[c as usize])
                    .collect();
                let partition = Partition::new(assignment, cfg.engines);
                let eval = efficiency(net, graph, &partition, cfg.engines, &cfg.sync);
                debug_assert!(
                    eval.mll_ms >= *tmll_ms || eval.mll_ms.is_infinite(),
                    "reduction must guarantee MLL ≥ Tmll ({} < {tmll_ms})",
                    eval.mll_ms
                );
                (
                    HierCandidate {
                        tmll_ms: *tmll_ms,
                        reduced_vertices: reduced.vertex_count(),
                        evaluation: eval,
                    },
                    partition,
                )
            });

        // Sequential: stable winner selection in threshold order, ties
        // keep the earliest (lowest) threshold.
        for (candidate, partition) in evaluated {
            let better = match &best {
                None => true,
                Some((_, _, be)) => candidate.evaluation.e > be.e,
            };
            if better {
                best = Some((partition, candidate.tmll_ms, candidate.evaluation));
            }
            candidates.push(candidate);
        }
    }

    let (partition, tmll_ms, evaluation) = best.unwrap_or_else(|| {
        // Even the first threshold over-coarsened (tiny test graphs):
        // fall back to a flat partition.
        let partition = metis_kway(graph, cfg.engines, &cfg.kway);
        let eval = efficiency(net, graph, &partition, cfg.engines, &cfg.sync);
        (partition, 0.0, eval)
    });
    HierResult {
        partition,
        tmll_ms,
        evaluation,
        candidates,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::weights::{build_weighted_graph, EdgeWeighting, VertexWeighting};
    use massf_engine::SyncCostModel;
    use massf_partition::KwayConfig;
    use massf_topology::{generate_flat_network, FlatTopologyConfig};

    fn setup() -> (massf_topology::Network, WeightedGraph) {
        let net = generate_flat_network(&FlatTopologyConfig {
            routers: 400,
            hosts: 100,
            metro_count: 8,
            ..FlatTopologyConfig::tiny()
        });
        let g = build_weighted_graph(
            &net,
            VertexWeighting::Bandwidth,
            EdgeWeighting::Standard,
            None,
        );
        (net, g)
    }

    fn cfg(engines: usize) -> MappingConfig {
        MappingConfig {
            sync: SyncCostModel::new(50.0, 50.0), // small cluster model
            hier_max_steps: 60,
            ..MappingConfig::new(engines)
        }
    }

    #[test]
    fn reduction_merges_below_threshold_only() {
        let (net, g) = setup();
        let (reduced, labels) = reduce_graph(&net, &g, 0.5);
        assert!(reduced.vertex_count() < g.vertex_count());
        assert_eq!(reduced.total_vertex_weight(), g.total_vertex_weight());
        for link in &net.links {
            let same = labels[link.a.index()] == labels[link.b.index()];
            if link.latency_ms < 0.5 {
                assert!(same, "sub-threshold link not merged");
            }
            // Links ≥ threshold may still be same-cluster via a short path.
        }
    }

    #[test]
    fn reduction_with_zero_threshold_is_identity_sized() {
        let (net, g) = setup();
        let (reduced, _) = reduce_graph(&net, &g, 0.0);
        assert_eq!(reduced.vertex_count(), g.vertex_count());
    }

    #[test]
    fn guarantees_mll_at_least_tmll() {
        let (net, g) = setup();
        let r = hierarchical_partition(&net, &g, &cfg(8));
        assert!(r.tmll_ms > 0.0);
        assert!(
            r.evaluation.mll_ms >= r.tmll_ms,
            "MLL {} < Tmll {}",
            r.evaluation.mll_ms,
            r.tmll_ms
        );
    }

    #[test]
    fn hier_beats_flat_on_mll() {
        let (net, g) = setup();
        let flat = metis_kway(&g, 8, &KwayConfig::default());
        let flat_mll = net.cut_mll_ms(&flat.assignment).unwrap_or(f64::INFINITY);
        let r = hierarchical_partition(&net, &g, &cfg(8));
        assert!(
            r.evaluation.mll_ms > flat_mll,
            "hier MLL {} should beat flat {}",
            r.evaluation.mll_ms,
            flat_mll
        );
    }

    #[test]
    fn sweep_produces_multiple_candidates_and_picks_max_e() {
        let (net, g) = setup();
        let r = hierarchical_partition(&net, &g, &cfg(8));
        assert!(r.candidates.len() >= 2, "sweep too short");
        let max_e = r
            .candidates
            .iter()
            .map(|c| c.evaluation.e)
            .fold(f64::NEG_INFINITY, f64::max);
        assert!((r.evaluation.e - max_e).abs() < 1e-12);
    }

    #[test]
    fn uses_all_engines() {
        let (net, g) = setup();
        let r = hierarchical_partition(&net, &g, &cfg(8));
        assert_eq!(r.partition.used_parts(), 8);
    }

    #[test]
    fn stops_when_parallelism_exhausted() {
        let (net, g) = setup();
        // With many engines, large thresholds leave fewer clusters than
        // engines; the sweep must terminate early rather than loop.
        let r = hierarchical_partition(&net, &g, &cfg(64));
        let last = r.candidates.last().expect("some candidates");
        assert!(last.reduced_vertices >= 64);
    }

    #[test]
    fn deterministic() {
        let (net, g) = setup();
        let a = hierarchical_partition(&net, &g, &cfg(8));
        let b = hierarchical_partition(&net, &g, &cfg(8));
        assert_eq!(a.partition.assignment, b.partition.assignment);
        assert_eq!(a.tmll_ms, b.tmll_ms);
    }

    #[test]
    fn incremental_reducer_matches_from_scratch_at_every_threshold() {
        let (net, g) = setup();
        let mut reducer = SweepReducer::new(&net, &g);
        for step in 0..30 {
            let tmll_ms = step as f64 * 0.1;
            reducer.advance(tmll_ms);
            let (scratch, scratch_labels) = reduce_graph(&net, &g, tmll_ms);
            assert_eq!(
                reducer.reduced(),
                &scratch,
                "reduced graph diverged at Tmll = {tmll_ms}"
            );
            assert_eq!(
                reducer.labels(),
                &scratch_labels[..],
                "labels diverged at Tmll = {tmll_ms}"
            );
        }
    }

    #[test]
    fn incremental_reducer_is_thread_count_invariant() {
        let (net, g) = setup();
        let run = |threads| {
            massf_parutil::with_threads(threads, || {
                let mut r = SweepReducer::new(&net, &g);
                r.advance(1.5);
                (r.reduced().clone(), r.labels().to_vec())
            })
        };
        assert_eq!(run(1), run(4));
    }

    /// The sweep's full result, pinned to the values the all-at-once
    /// sweep (every threshold's job held, one `par_map`) produced on
    /// this world. Batch boundaries move with the thread count; the
    /// winner and the candidate list must not.
    #[test]
    fn streamed_sweep_matches_the_recorded_result_at_every_thread_count() {
        let (net, g) = setup();
        for threads in [1, 2, 4] {
            let r =
                massf_parutil::with_threads(threads, || hierarchical_partition(&net, &g, &cfg(8)));
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for &a in &r.partition.assignment {
                for b in a.to_le_bytes() {
                    h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
            assert_eq!(
                (r.tmll_ms.to_bits(), h, r.candidates.len()),
                (5.6000000000000005f64.to_bits(), 0x1706_d7de_a386_d3d7, 60),
                "threads = {threads}, tmll_ms = {}",
                r.tmll_ms
            );
        }
    }

    #[test]
    fn parallel_sweep_matches_sequential() {
        let (net, g) = setup();
        let seq = massf_parutil::with_threads(1, || hierarchical_partition(&net, &g, &cfg(8)));
        let par = massf_parutil::with_threads(4, || hierarchical_partition(&net, &g, &cfg(8)));
        assert_eq!(seq.partition.assignment, par.partition.assignment);
        assert_eq!(seq.tmll_ms, par.tmll_ms);
        assert_eq!(seq.evaluation.e.to_bits(), par.evaluation.e.to_bits());
        assert_eq!(seq.candidates.len(), par.candidates.len());
        for (a, b) in seq.candidates.iter().zip(&par.candidates) {
            assert_eq!(a.tmll_ms, b.tmll_ms);
            assert_eq!(a.reduced_vertices, b.reduced_vertices);
            assert_eq!(a.evaluation.e.to_bits(), b.evaluation.e.to_bits());
        }
    }
}

#[cfg(test)]
mod sweep_shape_tests {
    use super::*;
    use crate::weights::{build_weighted_graph, EdgeWeighting, VertexWeighting};
    use massf_engine::SyncCostModel;
    use massf_topology::{generate_flat_network, FlatTopologyConfig};

    /// The explicit tradeoff of Section 3.4.3: along the sweep, larger
    /// thresholds must never shrink the quotient graph's guaranteed MLL,
    /// and must monotonically shrink the reduced graph (less available
    /// parallelism) — "Larger Es means better simulation efficiency, but
    /// it also means less parallelism available."
    #[test]
    fn sweep_trades_parallelism_for_decoupling() {
        let net = generate_flat_network(&FlatTopologyConfig {
            routers: 500,
            hosts: 100,
            metro_count: 24,
            ..FlatTopologyConfig::tiny()
        });
        let g = build_weighted_graph(
            &net,
            VertexWeighting::Bandwidth,
            EdgeWeighting::Standard,
            None,
        );
        let cfg = MappingConfig {
            sync: SyncCostModel::new(30.0, 40.0),
            hier_step_ms: 0.2,
            hier_max_steps: 40,
            ..MappingConfig::new(6)
        };
        let r = hierarchical_partition(&net, &g, &cfg);
        assert!(r.candidates.len() >= 3);
        for w in r.candidates.windows(2) {
            assert!(
                w[1].reduced_vertices <= w[0].reduced_vertices,
                "reduction must be monotone: {} then {}",
                w[0].reduced_vertices,
                w[1].reduced_vertices
            );
            assert!(w[1].tmll_ms > w[0].tmll_ms);
        }
        // Each candidate's achieved MLL respects its own threshold.
        for c in &r.candidates {
            assert!(
                c.evaluation.mll_ms >= c.tmll_ms,
                "candidate at {} got MLL {}",
                c.tmll_ms,
                c.evaluation.mll_ms
            );
        }
        // The winner strictly beats at least one other candidate (the
        // sweep is doing real selection work, not returning the first).
        let min_e = r
            .candidates
            .iter()
            .map(|c| c.evaluation.e)
            .fold(f64::INFINITY, f64::min);
        assert!(r.evaluation.e > min_e);
    }
}
