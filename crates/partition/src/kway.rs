//! The multilevel k-way partitioner (METIS-style).
//!
//! `metis_kway` is the partitioner the paper plugs all of its mapping
//! approaches into ("The METIS graph partitioner used in MaSSF can
//! partition a graph with 10,000 vertices in about 10 seconds",
//! Section 3.4.3 — ours is considerably faster; see the `partitioner`
//! bench).

use crate::coarsen::{coarsen_to, project};
use crate::graph::WeightedGraph;
use crate::initial::{greedy_growing, repair_empty_parts};
use crate::partition::Partition;
use crate::refine::refine;
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

/// Allowed maximum part weight as a multiple of ideal (METIS's 5%).
pub const BALANCE_TOLERANCE: f64 = 1.05;
/// Coarsest-graph size factor: coarsening stops at `SIZE_FACTOR · k`
/// vertices (bounded below by 40).
pub const SIZE_FACTOR: usize = 30;
/// Initial-partition attempts on the coarsest graph; the best by
/// (feasible balance, cut) wins.
pub const INITIAL_TRIES: usize = 4;
/// Seed of [`metis_kway`]'s RNG, and the seed the mappers give the
/// seeded baselines.
pub const SEED: u64 = 0xBEEF;

/// Multilevel partitioner configuration.
#[derive(Debug, Clone, Copy)]
pub struct KwayConfig {
    /// Refinement passes per level.
    pub refine_passes: usize,
}

impl Default for KwayConfig {
    fn default() -> Self {
        KwayConfig { refine_passes: 8 }
    }
}

/// Partition `g` into `k` parts, multilevel k-way.
pub fn metis_kway(g: &WeightedGraph, k: usize, cfg: &KwayConfig) -> Partition {
    assert!(k >= 1);
    let n = g.vertex_count();
    if k == 1 || n == 0 {
        return Partition::new(vec![0; n], k);
    }
    if k >= n {
        // One vertex per part; surplus parts stay empty.
        return Partition::new((0..n as u32).collect(), k);
    }

    let mut rng = ChaCha8Rng::seed_from_u64(SEED);

    // Coarsen.
    let target = (SIZE_FACTOR * k).max(40);
    let levels = coarsen_to(g, target, &mut rng);
    let coarsest: &WeightedGraph = levels.last().map(|l| &l.graph).unwrap_or(g);

    // Initial partition on the coarsest graph: several tries, keep best.
    let mut best: Option<(bool, u64, Vec<u32>)> = None;
    for _ in 0..INITIAL_TRIES {
        let mut a = greedy_growing(coarsest, k, &mut rng);
        refine(coarsest, k, &mut a, cfg.refine_passes, &mut rng);
        let p = Partition::new(a.clone(), k);
        #[expect(
            clippy::float_arithmetic,
            reason = "compares one balance with a constant bound"
        )]
        let feasible = p.balance(coarsest) <= BALANCE_TOLERANCE + 1e-9;
        let cut = coarsest.edge_cut(&a);
        let better = match &best {
            None => true,
            Some((bf, bc, _)) => (feasible && !bf) || (feasible == *bf && cut < *bc),
        };
        if better {
            best = Some((feasible, cut, a));
        }
    }
    #[expect(clippy::expect_used, reason = "the try loop runs at least once")]
    let mut assignment = best.expect("at least one try").2;

    // Uncoarsen: project through the levels, refining at each.
    for level_idx in (0..levels.len()).rev() {
        assignment = project(&levels[level_idx].map, &assignment);
        let fine_graph = if level_idx == 0 {
            g
        } else {
            &levels[level_idx - 1].graph
        };
        refine(fine_graph, k, &mut assignment, cfg.refine_passes, &mut rng);
    }
    repair_empty_parts(g, k, &mut assignment);
    Partition::new(assignment, k)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid(nx: usize, ny: usize) -> WeightedGraph {
        let id = |x: usize, y: usize| (y * nx + x) as u32;
        let mut edges = Vec::new();
        for y in 0..ny {
            for x in 0..nx {
                if x + 1 < nx {
                    edges.push((id(x, y), id(x + 1, y), 1));
                }
                if y + 1 < ny {
                    edges.push((id(x, y), id(x, y + 1), 1));
                }
            }
        }
        WeightedGraph::from_edges(vec![1; nx * ny], &edges)
    }

    #[test]
    fn partitions_are_valid_and_complete() {
        let g = grid(12, 12);
        for k in [2, 4, 7] {
            let p = metis_kway(&g, k, &KwayConfig::default());
            assert_eq!(p.len(), 144);
            assert_eq!(p.used_parts(), k, "k={k}");
        }
    }

    #[test]
    fn balance_within_tolerance_on_uniform_grid() {
        let g = grid(16, 16);
        for k in [2, 4, 8] {
            let p = metis_kway(&g, k, &KwayConfig::default());
            assert!(
                p.balance(&g) <= BALANCE_TOLERANCE + 0.08,
                "k={k} balance {}",
                p.balance(&g)
            );
        }
    }

    #[test]
    fn cut_quality_beats_random_by_far() {
        let g = grid(20, 20);
        let p = metis_kway(&g, 4, &KwayConfig::default());
        let random = crate::baselines::random_partition(g.vertex_count(), 4, 7);
        assert!(
            p.edge_cut(&g) * 3 < random.edge_cut(&g),
            "metis cut {} vs random {}",
            p.edge_cut(&g),
            random.edge_cut(&g)
        );
    }

    #[test]
    fn grid_bisection_near_optimal() {
        // Optimal 2-cut of a 16×16 grid is 16; accept ≤ 2× optimal.
        let g = grid(16, 16);
        let p = metis_kway(&g, 2, &KwayConfig::default());
        assert!(p.edge_cut(&g) <= 32, "cut {}", p.edge_cut(&g));
    }

    #[test]
    fn k_one_and_k_ge_n_edge_cases() {
        let g = grid(3, 3);
        let p1 = metis_kway(&g, 1, &KwayConfig::default());
        assert!(p1.assignment.iter().all(|&p| p == 0));
        let p9 = metis_kway(&g, 9, &KwayConfig::default());
        assert_eq!(p9.used_parts(), 9);
        let p20 = metis_kway(&g, 20, &KwayConfig::default());
        assert_eq!(p20.used_parts(), 9); // only 9 vertices exist
    }

    #[test]
    fn deterministic_given_seed() {
        let g = grid(10, 10);
        let a = metis_kway(&g, 4, &KwayConfig::default());
        let b = metis_kway(&g, 4, &KwayConfig::default());
        assert_eq!(a.assignment, b.assignment);
    }

    #[test]
    fn respects_vertex_weights() {
        // One mega-vertex (weight 50) and 50 unit vertices in a path;
        // k=2 should isolate the mega-vertex region rather than split by
        // count.
        let n = 51;
        let mut vw = vec![1u64; n];
        vw[0] = 50;
        let edges: Vec<(u32, u32, u64)> = (1..n as u32).map(|i| (i - 1, i, 1)).collect();
        let g = WeightedGraph::from_edges(vw, &edges);
        let p = metis_kway(&g, 2, &KwayConfig::default());
        let w = p.part_weights(&g);
        let max = *w.iter().max().expect("two parts requested");
        assert!(max <= 60, "part weights {w:?}");
    }
}
