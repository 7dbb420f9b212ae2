//! Heavy-edge-matching coarsening (the METIS "HEM" scheme).
//!
//! Each coarsening step computes a matching that prefers the heaviest
//! incident edge of every vertex, then collapses matched pairs into
//! coarse vertices. Heavy edges disappear inside coarse vertices, so the
//! edge-cut of any partition of the coarse graph equals the cut of the
//! projected fine partition — the key multilevel invariant (tested here).

use crate::graph::WeightedGraph;
use rand::prelude::*;

/// One coarsening level: the coarse graph plus the fine→coarse map.
#[derive(Debug, Clone)]
pub struct CoarseLevel {
    pub graph: WeightedGraph,
    /// `map[v]` is the coarse vertex containing fine vertex `v`.
    pub map: Vec<u32>,
}

/// Collapse `g` one level by heavy-edge matching. Vertices are visited in
/// a random order; each unmatched vertex matches its heaviest unmatched
/// neighbor (ties broken toward the smaller id for determinism).
pub fn coarsen_once(g: &WeightedGraph, rng: &mut impl Rng) -> CoarseLevel {
    let n = g.vertex_count();
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.shuffle(rng);

    const UNMATCHED: u32 = u32::MAX;
    let mut mate = vec![UNMATCHED; n];
    for &v in &order {
        let v = v as usize;
        if mate[v] != UNMATCHED {
            continue;
        }
        let mut best: Option<(u64, usize)> = None;
        for (u, w) in g.neighbors(v) {
            if u != v && mate[u] == UNMATCHED {
                let better = match best {
                    None => true,
                    Some((bw, bu)) => w > bw || (w == bw && u < bu),
                };
                if better {
                    best = Some((w, u));
                }
            }
        }
        match best {
            Some((_, u)) => {
                mate[v] = u as u32;
                mate[u] = v as u32;
            }
            None => mate[v] = v as u32, // matched with itself
        }
    }

    // Assign coarse ids: the smaller endpoint of each matched pair owns it.
    let mut map = vec![u32::MAX; n];
    let mut next = 0u32;
    for v in 0..n {
        let m = mate[v] as usize;
        if map[v] == u32::MAX {
            map[v] = next;
            map[m] = next; // self-matched: same index, harmless
            next += 1;
        }
    }
    CoarseLevel {
        graph: g.contract(&map, next as usize),
        map,
    }
}

/// Coarsen repeatedly until the graph has at most `target_vertices`
/// vertices or shrinkage stalls (< 10% reduction). Returns the level
/// stack, finest first. The stack may be empty when `g` is already small.
pub fn coarsen_to(
    g: &WeightedGraph,
    target_vertices: usize,
    rng: &mut impl Rng,
) -> Vec<CoarseLevel> {
    let mut levels: Vec<CoarseLevel> = Vec::new();
    loop {
        let current = levels.last().map_or(g, |level| &level.graph);
        let before = current.vertex_count();
        if before <= target_vertices.max(2) {
            return levels;
        }
        let level = coarsen_once(current, rng);
        let after = level.graph.vertex_count();
        // Matching stalled (e.g. star graphs): keep any progress, stop.
        let stalled = after as f64 > before as f64 * 0.9;
        if after < before {
            levels.push(level);
        }
        if stalled {
            return levels;
        }
    }
}

/// Project a coarse assignment through `map` to the finer level.
pub fn project(map: &[u32], coarse_assignment: &[u32]) -> Vec<u32> {
    map.iter()
        .map(|&cv| coarse_assignment[cv as usize])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand_chacha::ChaCha8Rng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(42)
    }

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
    fn coarsening_shrinks_and_preserves_total_weight() {
        let g = grid(8, 8);
        let lvl = coarsen_once(&g, &mut rng());
        assert!(lvl.graph.vertex_count() < g.vertex_count());
        assert!(lvl.graph.vertex_count() >= g.vertex_count() / 2);
        assert_eq!(lvl.graph.total_vertex_weight(), g.total_vertex_weight());
    }

    #[test]
    fn map_is_total_and_in_range() {
        let g = grid(6, 6);
        let lvl = coarsen_once(&g, &mut rng());
        let cn = lvl.graph.vertex_count() as u32;
        assert_eq!(lvl.map.len(), g.vertex_count());
        assert!(lvl.map.iter().all(|&c| c < cn));
        // Every coarse vertex contains 1 or 2 fine vertices.
        let mut count = vec![0u32; cn as usize];
        for &c in &lvl.map {
            count[c as usize] += 1;
        }
        assert!(count.iter().all(|&c| (1..=2).contains(&c)));
    }

    #[test]
    fn projected_cut_equals_coarse_cut() {
        // Multilevel invariant: cut(coarse partition) = cut(projection).
        let g = grid(7, 5);
        let mut r = rng();
        let lvl = coarsen_once(&g, &mut r);
        let cn = lvl.graph.vertex_count();
        // Arbitrary 2-way assignment of coarse vertices.
        let coarse: Vec<u32> = (0..cn).map(|v| (v % 2) as u32).collect();
        let fine = project(&lvl.map, &coarse);
        assert_eq!(lvl.graph.edge_cut(&coarse), g.edge_cut(&fine));
    }

    #[test]
    fn heavy_edges_preferentially_collapsed() {
        // 4-clique where 0-1 and 2-3 carry weight 100 and all other edges
        // weight 1: whichever vertex is visited first, its heaviest
        // unmatched neighbor is its 100-partner, so both heavy edges
        // collapse for every visit order.
        let g = WeightedGraph::from_edges(
            vec![1, 1, 1, 1],
            &[
                (0, 1, 100),
                (2, 3, 100),
                (0, 2, 1),
                (0, 3, 1),
                (1, 2, 1),
                (1, 3, 1),
            ],
        );
        for seed in 0..20 {
            let mut r = ChaCha8Rng::seed_from_u64(seed);
            let lvl = coarsen_once(&g, &mut r);
            assert_eq!(lvl.map[0], lvl.map[1], "seed {seed}");
            assert_eq!(lvl.map[2], lvl.map[3], "seed {seed}");
        }
    }

    #[test]
    fn coarsen_to_reaches_target() {
        let g = grid(16, 16);
        let levels = coarsen_to(&g, 20, &mut rng());
        assert!(!levels.is_empty());
        let coarsest = &levels.last().expect("levels is non-empty").graph;
        assert!(
            coarsest.vertex_count() <= 40,
            "got {}",
            coarsest.vertex_count()
        );
        assert_eq!(coarsest.total_vertex_weight(), g.total_vertex_weight());
    }

    #[test]
    fn small_graph_not_coarsened() {
        let g = grid(2, 2);
        let levels = coarsen_to(&g, 10, &mut rng());
        assert!(levels.is_empty());
    }
}
