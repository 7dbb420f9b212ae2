//! Initial k-way partitioning of the coarsest graph by greedy graph
//! growing (the METIS "GGGP" scheme).
//!
//! Parts are grown one at a time from a seed vertex, absorbing the
//! frontier vertex with the strongest connection to the growing region
//! until the part reaches its weight target. The last part takes the
//! remainder. A repair step guarantees no part is empty whenever
//! `k <= n`.

use crate::graph::WeightedGraph;
use rand::prelude::*;
use std::collections::BinaryHeap;

/// Grow a k-way partition. Returns `assignment[v] ∈ 0..k`.
pub fn greedy_growing(g: &WeightedGraph, k: usize, rng: &mut impl Rng) -> Vec<u32> {
    let n = g.vertex_count();
    assert!(k >= 1);
    if k == 1 || n == 0 {
        return vec![0; n];
    }
    if k >= n {
        return (0..n as u32).collect();
    }

    const FREE: u32 = u32::MAX;
    let total = g.total_vertex_weight();
    let mut assignment = vec![FREE; n];
    let mut remaining_weight = total;
    let mut unassigned = n;

    for part in 0..k - 1 {
        if unassigned == 0 {
            break;
        }
        let parts_left = (k - part) as u64;
        let target = remaining_weight.div_ceil(parts_left);

        // Seed: a random unassigned vertex, biased toward the periphery
        // (smallest incident weight) by sampling a few candidates.
        #[expect(
            clippy::expect_used,
            reason = "the loop runs while a vertex is unassigned, and each probe finds one"
        )]
        let seed = {
            let mut best: Option<(u64, usize)> = None;
            for _ in 0..8 {
                let mut v = rng.gen_range(0..n);
                // Linear probe to an unassigned vertex.
                while assignment[v] != FREE {
                    v = (v + 1) % n;
                }
                let iw = g.incident_weight(v);
                if best.is_none_or(|(bw, _)| iw < bw) {
                    best = Some((iw, v));
                }
            }
            best.expect("unassigned vertex exists").1
        };

        // Grow by max-connection frontier (lazy-deletion max-heap).
        let mut part_weight = 0u64;
        let mut gain = vec![0u64; n]; // connection weight into the region
        let mut heap: BinaryHeap<(u64, usize)> = BinaryHeap::new();
        heap.push((0, seed));
        while part_weight < target {
            let Some((gw, v)) = heap.pop() else { break };
            if assignment[v] != FREE || gw < gain[v] {
                continue; // stale entry
            }
            // Stop before overshooting badly: admit the vertex only if the
            // part stays closer to target than it is now, unless empty.
            let vw = g.vertex_weight(v);
            if part_weight > 0 && part_weight + vw > target + target / 2 {
                continue;
            }
            assignment[v] = part as u32;
            part_weight += vw;
            unassigned -= 1;
            for (u, w) in g.neighbors(v) {
                if assignment[u] == FREE {
                    gain[u] += w;
                    heap.push((gain[u], u));
                }
            }
            if unassigned == 0 {
                break;
            }
        }
        remaining_weight -= part_weight;
        // If the region got disconnected from all frontiers (graph may be
        // disconnected), the next seed selection handles it.
    }

    // Remainder goes to the last part.
    for a in assignment.iter_mut() {
        if *a == FREE {
            *a = (k - 1) as u32;
        }
    }

    repair_empty_parts(g, k, &mut assignment);
    assignment
}

/// Ensure every part in `0..k` is non-empty (requires `k <= n`): move the
/// lightest vertex out of the largest multi-vertex part into each empty
/// part.
pub fn repair_empty_parts(g: &WeightedGraph, k: usize, assignment: &mut [u32]) {
    let n = assignment.len();
    if k > n {
        return;
    }
    loop {
        let mut count = vec![0usize; k];
        for &p in assignment.iter() {
            count[p as usize] += 1;
        }
        let Some(empty) = count.iter().position(|&c| c == 0) else {
            return;
        };
        // Donor: part with the most vertices.
        #[expect(clippy::expect_used, reason = "k >= 1 parts, so count is non-empty")]
        let donor = count
            .iter()
            .enumerate()
            .max_by_key(|&(_, &c)| c)
            .map(|(p, _)| p as u32)
            .expect("k >= 1");
        // Move the donor's lightest vertex.
        #[expect(
            clippy::expect_used,
            reason = "the donor holds the most vertices and some part is empty, so it holds at least two"
        )]
        let v = (0..n)
            .filter(|&v| assignment[v] == donor)
            .min_by_key(|&v| g.vertex_weight(v))
            .expect("donor non-empty");
        assignment[v] = empty as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand_chacha::ChaCha8Rng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(1)
    }

    fn path(n: usize) -> WeightedGraph {
        let edges: Vec<(u32, u32, u64)> = (1..n).map(|i| ((i - 1) as u32, i as u32, 1)).collect();
        WeightedGraph::from_edges(vec![1; n], &edges)
    }

    #[test]
    fn all_vertices_assigned_in_range() {
        let g = path(50);
        let a = greedy_growing(&g, 5, &mut rng());
        assert_eq!(a.len(), 50);
        assert!(a.iter().all(|&p| p < 5));
    }

    #[test]
    fn no_empty_parts() {
        let g = path(40);
        for k in [2, 3, 7, 13] {
            let a = greedy_growing(&g, k, &mut rng());
            let mut seen = vec![false; k];
            for &p in &a {
                seen[p as usize] = true;
            }
            assert!(seen.iter().all(|&s| s), "k={k} has empty part");
        }
    }

    #[test]
    fn k_equals_one_is_trivial() {
        let g = path(10);
        assert_eq!(greedy_growing(&g, 1, &mut rng()), vec![0; 10]);
    }

    #[test]
    fn k_at_least_n_gives_singletons() {
        let g = path(4);
        let a = greedy_growing(&g, 6, &mut rng());
        assert_eq!(a, vec![0, 1, 2, 3]);
    }

    #[test]
    fn balance_is_reasonable_on_uniform_path() {
        let g = path(100);
        let a = greedy_growing(&g, 4, &mut rng());
        let mut w = [0u64; 4];
        for (v, &p) in a.iter().enumerate() {
            w[p as usize] += g.vertex_weight(v);
        }
        let max = *w.iter().max().expect("parts exist") as f64;
        assert!(max / 25.0 <= 1.5, "weights {w:?}");
    }

    #[test]
    fn grown_parts_are_mostly_contiguous_on_path() {
        // On a path, a grown region is an interval, so the 2-way cut
        // should be tiny (1–3 edges), unlike random assignment (~n/2).
        let g = path(60);
        let a = greedy_growing(&g, 2, &mut rng());
        assert!(g.edge_cut(&a) <= 3, "cut {}", g.edge_cut(&a));
    }

    #[test]
    fn repair_fills_empty_parts() {
        let g = path(6);
        let mut a = vec![0, 0, 0, 0, 0, 0];
        repair_empty_parts(&g, 3, &mut a);
        let mut seen = [false; 3];
        for &p in &a {
            seen[p as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn handles_disconnected_graphs() {
        // Two disjoint paths.
        let mut edges: Vec<(u32, u32, u64)> = (1..10).map(|i| (i - 1, i, 1)).collect();
        edges.extend((11..20).map(|i| (i - 1, i, 1)));
        let g = WeightedGraph::from_edges(vec![1; 20], &edges);
        let a = greedy_growing(&g, 4, &mut rng());
        let mut seen = [false; 4];
        for &p in &a {
            seen[p as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
