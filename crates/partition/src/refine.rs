//! KL/FM-style greedy boundary refinement with a balance constraint.
//!
//! After projecting a partition to a finer level, boundary vertices are
//! repeatedly considered for moving to an adjacent part. A move is taken
//! when it reduces the edge-cut without violating the balance bound, or
//! when it repairs an overweight part. This is the refinement used at
//! every level of the multilevel partitioners.

use crate::graph::WeightedGraph;
use crate::kway::BALANCE_TOLERANCE;
use rand::prelude::*;

/// Refine `assignment` in place with at most `max_passes` full passes
/// over the boundary. Returns the total cut improvement.
///
/// Each vertex's connection weight to its own part (`internal`) and to
/// all others (`external`) is computed once and kept current on every
/// move. A vertex with `external < internal` in a part that is not
/// overweight has a negative gain to every part and cannot rebalance,
/// so it is passed over without scanning its row; every other vertex
/// gets the full scan. Visit order and decisions are the full-scan
/// refinement's.
pub fn refine(
    g: &WeightedGraph,
    k: usize,
    assignment: &mut [u32],
    max_passes: usize,
    rng: &mut impl Rng,
) -> u64 {
    let n = g.vertex_count();
    if n == 0 || k <= 1 || max_passes == 0 {
        return 0;
    }
    let total = g.total_vertex_weight();
    #[expect(
        clippy::float_arithmetic,
        reason = "the balance bound is a function of the graph's integer weights alone"
    )]
    let max_allowed = (total as f64 / k as f64 * BALANCE_TOLERANCE).ceil() as u64;
    // A part made overweight by one giant vertex cannot be repaired;
    // never shed load below the ideal, or every neighbor of the giant
    // gets churned out (cutting whatever edges happen to be there).
    let ideal_floor = (total / k as u64).max(1);

    let mut part_weight = vec![0u64; k];
    let mut part_count = vec![0usize; k];
    let mut internal = vec![0u64; n];
    let mut external = vec![0u64; n];
    for (v, &p) in assignment.iter().enumerate() {
        part_weight[p as usize] += g.vertex_weight(v);
        part_count[p as usize] += 1;
        for (u, w) in g.neighbors(v) {
            if assignment[u] == p {
                internal[v] += w;
            } else {
                external[v] += w;
            }
        }
    }

    let mut order: Vec<u32> = (0..n as u32).collect();
    let mut improvement_total = 0u64;
    // Scratch: connection weight of the current vertex to each part.
    let mut conn = vec![0u64; k];
    let mut touched: Vec<u32> = Vec::new();

    for _pass in 0..max_passes {
        order.shuffle(rng);
        let mut moved = 0usize;
        for &v32 in &order {
            let v = v32 as usize;
            let own = assignment[v] as usize;
            if part_count[own] <= 1 {
                continue; // never empty a part
            }
            let overweight = part_weight[own] > max_allowed;
            if external[v] < internal[v] && !overweight {
                continue; // every gain is negative, and nothing to shed
            }
            // Compute connectivity to adjacent parts.
            touched.clear();
            let mut is_boundary = false;
            for (u, w) in g.neighbors(v) {
                let p = assignment[u] as usize;
                if conn[p] == 0 {
                    touched.push(p as u32);
                }
                conn[p] += w;
                if p != own {
                    is_boundary = true;
                }
            }
            if !is_boundary {
                for &p in &touched {
                    conn[p as usize] = 0;
                }
                continue;
            }
            let vw = g.vertex_weight(v);
            let own_conn = conn[own];
            // Best target: maximize gain; among equal gains prefer the
            // lightest target part.
            let mut best: Option<(i64, u64, usize)> = None; // (gain, -, part)
            for &p32 in &touched {
                let p = p32 as usize;
                if p == own {
                    continue;
                }
                let gain = conn[p] as i64 - own_conn as i64;
                let fits = part_weight[p] + vw <= max_allowed;
                // Rebalancing move: from an overweight part to any part
                // that ends up lighter than the source, provided the
                // source keeps at least its ideal share.
                let rebalances = overweight
                    && part_weight[p] + vw < part_weight[own]
                    && part_weight[own] - vw >= ideal_floor;
                if !(fits || rebalances) {
                    continue;
                }
                let candidate_ok =
                    gain > 0 || rebalances || (gain == 0 && part_weight[p] + vw < part_weight[own]);
                if candidate_ok {
                    let better = match best {
                        None => true,
                        Some((bg, bw, _)) => gain > bg || (gain == bg && part_weight[p] < bw),
                    };
                    if better {
                        best = Some((gain, part_weight[p], p));
                    }
                }
            }
            if let Some((gain, _, target)) = best {
                assignment[v] = target as u32;
                part_weight[own] -= vw;
                part_weight[target] += vw;
                part_count[own] -= 1;
                part_count[target] += 1;
                if gain > 0 {
                    improvement_total += gain as u64;
                }
                moved += 1;
                let incident = internal[v] + external[v];
                internal[v] = conn[target];
                external[v] = incident - conn[target];
                for (u, w) in g.neighbors(v) {
                    let p = assignment[u] as usize;
                    if p == own {
                        internal[u] -= w;
                        external[u] += w;
                    } else if p == target {
                        external[u] -= w;
                        internal[u] += w;
                    }
                }
            }
            for &p in &touched {
                conn[p as usize] = 0;
            }
        }
        if moved == 0 {
            break;
        }
    }
    improvement_total
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand_chacha::ChaCha8Rng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(3)
    }

    /// Reference refinement without the per-vertex connection weights:
    /// every visit scans the vertex's row. `refine` must match it move
    /// for move.
    fn refine_full_scan(
        g: &WeightedGraph,
        k: usize,
        assignment: &mut [u32],
        max_passes: usize,
        rng: &mut impl Rng,
    ) -> u64 {
        let n = g.vertex_count();
        if n == 0 || k <= 1 {
            return 0;
        }
        let total = g.total_vertex_weight();
        let ideal = total as f64 / k as f64;
        let max_allowed = (ideal * BALANCE_TOLERANCE).ceil() as u64;
        // A part made overweight by one giant vertex cannot be repaired;
        // never shed load below the ideal, or every neighbor of the giant
        // gets churned out (cutting whatever edges happen to be there).
        let ideal_floor = (total / k as u64).max(1);

        let mut part_weight = vec![0u64; k];
        let mut part_count = vec![0usize; k];
        for (v, &p) in assignment.iter().enumerate() {
            part_weight[p as usize] += g.vertex_weight(v);
            part_count[p as usize] += 1;
        }

        let mut order: Vec<u32> = (0..n as u32).collect();
        let mut improvement_total = 0u64;
        // Scratch: connection weight of the current vertex to each part.
        let mut conn = vec![0u64; k];
        let mut touched: Vec<u32> = Vec::new();

        for _pass in 0..max_passes {
            order.shuffle(rng);
            let mut moved = 0usize;
            for &v32 in &order {
                let v = v32 as usize;
                let own = assignment[v] as usize;
                if part_count[own] <= 1 {
                    continue; // never empty a part
                }
                // Compute connectivity to adjacent parts.
                touched.clear();
                let mut is_boundary = false;
                for (u, w) in g.neighbors(v) {
                    let p = assignment[u] as usize;
                    if conn[p] == 0 {
                        touched.push(p as u32);
                    }
                    conn[p] += w;
                    if p != own {
                        is_boundary = true;
                    }
                }
                if !is_boundary {
                    for &p in &touched {
                        conn[p as usize] = 0;
                    }
                    continue;
                }
                let vw = g.vertex_weight(v);
                let own_conn = conn[own];
                let overweight = part_weight[own] > max_allowed;
                // Best target: maximize gain; among equal gains prefer the
                // lightest target part.
                let mut best: Option<(i64, u64, usize)> = None; // (gain, -, part)
                for &p32 in &touched {
                    let p = p32 as usize;
                    if p == own {
                        continue;
                    }
                    let gain = conn[p] as i64 - own_conn as i64;
                    let fits = part_weight[p] + vw <= max_allowed;
                    // Rebalancing move: from an overweight part to any part
                    // that ends up lighter than the source, provided the
                    // source keeps at least its ideal share.
                    let rebalances = overweight
                        && part_weight[p] + vw < part_weight[own]
                        && part_weight[own] - vw >= ideal_floor;
                    if !(fits || rebalances) {
                        continue;
                    }
                    let candidate_ok = gain > 0
                        || rebalances
                        || (gain == 0 && part_weight[p] + vw < part_weight[own]);
                    if candidate_ok {
                        let better = match best {
                            None => true,
                            Some((bg, bw, _)) => gain > bg || (gain == bg && part_weight[p] < bw),
                        };
                        if better {
                            best = Some((gain, part_weight[p], p));
                        }
                    }
                }
                if let Some((gain, _, target)) = best {
                    assignment[v] = target as u32;
                    part_weight[own] -= vw;
                    part_weight[target] += vw;
                    part_count[own] -= 1;
                    part_count[target] += 1;
                    if gain > 0 {
                        improvement_total += gain as u64;
                    }
                    moved += 1;
                }
                for &p in &touched {
                    conn[p as usize] = 0;
                }
            }
            if moved == 0 {
                break;
            }
        }
        improvement_total
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `refine` against the full-scan reference on random graphs:
        /// k from 1 to 7, 0 to 8 passes, unit or heavy edge weights,
        /// and starting assignments that are uniform or piled onto the
        /// last part (overweight). Both must leave the same assignment,
        /// report the same improvement and draw the same random numbers.
        #[test]
        fn refine_matches_the_full_scan_reference(
            n in 2usize..40,
            raw in proptest::collection::vec((0u32..40, 0u32..40, 1u64..10_000), 0..120),
            vwgt in proptest::collection::vec(1u64..50, 40..41),
            parts in proptest::collection::vec(0u32..16, 40..41),
            knobs in (1usize..8, any::<bool>(), any::<bool>(), 0usize..9, any::<u64>()),
        ) {
            let (k, heavy, piled, passes, seed) = knobs;
            let edges: Vec<(u32, u32, u64)> = raw
                .iter()
                .map(|&(u, v, w)| (u % n as u32, v % n as u32, if heavy { w } else { 1 }))
                .collect();
            let g = WeightedGraph::from_edges(vwgt[..n].to_vec(), &edges);
            let start: Vec<u32> = parts[..n]
                .iter()
                .map(|&p| if piled { p.min(k as u32 - 1) } else { p % k as u32 })
                .collect();

            let (mut fast, mut reference) = (start.clone(), start);
            let mut fast_rng = ChaCha8Rng::seed_from_u64(seed);
            let mut reference_rng = ChaCha8Rng::seed_from_u64(seed);
            let fast_gain = refine(&g, k, &mut fast, passes, &mut fast_rng);
            let reference_gain =
                refine_full_scan(&g, k, &mut reference, passes, &mut reference_rng);
            prop_assert_eq!(&fast, &reference);
            prop_assert_eq!(fast_gain, reference_gain);
            prop_assert_eq!(fast_rng.next_u64(), reference_rng.next_u64());
        }
    }

    /// Two 5-cliques joined by a single light bridge.
    fn two_cliques() -> WeightedGraph {
        let mut edges = Vec::new();
        for base in [0u32, 5] {
            for i in 0..5 {
                for j in (i + 1)..5 {
                    edges.push((base + i, base + j, 10));
                }
            }
        }
        edges.push((4, 5, 1)); // bridge
        WeightedGraph::from_edges(vec![1; 10], &edges)
    }

    #[test]
    fn refinement_finds_natural_cut() {
        let g = two_cliques();
        // Start from a bad split that cuts through both cliques.
        let mut a = vec![0, 1, 0, 1, 0, 1, 0, 1, 0, 1];
        refine(&g, 2, &mut a, 8, &mut rng());
        assert_eq!(g.edge_cut(&a), 1, "should settle on the bridge, got {a:?}");
    }

    #[test]
    fn refinement_never_increases_cut() {
        let g = two_cliques();
        for seed in 0..10 {
            let mut r = ChaCha8Rng::seed_from_u64(seed);
            let mut a: Vec<u32> = (0..10).map(|_| r.gen_range(0..3)).collect();
            crate::initial::repair_empty_parts(&g, 3, &mut a);
            let before = g.edge_cut(&a);
            refine(&g, 3, &mut a, 8, &mut r);
            assert!(g.edge_cut(&a) <= before, "seed {seed}");
        }
    }

    #[test]
    fn respects_balance_tolerance() {
        // Path of 12 unit vertices, perfect halves possible.
        let edges: Vec<(u32, u32, u64)> = (1..12u32).map(|i| (i - 1, i, 1)).collect();
        let g = WeightedGraph::from_edges(vec![1; 12], &edges);
        let mut a = vec![0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1];
        refine(&g, 2, &mut a, 8, &mut rng());
        let ones = a.iter().filter(|&&p| p == 1).count();
        // tolerance 1.05 over ideal 6 allows ≤ 7 per side.
        assert!((5..=7).contains(&ones), "{a:?}");
    }

    #[test]
    fn rebalances_overweight_parts() {
        // All weight initially on part 0; refinement should shed load even
        // though every move increases the cut.
        let edges: Vec<(u32, u32, u64)> = (1..10u32).map(|i| (i - 1, i, 1)).collect();
        let g = WeightedGraph::from_edges(vec![1; 10], &edges);
        let mut a = vec![0; 10];
        a[9] = 1; // part 1 exists but is nearly empty
        refine(&g, 2, &mut a, 8, &mut rng());
        let w1 = a.iter().filter(|&&p| p == 1).count();
        assert!(w1 >= 4, "part 1 still starved: {a:?}");
    }

    #[test]
    fn never_empties_a_part() {
        let g = two_cliques();
        for seed in 0..10 {
            let mut r = ChaCha8Rng::seed_from_u64(seed);
            let mut a: Vec<u32> = (0..10u32).map(|v| v % 4).collect();
            refine(&g, 4, &mut a, 8, &mut r);
            let mut seen = [false; 4];
            for &p in &a {
                seen[p as usize] = true;
            }
            assert!(seen.iter().all(|&s| s), "seed {seed}: {a:?}");
        }
    }

    #[test]
    fn noop_for_single_part() {
        let g = two_cliques();
        let mut a = vec![0; 10];
        let imp = refine(&g, 1, &mut a, 8, &mut rng());
        assert_eq!(imp, 0);
        assert!(a.iter().all(|&p| p == 0));
    }
}
