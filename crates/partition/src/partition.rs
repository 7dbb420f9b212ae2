//! Partition representation and quality metrics.

use crate::graph::WeightedGraph;

/// A k-way assignment of graph vertices to parts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// `assignment[v]` is the part of vertex `v`, in `0..k`.
    pub assignment: Vec<u32>,
    /// Number of parts.
    pub k: usize,
}

impl Partition {
    /// Wrap an assignment. Parts must be in `0..k`.
    ///
    /// # Panics
    /// Panics if any part id is out of range.
    pub fn new(assignment: Vec<u32>, k: usize) -> Self {
        assert!(k >= 1);
        assert!(
            assignment.iter().all(|&p| (p as usize) < k),
            "part id out of range"
        );
        Partition { assignment, k }
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.assignment.len()
    }

    /// True if no vertices.
    pub fn is_empty(&self) -> bool {
        self.assignment.is_empty()
    }

    /// Total vertex weight per part.
    pub fn part_weights(&self, g: &WeightedGraph) -> Vec<u64> {
        debug_assert_eq!(self.assignment.len(), g.vertex_count());
        let mut w = vec![0u64; self.k];
        for (v, &p) in self.assignment.iter().enumerate() {
            w[p as usize] += g.vertex_weight(v);
        }
        w
    }

    /// Load-balance ratio: `max part weight / ideal part weight` (≥ 1;
    /// 1.0 is perfect). Empty graphs give 1.0.
    #[expect(
        clippy::float_arithmetic,
        reason = "a ratio of two integer weights, a reported quality measure"
    )]
    pub fn balance(&self, g: &WeightedGraph) -> f64 {
        let weights = self.part_weights(g);
        let total: u64 = weights.iter().sum();
        if total == 0 {
            return 1.0;
        }
        let ideal = total as f64 / self.k as f64;
        // `total > 0`, so some part has weight.
        let max = weights.iter().max().copied().unwrap_or(0) as f64;
        max / ideal
    }

    /// Total weight of edges crossing parts.
    pub fn edge_cut(&self, g: &WeightedGraph) -> u64 {
        g.edge_cut(&self.assignment)
    }

    /// Number of non-empty parts.
    pub fn used_parts(&self) -> usize {
        let mut used = vec![false; self.k];
        for &p in &self.assignment {
            used[p as usize] = true;
        }
        used.iter().filter(|&&u| u).count()
    }

    /// Vertices of part `p`.
    pub fn members(&self, p: u32) -> Vec<usize> {
        self.assignment
            .iter()
            .enumerate()
            .filter(|&(_, &q)| q == p)
            .map(|(v, _)| v)
            .collect()
    }

    /// Normalized load imbalance as the paper defines it (Section 4.1):
    /// the standard deviation of per-part loads divided by the mean.
    /// `loads[p]` is the measured load of part `p` (e.g. kernel event
    /// rate); this helper is also usable with estimated weights.
    #[expect(
        clippy::float_arithmetic,
        reason = "folds `loads` in part order, a reported quality measure"
    )]
    pub fn normalized_imbalance(loads: &[f64]) -> f64 {
        if loads.is_empty() {
            return 0.0;
        }
        let mean = loads.iter().fold(0.0, |sum, &l| sum + l) / loads.len() as f64;
        if mean == 0.0 {
            return 0.0;
        }
        let var = loads
            .iter()
            .fold(0.0, |sum, &l| sum + (l - mean) * (l - mean))
            / loads.len() as f64;
        var.sqrt() / mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path4() -> WeightedGraph {
        WeightedGraph::from_edges(vec![1, 2, 3, 4], &[(0, 1, 5), (1, 2, 1), (2, 3, 5)])
    }

    #[test]
    fn part_weights_and_balance() {
        let g = path4();
        let p = Partition::new(vec![0, 0, 1, 1], 2);
        assert_eq!(p.part_weights(&g), vec![3, 7]);
        // total 10, ideal 5, max 7 → 1.4
        assert!((p.balance(&g) - 1.4).abs() < 1e-12);
    }

    #[test]
    fn perfect_balance_is_one() {
        let g = WeightedGraph::from_edges(vec![1, 1], &[(0, 1, 1)]);
        let p = Partition::new(vec![0, 1], 2);
        assert_eq!(p.balance(&g), 1.0);
    }

    #[test]
    fn edge_cut_through_graph() {
        let g = path4();
        let p = Partition::new(vec![0, 0, 1, 1], 2);
        assert_eq!(p.edge_cut(&g), 1);
        let q = Partition::new(vec![0, 1, 0, 1], 2);
        assert_eq!(q.edge_cut(&g), 11);
    }

    #[test]
    fn used_parts_and_members() {
        let p = Partition::new(vec![0, 2, 0], 3);
        assert_eq!(p.used_parts(), 2);
        assert_eq!(p.members(0), vec![0, 2]);
        assert_eq!(p.members(1), Vec::<usize>::new());
    }

    #[test]
    #[should_panic(expected = "part id out of range")]
    fn out_of_range_part_rejected() {
        Partition::new(vec![0, 3], 2);
    }

    #[test]
    fn normalized_imbalance_matches_paper_definition() {
        assert_eq!(Partition::normalized_imbalance(&[5.0, 5.0, 5.0]), 0.0);
        // loads 2, 4, 6: mean 4, population std dev sqrt(8/3) ≈ 1.633
        let v = Partition::normalized_imbalance(&[2.0, 4.0, 6.0]);
        assert!((v - (8.0f64 / 3.0).sqrt() / 4.0).abs() < 1e-12);
        assert_eq!(Partition::normalized_imbalance(&[]), 0.0);
        assert_eq!(Partition::normalized_imbalance(&[0.0, 0.0]), 0.0);
    }
}
