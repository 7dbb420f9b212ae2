//! Compressed sparse row weighted graph for partitioning.
//!
//! Vertex weights model estimated simulation load (bandwidth for TOP,
//! profiled event rate for PROF); edge weights model the reluctance to
//! cut an edge (derived from link latency and/or profiled traffic).

use crate::unionfind::UnionFind;

/// An undirected graph in CSR form with `u64` vertex and edge weights.
///
/// Parallel edges passed to [`WeightedGraph::from_edges`] are merged by
/// summing their weights; self-loops are dropped (they cannot be cut).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WeightedGraph {
    /// CSR row offsets, length `n + 1`.
    xadj: Vec<u32>,
    /// Neighbor vertex ids, length `2·m`.
    adjncy: Vec<u32>,
    /// Edge weights parallel to `adjncy`.
    adjwgt: Vec<u64>,
    /// Vertex weights, length `n`.
    vwgt: Vec<u64>,
}

impl WeightedGraph {
    /// Build from an edge list. `edges` are `(u, v, weight)` with
    /// `u, v < vertex_weights.len()`.
    ///
    /// # Panics
    /// Panics on out-of-range endpoints.
    pub fn from_edges(vertex_weights: Vec<u64>, edges: &[(u32, u32, u64)]) -> Self {
        let n = vertex_weights.len();
        // Counting sort of both directions of every edge by source
        // vertex, then a sort + merge inside each (short) row: the same
        // canonical CSR a global sort on (min, max) gives, without
        // sorting the whole edge list.
        let mut start = vec![0u32; n + 1];
        for &(u, v, _) in edges {
            assert!(
                (u as usize) < n && (v as usize) < n,
                "edge endpoint out of range"
            );
            if u != v {
                start[u as usize + 1] += 1;
                start[v as usize + 1] += 1;
            }
        }
        for i in 0..n {
            start[i + 1] += start[i];
        }
        let mut arcs = vec![(0u32, 0u64); start[n] as usize];
        let mut cursor = start[..n].to_vec();
        for &(u, v, w) in edges {
            if u != v {
                arcs[cursor[u as usize] as usize] = (v, w);
                cursor[u as usize] += 1;
                arcs[cursor[v as usize] as usize] = (u, w);
                cursor[v as usize] += 1;
            }
        }
        let mut xadj = Vec::with_capacity(n + 1);
        let mut adjncy: Vec<u32> = Vec::with_capacity(arcs.len());
        let mut adjwgt: Vec<u64> = Vec::with_capacity(arcs.len());
        xadj.push(0u32);
        for row in 0..n {
            let row_start = adjncy.len();
            let arcs = &mut arcs[start[row] as usize..start[row + 1] as usize];
            arcs.sort_unstable_by_key(|&(to, _)| to);
            for &(to, w) in arcs.iter() {
                if adjncy[row_start..].last() == Some(&to) {
                    *adjwgt.last_mut().expect("parallel to adjncy") += w;
                } else {
                    adjncy.push(to);
                    adjwgt.push(w);
                }
            }
            xadj.push(adjncy.len() as u32);
        }
        WeightedGraph {
            xadj,
            adjncy,
            adjwgt,
            vwgt: vertex_weights,
        }
    }

    /// Contract the graph by `labels` (vertex → cluster, onto
    /// `0..coarse_n`): cluster weights are member sums, arcs inside a
    /// cluster vanish and parallel arcs between two clusters merge. The
    /// result equals [`from_edges`](Self::from_edges) over the mapped
    /// edge list, built by transposition instead: clusters are walked in
    /// ascending order and each arc leaving cluster `c` for `c′` appends
    /// `c` to row `c′`, so every row comes out ascending with duplicates
    /// adjacent and merges in one pass, with no edge list and no sort.
    ///
    /// # Panics
    /// Panics unless `labels` has one entry per vertex, each
    /// `< coarse_n`.
    pub fn contract(&self, labels: &[u32], coarse_n: usize) -> WeightedGraph {
        let n = self.vertex_count();
        assert_eq!(labels.len(), n, "one label per vertex");
        // Counting sorts: the members of each cluster, and a slot range
        // per coarse row as long as its members' degrees summed — room
        // for every arc that can enter the cluster from outside, without
        // a pass over the arcs to count them exactly.
        let mut vwgt = vec![0u64; coarse_n];
        let mut member_start = vec![0u32; coarse_n + 1];
        let mut row_start = vec![0u32; coarse_n + 1];
        for (v, &c) in labels.iter().enumerate() {
            vwgt[c as usize] += self.vwgt[v];
            member_start[c as usize + 1] += 1;
            row_start[c as usize + 1] += self.xadj[v + 1] - self.xadj[v];
        }
        for c in 0..coarse_n {
            member_start[c + 1] += member_start[c];
            row_start[c + 1] += row_start[c];
        }
        let mut members = vec![0u32; n];
        let mut cursor = member_start[..coarse_n].to_vec();
        for (v, &c) in labels.iter().enumerate() {
            members[cursor[c as usize] as usize] = v as u32;
            cursor[c as usize] += 1;
        }

        let mut adjncy = vec![0u32; self.adjncy.len()];
        let mut adjwgt = vec![0u64; self.adjncy.len()];
        cursor.copy_from_slice(&row_start[..coarse_n]);
        for c in 0..coarse_n {
            for &v in &members[member_start[c] as usize..member_start[c + 1] as usize] {
                for (u, w) in self.neighbors(v as usize) {
                    let to = labels[u] as usize;
                    if to != c {
                        adjncy[cursor[to] as usize] = c as u32;
                        adjwgt[cursor[to] as usize] = w;
                        cursor[to] += 1;
                    }
                }
            }
        }

        // Merge adjacent duplicates and close the gaps in place: the
        // write index never passes the read index.
        let mut xadj = Vec::with_capacity(coarse_n + 1);
        xadj.push(0u32);
        let mut out = 0usize;
        for c in 0..coarse_n {
            let row_begin = out;
            for i in row_start[c] as usize..cursor[c] as usize {
                if out > row_begin && adjncy[out - 1] == adjncy[i] {
                    adjwgt[out - 1] += adjwgt[i];
                } else {
                    adjncy[out] = adjncy[i];
                    adjwgt[out] = adjwgt[i];
                    out += 1;
                }
            }
            xadj.push(out as u32);
        }
        adjncy.truncate(out);
        adjncy.shrink_to_fit();
        adjwgt.truncate(out);
        adjwgt.shrink_to_fit();
        WeightedGraph {
            xadj,
            adjncy,
            adjwgt,
            vwgt,
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn vertex_count(&self) -> usize {
        self.vwgt.len()
    }

    /// Number of undirected edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.adjncy.len() / 2
    }

    /// Weight of vertex `v`.
    #[inline]
    pub fn vertex_weight(&self, v: usize) -> u64 {
        self.vwgt[v]
    }

    /// All vertex weights.
    #[inline]
    pub fn vertex_weights(&self) -> &[u64] {
        &self.vwgt
    }

    /// Sum of all vertex weights.
    pub fn total_vertex_weight(&self) -> u64 {
        self.vwgt.iter().sum()
    }

    /// Neighbors of `v` with edge weights.
    #[inline]
    pub fn neighbors(&self, v: usize) -> impl Iterator<Item = (usize, u64)> + '_ {
        let lo = self.xadj[v] as usize;
        let hi = self.xadj[v + 1] as usize;
        self.adjncy[lo..hi]
            .iter()
            .zip(&self.adjwgt[lo..hi])
            .map(|(&n, &w)| (n as usize, w))
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: usize) -> usize {
        (self.xadj[v + 1] - self.xadj[v]) as usize
    }

    /// Sum of weights of edges incident to `v`.
    pub fn incident_weight(&self, v: usize) -> u64 {
        let lo = self.xadj[v] as usize;
        let hi = self.xadj[v + 1] as usize;
        self.adjwgt[lo..hi].iter().sum()
    }

    /// Total weight of edges cut by `assignment` (vertex → part).
    pub fn edge_cut(&self, assignment: &[u32]) -> u64 {
        debug_assert_eq!(assignment.len(), self.vertex_count());
        let mut cut = 0u64;
        for v in 0..self.vertex_count() {
            for (u, w) in self.neighbors(v) {
                if u > v && assignment[u] != assignment[v] {
                    cut += w;
                }
            }
        }
        cut
    }

    /// Is the graph connected? Empty graphs count as connected.
    pub fn is_connected(&self) -> bool {
        let n = self.vertex_count();
        if n == 0 {
            return true;
        }
        let mut uf = UnionFind::new(n);
        for v in 0..n {
            for (u, _) in self.neighbors(v) {
                uf.union(v, u);
            }
        }
        uf.component_count() == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The construction `from_edges` replaced, kept as the reference:
    /// canonicalize to (min, max), sort the whole list, merge adjacent
    /// duplicates, scatter both directions in that order.
    fn from_edges_by_global_sort(vwgt: Vec<u64>, edges: &[(u32, u32, u64)]) -> WeightedGraph {
        let n = vwgt.len();
        let mut canon: Vec<(u32, u32, u64)> = edges
            .iter()
            .filter(|&&(u, v, _)| u != v)
            .map(|&(u, v, w)| (u.min(v), u.max(v), w))
            .collect();
        canon.sort_unstable_by_key(|&(u, v, _)| (u, v));
        canon.dedup_by(|next, acc| {
            if next.0 == acc.0 && next.1 == acc.1 {
                acc.2 += next.2;
                true
            } else {
                false
            }
        });
        let mut xadj = vec![0u32; n + 1];
        for &(u, v, _) in &canon {
            xadj[u as usize + 1] += 1;
            xadj[v as usize + 1] += 1;
        }
        for i in 0..n {
            xadj[i + 1] += xadj[i];
        }
        let mut adjncy = vec![0u32; xadj[n] as usize];
        let mut adjwgt = vec![0u64; xadj[n] as usize];
        let mut cursor = xadj[..n].to_vec();
        for &(u, v, w) in &canon {
            for (from, to) in [(u, v), (v, u)] {
                let c = cursor[from as usize] as usize;
                adjncy[c] = to;
                adjwgt[c] = w;
                cursor[from as usize] += 1;
            }
        }
        WeightedGraph {
            xadj,
            adjncy,
            adjwgt,
            vwgt,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Random multigraphs over few vertices, so duplicate edges (in
        /// both orientations) and self-loops are common, isolated
        /// vertices included.
        #[test]
        fn from_edges_matches_the_global_sort_reference(
            n in 1u32..24,
            raw in proptest::collection::vec((0u32..24, 0u32..24, 1u64..1000), 0..160),
        ) {
            let edges: Vec<(u32, u32, u64)> =
                raw.iter().map(|&(u, v, w)| (u % n, v % n, w)).collect();
            let vwgt: Vec<u64> = (0..u64::from(n)).collect();
            let g = WeightedGraph::from_edges(vwgt.clone(), &edges);
            prop_assert_eq!(&g, &from_edges_by_global_sort(vwgt, &edges));
            for v in 0..n as usize {
                let row: Vec<usize> = g.neighbors(v).map(|(u, _)| u).collect();
                prop_assert!(row.windows(2).all(|w| w[0] < w[1]), "row {} not ascending", v);
                prop_assert!(!row.contains(&v), "self-loop kept at {}", v);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// `contract` against `from_edges` over the mapped edge list, on
        /// random multigraphs (isolated vertices included) and random
        /// surjective labels: every cluster gets one vertex of a random
        /// permutation, the rest land anywhere.
        #[test]
        fn contract_matches_from_edges_over_the_mapped_edges(
            n in 1u32..24,
            raw in proptest::collection::vec((0u32..24, 0u32..24, 1u64..1000), 0..160),
            clusters in 1u32..24,
            seed in any::<u64>(),
        ) {
            use rand::prelude::*;
            let edges: Vec<(u32, u32, u64)> =
                raw.iter().map(|&(u, v, w)| (u % n, v % n, w)).collect();
            let g = WeightedGraph::from_edges((0..u64::from(n)).map(|v| v * 7 + 1).collect(), &edges);
            let coarse_n = (clusters % n + 1) as usize;
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let mut order: Vec<usize> = (0..n as usize).collect();
            order.shuffle(&mut rng);
            let mut labels = vec![0u32; n as usize];
            for (i, &v) in order.iter().enumerate() {
                labels[v] = if i < coarse_n { i as u32 } else { rng.gen_range(0..coarse_n as u32) };
            }

            let mut vwgt = vec![0u64; coarse_n];
            let mut mapped = Vec::new();
            for v in 0..n as usize {
                vwgt[labels[v] as usize] += g.vertex_weight(v);
                for (u, w) in g.neighbors(v) {
                    if u > v && labels[u] != labels[v] {
                        mapped.push((labels[v], labels[u], w));
                    }
                }
            }
            prop_assert_eq!(g.contract(&labels, coarse_n), WeightedGraph::from_edges(vwgt, &mapped));
        }
    }

    /// 4-cycle with unit weights plus a heavy chord 0-2.
    fn square_with_chord() -> WeightedGraph {
        WeightedGraph::from_edges(
            vec![1, 1, 1, 1],
            &[(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1), (0, 2, 10)],
        )
    }

    #[test]
    fn counts_and_degrees() {
        let g = square_with_chord();
        assert_eq!(g.vertex_count(), 4);
        assert_eq!(g.edge_count(), 5);
        assert_eq!(g.degree(0), 3);
        assert_eq!(g.degree(3), 2);
    }

    #[test]
    fn neighbors_symmetric() {
        let g = square_with_chord();
        for v in 0..g.vertex_count() {
            for (u, w) in g.neighbors(v) {
                assert!(
                    g.neighbors(u).any(|(x, wx)| x == v && wx == w),
                    "asymmetric edge {v}-{u}"
                );
            }
        }
    }

    #[test]
    fn parallel_edges_merge() {
        let g = WeightedGraph::from_edges(vec![1, 1], &[(0, 1, 3), (1, 0, 4)]);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.neighbors(0).next(), Some((1, 7)));
    }

    #[test]
    fn self_loops_dropped() {
        let g = WeightedGraph::from_edges(vec![1, 1], &[(0, 0, 5), (0, 1, 2)]);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.degree(0), 1);
    }

    #[test]
    fn edge_cut_counts_cross_edges_once() {
        let g = square_with_chord();
        // Parts {0,1} vs {2,3}: cut edges 1-2 (1), 3-0 (1), 0-2 (10) = 12.
        assert_eq!(g.edge_cut(&[0, 0, 1, 1]), 12);
        // Parts {0,2} vs {1,3}: cut 0-1,1-2,2-3,3-0 = 4.
        assert_eq!(g.edge_cut(&[0, 1, 0, 1]), 4);
        // Single part: no cut.
        assert_eq!(g.edge_cut(&[0, 0, 0, 0]), 0);
    }

    #[test]
    fn incident_weight_sums() {
        let g = square_with_chord();
        assert_eq!(g.incident_weight(0), 1 + 1 + 10);
        assert_eq!(g.incident_weight(3), 2);
    }

    #[test]
    fn connectivity() {
        assert!(square_with_chord().is_connected());
        let g = WeightedGraph::from_edges(vec![1, 1, 1], &[(0, 1, 1)]);
        assert!(!g.is_connected());
        let empty = WeightedGraph::from_edges(vec![], &[]);
        assert!(empty.is_connected());
    }

    #[test]
    fn total_vertex_weight() {
        let g = WeightedGraph::from_edges(vec![2, 3, 5], &[(0, 1, 1), (1, 2, 1)]);
        assert_eq!(g.total_vertex_weight(), 10);
    }
}
