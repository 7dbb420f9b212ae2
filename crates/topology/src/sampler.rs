//! Preferential-attachment target selection in O(log n) per link.
//!
//! Both generators grow a power-law graph the same way: node `i` joins
//! and links to `m` distinct earlier nodes, each picked with
//! probability proportional to `degree + 1` (the +1 keeps degree-0
//! seeds reachable) among the earlier nodes it is not linked to yet.
//! Rescanning those candidates per link is O(n) per link and O(n²) per
//! graph — 8.5 s at the paper's 20,000 routers.
//!
//! [`PreferentialSampler`] keeps the weights in a Fenwick tree and
//! selects exactly what the rescan selected:
//!
//! * **weights** — entry `j` holds `degree(j) + 1`, bumped when a link
//!   lands on `j`;
//! * **masked neighbours** — the candidates the newcomer already linked
//!   to (at most `m`) hold weight 0 until the newcomer is done, so the
//!   prefix sum over `..i` is the rescan's `total` and no ticket can
//!   fall on them;
//! * **one draw per pick** — the same `rng.gen_range(0..total)`, and
//!   the Fenwick descent returns the first index whose cumulative
//!   weight exceeds the ticket, which is where the rescan's
//!   subtract-as-you-go loop stopped.
//!
//! Same totals, same draws, same index-order rule: the generated graph
//! is bit-identical (`tests` holds the rescan as the oracle).

use rand::Rng;

/// Degree-proportional sampler over node indices `0..n`.
pub(crate) struct PreferentialSampler {
    /// Fenwick tree over `weight`, 1-based: `tree[k]` sums the
    /// `k & -k` weights ending at index `k - 1`.
    tree: Vec<usize>,
    /// `degree + 1` per node; 0 while masked.
    weight: Vec<usize>,
    /// Nodes the current newcomer is linked to, with the weight each
    /// gets back in [`Self::release`].
    masked: Vec<(usize, usize)>,
}

impl PreferentialSampler {
    /// `n ≥ 2` nodes, nodes 0 and 1 joined by the seed link.
    pub(crate) fn new(n: usize) -> Self {
        // Linear-time Fenwick build: push each entry's sum to its parent.
        let mut tree = vec![1usize; n + 1];
        tree[0] = 0;
        for k in 1..=n {
            let parent = k + (k & k.wrapping_neg());
            if parent <= n {
                tree[parent] += tree[k];
            }
        }
        let mut sampler = PreferentialSampler {
            tree,
            weight: vec![1; n],
            masked: Vec::new(),
        };
        sampler.set(0, 2);
        sampler.set(1, 2);
        sampler
    }

    /// Set `node`'s weight, returning the one it had.
    fn set(&mut self, node: usize, w: usize) -> usize {
        let old = std::mem::replace(&mut self.weight[node], w);
        // A decrease is added as its two's complement: every sum in the
        // tree is exact modulo 2^64 and the true sums fit.
        let delta = w.wrapping_sub(old);
        let mut k = node + 1;
        while k < self.tree.len() {
            self.tree[k] = self.tree[k].wrapping_add(delta);
            k += k & k.wrapping_neg();
        }
        old
    }

    /// Total weight of nodes `..end`.
    fn prefix(&self, end: usize) -> usize {
        let (mut k, mut sum) = (end, 0);
        while k > 0 {
            sum += self.tree[k];
            k &= k - 1;
        }
        sum
    }

    /// First node whose cumulative weight exceeds `ticket`
    /// (`ticket` < total weight).
    fn descend(&self, mut ticket: usize) -> usize {
        let n = self.weight.len();
        let mut pos = 0;
        let mut step = n.next_power_of_two();
        while step > 0 {
            let next = pos + step;
            if next <= n && self.tree[next] <= ticket {
                pos = next;
                ticket -= self.tree[next];
            }
            step >>= 1;
        }
        pos
    }

    /// Link `newcomer` to one earlier node it is not linked to yet,
    /// drawn with probability proportional to `degree + 1`, and return
    /// it; `None` (nothing drawn) when every earlier node is linked.
    pub(crate) fn attach(&mut self, rng: &mut impl Rng, newcomer: usize) -> Option<usize> {
        let total = self.prefix(newcomer);
        if total == 0 {
            return None;
        }
        let target = self.descend(rng.gen_range(0..total));
        let was = self.set(target, 0);
        self.masked.push((target, was + 1));
        self.set(newcomer, self.weight[newcomer] + 1);
        Some(target)
    }

    /// The newcomer is done: its neighbours become candidates again.
    pub(crate) fn release(&mut self) {
        while let Some((node, w)) = self.masked.pop() {
            self.set(node, w);
        }
    }
}

/// Grow a preferential-attachment graph over nodes `0..n`. The caller
/// has linked node 1 to node 0 (the seed); every node `i ≥ 2` then
/// links to `min(m, i)` distinct earlier nodes, and
/// `on_link(newcomer, target)` is called per link in creation order.
pub(crate) fn grow_preferential(
    rng: &mut impl Rng,
    n: usize,
    m: usize,
    mut on_link: impl FnMut(usize, usize),
) {
    let mut sampler = PreferentialSampler::new(n);
    for i in 2..n {
        for _ in 0..m.min(i) {
            match sampler.attach(rng, i) {
                Some(target) => on_link(i, target),
                None => break, // all candidates already linked
            }
        }
        sampler.release();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::prelude::*;
    use rand_chacha::ChaCha8Rng;

    /// The rescan the sampler replaced, kept verbatim as the oracle:
    /// sum the eligible weights, draw one ticket, walk the candidates
    /// in index order subtracting as it goes.
    fn attach_by_rescan(
        rng: &mut impl Rng,
        degree: &mut [usize],
        adj: &mut [Vec<usize>],
        i: usize,
    ) -> Option<usize> {
        let total: usize = (0..i)
            .filter(|c| !adj[i].contains(c))
            .map(|c| degree[c] + 1)
            .sum();
        if total == 0 {
            return None;
        }
        let mut ticket = rng.gen_range(0..total);
        for c in 0..i {
            if adj[i].contains(&c) {
                continue;
            }
            let w = degree[c] + 1;
            if ticket < w {
                degree[i] += 1;
                degree[c] += 1;
                adj[i].push(c);
                return Some(c);
            }
            ticket -= w;
        }
        None
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Same targets from the same RNG stream, and the stream left
        /// in the same state. A node may ask for more links than it has
        /// earlier nodes, so the "every candidate linked" exit (no
        /// draw) is taken on both sides.
        #[test]
        fn sampler_matches_the_rescan_oracle(
            wants in proptest::collection::vec(0usize..7, 2..120),
            seed in any::<u64>(),
        ) {
            let n = wants.len();
            let mut fast_rng = ChaCha8Rng::seed_from_u64(seed);
            let mut slow_rng = fast_rng.clone();
            let mut sampler = PreferentialSampler::new(n);
            let mut degree = vec![0usize; n];
            let mut adj = vec![Vec::new(); n];
            degree[0] += 1;
            degree[1] += 1;
            adj[1].push(0);
            let mut exhausted = 0;
            for (i, &want) in wants.iter().enumerate().skip(2) {
                for _ in 0..want {
                    let fast = sampler.attach(&mut fast_rng, i);
                    let slow = attach_by_rescan(&mut slow_rng, &mut degree, &mut adj, i);
                    prop_assert_eq!(fast, slow, "node {}", i);
                    if fast.is_none() {
                        exhausted += 1;
                        break;
                    }
                }
                sampler.release();
                for (j, &d) in degree.iter().enumerate() {
                    prop_assert_eq!(sampler.weight[j], d + 1, "weight of {} after {}", j, i);
                }
            }
            prop_assert_eq!(fast_rng.next_u64(), slow_rng.next_u64());
            // Node `i` has `i` candidates: asking for more hits the exit.
            let short = wants.iter().enumerate().skip(2).filter(|&(i, &w)| w > i).count();
            prop_assert_eq!(exhausted, short);
        }
    }

    #[test]
    fn grow_links_each_newcomer_to_distinct_earlier_nodes() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let mut links = Vec::new();
        grow_preferential(&mut rng, 50, 3, |a, b| links.push((a, b)));
        assert_eq!(links.len(), 2 + 3 * 47);
        for &(a, b) in &links {
            assert!(b < a);
        }
        let mut sorted = links.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), links.len(), "duplicate link");
    }
}
