//! BGP4: AS-level path-vector routing with policy.
//!
//! Each AS runs one logical BGP speaker (route reflection collapses an
//! AS's border routers to a single decision point; intra-AS delivery is
//! OSPF's job) and originates one prefix — itself — under the import
//! policy ([`crate::policy::local_preference`]), valley-free export
//! ([`crate::policy::export_allowed`]), loop prevention, and the
//! decision process of [`BgpRoute::better_than`]: highest local
//! preference, then shortest AS path, then lowest next-hop AS (standing
//! in for the MED / router-id tie-breaks of the full protocol).
//!
//! [`BgpRib`] holds the stable routing: one `u16` next hop per (source,
//! destination) pair, stored by destination. Each destination `d` is
//! solved by three passes instead of exchanging messages:
//!
//! 1. customer routes climb provider edges, breadth first from `d`;
//! 2. peer routes take one peer hop from `d` or an AS with a customer
//!    route (only those export to peers);
//! 3. provider routes descend customer edges in order of path length
//!    (providers export everything to customers).
//!
//! Each AS keeps the shortest route of its best class, lowest next hop
//! on a tie: `better_than`'s order, as each neighbour offers one path.
//! With policy, *connectivity does not imply reachability*.
//!
//! The passes are exact because the provider hierarchy is acyclic: an
//! [`AsGraph`] is built only by `generate` and `without_edge`, which
//! make the provider of every provider/customer edge the AS of higher
//! class rank (Core > Regional ISP > Stub). So no pass can offer an AS
//! a path through itself, and loop prevention never acts.
//! `routing::dynamics::BeaconSim`, a per-destination message-passing
//! solver, is the oracle (`dynamic_convergence_matches_static_rib`,
//! `tests/tests/bgp_oracle.rs`).

#![expect(
    clippy::cast_possible_truncation,
    reason = "AS numbers here are usize graph indices < AsGraph::n, which the topology layer caps at u16::MAX"
)]

use crate::policy::{LOCAL_PREF_CUSTOMER, LOCAL_PREF_PEER, LOCAL_PREF_PROVIDER};
use massf_topology::{AsGraph, AsRelationship};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A BGP route to some destination AS, as held in a speaker's RIB.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BgpRoute {
    /// AS path, first element = next-hop AS, last = origin AS.
    pub as_path: Vec<u16>,
    /// Local preference assigned on import.
    pub local_pref: u32,
    /// Our relationship toward the neighbor the route was learned from
    /// (None for locally originated routes).
    pub learned_from: Option<AsRelationship>,
}

impl BgpRoute {
    /// The BGP decision process: is `self` preferred over `other`?
    /// Highest local-pref, then shortest AS path, then lowest next hop.
    pub fn better_than(&self, other: &BgpRoute) -> bool {
        if self.local_pref != other.local_pref {
            return self.local_pref > other.local_pref;
        }
        if self.as_path.len() != other.as_path.len() {
            return self.as_path.len() < other.as_path.len();
        }
        self.as_path < other.as_path
    }
}

/// The next-hop table's "no route" entry.
const NO_ROUTE: u16 = u16::MAX;

/// Stable BGP routing: every AS's next hop toward every destination AS
/// (none when `src == dst` or unreachable under policy).
#[derive(Debug, Clone)]
pub struct BgpRib {
    n: usize,
    /// `next[dst * n + src]`: `src`'s next hop toward `dst`.
    next: Box<[u16]>,
}

/// A route's rank, lower first: local preference (descending), then
/// AS-path length.
type Rank = (Reverse<u32>, u16);

/// `via` offers `a` its route, one AS longer, imported at local
/// preference `pref`; `a` keeps the lower of it and its own by (rank,
/// next hop). Returns whether `a`'s rank improved.
fn offer(rank: &mut [Rank], hop: &mut [u16], a: usize, pref: u32, via: usize) -> bool {
    let new = (Reverse(pref), rank[via].1 + 1);
    if (new, via as u16) < (rank[a], hop[a]) {
        hop[a] = via as u16;
        let improved = new < rank[a];
        rank[a] = new;
        return improved;
    }
    false
}

impl BgpRib {
    /// Solve each destination by the three passes of the module docs.
    pub fn compute(g: &AsGraph) -> BgpRib {
        let n = g.n;
        let providers: Vec<Vec<usize>> = (0..n).map(|a| g.providers(a)).collect();
        let peers: Vec<Vec<usize>> = (0..n).map(|a| g.peers(a)).collect();
        let customers: Vec<Vec<usize>> = (0..n).map(|a| g.customers(a)).collect();
        let mut next = vec![NO_ROUTE; n * n].into_boxed_slice();
        let mut rank: Vec<Rank> = vec![(Reverse(0), NO_ROUTE); n];
        let mut climbed: Vec<usize> = Vec::with_capacity(n);
        let mut by_length: BinaryHeap<Reverse<(u16, usize)>> = BinaryHeap::with_capacity(n);
        for (d, hop) in next.chunks_mut(n.max(1)).enumerate() {
            rank.fill((Reverse(0), NO_ROUTE));
            rank[d] = (Reverse(u32::MAX), 0);
            // 1. Customer routes: `climbed` is `d` and the ASes above it.
            climbed.clear();
            climbed.push(d);
            let mut i = 0;
            while let Some(&c) = climbed.get(i) {
                i += 1;
                for &p in &providers[c] {
                    if offer(&mut rank, hop, p, LOCAL_PREF_CUSTOMER, c) {
                        climbed.push(p);
                    }
                }
            }
            // 2. Peer routes.
            for &c in &climbed {
                for &a in &peers[c] {
                    offer(&mut rank, hop, a, LOCAL_PREF_PEER, c);
                }
            }
            // 3. Provider routes: each AS's route is final before it is
            // offered to a customer.
            by_length.extend(
                (0..n)
                    .filter(|&a| rank[a].1 != NO_ROUTE)
                    .map(|a| Reverse((rank[a].1, a))),
            );
            while let Some(Reverse((_, q))) = by_length.pop() {
                for &x in &customers[q] {
                    if offer(&mut rank, hop, x, LOCAL_PREF_PROVIDER, q) {
                        by_length.push(Reverse((rank[x].1, x)));
                    }
                }
            }
        }
        BgpRib { n, next }
    }

    /// Number of ASes.
    pub fn as_count(&self) -> usize {
        self.n
    }

    /// Bytes the next-hop table holds: two per ordered AS pair.
    pub fn table_bytes(&self) -> usize {
        std::mem::size_of_val(&*self.next)
    }

    /// Next-hop AS of `src` toward `dst`.
    pub fn next_as(&self, src: usize, dst: usize) -> Option<usize> {
        let hop = self.next[dst * self.n + src];
        (hop != NO_ROUTE).then_some(usize::from(hop))
    }

    /// Full AS-level path `src → … → dst` (exclusive of `src`), if any:
    /// the next hops walked from `src`, each one AS closer to `dst`.
    pub fn as_path(&self, src: usize, dst: usize) -> Option<Vec<u16>> {
        let mut path = Vec::new();
        let mut at = src;
        while at != dst {
            at = self.next_as(at, dst)?;
            path.push(at as u16);
        }
        (!path.is_empty()).then_some(path)
    }

    /// Is `dst` reachable from `src` under policy? (`src == dst` is
    /// trivially reachable.)
    pub fn reachable(&self, src: usize, dst: usize) -> bool {
        src == dst || self.next_as(src, dst).is_some()
    }

    /// Fraction of ordered AS pairs (src ≠ dst) that are reachable.
    #[expect(
        clippy::float_arithmetic,
        reason = "a reported fraction of two integer counts; it feeds no run"
    )]
    pub fn reachability_fraction(&self) -> f64 {
        let n = self.as_count();
        if n <= 1 {
            return 1.0;
        }
        let unreachable = self.next.iter().filter(|&&h| h == NO_ROUTE).count() - n;
        (n * n - n - unreachable) as f64 / (n * n - n) as f64
    }
}

/// Check that an AS path is *valley-free* given the AS relationships:
/// once the path goes "down" (provider→customer) or "across" (peer), it
/// may never go "up" (customer→provider) or "across" again.
/// `path` is a sequence of AS ids from source to destination.
pub fn is_valley_free(g: &AsGraph, path: &[usize]) -> bool {
    let mut descended = false;
    for w in path.windows(2) {
        let (x, y) = (w[0], w[1]);
        let Some((_, rel)) = g.neighbors(x).find(|&(b, _)| b == y) else {
            return false; // not even adjacent
        };
        match rel {
            AsRelationship::CustomerOf => {
                // x → its provider: an "up" step.
                if descended {
                    return false;
                }
            }
            AsRelationship::PeerPeer => {
                if descended {
                    return false;
                }
                descended = true; // at most one peer step, at the top
            }
            AsRelationship::ProviderOf => {
                descended = true; // "down" step
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use massf_topology::AsGraph;

    fn generated(n: usize, seed: u64) -> (AsGraph, BgpRib) {
        let g = AsGraph::generate(n, 2, 0.1, seed);
        let rib = BgpRib::compute(&g);
        (g, rib)
    }

    #[test]
    fn decision_prefers_local_pref_over_path_length() {
        let long_customer = BgpRoute {
            as_path: vec![1, 2, 3],
            local_pref: 100,
            learned_from: None,
        };
        let short_provider = BgpRoute {
            as_path: vec![4],
            local_pref: 80,
            learned_from: None,
        };
        assert!(long_customer.better_than(&short_provider));
    }

    #[test]
    fn decision_prefers_shorter_path_then_lower_next_hop() {
        let a = BgpRoute {
            as_path: vec![2, 3],
            local_pref: 90,
            learned_from: None,
        };
        let b = BgpRoute {
            as_path: vec![5],
            local_pref: 90,
            learned_from: None,
        };
        assert!(b.better_than(&a));
        let c = BgpRoute {
            as_path: vec![1],
            local_pref: 90,
            learned_from: None,
        };
        assert!(c.better_than(&b));
    }

    #[test]
    fn full_reachability_on_generated_hierarchy() {
        // maBrite guarantees a provider path to the core, so every AS
        // should reach every other (typically via the core).
        for seed in [1, 9, 42] {
            let (_, rib) = generated(30, seed);
            assert_eq!(
                rib.reachability_fraction(),
                1.0,
                "seed {seed}: unreachable pairs exist"
            );
        }
    }

    #[test]
    fn all_selected_paths_are_valley_free() {
        let (g, rib) = generated(40, 7);
        for s in 0..g.n {
            for d in 0..g.n {
                if let Some(path) = rib.as_path(s, d) {
                    let mut full = vec![s];
                    full.extend(path.iter().map(|&x| x as usize));
                    assert!(
                        is_valley_free(&g, &full),
                        "path {s}→{d} = {full:?} has a valley"
                    );
                    assert_eq!(*path.last().expect("RIB paths are non-empty") as usize, d);
                }
            }
        }
    }

    #[test]
    fn paths_are_loop_free() {
        let (g, rib) = generated(35, 3);
        for s in 0..g.n {
            for d in 0..g.n {
                if let Some(path) = rib.as_path(s, d) {
                    let mut seen = std::collections::BTreeSet::new();
                    assert!(seen.insert(s as u16));
                    for &hop in &path {
                        assert!(seen.insert(hop), "loop in {s}→{d}: {path:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn next_hop_consistency() {
        // The route via next hop must agree with the next hop's own
        // selected route when stripped by one AS — BGP's actual
        // forwarding consistency on converged state is weaker, but on
        // our synchronous convergence the path tail must at least be a
        // valid route of the next hop (same destination, loop-free);
        // verify destination agreement.
        let (g, rib) = generated(25, 11);
        for s in 0..g.n {
            for d in 0..g.n {
                if let Some(nh) = rib.next_as(s, d) {
                    if nh != d {
                        assert!(
                            rib.reachable(nh, d),
                            "next hop {nh} of {s}→{d} cannot reach {d}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn policy_blocks_peer_transit() {
        // Hand-built: stub A — provider P1 — peer — P2 — stub B, where
        // P1 and P2 are regionals with no mutual provider. A valley-free
        // world still routes A→B via P1-P2 (up, across, down): allowed.
        // But peer P1 must NOT provide transit between its two peers.
        // Construct: peers X — Y, X — Z (Y, Z also peers of X but not of
        // each other, no providers at all). Y→Z would need Y —peer— X
        // —peer— Z: two "across" steps = blocked.
        // We verify on generated graphs instead that *no* selected path
        // contains two peer steps.
        let (g, rib) = generated(50, 13);
        for s in 0..g.n {
            for d in 0..g.n {
                if let Some(path) = rib.as_path(s, d) {
                    let mut full = vec![s];
                    full.extend(path.iter().map(|&x| x as usize));
                    let peer_steps = full
                        .windows(2)
                        .filter(|w| {
                            g.neighbors(w[0])
                                .any(|(b, r)| b == w[1] && r == AsRelationship::PeerPeer)
                        })
                        .count();
                    assert!(
                        peer_steps <= 1,
                        "{s}→{d}: {full:?} uses {peer_steps} peer links"
                    );
                }
            }
        }
    }

    #[test]
    fn customer_routes_selected_over_provider_routes() {
        // For every (s, d) where the selected next hop is s's customer,
        // verify no better-pref alternative existed... indirectly: check
        // the selected route's local_pref is maximal among RIB entries
        // (we only store the winner, so check pref ≥ provider pref when
        // a customer path exists is implied). Here: where d is a direct
        // customer of s, the selected path must be the one-hop customer
        // route.
        let (g, rib) = generated(40, 21);
        for s in 0..g.n {
            for d in g.customers(s) {
                let path = rib.as_path(s, d).expect("customer reachable");
                assert_eq!(path, [d as u16], "s={s} d={d} picked {path:?}");
            }
        }
    }

    #[test]
    fn valley_detector_rejects_valleys() {
        // Build tiny graph by hand through the generator's types is
        // awkward; use a generated graph and fabricate a valley:
        // customer→provider after provider→customer.
        let g = AsGraph::generate(20, 2, 0.15, 2);
        // Find a provider P with two customers c1, c2 (a valley c1-P-c2
        // is *valid* BGP — up then down — wait, c1→P is up, P→c2 is
        // down: that is valley-free). A true valley: P1→c (down) then
        // c→P2 (up). Find c with two providers.
        let mut found = false;
        for c in 0..g.n {
            let provs = g.providers(c);
            if provs.len() >= 2 {
                let path = vec![provs[0], c, provs[1]];
                assert!(!is_valley_free(&g, &path), "valley accepted: {path:?}");
                found = true;
                break;
            }
        }
        assert!(found, "no multi-homed customer in test graph");
    }
}
