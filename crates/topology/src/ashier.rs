//! AS-level topology: power-law AS graph, Internet-hierarchy
//! classification, and AS relationship assignment.
//!
//! Implements steps 1–3 of the paper's automatic routing configuration
//! procedure (Section 5.1.2):
//!
//! 1. Generate the AS-level topology following the power law.
//! 2. Classify ASes by connection degree: *Core* (top-degree ASes),
//!    *Stub* (degree 1–2), *Regional ISP* (everything else).
//! 3. Decide AS relationships: provider-and-customer between levels
//!    (Core–Stub, Regional–Stub, Core–Regional) and peer-and-peer between
//!    ASes of the same level. Two structural guarantees are enforced:
//!    every non-Core AS has a provider path to a Core AS, and the Core
//!    ASes form a clique (the "Dense Core" observation).

use crate::sampler::grow_preferential;
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

/// Internet-hierarchy class of an AS (paper Section 2.2 / 5.1.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AsClass {
    /// Dense-core / Tier-1 provider. Cores form a clique of peers.
    Core,
    /// Mid-level transit provider.
    RegionalIsp,
    /// Customer / edge AS (degree 1–2).
    Stub,
}

/// Business relationship on an inter-AS edge, from the perspective of the
/// edge's `(a, b)` ordering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AsRelationship {
    /// `a` is the provider of `b`.
    ProviderOf,
    /// `a` is the customer of `b`.
    CustomerOf,
    /// `a` and `b` are peers.
    PeerPeer,
}

impl AsRelationship {
    /// The same relationship viewed from the other endpoint.
    pub fn reverse(self) -> Self {
        match self {
            AsRelationship::ProviderOf => AsRelationship::CustomerOf,
            AsRelationship::CustomerOf => AsRelationship::ProviderOf,
            AsRelationship::PeerPeer => AsRelationship::PeerPeer,
        }
    }
}

/// An inter-AS adjacency with its business relationship.
#[derive(Debug, Clone, Copy)]
pub struct AsEdge {
    pub a: usize,
    pub b: usize,
    /// Relationship of `a` relative to `b`.
    pub rel: AsRelationship,
}

/// The AS-level graph: adjacency, classes, and relationships.
#[derive(Debug, Clone)]
pub struct AsGraph {
    pub n: usize,
    pub edges: Vec<AsEdge>,
    pub classes: Vec<AsClass>,
    adjacency: Vec<Vec<usize>>, // edge indices per AS
}

impl AsGraph {
    /// Generate an AS graph with `n` ASes via preferential attachment
    /// (`m` links per new AS), classify, and assign relationships.
    ///
    /// `core_fraction` bounds the Core size (at least 2 ASes and at least
    /// 1% of ASes are Core so a Dense Core always exists); degree-1/2 ASes
    /// become Stub; the rest Regional ISP.
    pub fn generate(n: usize, m: usize, core_fraction: f64, seed: u64) -> AsGraph {
        assert!(n >= 3, "need at least 3 ASes for a meaningful hierarchy");
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let m = m.max(1);

        // -- Step 1: power-law AS connectivity (preferential attachment) --
        let mut degree = vec![0usize; n];
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n]; // neighbor AS ids
        let mut raw_edges: Vec<(usize, usize)> = Vec::new();
        let add_edge = |a: usize,
                        b: usize,
                        degree: &mut Vec<usize>,
                        adj: &mut Vec<Vec<usize>>,
                        raw_edges: &mut Vec<(usize, usize)>| {
            degree[a] += 1;
            degree[b] += 1;
            adj[a].push(b);
            adj[b].push(a);
            raw_edges.push((a.min(b), a.max(b)));
        };
        add_edge(0, 1, &mut degree, &mut adj, &mut raw_edges);
        grow_preferential(&mut rng, n, m, |i, c| {
            add_edge(i, c, &mut degree, &mut adj, &mut raw_edges)
        });

        // -- Step 2: classification by degree rank / absolute degree --
        let core_size = ((n as f64 * core_fraction).round() as usize).clamp(2, n.max(2) - 1);
        let mut by_degree: Vec<usize> = (0..n).collect();
        by_degree.sort_by_key(|&a| std::cmp::Reverse(degree[a]));
        let mut classes = vec![AsClass::RegionalIsp; n];
        for &a in &by_degree[..core_size] {
            classes[a] = AsClass::Core;
        }
        for a in 0..n {
            if classes[a] != AsClass::Core && degree[a] <= 2 {
                classes[a] = AsClass::Stub;
            }
        }

        // -- Structural guarantee: Core clique ("Dense Core") --
        let cores: Vec<usize> = (0..n).filter(|&a| classes[a] == AsClass::Core).collect();
        for (ci, &a) in cores.iter().enumerate() {
            for &b in &cores[ci + 1..] {
                if !adj[a].contains(&b) {
                    add_edge(a, b, &mut degree, &mut adj, &mut raw_edges);
                }
            }
        }

        // -- Step 3: relationships --
        let rank = |c: AsClass| match c {
            AsClass::Core => 2u8,
            AsClass::RegionalIsp => 1,
            AsClass::Stub => 0,
        };
        let mut edges: Vec<AsEdge> = raw_edges
            .iter()
            .map(|&(a, b)| {
                let (ra, rb) = (rank(classes[a]), rank(classes[b]));
                let rel = match ra.cmp(&rb) {
                    std::cmp::Ordering::Greater => AsRelationship::ProviderOf,
                    std::cmp::Ordering::Less => AsRelationship::CustomerOf,
                    std::cmp::Ordering::Equal => AsRelationship::PeerPeer,
                };
                AsEdge { a, b, rel }
            })
            .collect();

        // -- Structural guarantee: every non-Core AS reaches a Core AS via
        // a chain of provider links. Walk the provider-reachability set and
        // attach orphans to a random Core (or Regional for Stubs) provider.
        loop {
            let reachable = provider_reachable(n, &edges, &classes);
            let mut fixed_any = false;
            for a in 0..n {
                if !reachable[a] {
                    // Attach `a` as customer of a random Core AS.
                    #[expect(clippy::expect_used, reason = "a hierarchy has at least one core AS")]
                    let &core = cores.choose(&mut rng).expect("core set non-empty");
                    if !adj[a].contains(&core) {
                        add_edge(a, core, &mut degree, &mut adj, &mut raw_edges);
                        edges.push(AsEdge {
                            a,
                            b: core,
                            rel: AsRelationship::CustomerOf,
                        });
                        fixed_any = true;
                    } else {
                        // Existing same-level peer edge to a core? Then `a`
                        // must be Core itself, which is always reachable —
                        // cannot happen. Upgrade the edge to customer.
                        for e in edges.iter_mut() {
                            if (e.a == a && e.b == core) || (e.a == core && e.b == a) {
                                e.rel = if e.a == a {
                                    AsRelationship::CustomerOf
                                } else {
                                    AsRelationship::ProviderOf
                                };
                                fixed_any = true;
                            }
                        }
                    }
                }
            }
            if !fixed_any {
                break;
            }
        }

        let mut adjacency: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, e) in edges.iter().enumerate() {
            adjacency[e.a].push(i);
            adjacency[e.b].push(i);
        }
        AsGraph {
            n,
            edges,
            classes,
            adjacency,
        }
    }

    /// Edge indices incident to AS `a`.
    pub fn incident(&self, a: usize) -> &[usize] {
        &self.adjacency[a]
    }

    /// Iterate `(neighbor, relationship-of-a-toward-neighbor)` pairs.
    pub fn neighbors(&self, a: usize) -> impl Iterator<Item = (usize, AsRelationship)> + '_ {
        self.adjacency[a].iter().map(move |&ei| {
            let e = &self.edges[ei];
            if e.a == a {
                (e.b, e.rel)
            } else {
                (e.a, e.rel.reverse())
            }
        })
    }

    /// The providers of AS `a`.
    pub fn providers(&self, a: usize) -> Vec<usize> {
        self.neighbors(a)
            .filter(|&(_, r)| r == AsRelationship::CustomerOf)
            .map(|(b, _)| b)
            .collect()
    }

    /// The customers of AS `a`.
    pub fn customers(&self, a: usize) -> Vec<usize> {
        self.neighbors(a)
            .filter(|&(_, r)| r == AsRelationship::ProviderOf)
            .map(|(b, _)| b)
            .collect()
    }

    /// The peers of AS `a`.
    pub fn peers(&self, a: usize) -> Vec<usize> {
        self.neighbors(a)
            .filter(|&(_, r)| r == AsRelationship::PeerPeer)
            .map(|(b, _)| b)
            .collect()
    }

    /// All Core AS ids.
    pub fn core_ases(&self) -> Vec<usize> {
        (0..self.n)
            .filter(|&a| self.classes[a] == AsClass::Core)
            .collect()
    }

    /// All Stub AS ids.
    pub fn stub_ases(&self) -> Vec<usize> {
        (0..self.n)
            .filter(|&a| self.classes[a] == AsClass::Stub)
            .collect()
    }

    /// True if every AS can reach a Core AS through provider links only
    /// (the paper's step-3 guarantee of full connectivity).
    pub fn all_provider_connected(&self) -> bool {
        provider_reachable(self.n, &self.edges, &self.classes)
            .iter()
            .all(|&r| r)
    }

    /// A copy of this graph with the `a`–`b` adjacency removed (used for
    /// failure studies of multi-homed default/backup routing).
    pub fn without_edge(&self, a: usize, b: usize) -> AsGraph {
        let edges: Vec<AsEdge> = self
            .edges
            .iter()
            .copied()
            .filter(|e| !((e.a == a && e.b == b) || (e.a == b && e.b == a)))
            .collect();
        let mut adjacency: Vec<Vec<usize>> = vec![Vec::new(); self.n];
        for (i, e) in edges.iter().enumerate() {
            adjacency[e.a].push(i);
            adjacency[e.b].push(i);
        }
        AsGraph {
            n: self.n,
            edges,
            classes: self.classes.clone(),
            adjacency,
        }
    }
}

/// Which ASes reach a Core AS by repeatedly following customer→provider
/// links (Cores are trivially reachable).
fn provider_reachable(_n: usize, edges: &[AsEdge], classes: &[AsClass]) -> Vec<bool> {
    let mut reach: Vec<bool> = classes.iter().map(|&c| c == AsClass::Core).collect();
    // Propagate down from providers to customers until fixpoint.
    loop {
        let mut changed = false;
        for e in edges {
            let (cust, prov) = match e.rel {
                AsRelationship::CustomerOf => (e.a, e.b),
                AsRelationship::ProviderOf => (e.b, e.a),
                AsRelationship::PeerPeer => continue,
            };
            if reach[prov] && !reach[cust] {
                reach[cust] = true;
                changed = true;
            }
        }
        if !changed {
            return reach;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gen(n: usize, seed: u64) -> AsGraph {
        AsGraph::generate(n, 2, 0.08, seed)
    }

    #[test]
    fn relationship_reverse_is_involutive() {
        for r in [
            AsRelationship::ProviderOf,
            AsRelationship::CustomerOf,
            AsRelationship::PeerPeer,
        ] {
            assert_eq!(r.reverse().reverse(), r);
        }
    }

    #[test]
    fn core_forms_clique() {
        let g = gen(50, 7);
        let cores = g.core_ases();
        assert!(cores.len() >= 2);
        for (i, &a) in cores.iter().enumerate() {
            for &b in &cores[i + 1..] {
                assert!(
                    g.neighbors(a).any(|(x, _)| x == b),
                    "cores {a} and {b} not adjacent"
                );
            }
        }
    }

    #[test]
    fn cores_are_mutual_peers() {
        let g = gen(50, 7);
        let cores = g.core_ases();
        for &a in &cores {
            for (b, rel) in g.neighbors(a) {
                if g.classes[b] == AsClass::Core {
                    assert_eq!(rel, AsRelationship::PeerPeer);
                }
            }
        }
    }

    #[test]
    fn every_as_provider_connected_to_core() {
        for seed in 0..8 {
            let g = gen(60, seed);
            assert!(g.all_provider_connected(), "seed {seed}");
        }
    }

    #[test]
    fn stubs_never_provide_transit() {
        let g = gen(80, 3);
        for a in g.stub_ases() {
            assert!(
                g.customers(a).is_empty(),
                "stub {a} has customers {:?}",
                g.customers(a)
            );
        }
    }

    #[test]
    fn classification_covers_all_and_stub_majority_for_low_m() {
        let g = AsGraph::generate(100, 1, 0.05, 11);
        let stubs = g.stub_ases().len();
        let cores = g.core_ases().len();
        assert_eq!(
            g.classes.len(),
            100,
            "every AS classified exactly once by construction"
        );
        // Paper: Customers ≈ 90% of ASes; with m=1 the vast majority of
        // ASes are degree-1 leaves.
        assert!(stubs > 50, "stubs {stubs}");
        assert!((2..=10).contains(&cores), "cores {cores}");
    }

    #[test]
    fn relationships_follow_hierarchy() {
        let g = gen(70, 21);
        for e in &g.edges {
            let (ca, cb) = (g.classes[e.a], g.classes[e.b]);
            match e.rel {
                AsRelationship::PeerPeer => {
                    // Peers only at the same level... except upgraded
                    // orphan-fix edges are never PeerPeer, so strict check:
                    assert_eq!(
                        std::mem::discriminant(&ca),
                        std::mem::discriminant(&cb),
                        "peer edge between {ca:?} and {cb:?}"
                    );
                }
                AsRelationship::ProviderOf => {
                    assert!(rank(ca) >= rank(cb), "{ca:?} providing for {cb:?}");
                }
                AsRelationship::CustomerOf => {
                    assert!(rank(ca) <= rank(cb), "{ca:?} customer of {cb:?}");
                }
            }
        }
        fn rank(c: AsClass) -> u8 {
            match c {
                AsClass::Core => 2,
                AsClass::RegionalIsp => 1,
                AsClass::Stub => 0,
            }
        }
    }

    #[test]
    fn deterministic_generation() {
        let a = gen(40, 99);
        let b = gen(40, 99);
        assert_eq!(a.edges.len(), b.edges.len());
        for (x, y) in a.edges.iter().zip(&b.edges) {
            assert_eq!((x.a, x.b, x.rel), (y.a, y.b, y.rel));
        }
    }

    #[test]
    fn provider_customer_views_agree() {
        let g = gen(45, 5);
        for a in 0..g.n {
            for p in g.providers(a) {
                assert!(g.customers(p).contains(&a));
            }
            for c in g.customers(a) {
                assert!(g.providers(c).contains(&a));
            }
        }
    }
}
