//! An independent oracle for the converged BGP RIB of the multi-AS
//! worlds (paper §5.1.1–5.1.2), written from the commercial rules
//! without calling `massf_routing::policy`:
//!
//! * an AS exports to a customer every route it selected, and to a peer
//!   or a provider only its own prefix and the routes it learned from a
//!   customer (valley-free export);
//! * an AS prefers a route learned from a customer to one learned from a
//!   peer, and that to one learned from a provider, then the shorter AS
//!   path, then the lower next-hop AS;
//! * an AS ignores an announcement whose AS path already holds it.
//!
//! For every ordered AS pair the candidates are what each neighbour
//! exports under those rules from its own selected route. The selected
//! route must be one of them (stability: re-running the decision from
//! the converged RIB picks a route that is on offer), none may rank
//! strictly better (ranking), and among the equally ranked the selected
//! one has the lowest next hop.
//!
//! On random AS graphs the RIB is also held against
//! `routing::dynamics::BeaconSim`, which reaches each destination's
//! routes by exchanging announcements, not by `BgpRib`'s passes.

use massf_core::prelude::*;
use massf_routing::{BeaconSim, BgpRib, CostMetric, MultiAsResolver};
use massf_topology::{generate_multi_as_network, AsGraph, AsRelationship};
use proptest::prelude::*;

/// Rank of a route by the relationship of the AS toward the neighbour it
/// was learned from: customer 0, peer 1, provider 2 (lower is better).
fn class(ours_toward_neighbour: AsRelationship) -> u8 {
    match ours_toward_neighbour {
        AsRelationship::ProviderOf => 0,
        AsRelationship::PeerPeer => 1,
        AsRelationship::CustomerOf => 2,
    }
}

/// Every route `a` is offered toward `d`, as `(class, AS path)`, the
/// path starting at the neighbour and ending at `d`. `customer(c, b)`
/// says whether `c` is a customer of `b`.
fn candidates(
    g: &AsGraph,
    selected: impl Fn(usize, usize) -> Option<Vec<u16>>,
    customer: impl Fn(usize, usize) -> bool,
    a: usize,
    d: usize,
) -> Vec<(u8, Vec<u16>)> {
    let as_u16 = |x: usize| u16::try_from(x).expect("AS numbers fit u16");
    let mut offered = Vec::new();
    for (b, ours) in g.neighbors(a) {
        let path = if b == d {
            // A neighbour's own prefix goes to every neighbour.
            vec![as_u16(b)]
        } else {
            let Some(route) = selected(b, d) else {
                continue;
            };
            // `b` learned `route` from its first hop: a customer's route
            // goes everywhere, anything else only to `b`'s customers.
            let from_customer = customer(usize::from(route[0]), b);
            let a_is_customer_of_b = ours == AsRelationship::CustomerOf;
            if !(from_customer || a_is_customer_of_b) || route.contains(&as_u16(a)) {
                continue;
            }
            std::iter::once(as_u16(b)).chain(route).collect()
        };
        offered.push((class(ours), path));
    }
    offered
}

/// Checks every route `rib` selects on `g` against the candidates its
/// neighbours offer (the module docs' stability, ranking and tie-break
/// rules) and returns how many pairs have a route.
fn check_rib(g: &AsGraph, rib: &BgpRib, what: &str) -> usize {
    let paths: Vec<Option<Vec<u16>>> = (0..g.n * g.n)
        .map(|i| rib.as_path(i / g.n, i % g.n))
        .collect();
    let selected = |s: usize, d: usize| paths[s * g.n + d].clone();
    let mut customers = vec![false; g.n * g.n];
    for b in 0..g.n {
        for c in g.customers(b) {
            customers[c * g.n + b] = true;
        }
    }
    let customer = |c: usize, b: usize| customers[c * g.n + b];
    let mut routes = 0;
    for a in 0..g.n {
        for d in (0..g.n).filter(|&d| d != a) {
            let ctx = format!("{what}: AS {a} → AS {d}");
            let offered = candidates(g, selected, customer, a, d);
            let Some(path) = selected(a, d) else {
                assert!(
                    offered.is_empty(),
                    "{ctx}: unreachable, yet offered {offered:?}"
                );
                continue;
            };
            routes += 1;
            let rank = |(c, p): &(u8, Vec<u16>)| (*c, p.len());
            let chosen = offered.iter().find(|(_, p)| *p == path).map(rank);
            assert!(
                chosen.is_some(),
                "{ctx}: selected {path:?} is not offered; offered {offered:?}"
            );
            let best = offered.iter().map(rank).min();
            assert_eq!(chosen, best, "{ctx}: {path:?} among {offered:?}");
            let lowest_hop = offered
                .iter()
                .filter(|o| Some(rank(o)) == best)
                .map(|(_, p)| p[0])
                .min();
            assert_eq!(
                Some(path[0]),
                lowest_hop,
                "{ctx}: tie-break among {offered:?}"
            );
        }
    }
    routes
}

fn check_world(scale: Scale, seed: u64) {
    let cfg = scale.multi_as_config(seed);
    let m = generate_multi_as_network(&cfg);
    let resolver = MultiAsResolver::new(&m, CostMetric::Latency, &cfg);
    let g = &m.as_graph;
    let routes = check_rib(g, resolver.rib(), &format!("{scale:?} seed {seed}"));
    assert!(
        routes > g.n * (g.n - 1) / 2,
        "{scale:?}: {routes} routes selected"
    );
}

#[test]
fn small_world_routes_rank_first_among_the_exportable_candidates() {
    check_world(Scale::Small, 2004);
}

#[test]
fn medium_world_routes_rank_first_among_the_exportable_candidates() {
    check_world(Scale::Medium, 2004);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// On a random AS graph (up to 300 ASes, 1–3 links per new AS, a
    /// random core fraction, up to five adjacencies removed), every
    /// AS's path toward every destination is the one the beacon's
    /// message passing converges to, and every selected route passes
    /// the stability check above.
    #[test]
    fn rib_matches_message_passing_on_random_graphs(
        n in 3usize..=300,
        links in 1usize..=3,
        core_fraction in 0.01f64..0.4,
        seed in any::<u64>(),
        cuts in proptest::collection::vec(any::<usize>(), 0..6),
    ) {
        let mut g = AsGraph::generate(n, links, core_fraction, seed);
        for pick in cuts {
            let e = g.edges[pick % g.edges.len()];
            g = g.without_edge(e.a, e.b);
        }
        let rib = BgpRib::compute(&g);
        for d in 0..n {
            let mut beacon = BeaconSim::new(&g, d);
            beacon.announce();
            for s in (0..n).filter(|&s| s != d) {
                prop_assert_eq!(
                    rib.as_path(s, d).as_deref(),
                    beacon.path_of(s),
                    "AS {} → AS {}", s, d
                );
            }
        }
        check_rib(&g, &rib, &format!("{n} ASes, seed {seed}"));
    }
}
