//! Dynamic BGP: update propagation, withdrawals, and the beacon study.
//!
//! The paper's Section 7 proposes validating the generated BGP
//! configuration against *BGP beacons* (Mao et al., IMC'03): prefixes
//! that are announced and withdrawn on a fixed schedule while observers
//! record the resulting update churn. This module implements the
//! machinery: a full per-neighbor Adj-RIB-In per speaker, incremental
//! best-route selection, and round-based update propagation — so a
//! prefix can be withdrawn and re-announced after convergence and the
//! resulting message counts, convergence times, and path exploration
//! measured (the classic labovitz-style path hunting is visible in the
//! withdrawal message counts).

#![expect(
    clippy::cast_possible_truncation,
    reason = "AS numbers here are usize graph indices < AsGraph::n, which the topology layer caps at u16::MAX"
)]

use crate::bgp::BgpRoute;
use crate::policy::{export_allowed, local_preference};
use massf_topology::{AsGraph, AsRelationship};
use std::collections::{BTreeMap, VecDeque};

/// One BGP speaker's state for a single destination prefix.
#[derive(Debug, Clone, Default)]
struct PrefixState {
    /// Candidate routes per neighbor (Adj-RIB-In): `(neighbor, route)`.
    candidates: Vec<(usize, BgpRoute)>,
    /// Currently selected best route (None = unreachable).
    best: Option<BgpRoute>,
}

/// An update message: `None` route = withdrawal.
#[derive(Debug, Clone)]
struct Update {
    from: usize,
    to: usize,
    route: Option<BgpRoute>,
}

/// Statistics from one propagation episode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Convergence {
    /// Synchronous rounds until silence.
    pub rounds: usize,
    /// Total update messages exchanged.
    pub messages: usize,
    /// Messages that were withdrawals.
    pub withdrawals: usize,
}

/// Dynamic BGP state for one destination prefix (the beacon) over an AS
/// graph. All other prefixes are irrelevant to beacon dynamics, so the
/// simulator tracks exactly one.
pub struct BeaconSim<'a> {
    graph: &'a AsGraph,
    /// The AS originating the beacon prefix.
    pub origin: usize,
    state: Vec<PrefixState>,
    /// Adj-RIB-Out: `sent[a][b]` = AS path last announced by `a` to `b`.
    /// Withdrawals are only sent to neighbors that hold an announcement.
    /// BTreeMap, not HashMap: `withdraw()` iterates the keys to build
    /// the initial withdrawal burst, and that order must not depend on
    /// hasher state or the Update sequence differs run to run.
    sent: Vec<BTreeMap<usize, Vec<u16>>>,
    announced: bool,
}

impl<'a> BeaconSim<'a> {
    /// A beacon originated by `origin`, initially withdrawn everywhere.
    pub fn new(graph: &'a AsGraph, origin: usize) -> Self {
        assert!(origin < graph.n);
        BeaconSim {
            graph,
            origin,
            state: vec![PrefixState::default(); graph.n],
            sent: vec![BTreeMap::new(); graph.n],
            announced: false,
        }
    }

    /// The AS path selected by `a` toward the beacon, if any.
    pub fn path_of(&self, a: usize) -> Option<&[u16]> {
        self.state[a].best.as_ref().map(|r| r.as_path.as_slice())
    }

    /// Number of ASes that currently have a route to the beacon
    /// (excluding the origin itself).
    pub fn reachable_count(&self) -> usize {
        (0..self.graph.n)
            .filter(|&a| a != self.origin && self.state[a].best.is_some())
            .count()
    }

    /// Announce the beacon and propagate to convergence.
    pub fn announce(&mut self) -> Convergence {
        assert!(!self.announced, "already announced");
        self.announced = true;
        let origin = self.origin;
        let neighbors: Vec<usize> = self
            .graph
            .neighbors(origin)
            .filter(|&(_, rel)| export_allowed(None, rel))
            .map(|(b, _)| b)
            .collect();
        let initial: Vec<Update> = neighbors
            .iter()
            .map(|&b| {
                self.sent[origin].insert(b, vec![origin as u16]);
                Update {
                    from: origin,
                    to: b,
                    route: Some(BgpRoute {
                        as_path: vec![origin as u16],
                        local_pref: 0, // import policy assigns it
                        learned_from: None,
                    }),
                }
            })
            .collect();
        self.propagate(initial)
    }

    /// Withdraw the beacon and propagate to convergence.
    pub fn withdraw(&mut self) -> Convergence {
        assert!(self.announced, "not announced");
        self.announced = false;
        let origin = self.origin;
        let holders: Vec<usize> = self.sent[origin].keys().copied().collect();
        self.sent[origin].clear();
        let initial: Vec<Update> = holders
            .into_iter()
            .map(|b| Update {
                from: origin,
                to: b,
                route: None,
            })
            .collect();
        self.propagate(initial)
    }

    /// Relationship of `a` toward `b`.
    fn rel(&self, a: usize, b: usize) -> AsRelationship {
        self.graph
            .neighbors(a)
            .find(|&(x, _)| x == b)
            .map(|(_, r)| r)
            .expect("adjacent ASes")
    }

    /// Process updates in synchronous rounds until silence.
    fn propagate(&mut self, initial: Vec<Update>) -> Convergence {
        let mut queue: VecDeque<Update> = initial.into_iter().collect();
        let mut stats = Convergence {
            rounds: 0,
            messages: 0,
            withdrawals: 0,
        };
        while !queue.is_empty() {
            stats.rounds += 1;
            assert!(
                stats.rounds <= 16 * self.graph.n + 16,
                "beacon propagation failed to converge"
            );
            let mut next: Vec<Update> = Vec::new();
            for update in queue.drain(..) {
                stats.messages += 1;
                if update.route.is_none() {
                    stats.withdrawals += 1;
                }
                let a = update.to;
                if a == self.origin {
                    continue; // the origin ignores routes to itself
                }
                // Import: replace the sender's Adj-RIB-In slot.
                let rel_to_sender = self.rel(a, update.from);
                let imported = update.route.and_then(|mut r| {
                    // Loop prevention.
                    if r.as_path.contains(&(a as u16)) {
                        return None;
                    }
                    r.local_pref = local_preference(rel_to_sender);
                    r.learned_from = Some(rel_to_sender);
                    Some(r)
                });
                let slot = &mut self.state[a];
                slot.candidates.retain(|(n, _)| *n != update.from);
                if let Some(r) = imported {
                    slot.candidates.push((update.from, r));
                }
                // Decision: best among candidates.
                let new_best = slot
                    .candidates
                    .iter()
                    .map(|(_, r)| r)
                    .fold(None::<&BgpRoute>, |acc, r| match acc {
                        None => Some(r),
                        Some(b) => {
                            if r.better_than(b) {
                                Some(r)
                            } else {
                                Some(b)
                            }
                        }
                    })
                    .cloned();
                if new_best == slot.best {
                    continue; // no change, no announcements
                }
                slot.best = new_best;
                // Export the new state to eligible neighbors.
                let best = self.state[a].best.clone();
                let neighbors: Vec<(usize, AsRelationship)> = self.graph.neighbors(a).collect();
                for (b, rel_a_to_b) in neighbors {
                    let exported = best.as_ref().and_then(|r| {
                        if !export_allowed(r.learned_from, rel_a_to_b) {
                            return None;
                        }
                        if r.as_path.contains(&(b as u16)) {
                            return None;
                        }
                        let mut path = Vec::with_capacity(r.as_path.len() + 1);
                        path.push(a as u16);
                        path.extend_from_slice(&r.as_path);
                        Some(BgpRoute {
                            as_path: path,
                            local_pref: 0,
                            learned_from: None, // set on import
                        })
                    });
                    // Adj-RIB-Out suppression: announce only changes;
                    // withdraw only from neighbors holding a route.
                    match exported {
                        Some(route) => {
                            let prev = self.sent[a].insert(b, route.as_path.clone());
                            if prev.as_deref() != Some(route.as_path.as_slice()) {
                                next.push(Update {
                                    from: a,
                                    to: b,
                                    route: Some(route),
                                });
                            }
                        }
                        None => {
                            if self.sent[a].remove(&b).is_some() {
                                next.push(Update {
                                    from: a,
                                    to: b,
                                    route: None,
                                });
                            }
                        }
                    }
                }
            }
            queue.extend(next);
        }
        stats
    }
}

/// Run a full beacon schedule: `cycles` × (announce, withdraw), as the
/// real beacon infrastructure does daily, returning per-episode
/// convergence stats in order (announce₀, withdraw₀, announce₁, …).
pub fn beacon_schedule(graph: &AsGraph, origin: usize, cycles: usize) -> Vec<Convergence> {
    let mut sim = BeaconSim::new(graph, origin);
    let mut episodes = Vec::with_capacity(2 * cycles);
    for _ in 0..cycles {
        episodes.push(sim.announce());
        episodes.push(sim.withdraw());
    }
    episodes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bgp::{is_valley_free, BgpRib};

    fn graph(n: usize, seed: u64) -> AsGraph {
        AsGraph::generate(n, 2, 0.1, seed)
    }

    #[test]
    fn announce_reaches_every_as() {
        let g = graph(30, 1);
        for origin in [0, 5, 29] {
            let mut sim = BeaconSim::new(&g, origin);
            let stats = sim.announce();
            assert_eq!(
                sim.reachable_count(),
                g.n - 1,
                "origin {origin}: beacon not fully propagated"
            );
            assert!(stats.messages >= g.n - 1);
            assert_eq!(stats.withdrawals, 0);
        }
    }

    #[test]
    fn withdraw_removes_every_route() {
        let g = graph(25, 2);
        let mut sim = BeaconSim::new(&g, 3);
        sim.announce();
        let stats = sim.withdraw();
        assert_eq!(sim.reachable_count(), 0);
        assert!(stats.withdrawals > 0);
    }

    #[test]
    fn dynamic_convergence_matches_static_rib() {
        // After an announce episode, every AS's selected path must equal
        // the path the synchronous whole-table computation selects.
        let g = graph(20, 7);
        let rib = BgpRib::compute(&g);
        for origin in 0..g.n {
            let mut sim = BeaconSim::new(&g, origin);
            sim.announce();
            for a in 0..g.n {
                if a == origin {
                    continue;
                }
                assert_eq!(
                    sim.path_of(a),
                    rib.as_path(a, origin),
                    "AS {a} → beacon {origin} disagrees with static RIB"
                );
            }
        }
    }

    #[test]
    fn beacon_paths_are_valley_free() {
        let g = graph(35, 11);
        let mut sim = BeaconSim::new(&g, 0);
        sim.announce();
        for a in 1..g.n {
            if let Some(p) = sim.path_of(a) {
                let mut full = vec![a];
                full.extend(p.iter().map(|&x| x as usize));
                assert!(is_valley_free(&g, &full), "{full:?}");
            }
        }
    }

    #[test]
    fn withdrawal_exhibits_path_exploration() {
        // Withdrawal churn (path hunting) generally costs at least as
        // many messages as the clean announcement on multi-homed
        // topologies — the beacon observation the paper cites.
        let g = graph(40, 13);
        let episodes = beacon_schedule(&g, 1, 1);
        let (announce, withdraw) = (episodes[0], episodes[1]);
        assert!(
            withdraw.messages + 5 >= announce.messages,
            "withdraw {} vs announce {}",
            withdraw.messages,
            announce.messages
        );
    }

    #[test]
    fn schedule_is_periodic() {
        // Repeated cycles produce identical episode stats: the protocol
        // state returns to baseline after each withdrawal.
        let g = graph(30, 17);
        let episodes = beacon_schedule(&g, 2, 3);
        assert_eq!(episodes[0], episodes[2]);
        assert_eq!(episodes[2], episodes[4]);
        assert_eq!(episodes[1], episodes[3]);
        assert_eq!(episodes[3], episodes[5]);
    }

    #[test]
    fn announce_then_withdraw_is_idempotent_on_state() {
        let g = graph(22, 19);
        let mut sim = BeaconSim::new(&g, 4);
        sim.announce();
        sim.withdraw();
        for a in 0..g.n {
            assert!(sim.path_of(a).is_none());
        }
        // Can re-announce.
        sim.announce();
        assert_eq!(sim.reachable_count(), g.n - 1);
    }

    #[test]
    #[should_panic(expected = "already announced")]
    fn double_announce_rejected() {
        let g = graph(10, 23);
        let mut sim = BeaconSim::new(&g, 0);
        sim.announce();
        sim.announce();
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Fault-dynamics invariant: on *any* random AS graph,
        /// withdraw → re-announce converges within the round budget and
        /// returns the protocol to its baseline state (same episode
        /// stats, full reachability restored).
        #[test]
        fn withdraw_reannounce_always_converges(
            n in 4usize..32,
            seed in 0u64..10_000,
            origin_raw in 0usize..1024,
        ) {
            let g = AsGraph::generate(n, 2, 0.1, seed);
            let origin = origin_raw % g.n;
            let budget = 16 * g.n + 16;
            let mut sim = BeaconSim::new(&g, origin);

            let a1 = sim.announce();
            prop_assert!(a1.rounds <= budget, "announce: {} rounds", a1.rounds);
            prop_assert_eq!(sim.reachable_count(), g.n - 1);

            let w = sim.withdraw();
            prop_assert!(w.rounds <= budget, "withdraw: {} rounds", w.rounds);
            prop_assert_eq!(sim.reachable_count(), 0);

            let a2 = sim.announce();
            prop_assert!(a2.rounds <= budget, "re-announce: {} rounds", a2.rounds);
            prop_assert_eq!(sim.reachable_count(), g.n - 1);
            // Withdrawal fully reset protocol state: the re-announce
            // episode is indistinguishable from the first.
            prop_assert_eq!(a1, a2);
        }
    }
}
