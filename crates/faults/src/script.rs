//! Fault scripts: scheduled timelines of failure events.

use massf_engine::SimTime;
use massf_topology::{LinkId, MassfError, Network, NodeId, NodeKind};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

/// One kind of scripted fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// The link stops carrying packets; in-flight packets are dropped.
    LinkDown(LinkId),
    /// The link comes back up.
    LinkUp(LinkId),
    /// The router (or host) stops forwarding; packets at or through it
    /// are dropped.
    RouterCrash(NodeId),
    /// The router recovers.
    RouterRecover(NodeId),
    /// The BGP session between two ASes fails: inter-domain routing
    /// re-converges on the reduced AS graph.
    AsAdjacencyFail { as_a: u16, as_b: u16 },
    /// The BGP session is re-established.
    AsAdjacencyRestore { as_a: u16, as_b: u16 },
}

/// A fault at a scheduled virtual time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    pub at: SimTime,
    pub kind: FaultKind,
}

/// An ordered timeline of fault events. Scripts are plain data: build
/// one with the fluent methods (or [`FaultScript::random_link_flaps`]),
/// then compile it into a [`crate::FaultState`] to drive a simulation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultScript {
    events: Vec<FaultEvent>,
}

impl FaultScript {
    /// An empty script.
    pub fn new() -> Self {
        FaultScript::default()
    }

    /// Append a raw event.
    pub fn push(&mut self, at: SimTime, kind: FaultKind) -> &mut Self {
        self.events.push(FaultEvent { at, kind });
        self
    }

    /// Schedule `link` to go down at `at`.
    pub fn link_down(&mut self, at: SimTime, link: LinkId) -> &mut Self {
        self.push(at, FaultKind::LinkDown(link))
    }

    /// Schedule `link` to come back up at `at`.
    pub fn link_up(&mut self, at: SimTime, link: LinkId) -> &mut Self {
        self.push(at, FaultKind::LinkUp(link))
    }

    /// Schedule `node` to crash at `at`.
    pub fn router_crash(&mut self, at: SimTime, node: NodeId) -> &mut Self {
        self.push(at, FaultKind::RouterCrash(node))
    }

    /// Schedule `node` to recover at `at`.
    pub fn router_recover(&mut self, at: SimTime, node: NodeId) -> &mut Self {
        self.push(at, FaultKind::RouterRecover(node))
    }

    /// Schedule the `as_a`–`as_b` BGP adjacency to fail at `at`.
    pub fn adjacency_fail(&mut self, at: SimTime, as_a: u16, as_b: u16) -> &mut Self {
        self.push(at, FaultKind::AsAdjacencyFail { as_a, as_b })
    }

    /// Schedule the `as_a`–`as_b` BGP adjacency to be restored at `at`.
    pub fn adjacency_restore(&mut self, at: SimTime, as_a: u16, as_b: u16) -> &mut Self {
        self.push(at, FaultKind::AsAdjacencyRestore { as_a, as_b })
    }

    /// The events in insertion order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Is the script empty?
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The events sorted by time (stable: ties keep insertion order).
    pub fn sorted_events(&self) -> Vec<FaultEvent> {
        let mut sorted = self.events.clone();
        sorted.sort_by_key(|e| e.at);
        sorted
    }

    /// Validate the script against `net`: every referenced link/node
    /// must exist, links may only go down when up (and vice versa),
    /// routers may only crash when alive, and adjacency events must
    /// reference two distinct ASes. Returns [`MassfError::InvalidFaultScript`]
    /// describing the first violation in time order.
    pub fn validate(&self, net: &Network) -> Result<(), MassfError> {
        let bad = |msg: String| Err(MassfError::InvalidFaultScript(msg));
        let mut link_up = vec![true; net.links.len()];
        let mut node_up = vec![true; net.node_count()];
        let mut adj_fails: std::collections::BTreeMap<(u16, u16), i32> =
            std::collections::BTreeMap::new();
        for e in self.sorted_events() {
            match e.kind {
                FaultKind::LinkDown(l) | FaultKind::LinkUp(l) => {
                    let Some(up) = link_up.get_mut(l.index()) else {
                        return bad(format!("link {} out of range", l.0));
                    };
                    let down_event = matches!(e.kind, FaultKind::LinkDown(_));
                    if *up != down_event {
                        return bad(format!(
                            "link {} already {} at {} ns",
                            l.0,
                            if down_event { "down" } else { "up" },
                            e.at.as_ns()
                        ));
                    }
                    *up = !down_event;
                }
                FaultKind::RouterCrash(n) | FaultKind::RouterRecover(n) => {
                    let Some(up) = node_up.get_mut(n.index()) else {
                        return bad(format!("node {} out of range", n.0));
                    };
                    let crash = matches!(e.kind, FaultKind::RouterCrash(_));
                    if *up != crash {
                        return bad(format!(
                            "node {} already {} at {} ns",
                            n.0,
                            if crash { "down" } else { "up" },
                            e.at.as_ns()
                        ));
                    }
                    *up = !crash;
                }
                FaultKind::AsAdjacencyFail { as_a, as_b }
                | FaultKind::AsAdjacencyRestore { as_a, as_b } => {
                    if as_a == as_b {
                        return bad(format!("adjacency event on a single AS {as_a}"));
                    }
                    let key = (as_a.min(as_b), as_a.max(as_b));
                    let count = adj_fails.entry(key).or_insert(0);
                    if matches!(e.kind, FaultKind::AsAdjacencyFail { .. }) {
                        *count += 1;
                    } else {
                        *count -= 1;
                        if *count < 0 {
                            return bad(format!(
                                "adjacency {}-{} restored while up at {} ns",
                                as_a,
                                as_b,
                                e.at.as_ns()
                            ));
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// A deterministic, seeded link-flap workload: `flaps` episodes,
    /// each taking one random router–router link down for `down_for`,
    /// with down-events spread uniformly over `[start, end)`. Host
    /// access links are excluded so the study measures *rerouting*, not
    /// guaranteed partition. The same `(net, args, seed)` always yields
    /// the same script.
    pub fn random_link_flaps(
        net: &Network,
        flaps: usize,
        down_for: SimTime,
        start: SimTime,
        end: SimTime,
        seed: u64,
    ) -> Result<FaultScript, MassfError> {
        if end <= start {
            return Err(MassfError::InvalidConfig(format!(
                "flap window empty: [{}, {}) ns",
                start.as_ns(),
                end.as_ns()
            )));
        }
        let candidates: Vec<LinkId> = net
            .links
            .iter()
            .filter(|l| {
                net.nodes[l.a.index()].kind == NodeKind::Router
                    && net.nodes[l.b.index()].kind == NodeKind::Router
            })
            .map(|l| l.id)
            .collect();
        if candidates.is_empty() {
            return Err(MassfError::InvalidFaultScript(
                "no router-router links to flap".into(),
            ));
        }
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut script = FaultScript::new();
        let span = end.as_ns() - start.as_ns();
        // One link can be down once at a time; drawing per-flap links
        // without immediate repetition keeps episodes independent.
        let mut busy_until: std::collections::BTreeMap<u32, u64> =
            std::collections::BTreeMap::new();
        for _ in 0..flaps {
            let at = SimTime(start.as_ns() + rng.gen_range(0..span));
            let link = candidates[rng.gen_range(0..candidates.len())];
            let free = busy_until.get(&link.0).copied().unwrap_or(0);
            if at.as_ns() < free {
                continue; // this link is still down from an earlier flap
            }
            let up_at = at + down_for;
            script.link_down(at, link);
            script.link_up(up_at, link);
            busy_until.insert(link.0, up_at.as_ns() + 1);
        }
        Ok(script)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use massf_topology::{AsId, Point};

    fn square() -> Network {
        let mut net = Network::new();
        let ids: Vec<NodeId> = (0..4)
            .map(|i| net.add_node(NodeKind::Router, Point::new(i as f64, 0.0), AsId(0)))
            .collect();
        net.add_link(ids[0], ids[1], 1e9, 1.0);
        net.add_link(ids[1], ids[2], 1e9, 1.0);
        net.add_link(ids[2], ids[3], 1e9, 1.0);
        net.add_link(ids[3], ids[0], 1e9, 1.0);
        net
    }

    #[test]
    fn builder_and_sorting() {
        let mut s = FaultScript::new();
        s.link_down(SimTime::from_ms(50), LinkId(1))
            .link_up(SimTime::from_ms(20), LinkId(1));
        assert_eq!(s.len(), 2);
        let sorted = s.sorted_events();
        assert_eq!(sorted[0].at, SimTime::from_ms(20));
        assert_eq!(sorted[1].at, SimTime::from_ms(50));
    }

    #[test]
    fn equal_times_keep_insertion_order() {
        let mut s = FaultScript::new();
        s.link_down(SimTime::from_ms(5), LinkId(0));
        s.router_crash(SimTime::from_ms(5), NodeId(2));
        let sorted = s.sorted_events();
        assert_eq!(sorted[0].kind, FaultKind::LinkDown(LinkId(0)));
        assert_eq!(sorted[1].kind, FaultKind::RouterCrash(NodeId(2)));
    }

    #[test]
    fn validate_accepts_well_formed() {
        let net = square();
        let mut s = FaultScript::new();
        s.link_down(SimTime::from_ms(10), LinkId(0))
            .link_up(SimTime::from_ms(20), LinkId(0))
            .router_crash(SimTime::from_ms(15), NodeId(3))
            .router_recover(SimTime::from_ms(30), NodeId(3));
        assert_eq!(s.validate(&net), Ok(()));
    }

    #[test]
    fn validate_rejects_out_of_range_and_double_down() {
        let net = square();
        let mut s = FaultScript::new();
        s.link_down(SimTime::from_ms(1), LinkId(99));
        assert!(matches!(
            s.validate(&net),
            Err(MassfError::InvalidFaultScript(_))
        ));

        let mut s = FaultScript::new();
        s.link_down(SimTime::from_ms(1), LinkId(0));
        s.link_down(SimTime::from_ms(2), LinkId(0));
        assert!(s.validate(&net).is_err());

        let mut s = FaultScript::new();
        s.link_up(SimTime::from_ms(1), LinkId(0)); // up while up
        assert!(s.validate(&net).is_err());

        let mut s = FaultScript::new();
        s.adjacency_restore(SimTime::from_ms(1), 0, 1); // restore while up
        assert!(s.validate(&net).is_err());
    }

    #[test]
    fn random_flaps_deterministic_and_valid() {
        let net = square();
        let mk = || {
            FaultScript::random_link_flaps(
                &net,
                5,
                SimTime::from_ms(100),
                SimTime::from_ms(100),
                SimTime::from_secs(2),
                42,
            )
            .expect("square net has router-router links")
        };
        let a = mk();
        let b = mk();
        assert_eq!(a, b, "same seed must give the same script");
        assert_eq!(a.validate(&net), Ok(()));
        assert!(!a.is_empty());
        // Every down has a matching up.
        let downs = a
            .events()
            .iter()
            .filter(|e| matches!(e.kind, FaultKind::LinkDown(_)))
            .count();
        let ups = a
            .events()
            .iter()
            .filter(|e| matches!(e.kind, FaultKind::LinkUp(_)))
            .count();
        assert_eq!(downs, ups);
    }

    #[test]
    fn random_flaps_rejects_empty_window() {
        let net = square();
        assert!(matches!(
            FaultScript::random_link_flaps(
                &net,
                1,
                SimTime::from_ms(1),
                SimTime::from_secs(2),
                SimTime::from_secs(1),
                7,
            ),
            Err(MassfError::InvalidConfig(_))
        ));
    }
}
