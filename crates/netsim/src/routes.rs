//! Route interning (DESIGN.md §3 item 11): a [`RouteTable`] holds one
//! entry per `(src, dst)` pair ever resolved, the route together with
//! the fault epoch it was resolved in.
//!
//! A lookup hits when the stored epoch is the current one; anything
//! else resolves through [`SharedNet::resolve_route`](crate::SharedNet::resolve_route)
//! and overwrites the entry. Nothing is evicted, so the table holds
//! exactly what was resolved. Epoch equality is the whole invalidation
//! rule: a source resolves only while its own LP is handled, in time
//! order, so the epochs it asks for never decrease, and "stored epoch
//! == current epoch" means "resolved earlier in this epoch". Negative
//! answers (`None`: unreachable under BGP policy or a fault) are
//! interned too. Every flow and packet between one pair in one epoch
//! shares the interned `Arc`.
//!
//! The map is a `BTreeMap`, so what a world exports is sorted by
//! `(src, dst)` and a pure function of the queries it saw.

use crate::packet::Hop;
use crate::world::{validate_route, SharedNet};
use massf_topology::{MassfError, NodeId};
use std::collections::BTreeMap;
use std::sync::Arc;

/// One interned route in a [`crate::WorldState`]: the answer for
/// `src → dst` resolved in fault epoch `epoch`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteEntry {
    /// The node the route starts at; the LP that resolved it.
    pub src: NodeId,
    /// The destination asked for.
    pub dst: NodeId,
    /// Fault epoch of the resolution (0 without faults).
    pub epoch: u32,
    /// The route, `None` when `dst` was unreachable. A snapshot carries
    /// only its nodes, so a decoded one holds [`Hop::END`] slots until
    /// restore re-interns it.
    pub path: Option<Arc<[Hop]>>,
}

/// A resolver's answer: the route, or `None` when there is none.
type Route = Option<Arc<[Hop]>>;

/// The routes a world (or the fluid coordinator) has resolved, by
/// `(src, dst)`, each with its epoch; see the module docs.
#[derive(Default)]
pub(crate) struct RouteTable {
    routes: BTreeMap<(NodeId, NodeId), (u32, Route)>,
}

impl RouteTable {
    /// The route `src → dst` in fault epoch `epoch`, and whether it was
    /// already interned in that epoch; on a miss `resolve` answers and
    /// its answer replaces the pair's entry.
    pub(crate) fn get_or_resolve(
        &mut self,
        epoch: u32,
        src: NodeId,
        dst: NodeId,
        resolve: impl FnOnce() -> Route,
    ) -> (Route, bool) {
        if let Some((at, path)) = self.routes.get(&(src, dst)) {
            if *at == epoch {
                return (path.clone(), true);
            }
        }
        let path = resolve();
        self.routes.insert((src, dst), (epoch, path.clone()));
        (path, false)
    }

    /// Every entry, sorted by `(src, dst)`.
    pub(crate) fn export(&self) -> Vec<RouteEntry> {
        self.routes
            .iter()
            .map(|(&(src, dst), (epoch, path))| RouteEntry {
                src,
                dst,
                epoch: *epoch,
                path: path.clone(),
            })
            .collect()
    }

    /// Rebuild a table from snapshot entries, keeping those whose
    /// source `keep` accepts (a partition keeps the sources it owns).
    /// The list is untrusted input: it must be strictly sorted by
    /// `(src, dst)` over known, distinct endpoints, and a hit is sent
    /// as-is, so every route must be one the resolver could have
    /// returned: over links, from `src` to `dst`. Its epoch is not
    /// checked: a wrong one can only cost a miss.
    pub(crate) fn restore(
        shared: &SharedNet,
        entries: &[RouteEntry],
        keep: impl Fn(NodeId) -> bool,
    ) -> Result<Self, MassfError> {
        let bad = |reason: String| MassfError::SnapshotCorrupt {
            section: "world".into(),
            reason,
        };
        let nodes = shared.net.node_count();
        let mut routes = BTreeMap::new();
        let mut prev = None;
        for e in entries {
            let key = (e.src, e.dst);
            if prev.is_some_and(|p| key <= p) {
                return Err(bad(
                    "route entries are not strictly sorted by (src, dst)".into()
                ));
            }
            prev = Some(key);
            if e.src.index() >= nodes || e.dst.index() >= nodes || e.src == e.dst {
                return Err(bad(format!(
                    "route entry {} → {} is not between two distinct known nodes",
                    e.src.0, e.dst.0
                )));
            }
            let path = match &e.path {
                Some(path) => {
                    let route = validate_route(shared, path, "world")?;
                    if route[0].node != e.src || route[route.len() - 1].node != e.dst {
                        return Err(bad(format!(
                            "interned path does not run from node {} to node {}",
                            e.src.0, e.dst.0
                        )));
                    }
                    Some(route)
                }
                None => None,
            };
            if keep(e.src) {
                routes.insert(key, (e.epoch, path));
            }
        }
        Ok(RouteTable { routes })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiling::RouteCacheStats;
    use crate::world::fixtures::{dumbbell, unslotted};
    use massf_engine::SimTime;
    use proptest::prelude::*;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    /// A resolver that returns `src → dst` for even dst ids, `None` for
    /// odd, fronted by a [`RouteTable`] and counting the queries that
    /// reach it.
    #[derive(Default)]
    struct Toy {
        table: RouteTable,
        stats: RouteCacheStats,
        calls: u64,
    }

    impl Toy {
        fn route(&mut self, epoch: u32, src: NodeId, dst: NodeId) -> Route {
            let calls = &mut self.calls;
            let (path, hit) = self.table.get_or_resolve(epoch, src, dst, || {
                *calls += 1;
                dst.0.is_multiple_of(2).then(|| unslotted(&[src, dst]))
            });
            if hit {
                self.stats.hits += 1;
            } else {
                self.stats.misses += 1;
            }
            path
        }
    }

    #[test]
    fn hit_returns_same_arc_without_resolving() {
        let mut r = Toy::default();
        let a = r.route(0, n(0), n(2)).expect("even dst routes");
        let b = r.route(0, n(0), n(2)).expect("even dst routes");
        assert!(Arc::ptr_eq(&a, &b), "hit must hand out the shared Arc");
        assert_eq!(r.calls, 1);
        assert_eq!((r.stats.hits, r.stats.misses), (1, 1));
    }

    #[test]
    fn negative_results_are_cached() {
        let mut r = Toy::default();
        assert_eq!(r.route(0, n(0), n(3)), None);
        assert_eq!(r.route(0, n(0), n(3)), None);
        assert_eq!(r.calls, 1, "None must be interned too");
        assert_eq!(r.stats.hits, 1);
    }

    #[test]
    fn shards_are_independent_per_source() {
        let mut r = Toy::default();
        let _ = r.route(0, n(0), n(2));
        let _ = r.route(0, n(1), n(2)); // another source: its own miss
        let _ = r.route(0, n(0), n(2)); // still interned for source 0
        assert_eq!((r.stats.hits, r.stats.misses), (1, 2));
    }

    #[test]
    fn epochs_partition_the_key_space() {
        let mut r = Toy::default();
        let _ = r.route(0, n(0), n(2));
        let _ = r.route(0, n(0), n(2)); // hit
        let _ = r.route(1, n(0), n(2)); // epoch 0's entry is not served
        let _ = r.route(1, n(0), n(2)); // hit on epoch 1's answer
        assert_eq!((r.stats.hits, r.stats.misses), (2, 2));
        assert_eq!(r.calls, 2);
    }

    #[test]
    fn stats_merge_sums() {
        let mut a = RouteCacheStats {
            hits: 1,
            misses: 2,
            evictions: 0,
        };
        a.merge(&RouteCacheStats {
            hits: 10,
            misses: 20,
            evictions: 0,
        });
        assert_eq!(
            a,
            RouteCacheStats {
                hits: 11,
                misses: 22,
                evictions: 0
            }
        );
        assert!((a.hit_rate() - 11.0 / 33.0).abs() < 1e-12);
        assert_eq!(RouteCacheStats::default().hit_rate(), 0.0);
    }

    /// The dumbbell's `a → b` route in epoch 0 and a `b → a` answer of
    /// no route in epoch 3, interned and exported.
    fn dumbbell_entries() -> (Arc<SharedNet>, Vec<RouteEntry>) {
        let (shared, a, b) = dumbbell(10e6);
        let mut table = RouteTable::default();
        for (epoch, src, dst) in [(0, a, b), (3, b, a)] {
            let _ = table.get_or_resolve(epoch, src, dst, || {
                (src == a)
                    .then(|| shared.resolve_route(SimTime::ZERO, src, dst))
                    .flatten()
            });
        }
        let entries = table.export();
        (shared, entries)
    }

    #[test]
    fn export_import_roundtrip_preserves_behavior_and_bytes() {
        let (shared, entries) = dumbbell_entries();
        let (a, b) = (entries[0].src, entries[0].dst);
        assert_eq!(entries.len(), 2);
        assert!(entries[0].path.is_some() && entries[1].path.is_none());
        let mut restored = RouteTable::restore(&shared, &entries, |_| true).expect("valid state");
        assert_eq!(restored.export(), entries, "export → restore → export");
        // The restored table answers from its entries, epoch by epoch.
        let mut calls = 0;
        for (epoch, src, dst, hit) in [(0, a, b, true), (3, b, a, true), (1, a, b, false)] {
            let (_, got) = restored.get_or_resolve(epoch, src, dst, || {
                calls += 1;
                None
            });
            assert_eq!(got, hit, "epoch {epoch}: {} → {}", src.0, dst.0);
        }
        assert_eq!(calls, 1);
        // A partition keeps only the sources it owns.
        let owned = RouteTable::restore(&shared, &entries, |src| src == b).expect("valid");
        assert_eq!(owned.export(), entries[1..]);
    }

    #[test]
    fn corrupt_cache_states_are_rejected() {
        let (shared, good) = dumbbell_entries();
        let corrupt = |entries: &[RouteEntry], what: &str| {
            assert!(
                matches!(
                    RouteTable::restore(&shared, entries, |_| true),
                    Err(MassfError::SnapshotCorrupt { .. })
                ),
                "{what}"
            );
        };
        corrupt(&[good[1].clone(), good[0].clone()], "unsorted");
        corrupt(&[good[0].clone(), good[0].clone()], "duplicate");
        let mut to_self = good[1].clone();
        to_self.dst = to_self.src;
        corrupt(&[to_self], "src == dst");
        let mut unknown = good[1].clone();
        unknown.dst = n(9);
        corrupt(&[unknown], "unknown destination");
        let mut reversed = good[0].clone();
        reversed.path = reversed.path.map(|p| p.iter().rev().copied().collect());
        corrupt(&[reversed], "path running the wrong way");
        // An arbitrary epoch is no corruption: it can only miss.
        let mut future = good[0].clone();
        future.epoch = u32::MAX;
        assert!(RouteTable::restore(&shared, &[future], |_| true).is_ok());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Over random query sequences whose epochs never decrease per
        /// source, the table answers every query as a direct resolve
        /// would, calls the resolver exactly once per distinct
        /// `(src, dst, epoch)`, and counts every query once.
        #[test]
        fn interned_matches_direct_resolution(
            queries in proptest::collection::vec((0u32..6, 0u32..6, 0u32..3), 1..200),
        ) {
            // The answer depends on the epoch, so a stale hit shows.
            let direct = |epoch: u32, src: NodeId, dst: NodeId| {
                (!(src.0 + dst.0 + epoch).is_multiple_of(3)).then(|| unslotted(&[src, dst]))
            };
            let mut table = RouteTable::default();
            let mut epoch = [0u32; 6];
            let mut asked = std::collections::BTreeSet::new();
            let (mut calls, mut hits, mut misses) = (0u64, 0u64, 0u64);
            for &(src, dst, bump) in &queries {
                // Epochs advance per source, never back.
                let e = &mut epoch[src as usize];
                *e += u32::from(bump == 0);
                let (e, src, dst) = (*e, n(src), n(dst));
                asked.insert((src, dst, e));
                let (got, hit) = table.get_or_resolve(e, src, dst, || {
                    calls += 1;
                    direct(e, src, dst)
                });
                prop_assert_eq!(got, direct(e, src, dst));
                if hit { hits += 1 } else { misses += 1 }
            }
            prop_assert_eq!(calls, asked.len() as u64);
            prop_assert_eq!(misses, calls);
            prop_assert_eq!(hits + misses, queries.len() as u64);
        }
    }
}
