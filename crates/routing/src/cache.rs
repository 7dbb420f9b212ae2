//! Deterministic, epoch-aware route cache (NIx-vector style route
//! memoization — DESIGN.md §3 item 11).
//!
//! Every flow setup, datagram, and fault-epoch RTO failover resolves a
//! full node-level path; workloads re-ask for the same `(src, dst)`
//! pairs constantly. [`RouteCache`] memoizes `(src, dst) → route` in
//! front of any [`PathResolver`](crate::PathResolver) so repeated pairs
//! skip Dijkstra and BGP leg stitching entirely and hand out the shared
//! route without copying. The route type is the caller's: by default an
//! `Arc<[NodeId]>`; the packet simulator caches routes whose hops also
//! name their outgoing link, as a NIx vector does. A snapshot carries
//! every route as its node list ([`CachedRoute::nodes`]), and
//! [`RouteCache::from_state`] hands each list back to the caller to
//! rebuild.
//!
//! ## Determinism
//!
//! The cache is *sharded by source node* and uses a *stamp-based LRU*
//! (monotone per-shard counter + lazy-deletion queue): eviction order is
//! a pure function of the query sequence, never of hasher iteration
//! order (the `HashMap` is only ever point-looked-up: its iterating
//! methods are clippy `disallowed_methods`). Because the simulator only resolves routes from
//! the event handler of the *source* LP, each shard sees exactly the
//! same query sequence at any thread count or partitioning — so cache
//! contents, hit/miss/evict counters, and returned paths are
//! bit-identical across sequential, windowed, and parallel runs.
//!
//! ## Fault epochs
//!
//! Keys embed the fault-epoch index. Each epoch owns its resolver (see
//! `crates/faults`), so entries of a previous epoch can never be served
//! in a later one — invalidation by construction, no flushes. Negative
//! results (`None`: destination unreachable under BGP policy or a fault)
//! are cached too.

use massf_topology::{MassfError, NodeId};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// Route-cache observability counters. Deterministic for a fixed query
/// sequence; merged across partitions like any other profile counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouteCacheStats {
    /// Queries answered from the cache.
    pub hits: u64,
    /// Queries that fell through to the resolver.
    pub misses: u64,
    /// Entries evicted to respect the per-source capacity.
    pub evictions: u64,
}

impl RouteCacheStats {
    /// Accumulate another shard's counters. `other` is destructured
    /// without `..`, so a counter missing here does not compile.
    pub fn merge(&mut self, other: &RouteCacheStats) {
        let RouteCacheStats {
            hits,
            misses,
            evictions,
        } = other;
        self.hits += hits;
        self.misses += misses;
        self.evictions += evictions;
    }

    /// Hits / (hits + misses), or 0 when nothing was queried.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A route a [`RouteCache`] can hold: cheap to clone, and listable as
/// the nodes it visits, which is how a snapshot carries it.
pub trait CachedRoute: Clone {
    /// The nodes the route visits, source first.
    fn nodes(&self) -> Vec<NodeId>;
}

impl<T: Copy> CachedRoute for Arc<[T]>
where
    NodeId: From<T>,
{
    fn nodes(&self) -> Vec<NodeId> {
        self.iter().map(|&hop| NodeId::from(hop)).collect()
    }
}

/// One cached resolution; `path` is `None` for cached-negative entries.
struct CacheEntry<R> {
    path: Option<R>,
    /// Stamp of the entry's latest use; queue records with an older
    /// stamp are stale and skipped by eviction/compaction.
    stamp: u64,
}

/// Per-source cache shard: point-lookup map plus a lazy-deletion LRU
/// queue ordered by use stamp.
struct Shard<R> {
    map: HashMap<u64, CacheEntry<R>>,
    queue: VecDeque<(u64, u64)>, // (stamp, key), oldest first
    stamp: u64,
}

impl<R> Shard<R> {
    fn new() -> Self {
        Shard {
            map: HashMap::new(),
            queue: VecDeque::new(),
            stamp: 0,
        }
    }

    /// Drop stale queue records once the queue outgrows the live set by
    /// 4× (amortized O(1) per operation; keeps memory bounded under
    /// heavy hit traffic, which appends a queue record per hit).
    fn compact(&mut self, capacity: usize) {
        if self.queue.len() > capacity.saturating_mul(4).max(64) {
            let map = &self.map;
            self.queue
                .retain(|&(s, k)| map.get(&k).is_some_and(|e| e.stamp == s));
        }
    }
}

/// A bounded, sharded, deterministic-LRU cache of resolved routes keyed
/// by `(epoch, src, dst)`. See the module docs for the determinism and
/// epoch-invalidation arguments.
pub struct RouteCache<R = Arc<[NodeId]>> {
    shards: Vec<Shard<R>>,
    /// Max live entries per source shard; 0 disables the cache (every
    /// query is a pass-through and no counters move).
    capacity: usize,
}

impl<R: CachedRoute> RouteCache<R> {
    /// A cache over `node_count` source shards holding at most
    /// `per_src_capacity` destinations each (`0` disables caching).
    /// Empty shards allocate nothing.
    pub fn new(node_count: usize, per_src_capacity: usize) -> Self {
        let shards = if per_src_capacity == 0 {
            Vec::new()
        } else {
            (0..node_count).map(|_| Shard::new()).collect()
        };
        RouteCache {
            shards,
            capacity: per_src_capacity,
        }
    }

    /// Look up `(epoch, src, dst)`; on a miss, resolve via `resolve`,
    /// cache the result (evicting the source's least-recently-used
    /// entry at capacity), and return it. Counters accrue to `stats`.
    pub fn get_or_insert_with(
        &mut self,
        stats: &mut RouteCacheStats,
        epoch: u32,
        src: NodeId,
        dst: NodeId,
        resolve: impl FnOnce() -> Option<R>,
    ) -> Option<R> {
        if self.capacity == 0 {
            return resolve();
        }
        let shard = &mut self.shards[src.index()];
        let key = (u64::from(epoch) << 32) | u64::from(dst.0);
        shard.stamp += 1;
        let stamp = shard.stamp;
        if let Some(entry) = shard.map.get_mut(&key) {
            stats.hits += 1;
            entry.stamp = stamp;
            let path = entry.path.clone();
            shard.queue.push_back((stamp, key));
            shard.compact(self.capacity);
            return path;
        }
        stats.misses += 1;
        let path = resolve();
        if shard.map.len() >= self.capacity {
            // Evict the least-recently-used live entry, skipping queue
            // records superseded by a later use of the same key.
            while let Some((s, k)) = shard.queue.pop_front() {
                if shard.map.get(&k).is_some_and(|e| e.stamp == s) {
                    shard.map.remove(&k);
                    stats.evictions += 1;
                    break;
                }
            }
        }
        shard.map.insert(
            key,
            CacheEntry {
                path: path.clone(),
                stamp,
            },
        );
        shard.queue.push_back((stamp, key));
        shard.compact(self.capacity);
        path
    }

    /// Export the cache's complete state for checkpointing. The output
    /// is canonical (a pure function of the query sequence, never of
    /// hasher order): live entries are recovered by walking the
    /// lazy-deletion queue and point-looking-up each record — every
    /// live entry's latest-stamp record is in the queue by invariant
    /// (inserts and hits push one; compaction retains exactly the live
    /// records) — so entries come out in LRU order without iterating
    /// the `HashMap`.
    pub fn export_state(&self) -> RouteCacheState {
        let shards = self
            .shards
            .iter()
            .map(|shard| {
                let mut entries = Vec::with_capacity(shard.map.len());
                for &(s, k) in &shard.queue {
                    if let Some(e) = shard.map.get(&k) {
                        if e.stamp == s {
                            entries.push(RouteCacheEntryState {
                                key: k,
                                stamp: s,
                                path: e.path.as_ref().map(CachedRoute::nodes),
                            });
                        }
                    }
                }
                RouteCacheShardState {
                    entries,
                    queue: shard.queue.iter().copied().collect(),
                    stamp: shard.stamp,
                }
            })
            .collect();
        RouteCacheState {
            capacity: self.capacity as u64,
            shards,
        }
    }

    /// Rebuild a cache from an exported state. The input may come from
    /// a snapshot file, so it is validated structurally; inconsistent
    /// states yield [`MassfError::SnapshotCorrupt`] instead of
    /// panicking or silently diverging later. `intern(src, dst, nodes)`
    /// rebuilds each cached route from its node list (`src` is the
    /// shard's node, `dst` the key's destination) and refuses one its
    /// resolver could not have returned.
    pub fn from_state(
        state: &RouteCacheState,
        mut intern: impl FnMut(NodeId, NodeId, &[NodeId]) -> Result<R, MassfError>,
    ) -> Result<Self, MassfError> {
        let bad = |reason: String| MassfError::SnapshotCorrupt {
            section: "route-cache".into(),
            reason,
        };
        let capacity =
            usize::try_from(state.capacity).map_err(|_| bad("capacity exceeds usize".into()))?;
        if capacity == 0 && !state.shards.is_empty() {
            return Err(bad("disabled cache must have no shards".into()));
        }
        let mut shards = Vec::with_capacity(state.shards.len());
        for (i, s) in state.shards.iter().enumerate() {
            let src = NodeId(u32::try_from(i).map_err(|_| bad(format!("shard {i} is no node")))?);
            let mut map = HashMap::with_capacity(s.entries.len());
            for e in &s.entries {
                if e.stamp > s.stamp {
                    return Err(bad(format!(
                        "shard {i}: entry stamp {} beyond shard stamp {}",
                        e.stamp, s.stamp
                    )));
                }
                let path = match &e.path {
                    Some(nodes) => Some(intern(src, key_dst(e.key), nodes)?),
                    None => None,
                };
                if map
                    .insert(
                        e.key,
                        CacheEntry {
                            path,
                            stamp: e.stamp,
                        },
                    )
                    .is_some()
                {
                    return Err(bad(format!("shard {i}: duplicate key {:#x}", e.key)));
                }
            }
            if map.len() > capacity {
                return Err(bad(format!(
                    "shard {i}: {} live entries exceed capacity {capacity}",
                    map.len()
                )));
            }
            let mut prev_stamp = 0u64;
            for &(stamp, _) in &s.queue {
                if stamp > s.stamp {
                    return Err(bad(format!(
                        "shard {i}: queue stamp {stamp} beyond shard stamp {}",
                        s.stamp
                    )));
                }
                if stamp < prev_stamp {
                    return Err(bad(format!("shard {i}: queue stamps not ascending")));
                }
                prev_stamp = stamp;
            }
            // Every live entry's latest-stamp record must be queued, or
            // it could never be evicted (the export invariant).
            for e in &s.entries {
                if !s.queue.contains(&(e.stamp, e.key)) {
                    return Err(bad(format!(
                        "shard {i}: live entry {:#x} missing from queue",
                        e.key
                    )));
                }
            }
            shards.push(Shard {
                map,
                queue: s.queue.iter().copied().collect(),
                stamp: s.stamp,
            });
        }
        Ok(RouteCache { shards, capacity })
    }
}

/// The destination in the low half of a `(epoch << 32) | dst` key.
#[expect(
    clippy::cast_possible_truncation,
    reason = "a key's low 32 bits are its destination"
)]
fn key_dst(key: u64) -> NodeId {
    NodeId(key as u32)
}

/// One live cache entry in an exported [`RouteCacheState`]; `path` is
/// `None` for cached-negative entries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteCacheEntryState {
    /// `(epoch << 32) | dst` lookup key.
    pub key: u64,
    /// Stamp of the entry's latest use.
    pub stamp: u64,
    /// The memoized path, `None` when the destination was unreachable.
    pub path: Option<Vec<NodeId>>,
}

/// One shard of an exported [`RouteCacheState`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteCacheShardState {
    /// Live entries in LRU (ascending-stamp) order.
    pub entries: Vec<RouteCacheEntryState>,
    /// The full lazy-deletion queue `(stamp, key)`, stale records
    /// included — eviction behavior round-trips exactly.
    pub queue: Vec<(u64, u64)>,
    /// The shard's monotone use counter.
    pub stamp: u64,
}

/// The complete, canonical state of a [`RouteCache`]: continuing from
/// `RouteCache::from_state(&c.export_state(), intern)` behaves
/// identically to continuing from `c` for every future query sequence,
/// given an `intern` that rebuilds each route as it was cached.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteCacheState {
    /// Per-source capacity the cache was built with (0 = disabled).
    pub capacity: u64,
    /// One state per source shard (empty when disabled).
    pub shards: Vec<RouteCacheShardState>,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A resolver that returns `src → dst` for even dst ids, `None` for
    /// odd, fronted by a [`RouteCache`] at epoch 0 and counting the
    /// queries that reach it.
    struct Toy {
        cache: RouteCache,
        stats: RouteCacheStats,
        calls: u64,
    }

    impl Toy {
        fn new(node_count: usize, per_src_capacity: usize) -> Self {
            Toy {
                cache: RouteCache::new(node_count, per_src_capacity),
                stats: RouteCacheStats::default(),
                calls: 0,
            }
        }

        fn route_arc(&mut self, src: NodeId, dst: NodeId) -> Option<Arc<[NodeId]>> {
            let calls = &mut self.calls;
            self.cache
                .get_or_insert_with(&mut self.stats, 0, src, dst, || {
                    *calls += 1;
                    dst.0.is_multiple_of(2).then(|| Arc::from(vec![src, dst]))
                })
        }
    }

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    /// Rebuilds a node-list route as it was cached.
    fn intern(_: NodeId, _: NodeId, nodes: &[NodeId]) -> Result<Arc<[NodeId]>, MassfError> {
        Ok(Arc::from(nodes))
    }

    #[test]
    fn hit_returns_same_arc_without_resolving() {
        let mut r = Toy::new(8, 4);
        let a = r.route_arc(n(0), n(2)).expect("even dst routes");
        let b = r.route_arc(n(0), n(2)).expect("even dst routes");
        assert!(Arc::ptr_eq(&a, &b), "hit must hand out the shared Arc");
        assert_eq!(r.calls, 1);
        assert_eq!(
            r.stats,
            RouteCacheStats {
                hits: 1,
                misses: 1,
                evictions: 0
            }
        );
    }

    #[test]
    fn negative_results_are_cached() {
        let mut r = Toy::new(8, 4);
        assert_eq!(r.route_arc(n(0), n(3)), None);
        assert_eq!(r.route_arc(n(0), n(3)), None);
        assert_eq!(r.calls, 1, "None must be memoized too");
        assert_eq!(r.stats.hits, 1);
    }

    #[test]
    fn capacity_zero_disables_and_counts_nothing() {
        let mut r = Toy::new(8, 0);
        for _ in 0..3 {
            let _ = r.route_arc(n(0), n(2));
        }
        assert_eq!(r.calls, 3);
        assert_eq!(r.stats, RouteCacheStats::default());
    }

    #[test]
    fn capacity_one_evicts_lru() {
        let mut r = Toy::new(8, 1);
        let _ = r.route_arc(n(0), n(2)); // miss
        let _ = r.route_arc(n(0), n(4)); // miss, evicts dst 2
        let _ = r.route_arc(n(0), n(2)); // miss again
        assert_eq!(r.calls, 3);
        assert_eq!(
            r.stats,
            RouteCacheStats {
                hits: 0,
                misses: 3,
                evictions: 2
            }
        );
    }

    #[test]
    fn lru_respects_recency_not_insertion_order() {
        let mut r = Toy::new(8, 2);
        let _ = r.route_arc(n(0), n(2)); // miss: {2}
        let _ = r.route_arc(n(0), n(4)); // miss: {2, 4}
        let _ = r.route_arc(n(0), n(2)); // hit — 2 is now most recent
        let _ = r.route_arc(n(0), n(6)); // miss: evicts 4, not 2
        let _ = r.route_arc(n(0), n(2)); // must still hit
        assert_eq!(
            r.stats,
            RouteCacheStats {
                hits: 2,
                misses: 3,
                evictions: 1
            }
        );
    }

    #[test]
    fn shards_are_independent_per_source() {
        let mut r = Toy::new(8, 1);
        let _ = r.route_arc(n(0), n(2));
        let _ = r.route_arc(n(1), n(2)); // different shard: own miss
        let _ = r.route_arc(n(0), n(2)); // still cached in shard 0
        assert_eq!(
            r.stats,
            RouteCacheStats {
                hits: 1,
                misses: 2,
                evictions: 0
            }
        );
    }

    #[test]
    fn epochs_partition_the_key_space() {
        let mut cache: RouteCache = RouteCache::new(4, 8);
        let mut stats = RouteCacheStats::default();
        let resolve = || Some(Arc::from(vec![n(0), n(2)]));
        let _ = cache.get_or_insert_with(&mut stats, 0, n(0), n(2), resolve);
        let _ = cache.get_or_insert_with(&mut stats, 1, n(0), n(2), resolve);
        let _ = cache.get_or_insert_with(&mut stats, 0, n(0), n(2), resolve);
        assert_eq!(stats.misses, 2, "epoch 1 must not see epoch 0's entry");
        assert_eq!(stats.hits, 1);
    }

    #[test]
    fn heavy_hit_traffic_keeps_queue_bounded() {
        let mut r = Toy::new(2, 2);
        for _ in 0..10_000 {
            let _ = r.route_arc(n(0), n(2));
        }
        let shard = &r.cache.shards[0];
        assert!(
            shard.queue.len() <= 64 + 1,
            "lazy-deletion queue must stay bounded, got {}",
            shard.queue.len()
        );
    }

    #[test]
    fn export_import_roundtrip_preserves_behavior_and_bytes() {
        let mut cache: RouteCache = RouteCache::new(4, 2);
        let mut stats = RouteCacheStats::default();
        let resolve = |d: u32| move || Some(Arc::from(vec![n(0), n(d)]));
        let _ = cache.get_or_insert_with(&mut stats, 0, n(0), n(2), resolve(2));
        let _ = cache.get_or_insert_with(&mut stats, 0, n(0), n(4), resolve(4));
        let _ = cache.get_or_insert_with(&mut stats, 0, n(0), n(2), resolve(2)); // hit
        let _ = cache.get_or_insert_with(&mut stats, 1, n(3), n(6), resolve(6));

        let state = cache.export_state();
        let mut restored = RouteCache::from_state(&state, intern).expect("valid state");
        assert_eq!(
            restored.export_state(),
            state,
            "export → import → export must be identical"
        );

        // The restored cache answers and evicts exactly like the
        // original: dst 6 misses and evicts dst 4 (the LRU), dst 2 hits.
        let mut s1 = RouteCacheStats::default();
        let mut s2 = RouteCacheStats::default();
        for (c, s) in [(&mut cache, &mut s1), (&mut restored, &mut s2)] {
            let _ = c.get_or_insert_with(s, 0, n(0), n(6), resolve(6));
            let _ = c.get_or_insert_with(s, 0, n(0), n(2), resolve(2));
            let _ = c.get_or_insert_with(s, 0, n(0), n(4), resolve(4));
        }
        assert_eq!(s1, s2, "post-restore behavior must be bit-identical");
        assert_eq!(cache.export_state(), restored.export_state());
    }

    #[test]
    fn corrupt_cache_states_are_rejected() {
        let mut cache: RouteCache = RouteCache::new(2, 2);
        let mut stats = RouteCacheStats::default();
        let _ = cache.get_or_insert_with(&mut stats, 0, n(0), n(1), || Some(Arc::from(vec![n(0)])));
        let good = cache.export_state();

        let mut bad = good.clone();
        bad.shards[0].stamp = 0; // entry stamp now exceeds shard stamp
        assert!(matches!(
            RouteCache::from_state(&bad, intern),
            Err(MassfError::SnapshotCorrupt { .. })
        ));

        let mut bad = good.clone();
        let dup = bad.shards[0].entries[0].clone();
        bad.shards[0].entries.push(dup);
        assert!(
            RouteCache::from_state(&bad, intern).is_err(),
            "duplicate key"
        );

        let mut bad = good.clone();
        bad.shards[0].queue.clear();
        assert!(
            RouteCache::from_state(&bad, intern).is_err(),
            "live entry must be queued"
        );

        let mut bad = good;
        bad.capacity = 0;
        assert!(
            RouteCache::from_state(&bad, intern).is_err(),
            "disabled cache cannot carry shards"
        );
    }

    #[test]
    fn stats_merge_sums() {
        let mut a = RouteCacheStats {
            hits: 1,
            misses: 2,
            evictions: 3,
        };
        a.merge(&RouteCacheStats {
            hits: 10,
            misses: 20,
            evictions: 30,
        });
        assert_eq!(
            a,
            RouteCacheStats {
                hits: 11,
                misses: 22,
                evictions: 33
            }
        );
        assert!((a.hit_rate() - 11.0 / 33.0).abs() < 1e-12);
        assert_eq!(RouteCacheStats::default().hit_rate(), 0.0);
    }
}
