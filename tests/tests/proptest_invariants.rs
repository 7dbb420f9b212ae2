//! Property-based invariants across the workspace, on randomly
//! generated graphs, topologies, and event workloads.

use massf_core::hier::{reduce_graph, SweepReducer};
use massf_core::prelude::*;
use massf_core::{EdgeWeighting, VertexWeighting};
use massf_engine::{run_sequential, try_run_parallel, Emitter, LpId, Model};
use massf_partition::{greedy_kcluster, UnionFind};
use massf_routing::bgp::{is_valley_free, BgpRib};
use massf_topology::AsGraph;
use proptest::prelude::*;

/// Strategy: a connected weighted graph as (vertex weights, extra edges).
/// A random spanning path guarantees connectivity.
fn connected_graph() -> impl Strategy<Value = WeightedGraph> {
    (
        2usize..60,
        proptest::collection::vec((0u32..60, 0u32..60, 1u64..100), 0..120),
    )
        .prop_map(|(n, extra)| {
            let mut edges: Vec<(u32, u32, u64)> = (1..n as u32).map(|i| (i - 1, i, 1)).collect();
            for (a, b, w) in extra {
                let (a, b) = (a % n as u32, b % n as u32);
                if a != b {
                    edges.push((a, b, w));
                }
            }
            WeightedGraph::from_edges(vec![1; n], &edges)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn metis_partitions_are_always_valid(g in connected_graph(), k in 1usize..8) {
        let p = metis_kway(&g, k, &KwayConfig::default());
        prop_assert_eq!(p.len(), g.vertex_count());
        prop_assert!(p.assignment.iter().all(|&x| (x as usize) < k));
        prop_assert_eq!(p.used_parts(), k.min(g.vertex_count()));
        // Weight conservation.
        let total: u64 = p.part_weights(&g).iter().sum();
        prop_assert_eq!(total, g.total_vertex_weight());
    }

    #[test]
    fn kcluster_partitions_are_always_valid(g in connected_graph(), k in 1usize..6) {
        let p = greedy_kcluster(&g, k, 5);
        prop_assert_eq!(p.len(), g.vertex_count());
        prop_assert_eq!(p.used_parts(), k.min(g.vertex_count()));
    }

    #[test]
    fn union_find_respects_equivalence_laws(
        n in 1usize..50,
        unions in proptest::collection::vec((0usize..50, 0usize..50), 0..80),
    ) {
        let mut uf = UnionFind::new(n);
        let mut naive: Vec<usize> = (0..n).collect();
        for (a, b) in unions {
            let (a, b) = (a % n, b % n);
            uf.union(a, b);
            // Naive: relabel everything in b's class to a's class.
            let (la, lb) = (naive[a], naive[b]);
            for l in naive.iter_mut() {
                if *l == lb {
                    *l = la;
                }
            }
        }
        for x in 0..n {
            for y in 0..n {
                prop_assert_eq!(uf.connected(x, y), naive[x] == naive[y]);
            }
        }
    }

    #[test]
    fn bgp_paths_are_valley_free_and_loop_free(
        n in 4usize..25,
        m in 1usize..3,
        seed in 0u64..1000,
    ) {
        let g = AsGraph::generate(n, m, 0.12, seed);
        let rib = BgpRib::compute(&g);
        for s in 0..n {
            for d in 0..n {
                if let Some(path) = rib.as_path(s, d) {
                    let mut full = vec![s];
                    full.extend(path.iter().map(|&x| x as usize));
                    prop_assert!(is_valley_free(&g, &full), "{:?}", full);
                    let unique: std::collections::BTreeSet<_> = full.iter().collect();
                    prop_assert_eq!(unique.len(), full.len(), "loop in {:?}", full);
                }
            }
        }
        // maBrite's provider-connectivity guarantee ⇒ full reachability.
        prop_assert_eq!(rib.reachability_fraction(), 1.0);
    }

    #[test]
    fn reduction_never_cuts_sub_threshold_links(
        routers in 40usize..120,
        seed in 0u64..500,
        tmll_tenths in 1u32..40,
    ) {
        let tmll = tmll_tenths as f64 / 10.0;
        let net = generate_flat_network(&FlatTopologyConfig {
            routers,
            hosts: 10,
            metro_count: 6,
            seed,
        });
        let graph = massf_core::build_weighted_graph(
            &net, VertexWeighting::Bandwidth, EdgeWeighting::Standard, None,
        );
        let (reduced, labels) = reduce_graph(&net, &graph, tmll);
        prop_assert_eq!(reduced.total_vertex_weight(), graph.total_vertex_weight());
        // Partition the reduced graph arbitrarily; projected through the
        // labels, no cut link may be faster than tmll.
        let rp = metis_kway(&reduced, 4.min(reduced.vertex_count()), &KwayConfig::default());
        let assignment: Vec<u32> =
            labels.iter().map(|&c| rp.assignment[c as usize]).collect();
        for link in &net.links {
            if assignment[link.a.index()] != assignment[link.b.index()] {
                prop_assert!(
                    link.latency_ms >= tmll,
                    "cut link latency {} < {}",
                    link.latency_ms,
                    tmll
                );
            }
        }
    }

    /// Coarsening Tmll_k from Tmll_{k-1}'s reduced graph (the
    /// incremental `SweepReducer` path) must be bit-identical to
    /// reducing the full graph from scratch at every threshold of an
    /// ascending sweep, at any worker-thread count.
    #[test]
    fn incremental_reduction_equals_from_scratch(
        routers in 40usize..120,
        seed in 0u64..500,
        step_tenths in 1u32..8,
        threads in 1usize..5,
    ) {
        let step = step_tenths as f64 / 10.0;
        let net = generate_flat_network(&FlatTopologyConfig {
            routers,
            hosts: 10,
            metro_count: 6,
            seed,
        });
        let graph = massf_core::build_weighted_graph(
            &net, VertexWeighting::Bandwidth, EdgeWeighting::Standard, None,
        );
        massf_parutil::with_threads(threads, || {
            let mut reducer = SweepReducer::new(&net, &graph);
            for k in 0..12 {
                let tmll = k as f64 * step;
                reducer.advance(tmll);
                let (scratch, scratch_labels) = reduce_graph(&net, &graph, tmll);
                assert_eq!(
                    reducer.reduced(),
                    &scratch,
                    "graph diverged at Tmll {tmll} (threads {threads})"
                );
                assert_eq!(reducer.labels(), &scratch_labels[..]);
            }
        });
    }
}

/// A model whose LPs mix state deterministically: each event carries a
/// value folded into the LP's hash and forwarded to `(lp*7+3) % n` with
/// a latency ≥ the lookahead.
struct Mixer {
    n: u32,
    hash: Vec<u64>,
}

impl Model for Mixer {
    type Event = u64;
    fn handle(
        &mut self,
        target: LpId,
        now: massf_engine::SimTime,
        v: u64,
        out: &mut Emitter<'_, u64>,
    ) {
        let h = &mut self.hash[target.index()];
        *h = h.wrapping_mul(0x100000001B3).wrapping_add(v ^ now.as_ns());
        let next = (target.0.wrapping_mul(7).wrapping_add(3)) % self.n;
        if !v.is_multiple_of(97) {
            out.emit(
                massf_engine::SimTime::from_ms(1 + (v % 5)),
                LpId(next),
                v.wrapping_add(*h),
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn engine_parallel_equals_sequential_on_random_workloads(
        n in 2u32..12,
        parts in 1usize..4,
        seeds in proptest::collection::vec((0u64..30u64, any::<u64>()), 1..10),
    ) {
        let n = n.max(parts as u32);
        let initial: Vec<_> = seeds
            .iter()
            .map(|&(t, v)| {
                (
                    massf_engine::SimTime::from_ms(t),
                    LpId((v % n as u64) as u32),
                    v,
                )
            })
            .collect();
        let end = massf_engine::SimTime::from_ms(200);
        let window = massf_engine::SimTime::from_ms(1); // = min hop latency

        let mut seq = Mixer { n, hash: vec![0; n as usize] };
        let seq_stats = run_sequential(&mut seq, n as usize, initial.clone(), end);

        let assignment: Vec<u32> = (0..n).map(|i| i % parts as u32).collect();
        let shards: Vec<Mixer> = (0..parts)
            .map(|_| Mixer { n, hash: vec![0; n as usize] })
            .collect();
        let (shards, par_stats) =
            try_run_parallel(shards, n as usize, &assignment, initial, end, window)
                .expect("window within lookahead");

        prop_assert_eq!(seq_stats.total_events, par_stats.total_events);
        prop_assert_eq!(&seq_stats.lp_events, &par_stats.lp_events);
        // Merge shard hashes: each LP's state lives in exactly one shard
        // (all others kept the zero initial value).
        for lp in 0..n as usize {
            let merged: u64 = shards
                .iter()
                .map(|s| s.hash[lp])
                .fold(0, |acc, h| acc ^ h);
            prop_assert_eq!(merged, seq.hash[lp], "LP {} state diverged", lp);
        }
    }
}
