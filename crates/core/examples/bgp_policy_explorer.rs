//! Explore the automatic BGP routing configuration (paper Section 5.1):
//! AS classification, business relationships, valley-free route
//! selection, and the difference between BGP paths and pure shortest
//! paths ("connectivity does not equal reachability").
//!
//! ```sh
//! cargo run --release -p massf-core --example bgp_policy_explorer
//! ```

use massf_routing::bgp::is_valley_free;
use massf_routing::{BgpRib, CostMetric, MultiAsResolver, PathResolver};
use massf_topology::{generate_multi_as_network, AsClass, MultiAsTopologyConfig};

fn main() {
    let cfg = MultiAsTopologyConfig {
        as_count: 30,
        routers_per_as: 10,
        hosts: 60,
        ..MultiAsTopologyConfig::default()
    };
    let m = generate_multi_as_network(&cfg);
    let g = &m.as_graph;

    // -- Step 2 of the procedure: classification --
    let count = |class: AsClass| g.classes.iter().filter(|&&c| c == class).count();
    println!("AS classification ({} ASes):", g.n);
    println!("  Core (dense core / Tier-1): {}", count(AsClass::Core));
    println!(
        "  Regional ISP:               {}",
        count(AsClass::RegionalIsp)
    );
    println!("  Stub (customer):            {}", count(AsClass::Stub));

    // -- Step 3: relationships --
    let (mut pc, mut pp) = (0, 0);
    for e in &g.edges {
        match e.rel {
            massf_topology::AsRelationship::PeerPeer => pp += 1,
            _ => pc += 1,
        }
    }
    println!("AS adjacencies: {pc} provider/customer, {pp} peer/peer");

    // -- BGP routing and policy effects --
    let rib = BgpRib::compute(g);
    println!(
        "\nBGP next-hop table: {} bytes; reachability {:.1}%",
        rib.table_bytes(),
        rib.reachability_fraction() * 100.0
    );

    // Show a few selected routes with their policy character.
    println!("\nsample routes (source AS 5):");
    for dst in [0usize, 10, 20, 29] {
        match rib.as_path(5, dst) {
            Some(path) => {
                let mut full = vec![5usize];
                full.extend(path.iter().map(|&x| x as usize));
                println!(
                    "  5 → {dst}: AS path {:?} (valley-free: {})",
                    full,
                    is_valley_free(g, &full)
                );
            }
            None => println!("  5 → {dst}: unreachable under policy"),
        }
    }

    // -- Policy routing vs shortest paths --
    // BGP prefers customer routes over shorter peer/provider routes, so
    // some selected AS paths are longer than the hop-count shortest path
    // through the AS graph. Count them.
    let mut longer = 0usize;
    let mut total = 0usize;
    for s in 0..g.n {
        let hops = bfs_hops(g, s);
        for (d, &h) in hops.iter().enumerate().take(g.n) {
            if s == d {
                continue;
            }
            if let Some(path) = rib.as_path(s, d) {
                total += 1;
                if path.len() > h {
                    longer += 1;
                }
            }
        }
    }
    println!(
        "\npolicy inflation: {longer}/{total} AS paths ({:.1}%) are longer than",
        longer as f64 / total as f64 * 100.0
    );
    println!("the unconstrained shortest AS path — the cost of valley-free routing.");

    // -- End-to-end: stub default routing in action --
    let resolver = MultiAsResolver::new(&m, CostMetric::Latency, &cfg);
    let hosts = m.network.host_ids();
    if let (Some(&a), Some(&b)) = (hosts.first(), hosts.last()) {
        if let Some(path) = resolver.route(a, b) {
            let as_seq: Vec<u16> = {
                let mut v: Vec<u16> = path
                    .iter()
                    .map(|n| m.network.nodes[n.index()].as_id.0)
                    .collect();
                v.dedup();
                v
            };
            println!(
                "\nhost route {a:?} → {b:?}: {} router hops through ASes {as_seq:?}",
                path.len() - 1
            );
        }
    }
}

/// Hop counts from `s` over the raw AS adjacency (ignoring policy).
fn bfs_hops(g: &massf_topology::AsGraph, s: usize) -> Vec<usize> {
    let mut dist = vec![usize::MAX; g.n];
    let mut queue = std::collections::VecDeque::new();
    dist[s] = 0;
    queue.push_back(s);
    while let Some(x) = queue.pop_front() {
        for (y, _) in g.neighbors(x) {
            if dist[y] == usize::MAX {
                dist[y] = dist[x] + 1;
                queue.push_back(y);
            }
        }
    }
    dist
}
