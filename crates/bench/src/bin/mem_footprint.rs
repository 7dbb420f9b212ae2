//! Memory-footprint bench: live/peak heap bytes per entity for
//! million-host residency (BENCH_memory.json).
//!
//! Builds the resident pieces of a packet-level world phase by phase —
//! topology, routing, `SharedNet` (CSR port table), `NetWorld`
//! (struct-of-arrays host/flow state) — then opens a population of
//! long-running TCP flows and runs briefly so every flow is resident
//! mid-transfer, measuring the live-byte delta of each phase with the
//! feature-gated counting allocator (`massf_bench::alloccount`).
//!
//! Flow destinations are concentrated on a small host set so the lazy
//! per-destination SPT cache stays bounded: this bench measures bytes,
//! not routing throughput (`perf/`'s `routing.*` metrics cover that).
//!
//! ```text
//! cargo run --release -p massf-bench --features alloc-count \
//!   --bin mem_footprint [-- --smoke]
//! ```
//!
//! `--smoke` runs a seconds-scale configuration for CI; the full run
//! measures 100k and 1M hosts with 100k flows each.

use massf_bench::alloccount::{self, CountingAlloc};
use massf_engine::{run_sequential, EventRecord, LpId, SimTime};
use massf_netsim::{NetEvent, NetWorld, NoApp, Packet, SharedNet};
use massf_routing::{CostMetric, FlatResolver};
use massf_topology::{generate_flat_network, FlatTopologyConfig};
use std::sync::Arc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Flows stay mid-transfer for the whole measured run: far more bytes
/// than 50 ms of simulated time can deliver.
const FLOW_BYTES: u64 = 100 << 20;
/// Destinations are drawn from this many hosts (bounds the lazy SPT
/// cache; see module docs).
const DST_HOSTS: usize = 64;

struct Config {
    label: &'static str,
    hosts: usize,
    flows: usize,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = match args.as_slice() {
        [] => false,
        [a] if a == "--smoke" => true,
        other => {
            eprintln!("error: unknown arguments {other:?}\nusage: mem_footprint [--smoke]");
            std::process::exit(2);
        }
    };
    let configs: &[Config] = if smoke {
        &[Config {
            label: "smoke_2k",
            hosts: 2_000,
            flows: 500,
        }]
    } else {
        &[
            Config {
                label: "hosts_100k",
                hosts: 100_000,
                flows: 100_000,
            },
            Config {
                label: "hosts_1m",
                hosts: 1_000_000,
                flows: 100_000,
            },
        ]
    };

    println!("{{");
    println!(
        "  \"static_sizes_bytes\": {{ \"packet\": {}, \"net_event\": {}, \"event_record\": {} }},",
        std::mem::size_of::<Packet>(),
        std::mem::size_of::<NetEvent>(),
        std::mem::size_of::<EventRecord<NetEvent>>()
    );
    for (i, cfg) in configs.iter().enumerate() {
        let comma = if i + 1 < configs.len() { "," } else { "" };
        run_config(cfg, comma);
    }
    println!("}}");
}

fn run_config(cfg: &Config, trailing_comma: &str) {
    // ~25 hosts per router, the paper's single-AS shape (§4.2 uses
    // 20k routers / 10k hosts for routing stress; residency scales the
    // host side instead).
    let routers = (cfg.hosts / 25).max(16);
    let base = alloccount::live_bytes();
    alloccount::reset_peak();

    eprintln!(
        "# {}: generating {} routers + {} hosts …",
        cfg.label, routers, cfg.hosts
    );
    let net = generate_flat_network(&FlatTopologyConfig {
        routers,
        hosts: cfg.hosts,
        metro_count: (routers / 500).max(4),
        seed: 2004,
        ..FlatTopologyConfig::default()
    });
    let nodes = net.node_count();
    let links = net.link_count();
    let host_ids = net.host_ids();
    let topology_bytes = alloccount::live_bytes() - base;

    eprintln!("# {}: building routing …", cfg.label);
    let before = alloccount::live_bytes();
    let resolver = Arc::new(FlatResolver::new(&net, CostMetric::Latency));
    let core = resolver.domain().core_count();
    let routing_bytes = alloccount::live_bytes() - before;

    let before = alloccount::live_bytes();
    let shared = SharedNet::new(net, resolver);
    let shared_bytes = alloccount::live_bytes() - before;

    let before = alloccount::live_bytes();
    let mut world = NetWorld::new(shared, NoApp);
    let world_bytes = alloccount::live_bytes() - before;

    eprintln!("# {}: opening {} flows …", cfg.label, cfg.flows);
    let before = alloccount::live_bytes();
    let dsts = DST_HOSTS.min(host_ids.len());
    let initial: Vec<(SimTime, LpId, NetEvent)> = (0..cfg.flows)
        .map(|i| {
            let src = host_ids[i % host_ids.len()];
            let mut dst = host_ids[(i * 31 + 1) % dsts];
            if dst == src {
                dst = host_ids[(i * 31 + 2) % dsts];
            }
            (
                SimTime::ZERO,
                LpId(src.0),
                NetEvent::StartFlow {
                    dst,
                    bytes: FLOW_BYTES,
                },
            )
        })
        .collect();
    let stats = run_sequential(&mut world, nodes, initial, SimTime::from_ms(50));
    let flows_bytes = alloccount::live_bytes() - before;
    let live_total = alloccount::live_bytes() - base;
    let peak_total = alloccount::peak_bytes() - base;
    assert!(stats.total_events > 0, "flows must generate traffic");
    drop(world);

    let per = |bytes: usize, n: usize| bytes as f64 / n.max(1) as f64;
    println!("  \"{}\": {{", cfg.label);
    println!(
        "    \"nodes\": {nodes}, \"links\": {links}, \"core_routers\": {core}, \"flows\": {},",
        cfg.flows
    );
    println!("    \"events_run\": {},", stats.total_events);
    println!(
        "    \"topology_bytes\": {topology_bytes}, \"topology_bytes_per_node\": {:.1},",
        per(topology_bytes, nodes)
    );
    println!(
        "    \"routing_bytes\": {routing_bytes}, \"routing_bytes_per_node\": {:.1},",
        per(routing_bytes, nodes)
    );
    println!(
        "    \"shared_net_bytes\": {shared_bytes}, \"shared_net_bytes_per_node\": {:.1},",
        per(shared_bytes, nodes)
    );
    println!(
        "    \"world_bytes\": {world_bytes}, \"world_bytes_per_node\": {:.1},",
        per(world_bytes, nodes)
    );
    println!(
        "    \"flow_state_bytes\": {flows_bytes}, \"flow_state_bytes_per_flow\": {:.1},",
        per(flows_bytes, cfg.flows)
    );
    println!("    \"live_total_bytes\": {live_total}, \"peak_total_bytes\": {peak_total},");
    println!(
        "    \"live_total_gib\": {:.3}, \"peak_total_gib\": {:.3}",
        gib(live_total),
        gib(peak_total)
    );
    println!("  }}{trailing_comma}");
}

fn gib(bytes: usize) -> f64 {
    bytes as f64 / (1u64 << 30) as f64
}
