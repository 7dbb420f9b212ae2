//! Checkpoint/branch study: quantify the what-if speedup of
//! `massf_snapshot::Session::branch` (BENCH_snapshot.json).
//!
//! The workload is N what-if explorations of the same scenario, each
//! diverging only in its final stretch (extra traffic injected after
//! the branch point). Two ways to run it:
//!
//! - **full replay**: every what-if is a straight simulation from t=0 —
//!   the prefix is recomputed N times (`O(N·(prefix+suffix))`).
//! - **branch**: the prefix runs once, a checkpoint is saved, and every
//!   what-if forks off it (`O(prefix + N·suffix)` plus snapshot cost).
//!
//! Both produce bit-identical results per what-if (asserted for every
//! branch, every run — the speedup is only meaningful if the answers
//! agree), so the comparison isolates pure redundant-prefix cost.
//! Snapshot size plus save/load wall cost are reported alongside.
//! Crash recovery and branches on the parallel executor are checked in
//! `tests/tests/snapshot.rs`.
//!
//! Takes the shared harness flags only: `BRANCHES` (8) what-ifs branch
//! at `PREFIX_PCT` (80 %) of the run.

use massf_bench::HarnessOptions;
use massf_core::prelude::*;
use massf_engine::LpId;
use massf_netsim::{
    Agent, NetEvent, NetSimBuilder, NoApp, SimOutput, DEFAULT_ROUTE_CACHE_CAPACITY, MAX_RETRIES,
};
use massf_routing::{CostMetric, FlatResolver};
use massf_snapshot::{scenario_fingerprint, ExecMode, Session};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;
use std::time::Instant;

/// What-if branches to explore.
const BRANCHES: usize = 8;

/// Branch point as a percentage of the run.
const PREFIX_PCT: u64 = 80;

/// Seeded base traffic: TCP flows between random host pairs, injected
/// over the prefix portion of the run.
fn base_traffic(hosts: &[NodeId], until: SimTime, flows: usize, seed: u64) -> Agent {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xC4EC);
    let mut agent = Agent::new();
    for _ in 0..flows {
        let src = hosts[rng.gen_range(0..hosts.len())];
        let dst = hosts[rng.gen_range(0..hosts.len())];
        if src == dst {
            continue;
        }
        let at = SimTime(rng.gen_range(0..until.as_ns().max(1)));
        agent.inject_tcp(at, src, dst, 10_000 + rng.gen_range(0u64..190_000));
    }
    agent
}

/// The divergent future explored by what-if `branch`: a burst of extra
/// flows injected after the branch point, different per branch.
fn suffix_traffic(
    hosts: &[NodeId],
    from: SimTime,
    until: SimTime,
    flows: usize,
    seed: u64,
    branch: usize,
) -> Vec<(SimTime, LpId, NetEvent)> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xB4A7 ^ (branch as u64) << 17);
    let span = (until.as_ns() - from.as_ns()).max(1);
    let mut events = Vec::new();
    for _ in 0..flows {
        let src = hosts[rng.gen_range(0..hosts.len())];
        let dst = hosts[rng.gen_range(0..hosts.len())];
        if src == dst {
            continue;
        }
        let at = SimTime(from.as_ns() + rng.gen_range(0..span));
        events.push((
            at,
            LpId(src.0),
            NetEvent::StartFlow {
                dst,
                bytes: 20_000 + rng.gen_range(0u64..80_000),
            },
        ));
    }
    events
}

fn assert_branch_matches(b: usize, session: &Session, replay: &SimOutput<NoApp>) {
    assert_eq!(
        session.total_events(),
        replay.stats.total_events,
        "branch {b} event count diverged from its full replay"
    );
    assert_eq!(
        session.lp_events(),
        &replay.stats.lp_events[..],
        "branch {b} per-LP attribution diverged from its full replay"
    );
    assert_eq!(
        session.profile(),
        &replay.profile,
        "branch {b} traffic profile diverged from its full replay"
    );
}

fn main() {
    let opts = HarnessOptions::from_env();
    let scale = opts.scale;
    let seed = opts.seed;
    let duration = scale.run_duration().max(SimTime::from_secs(15));
    let branch_at = SimTime(duration.as_ns() / 100 * PREFIX_PCT);

    eprintln!("# generating {scale:?} single-AS network (seed {seed}) …");
    let net = generate_flat_network(&scale.flat_config(seed));
    let hosts = net.host_ids();
    let base_flows = (hosts.len() * 2).clamp(64, 4000);
    let suffix_flows = (base_flows / 8).max(8);

    let resolver = Arc::new(FlatResolver::new(&net, CostMetric::Latency));
    let mut builder = NetSimBuilder::new(net.clone(), resolver.clone());
    builder.add_agent(base_traffic(&hosts, branch_at, base_flows, seed));
    let shared = builder.shared();
    let initial = builder.initial_events();
    let suffixes: Vec<Vec<(SimTime, LpId, NetEvent)>> = (0..BRANCHES)
        .map(|b| suffix_traffic(&hosts, branch_at, duration, suffix_flows, seed, b))
        .collect();

    println!("== checkpoint_study ({scale:?}, seed {seed}) ==");
    println!(
        "network: {} nodes / {} links; {} base flows, branch at {:.1}s of {:.1}s, \
         {} branches x {} what-if flows",
        net.node_count(),
        net.links.len(),
        base_flows,
        branch_at.as_secs_f64(),
        duration.as_secs_f64(),
        BRANCHES,
        suffix_flows
    );

    // Both modes are timed best-of-2: results are bit-identical across
    // repeats (asserted below), so a repeat only defends the wall-clock
    // numbers — one fsync hiccup or scheduler stall on a shared host
    // must not decide the reported speedup.
    const TIMING_REPS: usize = 2;

    // ---- Mode A: every what-if is a full replay from t = 0. ----
    eprintln!("# mode A: {BRANCHES} full replays x{TIMING_REPS} …");
    let run_full_replays = || -> (f64, Vec<SimOutput<NoApp>>) {
        let t = Instant::now();
        let replays = (0..BRANCHES)
            .map(|b| {
                let mut replay = NetSimBuilder::new(net.clone(), resolver.clone());
                replay.add_agent(base_traffic(&hosts, branch_at, base_flows, seed));
                replay.add_initial_events(suffixes[b].clone());
                replay.run_sequential(NoApp, duration)
            })
            .collect();
        (t.elapsed().as_secs_f64() * 1e3, replays)
    };
    let (mut full_replay_ms, replays) = run_full_replays();
    for _ in 1..TIMING_REPS {
        full_replay_ms = full_replay_ms.min(run_full_replays().0);
    }

    // ---- Mode B: one shared prefix + checkpoint, then N branches. ----
    eprintln!("# mode B: shared prefix + {BRANCHES} branches x{TIMING_REPS} …");
    let snap_dir =
        std::env::temp_dir().join(format!("massf-checkpoint-study-{}", std::process::id()));
    std::fs::create_dir_all(&snap_dir).expect("snapshot dir");
    let snap_path = snap_dir.join("prefix.snap");
    let fingerprint = scenario_fingerprint(&shared, &initial, MAX_RETRIES);
    struct BranchMode {
        prefix_ms: f64,
        save_ms: f64,
        load_ms: f64,
        suffixes_ms: f64,
        snap_bytes: u64,
        branch_runs: Vec<Session>,
    }
    impl BranchMode {
        fn total_ms(&self) -> f64 {
            self.prefix_ms + self.save_ms + self.load_ms + self.suffixes_ms
        }
    }
    let run_branch_mode = || -> BranchMode {
        let t_prefix = Instant::now();
        let mut trunk = Session::new(
            shared.clone(),
            initial.clone(),
            DEFAULT_ROUTE_CACHE_CAPACITY,
            MAX_RETRIES,
        );
        trunk
            .run_until(branch_at, &ExecMode::Sequential)
            .expect("prefix segment runs");
        let prefix_ms = t_prefix.elapsed().as_secs_f64() * 1e3;

        let t_save = Instant::now();
        trunk.save(&snap_path).expect("checkpoint saves");
        let save_ms = t_save.elapsed().as_secs_f64() * 1e3;
        let snap_bytes = std::fs::metadata(&snap_path)
            .expect("snapshot exists")
            .len();
        let t_load = Instant::now();
        let trunk =
            Session::load(&snap_path, shared.clone(), fingerprint).expect("checkpoint loads back");
        let load_ms = t_load.elapsed().as_secs_f64() * 1e3;

        let t_b = Instant::now();
        let branch_runs: Vec<Session> = (0..BRANCHES)
            .map(|b| {
                let mut branch = trunk
                    .branch(shared.clone(), suffixes[b].clone())
                    .expect("branch forks");
                branch
                    .run_until(duration, &ExecMode::Sequential)
                    .expect("branch suffix runs");
                branch
            })
            .collect();
        let suffixes_ms = t_b.elapsed().as_secs_f64() * 1e3;
        BranchMode {
            prefix_ms,
            save_ms,
            load_ms,
            suffixes_ms,
            snap_bytes,
            branch_runs,
        }
    };
    let mut mode_b = run_branch_mode();
    for _ in 1..TIMING_REPS {
        let rep = run_branch_mode();
        // Repeats must agree with each other, not just with mode A.
        for (b, (fresh, kept)) in rep.branch_runs.iter().zip(&mode_b.branch_runs).enumerate() {
            assert_eq!(
                fresh.total_events(),
                kept.total_events(),
                "branch {b} diverged between timing repeats"
            );
        }
        if rep.total_ms() < mode_b.total_ms() {
            mode_b = rep;
        }
    }
    let BranchMode {
        prefix_ms,
        save_ms,
        load_ms,
        suffixes_ms,
        snap_bytes,
        branch_runs,
    } = mode_b;
    let branch_total_ms = prefix_ms + save_ms + load_ms + suffixes_ms;

    // Bit-identity per branch: the speedup below is only meaningful
    // because every branch answers exactly what its full replay answers.
    for (b, (session, replay)) in branch_runs.iter().zip(&replays).enumerate() {
        assert_branch_matches(b, session, replay);
    }

    let speedup = full_replay_ms / branch_total_ms;
    println!();
    println!("{:<34} {:>12}", "metric", "value");
    println!("{:<34} {:>12.1}", "full-replay total (ms)", full_replay_ms);
    println!("{:<34} {:>12.1}", "branch total (ms)", branch_total_ms);
    println!("{:<34} {:>12.1}", "  shared prefix (ms)", prefix_ms);
    println!("{:<34} {:>12.2}", "  checkpoint save (ms)", save_ms);
    println!("{:<34} {:>12.2}", "  checkpoint load (ms)", load_ms);
    println!("{:<34} {:>12.1}", "  branch suffixes (ms)", suffixes_ms);
    println!("{:<34} {:>12}", "snapshot size (bytes)", snap_bytes);
    println!(
        "{:<34} {:>12}",
        "events per what-if", replays[0].stats.total_events
    );
    println!("{:<34} {:>12.2}x", "what-if speedup", speedup);

    std::fs::remove_dir_all(&snap_dir).expect("cleanup");
}
