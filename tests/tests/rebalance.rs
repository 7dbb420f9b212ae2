//! Online dynamic re-partitioning acceptance tests (ISSUE 10):
//!
//! 1. A rebalancing session — epoch-cadenced imbalance checks, bounded
//!    LP migrations, barrier-window recomputation — is bit-identical to
//!    one sequential straight-through run, at any cadence, threshold,
//!    or partition count (proptest-pinned).
//! 2. A checkpoint taken mid-epoch captures the live (migrated)
//!    assignment and the partial epoch's load accumulator; restoring it
//!    replays the same decision trajectory.
//! 3. Skewed traffic actually triggers migrations (the machinery is
//!    exercised, not just bypassed), and plain `run_until` is refused
//!    on rebalancing sessions.

use massf_engine::{RebalanceConfig, SimTime};
use massf_integration::assert_matches_reference;
use massf_netsim::{
    Agent, FaultScript, FaultState, NetSimBuilder, NoApp, DEFAULT_ROUTE_CACHE_CAPACITY, MAX_RETRIES,
};
use massf_routing::CostMetric;
use massf_snapshot::wire::{ByteWriter, Wire};
use massf_snapshot::{rebalancing_fingerprint, ExecMode, RebalancePolicy, Session};
use massf_topology::{generate_flat_network, FlatTopologyConfig, MassfError};
use proptest::prelude::*;

/// A small generated network with optional fault flaps and TCP traffic
/// concentrated on the first `hot_fraction_permille` of the host list —
/// under a contiguous-block initial assignment that concentration lands
/// in one partition, which is exactly the skew the rebalancer exists to
/// fix.
fn skewed_scenario(seed: u64, flaps: usize, flows: usize, hot_permille: u64) -> NetSimBuilder {
    let mut cfg = FlatTopologyConfig::tiny();
    cfg.routers = 36;
    cfg.hosts = 18;
    cfg.metro_count = 2;
    cfg.seed = seed;
    let net = generate_flat_network(&cfg);
    let hosts = net.host_ids();
    let mut script = FaultScript::new();
    if flaps > 0 {
        script = FaultScript::random_link_flaps(
            &net,
            flaps,
            SimTime::from_ms(300),
            SimTime::from_ms(100),
            SimTime::from_ms(900),
            seed ^ 0xF00D,
        )
        .expect("tiny nets have router-router links to flap");
    }
    let faults = FaultState::flat(&net, CostMetric::Latency, script).expect("script validates");
    let mut builder = NetSimBuilder::new_with_faults(net, faults);
    let mut agent = Agent::new();
    let hot = ((hosts.len() as u64 * hot_permille / 1000).max(2) as usize).min(hosts.len());
    for i in 0..flows {
        let src = hosts[i % hot];
        let dst = hosts[(i * 7 + 3) % hot];
        if src != dst {
            agent.inject_tcp(
                SimTime::from_ms(15 * i as u64),
                src,
                dst,
                30_000 + 9_000 * i as u64,
            );
        }
    }
    builder.add_agent(agent);
    builder
}

/// Contiguous-block LP → partition map: nodes `[0, n/k)` to part 0 and
/// so on. Deliberately load-oblivious so skewed traffic overloads one
/// block.
fn block_assignment(n: usize, parts: u32) -> Vec<u32> {
    (0..n)
        .map(|i| ((i as u64 * parts as u64) / n as u64) as u32)
        .collect()
}

fn rebalancing_session(builder: &NetSimBuilder, policy: RebalancePolicy, parts: u32) -> Session {
    let assignment = block_assignment(builder.shared().lp_count(), parts);
    Session::new_rebalancing(
        builder.shared(),
        builder.initial_events(),
        DEFAULT_ROUTE_CACHE_CAPACITY,
        MAX_RETRIES,
        policy,
        assignment,
    )
    .expect("valid policy and assignment")
}

fn session_fingerprint(builder: &NetSimBuilder, policy: &RebalancePolicy, parts: u32) -> u64 {
    let base = massf_snapshot::scenario_fingerprint(
        &builder.shared(),
        &builder.initial_events(),
        MAX_RETRIES,
    );
    let assignment = block_assignment(builder.shared().lp_count(), parts);
    rebalancing_fingerprint(base, policy, &assignment)
}

/// The session's frontier in wire bytes (`ResumeState` has no
/// `PartialEq`).
fn frontier_bytes(session: &Session) -> Vec<u8> {
    let mut w = ByteWriter::new();
    session.frontier().put(&mut w);
    w.into_inner()
}

fn policy(epoch_ms: u64, threshold: u64) -> RebalancePolicy {
    RebalancePolicy {
        cfg: RebalanceConfig {
            epoch: SimTime::from_ms(epoch_ms),
            threshold_permille: threshold,
            max_moves: 24,
        },
        ..RebalancePolicy::default()
    }
}

#[test]
fn rebalancing_run_is_bit_identical_and_actually_migrates() {
    let builder = skewed_scenario(5, 0, 14, 300);
    let end = SimTime::from_secs(2);
    let reference = builder.run_sequential(NoApp, end);

    let mut session = rebalancing_session(&builder, policy(250, 1050), 2);
    let outcome = session.run_rebalancing(end).expect("rebalancing run");
    assert_matches_reference(&session, &reference);
    assert!(
        outcome.rebalances > 0,
        "skewed traffic never triggered a migration: {outcome:?}"
    );
    let state = session.rebalance_state().expect("rebalancing session");
    assert_ne!(
        state.assignment,
        block_assignment(builder.shared().lp_count(), 2),
        "assignment unchanged despite {} migrations",
        outcome.migrations
    );
    assert_eq!(state.counters.migrations, outcome.migrations);
}

#[test]
fn mid_epoch_checkpoint_restores_the_migrated_assignment() {
    let builder = skewed_scenario(9, 1, 14, 300);
    let end = SimTime::from_secs(2);
    let reference = builder.run_sequential(NoApp, end);
    let pol = policy(250, 1050);

    let mut session = rebalancing_session(&builder, pol, 2);
    // 430 ms is strictly inside epoch [250, 500), while the injected
    // flows are still transferring: the snapshot must carry a nonzero
    // partial epoch-load accumulator.
    let mid = SimTime::from_ms(430);
    let prefix = session.run_rebalancing(mid).expect("prefix runs");
    assert!(prefix.rebalances > 0, "prefix saw no migration: {prefix:?}");

    let bytes = session.encode();
    let fp = session_fingerprint(&builder, &pol, 2);
    let mut revived = Session::decode(builder.shared(), fp, &bytes).expect("own snapshot loads");
    // The migrated assignment and the partial epoch's loads survive the
    // round trip exactly.
    assert_eq!(revived.rebalance_state(), session.rebalance_state());
    assert!(
        revived
            .rebalance_state()
            .expect("rebalancing snapshot")
            .epoch_loads
            .iter()
            .any(|&l| l > 0),
        "mid-epoch checkpoint lost the partial epoch accumulator"
    );
    assert_eq!(revived.encode(), bytes);

    revived.run_rebalancing(end).expect("suffix runs");
    assert_matches_reference(&revived, &reference);
    session.run_rebalancing(end).expect("suffix runs");
    assert_matches_reference(&session, &reference);
    assert_eq!(revived.encode(), session.encode());
}

#[test]
fn run_until_is_refused_on_rebalancing_sessions() {
    let builder = skewed_scenario(3, 0, 4, 1000);
    let mut session = rebalancing_session(&builder, policy(500, 1200), 2);
    let err = session
        .run_until(SimTime::from_ms(100), &massf_snapshot::ExecMode::Sequential)
        .expect_err("rebalancing sessions must advance via run_rebalancing");
    assert!(matches!(err, MassfError::InvalidConfig(_)), "{err}");
    // And the reverse: plain sessions refuse run_rebalancing.
    let mut plain = Session::new(
        builder.shared(),
        builder.initial_events(),
        DEFAULT_ROUTE_CACHE_CAPACITY,
        MAX_RETRIES,
    );
    let err = plain
        .run_rebalancing(SimTime::from_ms(100))
        .expect_err("plain sessions have no rebalance policy");
    assert!(matches!(err, MassfError::InvalidConfig(_)), "{err}");
}

#[test]
fn wrong_rebalance_knobs_change_the_fingerprint() {
    let builder = skewed_scenario(7, 0, 6, 500);
    let pol = policy(250, 1050);
    let mut session = rebalancing_session(&builder, pol, 2);
    session
        .run_rebalancing(SimTime::from_ms(400))
        .expect("prefix runs");
    let bytes = session.encode();
    // A session with a different threshold is a different scenario.
    let other = policy(250, 2000);
    let err = Session::decode(
        builder.shared(),
        session_fingerprint(&builder, &other, 2),
        &bytes,
    )
    .expect_err("different policy must be refused");
    assert!(matches!(err, MassfError::InvalidConfig(_)), "{err}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random topologies × flap scripts × cadences/thresholds × 1↔N
    /// partitions: the rebalancing trajectory — straight through or
    /// segmented at an arbitrary mid-run point with a snapshot
    /// round-trip — reproduces the sequential run bit for bit, and the
    /// checkpoint restores with the live assignment intact.
    #[test]
    fn rebalancing_bit_identity(
        seed in 0u64..1_000,
        flaps in 0usize..3,
        flows in 6usize..16,
        hot_idx in 0usize..3,
        epoch_idx in 0usize..3,
        threshold_idx in 0usize..3,
        parts in 1u32..4,
        split_ms in 300u64..1_700,
    ) {
        let hot = [250u64, 500, 1000][hot_idx];
        let epoch_ms = [170u64, 300, 700][epoch_idx];
        let threshold = [1000u64, 1150, 1600][threshold_idx];
        let builder = skewed_scenario(seed, flaps, flows, hot);
        let end = SimTime::from_secs(2);
        let reference = builder.run_sequential(NoApp, end);
        let pol = policy(epoch_ms, threshold);

        // Straight through.
        let mut straight = rebalancing_session(&builder, pol, parts);
        straight.run_rebalancing(end).expect("straight run");
        assert_matches_reference(&straight, &reference);

        // Segmented at an arbitrary point, through serialized bytes.
        let mut session = rebalancing_session(&builder, pol, parts);
        session.run_rebalancing(SimTime::from_ms(split_ms)).expect("prefix runs");
        let bytes = session.encode();
        let fp = session_fingerprint(&builder, &pol, parts);
        let mut revived = Session::decode(builder.shared(), fp, &bytes).expect("snapshot loads");
        prop_assert_eq!(revived.rebalance_state(), session.rebalance_state());
        revived.run_rebalancing(end).expect("suffix runs");
        assert_matches_reference(&revived, &reference);

        // All three trajectories left identical rebalancer state.
        prop_assert_eq!(revived.rebalance_state(), straight.rebalance_state());
        prop_assert_eq!(revived.encode(), straight.encode());

        // And the same world and frontier as a plain sequential session.
        let mut plain = Session::new(
            builder.shared(),
            builder.initial_events(),
            DEFAULT_ROUTE_CACHE_CAPACITY,
            MAX_RETRIES,
        );
        plain
            .run_until(end, &ExecMode::Sequential)
            .expect("plain run");
        prop_assert!(straight.world_state() == plain.world_state());
        prop_assert!(frontier_bytes(&straight) == frontier_bytes(&plain));
    }
}
