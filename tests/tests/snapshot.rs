//! Checkpoint/restore acceptance tests (ISSUE 7):
//!
//! 1. A session run in checkpointed segments — including through full
//!    serialize/deserialize round trips and sequential ↔ parallel
//!    executor switches — is bit-identical to one straight-through run.
//! 2. Snapshot files are untrusted: truncation, bit flips, and version
//!    skew yield structured errors (never panics) on load.
//! 3. Crash recovery resumes from the newest *valid* snapshot in a
//!    directory, recording why damaged ones were skipped.
//! 4. `branch()` forks what-if continuations off a shared prefix that
//!    match full replays of the divergent scenario exactly.

use massf_engine::{external_tag, LpId, RebalanceConfig, ResumeState, SimTime};
use massf_integration::{assert_matches_reference, fingerprint_for, session_for};
use massf_netsim::{
    Agent, FaultKind, FaultScript, FaultState, NetEvent, NetSimBuilder, NoApp, SharedNet,
    DEFAULT_ROUTE_CACHE_CAPACITY, MAX_RETRIES,
};
use massf_routing::{CostMetric, MultiAsResolver};
use massf_snapshot::format::SECTION_ENGINE;
use massf_snapshot::wire::{fnv1a64, ByteReader, ByteWriter, Wire};
use massf_snapshot::{
    decode_container, encode_container, recover_latest, ExecMode, RebalancePolicy, Session,
};
use massf_topology::{
    generate_flat_network, generate_multi_as_network, AsId, FlatTopologyConfig, LinkId, MassfError,
    MultiAsTopologyConfig, Network, NodeId, NodeKind, Point,
};
use proptest::prelude::*;
use std::sync::Arc;

/// A small generated network with fault flaps and scripted TCP traffic.
/// Returns the builder (for reference runs) plus the session inputs.
fn flap_scenario(seed: u64, flaps: usize, flows: usize) -> NetSimBuilder {
    let mut cfg = FlatTopologyConfig::tiny();
    cfg.routers = 40;
    cfg.hosts = 16;
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
    for i in 0..flows {
        let src = hosts[i % hosts.len()];
        let dst = hosts[(i * 7 + 3) % hosts.len()];
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

/// Parity-cut assignment and its safe barrier window (the cut MLL).
fn parity_cut(shared: &SharedNet, parts: u32) -> (Vec<u32>, SimTime) {
    let n = shared.lp_count();
    let assignment: Vec<u32> = (0..n).map(|i| (i as u32) % parts).collect();
    let mll = shared
        .net
        .cut_mll_ms(&assignment)
        .expect("parity cut must sever some link");
    let window = SimTime::from_ms_f64(mll);
    assert!(window > SimTime::ZERO, "parity cut has zero MLL");
    (assignment, window)
}

#[test]
fn segmented_checkpoints_reproduce_the_straight_run() {
    let builder = flap_scenario(11, 2, 10);
    let end = SimTime::from_secs(2);
    let reference = builder.run_sequential(NoApp, end);

    let mut session = session_for(&builder);
    for k in 1..=4u64 {
        session
            .run_until(SimTime::from_ms(500 * k), &ExecMode::Sequential)
            .expect("segment runs");
    }
    assert_eq!(session.now(), end);
    assert_matches_reference(&session, &reference);
}

#[test]
fn serialize_deserialize_mid_run_is_invisible() {
    let builder = flap_scenario(23, 1, 8);
    let end = SimTime::from_secs(2);
    let reference = builder.run_sequential(NoApp, end);

    let mut session = session_for(&builder);
    session
        .run_until(SimTime::from_ms(700), &ExecMode::Sequential)
        .expect("prefix runs");
    let bytes = session.encode();
    let mut revived = Session::decode(builder.shared(), fingerprint_for(&builder), &bytes)
        .expect("own snapshot loads");
    // Snapshot → restore → snapshot is idempotent.
    assert_eq!(revived.encode(), bytes);

    revived
        .run_until(end, &ExecMode::Sequential)
        .expect("suffix runs");
    assert_matches_reference(&revived, &reference);

    // The original, un-serialized session agrees too.
    session
        .run_until(end, &ExecMode::Sequential)
        .expect("suffix runs");
    assert_matches_reference(&session, &reference);
}

#[test]
fn executor_switches_at_checkpoints_are_invisible() {
    let builder = flap_scenario(31, 2, 10);
    let end = SimTime::from_secs(2);
    let reference = builder.run_sequential(NoApp, end);
    let (assignment, window) = parity_cut(&builder.shared(), 2);
    let parallel = ExecMode::Parallel { assignment, window };

    let mut session = session_for(&builder);
    session
        .run_until(SimTime::from_ms(600), &parallel)
        .expect("parallel prefix");
    session
        .run_until(SimTime::from_ms(1300), &ExecMode::Sequential)
        .expect("sequential middle");
    session.run_until(end, &parallel).expect("parallel suffix");
    assert_matches_reference(&session, &reference);
}

/// A segment that fails leaves the session as it was: a zero window
/// (refused up front) and a window 50× the cut MLL (a lookahead
/// violation mid-run) both return `Err` with the snapshot bytes
/// unchanged, and a sequential retry still matches the straight run.
#[test]
fn failed_segments_leave_the_session_untouched() {
    let builder = flap_scenario(31, 2, 10);
    let end = SimTime::from_secs(2);
    let reference = builder.run_sequential(NoApp, end);
    let (assignment, mll) = parity_cut(&builder.shared(), 2);

    let mut session = session_for(&builder);
    session
        .run_until(SimTime::from_ms(600), &ExecMode::Sequential)
        .expect("prefix runs");
    let before = session.encode();
    let mut fail_with = |window: SimTime| {
        let mode = ExecMode::Parallel {
            assignment: assignment.clone(),
            window,
        };
        let err = session
            .run_until(end, &mode)
            .expect_err("window must be refused");
        assert!(
            session.encode() == before,
            "a failed {} ns segment changed the session",
            window.as_ns()
        );
        err
    };
    let err = fail_with(SimTime::ZERO);
    assert!(matches!(err, MassfError::InvalidConfig(_)), "{err}");
    let err = fail_with(mll * 50);
    assert!(
        matches!(err, MassfError::LookaheadViolation { .. }),
        "{err}"
    );
    session
        .run_until(end, &ExecMode::Sequential)
        .expect("retry runs");
    assert_matches_reference(&session, &reference);
}

/// The same holds for a rebalancing session: a cut link shorter than a
/// nanosecond makes the barrier window zero, which the parallel executor
/// refuses at the first segment.
#[test]
fn failed_rebalancing_run_leaves_the_session_untouched() {
    let mut net = Network::new();
    let ha = net.add_node(NodeKind::Host, Point::new(0.0, 0.0), AsId(0));
    let r0 = net.add_node(NodeKind::Router, Point::new(1.0, 0.0), AsId(0));
    let hb = net.add_node(NodeKind::Host, Point::new(2.0, 0.0), AsId(0));
    net.add_link(ha, r0, 1e7, 1.0);
    net.add_link(r0, hb, 1e7, 1e-7);
    let faults = FaultState::flat(&net, CostMetric::Latency, FaultScript::new()).expect("empty");
    let mut builder = NetSimBuilder::new_with_faults(net, faults);
    builder.add_initial(
        SimTime::ZERO,
        LpId(ha.0),
        NetEvent::StartFlow {
            dst: hb,
            bytes: 100_000,
        },
    );
    let shared = builder.shared();
    let assignment = (0..shared.lp_count())
        .map(|lp| u32::from(lp == hb.index()))
        .collect();
    let mut session = Session::new_rebalancing(
        shared,
        builder.initial_events(),
        DEFAULT_ROUTE_CACHE_CAPACITY,
        MAX_RETRIES,
        RebalancePolicy::default(),
        assignment,
    )
    .expect("valid policy");
    let before = session.encode();
    let err = session
        .run_rebalancing(SimTime::from_secs(1))
        .expect_err("zero window must be refused");
    assert!(matches!(err, MassfError::InvalidConfig(_)), "{err}");
    assert!(
        session.encode() == before,
        "a failed run changed the session"
    );
}

/// A partition id at or past the LP count asks for more partition
/// worlds than there are LPs: the plain parallel segment and the
/// rebalancing constructor both refuse it before restoring any world.
#[test]
fn more_partitions_than_lps_are_refused() {
    let builder = flap_scenario(37, 0, 6);
    let lp_count = builder.shared().lp_count();
    let mut assignment = vec![0; lp_count];
    assignment[1] = lp_count as u32;

    let mut session = session_for(&builder);
    let before = session.encode();
    let mode = ExecMode::Parallel {
        assignment: assignment.clone(),
        window: SimTime::from_ms(1),
    };
    let err = session
        .run_until(SimTime::from_ms(500), &mode)
        .expect_err("more partition worlds than LPs must be refused");
    assert!(matches!(err, MassfError::InvalidConfig(_)), "{err}");
    assert!(
        session.encode() == before,
        "a refused run changed the session"
    );

    let err = Session::new_rebalancing(
        builder.shared(),
        builder.initial_events(),
        DEFAULT_ROUTE_CACHE_CAPACITY,
        MAX_RETRIES,
        RebalancePolicy::default(),
        assignment,
    )
    .expect_err("more partitions than LPs must be refused");
    assert!(matches!(err, MassfError::InvalidConfig(_)), "{err}");
}

#[test]
fn fingerprint_mismatch_is_refused() {
    let builder = flap_scenario(41, 1, 6);
    let mut session = session_for(&builder);
    session
        .run_until(SimTime::from_ms(300), &ExecMode::Sequential)
        .expect("prefix runs");
    let bytes = session.encode();
    let err = Session::decode(builder.shared(), fingerprint_for(&builder) ^ 1, &bytes)
        .expect_err("wrong scenario must be refused");
    assert!(matches!(err, MassfError::InvalidConfig(_)), "{err}");
}

#[test]
fn corrupted_snapshots_are_structured_errors_never_panics() {
    let builder = flap_scenario(47, 1, 6);
    let fingerprint = fingerprint_for(&builder);
    let mut session = session_for(&builder);
    session
        .run_until(SimTime::from_ms(400), &ExecMode::Sequential)
        .expect("prefix runs");
    let bytes = session.encode();

    // Every truncation fails with a structured error.
    for cut in (0..bytes.len()).step_by(7) {
        let err = Session::decode(builder.shared(), fingerprint, &bytes[..cut])
            .expect_err("truncated snapshot must fail");
        assert!(
            matches!(err, MassfError::SnapshotCorrupt { .. }),
            "cut {cut}: {err}"
        );
    }

    // Every bit flip is either detected or (impossible for CRC-covered
    // bytes) decodes to the identical session.
    for byte in (0..bytes.len()).step_by(5) {
        for bit in [0u8, 3, 7] {
            let mut evil = bytes.clone();
            evil[byte] ^= 1 << bit;
            if let Ok(s) = Session::decode(builder.shared(), fingerprint, &evil) {
                assert_eq!(
                    s.encode(),
                    bytes,
                    "byte {byte} bit {bit}: silent corruption"
                );
            }
        }
    }

    // Another format version, the previous one (1: per-node route-cache
    // shards) or a future one, is the dedicated mismatch error.
    for version in [1u32, 7] {
        let mut evil = bytes.clone();
        evil[8..12].copy_from_slice(&version.to_le_bytes());
        let err = Session::decode(builder.shared(), fingerprint, &evil)
            .expect_err("another version must be refused");
        match err {
            MassfError::SnapshotVersionMismatch { found, expected } => {
                assert_eq!(found, version);
                assert_eq!(expected, massf_snapshot::FORMAT_VERSION);
            }
            other => panic!("expected SnapshotVersionMismatch, got {other}"),
        }
    }
}

/// `bytes` with its engine frontier changed by `edit`, every section
/// checksum valid.
fn with_frontier(bytes: &[u8], edit: impl FnOnce(&mut ResumeState<NetEvent>)) -> Vec<u8> {
    let mut sections = decode_container(bytes).expect("own snapshot decodes");
    let engine = sections
        .iter_mut()
        .find(|s| s.id == SECTION_ENGINE)
        .expect("engine section");
    let mut frontier =
        ResumeState::<NetEvent>::get(&mut ByteReader::new(&engine.payload, "engine"))
            .expect("own frontier decodes");
    edit(&mut frontier);
    let mut w = ByteWriter::new();
    frontier.put(&mut w);
    engine.payload = w.into_inner();
    encode_container(&sections)
}

#[test]
fn frontier_events_outside_the_checkpoint_are_refused() {
    let builder = flap_scenario(53, 1, 6);
    let fingerprint = fingerprint_for(&builder);
    let mut session = session_for(&builder);
    let now = SimTime::from_ms(400);
    session
        .run_until(now, &ExecMode::Sequential)
        .expect("prefix runs");
    let bytes = session.encode();
    let refused = |evil: Vec<u8>| match Session::decode(builder.shared(), fingerprint, &evil) {
        Err(MassfError::SnapshotCorrupt { section, reason }) => {
            assert_eq!(section, "engine", "{reason}");
        }
        other => panic!("expected an engine SnapshotCorrupt, got {other:?}"),
    };
    // Each edit keeps the frontier sorted, so only the check it names
    // can refuse it.
    refused(with_frontier(&bytes, |f| {
        f.events[0].time = now - SimTime(1);
    }));
    let issued = builder.initial_events().len() as u32;
    refused(with_frontier(&bytes, |f| {
        f.events.last_mut().expect("events pending").tag = external_tag(issued);
    }));
    // Unedited, the helper reproduces the snapshot byte for byte.
    assert_eq!(with_frontier(&bytes, |_| {}), bytes);
}

#[test]
fn recovery_resumes_from_newest_valid_snapshot() {
    let builder = flap_scenario(53, 1, 8);
    let fingerprint = fingerprint_for(&builder);
    let end = SimTime::from_secs(2);
    let reference = builder.run_sequential(NoApp, end);

    let dir = std::env::temp_dir().join(format!("massf-recovery-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");

    // Checkpoints at 400 ms and 800 ms; the newer one gets corrupted
    // (simulated torn write), and a decoy non-snapshot rides along.
    let mut session = session_for(&builder);
    session
        .run_until(SimTime::from_ms(400), &ExecMode::Sequential)
        .expect("first segment");
    session.save(&dir.join("epoch-0400.snap")).expect("save");
    session
        .run_until(SimTime::from_ms(800), &ExecMode::Sequential)
        .expect("second segment");
    session.save(&dir.join("epoch-0800.snap")).expect("save");

    let torn = {
        let full = std::fs::read(dir.join("epoch-0800.snap")).expect("read back");
        full[..full.len() - 9].to_vec()
    };
    std::fs::write(dir.join("epoch-0800.snap"), torn).expect("tear the newest");
    std::fs::write(dir.join("garbage.snap"), b"not a snapshot").expect("decoy");
    std::fs::write(dir.join("notes.txt"), b"ignored: wrong extension").expect("decoy");

    let report =
        recover_latest(&dir, &builder.shared(), fingerprint).expect("one valid snapshot remains");
    assert_eq!(report.path, dir.join("epoch-0400.snap"));
    assert_eq!(report.session.now(), SimTime::from_ms(400));
    assert_eq!(report.skipped.len(), 2, "torn + garbage recorded");
    for (path, err) in &report.skipped {
        assert!(
            matches!(err, MassfError::SnapshotCorrupt { .. }),
            "{}: {err}",
            path.display()
        );
    }

    // Resuming from the survivor still reproduces the straight run.
    let mut resumed = report.session;
    resumed
        .run_until(end, &ExecMode::Sequential)
        .expect("resume to end");
    assert_matches_reference(&resumed, &reference);

    // With every snapshot damaged, recovery fails loudly.
    std::fs::remove_file(dir.join("epoch-0400.snap")).expect("remove survivor");
    let err =
        recover_latest(&dir, &builder.shared(), fingerprint).expect_err("no valid snapshot left");
    assert!(matches!(err, MassfError::SnapshotIo { .. }), "{err}");

    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// ha — r0 — r1 — hb with a 3 ms detour through r2; the 1 ms r0–r1 hop
/// is primary until a branch kills it.
fn diamond() -> (Network, [NodeId; 5], LinkId) {
    let mut net = Network::new();
    let ha = net.add_node(NodeKind::Host, Point::new(0.0, 0.0), AsId(0));
    let r0 = net.add_node(NodeKind::Router, Point::new(1.0, 0.0), AsId(0));
    let r1 = net.add_node(NodeKind::Router, Point::new(2.0, 0.0), AsId(0));
    let r2 = net.add_node(NodeKind::Router, Point::new(1.5, 1.0), AsId(0));
    let hb = net.add_node(NodeKind::Host, Point::new(3.0, 0.0), AsId(0));
    let bw = 1e7; // 10 Mbit/s: a 2 MB flow runs for ~1.6 s
    net.add_link(ha, r0, bw, 0.1);
    let primary = net.add_link(r0, r1, bw, 1.0);
    net.add_link(r0, r2, bw, 3.0);
    net.add_link(r2, r1, bw, 3.0);
    net.add_link(r1, hb, bw, 0.1);
    (net, [ha, r0, r1, r2, hb], primary)
}

#[test]
fn branches_fork_a_shared_prefix_and_match_full_replays() {
    let (net, [ha, _, _, r2, hb], primary) = diamond();
    let end = SimTime::from_secs(8);
    let branch_at = SimTime::from_ms(500);
    let fault_at = SimTime::from_ms(700);

    // Base scenario: fault machinery enabled, empty script.
    let base_faults =
        FaultState::flat(&net, CostMetric::Latency, FaultScript::new()).expect("empty script");
    let mut base = NetSimBuilder::new_with_faults(net.clone(), base_faults);
    base.add_initial(
        SimTime::ZERO,
        LpId(ha.0),
        NetEvent::StartFlow {
            dst: hb,
            bytes: 2_000_000,
        },
    );
    let base_reference = base.run_sequential(NoApp, end);

    // Shared prefix, computed once.
    let mut trunk = session_for(&base);
    trunk
        .run_until(branch_at, &ExecMode::Sequential)
        .expect("prefix runs");
    let prefix_events = trunk.total_events();
    assert!(prefix_events > 0, "the flow must be mid-flight at the fork");

    // Branch A: no divergence — replays the base timeline.
    let mut branch_a = trunk
        .branch(trunk.shared(), Vec::new())
        .expect("identity branch");
    branch_a
        .run_until(end, &ExecMode::Sequential)
        .expect("branch A runs");
    assert_matches_reference(&branch_a, &base_reference);

    // Branch B: the primary link dies mid-flow. Its reference is a full
    // replay under the extended script.
    let mut what_if = FaultScript::new();
    what_if.link_down(fault_at, primary);
    let branch_faults =
        FaultState::flat(&net, CostMetric::Latency, what_if).expect("script validates");
    let branch_shared = SharedNet::with_faults(net.clone(), branch_faults.clone());
    let suffix = vec![(
        fault_at,
        LpId(net.links[primary.index()].a.0),
        NetEvent::Fault {
            kind: FaultKind::LinkDown(primary),
        },
    )];
    let mut branch_b = trunk.branch(branch_shared, suffix).expect("fault branch");
    branch_b
        .run_until(end, &ExecMode::Sequential)
        .expect("branch B runs");

    let mut replay = NetSimBuilder::new_with_faults(net.clone(), branch_faults);
    replay.add_initial(
        SimTime::ZERO,
        LpId(ha.0),
        NetEvent::StartFlow {
            dst: hb,
            bytes: 2_000_000,
        },
    );
    let replay_reference = replay.run_sequential(NoApp, end);
    assert_matches_reference(&branch_b, &replay_reference);

    // The what-if genuinely diverged: the fault fired and traffic took
    // the detour router that the base timeline never touches.
    assert_eq!(branch_b.profile().fault_events, 1);
    assert_eq!(base_reference.profile.fault_events, 0);
    assert!(branch_b.profile().node_packets[r2.index()] > 0);
    assert_eq!(base_reference.profile.node_packets[r2.index()], 0);

    // Branch C: extra injected traffic — tags continue past the initial
    // events, matching a full replay with the suffix appended.
    let extra_at = SimTime::from_ms(900);
    let suffix_c = vec![(
        extra_at,
        LpId(hb.0),
        NetEvent::StartFlow {
            dst: ha,
            bytes: 300_000,
        },
    )];
    let mut branch_c = trunk
        .branch(trunk.shared(), suffix_c.clone())
        .expect("traffic branch");
    branch_c
        .run_until(end, &ExecMode::Sequential)
        .expect("branch C runs");

    let mut replay_c = NetSimBuilder::new_with_faults(
        net.clone(),
        FaultState::flat(&net, CostMetric::Latency, FaultScript::new()).expect("empty script"),
    );
    replay_c.add_initial(
        SimTime::ZERO,
        LpId(ha.0),
        NetEvent::StartFlow {
            dst: hb,
            bytes: 2_000_000,
        },
    );
    replay_c.add_initial_events(suffix_c.clone());
    let replay_c_reference = replay_c.run_sequential(NoApp, end);
    assert_matches_reference(&branch_c, &replay_c_reference);
    assert_eq!(branch_c.profile().completed_flows, 2);

    // Branch C on the parallel executor: a parity cut with its safe
    // window gives the same answer as the sequential branch.
    let shared = trunk.shared();
    let (assignment, _) = parity_cut(&shared, 2);
    let window = shared.safe_parallel_window(&assignment);
    let mut branch_c_par = trunk.branch(shared, suffix_c).expect("parallel branch");
    branch_c_par
        .run_until(end, &ExecMode::Parallel { window, assignment })
        .expect("parallel branch C runs");
    assert_matches_reference(&branch_c_par, &replay_c_reference);

    // Branch rejection: events before the fork are refused.
    let stale = vec![(
        SimTime::from_ms(100),
        LpId(ha.0),
        NetEvent::StartFlow { dst: hb, bytes: 1 },
    )];
    assert!(matches!(
        trunk.branch(trunk.shared(), stale),
        Err(MassfError::InvalidConfig(_))
    ));
}

/// A multi-AS (BGP + per-AS OSPF) world carrying TCP flows and
/// datagrams, without faults.
fn multi_as_scenario() -> NetSimBuilder {
    let cfg = MultiAsTopologyConfig {
        as_count: 6,
        routers_per_as: 5,
        hosts: 20,
        seed: 17,
    };
    let m = generate_multi_as_network(&cfg);
    let resolver = Arc::new(MultiAsResolver::new(&m, CostMetric::Latency, &cfg));
    let hosts = m.network.host_ids();
    let mut builder = NetSimBuilder::new(m.network, resolver);
    let mut agent = Agent::new();
    for i in 0..12 {
        let src = hosts[i % hosts.len()];
        let dst = hosts[(i * 7 + 5) % hosts.len()];
        if src != dst {
            let at = SimTime::from_ms(20 * i as u64);
            agent.inject_tcp(at, src, dst, 40_000 + 7_000 * i as u64);
            agent.inject_udp(at, dst, src, 900);
        }
    }
    builder.add_agent(agent);
    builder
}

/// `flap_scenario` plus fluid background flows, a third demand-capped.
fn fluid_mixed_scenario() -> NetSimBuilder {
    let mut builder = flap_scenario(29, 2, 8);
    let hosts = builder.shared().net.host_ids();
    let mut agent = Agent::new();
    for i in 0..9 {
        let src = hosts[(i * 3 + 1) % hosts.len()];
        let dst = hosts[(i * 5 + 9) % hosts.len()];
        if src != dst {
            let at = SimTime::from_ms(10 * i as u64);
            let bytes = 200_000 + 70_000 * i as u64;
            if i % 3 == 0 {
                agent.inject_fluid_capped(at, src, dst, bytes, 2_000_000);
            } else {
                agent.inject_fluid(at, src, dst, bytes);
            }
        }
    }
    builder.add_agent(agent);
    builder
}

/// `(encode().len(), fnv1a64(encode()), scenario_fingerprint)` of a
/// session paused mid-run.
fn golden_of(session: &Session, builder: &NetSimBuilder) -> (usize, u64, u64) {
    let bytes = session.encode();
    (bytes.len(), fnv1a64(&bytes), fingerprint_for(builder))
}

/// The snapshot byte format is pinned: four mid-run sessions (flat with
/// link flaps, multi-AS, packet + fluid, rebalancing mid-epoch) and one
/// branch encode to the lengths, FNV-1a digests and fingerprints
/// recorded for format version 2 (the world's routes as one sorted
/// list; no route-cache capacity in the fingerprint). A codec change
/// that moves any byte fails here.
#[test]
fn snapshot_bytes_match_golden_values() {
    let mut got = Vec::new();

    let flat = flap_scenario(11, 2, 10);
    let mut session = session_for(&flat);
    session
        .run_until(SimTime::from_ms(700), &ExecMode::Sequential)
        .expect("flat prefix runs");
    got.push(golden_of(&session, &flat));
    let suffix = vec![
        (
            SimTime::from_ms(800),
            LpId(flat.shared().net.links[0].a.0),
            NetEvent::Fault {
                kind: FaultKind::LinkDown(LinkId(0)),
            },
        ),
        (
            SimTime::from_ms(900),
            LpId(flat.shared().net.host_ids()[1].0),
            NetEvent::StartFlow {
                dst: flat.shared().net.host_ids()[4],
                bytes: 50_000,
            },
        ),
    ];
    let branch = session.branch(flat.shared(), suffix).expect("branch forks");
    let branch_fingerprint = branch.fingerprint();

    let multi = multi_as_scenario();
    let mut session = session_for(&multi);
    session
        .run_until(SimTime::from_ms(400), &ExecMode::Sequential)
        .expect("multi-AS prefix runs");
    got.push(golden_of(&session, &multi));

    let fluid = fluid_mixed_scenario();
    let mut session = session_for(&fluid);
    session
        .run_until(SimTime::from_ms(600), &ExecMode::Sequential)
        .expect("fluid prefix runs");
    got.push(golden_of(&session, &fluid));

    let skewed = flap_scenario(5, 1, 14);
    let n = skewed.shared().lp_count();
    let policy = RebalancePolicy {
        cfg: RebalanceConfig {
            epoch: SimTime::from_ms(250),
            threshold_permille: 1050,
            max_moves: 24,
        },
        ..RebalancePolicy::default()
    };
    let assignment = (0..n).map(|i| (i * 2 / n) as u32).collect();
    let mut session = Session::new_rebalancing(
        skewed.shared(),
        skewed.initial_events(),
        DEFAULT_ROUTE_CACHE_CAPACITY,
        MAX_RETRIES,
        policy,
        assignment,
    )
    .expect("valid policy");
    session
        .run_rebalancing(SimTime::from_ms(900))
        .expect("rebalancing prefix runs");
    got.push(golden_of(&session, &skewed));

    // (snapshot length, FNV-1a of the snapshot, scenario fingerprint)
    let want = [
        (5036, 0x0b9f_fa70_3d24_887d, 0x09e9_0015_a272_1761),
        (16189, 0x3aa0_57b9_c693_88c1, 0x4aa3_d770_42ec_c551),
        (17984, 0xcf73_e503_ca86_3dcc, 0xa1cd_2929_8357_15db),
        (8578, 0xf870_8291_0382_6c58, 0xf883_9020_725a_2968),
    ];
    assert_eq!(got, want);
    assert_eq!(branch_fingerprint, 0xf81a_a29a_ba14_8338);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The tentpole property: for random topologies, fault scripts,
    /// checkpoint cadences, and thread counts — with a serialization
    /// round trip at every checkpoint — segmented execution is
    /// bit-identical to the straight-through sequential run.
    #[test]
    fn random_cadences_and_thread_counts_are_bit_identical(
        seed in 0u64..1_000,
        flaps in 0usize..3,
        segments in 1u64..4,
        parts in 1u32..3,
    ) {
        let builder = flap_scenario(seed, flaps, 8);
        let end = SimTime::from_ms(1_500);
        let reference = builder.run_sequential(NoApp, end);
        let fingerprint = fingerprint_for(&builder);

        let mode = if parts == 1 {
            ExecMode::Sequential
        } else {
            let (assignment, window) = parity_cut(&builder.shared(), parts);
            ExecMode::Parallel { assignment, window }
        };

        let mut session = session_for(&builder);
        for k in 1..=segments {
            session
                .run_until(SimTime::from_ms(k * 1_500 / segments), &mode)
                .expect("segment runs");
            // Round-trip through bytes at every checkpoint.
            session = Session::decode(builder.shared(), fingerprint, &session.encode())
                .expect("own snapshot loads");
        }
        prop_assert_eq!(session.now(), end);
        prop_assert_eq!(session.total_events(), reference.stats.total_events);
        prop_assert_eq!(session.lp_events(), &reference.stats.lp_events[..]);
        prop_assert_eq!(session.profile(), &reference.profile);

        // The saved state, not only the counters: one straight
        // sequential segment encodes to the same bytes.
        let mut straight = session_for(&builder);
        straight
            .run_until(end, &ExecMode::Sequential)
            .expect("straight run");
        prop_assert!(session.encode() == straight.encode());
    }
}
