//! Cross-crate integration tests for `massf-rs` live in `tests/`; this
//! library only hosts shared helpers.

#![forbid(unsafe_code)]

use massf_core::prelude::*;
use massf_netsim::{NetSimBuilder, NoApp, SimOutput, DEFAULT_ROUTE_CACHE_CAPACITY, MAX_RETRIES};
use massf_snapshot::{scenario_fingerprint, Session};

/// A deterministic tiny single-AS scenario for integration tests.
pub fn tiny_single_as(seed: u64) -> Scenario {
    Scenario::build(
        ScenarioKind::SingleAs,
        Scale::Tiny,
        WorkloadKind::ScaLapack,
        seed,
    )
}

/// A deterministic tiny multi-AS scenario for integration tests.
pub fn tiny_multi_as(seed: u64) -> Scenario {
    Scenario::build(
        ScenarioKind::MultiAs,
        Scale::Tiny,
        WorkloadKind::GridNpb,
        seed,
    )
}

/// A mapping configuration sized for tiny scenarios.
pub fn tiny_mapping_config(engines: usize) -> MappingConfig {
    let mut cfg = MappingConfig::new(engines);
    cfg.sync = SyncCostModel::new(20.0, 30.0);
    cfg
}

/// A fresh session at time zero over `builder`'s world and initial
/// events, with the default retry limit.
pub fn session_for(builder: &NetSimBuilder) -> Session {
    Session::new(
        builder.shared(),
        builder.initial_events(),
        DEFAULT_ROUTE_CACHE_CAPACITY,
        MAX_RETRIES,
    )
}

/// The scenario fingerprint a [`session_for`] session carries.
pub fn fingerprint_for(builder: &NetSimBuilder) -> u64 {
    scenario_fingerprint(&builder.shared(), &builder.initial_events(), MAX_RETRIES)
}

/// `session` has handled exactly the events of the straight
/// `reference` run, per LP, with the same traffic profile.
pub fn assert_matches_reference(session: &Session, reference: &SimOutput<NoApp>) {
    assert_eq!(session.total_events(), reference.stats.total_events);
    assert_eq!(session.lp_events(), &reference.stats.lp_events[..]);
    assert_eq!(session.profile(), &reference.profile);
}
