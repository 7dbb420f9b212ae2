//! The online rebalancer recovers imbalance on both `rebalance_study`
//! scenarios: at `--scale tiny` with 250 ms epochs, the adaptive driver
//! migrates LPs, cuts the aggregate max/mean load by ≥ 1.3× against the
//! static driver, and shortens the critical path. `run` itself asserts
//! both drivers bit-identical to the sequential reference.

use massf_bench::default_engines;
use massf_bench::rebalance_study::{run, StudyConfig};
use massf_core::prelude::*;
use massf_engine::RebalanceConfig;

#[test]
fn adaptive_driver_recovers_imbalance_on_both_scenarios() {
    let cfg = StudyConfig {
        scale: Scale::Tiny,
        seed: 2004,
        engines: default_engines(Scale::Tiny),
        duration: SimTime::from_secs(8),
        rebalance: RebalanceConfig {
            epoch: SimTime::from_ms(250),
            ..RebalanceConfig::default()
        },
        flaps: 4,
    };
    let (_, reports) = run(&cfg);
    for r in &reports {
        let (s, a) = (&r.static_run, &r.adaptive_run);
        assert!(a.outcome.migrations > 0, "{}: no migration", r.name);
        assert!(
            r.improvement() >= 1.3,
            "{}: recovered {:.2}x ({} -> {} permille), want >= 1.3x",
            r.name,
            r.improvement(),
            s.imbalance(),
            a.imbalance()
        );
        assert!(
            a.outcome.critical_path_events < s.outcome.critical_path_events,
            "{}: critical path {} -> {}",
            r.name,
            s.outcome.critical_path_events,
            a.outcome.critical_path_events
        );
    }
}
