//! The end-to-end experiment pipeline behind every evaluation figure:
//!
//! 1. **Profiling run** (once, if any approach is PROF-family): simulate
//!    briefly under a naive round-robin partition, collecting per-node
//!    event counts and per-link traffic (Section 3.3).
//! 2. **Mapping**: build the weighted graph and partition it with each
//!    chosen approach.
//! 3. **Measured run**: simulate the full workload **once**, attributing
//!    kernel events to `(window, engine)` cells of every mapping with the
//!    window equal to its achieved MLL — the exact execution structure of
//!    the paper's barrier-synchronized engine, for each mapping.
//! 4. **Metrics**: simulation time (cluster model), achieved MLL, load
//!    imbalance, parallel efficiency (Section 4.1).

use crate::clustermodel::ClusterModel;
use crate::mappers::{map_network, MappingApproach, MappingConfig, MappingResult};
use crate::metrics::ExperimentMetrics;
use crate::scenario::{Scenario, ScenarioApp};
use massf_engine::{ExecutionStats, MassfError, Scoring, SimTime};
use massf_netsim::{NetSimBuilder, ProfileData, SimOutput};

/// Everything produced by one experiment.
pub struct ExperimentOutput {
    pub approach: MappingApproach,
    pub mapping: MappingResult,
    pub metrics: ExperimentMetrics,
    /// Stats of the measured (windowed) run — includes the coarse
    /// per-engine load trace (Figure 3).
    pub run_stats: ExecutionStats,
    /// Traffic counters of the measured run.
    pub run_profile: ProfileData,
    /// The profiling run's traffic counters, when one was needed.
    pub profiling_profile: Option<ProfileData>,
}

/// Fraction of the measured duration used for the profiling run.
const PROFILE_FRACTION: u64 = 4;

/// Floor on the synchronization window to bound window counts when a
/// mapper achieves a pathologically small MLL (TOP on large networks).
/// Equal to the co-location latency floor of the topology generator.
const MIN_WINDOW: SimTime = SimTime(10_000); // 10 µs

/// A builder over `scenario`'s network, seeded with its workload.
fn builder(scenario: &Scenario) -> (NetSimBuilder, ScenarioApp) {
    let (app, events) = scenario.make_app();
    let mut builder = NetSimBuilder::new(scenario.net.clone(), scenario.resolver.clone());
    builder.add_initial_events(events);
    (builder, app)
}

/// Step 1, the paper's profiling run: simulate `duration / 4` under the
/// naive partition. Its `profile` is the input of the PROF-family
/// mappers.
pub fn run_profiling(scenario: &Scenario, duration: SimTime) -> SimOutput<ScenarioApp> {
    let (builder, app) = builder(scenario);
    builder.run_sequential(app, duration / PROFILE_FRACTION)
}

/// Steps 3 and 4: simulate `scenario` for `duration` once, score the run
/// against every mapping — on its own engine count (`partition.k`),
/// windowed at its achieved MLL — and derive each mapping's metrics.
/// `profile` is the profiling run's, kept in the outputs of the
/// PROF-family mappings. A mapping that does not cover the scenario's
/// network is [`MassfError::InvalidConfig`].
pub fn score_mappings(
    scenario: &Scenario,
    mappings: Vec<MappingResult>,
    profile: Option<&ProfileData>,
    model: &ClusterModel,
    duration: SimTime,
) -> Result<Vec<ExperimentOutput>, MassfError> {
    let scorings: Vec<Scoring<'_>> = mappings
        .iter()
        .map(|m| Scoring {
            // Nothing cut: the whole run is one window.
            window: if m.achieved_mll_ms.is_finite() {
                SimTime::from_ms_f64(m.achieved_mll_ms)
            } else {
                duration
            }
            .max(MIN_WINDOW),
            assignment: &m.partition.assignment,
            partitions: m.partition.k,
        })
        .collect();
    let (builder, app) = builder(scenario);
    let run = builder.run_sequential_windowed(app, duration, &scorings)?;
    Ok(mappings
        .into_iter()
        .zip(run.stats)
        .map(|(mapping, run_stats)| ExperimentOutput {
            approach: mapping.approach,
            metrics: ExperimentMetrics::from_run(
                &run_stats,
                mapping.achieved_mll_ms,
                mapping.partition.k,
                model,
            ),
            profiling_profile: profile
                .filter(|_| mapping.approach.needs_profile())
                .cloned(),
            mapping,
            run_stats,
            run_profile: run.profile.clone(),
        })
        .collect())
}

/// Run the full pipeline for one `(scenario, approach)` pair: the
/// one-approach case of [`run_approaches`].
#[expect(
    clippy::expect_used,
    reason = "run_approaches returns one output per approach, and it is given one"
)]
pub fn run_mapping_experiment(
    scenario: &Scenario,
    approach: MappingApproach,
    cfg: &MappingConfig,
    model: &ClusterModel,
    duration: SimTime,
) -> ExperimentOutput {
    run_approaches(scenario, &[approach], cfg, model, duration)
        .pop()
        .expect("one output per approach")
}

/// Run the full pipeline for several approaches over one scenario: one
/// profiling run (if any approach needs it), every mapping concurrently
/// on the shared worker pool, then one run scored against all of them.
/// Output order matches `approaches` order and every step is
/// deterministic, so results are identical at any thread count.
#[expect(
    clippy::expect_used,
    reason = "map_network assigns every node to one of cfg.engines parts, which is all score_mappings checks"
)]
pub fn run_approaches(
    scenario: &Scenario,
    approaches: &[MappingApproach],
    cfg: &MappingConfig,
    model: &ClusterModel,
    duration: SimTime,
) -> Vec<ExperimentOutput> {
    let profile = approaches
        .iter()
        .any(|a| a.needs_profile())
        .then(|| run_profiling(scenario, duration).profile);
    let mappings = massf_parutil::par_map(approaches, |&approach| {
        map_network(&scenario.net, profile.as_ref(), approach, cfg)
    });
    score_mappings(scenario, mappings, profile.as_ref(), model, duration)
        .expect("map_network assigns every node to one of cfg.engines parts")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{Scale, ScenarioKind, WorkloadKind};

    fn scenario() -> Scenario {
        Scenario::build(
            ScenarioKind::SingleAs,
            Scale::Tiny,
            WorkloadKind::ScaLapack,
            7,
        )
    }

    fn cfg() -> MappingConfig {
        let mut c = MappingConfig::new(4);
        // A small virtual cluster for tiny tests.
        c.sync = massf_engine::SyncCostModel::new(20.0, 30.0);
        c
    }

    #[test]
    fn pipeline_produces_complete_metrics() {
        let s = scenario();
        let out = run_mapping_experiment(
            &s,
            MappingApproach::Top2,
            &cfg(),
            &ClusterModel::default(),
            SimTime::from_secs(3),
        );
        assert!(out.metrics.simulation_time_secs > 0.0);
        assert!(out.metrics.achieved_mll_ms > 0.0);
        assert!(out.metrics.parallel_efficiency > 0.0);
        assert!(out.metrics.parallel_efficiency <= 1.0);
        assert!(out.run_stats.total_events > 1000);
        assert!(out.profiling_profile.is_none());
    }

    #[test]
    fn prof_pipeline_runs_profiling_first() {
        let s = scenario();
        let out = run_mapping_experiment(
            &s,
            MappingApproach::Prof2,
            &cfg(),
            &ClusterModel::default(),
            SimTime::from_secs(3),
        );
        let p = out.profiling_profile.expect("profiling run happened");
        assert!(p.total_node_packets() > 0);
    }

    #[test]
    fn hprof_beats_random_on_predicted_time() {
        // A random mapping cuts co-located links, collapsing the MLL and
        // flooding the run with synchronization windows; HPROF must win
        // clearly even at tiny scale. (The TOP-family comparisons are
        // exercised at figure scale in the bench harness, where the
        // paper's small-MLL effect actually appears.)
        let s = scenario();
        let c = cfg();
        let model = ClusterModel::new(c.sync, 10.0);
        let random = run_mapping_experiment(
            &s,
            MappingApproach::Random,
            &c,
            &model,
            SimTime::from_secs(3),
        );
        let hprof = run_mapping_experiment(
            &s,
            MappingApproach::Hprof,
            &c,
            &model,
            SimTime::from_secs(3),
        );
        assert!(
            hprof.metrics.simulation_time_secs < random.metrics.simulation_time_secs,
            "HPROF {} vs RANDOM {}",
            hprof.metrics.simulation_time_secs,
            random.metrics.simulation_time_secs
        );
        assert!(hprof.metrics.parallel_efficiency > random.metrics.parallel_efficiency);
    }

    #[test]
    fn run_approaches_matches_individual_runs() {
        let s = scenario();
        let c = cfg();
        let model = ClusterModel::default();
        let approaches = [
            MappingApproach::Top2,
            MappingApproach::Prof2,
            MappingApproach::Hprof,
        ];
        let dur = SimTime::from_secs(2);
        let batch =
            massf_parutil::with_threads(4, || run_approaches(&s, &approaches, &c, &model, dur));
        assert_eq!(batch.len(), approaches.len());
        for (out, &approach) in batch.iter().zip(&approaches) {
            assert_eq!(out.approach, approach);
            let solo = run_mapping_experiment(&s, approach, &c, &model, dur);
            assert_eq!(
                out.mapping.partition.assignment,
                solo.mapping.partition.assignment
            );
            assert_eq!(out.run_stats, solo.run_stats);
            assert_eq!(out.run_profile, solo.run_profile);
            assert_eq!(out.profiling_profile, solo.profiling_profile);
            assert_eq!(
                out.metrics.simulation_time_secs.to_bits(),
                solo.metrics.simulation_time_secs.to_bits()
            );
        }
    }

    #[test]
    fn window_equals_achieved_mll() {
        let s = scenario();
        let out = run_mapping_experiment(
            &s,
            MappingApproach::Htop,
            &cfg(),
            &ClusterModel::default(),
            SimTime::from_secs(2),
        );
        let expected = SimTime::from_ms_f64(out.mapping.achieved_mll_ms);
        assert_eq!(out.run_stats.window, expected.max(super::MIN_WINDOW));
    }
}
