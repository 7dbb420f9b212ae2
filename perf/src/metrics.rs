//! The benchmark's metric names, units and directions — the same lists
//! `BENCHMARK.json` declares (a test holds the two together).
//!
//! All times are **host** time; virtual (simulated) time appears only
//! as the fixed horizon each workload runs to.

/// `(name, unit, better)`.
pub type Spec = (&'static str, &'static str, &'static str);

/// What a user of the simulator sees. Times are medians over the
/// pipeline executions of one run.
pub const END_TO_END: &[Spec] = &[
    // Everything before the measured run: topology, routing, traffic,
    // world, profiling run, HPROF mapping. Work moved out of the run
    // into preparation shows here.
    ("setup_s", "s", "lower"),
    // Sequential executor, first event to the fixed virtual horizon.
    // Time to solution, not events/s: removing stale events must win.
    ("seq_wall_s", "s", "lower"),
    // The real 2-thread conservative executor, same horizon, HPROF map.
    ("par_wall_s", "s", "lower"),
    // VmHWM of the run's process after its first pipeline execution.
    ("peak_rss_mb", "MiB", "lower"),
];

/// One layer each; the module name is the prefix. Counts repeat
/// exactly for a given (workload, seed); `*_s` busy times come from the
/// timing wrappers of the traced run.
pub const PER_LAYER: &[Spec] = &[
    ("topology.generate_s", "s", "lower"),
    ("topology.nodes", "count", "lower"),
    ("topology.links", "count", "lower"),
    ("routing.build_s", "s", "lower"),
    ("routing.resolve_calls", "count", "lower"),
    ("routing.resolve_busy_s", "s", "lower"),
    ("routing.cache_hits", "count", "higher"),
    ("routing.cache_misses", "count", "lower"),
    ("routing.cache_evictions", "count", "lower"),
    ("routing.resolve_cold_us", "us", "lower"),
    ("routing.resolve_warm_us", "us", "lower"),
    ("faults.compile_s", "s", "lower"),
    ("faults.epochs", "count", "lower"),
    ("faults.reconvergences", "count", "lower"),
    ("faults.fault_drops", "count", "lower"),
    ("faults.reconverge_busy_s", "s", "lower"),
    ("workloads.make_app_s", "s", "lower"),
    ("workloads.initial_events", "count", "lower"),
    ("workloads.callbacks", "count", "lower"),
    ("workloads.callback_busy_s", "s", "lower"),
    ("workloads.seq_self_s", "s", "lower"),
    ("core.profiling_s", "s", "lower"),
    ("core.map_hprof_s", "s", "lower"),
    ("core.achieved_mll_ms", "ms", "higher"),
    ("core.model_efficiency", "ratio", "higher"),
    ("core.load_imbalance", "ratio", "lower"),
    ("core.model_par_s", "s", "lower"),
    ("partition.kway_s", "s", "lower"),
    ("partition.edge_cut", "count", "lower"),
    ("engine.events_total", "count", "lower"),
    ("engine.seq_events_per_s", "1/s", "higher"),
    ("engine.par_events_per_s", "1/s", "higher"),
    ("engine.par_speedup", "ratio", "higher"),
    ("engine.null_event_ns", "ns", "lower"),
    ("engine.seq_self_s", "s", "lower"),
    ("engine.par_self_s", "s", "lower"),
    ("engine.barrier_rounds", "count", "lower"),
    ("engine.windows_executed", "count", "lower"),
    ("engine.windows_skipped", "count", "higher"),
    ("engine.critical_path_events", "count", "lower"),
    ("engine.imbalance_permille", "permille", "lower"),
    ("engine.barrier_wait_s", "s", "lower"),
    ("netsim.world_build_s", "s", "lower"),
    ("netsim.seq_self_s", "s", "lower"),
    ("netsim.arrive_events", "count", "lower"),
    ("netsim.arrive_busy_s", "s", "lower"),
    ("netsim.rto_events", "count", "lower"),
    ("netsim.rto_busy_s", "s", "lower"),
    ("netsim.start_flow_events", "count", "lower"),
    ("netsim.start_flow_busy_s", "s", "lower"),
    ("netsim.app_timer_events", "count", "lower"),
    ("netsim.app_timer_busy_s", "s", "lower"),
    ("netsim.fluid_events", "count", "lower"),
    ("netsim.fluid_busy_s", "s", "lower"),
    ("netsim.fluid_rate_recomputes", "count", "lower"),
    ("netsim.fluid_bottleneck_recomputes", "count", "lower"),
    ("netsim.fluid_finish_arms", "count", "lower"),
    ("netsim.fluid_cap_updates", "count", "lower"),
    ("netsim.fluid_packet_load_updates", "count", "lower"),
    ("netsim.completed_flows", "count", "higher"),
    ("netsim.completed_segments", "count", "higher"),
    ("netsim.drops", "count", "lower"),
    ("netsim.aborted_flows", "count", "lower"),
    ("netsim.rss_after_setup_mb", "MiB", "lower"),
    ("snapshot.checkpoints", "count", "lower"),
    ("snapshot.bytes", "count", "lower"),
    ("snapshot.encode_s", "s", "lower"),
    ("snapshot.save_s", "s", "lower"),
    ("snapshot.load_s", "s", "lower"),
    ("snapshot.segment_run_s", "s", "lower"),
    ("snapshot.rebalance_epochs", "count", "lower"),
    ("snapshot.rebalances", "count", "lower"),
    ("snapshot.migrations", "count", "lower"),
    ("snapshot.rebalance_overhead_s", "s", "lower"),
    ("parutil.threads", "count", "higher"),
    ("trace_overhead_pct", "%", "lower"),
];

/// Measured values of one run, in declaration order of a spec list.
pub struct Values {
    specs: &'static [Spec],
    values: Vec<Option<f64>>,
}

impl Values {
    pub fn new(specs: &'static [Spec]) -> Self {
        Values {
            specs,
            values: vec![None; specs.len()],
        }
    }

    /// Record `name`.
    ///
    /// # Panics
    /// Panics on a name the spec list does not declare (a harness bug).
    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .specs
            .iter()
            .position(|s| s.0 == name)
            .unwrap_or_else(|| panic!("metric {name:?} is not declared"));
        self.values[i] = Some(value);
    }

    /// `(name, value, unit)` for every declared metric; a metric whose
    /// layer is bypassed by the workload reads zero, not absent.
    pub fn rows(&self) -> impl Iterator<Item = (&'static str, f64, &'static str)> + '_ {
        self.specs
            .iter()
            .zip(&self.values)
            .map(|(s, v)| (s.0, v.unwrap_or(0.0), s.1))
    }
}
