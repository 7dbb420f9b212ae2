//! # massf-core
//!
//! The load-balance contribution of *Realistic Large-Scale Online
//! Network Simulation* (Liu & Chien, SC 2004): mapping a simulated
//! network onto parallel simulation engines.
//!
//! The paper models network mapping as graph partitioning (Section 3.2)
//! and compares:
//!
//! * **TOP / TOP2** — topology-based: vertex weight = total link
//!   bandwidth of the node; edge weight from link latency (TOP2 uses the
//!   hand-tuned steeper latency conversion of Section 4.3).
//! * **PROF / PROF2** — profile-based: vertex weight = measured kernel
//!   event count of the node from a profiling run.
//! * **HTOP / HPROF** — this paper's *hierarchical* approaches
//!   (Section 3.4): collapse all links with latency below a threshold
//!   `Tmll`, partition the reduced graph, evaluate the candidate with
//!   the efficiency model `E = Es · Ec`, and sweep `Tmll` to pick the
//!   best — explicitly trading simulation efficiency (large MLL) against
//!   available parallelism (fine-grained balance).
//!
//! Every mapper takes one [`MappingConfig`]: the engine count, the
//! synchronization-cost model, the partitioner's refinement passes, and
//! the HTOP/HPROF sweep's step (paper: 0.1 ms) and step count. The
//! partitioner's balance tolerance, coarsening, initial tries and seed
//! are `massf_partition` constants, and stub ASes always route by
//! default (Section 5.1.2).
//!
//! The crate also houses the evaluation machinery: achieved-MLL /
//! load-imbalance / parallel-efficiency metrics (Section 4.1), the
//! trace-driven cluster performance model (DESIGN.md substitution #1),
//! and the end-to-end experiment pipeline (profile run → mapping →
//! measured run) used by the figure-regeneration harness.
//!
//! # Example
//!
//! ```no_run
//! use massf_core::prelude::*;
//!
//! // Build the paper's single-AS world at test scale, with HTTP
//! // background traffic plus the ScaLapack application model.
//! let scenario = Scenario::build(
//!     ScenarioKind::SingleAs, Scale::Tiny, WorkloadKind::ScaLapack, 42);
//!
//! // Map onto 4 engines with HPROF and run the measured simulation.
//! let out = run_mapping_experiment(
//!     &scenario,
//!     MappingApproach::Hprof,
//!     &MappingConfig::new(4),
//!     &ClusterModel::default(),
//!     SimTime::from_secs(5),
//! );
//! assert!(out.metrics.achieved_mll_ms >= out.mapping.tmll_ms.expect("HPROF sets a TMLL"));
//! println!("parallel efficiency: {:.2}", out.metrics.parallel_efficiency);
//! ```

#![forbid(unsafe_code)]
// Each float site says why its order is fixed (DESIGN.md §3 item 15);
// each `expect` names its invariant.
#![cfg_attr(not(test), deny(clippy::float_arithmetic))]
#![cfg_attr(not(test), deny(clippy::expect_used))]

pub mod clustermodel;
pub mod error;
pub mod evaluate;
pub mod hier;
pub mod mappers;
pub mod metrics;
pub mod pipeline;
pub mod scenario;
pub mod weights;

pub use clustermodel::ClusterModel;
pub use error::MassfError;
pub use evaluate::{efficiency, PartitionEvaluation};
pub use hier::{hierarchical_partition, reduce_graph, HierResult, SweepReducer};
pub use mappers::{map_network, MappingApproach, MappingConfig, MappingResult};
pub use metrics::{load_imbalance, parallel_efficiency, ExperimentMetrics};
pub use pipeline::{
    run_approaches, run_mapping_experiment, run_profiling, score_mappings, ExperimentOutput,
};
pub use scenario::{Scale, Scenario, ScenarioKind, WorkloadKind};
pub use weights::{build_weighted_graph, EdgeWeighting, VertexWeighting};

/// Convenience re-exports for downstream binaries and examples.
pub mod prelude {
    pub use crate::{
        build_weighted_graph, hierarchical_partition, load_imbalance, map_network,
        parallel_efficiency, run_approaches, run_mapping_experiment, run_profiling, score_mappings,
        ClusterModel, EdgeWeighting, ExperimentMetrics, ExperimentOutput, MappingApproach,
        MappingConfig, MappingResult, MassfError, Scale, Scenario, ScenarioKind, VertexWeighting,
        WorkloadKind,
    };
    pub use massf_engine::{SimTime, SyncCostModel};
    pub use massf_partition::{metis_kway, KwayConfig, Partition, WeightedGraph};
    pub use massf_topology::{
        generate_flat_network, generate_multi_as_network, FlatTopologyConfig,
        MultiAsTopologyConfig, Network, NodeId,
    };
}
