//! # massf-workloads
//!
//! Traffic workloads for the `massf-rs` reproduction of *Realistic
//! Large-Scale Online Network Simulation* (Liu & Chien, SC 2004),
//! matching the paper's experimental setup (Sections 4.2 and 5.2.1):
//!
//! * [`http`] — background traffic: "8,000 clients continuously sending
//!   HTTP file requests to 2,000 servers. The average time gap between
//!   two successive requests of a client is 5 seconds and average file
//!   size is 50 KB."
//! * [`scalapack`] — the communication-heavy foreground application: an
//!   iterative block-cyclic panel-broadcast pattern over a process grid,
//!   standing in for direct execution of ScaLAPACK (DESIGN.md
//!   substitution #2).
//! * [`gridnpb`] — the GridNPB 3.0 workflow benchmarks: Helical Chain
//!   (HC), Visualization Pipeline (VP), and Mixed Bag (MB) dataflow
//!   graphs of compute tasks exchanging initialization data.
//!
//! All workloads implement [`massf_netsim::AppLogic`], tag their timers,
//! datagram metadata, and flows with a construction-time namespace, and
//! ignore callbacks that are not theirs — so any set of workloads can be
//! composed with [`compose::Pair`] and run concurrently, exactly like
//! the paper's background + foreground mix.

#![forbid(unsafe_code)]
// Each `expect` names its invariant (DESIGN.md §3 item 15).
#![cfg_attr(not(test), deny(clippy::expect_used))]

pub mod compose;
pub mod gridnpb;
pub mod http;
pub mod rng;
pub mod scalapack;

pub use compose::Pair;
pub use gridnpb::{
    helical_chain, mixed_bag, visualization_pipeline, WorkflowApp, WorkflowSpec, WorkflowTask,
};
pub use http::{HttpConfig, HttpTraffic};
pub use scalapack::{ScaLapackApp, ScaLapackConfig};

/// Tag a token/meta word with an app namespace (high byte).
#[inline]
pub fn tag(ns: u8, value: u64) -> u64 {
    debug_assert!(value < (1u64 << 56));
    ((ns as u64) << 56) | value
}

/// Split a tagged word into `(namespace, value)`.
#[inline]
pub fn untag(word: u64) -> (u8, u64) {
    ((word >> 56) as u8, word & ((1u64 << 56) - 1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_roundtrip() {
        let w = tag(7, 123_456);
        assert_eq!(untag(w), (7, 123_456));
        assert_eq!(untag(tag(0, 0)), (0, 0));
        assert_eq!(untag(tag(255, (1 << 56) - 1)), (255, (1 << 56) - 1));
    }
}
