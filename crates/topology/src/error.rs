//! The workspace-shared structured error type.
//!
//! `MassfError` lives here — at the bottom of the crate stack — so that
//! every layer above (`massf-routing`, `massf-faults`, `massf-netsim`,
//! `massf-core`) can return it without a dependency cycle. `massf-core`
//! re-exports it from `crates/core/src/error.rs` as the user-facing
//! entry point.

use std::fmt;

/// Structured errors for fault-path and configuration code. Library
/// crates return `Result<_, MassfError>` from fallible operations
/// instead of panicking, so fault injection and CLI layers can react
/// (reroute, abort a flow, print usage) rather than crash the run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MassfError {
    /// No path exists between the endpoints (partition or BGP policy).
    Unroutable { src: u32, dst: u32 },
    /// A node id outside the network (or outside the routing domain).
    UnknownNode(u32),
    /// A link id outside the network.
    UnknownLink(u32),
    /// The two ASes are not adjacent in the AS-level graph.
    NotAdjacent { as_a: usize, as_b: usize },
    /// A routing process exceeded its convergence-round budget.
    NonConvergence { rounds: usize, budget: usize },
    /// A fault script references invalid entities or is inconsistent
    /// (e.g. `LinkUp` for a link that is already up).
    InvalidFaultScript(String),
    /// Invalid configuration or command-line arguments.
    InvalidConfig(String),
    /// A parallel run emitted a cross-partition event inside the current
    /// synchronization window: the window length exceeds the partition
    /// cut's minimum link latency, so conservative execution is unsound.
    /// Carries the offending partition, the violating event's timestamp,
    /// and the window length that was in force.
    LookaheadViolation {
        partition: u32,
        event_time_ns: u64,
        window_ns: u64,
    },
    /// A snapshot file (or one of its sections) failed structural
    /// validation: bad magic, truncated payload, CRC mismatch, or a
    /// field that decodes to an impossible value. `section` names the
    /// part that failed ("header", "events", "world", ...), `reason`
    /// says what was wrong. Torn writes and bit rot land here — the
    /// loader must reject, never panic or silently load garbage.
    SnapshotCorrupt { section: String, reason: String },
    /// The snapshot was written by an incompatible format version.
    SnapshotVersionMismatch { found: u32, expected: u32 },
    /// An OS-level I/O failure while reading or writing a snapshot
    /// (open, read, write, fsync, rename). `std::io::Error` is neither
    /// `Clone` nor `Eq`, so only its rendering is carried.
    SnapshotIo { path: String, reason: String },
}

impl fmt::Display for MassfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MassfError::Unroutable { src, dst } => {
                write!(f, "no route from node {src} to node {dst}")
            }
            MassfError::UnknownNode(id) => write!(f, "unknown node id {id}"),
            MassfError::UnknownLink(id) => write!(f, "unknown link id {id}"),
            MassfError::NotAdjacent { as_a, as_b } => {
                write!(f, "AS {as_a} and AS {as_b} are not adjacent")
            }
            MassfError::NonConvergence { rounds, budget } => {
                write!(f, "no convergence after {rounds} rounds (budget {budget})")
            }
            MassfError::InvalidFaultScript(msg) => write!(f, "invalid fault script: {msg}"),
            MassfError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            MassfError::LookaheadViolation {
                partition,
                event_time_ns,
                window_ns,
            } => write!(
                f,
                "lookahead violation: partition {partition} scheduled a cross-partition \
                 event at {event_time_ns} ns inside the current {window_ns} ns window \
                 (window exceeds the partition's MLL?)"
            ),
            MassfError::SnapshotCorrupt { section, reason } => {
                write!(f, "corrupt snapshot: section `{section}`: {reason}")
            }
            MassfError::SnapshotVersionMismatch { found, expected } => write!(
                f,
                "snapshot format version {found} is not supported (expected {expected})"
            ),
            MassfError::SnapshotIo { path, reason } => {
                write!(f, "snapshot I/O error on {path}: {reason}")
            }
        }
    }
}

impl std::error::Error for MassfError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = MassfError::Unroutable { src: 3, dst: 9 };
        assert_eq!(e.to_string(), "no route from node 3 to node 9");
        let e = MassfError::NotAdjacent { as_a: 1, as_b: 2 };
        assert!(e.to_string().contains("not adjacent"));
        let e = MassfError::InvalidFaultScript("link 99 out of range".into());
        assert!(e.to_string().contains("link 99"));
        let e = MassfError::SnapshotCorrupt {
            section: "events".into(),
            reason: "crc mismatch".into(),
        };
        assert!(e.to_string().contains("events"));
        assert!(e.to_string().contains("crc mismatch"));
        let e = MassfError::SnapshotVersionMismatch {
            found: 9,
            expected: 1,
        };
        assert!(e.to_string().contains('9'));
        let e = MassfError::SnapshotIo {
            path: "/tmp/x.snap".into(),
            reason: "permission denied".into(),
        };
        assert!(e.to_string().contains("/tmp/x.snap"));
    }

    #[test]
    fn is_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&MassfError::UnknownLink(1));
    }
}
