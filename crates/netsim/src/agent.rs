//! The live-traffic Agent.
//!
//! In MaSSF, application processes run for real; a `WrapSocket` library
//! intercepts their socket calls and hands the streams to an Agent that
//! injects them into the simulation (Section 2.1). Reproducing process
//! interception is out of scope (DESIGN.md substitution #2); this Agent
//! keeps the same role with a scripted interface: traffic demands are
//! registered (by workload models, trace replayers, or tests) as the
//! engine events that start them, and handed to the engine at
//! simulation start.

use crate::fluid::FLUID_COORDINATOR;
use crate::packet::NetEvent;
use massf_engine::{LpId, SimTime};
use massf_topology::NodeId;

/// Collects traffic demands as initial engine events: packet-level
/// demands (`StartFlow`, `SendDatagram` at the source LP) in one block,
/// fluid demands (`FluidStart` at [`FLUID_COORDINATOR`]) in the other.
#[derive(Debug, Clone, Default)]
pub struct Agent {
    packet: Vec<(SimTime, LpId, NetEvent)>,
    fluid: Vec<(SimTime, LpId, NetEvent)>,
}

impl Agent {
    /// An empty agent.
    pub fn new() -> Self {
        Agent::default()
    }

    /// Register a TCP transfer of `bytes` from `src` to `dst` at `at`.
    pub fn inject_tcp(&mut self, at: SimTime, src: NodeId, dst: NodeId, bytes: u64) {
        let ev = NetEvent::StartFlow { dst, bytes };
        self.packet.push((at, LpId(src.0), ev));
    }

    /// Register a UDP datagram (`bytes ≤ MSS` recommended).
    pub fn inject_udp(&mut self, at: SimTime, src: NodeId, dst: NodeId, bytes: u32) {
        let ev = NetEvent::SendDatagram {
            dst,
            bytes,
            meta: 0,
        };
        self.packet.push((at, LpId(src.0), ev));
    }

    /// Register a bottleneck-limited fluid background flow of `bytes`
    /// from `src` to `dst` at `at` (see `crate::fluid`).
    pub fn inject_fluid(&mut self, at: SimTime, src: NodeId, dst: NodeId, bytes: u64) {
        self.inject_fluid_capped(at, src, dst, bytes, 0);
    }

    /// Register a fluid background flow whose demand is capped at
    /// `peak_bps` bits/s (matching link bandwidth units); `0` means
    /// bottleneck-limited, as everywhere a fluid flow is started.
    pub fn inject_fluid_capped(
        &mut self,
        at: SimTime,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        peak_bps: u64,
    ) {
        let ev = NetEvent::FluidStart {
            src,
            dst,
            bytes,
            peak_bps,
        };
        self.fluid.push((at, LpId(FLUID_COORDINATOR.0), ev));
    }

    /// Number of registered demands (packet and fluid).
    pub fn len(&self) -> usize {
        self.packet.len() + self.fluid.len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.packet.is_empty() && self.fluid.is_empty()
    }

    /// The initial events for the engine: packet demands first, then
    /// fluid demands, each block stably sorted by time (for readability
    /// — the engine interleaves by `(time, tag)` anyway, and keeping the
    /// blocks apart keeps packet-only scenarios' event tags unchanged
    /// by the presence of fluid demands).
    pub fn into_initial_events(mut self) -> Vec<(SimTime, LpId, NetEvent)> {
        self.packet.sort_by_key(|e| e.0);
        self.fluid.sort_by_key(|e| e.0);
        self.packet.append(&mut self.fluid);
        self.packet
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn injections_become_events_sorted_by_time() {
        let mut agent = Agent::new();
        agent.inject_tcp(SimTime::from_ms(5), NodeId(1), NodeId(2), 1000);
        agent.inject_udp(SimTime::from_ms(1), NodeId(3), NodeId(4), 100);
        assert_eq!(agent.len(), 2);
        let events = agent.into_initial_events();
        assert_eq!(events[0].0, SimTime::from_ms(1));
        assert_eq!(events[0].1, LpId(3));
        assert!(matches!(
            events[0].2,
            NetEvent::SendDatagram { bytes: 100, .. }
        ));
        assert_eq!(events[1].0, SimTime::from_ms(5));
        assert!(matches!(
            events[1].2,
            NetEvent::StartFlow { bytes: 1000, .. }
        ));
    }

    #[test]
    fn empty_agent() {
        let agent = Agent::new();
        assert!(agent.is_empty());
        assert!(agent.into_initial_events().is_empty());
    }
}
