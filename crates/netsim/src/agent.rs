//! The live-traffic Agent.
//!
//! In MaSSF, application processes run for real; a `WrapSocket` library
//! intercepts their socket calls and hands the streams to an Agent that
//! injects them into the simulation (Section 2.1). Reproducing process
//! interception is out of scope (DESIGN.md substitution #2); this Agent
//! keeps the same role with a scripted interface: traffic demands are
//! registered (by workload models, trace replayers, or tests) and turned
//! into engine events at simulation start.

use crate::fluid::{FLUID_COORDINATOR, FLUID_UNBOUNDED};
use crate::packet::NetEvent;
use crate::world::TransportKind;
use massf_engine::{LpId, SimTime};
use massf_topology::NodeId;

/// One registered traffic demand.
#[derive(Debug, Clone)]
pub struct Injection {
    pub at: SimTime,
    pub src: NodeId,
    pub dst: NodeId,
    pub bytes: u64,
    pub transport: TransportKind,
}

/// One registered fluid background flow (see `crate::fluid`).
#[derive(Debug, Clone)]
pub struct FluidInjection {
    pub at: SimTime,
    pub src: NodeId,
    pub dst: NodeId,
    pub bytes: u64,
    /// Demand cap in bits/s; [`FLUID_UNBOUNDED`] = bottleneck-limited.
    pub peak_bps: u64,
}

/// Collects traffic demands and converts them to initial engine events.
#[derive(Debug, Clone, Default)]
pub struct Agent {
    injections: Vec<Injection>,
    fluids: Vec<FluidInjection>,
}

impl Agent {
    /// An empty agent.
    pub fn new() -> Self {
        Agent::default()
    }

    /// Register a TCP transfer of `bytes` from `src` to `dst` at `at`.
    pub fn inject_tcp(&mut self, at: SimTime, src: NodeId, dst: NodeId, bytes: u64) {
        self.injections.push(Injection {
            at,
            src,
            dst,
            bytes,
            transport: TransportKind::Tcp,
        });
    }

    /// Register a UDP datagram (`bytes ≤ MSS` recommended).
    pub fn inject_udp(&mut self, at: SimTime, src: NodeId, dst: NodeId, bytes: u32) {
        self.injections.push(Injection {
            at,
            src,
            dst,
            bytes: bytes as u64,
            transport: TransportKind::Udp,
        });
    }

    /// Register a bottleneck-limited fluid background flow of `bytes`
    /// from `src` to `dst` at `at` (see `crate::fluid`).
    pub fn inject_fluid(&mut self, at: SimTime, src: NodeId, dst: NodeId, bytes: u64) {
        self.fluids.push(FluidInjection {
            at,
            src,
            dst,
            bytes,
            peak_bps: FLUID_UNBOUNDED,
        });
    }

    /// Register a fluid background flow whose demand is capped at
    /// `peak_bps` bits/s (matching link bandwidth units).
    pub fn inject_fluid_capped(
        &mut self,
        at: SimTime,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        peak_bps: u64,
    ) {
        self.fluids.push(FluidInjection {
            at,
            src,
            dst,
            bytes,
            peak_bps,
        });
    }

    /// Number of registered demands (packet and fluid).
    pub fn len(&self) -> usize {
        self.injections.len() + self.fluids.len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.injections.is_empty() && self.fluids.is_empty()
    }

    /// All registered packet-level demands.
    pub fn injections(&self) -> &[Injection] {
        &self.injections
    }

    /// Convert to initial events for the engine: packet demands first,
    /// then fluid demands, each block sorted by time (for readability —
    /// the engine interleaves by `(time, tag)` anyway, and keeping the
    /// blocks stable keeps packet-only scenarios' event tags unchanged
    /// by the presence of this method).
    pub fn into_initial_events(mut self) -> Vec<(SimTime, LpId, NetEvent)> {
        self.injections.sort_by_key(|i| i.at);
        self.fluids.sort_by_key(|i| i.at);
        let mut events: Vec<(SimTime, LpId, NetEvent)> = self
            .injections
            .into_iter()
            .map(|i| {
                let ev = match i.transport {
                    TransportKind::Tcp => NetEvent::StartFlow {
                        dst: i.dst,
                        bytes: i.bytes,
                    },
                    TransportKind::Udp => NetEvent::SendDatagram {
                        dst: i.dst,
                        bytes: i.bytes as u32,
                        meta: 0,
                    },
                };
                (i.at, LpId(i.src.0), ev)
            })
            .collect();
        events.extend(self.fluids.into_iter().map(|i| {
            (
                i.at,
                LpId(FLUID_COORDINATOR.0),
                NetEvent::FluidStart {
                    src: i.src,
                    dst: i.dst,
                    bytes: i.bytes,
                    // `peak_bps == 0` is the unbounded wire encoding.
                    peak_bps: if i.peak_bps == FLUID_UNBOUNDED {
                        0
                    } else {
                        i.peak_bps
                    },
                },
            )
        }));
        events
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
