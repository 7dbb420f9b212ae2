//! [`Wire`] impls for the simulation state a snapshot carries.
//!
//! Every type is one list in wire order, so its encoder and decoder
//! cannot disagree: a struct is a [`wire_struct!`](crate::wire_struct)
//! field list, a counter set the walk of its one declaration
//! ([`massf_topology::counters!`]), and an enum a
//! [`wire_enum!`](crate::wire_enum) table of tags and variants. A field
//! or variant added to or removed from the type without its list does
//! not compile. Only [`Hop`] is written by hand: it travels as its node
//! alone.
//!
//! Decoding here is *structural* only (see [`crate::wire`]); the state
//! is checked *semantically* where it is installed
//! ([`massf_netsim::NetWorld::restore`], `validate_net_event`,
//! `ResumeState::validate`), so a hostile payload that parses cleanly
//! still cannot reach a panic path.
//!
//! Determinism: every encoder walks plain `Vec`s in index order — no
//! hash-map iteration anywhere, no clocks, no entropy.

use crate::rebalance::{RebalancePolicy, RebalanceSessionState};
use crate::wire::{put_slice, ByteReader, ByteWriter, Wire};
use crate::{wire_enum, wire_struct};
use massf_engine::{EventRecord, RebalanceConfig, RebalanceCounters, ResumeState};
use massf_netsim::{
    FaultKind, FlowCold, FlowEntryState, FluidCoupling, FluidFlow, FluidWorldState, Hop, NetEvent,
    Packet, PacketKind, ProfileData, ReceiverEntryState, RouteEntry, TcpReceiver, TcpSender,
    WorldState,
};
use massf_topology::{Counter, Counters, MassfError, NodeId};

wire_struct!(WorldState {
    flow_counter,
    busy_until,
    flows,
    receivers,
    routes,
    profile,
    max_retries,
    fluid,
    coupling
});

wire_struct!(FluidCoupling {
    fluid_bps,
    est_start,
    est_bytes,
    est_reported
});

wire_struct!(FlowEntryState { flow, sender, cold });

wire_struct!(FlowCold {
    path,
    dst,
    armed_epoch,
    unroutable
});

wire_struct!(TcpSender {
    total_segments,
    acked,
    next_seq,
    cwnd,
    ssthresh,
    dup_acks,
    srtt,
    rttvar,
    rto,
    timer_epoch,
    rtt_probe,
    retransmitted_low,
    retries,
    max_retries,
    done,
    aborted
});

wire_struct!(ReceiverEntryState {
    node,
    flow,
    receiver
});

wire_struct!(TcpReceiver {
    rcv_next,
    segments_seen
});

wire_struct!(RouteEntry {
    src,
    dst,
    epoch,
    path
});

wire_struct!(FluidWorldState {
    flows,
    packet_bps,
    reported_bps
});

wire_struct!(FluidFlow {
    flow,
    path,
    demand_bps,
    rate_bps,
    armed_rate_bps,
    remaining_bns,
    updated,
    epoch
});

wire_struct!(ResumeState<NetEvent> { counters, events });

wire_struct!(EventRecord<NetEvent> { time, target, tag, payload });

wire_struct!(Packet {
    flow,
    meta,
    path,
    dst,
    seq,
    size_bytes,
    hop,
    kind
});

wire_struct!(RebalanceSessionState {
    policy,
    partitions,
    assignment,
    epoch_loads,
    counters
});

wire_struct!(RebalancePolicy {
    cfg,
    load_weight,
    cut_weight
});

wire_struct!(RebalanceConfig {
    epoch,
    threshold_permille,
    max_moves
});

/// A counter set travels as its walk: each count a `u64`, each per-item
/// vector a count and its items, nested sets inline. The walk visits
/// the fields in declaration order, so the bytes are those of a
/// [`wire_struct!`](crate::wire_struct) list of the same fields.
macro_rules! wire_counters {
    ($($ty:ty),+) => {$(
        impl Wire for $ty {
            // A count and a per-item vector's length are one `u64` each.
            const MIN_BYTES: usize = <$ty as Counters>::LEAVES * u64::MIN_BYTES;
            fn put(&self, w: &mut ByteWriter) {
                self.walk("", &mut |_, counter| match counter {
                    Counter::Count(n) => n.put(w),
                    Counter::PerItem(items) => put_slice(items, w),
                });
            }
            fn get(r: &mut ByteReader) -> Result<Self, MassfError> {
                let mut set = <$ty as Counters>::zeroed();
                set.walk_mut(&mut |counter| {
                    match counter {
                        Counter::Count(n) => *n = u64::get(r)?,
                        Counter::PerItem(items) => *items = Vec::get(r)?,
                    }
                    Ok(())
                })?;
                Ok(set)
            }
        }
    )+};
}

wire_counters!(ProfileData, RebalanceCounters);

/// A route travels as its node list, so snapshot bytes do not depend on
/// link slots: a decoded hop carries [`Hop::END`] until restore
/// ([`massf_netsim::NetWorld::restore`],
/// [`massf_netsim::validate_net_event`]) re-interns its route against
/// the topology.
impl Wire for Hop {
    const MIN_BYTES: usize = NodeId::MIN_BYTES;
    fn put(&self, w: &mut ByteWriter) {
        self.node.put(w);
    }
    fn get(r: &mut ByteReader) -> Result<Self, MassfError> {
        NodeId::get(r).map(|node| Hop {
            node,
            slot: Hop::END,
        })
    }
}

wire_enum!(PacketKind, "packet kind", MIN_BYTES = 1, {
    0 => Data,
    1 => Ack,
    2 => Datagram,
});

// Tag + one 4-byte id (or two 2-byte AS numbers).
wire_enum!(FaultKind, "fault kind", MIN_BYTES = 5, {
    0 => LinkDown(link),
    1 => LinkUp(link),
    2 => RouterCrash(node),
    3 => RouterRecover(node),
    4 => AsAdjacencyFail { as_a, as_b },
    5 => AsAdjacencyRestore { as_a, as_b },
});

// The smallest variants are the two fault events: tag + fault.
wire_enum!(NetEvent, "event kind", MIN_BYTES = 1 + FaultKind::MIN_BYTES, {
    0 => Arrive(packet),
    1 => RtoTimer { flow, epoch },
    2 => AppTimer { token },
    3 => StartFlow { dst, bytes },
    4 => SendDatagram { dst, bytes, meta },
    5 => Fault { kind },
    6 => FluidStart { src, dst, bytes, peak_bps },
    7 => FluidFinish { flow, epoch },
    8 => FluidFault { kind },
    9 => FluidCapUpdate { slot, fluid_bps },
    10 => FluidPacketLoad { slot, bps },
});

#[cfg(test)]
mod tests {
    use super::*;
    use massf_engine::{LpId, SimTime};
    use massf_netsim::FlowId;
    use massf_topology::{LinkId, NodeId};
    use proptest::prelude::*;
    use std::sync::Arc;

    fn encode<T: Wire>(v: &T) -> Vec<u8> {
        let mut w = ByteWriter::new();
        v.put(&mut w);
        w.into_inner()
    }

    fn round_trip<T: Wire>(v: &T) -> T {
        let buf = encode(v);
        let mut r = ByteReader::new(&buf, "test");
        let out = T::get(&mut r).expect("decode");
        r.finish().expect("consumed");
        out
    }

    /// A route over `nodes` as a snapshot decodes it: no slots yet.
    fn unslotted(nodes: &[NodeId]) -> Arc<[Hop]> {
        nodes
            .iter()
            .map(|&node| Hop {
                node,
                slot: Hop::END,
            })
            .collect()
    }

    fn sample_packet() -> Packet {
        Packet {
            flow: FlowId::new(NodeId(3), 7),
            meta: 99,
            path: unslotted(&[NodeId(3), NodeId(1), NodeId(5)]),
            dst: NodeId(5),
            seq: 12,
            size_bytes: 1500,
            hop: 1,
            kind: PacketKind::Data,
        }
    }

    fn sample_events() -> Vec<NetEvent> {
        vec![
            NetEvent::Arrive(sample_packet()),
            NetEvent::RtoTimer {
                flow: FlowId::new(NodeId(3), 7),
                epoch: 4,
            },
            NetEvent::AppTimer { token: 17 },
            NetEvent::StartFlow {
                dst: NodeId(2),
                bytes: 500_000,
            },
            NetEvent::SendDatagram {
                dst: NodeId(4),
                bytes: 900,
                meta: 5,
            },
            NetEvent::Fault {
                kind: FaultKind::AsAdjacencyFail { as_a: 1, as_b: 2 },
            },
            NetEvent::Fault {
                kind: FaultKind::LinkDown(LinkId(6)),
            },
            NetEvent::FluidStart {
                src: NodeId(1),
                dst: NodeId(9),
                bytes: 10_000_000,
                peak_bps: 0,
            },
            NetEvent::FluidFinish {
                flow: FlowId::new(NodeId(0), 3),
                epoch: 2,
            },
            NetEvent::FluidFault {
                kind: FaultKind::RouterCrash(NodeId(4)),
            },
            NetEvent::FluidCapUpdate {
                slot: 13,
                fluid_bps: 125_000_000,
            },
            NetEvent::FluidPacketLoad {
                slot: 12,
                bps: 42_000,
            },
        ]
    }

    #[test]
    fn net_events_round_trip() {
        for ev in sample_events() {
            let back = round_trip(&ev);
            // NetEvent is not PartialEq (it holds an Arc); compare debug
            // renderings, which print every field.
            assert_eq!(format!("{back:?}"), format!("{ev:?}"));
        }
    }

    #[test]
    fn tcp_sender_round_trip_is_exact() {
        // A loss episode takes every field out of its default: an RTT
        // probe in flight after the first ACK, backoff and Karn
        // suppression after the timeout.
        let mut s = TcpSender::with_retries(100_000, 9);
        let mut out = Vec::new();
        s.open(SimTime::ZERO, &mut out);
        s.on_ack(1, SimTime::from_ms(30), &mut out);
        let mut restored = round_trip(&s);
        assert!(restored.rtt_probe.is_some());
        assert_eq!(restored, s);
        s.on_timeout(&mut out);
        restored.on_timeout(&mut out);
        restored = round_trip(&restored);
        assert!(restored.retransmitted_low);
        assert_eq!(restored, s);
        // Identical future behaviour.
        let (mut a, mut b) = (Vec::new(), Vec::new());
        s.on_ack(3, SimTime::from_ms(95), &mut a);
        restored.on_ack(3, SimTime::from_ms(95), &mut b);
        assert_eq!(a, b);
        assert_eq!(restored, s);
    }

    #[test]
    fn routes_encode_as_their_nodes() {
        let mut slotted = sample_packet();
        slotted.path = [(3, 8), (1, 3), (5, Hop::END)]
            .map(|(n, slot)| Hop {
                node: NodeId(n),
                slot,
            })
            .into();
        assert_eq!(encode(&slotted), encode(&sample_packet()));
        let nodes: Vec<NodeId> = slotted.path.iter().map(|h| h.node).collect();
        assert_eq!(encode(&slotted.path), encode(&nodes));
    }

    #[test]
    fn resume_state_round_trips() {
        let events = sample_events()
            .into_iter()
            .enumerate()
            .map(|(i, payload)| EventRecord {
                time: SimTime::from_ns(1_000 * i as u64),
                target: LpId(i as u32),
                tag: massf_engine::external_tag(i as u32),
                payload,
            })
            .collect::<Vec<_>>();
        let state = ResumeState {
            events,
            counters: vec![5, 0, 9],
        };
        let back = round_trip(&state);
        assert_eq!(back.counters, state.counters);
        assert_eq!(format!("{:?}", back.events), format!("{:?}", state.events));
    }

    #[test]
    fn unknown_discriminants_are_rejected() {
        for bad in [vec![11u8], vec![200u8], vec![5u8, 77]] {
            let mut r = ByteReader::new(&bad, "engine");
            assert!(NetEvent::get(&mut r).is_err(), "{bad:?} must not decode");
        }
    }

    #[test]
    fn fluid_world_state_round_trips() {
        let state = FluidWorldState {
            flows: vec![
                FluidFlow {
                    flow: FlowId::new(NodeId(0), 0),
                    path: unslotted(&[NodeId(2), NodeId(0), NodeId(5)]),
                    demand_bps: u64::MAX,
                    rate_bps: 125_000,
                    armed_rate_bps: 125_000,
                    remaining_bns: 1_000_000_000_000_000_000_000u128,
                    updated: SimTime::from_ms(25),
                    epoch: 3,
                },
                FluidFlow {
                    flow: FlowId::new(NodeId(0), 7),
                    path: unslotted(&[NodeId(1), NodeId(4)]),
                    demand_bps: 10_000,
                    rate_bps: 0,
                    armed_rate_bps: 0,
                    remaining_bns: 42,
                    updated: SimTime::ZERO,
                    epoch: 0,
                },
            ],
            packet_bps: vec![0, 5_000, 0, 0],
            reported_bps: vec![u64::MAX, 125_000, u64::MAX, 0],
        };
        assert_eq!(round_trip(&state), state);
    }

    #[test]
    fn u128_round_trips_both_halves() {
        for v in [0u128, 1, u64::MAX as u128, u128::MAX, 1u128 << 64] {
            assert_eq!(round_trip(&v), v);
        }
    }

    #[test]
    fn flag_bytes_must_be_binary() {
        let mut r = ByteReader::new(&[2], "world");
        assert!(bool::get(&mut r).is_err());
    }

    /// The value `T` decodes to from `T::MIN_BYTES` zero bytes: zero
    /// scalars, `None`s and empty sequences, i.e. its smallest value.
    fn zero_value<T: Wire>() -> T {
        let zeros = vec![0u8; T::MIN_BYTES];
        let mut r = ByteReader::new(&zeros, "test");
        let v = T::get(&mut r).expect("zero bytes decode");
        r.finish().expect("consumed");
        v
    }

    fn min_event_record() -> EventRecord<NetEvent> {
        EventRecord {
            time: SimTime::ZERO,
            target: LpId(0),
            tag: 0,
            payload: NetEvent::Fault {
                kind: FaultKind::LinkDown(LinkId(0)),
            },
        }
    }

    #[test]
    fn sequence_element_minimums_are_exact() {
        fn exact<T: Wire>(v: &T, name: &str) {
            assert_eq!(encode(v).len(), T::MIN_BYTES, "{name}");
        }
        exact(&zero_value::<FlowEntryState>(), "flow entry");
        exact(&zero_value::<ReceiverEntryState>(), "receiver");
        exact(&zero_value::<FluidFlow>(), "fluid flow");
        exact(&zero_value::<RouteEntry>(), "route entry");
        exact(&min_event_record(), "event record");
        assert_eq!(
            [
                FlowEntryState::MIN_BYTES,
                ReceiverEntryState::MIN_BYTES,
                FluidFlow::MIN_BYTES,
                RouteEntry::MIN_BYTES,
                <EventRecord<NetEvent>>::MIN_BYTES,
            ],
            [90, 24, 68, 13, 26]
        );
    }

    fn nodes() -> impl Strategy<Value = Vec<NodeId>> {
        proptest::collection::vec(any::<u32>().prop_map(NodeId), 0..6)
    }

    /// The `NetEvent` variant `variant % 11`, its fields drawn from `a`,
    /// `b` and `path`.
    fn event_of(variant: u8, a: u64, b: u64, path: Vec<NodeId>) -> NetEvent {
        let (lo, hi) = (a as u32, (a >> 32) as u32);
        let fault = match b % 6 {
            0 => FaultKind::LinkDown(LinkId(lo)),
            1 => FaultKind::LinkUp(LinkId(lo)),
            2 => FaultKind::RouterCrash(NodeId(lo)),
            3 => FaultKind::RouterRecover(NodeId(lo)),
            4 => FaultKind::AsAdjacencyFail {
                as_a: lo as u16,
                as_b: hi as u16,
            },
            _ => FaultKind::AsAdjacencyRestore {
                as_a: lo as u16,
                as_b: hi as u16,
            },
        };
        match variant % 11 {
            0 => NetEvent::Arrive(Packet {
                flow: FlowId(a),
                meta: b,
                dst: NodeId(hi),
                path: unslotted(&path),
                seq: lo,
                size_bytes: hi,
                hop: b as u16,
                kind: [PacketKind::Data, PacketKind::Ack, PacketKind::Datagram][(b % 3) as usize],
            }),
            1 => NetEvent::RtoTimer {
                flow: FlowId(a),
                epoch: lo,
            },
            2 => NetEvent::AppTimer { token: a },
            3 => NetEvent::StartFlow {
                dst: NodeId(lo),
                bytes: b,
            },
            4 => NetEvent::SendDatagram {
                dst: NodeId(lo),
                bytes: hi,
                meta: b,
            },
            5 => NetEvent::Fault { kind: fault },
            6 => NetEvent::FluidStart {
                src: NodeId(lo),
                dst: NodeId(hi),
                bytes: a,
                peak_bps: b,
            },
            7 => NetEvent::FluidFinish {
                flow: FlowId(a),
                epoch: lo,
            },
            8 => NetEvent::FluidFault { kind: fault },
            9 => NetEvent::FluidCapUpdate {
                slot: lo,
                fluid_bps: b,
            },
            _ => NetEvent::FluidPacketLoad { slot: lo, bps: b },
        }
    }

    proptest! {
        /// No value encodes shorter than its type's `MIN_BYTES`, so a
        /// count check built on it never rejects a valid snapshot.
        #[test]
        fn nothing_encodes_below_its_minimum(
            event in (any::<u8>(), any::<u64>(), any::<u64>(), nodes()),
            path in nodes(),
            route in (any::<bool>(), nodes()),
            srtt in (any::<bool>(), any::<u64>()),
            probe in (any::<bool>(), any::<u32>(), any::<u64>()),
        ) {
            let (variant, a, b, hops) = event;
            let record = EventRecord {
                payload: event_of(variant, a, b, hops),
                ..min_event_record()
            };
            prop_assert!(encode(&record).len() >= <EventRecord<NetEvent>>::MIN_BYTES);
            prop_assert!(encode(&record.payload).len() >= NetEvent::MIN_BYTES);

            let mut flow: FlowEntryState = zero_value();
            flow.cold.path = unslotted(&path);
            flow.sender.srtt = srtt.0.then_some(SimTime(srtt.1));
            flow.sender.rtt_probe = probe.0.then_some((probe.1, SimTime(probe.2)));
            prop_assert!(encode(&flow).len() >= FlowEntryState::MIN_BYTES);

            let entry = RouteEntry {
                src: NodeId(1),
                dst: NodeId(2),
                epoch: 3,
                path: route.0.then(|| unslotted(&route.1)),
            };
            prop_assert!(encode(&entry).len() >= RouteEntry::MIN_BYTES);

            let mut fluid: FluidFlow = zero_value();
            fluid.path = unslotted(&path);
            prop_assert!(encode(&fluid).len() >= FluidFlow::MIN_BYTES);
        }
    }
}
