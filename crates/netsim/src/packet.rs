//! Packets, flows, and the network event type.

use massf_faults::FaultKind;
use massf_topology::NodeId;
use std::sync::Arc;

/// Globally unique flow identifier: source host id in the high 32 bits,
/// a per-host counter in the low 32. Deterministic because per-host
/// counters are part of per-LP state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowId(pub u64);

impl FlowId {
    /// Build from source host and per-host sequence number.
    pub fn new(src: NodeId, counter: u32) -> Self {
        FlowId(((src.0 as u64) << 32) | counter as u64)
    }

    /// The source host that created the flow.
    pub fn source(self) -> NodeId {
        NodeId((self.0 >> 32) as u32)
    }
}

/// One node of an interned route and the directed link slot
/// (`link·2 + dir`, dir 0 sending from the link's `a` end) the route
/// leaves it on. The last node of a route leaves on no link and carries
/// [`Hop::END`]. A packet walking the route backwards leaves node `i`
/// on the reverse direction of node `i − 1`'s slot, `slot ^ 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hop {
    pub node: NodeId,
    pub slot: u32,
}

impl Hop {
    /// The slot of a route's last node.
    pub const END: u32 = u32::MAX;
}

impl From<Hop> for NodeId {
    fn from(hop: Hop) -> NodeId {
        hop.node
    }
}

/// What a packet is. The kind also fixes the packet's travel direction
/// over its (shared) route: `Data` and `Datagram` walk it forward,
/// `Ack` walks the same hops in reverse — which is why one route
/// reference per packet suffices (see [`Packet::path`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketKind {
    /// TCP data segment; `seq` is the segment number.
    Data,
    /// TCP cumulative acknowledgment; `seq` is the next expected segment.
    Ack,
    /// Connectionless datagram (UDP).
    Datagram,
}

/// A simulated packet. Paths are source routes resolved at flow setup
/// (see `massf-routing`); `hop` counts the nodes already visited in the
/// packet's own travel direction.
///
/// Memory layout: exactly one `Arc` route reference per packet. The
/// forward route is interned per `(epoch, src, dst)` by the world's
/// route cache, so every packet of a flow — and every ACK coming back —
/// shares a single allocation; ACKs reuse the *same* `Arc` and derive
/// the reverse walk from [`PacketKind::Ack`] instead of carrying a
/// second `rpath` allocation. Each hop carries its outgoing link slot,
/// so forwarding indexes the link directly and never searches the
/// port table. The destination is stored inline so the hot-path
/// destination check never dereferences the `Arc`.
#[derive(Debug, Clone)]
pub struct Packet {
    pub flow: FlowId,
    /// Application-opaque metadata carried by datagrams (workflow edge
    /// ids, request tokens, …); zero for TCP packets.
    pub meta: u64,
    /// Route shared by both directions of the flow. For `Data` /
    /// `Datagram` the packet visits `path[0]` (source) through
    /// `path[len-1]` (destination); for `Ack` it visits the same nodes
    /// last-to-first.
    pub path: Arc<[Hop]>,
    /// The node this packet is destined for (the last node of its walk,
    /// cached inline so destination checks don't touch the `Arc`).
    pub dst: NodeId,
    pub seq: u32,
    /// Bytes on the wire (headers included).
    pub size_bytes: u32,
    /// Number of nodes already visited in the packet's travel direction;
    /// the packet currently sits at `node_at(hop)`.
    pub hop: u16,
    pub kind: PacketKind,
}

/// Size budget: `FlowId` + `meta` (16) + one `Arc<[Hop]>` fat pointer (16) +
/// `dst`/`seq`/`size_bytes` (12) + `hop`/`kind` packed into the final
/// word = 48 bytes, down from 64 with the old two-`Arc` layout. Growing
/// this struct regresses copy cost on every hop; update the budget only
/// with a measured justification in BENCH_memory.json.
const _: () = assert!(std::mem::size_of::<Packet>() <= 48);

impl Packet {
    /// Does this packet walk its path front-to-back?
    #[inline]
    pub fn forward(&self) -> bool {
        !matches!(self.kind, PacketKind::Ack)
    }

    /// The `i`-th node of the packet's walk (0 = where it started).
    #[inline]
    pub fn node_at(&self, i: usize) -> NodeId {
        if self.forward() {
            self.path[i].node
        } else {
            self.path[self.path.len() - 1 - i].node
        }
    }

    /// The link slot the walk leaves `node_at(i)` on (`i` short of the
    /// destination).
    #[inline]
    pub fn slot_at(&self, i: usize) -> u32 {
        if self.forward() {
            self.path[i].slot
        } else {
            self.path[self.path.len() - 2 - i].slot ^ 1
        }
    }

    /// The node this packet is destined for.
    #[inline]
    pub fn destination(&self) -> NodeId {
        self.dst
    }

    /// The next node on the walk, if any.
    #[inline]
    pub fn next_node(&self) -> Option<NodeId> {
        if (self.hop as usize + 1) < self.path.len() {
            Some(self.node_at(self.hop as usize + 1))
        } else {
            None
        }
    }

    /// Has the packet reached its destination?
    #[inline]
    pub fn at_destination(&self) -> bool {
        self.hop as usize + 1 == self.path.len()
    }
}

/// Events handled by the network world.
#[derive(Debug, Clone)]
pub enum NetEvent {
    /// A packet finishes propagation and arrives at the target LP.
    Arrive(Packet),
    /// TCP retransmission timer for `(flow, epoch)`; stale epochs are
    /// ignored.
    RtoTimer { flow: FlowId, epoch: u32 },
    /// An application timer set through [`crate::world::SimApi`].
    AppTimer { token: u64 },
    /// Ask the target host to open a TCP flow (used for scripted
    /// injections by the [`crate::agent::Agent`]).
    StartFlow { dst: NodeId, bytes: u64 },
    /// Ask the target host to send one UDP datagram.
    SendDatagram { dst: NodeId, bytes: u32, meta: u64 },
    /// A scripted fault fires (injected by the builder from a
    /// `massf_faults::FaultScript`). State flips are time-based in
    /// [`massf_faults::FaultState`]; this event makes the fault a
    /// first-class, counted occurrence and forces the routing
    /// reconvergence for the new epoch at fault time.
    Fault { kind: FaultKind },
    /// Open a fluid (flow-level) background flow from `src` to `dst`.
    /// Always targets the fluid coordinator LP
    /// ([`crate::fluid::FLUID_COORDINATOR`]); `peak_bps == 0` means the
    /// flow's demand is unbounded (limited only by its bottleneck).
    FluidStart {
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        peak_bps: u64,
    },
    /// Fluid-flow completion alarm, armed by the max-min solver for the
    /// time `remaining / rate` runs out. Stale epochs (the flow's rate
    /// changed since arming) re-arm or park instead of completing.
    /// Coordinator LP → coordinator LP.
    FluidFinish { flow: FlowId, epoch: u32 },
    /// Mirror of [`NetEvent::Fault`] delivered to the fluid coordinator
    /// so flows traversing a failed element reroute or terminate at
    /// fault time. Appended by the builder only when the scenario
    /// injects fluid traffic.
    FluidFault { kind: FaultKind },
    /// Fluid → packet feedback: the coordinator reports the aggregate
    /// fluid rate (bytes/s) on one link direction (`slot = link·2 +
    /// dir`) to the LP that serializes onto it, shrinking the residual
    /// capacity and buffer the packet path sees there.
    FluidCapUpdate { slot: u32, fluid_bps: u64 },
    /// Packet → fluid feedback: a transmitting LP reports its windowed
    /// packet-load estimate (bytes/s) on one link direction to the
    /// coordinator, shrinking the capacity the max-min solver shares.
    FluidPacketLoad { slot: u32, bps: u64 },
}

/// Size budget: `Arrive` dominates — the 48-byte [`Packet`] plus the
/// discriminant packs into 56 bytes. Event payloads are moved through
/// heaps, outboxes and arenas constantly; keep the largest variant the
/// packet itself.
const _: () = assert!(std::mem::size_of::<NetEvent>() <= 56);
const _: () = assert!(std::mem::size_of::<FaultKind>() <= 16);
/// The full queued unit — `(time, tag, target)` header plus the payload —
/// as stored in executor arenas and cross-partition outboxes.
const _: () = assert!(std::mem::size_of::<massf_engine::EventRecord<NetEvent>>() <= 80);

/// Maximum segment size (TCP payload bytes per data packet).
pub const MSS: u32 = 1460;
/// Wire overhead per packet (IP + TCP headers).
pub const HEADER_BYTES: u32 = 40;
/// Size of a pure ACK on the wire.
pub const ACK_BYTES: u32 = HEADER_BYTES;

/// Number of MSS-sized segments needed for `bytes` of payload.
pub fn segments_for(bytes: u64) -> u32 {
    bytes.div_ceil(MSS as u64).max(1) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flow_id_packs_source_and_counter() {
        let f = FlowId::new(NodeId(7), 42);
        assert_eq!(f.source(), NodeId(7));
        assert_eq!(f.0 & 0xFFFF_FFFF, 42);
    }

    /// Route over nodes 1, 2, 3 whose hops leave on slots 10 and 20.
    fn route_1_2_3() -> Arc<[Hop]> {
        [(1, 10), (2, 20), (3, Hop::END)]
            .map(|(n, slot)| Hop {
                node: NodeId(n),
                slot,
            })
            .into()
    }

    #[test]
    fn packet_path_navigation() {
        let path = route_1_2_3();
        let mut p = Packet {
            flow: FlowId::new(NodeId(1), 0),
            meta: 0,
            path: path.clone(),
            dst: NodeId(3),
            seq: 0,
            size_bytes: 1500,
            hop: 0,
            kind: PacketKind::Data,
        };
        assert_eq!(p.destination(), NodeId(3));
        assert_eq!(p.node_at(0), NodeId(1));
        assert_eq!(p.next_node(), Some(NodeId(2)));
        assert_eq!((p.slot_at(0), p.slot_at(1)), (10, 20));
        assert!(!p.at_destination());
        p.hop = 2;
        assert!(p.at_destination());
        assert_eq!(p.next_node(), None);
    }

    #[test]
    fn ack_walks_the_same_path_in_reverse() {
        let path = route_1_2_3();
        let mut ack = Packet {
            flow: FlowId::new(NodeId(1), 0),
            meta: 0,
            path,
            dst: NodeId(1),
            seq: 0,
            size_bytes: 40,
            hop: 0,
            kind: PacketKind::Ack,
        };
        assert!(!ack.forward());
        assert_eq!(ack.node_at(0), NodeId(3));
        assert_eq!((ack.slot_at(0), ack.slot_at(1)), (21, 11), "mirrored slots");
        assert_eq!(ack.next_node(), Some(NodeId(2)));
        ack.hop = 1;
        assert_eq!(ack.node_at(ack.hop as usize), NodeId(2));
        assert_eq!(ack.next_node(), Some(NodeId(1)));
        ack.hop = 2;
        assert!(ack.at_destination());
        assert_eq!(ack.node_at(2), NodeId(1));
        assert_eq!(ack.destination(), NodeId(1));
    }

    #[test]
    fn segment_math() {
        assert_eq!(segments_for(1), 1);
        assert_eq!(segments_for(1460), 1);
        assert_eq!(segments_for(1461), 2);
        assert_eq!(segments_for(50_000), 35);
        assert_eq!(segments_for(0), 1, "empty flows still send one segment");
    }
}
