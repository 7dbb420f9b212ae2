//! Mutable per-node state of one world, in struct-of-arrays slabs (see
//! the memory-layout contract in the parent module's docs).

use super::shared::SharedNet;
use crate::fluid::{FluidCoupling, FluidState};
use crate::packet::{FlowId, Hop};
use crate::routes::RouteTable;
use crate::tcp::{SendAction, TcpReceiver, TcpSender};
use massf_engine::SimTime;
use massf_topology::NodeId;
use std::sync::Arc;

/// The per-host counter packed into a [`FlowId`]'s low 32 bits.
#[inline]
pub(super) fn flow_counter_of(flow: FlowId) -> u32 {
    (flow.0 & 0xFFFF_FFFF) as u32
}

/// Cold per-flow sender bookkeeping: touched at flow setup, RTO
/// fail-over, and teardown, but not on the per-ACK hot path (only its
/// `path`/`dst` words are read there, to stamp outgoing packets). A
/// [`super::FlowEntryState`] carries it as is.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowCold {
    /// Forward route; the `Arc` is interned per `(epoch, src, dst)` by
    /// the world's route table, so concurrent flows between the same
    /// pair share one allocation. A snapshot carries only its nodes, so
    /// a decoded one holds [`Hop::END`] slots until restore re-interns
    /// it.
    pub path: Arc<[Hop]>,
    /// Flow destination, cached out of the path.
    pub dst: NodeId,
    /// Epoch of the currently armed RTO timer (`u32::MAX` = none).
    pub armed_epoch: u32,
    /// The last fault-driven re-resolution found no path (colors the
    /// abort reason).
    pub unroutable: bool,
}

/// Struct-of-arrays slab of active TCP senders, replacing the former
/// `HashMap<FlowId, FlowState>`.
///
/// Storage is slot-indexed: `hot[slot]` holds the TCP state machine
/// (the only thing the per-ACK hot path mutates), `cold[slot]` the
/// path/bookkeeping, and freed slots are recycled LIFO through `free`.
/// Lookup goes through a dense per-node index of `(flow counter, slot)`
/// pairs — per-host counters are monotone, so appends keep each index
/// sorted and lookup is a binary search over a short, cache-dense
/// array. Slot assignment is a pure function of the world's event
/// sequence (pop order of a LIFO free list), but slots are never
/// exposed: the semantic key is always `(node, counter)`.
pub(super) struct FlowSlab {
    /// Hot per-flow TCP state machines.
    pub(super) hot: Vec<TcpSender>,
    /// Cold per-flow bookkeeping, parallel to `hot`.
    pub(super) cold: Vec<FlowCold>,
    /// Recycled slots, reused LIFO.
    free: Vec<u32>,
    /// Per-node `(flow counter, slot)` pairs, sorted by counter.
    pub(super) by_node: Vec<Vec<(u32, u32)>>,
    /// Shared empty route installed in freed slots so the real route
    /// `Arc` is released as soon as the flow ends.
    empty: Arc<[Hop]>,
}

impl FlowSlab {
    pub(super) fn new(nodes: usize) -> Self {
        FlowSlab {
            hot: Vec::new(),
            cold: Vec::new(),
            free: Vec::new(),
            by_node: vec![Vec::new(); nodes],
            empty: Arc::from([]),
        }
    }

    /// Store a freshly opened flow and return its slot; recycles a
    /// freed slot when one is available.
    pub(super) fn insert(
        &mut self,
        node: NodeId,
        flow: FlowId,
        sender: TcpSender,
        cold: FlowCold,
    ) -> usize {
        let slot = match self.free.pop() {
            Some(s) => {
                self.hot[s as usize] = sender;
                self.cold[s as usize] = cold;
                s
            }
            None => {
                self.hot.push(sender);
                self.cold.push(cold);
                (self.hot.len() - 1) as u32
            }
        };
        let index = &mut self.by_node[node.index()];
        debug_assert!(
            index.last().is_none_or(|&(c, _)| c < flow_counter_of(flow)),
            "per-host flow counters are monotone"
        );
        index.push((flow_counter_of(flow), slot));
        slot as usize
    }

    /// The slot of `flow` at `node`, if the flow is still active.
    pub(super) fn slot_of(&self, node: NodeId, flow: FlowId) -> Option<usize> {
        let index = &self.by_node[node.index()];
        index
            .binary_search_by_key(&flow_counter_of(flow), |&(c, _)| c)
            .ok()
            .map(|i| index[i].1 as usize)
    }

    /// Release a finished flow's slot for reuse and drop its path.
    pub(super) fn free(&mut self, node: NodeId, flow: FlowId) {
        let index = &mut self.by_node[node.index()];
        if let Ok(i) = index.binary_search_by_key(&flow_counter_of(flow), |&(c, _)| c) {
            let (_, slot) = index.remove(i);
            self.cold[slot as usize].path = self.empty.clone();
            self.free.push(slot);
        }
    }
}

/// Struct-of-arrays slab of TCP receivers, replacing the former
/// `HashMap<FlowId, TcpReceiver>`. Receiver entries live at the
/// *destination* LP and are never freed (the sender cannot reach across
/// LPs to close them — LP locality); they are bounded by the flow count
/// and each is a two-word cumulative-ACK machine.
pub(super) struct ReceiverSlab {
    pub(super) state: Vec<TcpReceiver>,
    /// Per-node `(flow, slot)` pairs, sorted by flow id.
    pub(super) by_node: Vec<Vec<(FlowId, u32)>>,
}

impl ReceiverSlab {
    pub(super) fn new(nodes: usize) -> Self {
        ReceiverSlab {
            state: Vec::new(),
            by_node: vec![Vec::new(); nodes],
        }
    }

    /// The receiver for `flow` at `node`, created on first touch.
    pub(super) fn entry(&mut self, node: NodeId, flow: FlowId) -> &mut TcpReceiver {
        let index = &mut self.by_node[node.index()];
        let slot = match index.binary_search_by_key(&flow, |&(f, _)| f) {
            Ok(i) => index[i].1,
            Err(i) => {
                let slot = self.state.len() as u32;
                self.state.push(TcpReceiver::default());
                index.insert(i, (flow, slot));
                slot
            }
        };
        &mut self.state[slot as usize]
    }
}

/// Mutable per-node state. A world touches only entries belonging to its
/// partition's nodes.
pub(super) struct NodeStates {
    /// Per-host counter for FlowId generation.
    pub(super) flow_counter: Vec<u32>,
    /// Transmit-server state per (link, direction): the time the link
    /// becomes free. Direction 0 sends from `link.a`, 1 from `link.b`.
    pub(super) busy_until: Vec<SimTime>,
    /// Active TCP senders (owned by the source host).
    pub(super) flows: FlowSlab,
    /// TCP receivers (owned by the destination host).
    pub(super) receivers: ReceiverSlab,
    /// Every route this world resolved, one entry per `(src, dst)`.
    /// Routes are only resolved while handling an event at the
    /// source's LP, so each source's entries belong to exactly one
    /// partition — per-run state that stays bit-identical across
    /// executors (see `SimApi::route`). Every packet of a flow (and
    /// every concurrent flow between the same pair in the same epoch)
    /// shares the one `Arc` interned here, slots included.
    pub(super) routes: RouteTable,
    /// Reusable `SendAction` buffer, taken (and returned empty) by each
    /// handler batch so the steady-state hot path allocates nothing.
    pub(super) action_scratch: Vec<SendAction>,
    /// Retry budget handed to every newly opened TCP flow.
    pub(super) max_retries: u32,
    /// Packet-side fluid coupling per (link, direction): coordinator-
    /// reported fluid rates and the packet-load estimator. Lazily
    /// allocated on the first `FluidCapUpdate` this world receives, so
    /// packet-only runs carry nothing.
    pub(super) coupling: FluidCoupling,
    /// The fluid solver, present only in the world owning
    /// [`FLUID_COORDINATOR`] and only once fluid traffic appeared.
    pub(super) fluid: Option<Box<FluidState>>,
}

impl NodeStates {
    pub(super) fn new(shared: &SharedNet, max_retries: u32) -> Self {
        let nodes = shared.net.node_count();
        NodeStates {
            flow_counter: vec![0; nodes],
            busy_until: vec![SimTime::ZERO; shared.net.links.len() * 2],
            flows: FlowSlab::new(nodes),
            receivers: ReceiverSlab::new(nodes),
            routes: RouteTable::default(),
            action_scratch: Vec::new(),
            max_retries,
            coupling: FluidCoupling::default(),
            fluid: None,
        }
    }
}
