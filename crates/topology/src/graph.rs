//! The core network graph: routers, hosts, and links.
//!
//! A [`Network`] is an undirected multigraph. Every node carries a
//! geographic [`Point`], an owning AS number, and a kind (router or host).
//! Every link carries bandwidth (bits/s) and propagation latency (ms).
//! Adjacency is stored per node for O(degree) neighborhood scans, which
//! the partitioners and routing protocols rely on.

use crate::geom::Point;
use serde::{Deserialize, Serialize};

/// Identifier of a node (router or host) in a [`Network`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The node's index into [`Network::nodes`].
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Identifier of a link in a [`Network`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct LinkId(pub u32);

impl LinkId {
    /// The link's index into [`Network::links`].
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Autonomous System number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct AsId(pub u16);

/// What a node is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NodeKind {
    /// A packet-forwarding router.
    Router,
    /// An end host (traffic source/sink); attaches to exactly one router.
    Host,
}

/// A node in the network.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Node {
    pub id: NodeId,
    pub kind: NodeKind,
    /// Geographic position in miles.
    pub position: Point,
    /// Owning AS. Single-AS networks use `AsId(0)` throughout.
    pub as_id: AsId,
    /// True for routers that terminate an inter-AS link.
    pub border: bool,
}

/// An undirected link between two nodes.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Link {
    pub id: LinkId,
    pub a: NodeId,
    pub b: NodeId,
    /// Capacity in bits per second (per direction).
    pub bandwidth_bps: f64,
    /// One-way propagation latency in milliseconds.
    pub latency_ms: f64,
    /// True if the endpoints belong to different ASes.
    pub inter_as: bool,
}

impl Link {
    /// The endpoint of this link that is not `from`.
    ///
    /// # Panics
    /// Panics if `from` is not an endpoint of this link.
    #[inline]
    pub fn other(&self, from: NodeId) -> NodeId {
        if from == self.a {
            self.b
        } else {
            debug_assert_eq!(from, self.b, "node {from:?} is not on link {:?}", self.id);
            self.a
        }
    }
}

/// An undirected network of routers, hosts, and links.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Network {
    pub nodes: Vec<Node>,
    pub links: Vec<Link>,
    /// `adjacency[n]` lists the links incident to node `n`.
    adjacency: Vec<Vec<LinkId>>,
}

impl Network {
    /// An empty network.
    pub fn new() -> Self {
        Network::default()
    }

    /// Number of nodes (routers + hosts).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Number of router nodes.
    pub fn router_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| n.kind == NodeKind::Router)
            .count()
    }

    /// Number of host nodes.
    pub fn host_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| n.kind == NodeKind::Host)
            .count()
    }

    /// Add a node, returning its id.
    pub fn add_node(&mut self, kind: NodeKind, position: Point, as_id: AsId) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node {
            id,
            kind,
            position,
            as_id,
            border: false,
        });
        self.adjacency.push(Vec::new());
        id
    }

    /// Add an undirected link, returning its id. Latency must be positive:
    /// a conservative engine derives its lookahead from link latencies.
    /// It must be finite too: OSPF's latency cost of an infinite link
    /// saturates, and shortest-path sums over it would wrap.
    ///
    /// # Panics
    /// Panics if either endpoint does not exist, endpoints are equal,
    /// `latency_ms <= 0`, or `latency_ms` is not finite.
    pub fn add_link(
        &mut self,
        a: NodeId,
        b: NodeId,
        bandwidth_bps: f64,
        latency_ms: f64,
    ) -> LinkId {
        assert!(a.index() < self.nodes.len(), "endpoint {a:?} out of range");
        assert!(b.index() < self.nodes.len(), "endpoint {b:?} out of range");
        assert_ne!(a, b, "self-loop links are not allowed");
        assert!(latency_ms > 0.0, "link latency must be positive");
        assert!(latency_ms.is_finite(), "link latency must be finite");
        assert!(bandwidth_bps > 0.0, "link bandwidth must be positive");
        let inter_as = self.nodes[a.index()].as_id != self.nodes[b.index()].as_id;
        let id = LinkId(self.links.len() as u32);
        self.links.push(Link {
            id,
            a,
            b,
            bandwidth_bps,
            latency_ms,
            inter_as,
        });
        self.adjacency[a.index()].push(id);
        self.adjacency[b.index()].push(id);
        if inter_as {
            self.nodes[a.index()].border = true;
            self.nodes[b.index()].border = true;
        }
        id
    }

    /// Links incident to `node`.
    #[inline]
    pub fn incident(&self, node: NodeId) -> &[LinkId] {
        &self.adjacency[node.index()]
    }

    /// Degree of `node`.
    #[inline]
    pub fn degree(&self, node: NodeId) -> usize {
        self.adjacency[node.index()].len()
    }

    /// Iterate over `(neighbor, link)` pairs of `node`.
    pub fn neighbors(&self, node: NodeId) -> impl Iterator<Item = (NodeId, &Link)> + '_ {
        self.adjacency[node.index()].iter().map(move |&lid| {
            let link = &self.links[lid.index()];
            (link.other(node), link)
        })
    }

    /// Does an edge already exist between `a` and `b`?
    pub fn has_link(&self, a: NodeId, b: NodeId) -> bool {
        self.adjacency[a.index()]
            .iter()
            .any(|&lid| self.links[lid.index()].other(a) == b)
    }

    /// Total bandwidth (bits/s) in and out of `node` — the TOP vertex
    /// weight of the paper (Section 3.3).
    pub fn total_bandwidth(&self, node: NodeId) -> f64 {
        self.adjacency[node.index()]
            .iter()
            .map(|&lid| self.links[lid.index()].bandwidth_bps)
            .sum()
    }

    /// The attachment router of a host (its unique router neighbor).
    ///
    /// Returns `None` for routers or unattached hosts.
    pub fn host_attachment(&self, host: NodeId) -> Option<NodeId> {
        if self.nodes[host.index()].kind != NodeKind::Host {
            return None;
        }
        self.neighbors(host)
            .find(|(n, _)| self.nodes[n.index()].kind == NodeKind::Router)
            .map(|(n, _)| n)
    }

    /// Smallest link latency in the network (ms). `None` if there are no
    /// links. This is the global lower bound on any partition's MLL.
    pub fn min_link_latency_ms(&self) -> Option<f64> {
        self.links
            .iter()
            .map(|l| l.latency_ms)
            .min_by(f64::total_cmp)
    }

    /// Smallest latency (ms) over links whose ends lie in different
    /// parts of `assignment` (node index → part): the partition's
    /// achieved MLL. `None` when no link is cut (unbounded decoupling).
    pub fn cut_mll_ms(&self, assignment: &[u32]) -> Option<f64> {
        debug_assert_eq!(assignment.len(), self.node_count());
        self.links
            .iter()
            .filter(|l| assignment[l.a.index()] != assignment[l.b.index()])
            .map(|l| l.latency_ms)
            .reduce(f64::min)
    }

    /// All node ids of routers.
    pub fn router_ids(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .filter(|n| n.kind == NodeKind::Router)
            .map(|n| n.id)
            .collect()
    }

    /// All node ids of hosts.
    pub fn host_ids(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .filter(|n| n.kind == NodeKind::Host)
            .map(|n| n.id)
            .collect()
    }

    /// All node ids belonging to AS `as_id`.
    pub fn nodes_in_as(&self, as_id: AsId) -> Vec<NodeId> {
        self.nodes
            .iter()
            .filter(|n| n.as_id == as_id)
            .map(|n| n.id)
            .collect()
    }

    /// Distinct AS numbers present, ascending.
    pub fn as_ids(&self) -> Vec<AsId> {
        let mut ids: Vec<AsId> = self.nodes.iter().map(|n| n.as_id).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Check whether the network is connected (over routers and hosts),
    /// via BFS from node 0. Empty networks count as connected.
    pub fn is_connected(&self) -> bool {
        if self.nodes.is_empty() {
            return true;
        }
        let mut seen = vec![false; self.nodes.len()];
        let mut queue = std::collections::VecDeque::new();
        seen[0] = true;
        queue.push_back(NodeId(0));
        let mut count = 1usize;
        while let Some(n) = queue.pop_front() {
            for (m, _) in self.neighbors(n) {
                if !seen[m.index()] {
                    seen[m.index()] = true;
                    count += 1;
                    queue.push_back(m);
                }
            }
        }
        count == self.nodes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn star() -> Network {
        // hub (router) with 3 router leaves and 1 host leaf
        let mut net = Network::new();
        let hub = net.add_node(NodeKind::Router, Point::new(0.0, 0.0), AsId(0));
        for i in 0..3 {
            let leaf = net.add_node(NodeKind::Router, Point::new(i as f64 + 1.0, 0.0), AsId(0));
            net.add_link(hub, leaf, 1e9, 0.5 + i as f64);
        }
        let host = net.add_node(NodeKind::Host, Point::new(0.0, 1.0), AsId(0));
        net.add_link(host, hub, 1e8, 0.1);
        net
    }

    #[test]
    fn counts() {
        let net = star();
        assert_eq!(net.node_count(), 5);
        assert_eq!(net.link_count(), 4);
        assert_eq!(net.router_count(), 4);
        assert_eq!(net.host_count(), 1);
    }

    #[test]
    fn adjacency_and_degree() {
        let net = star();
        assert_eq!(net.degree(NodeId(0)), 4);
        assert_eq!(net.degree(NodeId(1)), 1);
        let neighbors: Vec<NodeId> = net.neighbors(NodeId(0)).map(|(n, _)| n).collect();
        assert_eq!(neighbors.len(), 4);
        assert!(neighbors.contains(&NodeId(4)));
    }

    #[test]
    fn link_other_endpoint() {
        let net = star();
        let l = &net.links[0];
        assert_eq!(l.other(l.a), l.b);
        assert_eq!(l.other(l.b), l.a);
    }

    #[test]
    fn host_attachment_finds_router() {
        let net = star();
        assert_eq!(net.host_attachment(NodeId(4)), Some(NodeId(0)));
        assert_eq!(net.host_attachment(NodeId(0)), None);
    }

    #[test]
    fn min_link_latency() {
        let net = star();
        assert_eq!(net.min_link_latency_ms(), Some(0.1));
        assert_eq!(Network::new().min_link_latency_ms(), None);
    }

    #[test]
    fn mll_is_min_cut_latency() {
        // Path a-b-c-d with latencies 0.2, 5.0, 0.3 ms.
        let mut net = Network::new();
        let ids: Vec<_> = (0..4)
            .map(|i| net.add_node(NodeKind::Router, Point::new(i as f64, 0.0), AsId(0)))
            .collect();
        net.add_link(ids[0], ids[1], 1e9, 0.2);
        net.add_link(ids[1], ids[2], 1e9, 5.0);
        net.add_link(ids[2], ids[3], 1e9, 0.3);
        // Cut only the middle link.
        assert_eq!(net.cut_mll_ms(&[0, 0, 1, 1]), Some(5.0));
        // Cut the first and middle.
        assert_eq!(net.cut_mll_ms(&[0, 1, 2, 2]), Some(0.2));
        // No cut.
        assert_eq!(net.cut_mll_ms(&[0, 0, 0, 0]), None);
    }

    #[test]
    fn total_bandwidth_sums_incident_links() {
        let net = star();
        assert!((net.total_bandwidth(NodeId(0)) - (3.0 * 1e9 + 1e8)).abs() < 1.0);
    }

    #[test]
    fn inter_as_links_mark_border_routers() {
        let mut net = Network::new();
        let a = net.add_node(NodeKind::Router, Point::new(0.0, 0.0), AsId(1));
        let b = net.add_node(NodeKind::Router, Point::new(10.0, 0.0), AsId(2));
        net.add_link(a, b, 1e9, 1.0);
        assert!(net.links[0].inter_as);
        assert!(net.nodes[0].border && net.nodes[1].border);
        assert_eq!(net.as_ids(), vec![AsId(1), AsId(2)]);
    }

    #[test]
    fn connectivity() {
        let mut net = star();
        assert!(net.is_connected());
        net.add_node(NodeKind::Router, Point::new(99.0, 99.0), AsId(0));
        assert!(!net.is_connected());
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loops_rejected() {
        let mut net = Network::new();
        let a = net.add_node(NodeKind::Router, Point::new(0.0, 0.0), AsId(0));
        net.add_link(a, a, 1e9, 1.0);
    }

    #[test]
    #[should_panic(expected = "latency must be positive")]
    fn zero_latency_rejected() {
        let mut net = Network::new();
        let a = net.add_node(NodeKind::Router, Point::new(0.0, 0.0), AsId(0));
        let b = net.add_node(NodeKind::Router, Point::new(1.0, 0.0), AsId(0));
        net.add_link(a, b, 1e9, 0.0);
    }

    #[test]
    #[should_panic(expected = "latency must be finite")]
    fn infinite_latency_rejected() {
        let mut net = Network::new();
        let a = net.add_node(NodeKind::Router, Point::new(0.0, 0.0), AsId(0));
        let b = net.add_node(NodeKind::Router, Point::new(1.0, 0.0), AsId(0));
        net.add_link(a, b, 1e9, f64::INFINITY);
    }
}
