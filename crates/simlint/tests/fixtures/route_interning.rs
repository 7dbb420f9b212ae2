//! The route-interning table + CSR port-table shapes from the
//! million-host memory layout (crates/netsim/src/world/): the
//! per-source interning shard uses its `HashMap` strictly for point
//! insert/lookup — never iteration — and every scan the hot path
//! performs walks sorted CSR arrays, whose order is structural. clippy
//! must report nothing here, in the crates that use the layout: it is
//! free of hash iteration by construction, not by an `#[expect]`.
//!

use std::collections::HashMap;
use std::sync::Arc;

/// One interning shard: keyed point lookups only.
pub struct InternShard {
    paths: HashMap<(u64, u32, u32), Arc<[u32]>>,
}

impl InternShard {
    pub fn intern(&mut self, epoch: u64, src: u32, dst: u32, path: &[u32]) -> Arc<[u32]> {
        self.paths
            .entry((epoch, src, dst))
            .or_insert_with(|| Arc::from(path))
            .clone()
    }

    pub fn lookup(&self, epoch: u64, src: u32, dst: u32) -> Option<Arc<[u32]>> {
        self.paths.get(&(epoch, src, dst)).cloned()
    }
}

/// CSR adjacency: per-node offsets into sorted neighbor/port arrays.
pub struct PortCsr {
    offsets: Vec<u32>,
    neighbors: Vec<u32>,
    ports: Vec<u32>,
}

impl PortCsr {
    /// Next-hop port lookup: binary search within the node's row.
    pub fn port(&self, node: u32, next: u32) -> Option<u32> {
        let lo = self.offsets[node as usize] as usize;
        let hi = self.offsets[node as usize + 1] as usize;
        let row = &self.neighbors[lo..hi];
        let at = row.binary_search(&next).ok()?;
        Some(self.ports[lo + at])
    }

    /// Full-table scans iterate the CSR arrays — structural order.
    pub fn degree_sum(&self) -> u64 {
        let mut total = 0u64;
        for w in self.offsets.windows(2) {
            total += u64::from(w[1] - w[0]);
        }
        total
    }
}
