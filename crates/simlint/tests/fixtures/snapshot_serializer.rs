//! The checkpoint-serializer shape from crates/snapshot: every slab the
//! encoder walks is a `Vec` the exporter already sorted into canonical
//! order (flows by id, receivers by (node, flow)), and integrity is a
//! CRC folded over the byte stream — no unordered collection is ever
//! iterated, so identical worlds serialize to identical bytes. clippy
//! must report nothing here under the snapshot crate's configuration:
//! the serializer is free of hash iteration by construction, not by an
//! `#[expect]`.

/// A flow row, pre-sorted by `id` in the exporter.
pub struct FlowRow {
    pub id: u64,
    pub src: u32,
    pub bytes_left: u64,
}

/// Byte-stream writer with a running checksum, as in snapshot::wire.
pub struct ChecksummedWriter {
    buf: Vec<u8>,
    crc: u32,
}

impl ChecksummedWriter {
    pub fn put_u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.crc = self.crc.rotate_left(5) ^ u32::from(b);
            self.buf.push(b);
        }
    }

    pub fn put_u32(&mut self, v: u32) {
        for b in v.to_le_bytes() {
            self.crc = self.crc.rotate_left(5) ^ u32::from(b);
            self.buf.push(b);
        }
    }

    /// Encode a slab: count, then rows in the slab's canonical order.
    /// The iteration is over a `Vec` — structural, deterministic.
    pub fn put_flows(&mut self, flows: &[FlowRow]) {
        self.put_u64(flows.len() as u64);
        for f in flows {
            self.put_u64(f.id);
            self.put_u32(f.src);
            self.put_u64(f.bytes_left);
        }
    }

    pub fn finish(self) -> (Vec<u8>, u32) {
        (self.buf, self.crc)
    }
}

/// The decoder's mirror: bounds-checked reads off the byte slice, again
/// touching no unordered collection.
pub fn read_u64(buf: &[u8], pos: &mut usize) -> Option<u64> {
    let bytes = buf.get(*pos..*pos + 8)?;
    *pos += 8;
    let mut arr = [0u8; 8];
    arr.copy_from_slice(bytes);
    Some(u64::from_le_bytes(arr))
}
