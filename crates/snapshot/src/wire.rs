//! Little-endian byte-level encoding primitives, the [`Wire`] trait,
//! CRC-32, and FNV-1a.
//!
//! The snapshot format is hand-rolled (the workspace is offline — no
//! serde-format crates) and deliberately boring: every scalar is
//! little-endian, every sequence is a `u64` count followed by its
//! elements, every optional a one-byte flag. [`ByteReader`] treats its
//! input as hostile: every read is bounds-checked and every failure is
//! a structured [`MassfError::SnapshotCorrupt`] naming the section —
//! truncated or bit-flipped input can never panic or over-allocate.
//!
//! A type has one encoding, its [`Wire`] impl: scalars, ids and
//! containers here, structs through [`wire_struct!`](crate::wire_struct)
//! from one field list, enums through [`wire_enum!`](crate::wire_enum)
//! from one variant table.
//! Decoding validates *structure* only — bounds, sequence counts that
//! fit the remaining bytes, known tags, flag bytes strictly 0/1.
//! *Semantic* validation (path adjacency, issued flow ids, TCP
//! invariants, frontier order) happens where decoded state is
//! installed: `NetWorld::restore`, `validate_net_event` and
//! `ResumeState::validate`, called by `Session::decode`.

use massf_engine::{LpId, SimTime};
use massf_netsim::FlowId;
pub use massf_topology::MassfError;
use massf_topology::{LinkId, NodeId};
use std::sync::Arc;

/// CRC-32 (IEEE 802.3, reflected) lookup table, built at compile time.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// Streaming CRC-32 (IEEE polynomial, table-driven): feed any number of
/// slices through [`Crc32::update`], read the checksum with
/// [`Crc32::finish`]. Lets the snapshot container checksum a section
/// header and its payload together without concatenating them.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    #[expect(
        clippy::new_without_default,
        reason = "a checksum accumulator has no meaningful default"
    )]
    pub fn new() -> Self {
        Crc32 { state: !0u32 }
    }

    pub fn update(&mut self, data: &[u8]) -> &mut Self {
        for &b in data {
            self.state = (self.state >> 8) ^ CRC_TABLE[((self.state ^ b as u32) & 0xFF) as usize];
        }
        self
    }

    pub fn finish(&self) -> u32 {
        !self.state
    }
}

/// CRC-32 checksum of a single slice.
pub fn crc32(data: &[u8]) -> u32 {
    Crc32::new().update(data).finish()
}

/// FNV-1a 64-bit hash — used for scenario fingerprints (a compact,
/// deterministic digest; not collision-critical, since a fingerprint
/// mismatch only refuses a restore it would be wrong to accept).
pub fn fnv1a64(data: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Append-only encoder; values go in through [`Wire::put`].
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn into_inner(self) -> Vec<u8> {
        self.buf
    }

    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }
}

/// Bounds-checked decoder over one snapshot section; values come out
/// through [`Wire::get`].
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
    section: &'a str,
}

impl<'a> ByteReader<'a> {
    /// A reader over `buf`; `section` names the snapshot section in
    /// every error this reader produces.
    pub fn new(buf: &'a [u8], section: &'a str) -> Self {
        ByteReader {
            buf,
            pos: 0,
            section,
        }
    }

    /// The structured error for a malformed read in this section.
    pub fn corrupt(&self, reason: impl Into<String>) -> MassfError {
        MassfError::SnapshotCorrupt {
            section: self.section.to_owned(),
            reason: reason.into(),
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], MassfError> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len());
        match end {
            Some(end) => {
                let s = &self.buf[self.pos..end];
                self.pos = end;
                Ok(s)
            }
            None => Err(self.corrupt(format!(
                "truncated: wanted {n} bytes at offset {}, section has {}",
                self.pos,
                self.buf.len()
            ))),
        }
    }

    /// Decode a sequence length whose elements occupy at least
    /// `min_elem_bytes` each. Rejecting counts the remaining bytes
    /// cannot possibly hold keeps a bit-flipped length from driving a
    /// multi-gigabyte `Vec` preallocation.
    pub fn get_count(&mut self, min_elem_bytes: usize) -> Result<usize, MassfError> {
        let n = u64::get(self)?;
        let fits = usize::try_from(n)
            .ok()
            .and_then(|n| n.checked_mul(min_elem_bytes.max(1)))
            .is_some_and(|bytes| bytes <= self.remaining());
        if !fits {
            return Err(self.corrupt(format!(
                "sequence of {n} elements cannot fit in {} remaining bytes",
                self.remaining()
            )));
        }
        Ok(n as usize)
    }

    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Assert the section was consumed exactly; trailing bytes mean a
    /// corrupt or mismatched payload.
    pub fn finish(self) -> Result<(), MassfError> {
        if self.remaining() != 0 {
            return Err(self.corrupt(format!("{} trailing bytes", self.remaining())));
        }
        Ok(())
    }
}

/// A value with one snapshot encoding: [`Wire::put`] appends it,
/// [`Wire::get`] reads it back from untrusted bytes.
pub trait Wire: Sized {
    /// The fewest bytes any value of the type encodes to. A `Vec<T>`
    /// refuses a count of more `T::MIN_BYTES`-sized elements than its
    /// section has bytes left, so it must be exact: too low weakens that
    /// check, too high rejects valid snapshots.
    const MIN_BYTES: usize;

    fn put(&self, w: &mut ByteWriter);

    fn get(r: &mut ByteReader) -> Result<Self, MassfError>;
}

macro_rules! wire_scalar {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            const MIN_BYTES: usize = std::mem::size_of::<$t>();
            fn put(&self, w: &mut ByteWriter) {
                w.put_bytes(&self.to_le_bytes());
            }
            fn get(r: &mut ByteReader) -> Result<Self, MassfError> {
                let bytes = r.take(Self::MIN_BYTES)?;
                Ok(Self::from_le_bytes(bytes.try_into().expect("take returns MIN_BYTES bytes")))
            }
        }
    )*};
}

// Little-endian; an `f64` by its IEEE-754 bit pattern, NaN payloads
// included (restore-side validation decides which values it accepts).
wire_scalar!(u8, u16, u32, u64, f64);

macro_rules! wire_newtype {
    ($($t:ident($inner:ty)),*) => {$(
        impl Wire for $t {
            const MIN_BYTES: usize = <$inner>::MIN_BYTES;
            fn put(&self, w: &mut ByteWriter) {
                self.0.put(w);
            }
            fn get(r: &mut ByteReader) -> Result<Self, MassfError> {
                <$inner>::get(r).map($t)
            }
        }
    )*};
}

wire_newtype!(
    SimTime(u64),
    NodeId(u32),
    LinkId(u32),
    FlowId(u64),
    LpId(u32)
);

/// High half first.
impl Wire for u128 {
    const MIN_BYTES: usize = 16;
    fn put(&self, w: &mut ByteWriter) {
        ((self >> 64) as u64).put(w);
        (*self as u64).put(w);
    }
    fn get(r: &mut ByteReader) -> Result<Self, MassfError> {
        let hi = u64::get(r)? as u128;
        Ok((hi << 64) | u64::get(r)? as u128)
    }
}

/// One byte, strictly 0 or 1.
impl Wire for bool {
    const MIN_BYTES: usize = 1;
    fn put(&self, w: &mut ByteWriter) {
        u8::from(*self).put(w);
    }
    fn get(r: &mut ByteReader) -> Result<Self, MassfError> {
        match u8::get(r)? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(r.corrupt(format!("flag byte {other} (want 0 or 1)"))),
        }
    }
}

/// A scalar as `u64`, refused on decode if it does not fit `usize`.
/// Not a sequence length: [`ByteReader::get_count`] does not apply.
impl Wire for usize {
    const MIN_BYTES: usize = 8;
    fn put(&self, w: &mut ByteWriter) {
        (*self as u64).put(w);
    }
    fn get(r: &mut ByteReader) -> Result<Self, MassfError> {
        let v = u64::get(r)?;
        usize::try_from(v).map_err(|_| r.corrupt(format!("scalar {v} exceeds usize")))
    }
}

impl<T: Wire> Wire for Option<T> {
    const MIN_BYTES: usize = 1;
    fn put(&self, w: &mut ByteWriter) {
        self.is_some().put(w);
        if let Some(v) = self {
            v.put(w);
        }
    }
    fn get(r: &mut ByteReader) -> Result<Self, MassfError> {
        Ok(if bool::get(r)? {
            Some(T::get(r)?)
        } else {
            None
        })
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    const MIN_BYTES: usize = A::MIN_BYTES + B::MIN_BYTES;
    fn put(&self, w: &mut ByteWriter) {
        self.0.put(w);
        self.1.put(w);
    }
    fn get(r: &mut ByteReader) -> Result<Self, MassfError> {
        Ok((A::get(r)?, B::get(r)?))
    }
}

/// A slice as a `Vec<T>` encodes it: count first.
pub(crate) fn put_slice<T: Wire>(items: &[T], w: &mut ByteWriter) {
    items.len().put(w);
    for item in items {
        item.put(w);
    }
}

impl<T: Wire> Wire for Vec<T> {
    const MIN_BYTES: usize = 8;
    fn put(&self, w: &mut ByteWriter) {
        put_slice(self, w);
    }
    fn get(r: &mut ByteReader) -> Result<Self, MassfError> {
        let n = r.get_count(T::MIN_BYTES)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::get(r)?);
        }
        Ok(out)
    }
}

impl<T: Wire> Wire for Arc<[T]> {
    const MIN_BYTES: usize = 8;
    fn put(&self, w: &mut ByteWriter) {
        put_slice(self, w);
    }
    fn get(r: &mut ByteReader) -> Result<Self, MassfError> {
        Vec::get(r).map(Arc::from)
    }
}

/// `T::MIN_BYTES` for the type of the field `project` reads; lets
/// [`wire_struct!`](crate::wire_struct) sum its fields' minimums from
/// field names alone.
#[doc(hidden)]
pub const fn min_bytes_of<S, T: Wire>(_project: fn(&S) -> &T) -> usize {
    T::MIN_BYTES
}

/// Implements [`Wire`] for a struct from one list of its fields, in
/// wire order.
///
/// `put` destructures the value exhaustively (no `..`) and `get` builds
/// it with a struct literal, whose fields are read in the order they
/// are written. `MIN_BYTES` is the sum of the fields' minimums. A list
/// that drifts from the struct is therefore a compile error in both
/// directions, not a snapshot that silently drops a field on restore.
///
/// ```
/// use massf_snapshot::wire::{ByteReader, ByteWriter, Wire};
///
/// #[derive(Debug, PartialEq)]
/// struct Probe {
///     seq: u32,
///     sent_ns: Option<u64>,
/// }
/// massf_snapshot::wire_struct!(Probe { seq, sent_ns });
///
/// let probe = Probe { seq: 7, sent_ns: Some(9) };
/// let mut w = ByteWriter::new();
/// probe.put(&mut w);
/// let bytes = w.into_inner();
/// assert_eq!(bytes.len(), 4 + 1 + 8);
/// assert_eq!(Probe::MIN_BYTES, 4 + 1);
/// let mut r = ByteReader::new(&bytes, "probe");
/// assert_eq!(Probe::get(&mut r).expect("decodes"), probe);
/// r.finish().expect("consumed");
/// ```
///
/// A field added to the struct but not to the list: the decoder's
/// literal misses it (E0063), and the encoder's destructure refuses to
/// skip it (rustc's "pattern requires `..`", which has no error code
/// when the pattern comes from a macro).
///
/// ```compile_fail,E0063
/// struct Probe {
///     seq: u32,
///     sent_ns: Option<u64>,
///     retries: u32,
/// }
/// massf_snapshot::wire_struct!(Probe { seq, sent_ns });
/// ```
///
/// A field removed from the struct but still listed: the encoder's
/// destructure names a field that does not exist (E0026), and so does
/// the decoder's literal (E0560).
///
/// ```compile_fail,E0026
/// struct Probe {
///     seq: u32,
/// }
/// massf_snapshot::wire_struct!(Probe { seq, sent_ns });
/// ```
#[macro_export]
macro_rules! wire_struct {
    ($ty:ty { $($field:ident),+ $(,)? }) => {
        impl $crate::wire::Wire for $ty {
            const MIN_BYTES: usize =
                0 $(+ $crate::wire::min_bytes_of(|s: &Self| &s.$field))+;

            fn put(&self, w: &mut $crate::wire::ByteWriter) {
                let Self { $($field),+ } = self;
                $($crate::wire::Wire::put($field, w);)+
            }

            fn get(
                r: &mut $crate::wire::ByteReader,
            ) -> Result<Self, $crate::wire::MassfError> {
                Ok(Self { $($field: $crate::wire::Wire::get(r)?),+ })
            }
        }
    };
}

/// Implements [`Wire`] for an enum from one table of its variants: a
/// `u8` tag, then the variant's fields in the order listed.
///
/// `put` is one exhaustive `match`, so a variant missing from the table
/// does not compile (E0004). `get` reads the tag once and matches the
/// same literals, so a repeated tag is an unreachable pattern, which
/// the workspace's `-D warnings` refuses; any other tag is
/// [`ByteReader::corrupt`] "unknown `what` `tag`". `MIN_BYTES` is given
/// by hand, since it is the smallest variant's size.
///
/// ```
/// use massf_snapshot::wire::{ByteReader, ByteWriter, Wire};
///
/// #[derive(Debug, PartialEq)]
/// enum Signal { Stop, Go(u32), Turn { left: bool, degrees: u16 } }
/// massf_snapshot::wire_enum!(Signal, "signal", MIN_BYTES = 1, {
///     0 => Stop,
///     1 => Go(speed),
///     2 => Turn { left, degrees },
/// });
///
/// let mut w = ByteWriter::new();
/// Signal::Turn { left: true, degrees: 90 }.put(&mut w);
/// assert_eq!(w.into_inner(), [2, 1, 90, 0]);
/// let mut r = ByteReader::new(&[1, 7, 0, 0, 0, 3], "signal");
/// assert_eq!(Signal::get(&mut r).expect("decodes"), Signal::Go(7));
/// assert!(Signal::get(&mut r).is_err(), "tag 3 is unknown");
/// ```
///
/// A variant missing from the table:
///
/// ```compile_fail,E0004
/// enum Signal { Stop, Go(u32) }
/// massf_snapshot::wire_enum!(Signal, "signal", MIN_BYTES = 1, { 0 => Stop });
/// ```
///
/// A tag given twice:
///
/// ```compile_fail
/// #![deny(unreachable_patterns)]
/// enum Signal { Stop, Go(u32) }
/// massf_snapshot::wire_enum!(Signal, "signal", MIN_BYTES = 1, { 0 => Stop, 0 => Go(speed) });
/// ```
#[macro_export]
macro_rules! wire_enum {
    ($ty:ty, $what:literal, MIN_BYTES = $min:expr, {
        $($tag:literal => $variant:ident
            $(( $($item:ident),+ ))?
            $({ $($field:ident),+ })?),+ $(,)?
    }) => {
        impl $crate::wire::Wire for $ty {
            const MIN_BYTES: usize = $min;

            fn put(&self, w: &mut $crate::wire::ByteWriter) {
                match self {
                    $(Self::$variant $(( $($item),+ ))? $({ $($field),+ })? => {
                        $crate::wire::Wire::put(&($tag as u8), w);
                        $($($crate::wire::Wire::put($item, w);)+)?
                        $($($crate::wire::Wire::put($field, w);)+)?
                    })+
                }
            }

            fn get(
                r: &mut $crate::wire::ByteReader,
            ) -> Result<Self, $crate::wire::MassfError> {
                Ok(match <u8 as $crate::wire::Wire>::get(r)? {
                    $($tag => {
                        $($(let $item = $crate::wire::Wire::get(r)?;)+)?
                        $($(let $field = $crate::wire::Wire::get(r)?;)+)?
                        Self::$variant $(( $($item),+ ))? $({ $($field),+ })?
                    })+
                    tag => return Err(r.corrupt(format!("unknown {} {tag}", $what))),
                })
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard check value for "123456789" under CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        // Streaming over split slices matches the single-shot digest.
        assert_eq!(
            Crc32::new().update(b"1234").update(b"56789").finish(),
            0xCBF4_3926
        );
    }

    #[test]
    fn fnv_matches_known_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn round_trip_all_scalars() {
        let mut w = ByteWriter::new();
        7u8.put(&mut w);
        300u16.put(&mut w);
        70_000u32.put(&mut w);
        (1u64 << 40).put(&mut w);
        2.5f64.put(&mut w);
        3usize.put(&mut w);
        w.put_bytes(&[10, 11, 12]);
        let buf = w.into_inner();
        assert_eq!(&buf[..3], &[7, 0x2c, 0x01], "little-endian");
        let mut r = ByteReader::new(&buf, "test");
        assert_eq!(u8::get(&mut r).expect("u8"), 7);
        assert_eq!(u16::get(&mut r).expect("u16"), 300);
        assert_eq!(u32::get(&mut r).expect("u32"), 70_000);
        assert_eq!(u64::get(&mut r).expect("u64"), 1 << 40);
        assert_eq!(f64::get(&mut r).expect("f64"), 2.5);
        let n = r.get_count(1).expect("count");
        assert_eq!(n, 3);
        for want in [10, 11, 12] {
            assert_eq!(u8::get(&mut r).expect("elem"), want);
        }
        r.finish().expect("fully consumed");
    }

    #[test]
    fn truncated_reads_are_structured_errors() {
        let mut r = ByteReader::new(&[1, 2], "engine");
        match u32::get(&mut r) {
            Err(MassfError::SnapshotCorrupt { section, reason }) => {
                assert_eq!(section, "engine");
                assert!(reason.contains("truncated"), "{reason}");
            }
            other => panic!("expected SnapshotCorrupt, got {other:?}"),
        }
    }

    #[test]
    fn hostile_counts_cannot_overallocate() {
        let mut w = ByteWriter::new();
        u64::MAX.put(&mut w); // claims ~2^64 elements
        let buf = w.into_inner();
        let mut r = ByteReader::new(&buf, "world");
        assert!(r.get_count(8).is_err());
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let r = ByteReader::new(&[0], "meta");
        assert!(r.finish().is_err());
    }
}
