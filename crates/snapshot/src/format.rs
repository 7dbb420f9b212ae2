//! The on-disk snapshot container: versioned, per-section checksummed,
//! atomically written.
//!
//! Layout (all little-endian):
//!
//! ```text
//! magic      8 bytes  "MASSFSNP"
//! version    u32      FORMAT_VERSION
//! sections   u32      section count
//! per section:
//!   id       u32      section identifier (see SECTION_*)
//!   len      u64      payload length in bytes
//!   crc      u32      CRC-32 of the payload
//!   payload  len bytes
//! ```
//!
//! Robustness model: a snapshot file is untrusted input. Torn or
//! truncated writes, bit flips, and version skew are all detected here
//! — a bad magic/section header or CRC mismatch is
//! [`MassfError::SnapshotCorrupt`], an unknown version is
//! [`MassfError::SnapshotVersionMismatch`] — and never panic, never
//! over-allocate, never hand garbage to the decoders upstream.
//!
//! Atomicity: [`write_atomic`] writes to a deterministic temp name in
//! the same directory, fsyncs the file, renames over the target, and
//! fsyncs the directory, so a crash at any point leaves either the old
//! snapshot or the new one — a torn final file is impossible on a
//! POSIX filesystem, and even if the filesystem lies, the per-section
//! CRCs catch the tear at read time.

use crate::wire::Crc32;
use massf_topology::MassfError;
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::Path;

/// Magic bytes opening every snapshot file.
pub const MAGIC: [u8; 8] = *b"MASSFSNP";

/// Current snapshot format version. Bump on any wire-format change;
/// readers reject other versions with a structured error rather than
/// guessing.
pub const FORMAT_VERSION: u32 = 1;

/// Session metadata: fingerprint, virtual time, external-tag cursor.
pub const SECTION_META: u32 = 1;
/// Engine continuation: the `ResumeState` frontier.
pub const SECTION_ENGINE: u32 = 2;
/// Canonical netsim `WorldState`.
pub const SECTION_WORLD: u32 = 3;
/// Cumulative execution statistics (per-LP and total event counts).
pub const SECTION_STATS: u32 = 4;
/// Online-rebalancer state (policy, live assignment, partial-epoch
/// loads). Present only in snapshots of rebalancing sessions.
pub const SECTION_REBALANCE: u32 = 5;

/// Human-readable name of a section id, for error messages.
pub fn section_name(id: u32) -> &'static str {
    match id {
        SECTION_META => "meta",
        SECTION_ENGINE => "engine",
        SECTION_WORLD => "world",
        SECTION_STATS => "stats",
        SECTION_REBALANCE => "rebalance",
        _ => "unknown",
    }
}

/// One decoded (or to-be-encoded) snapshot section.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Section {
    pub id: u32,
    pub payload: Vec<u8>,
}

fn header_corrupt(reason: impl Into<String>) -> MassfError {
    MassfError::SnapshotCorrupt {
        section: "header".into(),
        reason: reason.into(),
    }
}

/// Serialize sections into the container format.
pub fn encode_container(sections: &[Section]) -> Vec<u8> {
    let body: usize = sections.iter().map(|s| 16 + s.payload.len()).sum();
    let mut out = Vec::with_capacity(16 + body);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&(sections.len() as u32).to_le_bytes());
    for s in sections {
        out.extend_from_slice(&s.id.to_le_bytes());
        out.extend_from_slice(&(s.payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&section_crc(s.id, s.payload.len() as u64, &s.payload).to_le_bytes());
        out.extend_from_slice(&s.payload);
    }
    out
}

/// The section checksum covers the header fields (id, length) as well
/// as the payload, so a bit flip anywhere in the section — not just its
/// body — is caught.
fn section_crc(id: u32, len: u64, payload: &[u8]) -> u32 {
    Crc32::new()
        .update(&id.to_le_bytes())
        .update(&len.to_le_bytes())
        .update(payload)
        .finish()
}

/// Parse and verify a container: magic, version, section bounds, and
/// every section's CRC.
pub fn decode_container(bytes: &[u8]) -> Result<Vec<Section>, MassfError> {
    let take = |pos: usize, n: usize| -> Result<&[u8], MassfError> {
        pos.checked_add(n)
            .filter(|&e| e <= bytes.len())
            .map(|e| &bytes[pos..e])
            .ok_or_else(|| header_corrupt(format!("file truncated at offset {pos}")))
    };
    if take(0, 8)? != MAGIC {
        return Err(header_corrupt("bad magic (not a massf snapshot)"));
    }
    let version = u32::from_le_bytes(take(8, 4)?.try_into().expect("len 4"));
    if version != FORMAT_VERSION {
        return Err(MassfError::SnapshotVersionMismatch {
            found: version,
            expected: FORMAT_VERSION,
        });
    }
    let count = u32::from_le_bytes(take(12, 4)?.try_into().expect("len 4"));
    let mut pos = 16usize;
    let mut sections = Vec::new();
    for _ in 0..count {
        let id = u32::from_le_bytes(take(pos, 4)?.try_into().expect("len 4"));
        let len = u64::from_le_bytes(take(pos + 4, 8)?.try_into().expect("len 8"));
        let crc = u32::from_le_bytes(take(pos + 12, 4)?.try_into().expect("len 4"));
        pos += 16;
        let len = usize::try_from(len)
            .ok()
            .filter(|&l| l <= bytes.len() - pos)
            .ok_or_else(|| MassfError::SnapshotCorrupt {
                section: section_name(id).into(),
                reason: format!("section length {len} exceeds the file"),
            })?;
        let payload = take(pos, len)?;
        pos += len;
        if section_crc(id, payload.len() as u64, payload) != crc {
            return Err(MassfError::SnapshotCorrupt {
                section: section_name(id).into(),
                reason: "checksum mismatch (torn write or bit corruption)".into(),
            });
        }
        sections.push(Section {
            id,
            payload: payload.to_vec(),
        });
    }
    if pos != bytes.len() {
        return Err(header_corrupt(format!(
            "{} trailing bytes after the last section",
            bytes.len() - pos
        )));
    }
    Ok(sections)
}

/// Find one required section by id.
pub fn require_section(sections: &[Section], id: u32) -> Result<&Section, MassfError> {
    sections
        .iter()
        .find(|s| s.id == id)
        .ok_or_else(|| MassfError::SnapshotCorrupt {
            section: section_name(id).into(),
            reason: "required section missing".into(),
        })
}

fn io_err(path: &Path, e: std::io::Error) -> MassfError {
    MassfError::SnapshotIo {
        path: path.display().to_string(),
        reason: e.to_string(),
    }
}

/// Write `bytes` to `path` atomically: temp file in the same directory
/// (deterministic name: `<file>.tmp`), fsync, rename over the target,
/// fsync the directory. Readers never observe a torn file.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), MassfError> {
    let mut tmp_name =
        path.file_name()
            .map(|n| n.to_owned())
            .ok_or_else(|| MassfError::SnapshotIo {
                path: path.display().to_string(),
                reason: "path has no file name".into(),
            })?;
    tmp_name.push(".tmp");
    let tmp = path.with_file_name(tmp_name);
    {
        let mut f = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp)
            .map_err(|e| io_err(&tmp, e))?;
        f.write_all(bytes).map_err(|e| io_err(&tmp, e))?;
        f.sync_all().map_err(|e| io_err(&tmp, e))?;
    }
    std::fs::rename(&tmp, path).map_err(|e| io_err(path, e))?;
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        // Durability of the rename itself; ignore filesystems that
        // refuse to open directories for sync.
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// Read a whole snapshot file.
pub fn read_file(path: &Path) -> Result<Vec<u8>, MassfError> {
    let mut f = File::open(path).map_err(|e| io_err(path, e))?;
    let mut buf = Vec::new();
    f.read_to_end(&mut buf).map_err(|e| io_err(path, e))?;
    Ok(buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Section> {
        vec![
            Section {
                id: SECTION_META,
                payload: vec![1, 2, 3],
            },
            Section {
                id: SECTION_WORLD,
                payload: (0..=255).collect(),
            },
        ]
    }

    #[test]
    fn container_round_trips() {
        let sections = sample();
        let bytes = encode_container(&sections);
        assert_eq!(decode_container(&bytes).expect("valid"), sections);
    }

    #[test]
    fn every_truncation_is_detected() {
        let bytes = encode_container(&sample());
        for cut in 0..bytes.len() {
            let err = decode_container(&bytes[..cut]).expect_err("truncated file must fail");
            assert!(
                matches!(err, MassfError::SnapshotCorrupt { .. }),
                "cut at {cut}: {err}"
            );
        }
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let bytes = encode_container(&sample());
        let sections = sample();
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut evil = bytes.clone();
                evil[byte] ^= 1 << bit;
                // A flip must either be *detected* or decode to exactly
                // the original content (impossible for a single flip,
                // but stated this way the assertion is airtight).
                if let Ok(decoded) = decode_container(&evil) {
                    assert_eq!(
                        decoded, sections,
                        "byte {byte} bit {bit}: silent corruption"
                    );
                }
            }
        }
    }

    #[test]
    fn future_version_is_a_structured_mismatch() {
        let mut bytes = encode_container(&sample());
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        match decode_container(&bytes) {
            Err(MassfError::SnapshotVersionMismatch { found, expected }) => {
                assert_eq!(found, 99);
                assert_eq!(expected, FORMAT_VERSION);
            }
            other => panic!("expected version mismatch, got {other:?}"),
        }
    }

    #[test]
    fn atomic_write_round_trips_and_replaces() {
        let dir = std::env::temp_dir().join("massf-snap-format-test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("a.snap");
        write_atomic(&path, b"first").expect("write");
        assert_eq!(read_file(&path).expect("read"), b"first");
        write_atomic(&path, b"second").expect("overwrite");
        assert_eq!(read_file(&path).expect("read"), b"second");
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = read_file(Path::new("/nonexistent/massf.snap")).expect_err("must fail");
        assert!(matches!(err, MassfError::SnapshotIo { .. }), "{err}");
    }
}
