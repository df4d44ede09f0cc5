//! The delta sidecar: a crash-tolerant append-only log of
//! [`CubeDelta`]s riding alongside a snapshot file.
//!
//! `POST /admin/ingest` on a snapshot-backed server does not rewrite the
//! snapshot per delta, so accepted deltas are appended to
//! `<snapshot>.deltas` and replayed on top of the snapshot's cuboids
//! whenever the pair is opened (startup, hot-reload, the swap after a
//! compaction). The server itself folds the sidecar back into the
//! snapshot and trims it ([`crate::compact`](mod@crate::compact), `POST /admin/compact` or
//! the size/age triggers).
//!
//! ## Record layout
//!
//! ```text
//! offset  size  field
//! 0       8     payload length in bytes, u64 LE
//! 8       4     CRC-32 of the payload bytes, u32 LE
//! 12      n     payload: JSON-encoded CubeDelta
//! ```
//!
//! Records repeat until end-of-file. A torn tail — a record whose
//! header or payload ends past the file — is *tolerated*: replay stops
//! at the last complete record, because a crash mid-append must not
//! take the server down, and the next append cuts the torn bytes off
//! before it writes, so its record follows the last complete one. A CRC
//! mismatch on a *complete* record is real corruption and is an error.

use crate::crc::crc32;
use crate::error::SnapshotError;
use flowcube_core::CubeDelta;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

/// Per-record header: payload length + payload CRC.
const RECORD_HEADER_LEN: usize = 12;
/// Upper bound on one record's payload — a decode guard against a
/// corrupt length prefix, not a practical limit (deltas are micro-batch
/// sized).
const MAX_RECORD_BYTES: u64 = 256 * 1024 * 1024;

/// The sidecar path for a snapshot: `<snapshot>.deltas`.
pub fn deltalog_path(snapshot: &Path) -> PathBuf {
    let mut name = snapshot.file_name().unwrap_or_default().to_os_string();
    name.push(".deltas");
    snapshot.with_file_name(name)
}

fn io_err(path: &Path, e: std::io::Error) -> SnapshotError {
    SnapshotError::Io {
        path: path.display().to_string(),
        detail: e.to_string(),
    }
}

/// The payload length a record header at byte `at` declares, guarded
/// against a corrupt length prefix.
fn payload_len(header: &[u8], at: u64) -> Result<u64, SnapshotError> {
    let mut len_le = [0u8; 8];
    len_le.copy_from_slice(&header[..8]);
    let len = u64::from_le_bytes(len_le);
    if len > MAX_RECORD_BYTES {
        return Err(SnapshotError::Corrupt {
            detail: format!("delta record at byte {at} declares {len} bytes"),
        });
    }
    Ok(len)
}

/// The byte length of the sidecar's complete records: the record headers
/// are hopped from the start (no payload is read) up to the first record
/// that ends past `file_len` — a torn tail.
fn complete_len(file: &File, file_len: u64, path: &Path) -> Result<u64, SnapshotError> {
    let mut header = [0u8; RECORD_HEADER_LEN];
    let mut at = 0u64;
    while file_len - at >= RECORD_HEADER_LEN as u64 {
        file.read_exact_at(&mut header, at)
            .map_err(|e| io_err(path, e))?;
        let end = at + RECORD_HEADER_LEN as u64 + payload_len(&header, at)?;
        if end > file_len {
            break;
        }
        at = end;
    }
    Ok(at)
}

/// Append one delta to the sidecar at `path`, creating the file if
/// absent. A torn tail a crash left behind is cut off first, so the
/// record lands right after the last complete one; a write that fails
/// is rolled back to that length. The record is written with a single
/// `write_all` and flushed, so a crash leaves at worst a torn tail that
/// [`read_deltas`] skips and the next append cuts.
pub fn append_delta(path: &Path, delta: &CubeDelta) -> Result<(), SnapshotError> {
    let _span = flowcube_obs::span!("serve.deltalog.append");
    let payload = serde_json::to_string(delta)
        .map(String::into_bytes)
        .map_err(|e| SnapshotError::Corrupt {
            detail: format!("encoding delta: {e}"),
        })?;
    let mut record = Vec::with_capacity(RECORD_HEADER_LEN + payload.len());
    record.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    record.extend_from_slice(&crc32(&payload).to_le_bytes());
    record.extend_from_slice(&payload);
    let mut file = OpenOptions::new()
        .create(true)
        .truncate(false)
        .read(true)
        .write(true)
        .open(path)
        .map_err(|e| io_err(path, e))?;
    let file_len = file.metadata().map_err(|e| io_err(path, e))?.len();
    let end = complete_len(&file, file_len, path)?;
    if end < file_len {
        file.set_len(end).map_err(|e| io_err(path, e))?;
        flowcube_obs::counter_add("serve.deltalog.torn_tail_cut_bytes", file_len - end);
    }
    let written = (file.seek(SeekFrom::Start(end)))
        .and_then(|_| file.write_all(&record))
        .and_then(|()| file.flush());
    if let Err(e) = written {
        let _ = file.set_len(end);
        return Err(io_err(path, e));
    }
    flowcube_obs::counter_add("serve.deltalog.appended", 1);
    Ok(())
}

/// Read every complete delta record from the sidecar at `path`.
///
/// A missing file is an empty log (the common case: no deltas ingested
/// yet). A torn tail is silently dropped — replay covers everything the
/// last successful append made durable. A CRC mismatch inside a
/// complete record is [`SnapshotError::ChecksumMismatch`].
pub fn read_deltas(path: &Path) -> Result<Vec<CubeDelta>, SnapshotError> {
    read_deltas_up_to(path, u64::MAX).map(|(deltas, _)| deltas)
}

/// Like [`read_deltas`], but only records whose **entire** record lies
/// within the first `limit` bytes of the file are returned. The second
/// element is the byte offset just past the last returned record — the
/// record-aligned fold boundary compaction trims the sidecar at, so a
/// delta appended concurrently (or one straddling `limit`) is never
/// half-folded.
pub fn read_deltas_up_to(path: &Path, limit: u64) -> Result<(Vec<CubeDelta>, u64), SnapshotError> {
    let _span = flowcube_obs::span!("serve.deltalog.read");
    let mut file = match std::fs::File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok((Vec::new(), 0)),
        Err(e) => return Err(io_err(path, e)),
    };
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes).map_err(|e| io_err(path, e))?;

    let mut deltas = Vec::new();
    let mut at = 0usize;
    while bytes.len() - at >= RECORD_HEADER_LEN {
        let len = payload_len(&bytes[at..], at as u64)?;
        let mut crc_le = [0u8; 4];
        crc_le.copy_from_slice(&bytes[at + 8..at + RECORD_HEADER_LEN]);
        let crc = u32::from_le_bytes(crc_le);
        let start = at + RECORD_HEADER_LEN;
        let Some(end) = start
            .checked_add(len as usize)
            .filter(|&e| e <= bytes.len())
        else {
            break; // torn tail: header landed, payload didn't
        };
        if end as u64 > limit {
            break; // record straddles the caller's fold boundary
        }
        let payload = &bytes[start..end];
        if crc32(payload) != crc {
            return Err(SnapshotError::ChecksumMismatch {
                section: format!("delta record {} (byte {at})", deltas.len()),
            });
        }
        let text = std::str::from_utf8(payload).map_err(|_| SnapshotError::Corrupt {
            detail: format!("delta record {} (byte {at}) is not UTF-8", deltas.len()),
        })?;
        let delta: CubeDelta = serde_json::from_str(text).map_err(|e| SnapshotError::Corrupt {
            detail: format!("delta record {} (byte {at}): {e}", deltas.len()),
        })?;
        deltas.push(delta);
        at = end;
    }
    if at < bytes.len() && limit == u64::MAX {
        flowcube_obs::counter_add("serve.deltalog.torn_tail_bytes", (bytes.len() - at) as u64);
    }
    Ok((deltas, at as u64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowcube_core::{CubeDelta, FlowCubeParams, ItemPlan};
    use flowcube_hier::PathLatticeSpec;
    use flowcube_pathdb::samples;

    fn sample_delta() -> CubeDelta {
        let db = samples::paper_table1();
        let spec = PathLatticeSpec::paper(db.schema().locations(), 1);
        CubeDelta::compute(&db, &spec, &FlowCubeParams::new(2), &ItemPlan::All)
    }

    /// A per-test scratch file, removed on drop.
    struct Scratch(PathBuf);
    impl Scratch {
        fn new(name: &str) -> Scratch {
            let path = flowcube_testkit::temp_path(&format!("deltalog-{name}"));
            let _ = std::fs::remove_file(&path);
            Scratch(path)
        }
    }
    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    #[test]
    fn sidecar_path_appends_extension() {
        assert_eq!(
            deltalog_path(Path::new("/x/cube.snap")),
            PathBuf::from("/x/cube.snap.deltas")
        );
    }

    #[test]
    fn roundtrips_multiple_records() {
        let scratch = Scratch::new("roundtrip");
        let path = scratch.0.clone();
        let delta = sample_delta();
        assert_eq!(
            read_deltas(&path).unwrap().len(),
            0,
            "missing file is empty"
        );
        append_delta(&path, &delta).unwrap();
        append_delta(&path, &delta).unwrap();
        let back = read_deltas(&path).unwrap();
        assert_eq!(back.len(), 2);
        for d in &back {
            assert_eq!(d.paths, delta.paths);
            assert_eq!(d.total_cells(), delta.total_cells());
            assert_eq!(
                serde_json::to_string(d).unwrap(),
                serde_json::to_string(&delta).unwrap()
            );
        }
    }

    #[test]
    fn torn_tail_is_skipped_but_corruption_is_an_error() {
        let scratch = Scratch::new("torn");
        let path = scratch.0.clone();
        let delta = sample_delta();
        append_delta(&path, &delta).unwrap();
        append_delta(&path, &delta).unwrap();

        // Tear the second record's payload: only the first survives.
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 5]).unwrap();
        assert_eq!(read_deltas(&path).unwrap().len(), 1);

        // Tear mid-header: same story.
        let first_len = RECORD_HEADER_LEN + serde_json::to_string(&delta).unwrap().len();
        std::fs::write(&path, &full[..first_len + 6]).unwrap();
        assert_eq!(read_deltas(&path).unwrap().len(), 1);

        // Flip a byte inside a *complete* record: that is corruption.
        let mut bad = full.clone();
        bad[RECORD_HEADER_LEN + 3] ^= 0xff;
        std::fs::write(&path, &bad).unwrap();
        assert!(matches!(
            read_deltas(&path),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));
    }

    /// An append after a torn tail cuts the torn bytes off and lands
    /// right after the last complete record: the log reads back as the
    /// records that were acknowledged, in order, and nothing else.
    #[test]
    fn append_after_a_torn_tail_follows_the_last_complete_record() {
        let scratch = Scratch::new("torn-append");
        let path = scratch.0.clone();
        let numbered = |paths| CubeDelta {
            paths,
            ..sample_delta()
        };
        append_delta(&path, &numbered(1)).unwrap();
        append_delta(&path, &numbered(2)).unwrap();
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 5]).unwrap();

        append_delta(&path, &numbered(3)).unwrap();
        let back: Vec<u64> = read_deltas(&path)
            .unwrap()
            .iter()
            .map(|d| d.paths)
            .collect();
        assert_eq!(back, [1, 3]);
    }
}
