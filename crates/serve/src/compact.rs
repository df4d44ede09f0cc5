//! Delta-sidecar compaction: fold `<snapshot>.deltas` into a fresh
//! snapshot, atomically.
//!
//! A long-running ingest stream grows the sidecar without bound and
//! makes every restart replay it in full. Compaction folds the sidecar
//! into the snapshot it annotates — writing, cuboid for cuboid, what the
//! served overlay answers from ([`ServedCube`]'s one fold: counts add,
//! one δ cut) — and trims the folded prefix off the sidecar, all without
//! a moment where a crash loses data.
//!
//! ## The marker-file protocol
//!
//! Two files cannot be replaced in one atomic step, so compaction
//! brackets its non-atomic window with a durable **marker**
//! (`<snapshot>.compact`) that records how to finish or undo the job:
//!
//! 0. Resolve any earlier job's leftover marker ([`recover`]), so a fold
//!    that failed after its rename is finished, not folded again.
//! 1. Fold the snapshot plus the sidecar's first `folded_bytes` bytes
//!    (a record-aligned boundary; concurrent appends land past it) into
//!    a cube, and write it to `<snapshot>.compact-tmp`.
//! 2. Write the marker — the fold boundary, the CRC of the new snapshot
//!    file, and the CRC of the folded sidecar prefix — via its own
//!    temp-file + rename.
//! 3. Rename the temp snapshot over the live snapshot (atomic).
//! 4. Rewrite the sidecar as just the unfolded tail (temp + rename).
//! 5. Remove the marker.
//!
//! [`recover`] runs before every open ([`ServedCube::open`]: startup,
//! reload, the swap after a compaction). No marker → nothing to do. A
//! marker whose snapshot CRC matches the live snapshot means the crash
//! hit between steps 3 and 5: the new snapshot is live, so recovery
//! *finishes* the trim (step 4, guarded by the folded-prefix CRC so an
//! already-trimmed sidecar is never cut twice) and removes the marker.
//! Any other marker means the crash hit before step 3: the old
//! snapshot + full sidecar are still a complete, consistent pair, so
//! recovery discards the temp file and marker, undoing the job.
//!
//! Failpoints `serve.compact.pre_rename` and `serve.compact.post_rename`
//! simulate crashes in both windows; the durability suite restarts a
//! server across each and proves no ingested path is lost.

use crate::api::ServedCube;
use crate::crc::crc32;
use crate::deltalog;
use crate::error::{ApiError, SnapshotError};
use crate::snapshot::{check_failpoint, io_err, sibling, write_snapshot, Snapshot};
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};

/// The durable record of an in-flight compaction.
#[derive(Debug, Serialize, Deserialize)]
struct Marker {
    /// Byte length of the sidecar prefix that was folded.
    folded_bytes: u64,
    /// CRC32 of the *new* snapshot file — tells recovery whether the
    /// rename (step 3) happened.
    snapshot_crc: u32,
    /// CRC32 of the folded sidecar prefix — tells recovery whether the
    /// trim (step 4) happened, so it is never applied twice.
    folded_prefix_crc: u32,
}

/// What one compaction accomplished.
#[derive(Clone, Debug, Serialize)]
pub struct CompactReport {
    /// Sidecar deltas folded into the snapshot.
    pub folded_deltas: usize,
    /// Paths those deltas carried.
    pub folded_paths: u64,
    /// Size of the rewritten snapshot file.
    pub snapshot_bytes: u64,
    /// Deltas still pending in the sidecar (appended mid-compaction).
    pub remaining_deltas: usize,
}

/// How [`recover`] resolved a leftover marker.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Recovery {
    /// No marker: the last compaction (if any) completed cleanly.
    Clean,
    /// The new snapshot was live; recovery finished the sidecar trim.
    FinishedTrim,
    /// The rename never happened; recovery discarded the half-done job.
    Discarded,
}

fn marker_path(snapshot: &Path) -> PathBuf {
    sibling(snapshot, ".compact")
}

fn tmp_snapshot_path(snapshot: &Path) -> PathBuf {
    sibling(snapshot, ".compact-tmp")
}

/// Write `bytes` to `path` atomically (temp file + rename).
fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), SnapshotError> {
    let tmp = sibling(path, ".tmp");
    std::fs::write(&tmp, bytes).map_err(|e| io_err(&tmp, e))?;
    std::fs::rename(&tmp, path).map_err(|e| io_err(path, e))
}

/// Trim the folded prefix off the sidecar, leaving only the tail that
/// arrived after the fold boundary. Guarded by the prefix CRC: if the
/// sidecar no longer starts with the folded bytes (already trimmed, or
/// rewritten since), the trim is skipped rather than misapplied.
fn trim_sidecar(
    log: &Path,
    folded_bytes: u64,
    folded_prefix_crc: u32,
) -> Result<bool, SnapshotError> {
    let bytes = match std::fs::read(log) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(false),
        Err(e) => return Err(io_err(log, e)),
    };
    let folded = folded_bytes as usize;
    if bytes.len() < folded || crc32(&bytes[..folded]) != folded_prefix_crc {
        return Ok(false);
    }
    write_atomic(log, &bytes[folded..])?;
    Ok(true)
}

/// Fold the sidecar into the snapshot at `path` per the marker-file
/// protocol. Concurrent appends past the fold boundary survive in the
/// sidecar. Callers serialize compactions per snapshot (the server does
/// so with its admin lock).
pub fn compact(path: &Path) -> Result<CompactReport, ApiError> {
    let _span = flowcube_obs::span!("serve.compact");
    let timer = flowcube_obs::Timer::start("serve.compact");
    let result = compact_inner(path);
    let elapsed = timer.stop();
    flowcube_obs::histogram_record("serve.compact.fold_us", elapsed.as_secs_f64() * 1e6);
    match &result {
        Ok(report) => {
            flowcube_obs::counter_add("serve.compact.ok", 1);
            flowcube_obs::counter_add("serve.compact.folded_deltas", report.folded_deltas as u64);
        }
        Err(_) => flowcube_obs::counter_add("serve.compact.failed", 1),
    }
    result
}

fn compact_inner(path: &Path) -> Result<CompactReport, ApiError> {
    recover(path)?;
    let log = deltalog::deltalog_path(path);
    let sidecar_len = match std::fs::metadata(&log) {
        Ok(m) => m.len(),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => 0,
        Err(e) => return Err(io_err(&log, e).into()),
    };
    // Step 1: fold. The boundary is whatever complete records exist in
    // the first `sidecar_len` bytes right now; later appends land past
    // it and survive the trim.
    let (deltas, folded_bytes) = deltalog::read_deltas_up_to(&log, sidecar_len)?;
    if deltas.is_empty() {
        return Ok(CompactReport {
            folded_deltas: 0,
            folded_paths: 0,
            snapshot_bytes: std::fs::metadata(path).map(|m| m.len()).unwrap_or(0),
            remaining_deltas: deltalog::read_deltas(&log)?.len(),
        });
    }
    let folded_deltas = deltas.len();
    let folded_paths: u64 = deltas.iter().map(|d| d.paths).sum();

    // The overlay's snapshot handle closes with it, before the rename.
    let cube =
        ServedCube::from_snapshot_with_deltas(Snapshot::open(path)?, deltas).folded_cube()?;
    let tmp = tmp_snapshot_path(path);
    let info = write_snapshot(&cube, &tmp)?;

    // Step 2: durable marker.
    let folded_prefix_crc = {
        let bytes = std::fs::read(&log).map_err(|e| io_err(&log, e))?;
        crc32(&bytes[..folded_bytes as usize])
    };
    let marker = Marker {
        folded_bytes,
        snapshot_crc: info.crc,
        folded_prefix_crc,
    };
    let marker_json = serde_json::to_string(&marker).map_err(|e| SnapshotError::Corrupt {
        detail: format!("encoding compaction marker: {e}"),
    })?;
    write_atomic(&marker_path(path), marker_json.as_bytes())?;

    check_failpoint("serve.compact.pre_rename")?;

    // Step 3: the commit point.
    std::fs::rename(&tmp, path).map_err(|e| io_err(path, e))?;

    check_failpoint("serve.compact.post_rename")?;

    // Steps 4-5: trim and clear the marker.
    trim_sidecar(&log, marker.folded_bytes, marker.folded_prefix_crc)?;
    let _ = std::fs::remove_file(marker_path(path));

    Ok(CompactReport {
        folded_deltas,
        folded_paths,
        snapshot_bytes: info.bytes,
        remaining_deltas: deltalog::read_deltas(&log)?.len(),
    })
}

/// Resolve any compaction interrupted by a crash. Safe to call on every
/// startup; a clean state is a no-op.
pub fn recover(path: &Path) -> Result<Recovery, SnapshotError> {
    let marker_file = marker_path(path);
    let marker_bytes = match std::fs::read(&marker_file) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Recovery::Clean),
        Err(e) => return Err(io_err(&marker_file, e)),
    };
    let marker: Option<Marker> = std::str::from_utf8(&marker_bytes)
        .ok()
        .and_then(|s| serde_json::from_str(s).ok());
    let live_crc = crc32(&std::fs::read(path).map_err(|e| io_err(path, e))?);
    let recovery = match marker {
        // Crash between rename and trim: the fold is live; finish it.
        Some(marker) if marker.snapshot_crc == live_crc => {
            let log = deltalog::deltalog_path(path);
            trim_sidecar(&log, marker.folded_bytes, marker.folded_prefix_crc)?;
            flowcube_obs::counter_add("serve.compact.recovered_finish", 1);
            Recovery::FinishedTrim
        }
        // Crash before the rename, or a marker too torn to tell: the old
        // snapshot + sidecar pair is intact — undo the attempt.
        _ => {
            flowcube_obs::counter_add("serve.compact.recovered_discard", 1);
            Recovery::Discarded
        }
    };
    let _ = std::fs::remove_file(tmp_snapshot_path(path));
    let _ = std::fs::remove_file(&marker_file);
    Ok(recovery)
}
