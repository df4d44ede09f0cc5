//! Versioned binary snapshot format for built [`FlowCube`]s.
//!
//! A snapshot is what lets a `flowcube serve` process answer queries
//! without ever re-mining: the cube is built once, written to disk, and
//! opened lazily — [`Snapshot::open`] validates the container and loads
//! only the small metadata sections; each cuboid's cell table stays on
//! disk until a query first touches it.
//!
//! ## Container layout
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"FCUBSNAP"
//! 8       4     format version, u32 LE
//! 12      8     index length in bytes, u64 LE
//! 20      4     CRC-32 of the index bytes, u32 LE
//! 24      n     index: JSON `Vec<SectionDesc>`
//! 24+n    …     section payloads, at index-recorded offsets
//! ```
//!
//! Section payload offsets are relative to the end of the index (the
//! *data region*), so the index's own length never perturbs them. Every
//! payload carries its own CRC-32, verified on load — lazily for cuboid
//! sections, eagerly for the metadata sections (`schema`, `spec`,
//! `params`, `stats`), plus a shard part's `shard` map, which serving never reads.
//!
//! The metadata sections are JSON. A `strings` section holds the shared
//! interned name table, and each cuboid is a flat columnar section (see
//! [`crate::columnar`]) that the server queries in place — opening a
//! snapshot allocates O(header + string table), never O(cells).
//!
//! This build writes and serves format version [`FORMAT_VERSION`] only;
//! [`Snapshot::open`] rejects anything else with
//! [`SnapshotError::UnsupportedVersion`]. Version 1 (every section JSON)
//! is upgrade-only: [`load_v1_cube`] decodes such a file into a
//! [`FlowCube`] for [`write_snapshot`] to re-encode.
//!
//! ## Writing and verifying in parallel
//!
//! Cuboid sections are independent: each is a pure function of its
//! cuboid and the string table, and each is checked against its own CRC.
//! Both directions run one chunk per section on the workspace's chunk
//! runner (`run_sections`). The writer plans every section first, so
//! each one's offset is known before any is encoded; then each chunk
//! encodes and checksums its section into a pooled buffer and writes it
//! at its offset — so a write holds the plans (sorted cell references)
//! and one section's bytes per worker, never the file's.
//! [`Snapshot::verify_all`] reads + checksums + validates them. Either
//! way results arrive in section order, so neither the bytes written
//! nor the error reported can depend on the thread count.

use crate::columnar::{ColumnarSection, SectionPlan, StringTable, StringsCtx};
use crate::crc::{crc32, crc32_combine};
use crate::error::SnapshotError;
use flowcube_core::parallel::run_chunks_counted;
use flowcube_core::{Cuboid, CuboidKey, FlowCube, FlowCubeParams};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::fs::File;
use std::io::Write;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// First 8 bytes of every snapshot file.
pub const MAGIC: [u8; 8] = *b"FCUBSNAP";
/// The format version this build writes and serves.
pub const FORMAT_VERSION: u32 = 2;
/// Fixed-size header: magic + version + index length + index CRC.
const HEADER_LEN: u64 = 24;

/// Section kinds.
pub const KIND_SCHEMA: &str = "schema";
pub const KIND_SPEC: &str = "spec";
pub const KIND_PARAMS: &str = "params";
pub const KIND_STATS: &str = "stats";
pub const KIND_CUBOID: &str = "cuboid";
/// Interned name table.
pub const KIND_STRINGS: &str = "strings";

/// One entry of the snapshot index.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SectionDesc {
    /// One of the `KIND_*` constants.
    pub kind: String,
    /// The cuboid address, for `kind == "cuboid"` sections.
    pub cuboid: Option<CuboidKey>,
    /// Payload offset relative to the start of the data region.
    pub offset: u64,
    /// Payload length in bytes.
    pub len: u64,
    /// CRC-32 of the payload bytes.
    pub crc: u32,
}

/// Summary returned by [`write_snapshot`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SnapshotInfo {
    pub sections: usize,
    pub cuboids: usize,
    pub bytes: u64,
    /// CRC-32 of the whole file, combined from the CRCs of its header,
    /// its index and its sections ([`crate::crc::crc32_combine`]) rather
    /// than computed over its bytes.
    pub crc: u32,
}

pub(crate) fn io_err(path: &Path, e: std::io::Error) -> SnapshotError {
    SnapshotError::Io {
        path: path.display().to_string(),
        detail: e.to_string(),
    }
}

/// `path` with `suffix` appended to its file name: where the temp files
/// and sidecars of a snapshot live, so a rename onto it never crosses a
/// file system.
pub(crate) fn sibling(path: &Path, suffix: &str) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(suffix);
    path.with_file_name(name)
}

/// Surface an armed `return(..)` failpoint as an IO error at `name`.
pub(crate) fn check_failpoint(name: &str) -> Result<(), SnapshotError> {
    match flowcube_testkit::fail_point(name) {
        Some(flowcube_testkit::Fault::Error(msg)) => Err(SnapshotError::Io {
            path: name.to_string(),
            detail: format!("injected: {msg}"),
        }),
        _ => Ok(()),
    }
}

/// Run `f` on every index of `0..n` — one chunk per section, claimed by
/// workers as they go, since sections differ in size by orders of
/// magnitude — under the cube's own thread policy. Results are in index
/// order at any thread count.
fn run_sections<R: Send>(
    name: &'static str,
    params: &FlowCubeParams,
    n: usize,
    f: impl Fn(usize) -> R + Sync,
) -> Vec<R> {
    let threads = params.threads_for(n);
    // The runner opens `name` once per worker; a serial run is one lane.
    let _lane = (threads <= 1).then(|| flowcube_obs::span!(name, worker = 0usize));
    run_chunks_counted(name, n, n, threads, |range| {
        range.map(&f).collect::<Vec<R>>()
    })
    .results
    .into_iter()
    .flatten()
    .collect()
}

fn encode<T: Serialize>(what: &'static str, value: &T) -> Result<Vec<u8>, SnapshotError> {
    serde_json::to_string(value)
        .map(String::into_bytes)
        .map_err(|e| SnapshotError::Corrupt {
            detail: format!("encoding {what}: {e}"),
        })
}

/// Strip the execution-environment knobs from the persisted params: the
/// thread count must not change what a cube *is*, so two builds of the
/// same data at different `--threads` produce byte-identical snapshots.
fn canonical_params(params: &flowcube_core::FlowCubeParams) -> flowcube_core::FlowCubeParams {
    let mut p = params.clone();
    p.threads = 0;
    p.parallel_cutoff = 0;
    p
}

/// Strip wall-clock timings and the thread count from the persisted
/// stats, for the same snapshot-determinism reason as
/// [`canonical_params`].
fn canonical_stats(stats: &flowcube_core::BuildStats) -> flowcube_core::BuildStats {
    let mut s = stats.clone();
    s.encode_time = Default::default();
    s.mining_time = Default::default();
    s.prepare_time = Default::default();
    s.materialize_time = Default::default();
    s.redundancy_time = Default::default();
    s.threads_used = 0;
    // Retries are a property of one execution (a transient worker fault),
    // not of the cube; a self-healed build snapshots identically.
    s.chunk_retries = 0;
    // How the cube was maintained (one batch build vs. a build plus k
    // delta applications) must not change what it *is*: at δ = 1 an
    // incrementally maintained cube snapshots byte-identically to a
    // batch rebuild over the union of the streams.
    s.deltas_applied = 0;
    s.delta_paths = 0;
    // The mining counters describe how the cube was *found*, not what it
    // is: a single-node build mines once while a sharded build runs one
    // δ = 1 BUC pass per shard, yet both produce the same cube. Zero
    // them (and the derived frequent/pruned tallies) so equivalent
    // construction strategies snapshot byte-identically.
    // `cells_materialized` stays — it is a property of the content.
    s.mining = Default::default();
    s.frequent_cells = 0;
    s.cells_pruned_redundant = 0;
    s
}

/// Encode `cube`'s sections in file order — the metadata sections,
/// `extra` after the strings table, then the cuboids in sorted key
/// order — and write each into `spool` at its offset in the data
/// region; returns the index that describes them.
///
/// The pipeline is intern → plan every cuboid → lay the sections out
/// from the plans' lengths → encode, CRC and write each section at its
/// offset. Planning and encoding run one chunk per section on the chunk
/// runner ([`run_sections`]). Nothing a chunk computes depends on which
/// worker ran it or when, and every section lands at the offset the
/// serial layout gives it, so the bytes are the serial bytes at any
/// thread count.
fn encode_sections(
    cube: &FlowCube,
    extra: Option<(&'static str, Vec<u8>)>,
    spool: &File,
    spool_path: &Path,
) -> Result<Vec<SectionDesc>, SnapshotError> {
    let mut cuboids: Vec<(&CuboidKey, &Cuboid)> = cube.cuboids().collect();
    cuboids.sort_by(|a, b| a.0.cmp(b.0));
    let strings = {
        let _span = flowcube_obs::span!("serve.snapshot.intern");
        let table = StringTable::from_cuboids(cube.schema(), cuboids.iter().map(|&(_, c)| c));
        StringsCtx::new(table, cube.schema())
    };
    let mut meta = vec![
        (KIND_SCHEMA, encode("schema", cube.schema())?),
        (KIND_SPEC, encode("spec", cube.spec())?),
        (
            KIND_PARAMS,
            encode("params", &canonical_params(cube.params()))?,
        ),
        (KIND_STATS, encode("stats", &canonical_stats(cube.stats()))?),
        (KIND_STRINGS, strings.table.encode()),
    ];
    meta.extend(extra);
    let write_at = |section: &[u8], offset: u64| {
        // Fault injection: the writer dies between two sections.
        check_failpoint("serve.snapshot.spool")?;
        spool
            .write_all_at(section, offset)
            .map_err(|e| io_err(spool_path, e))
    };

    let mut index: Vec<SectionDesc> = Vec::with_capacity(meta.len() + cuboids.len());
    let mut offset = 0;
    for (kind, bytes) in meta {
        write_at(&bytes, offset)?;
        index.push(SectionDesc {
            kind: kind.into(),
            cuboid: None,
            offset,
            len: bytes.len() as u64,
            crc: crc32(&bytes),
        });
        offset += bytes.len() as u64;
    }

    let (params, n) = (cube.params(), cuboids.len());
    let plans = run_sections("serve.snapshot.plan", params, n, |i| {
        SectionPlan::new(cuboids[i].1, &strings)
    })
    .into_iter()
    .collect::<Result<Vec<_>, _>>()?;
    let mut offsets = Vec::with_capacity(n);
    for plan in &plans {
        offsets.push(offset);
        offset += plan.byte_len() as u64;
    }
    // One buffer per worker, as large as the largest section, allocated
    // here and not on the workers on purpose: memory a worker allocates
    // comes from that thread's malloc arena, which keeps it resident once
    // freed — the same lesson as BUC's tid lists (DESIGN §14). A chunk
    // takes a buffer from the pool and puts it back when it is done.
    let largest = plans.iter().map(SectionPlan::byte_len).max().unwrap_or(0);
    let pool: Mutex<Vec<Vec<u8>>> = Mutex::new(
        (0..params.threads_for(n))
            .map(|_| Vec::with_capacity(largest))
            .collect(),
    );
    let crcs = run_sections("serve.snapshot.encode", params, n, |i| {
        // Only a chunk that panicked holding a buffer leaves the pool dry.
        let mut section = pool.lock().pop().unwrap_or_default();
        section.clear();
        section.resize(plans[i].byte_len(), 0);
        let written = plans[i].write(&strings, &mut section).and_then(|()| {
            let crc = crc32(&section);
            write_at(&section, offsets[i]).map(|()| crc)
        });
        pool.lock().push(section);
        written
    })
    .into_iter()
    .collect::<Result<Vec<_>, _>>()?;
    index.extend((0..n).map(|i| SectionDesc {
        kind: KIND_CUBOID.into(),
        cuboid: Some(cuboids[i].0.clone()),
        offset: offsets[i],
        len: plans[i].byte_len() as u64,
        crc: crcs[i],
    }));
    Ok(index)
}

/// The header and the JSON index that lead a container whose data
/// region `index` describes.
fn frame(index: &[SectionDesc]) -> Result<[Vec<u8>; 2], SnapshotError> {
    let index_bytes = encode("index", &index)?;
    let mut header = Vec::with_capacity(HEADER_LEN as usize);
    header.extend_from_slice(&MAGIC);
    header.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    header.extend_from_slice(&(index_bytes.len() as u64).to_le_bytes());
    header.extend_from_slice(&crc32(&index_bytes).to_le_bytes());
    Ok([header, index_bytes])
}

/// Serialize `cube` into a snapshot file at `path` (format
/// [`FORMAT_VERSION`]).
///
/// Cuboid sections are written in sorted [`CuboidKey`] order, and params /
/// stats are canonicalized (no timings, no thread knobs), so the same cube
/// always produces byte-identical snapshots — even when built with
/// different thread counts.
///
/// The sections are written at their offsets into a spool file —
/// unlinked as soon as it is open — while their CRCs fill the index; the
/// header and index then go to a sibling temp file, the spool is copied
/// behind them in the kernel, and the temp file is renamed over `path`.
/// So a write holds the plans and one section's bytes per worker, never
/// the file's bytes; a process that holds the old file open (a running
/// `serve`) keeps reading the old, whole inode; and a writer that fails
/// leaves `path` and its directory as they were. No fsync — a crash-durable
/// replacement is compaction's marker protocol ([`crate::compact`](mod@crate::compact)), not
/// this function.
pub fn write_snapshot(
    cube: &FlowCube,
    path: impl AsRef<Path>,
) -> Result<SnapshotInfo, SnapshotError> {
    write_container(cube, None, path.as_ref())
}

/// [`write_snapshot`] with one more JSON metadata section `(kind,
/// value)`, a shard part's shard map. Serving ignores it, `verify_all`
/// checks its CRC and [`Snapshot::section`] reads it.
pub fn write_snapshot_with<T: Serialize>(
    cube: &FlowCube,
    (kind, value): (&'static str, &T),
    path: impl AsRef<Path>,
) -> Result<SnapshotInfo, SnapshotError> {
    write_container(cube, Some((kind, encode(kind, value)?)), path.as_ref())
}

fn write_container(
    cube: &FlowCube,
    extra: Option<(&'static str, Vec<u8>)>,
    path: &Path,
) -> Result<SnapshotInfo, SnapshotError> {
    let span = flowcube_obs::span!("serve.snapshot.write");
    let tmp = sibling(path, &format!(".write-tmp.{}", std::process::id()));
    let written = write_file(cube, extra, path, &tmp).and_then(|info| {
        std::fs::rename(&tmp, path)
            .map_err(|e| io_err(path, e))
            .map(|()| info)
    });
    match &written {
        Ok(info) => flowcube_obs::counter_add("serve.snapshot.bytes_written", info.bytes),
        Err(_) => {
            let _ = std::fs::remove_file(&tmp);
        }
    }
    drop(span);
    flowcube_obs::rss::record_hwm("serve.snapshot.write");
    written
}

/// Write `cube`'s data region to a spool beside `path`, then write the
/// header, the index and the spooled data region to a new file at `tmp`.
fn write_file(
    cube: &FlowCube,
    extra: Option<(&'static str, Vec<u8>)>,
    path: &Path,
    tmp: &Path,
) -> Result<SnapshotInfo, SnapshotError> {
    // The header and index lead the file but hold every section's CRC,
    // so the data region is written first. Its spool is unlinked as soon
    // as it is open: no writer, failed or killed, leaves it behind.
    let spool_path = sibling(path, &format!(".write-spool.{}", std::process::id()));
    let mut spool = File::options()
        .read(true)
        .write(true)
        .create(true)
        .truncate(true)
        .open(&spool_path)
        .map_err(|e| io_err(&spool_path, e))?;
    std::fs::remove_file(&spool_path).map_err(|e| io_err(&spool_path, e))?;
    let index = encode_sections(cube, extra, &spool, &spool_path)?;
    let [header, index_bytes] = frame(&index)?;

    let _span = flowcube_obs::span!("serve.snapshot.file_write");
    let io = |e| io_err(tmp, e);
    let mut file = File::create(tmp).map_err(io)?;
    file.write_all(&header).map_err(io)?;
    file.write_all(&index_bytes).map_err(io)?;
    // Positional writes left the spool's cursor at its start. File to file: `copy_file_range` on Linux, so the data region is
    // copied in the kernel and never comes back through this process.
    let data_len = std::io::copy(&mut spool, &mut file).map_err(io)?;
    // Fault injection: the writer dies with the temp file on disk.
    check_failpoint("serve.snapshot.write")?;
    // The file's CRC from its pieces' CRCs, without a pass over the bytes.
    let head = crc32_combine(
        crc32(&header),
        crc32(&index_bytes),
        index_bytes.len() as u64,
    );
    Ok(SnapshotInfo {
        sections: index.len(),
        cuboids: cube.num_cuboids(),
        bytes: (header.len() + index_bytes.len()) as u64 + data_len,
        crc: index
            .iter()
            .fold(head, |crc, s| crc32_combine(crc, s.crc, s.len)),
    })
}

/// A parsed container: validated header and index over an open file,
/// with CRC-checked section reads. Format-version agnostic — the
/// version is recorded, and the callers decide what they accept.
struct Container {
    file: File,
    /// The file's path: where it was opened from, and its name in errors.
    path: PathBuf,
    version: u32,
    data_start: u64,
    sections: Vec<SectionDesc>,
}

impl Container {
    /// Open `path` and validate magic, index CRC and section bounds
    /// against the file's length. Section payloads are *not* read here.
    fn open(path: &Path) -> Result<Container, SnapshotError> {
        let io = |e| io_err(path, e);
        let file = File::open(path).map_err(io)?;
        let mut total_len = file.metadata().map_err(io)?.len();
        // Fault injection: pretend the file ends early (a torn copy /
        // partial download) or that the open itself failed.
        match flowcube_testkit::fail_point("serve.snapshot.open") {
            Some(flowcube_testkit::Fault::Error(detail)) => {
                return Err(SnapshotError::Io {
                    path: path.display().to_string(),
                    detail,
                });
            }
            Some(flowcube_testkit::Fault::ShortRead(n)) => total_len = total_len.min(n as u64),
            None => {}
        }
        if total_len < HEADER_LEN {
            return Err(SnapshotError::Truncated { what: "header" });
        }
        let header = read_at(&file, 0, HEADER_LEN).map_err(io)?;
        if header[0..8] != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = u32::from_le_bytes(le_array(&header[8..12]));
        let index_len = u64::from_le_bytes(le_array(&header[12..20]));
        let index_crc = u32::from_le_bytes(le_array(&header[20..24]));
        let data_start = HEADER_LEN
            .checked_add(index_len)
            .filter(|&end| end <= total_len)
            .ok_or(SnapshotError::Truncated { what: "index" })?;
        let index_bytes = read_at(&file, HEADER_LEN, index_len).map_err(io)?;
        if crc32(&index_bytes) != index_crc {
            return Err(SnapshotError::ChecksumMismatch {
                section: "index".into(),
            });
        }
        let index_text = std::str::from_utf8(&index_bytes).map_err(|_| SnapshotError::Corrupt {
            detail: "index is not UTF-8".into(),
        })?;
        let sections: Vec<SectionDesc> =
            serde_json::from_str(index_text).map_err(|e| SnapshotError::Corrupt {
                detail: format!("index: {e}"),
            })?;
        for s in &sections {
            let end = s.offset.checked_add(s.len).ok_or(SnapshotError::Corrupt {
                detail: "section bounds overflow".into(),
            })?;
            if end > total_len - data_start {
                return Err(SnapshotError::Truncated {
                    what: "section payload",
                });
            }
            if (s.kind == KIND_CUBOID) != s.cuboid.is_some() {
                return Err(SnapshotError::Corrupt {
                    detail: format!("{} section with a mismatched cuboid key", s.kind),
                });
            }
        }
        Ok(Container {
            file,
            path: path.to_path_buf(),
            version,
            data_start,
            sections,
        })
    }

    fn meta(&self, kind: &'static str) -> Result<&SectionDesc, SnapshotError> {
        self.sections
            .iter()
            .find(|s| s.kind == kind)
            .ok_or(SnapshotError::MissingSection { kind })
    }

    /// Read one section's raw payload and verify its CRC.
    fn section_bytes(&self, desc: &SectionDesc) -> Result<Vec<u8>, SnapshotError> {
        let mut bytes = read_at(&self.file, self.data_start + desc.offset, desc.len)
            .map_err(|e| io_err(&self.path, e))?;
        // Fault injection: lose the payload's tail (torn write / bad disk) —
        // the CRC below then fails exactly as it would on real corruption.
        match flowcube_testkit::fail_point("serve.snapshot.section") {
            Some(flowcube_testkit::Fault::ShortRead(n)) => bytes.truncate(n.min(bytes.len())),
            Some(flowcube_testkit::Fault::Error(detail)) => {
                return Err(SnapshotError::Io {
                    path: self.path.display().to_string(),
                    detail,
                });
            }
            None => {}
        }
        if crc32(&bytes) != desc.crc {
            return Err(SnapshotError::ChecksumMismatch {
                section: section_label(desc),
            });
        }
        Ok(bytes)
    }

    /// Read, verify and JSON-decode one section.
    fn json_section<T: for<'de> Deserialize<'de>>(
        &self,
        desc: &SectionDesc,
    ) -> Result<T, SnapshotError> {
        let bytes = self.section_bytes(desc)?;
        let text = std::str::from_utf8(&bytes).map_err(|_| SnapshotError::Corrupt {
            detail: format!("{} is not UTF-8", section_label(desc)),
        })?;
        serde_json::from_str(text).map_err(|e| SnapshotError::Corrupt {
            detail: format!("{}: {e}", section_label(desc)),
        })
    }

    /// The four metadata sections as an empty cube.
    fn shell(&self) -> Result<FlowCube, SnapshotError> {
        Ok(FlowCube::from_parts(
            self.json_section(self.meta(KIND_SCHEMA)?)?,
            self.json_section(self.meta(KIND_SPEC)?)?,
            self.json_section(self.meta(KIND_PARAMS)?)?,
            self.json_section(self.meta(KIND_STATS)?)?,
        ))
    }

    fn cuboid_sections(&self) -> impl Iterator<Item = (&CuboidKey, &SectionDesc)> {
        self.sections
            .iter()
            .filter_map(|s| s.cuboid.as_ref().map(|key| (key, s)))
    }
}

/// Load a legacy format-1 snapshot (JSON cuboid sections) into a
/// [`FlowCube`] — the upgrade path: [`write_snapshot`] the result. This
/// is the only code that still reads version 1; [`Snapshot::open`]
/// rejects it with [`SnapshotError::UnsupportedVersion`].
pub fn load_v1_cube(path: impl AsRef<Path>) -> Result<FlowCube, SnapshotError> {
    let container = Container::open(path.as_ref())?;
    if container.version != 1 {
        return Err(SnapshotError::UnsupportedVersion {
            found: container.version,
            supported: 1,
        });
    }
    let mut cube = container.shell()?;
    for (key, desc) in container.cuboid_sections() {
        cube.insert_cuboid(key.clone(), container.json_section(desc)?);
    }
    Ok(cube)
}

/// An open, validated snapshot file with lazily-loaded cuboid sections.
pub struct Snapshot {
    container: Container,
    shell: FlowCube,
    /// Interned names resolved against the schema. Shared (`Arc`) with
    /// every columnar section loaded from this snapshot.
    strings: Arc<StringsCtx>,
}

impl Snapshot {
    /// Open and validate a snapshot: magic, format version, index CRC,
    /// section bounds against the file size, and the presence and
    /// integrity of the metadata sections. Cuboid payloads are *not*
    /// read here — they load (and CRC-verify) on first access.
    pub fn open(path: impl AsRef<Path>) -> Result<Snapshot, SnapshotError> {
        let _span = flowcube_obs::span!("serve.snapshot.open");
        let container = Container::open(path.as_ref())?;
        if container.version != FORMAT_VERSION {
            return Err(SnapshotError::UnsupportedVersion {
                found: container.version,
                supported: FORMAT_VERSION,
            });
        }
        let shell = container.shell()?;
        // The interned name table is metadata — small, loaded eagerly,
        // and resolved against the schema once so per-query translation
        // is hash lookups and array indexing only.
        let table = StringTable::decode(&container.section_bytes(container.meta(KIND_STRINGS)?)?)?;
        let strings = Arc::new(StringsCtx::new(table, shell.schema()));
        Ok(Snapshot {
            container,
            shell,
            strings,
        })
    }

    /// An empty cube carrying the snapshot's schema, spec, params, and
    /// stats.
    pub fn shell(&self) -> &FlowCube {
        &self.shell
    }

    /// The file this snapshot was opened from.
    pub fn path(&self) -> &Path {
        &self.container.path
    }

    /// Read, CRC-check and decode the JSON metadata section `kind` —
    /// [`SnapshotError::MissingSection`] when the file has none.
    pub fn section<T: for<'de> Deserialize<'de>>(
        &self,
        kind: &'static str,
    ) -> Result<T, SnapshotError> {
        self.container.json_section(self.container.meta(kind)?)
    }

    /// Exhaustively validate the snapshot: every section's payload is
    /// read and CRC-checked, and every cuboid section is structurally
    /// validated (bounds, alignment, ordering, string-id resolution).
    /// [`Snapshot::open`] only validates the header, index, and metadata
    /// sections (cuboids stay lazy); hot-reload calls this first so a
    /// corrupt replacement file is rejected *before* the live cube is
    /// swapped out.
    pub fn verify_all(&self) -> Result<(), SnapshotError> {
        let _span = flowcube_obs::span!("serve.snapshot.verify_all");
        let sections = &self.container.sections;
        run_sections(
            "serve.snapshot.verify",
            self.shell.params(),
            sections.len(),
            |i| {
                let desc = &sections[i];
                if desc.kind == KIND_CUBOID {
                    self.load_section(desc).map(drop)
                } else {
                    self.container.section_bytes(desc).map(drop)
                }
            },
        )
        .into_iter()
        // The first failing section in index order, as a serial pass
        // would have met it.
        .collect()
    }

    /// Addresses of every cuboid stored in the snapshot.
    pub fn cuboid_keys(&self) -> impl Iterator<Item = &CuboidKey> {
        self.container.cuboid_sections().map(|(key, _)| key)
    }

    /// Number of cuboid sections.
    pub fn num_cuboids(&self) -> usize {
        self.container.cuboid_sections().count()
    }

    /// Read → CRC → structural validation of one cuboid section.
    fn load_section(&self, desc: &SectionDesc) -> Result<ColumnarSection, SnapshotError> {
        ColumnarSection::validate(
            self.container.section_bytes(desc)?,
            &self.strings,
            self.shell.schema(),
            &section_label(desc),
        )
    }

    /// Load one cuboid as a validated columnar section (`Ok(None)` when
    /// the snapshot holds no cuboid at `key`). Integrity is verified
    /// against the section CRC, then structurally, on every load.
    pub fn load_cuboid(&self, key: &CuboidKey) -> Result<Option<ColumnarSection>, SnapshotError> {
        let Some((_, desc)) = self.container.cuboid_sections().find(|(k, _)| *k == key) else {
            return Ok(None);
        };
        let _span = flowcube_obs::span!("serve.snapshot.load_cuboid");
        flowcube_obs::counter_add("serve.snapshot.cuboid_loads", 1);
        self.load_section(desc).map(Some)
    }
}

/// Read `len` bytes of `file` at `offset`. Callers have bounds-checked
/// the range against the file's length at open; a file that shrank
/// since then surfaces as `UnexpectedEof`.
fn read_at(file: &File, offset: u64, len: u64) -> std::io::Result<Vec<u8>> {
    // Positional reads share no cursor, so readers need no lock.
    // `vec![0; n]` is `calloc`: a section-sized buffer arrives as fresh
    // zero pages, not as a second pass.
    let mut bytes = vec![0u8; len as usize];
    file.read_exact_at(&mut bytes, offset)?;
    Ok(bytes)
}

/// Copy a header slice into a fixed-size array for `from_le_bytes`.
/// The caller passes slices of exactly `N` bytes out of the fixed-length
/// header, so the length check can only fail on a programming error.
fn le_array<const N: usize>(slice: &[u8]) -> [u8; N] {
    let mut out = [0u8; N];
    out.copy_from_slice(slice);
    out
}

fn section_label(desc: &SectionDesc) -> String {
    match &desc.cuboid {
        Some(key) => format!("cuboid {:?}@{}", key.item_level, key.path_level),
        None => desc.kind.clone(),
    }
}
