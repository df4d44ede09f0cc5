//! Snapshot format contract tests.
//!
//! * property: an arbitrary small cube survives write → open → load with
//!   **byte-identical** `lookup` / `roll_up` results;
//! * snapshot writing is deterministic (same cube → same bytes);
//! * corruption (truncation, flipped bytes, unsupported format versions,
//!   wrong magic) fails with a typed [`SnapshotError`] — never a panic;
//! * v2 columnar sections: each structural corruption class (truncated
//!   section, bad section magic, misaligned region, out-of-range string
//!   id, overlapping cell ranges, bit-flip under CRC) surfaces its own
//!   typed error. The patch harness below repairs every checksum around
//!   a mutation, so the structural validator — not the CRC — must be the
//!   thing that catches it — and catches it identically at
//!   `FLOWCUBE_THREADS=1` and `=4`, as does a file that shrank under an
//!   open snapshot;
//! * golden v1 fixture: a checked-in format-1 file is refused by
//!   `Snapshot::open`, decodes through the upgrade reader to the cube it
//!   was written from, and answers queries identically once re-encoded.

use flowcube_core::{display_key, FlowCube, FlowCubeParams, ItemPlan};
use flowcube_datagen::{generate, GeneratorConfig};
use flowcube_hier::{DurationLevel, LocationCut, PathLatticeSpec, PathLevel};
use flowcube_serve::crc::crc32;
use flowcube_serve::snapshot::{SectionDesc, KIND_CUBOID};
use flowcube_serve::{
    load_v1_cube, write_snapshot, ServedCube, Snapshot, SnapshotError, FORMAT_VERSION,
};
use flowcube_testkit::temp_path;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::Mutex;

/// A small deterministic cube, varied by the inputs.
fn small_cube_threads(paths: usize, seed: u64, min_support: u64, threads: usize) -> FlowCube {
    let db = generate(&GeneratorConfig::small(paths, seed)).db;
    FlowCube::build(
        &db,
        PathLatticeSpec::paper(db.schema().locations(), 2),
        FlowCubeParams::new(min_support).with_threads(threads),
        ItemPlan::All,
    )
}

fn small_cube(paths: usize, seed: u64, min_support: u64) -> FlowCube {
    small_cube_threads(paths, seed, min_support, 1)
}

/// Every cell's `lookup` route plus a dim-0 `roll_up` target, named
/// through the cube's schema: the fingerprint of a cube's navigation.
/// What the cells hold is [`FlowCube::ensure_same`]'s to check.
fn query_fingerprint(cube: &FlowCube) -> Vec<String> {
    let mut out = Vec::new();
    for (ck, keys) in cube.all_cells() {
        for key in keys {
            let lk = cube.lookup(&key, ck.path_level).expect("cell exists");
            out.push(format!(
                "{}@{}:{} support={}",
                display_key(&key, cube.schema()),
                ck.path_level,
                lk.exact,
                lk.entry.support
            ));
            match cube.roll_up(&key, 0, ck.path_level) {
                Some((parent, entry)) => out.push(format!(
                    "rollup {} -> {} support={}",
                    display_key(&key, cube.schema()),
                    display_key(&parent, cube.schema()),
                    entry.support
                )),
                None => out.push(format!(
                    "rollup {} -> none",
                    display_key(&key, cube.schema())
                )),
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// write → open → load round-trips to byte-identical query results.
    #[test]
    fn roundtrip_preserves_queries(
        paths in 40usize..160,
        seed in 0u64..1000,
        min_support in 4u64..20,
    ) {
        let cube = small_cube(paths, seed, min_support);
        let path = temp_path(&format!("rt-{paths}-{seed}-{min_support}.snap"));
        write_snapshot(&cube, &path).expect("write");

        let snap = Snapshot::open(&path).expect("open");
        prop_assert_eq!(snap.num_cuboids(), cube.num_cuboids());
        let loaded = ServedCube::from_snapshot(snap).folded_cube().expect("load");
        prop_assert_eq!(loaded.num_cuboids(), cube.num_cuboids());
        loaded.ensure_same(&cube)?;
        prop_assert_eq!(query_fingerprint(&loaded), query_fingerprint(&cube));
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn snapshot_bytes_are_deterministic() {
    let cube = small_cube(80, 7, 8);
    let a = temp_path("det-a.snap");
    let b = temp_path("det-b.snap");
    write_snapshot(&cube, &a).expect("write a");
    write_snapshot(&cube, &b).expect("write b");
    assert_eq!(
        std::fs::read(&a).unwrap(),
        std::fs::read(&b).unwrap(),
        "same cube must produce identical snapshot bytes"
    );
    let _ = std::fs::remove_file(&a);
    let _ = std::fs::remove_file(&b);
}

/// Building the same database at different thread counts must produce
/// byte-identical snapshots: the parallel build is bit-deterministic, and
/// `write_snapshot` canonicalizes away the thread knob and the timings.
#[test]
fn snapshot_bytes_identical_across_thread_counts() {
    let bytes = |threads| {
        let p = temp_path(&format!("threads-{threads}.snap"));
        write_snapshot(&small_cube_threads(90, 13, 8, threads), &p).expect("write");
        let bytes = std::fs::read(&p).unwrap();
        let _ = std::fs::remove_file(&p);
        bytes
    };
    let reference = bytes(1);
    for threads in [2usize, 7] {
        assert_eq!(
            bytes(threads),
            reference,
            "snapshot built with {threads} threads differs from serial"
        );
    }
}

/// Every truncation point of the file fails with a typed error, not a
/// panic (and certainly not a silently short cube).
#[test]
fn truncation_fails_cleanly() {
    let cube = small_cube(60, 3, 6);
    let path = temp_path("trunc.snap");
    write_snapshot(&cube, &path).expect("write");
    let full = std::fs::read(&path).unwrap();

    // A spread of cut points: inside magic, header, index, payloads.
    let cuts = [0, 4, 8, 11, 16, 23, 40, full.len() / 2, full.len() - 1];
    for cut in cuts {
        let t = temp_path(&format!("trunc-{cut}.snap"));
        std::fs::write(&t, &full[..cut]).unwrap();
        let result = Snapshot::open(&t).and_then(|s| ServedCube::from_snapshot(s).folded_cube());
        assert!(
            result.is_err(),
            "truncation at {cut}/{} bytes must fail",
            full.len()
        );
        let _ = std::fs::remove_file(&t);
    }
    let _ = std::fs::remove_file(&path);
}

/// A flipped byte anywhere in the data region is caught by a section CRC.
#[test]
fn corrupted_payload_is_detected() {
    let cube = small_cube(60, 4, 6);
    let path = temp_path("crc.snap");
    write_snapshot(&cube, &path).expect("write");
    let full = std::fs::read(&path).unwrap();

    // Flip one byte in several spots of the payload region (the tail of
    // the file is cuboid payloads; the area right after the header is
    // the index).
    for frac in [3, 2] {
        let pos = full.len() - full.len() / frac - 1;
        let mut bad = full.clone();
        bad[pos] ^= 0x40;
        let t = temp_path(&format!("crc-{frac}.snap"));
        std::fs::write(&t, &bad).unwrap();
        let result = Snapshot::open(&t).and_then(|s| {
            // Either open itself (metadata/index) or a cuboid load must
            // notice the flip.
            ServedCube::from_snapshot(s).folded_cube()
        });
        match result {
            Err(SnapshotError::ChecksumMismatch { .. })
            | Err(SnapshotError::Corrupt { .. })
            | Err(SnapshotError::Truncated { .. }) => {}
            other => panic!("flipped byte at {pos} not detected: {other:?}"),
        }
        let _ = std::fs::remove_file(&t);
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn future_version_is_rejected() {
    let cube = small_cube(50, 5, 6);
    let path = temp_path("ver.snap");
    write_snapshot(&cube, &path).expect("write");
    let mut bytes = std::fs::read(&path).unwrap();
    // Bytes 8..12 are the little-endian format version.
    bytes[8..12].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();
    match Snapshot::open(&path).map(|_| ()) {
        Err(SnapshotError::UnsupportedVersion { found, supported }) => {
            assert_eq!(found, FORMAT_VERSION + 1);
            assert_eq!(supported, FORMAT_VERSION);
        }
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn wrong_magic_is_rejected() {
    let path = temp_path("magic.snap");
    std::fs::write(&path, b"NOTACUBExxxxxxxxxxxxxxxxxxxxxxxx").unwrap();
    assert!(matches!(
        Snapshot::open(&path),
        Err(SnapshotError::BadMagic)
    ));
    let _ = std::fs::remove_file(&path);
}

/// Version 0 never existed; like any version other than
/// `FORMAT_VERSION` it is rejected at `open` with both sides of the
/// negotiation in the error.
#[test]
fn version_zero_is_rejected() {
    let cube = small_cube(50, 5, 6);
    let path = temp_path("ver0.snap");
    write_snapshot(&cube, &path).expect("write");
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[8..12].copy_from_slice(&0u32.to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();
    match Snapshot::open(&path).map(|_| ()) {
        Err(SnapshotError::UnsupportedVersion { found, supported }) => {
            assert_eq!(found, 0);
            assert_eq!(supported, FORMAT_VERSION);
        }
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
    let _ = std::fs::remove_file(&path);
}

// ---------------------------------------------------------------------------
// v2 columnar corruption classes
// ---------------------------------------------------------------------------

/// Fixed container header length (magic + version + index len + index CRC).
const HEADER_LEN: usize = 24;

/// Parse the container: the section index and the data-region offset.
fn parse_container(full: &[u8]) -> (Vec<SectionDesc>, usize) {
    let index_len = u64::from_le_bytes(full[12..20].try_into().unwrap()) as usize;
    let text = std::str::from_utf8(&full[HEADER_LEN..HEADER_LEN + index_len]).unwrap();
    let index: Vec<SectionDesc> = serde_json::from_str(text).unwrap();
    (index, HEADER_LEN + index_len)
}

/// Rebuild a snapshot around one mutated section payload, **repairing
/// every checksum**: the section's CRC in the index, the re-serialized
/// index, and the header's index length + CRC. The only inconsistency
/// left in the file is the mutation itself, so the structural validator
/// — not a checksum — is what must catch it.
fn rebuild_with_patched_section(
    full: &[u8],
    target: usize,
    mutate: impl FnOnce(&mut Vec<u8>),
) -> Vec<u8> {
    let (mut index, data_start) = parse_container(full);
    let mut payloads: Vec<Vec<u8>> = index
        .iter()
        .map(|d| {
            full[data_start + d.offset as usize..data_start + (d.offset + d.len) as usize].to_vec()
        })
        .collect();
    mutate(&mut payloads[target]);
    let mut offset = 0u64;
    for (d, p) in index.iter_mut().zip(&payloads) {
        d.offset = offset;
        d.len = p.len() as u64;
        d.crc = crc32(p);
        offset += d.len;
    }
    let index_bytes = serde_json::to_string(&index).unwrap().into_bytes();
    let mut out = Vec::with_capacity(full.len());
    out.extend_from_slice(&full[..12]);
    out.extend_from_slice(&(index_bytes.len() as u64).to_le_bytes());
    out.extend_from_slice(&crc32(&index_bytes).to_le_bytes());
    out.extend_from_slice(&index_bytes);
    for p in &payloads {
        out.extend_from_slice(p);
    }
    out
}

/// Run `check` with the reader's thread count (an opened snapshot's is
/// auto, so `FLOWCUBE_THREADS`) at 1 and at 4: sections are verified one
/// after another, then four at a time, and the outcome — which error,
/// naming which section — must not know the difference.
fn at_1_and_4_threads<R: PartialEq + std::fmt::Debug>(check: impl Fn() -> R) -> R {
    const VAR: &str = "FLOWCUBE_THREADS";
    static ENV: Mutex<()> = Mutex::new(());
    let _guard = ENV.lock().unwrap_or_else(|e| e.into_inner());
    let before = std::env::var_os(VAR);
    std::env::set_var(VAR, "1");
    let serial = check();
    std::env::set_var(VAR, "4");
    let parallel = check();
    match before {
        Some(value) => std::env::set_var(VAR, value),
        None => std::env::remove_var(VAR),
    }
    assert_eq!(serial, parallel, "the thread count reached the result");
    serial
}

/// Write `bytes` to a temp file, open it, and exhaustively verify it —
/// the hot-reload admission path, and the one that must reject every
/// corruption class below with a typed error instead of a panic.
fn open_and_verify(bytes: &[u8], name: &str) -> Result<(), SnapshotError> {
    let p = temp_path(name);
    std::fs::write(&p, bytes).unwrap();
    let r = at_1_and_4_threads(|| Snapshot::open(&p).and_then(|s| s.verify_all()));
    let _ = std::fs::remove_file(&p);
    r
}

/// A v2 snapshot's bytes, plus the index position of a cuboid section
/// holding at least `min_cells` cells (every class below needs real rows
/// to corrupt).
fn v2_bytes_with_cuboid(name: &str, min_cells: u64) -> (Vec<u8>, usize) {
    let cube = small_cube(120, 11, 4);
    let p = temp_path(name);
    write_snapshot(&cube, &p).expect("write");
    let full = std::fs::read(&p).unwrap();
    let _ = std::fs::remove_file(&p);
    let (index, data_start) = parse_container(&full);
    let target = index
        .iter()
        .position(|d| {
            d.kind == KIND_CUBOID && d.len >= 128 && {
                let off = data_start + d.offset as usize;
                u64::from_le_bytes(full[off + 8..off + 16].try_into().unwrap()) >= min_cells
            }
        })
        .expect("a cuboid section with enough cells");
    (full, target)
}

/// Read a u64 field out of a cuboid section payload's fixed header.
fn hdr_u64(payload: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(payload[off..off + 8].try_into().unwrap())
}

/// Class 1 — truncation at a section boundary: the payload ends before
/// its own fixed header. CRCs all agree, so only structural validation
/// can notice.
#[test]
fn v2_truncated_cuboid_section_is_typed() {
    let (full, target) = v2_bytes_with_cuboid("c1-base.snap", 1);
    let bad = rebuild_with_patched_section(&full, target, |p| p.truncate(100));
    match open_and_verify(&bad, "c1.snap") {
        Err(SnapshotError::Truncated { .. }) => {}
        other => panic!("expected Truncated, got {other:?}"),
    }
}

/// Class 2 — bad inner section magic: the container is fine but the
/// cuboid payload does not start with `FCC2`.
#[test]
fn v2_bad_section_magic_is_typed() {
    let (full, target) = v2_bytes_with_cuboid("c2-base.snap", 1);
    let bad = rebuild_with_patched_section(&full, target, |p| p[..4].copy_from_slice(b"XXXX"));
    match open_and_verify(&bad, "c2.snap") {
        Err(SnapshotError::Corrupt { detail }) => {
            assert!(detail.contains("magic"), "got {detail:?}")
        }
        other => panic!("expected Corrupt, got {other:?}"),
    }
}

/// Class 3 — misaligned region offset: `keys_off` nudged off its 8-byte
/// boundary. Rejecting this keeps every in-place accessor's arithmetic
/// honest.
#[test]
fn v2_misaligned_region_offset_is_typed() {
    let (full, target) = v2_bytes_with_cuboid("c3-base.snap", 1);
    let bad = rebuild_with_patched_section(&full, target, |p| {
        let keys_off = hdr_u64(p, 16);
        p[16..24].copy_from_slice(&(keys_off + 4).to_le_bytes());
    });
    match open_and_verify(&bad, "c3.snap") {
        Err(SnapshotError::Misaligned { what, .. }) => {
            assert!(what.contains("keys"), "got {what:?}")
        }
        other => panic!("expected Misaligned, got {other:?}"),
    }
}

/// Class 4 — out-of-bounds string-table id: a cell key's interned name
/// id points past the shared table.
#[test]
fn v2_out_of_bounds_string_id_is_typed() {
    let (full, target) = v2_bytes_with_cuboid("c4-base.snap", 1);
    let bad = rebuild_with_patched_section(&full, target, |p| {
        let keys_off = hdr_u64(p, 16) as usize;
        p[keys_off..keys_off + 4].copy_from_slice(&0xFFFF_FF00u32.to_le_bytes());
    });
    match open_and_verify(&bad, "c4.snap") {
        Err(SnapshotError::OutOfBounds { what, .. }) => {
            assert!(what.contains("string id"), "got {what:?}")
        }
        other => panic!("expected OutOfBounds, got {other:?}"),
    }
}

/// Class 5 — overlapping cell ranges: the second cell's flowgraph rows
/// are re-pointed at the first cell's. Disjointness is what lets the
/// reader treat the node table as per-cell without a reference count.
#[test]
fn v2_overlapping_cell_ranges_is_typed() {
    let (full, target) = v2_bytes_with_cuboid("c5-base.snap", 2);
    let bad = rebuild_with_patched_section(&full, target, |p| {
        let cells_off = hdr_u64(p, 24) as usize;
        // Second cell row (40 bytes per row), gstart field at +16.
        let gstart = cells_off + 40 + 16;
        p[gstart..gstart + 8].copy_from_slice(&0u64.to_le_bytes());
    });
    match open_and_verify(&bad, "c5.snap") {
        Err(SnapshotError::Overlapping { what, .. }) => {
            assert!(what.contains("node rows"), "got {what:?}")
        }
        other => panic!("expected Overlapping, got {other:?}"),
    }
}

/// Class 6 — a bit-flip *without* checksum repair is still the CRC's
/// job: the structural validator never even runs.
#[test]
fn v2_bit_flip_under_crc_is_typed() {
    let (full, target) = v2_bytes_with_cuboid("c6-base.snap", 1);
    let (index, data_start) = parse_container(&full);
    let mut bad = full.clone();
    bad[data_start + index[target].offset as usize + 64] ^= 0x01;
    match open_and_verify(&bad, "c6.snap") {
        Err(SnapshotError::ChecksumMismatch { section }) => {
            assert!(section.contains("cuboid"), "got {section:?}")
        }
        other => panic!("expected ChecksumMismatch, got {other:?}"),
    }
}

/// A spec section that lists one path level twice, with every checksum
/// repaired: the spec is checked as it is decoded, so `open` returns the
/// typed error instead of handing mining a lattice it would recurse on
/// until the stack overflowed.
#[test]
fn spec_section_with_a_repeated_level_is_typed() {
    let (full, _) = v2_bytes_with_cuboid("spec-base.snap", 1);
    let (index, _) = parse_container(&full);
    let target = index
        .iter()
        .position(|d| d.kind == "spec")
        .expect("a spec section");
    let bad = rebuild_with_patched_section(&full, target, |p| {
        let mut spec = serde_json::parse_value_str(std::str::from_utf8(p).unwrap()).unwrap();
        let serde_json::Value::Object(fields) = &mut spec else {
            panic!("the spec is an object")
        };
        let (_, serde_json::Value::Array(levels)) = &mut fields[0] else {
            panic!("its one field is the level list")
        };
        levels.push(levels[0].clone());
        *p = serde_json::to_string(&spec).unwrap().into_bytes();
    });
    match open_and_verify(&bad, "spec.snap") {
        Err(SnapshotError::Corrupt { detail }) => {
            assert!(detail.contains("same level"), "got {detail:?}")
        }
        other => panic!("expected Corrupt, got {other:?}"),
    }
}

/// A file cut short *after* `open` admitted its index: every section
/// past the cut is a short read for whichever worker hydrates it. Typed
/// error, the same one at any thread count, never a panic.
#[test]
fn file_truncated_under_an_open_snapshot_is_typed() {
    let cube = small_cube(120, 11, 4);
    let p = temp_path("shrunk.snap");
    write_snapshot(&cube, &p).expect("write");
    let snapshot = Snapshot::open(&p).expect("open");
    assert!(snapshot.num_cuboids() > 8, "enough sections to fan out");
    let served = ServedCube::from_snapshot(Snapshot::open(&p).expect("open"));
    let len = std::fs::metadata(&p).unwrap().len();
    let file = std::fs::OpenOptions::new().write(true).open(&p).unwrap();
    file.set_len(len * 2 / 3).expect("truncate in place");
    for result in [
        at_1_and_4_threads(|| snapshot.verify_all()),
        at_1_and_4_threads(|| served.folded_cube().map(drop)),
    ] {
        match result {
            Err(SnapshotError::Io { .. }) | Err(SnapshotError::Truncated { .. }) => {}
            other => panic!("expected Io or Truncated, got {other:?}"),
        }
    }
    let _ = std::fs::remove_file(&p);
}

// ---------------------------------------------------------------------------
// Golden v1 fixture
// ---------------------------------------------------------------------------

/// The cube the checked-in v1 fixture was written from. The fixture is
/// frozen: this build has no v1 writer to regenerate it with.
fn golden_cube() -> FlowCube {
    let db = generate(&GeneratorConfig::small(30, 1)).db;
    let loc = db.schema().locations();
    let fine = LocationCut::uniform_level(loc, loc.max_level());
    // Hand-built, not `paper(_, 2)`: the fixture stores these level names.
    let spec = PathLatticeSpec::new(vec![
        PathLevel::new("fine", fine.clone(), DurationLevel::Raw),
        PathLevel::new("fine/any", fine, DurationLevel::Any),
    ]);
    FlowCube::build(
        &db,
        spec,
        FlowCubeParams::new(4).with_threads(1),
        ItemPlan::All,
    )
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden_v1.snap")
}

/// Compatibility contract for the checked-in v1 file: serving refuses it
/// with the typed version error, the upgrade reader decodes it to the
/// cube it was written from, and the v2 re-encode of that cube answers
/// the same queries. (Its endpoint answers are checked against the core
/// reference in `tests/snapshot_differential.rs`.)
#[test]
fn golden_v1_fixture_is_upgrade_only() {
    match Snapshot::open(golden_path()).map(|_| ()) {
        Err(SnapshotError::UnsupportedVersion { found, supported }) => {
            assert_eq!((found, supported), (1, FORMAT_VERSION));
        }
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }

    let cube = load_v1_cube(golden_path()).expect("load golden v1");
    let golden = golden_cube();
    let want = query_fingerprint(&golden);
    cube.ensure_same(&golden).unwrap_or_else(|d| panic!("{d}"));
    assert_eq!(query_fingerprint(&cube), want);

    let v2 = temp_path("golden-v2.snap");
    write_snapshot(&cube, &v2).expect("write v2");
    let loaded_v2 = ServedCube::from_snapshot(Snapshot::open(&v2).expect("open v2"))
        .folded_cube()
        .expect("load v2");
    loaded_v2
        .ensure_same(&golden)
        .unwrap_or_else(|d| panic!("{d}"));
    assert_eq!(query_fingerprint(&loaded_v2), want);
    // The upgrade reader reads format 1 and nothing else.
    assert!(matches!(
        load_v1_cube(&v2),
        Err(SnapshotError::UnsupportedVersion { found: 2, .. })
    ));
    let _ = std::fs::remove_file(&v2);
}
