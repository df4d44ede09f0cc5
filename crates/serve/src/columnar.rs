//! FCUBSNAP v2 columnar cuboid sections: flat, offset-indexed layouts
//! queried in place.
//!
//! A heap [`Cuboid`] is pointer-heavy `HashMap` cells — O(cells)
//! allocations to build. A section stores the same information as
//! fixed-width little-endian tables addressed by a string table (the
//! snapshot's shared one, or a delta-patched section's own), so a
//! section loaded into a `Vec<u8>` (or mmap'd) buffer is
//! queryable *as bytes*: probing a cell is a binary search over the key
//! column, walking a flowgraph is index arithmetic over a
//! struct-of-arrays node table, and nothing per-cell is ever allocated.
//!
//! ## String table section (`kind = "strings"`, one per snapshot)
//!
//! All dimension-value and location names referenced by any cuboid
//! section, sorted lexicographically; ids are positions in that order.
//!
//! ```text
//! offset  size        field
//! 0       4           string count N, u32 LE
//! 4       4           blob length in bytes, u32 LE
//! 8       8·N         per string: byte offset u32, byte length u32
//! 8+8N    blob        concatenated UTF-8 names
//! ```
//!
//! ## Cuboid section (v2)
//!
//! A 128-byte header followed by eight regions. Every region offset is
//! relative to the section start and 8-byte aligned (zero padding in the
//! gaps); all integers are little-endian.
//!
//! ```text
//! header:
//! 0    4  magic b"FCC2"          4    4  num_dims u32
//! 8    8  cell_count             16   8  keys region offset
//! 24   8  cells region offset    32   8  nodes region offset
//! 40   8  node_count             48   8  children region offset
//! 56   8  child_count            64   8  durations region offset
//! 72   8  duration_count         80   8  exceptions region offset
//! 88   8  exception_count        96   8  conditions region offset
//! 104  8  condition_count        112  8  observations region offset
//! 120  8  observation_count
//!
//! keys    cell_count × num_dims × u32   string ids; rows strictly
//!                                       ascending lexicographically
//! cells   cell_count × 40 bytes         support u64 · total_paths u64 ·
//!                                       gstart u64 · gcount u32 ·
//!                                       estart u32 · ecount u32 · flags u32
//! nodes   node_count × 48 bytes         loc sid u32 · parent u32 (local) ·
//!                                       count u64 · terminate u64 ·
//!                                       first_child u64 · dur_off u64 ·
//!                                       child_count u32 · dur_count u32
//! children  child_count × u32           local node indices
//! durs    duration_count × 16 bytes     key u32 (0xFFFFFFFF = None) ·
//!                                       pad u32 · count u64
//! excs    exception_count × 48 bytes    node u32 (local) · kind u32
//!                                       (0 duration / 1 transition) ·
//!                                       support u64 · deviation f64 ·
//!                                       cond_off u64 · obs_off u64 ·
//!                                       cond_count u32 · obs_count u32
//! conds   condition_count × 8 bytes     node u32 (local) · duration u32
//! obs     observation_count × 16 bytes  key u32 (duration, or location
//!                                       sid; 0xFFFFFFFF = None) ·
//!                                       pad u32 · count u64
//! ```
//!
//! Each cell owns the contiguous node rows `[gstart, gstart + gcount)`
//! — its flowgraph in canonical pre-order (local index 0 is the virtual
//! root) — and the exception rows `[estart, estart + ecount)`. `parent`,
//! `children` values, and exception `node`s are *local* indices within
//! the owning cell's graph, so they coincide with the in-memory
//! [`flowcube_flowgraph::NodeId`] numbering.
//!
//! [`ColumnarSection::validate`] performs one full structural pass
//! (bounds, alignment, ordering, range disjointness, string-id
//! resolution) with typed [`SnapshotError`]s; after it succeeds every
//! accessor is infallible, which is what lets the query path stay
//! panic-free without per-access checks.

use crate::error::SnapshotError;
use flowcube_core::{CellEntry, CellKey, CellStats, Cuboid, CuboidRead};
use flowcube_flowgraph::{
    CountDist, Exception, ExceptionDetail, FlowGraph, GraphRead, NodeId, NodeSpec,
};
use flowcube_hier::{ConceptId, DurValue, FxHashMap, Schema};
use std::sync::Arc;

/// First 4 bytes of every v2 cuboid section.
pub const CUBOID_MAGIC: [u8; 4] = *b"FCC2";
/// Fixed-size cuboid-section header.
pub const CUBOID_HEADER_LEN: usize = 128;

const CELL_ROW: usize = 40;
const NODE_ROW: usize = 48;
const CHILD_ROW: usize = 4;
const DUR_ROW: usize = 16;
const EXC_ROW: usize = 48;
const COND_ROW: usize = 8;
const OBS_ROW: usize = 16;

/// Key sentinel for `None` (a terminating transition, or an absent
/// duration) in duration / observation rows.
pub const NONE_SENTINEL: u32 = u32::MAX;

const KIND_DURATION: u32 = 0;
const KIND_TRANSITION: u32 = 1;

fn align8(x: usize) -> usize {
    (x + 7) & !7
}

fn u32_at(b: &[u8], off: usize) -> u32 {
    let mut a = [0u8; 4];
    a.copy_from_slice(&b[off..off + 4]);
    u32::from_le_bytes(a)
}

fn u64_at(b: &[u8], off: usize) -> u64 {
    let mut a = [0u8; 8];
    a.copy_from_slice(&b[off..off + 8]);
    u64::from_le_bytes(a)
}

fn f64_at(b: &[u8], off: usize) -> f64 {
    f64::from_bits(u64_at(b, off))
}

fn put_u32(b: &mut Vec<u8>, v: u32) {
    b.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(b: &mut Vec<u8>, v: u64) {
    b.extend_from_slice(&v.to_le_bytes());
}

fn corrupt(section: &str, detail: impl Into<String>) -> SnapshotError {
    SnapshotError::Corrupt {
        detail: format!("{section}: {}", detail.into()),
    }
}

// ---------------------------------------------------------------------------
// String table
// ---------------------------------------------------------------------------

/// The shared name-interning table of a v2 snapshot: every dimension
/// value and location name referenced by any cuboid section, sorted
/// lexicographically. Ids are positions in sorted order, so the table —
/// and every section referencing it — is a pure function of the cube.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StringTable {
    names: Vec<String>,
}

impl StringTable {
    /// Intern every name the sections encoding `cuboids` will reference.
    pub fn from_cuboids<'a>(
        schema: &Schema,
        cuboids: impl IntoIterator<Item = &'a Cuboid>,
    ) -> StringTable {
        let loc = schema.locations();
        let mut names: Vec<String> = Vec::new();
        for cuboid in cuboids {
            for (key, entry) in cuboid.iter() {
                for (d, &c) in key.iter().enumerate() {
                    names.push(schema.dim(d as u8).name_of(c).to_string());
                }
                let g = &entry.graph;
                for n in g.node_ids() {
                    names.push(loc.name_of(g.location(n)).to_string());
                }
                for e in &entry.exceptions {
                    if let ExceptionDetail::Transition { observed } = &e.detail {
                        for (k, _) in observed.iter() {
                            if let Some(c) = k {
                                names.push(loc.name_of(c).to_string());
                            }
                        }
                    }
                }
            }
        }
        names.sort_unstable();
        names.dedup();
        StringTable { names }
    }

    pub fn len(&self) -> usize {
        self.names.len()
    }

    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Id of a name (binary search; the table is sorted).
    pub fn id_of(&self, name: &str) -> Option<u32> {
        self.names
            .binary_search_by(|n| n.as_str().cmp(name))
            .ok()
            .map(|i| i as u32)
    }

    /// Name of an id.
    pub fn get(&self, id: u32) -> Option<&str> {
        self.names.get(id as usize).map(String::as_str)
    }

    /// Serialize into the `strings` section payload.
    pub fn encode(&self) -> Vec<u8> {
        let blob_len: usize = self.names.iter().map(String::len).sum();
        let mut out = Vec::with_capacity(8 + self.names.len() * 8 + blob_len);
        put_u32(&mut out, self.names.len() as u32);
        put_u32(&mut out, blob_len as u32);
        let mut off = 0u32;
        for n in &self.names {
            put_u32(&mut out, off);
            put_u32(&mut out, n.len() as u32);
            off += n.len() as u32;
        }
        for n in &self.names {
            out.extend_from_slice(n.as_bytes());
        }
        out
    }

    /// Decode a `strings` section payload with full structural checks.
    pub fn decode(bytes: &[u8]) -> Result<StringTable, SnapshotError> {
        const SEC: &str = "strings section";
        if bytes.len() < 8 {
            return Err(SnapshotError::Truncated {
                what: "strings section header",
            });
        }
        let count = u32_at(bytes, 0) as usize;
        let blob_len = u32_at(bytes, 4) as usize;
        let dir_end = 8 + count
            .checked_mul(8)
            .ok_or_else(|| corrupt(SEC, "count overflow"))?;
        let blob_start = dir_end;
        if blob_start + blob_len != bytes.len() {
            return Err(SnapshotError::OutOfBounds {
                section: SEC.into(),
                what: format!(
                    "directory + blob ({} bytes) disagree with payload length {}",
                    blob_start + blob_len,
                    bytes.len()
                ),
            });
        }
        let blob = &bytes[blob_start..];
        let mut names = Vec::with_capacity(count);
        for i in 0..count {
            let off = u32_at(bytes, 8 + i * 8) as usize;
            let len = u32_at(bytes, 8 + i * 8 + 4) as usize;
            let end = off
                .checked_add(len)
                .ok_or_else(|| corrupt(SEC, "string bounds overflow"))?;
            if end > blob_len {
                return Err(SnapshotError::OutOfBounds {
                    section: SEC.into(),
                    what: format!("string {i} spans {off}..{end} past blob length {blob_len}"),
                });
            }
            let s = std::str::from_utf8(&blob[off..end])
                .map_err(|_| corrupt(SEC, format!("string {i} is not UTF-8")))?;
            names.push(s.to_string());
        }
        if !names.windows(2).all(|w| w[0] < w[1]) {
            return Err(corrupt(SEC, "names not strictly sorted"));
        }
        Ok(StringTable { names })
    }
}

/// The string table plus its resolution against a concrete schema:
/// `ConceptId ↔ string id` translation per dimension hierarchy and for
/// the location hierarchy. Built once at snapshot open — O(distinct
/// names), never O(cells) — so the query path translates ids with hash
/// lookups and array indexing only.
#[derive(Debug)]
pub struct StringsCtx {
    pub table: StringTable,
    /// Per dimension: concept → string id (only names present in the table).
    dim_to_sid: Vec<FxHashMap<ConceptId, u32>>,
    /// Per dimension: string id → concept, `None` when the name is not a
    /// concept of that hierarchy.
    sid_to_dim: Vec<Vec<Option<ConceptId>>>,
    loc_to_sid: FxHashMap<ConceptId, u32>,
    sid_to_loc: Vec<Option<ConceptId>>,
}

impl StringsCtx {
    pub fn new(table: StringTable, schema: &Schema) -> StringsCtx {
        let dims = schema.num_dims();
        let n = table.len();
        let mut dim_to_sid = vec![FxHashMap::default(); dims];
        let mut sid_to_dim = vec![vec![None; n]; dims];
        let mut loc_to_sid = FxHashMap::default();
        let mut sid_to_loc = vec![None; n];
        for (sid, name) in table.names.iter().enumerate() {
            for d in 0..dims {
                if let Ok(c) = schema.dim(d as u8).id_of(name) {
                    dim_to_sid[d].insert(c, sid as u32);
                    sid_to_dim[d][sid] = Some(c);
                }
            }
            if let Ok(c) = schema.locations().id_of(name) {
                loc_to_sid.insert(c, sid as u32);
                sid_to_loc[sid] = Some(c);
            }
        }
        StringsCtx {
            table,
            dim_to_sid,
            sid_to_dim,
            loc_to_sid,
            sid_to_loc,
        }
    }

    /// Translate a query key into string-id space; `None` when some
    /// coordinate's name was never interned (the cell cannot exist in
    /// any section of this snapshot).
    pub fn sids_of_key(&self, key: &[ConceptId]) -> Option<Vec<u32>> {
        key.iter()
            .enumerate()
            .map(|(d, c)| self.dim_to_sid.get(d)?.get(c).copied())
            .collect()
    }

    fn dim_concept(&self, d: usize, sid: u32) -> Option<ConceptId> {
        *self.sid_to_dim.get(d)?.get(sid as usize)?
    }

    fn loc_concept(&self, sid: u32) -> Option<ConceptId> {
        *self.sid_to_loc.get(sid as usize)?
    }

    fn loc_sid(&self, c: ConceptId) -> Option<u32> {
        self.loc_to_sid.get(&c).copied()
    }
}

// ---------------------------------------------------------------------------
// Encoder
// ---------------------------------------------------------------------------

/// Serialize one cuboid into a v2 section payload. Cells are written in
/// ascending string-id key order and graphs in their stored (canonical)
/// node order, so the encoding is a pure function of the cuboid's
/// content — the determinism the differential suite pins down.
pub fn encode_cuboid(
    cuboid: &Cuboid,
    schema: &Schema,
    strings: &StringTable,
) -> Result<Vec<u8>, SnapshotError> {
    const SEC: &str = "cuboid section";
    let dims = schema.num_dims();
    let loc = schema.locations();
    let sid_of = |name: &str| {
        strings
            .id_of(name)
            .ok_or_else(|| corrupt(SEC, format!("name {name:?} missing from string table")))
    };

    let mut rows: Vec<(Vec<u32>, &CellKey, &CellEntry)> = Vec::with_capacity(cuboid.len());
    for (key, entry) in cuboid.iter() {
        let mut sids = Vec::with_capacity(dims);
        for (d, &c) in key.iter().enumerate() {
            sids.push(sid_of(schema.dim(d as u8).name_of(c))?);
        }
        rows.push((sids, key, entry));
    }
    rows.sort_unstable_by(|a, b| a.0.cmp(&b.0));

    // Count everything up front so region offsets are known.
    let cell_count = rows.len();
    let mut node_count = 0usize;
    let mut child_count = 0usize;
    let mut dur_count = 0usize;
    let mut exc_count = 0usize;
    let mut cond_count = 0usize;
    let mut obs_count = 0usize;
    for (_, _, entry) in &rows {
        let g = &entry.graph;
        node_count += g.len();
        for n in g.node_ids() {
            child_count += g.children(n).len();
            dur_count += g.durations(n).support_size();
        }
        exc_count += entry.exceptions.len();
        for e in &entry.exceptions {
            cond_count += e.condition.len();
            obs_count += match &e.detail {
                ExceptionDetail::Duration { observed } => observed.support_size(),
                ExceptionDetail::Transition { observed } => observed.support_size(),
            };
        }
    }

    let keys_off = CUBOID_HEADER_LEN;
    let cells_off = align8(keys_off + cell_count * dims * 4);
    let nodes_off = align8(cells_off + cell_count * CELL_ROW);
    let children_off = align8(nodes_off + node_count * NODE_ROW);
    let durs_off = align8(children_off + child_count * CHILD_ROW);
    let exc_off = align8(durs_off + dur_count * DUR_ROW);
    let cond_off = align8(exc_off + exc_count * EXC_ROW);
    let obs_off = align8(cond_off + cond_count * COND_ROW);
    let total = align8(obs_off + obs_count * OBS_ROW);

    let mut hdr = Vec::with_capacity(CUBOID_HEADER_LEN);
    hdr.extend_from_slice(&CUBOID_MAGIC);
    put_u32(&mut hdr, dims as u32);
    put_u64(&mut hdr, cell_count as u64);
    for v in [
        keys_off as u64,
        cells_off as u64,
        nodes_off as u64,
        node_count as u64,
        children_off as u64,
        child_count as u64,
        durs_off as u64,
        dur_count as u64,
        exc_off as u64,
        exc_count as u64,
        cond_off as u64,
        cond_count as u64,
        obs_off as u64,
        obs_count as u64,
    ] {
        put_u64(&mut hdr, v);
    }

    let mut keys = Vec::with_capacity(cell_count * dims * 4);
    let mut cells = Vec::with_capacity(cell_count * CELL_ROW);
    let mut nodes = Vec::with_capacity(node_count * NODE_ROW);
    let mut children = Vec::with_capacity(child_count * CHILD_ROW);
    let mut durs = Vec::with_capacity(dur_count * DUR_ROW);
    let mut excs = Vec::with_capacity(exc_count * EXC_ROW);
    let mut conds = Vec::with_capacity(cond_count * COND_ROW);
    let mut obs = Vec::with_capacity(obs_count * OBS_ROW);

    let encode_dur_key = |d: DurValue| -> Result<u32, SnapshotError> {
        match d {
            None => Ok(NONE_SENTINEL),
            Some(v) if v == NONE_SENTINEL => Err(corrupt(
                SEC,
                "duration value 0xFFFFFFFF is reserved as the None sentinel",
            )),
            Some(v) => Ok(v),
        }
    };

    let (mut gcursor, mut ccursor, mut dcursor) = (0u64, 0u64, 0u64);
    let (mut ecursor, mut condcursor, mut obscursor) = (0u64, 0u64, 0u64);
    for (sids, _, entry) in &rows {
        for &sid in sids {
            put_u32(&mut keys, sid);
        }
        let g = &entry.graph;
        // Cell row.
        put_u64(&mut cells, entry.support);
        put_u64(&mut cells, g.total_paths());
        put_u64(&mut cells, gcursor);
        put_u32(&mut cells, g.len() as u32);
        put_u32(&mut cells, ecursor as u32);
        put_u32(&mut cells, entry.exceptions.len() as u32);
        put_u32(&mut cells, u32::from(entry.redundant));
        // Node rows (stored order — canonical pre-order).
        for n in g.node_ids() {
            put_u32(&mut nodes, sid_of(loc.name_of(g.location(n)))?);
            put_u32(&mut nodes, g.parent(n).0);
            put_u64(&mut nodes, g.count(n));
            put_u64(&mut nodes, g.terminate_count(n));
            put_u64(&mut nodes, ccursor);
            put_u64(&mut nodes, dcursor);
            put_u32(&mut nodes, g.children(n).len() as u32);
            put_u32(&mut nodes, g.durations(n).support_size() as u32);
            for &c in g.children(n) {
                put_u32(&mut children, c.0);
                ccursor += 1;
            }
            for (d, c) in g.durations(n).iter() {
                put_u32(&mut durs, encode_dur_key(d)?);
                put_u32(&mut durs, 0);
                put_u64(&mut durs, c);
                dcursor += 1;
            }
        }
        gcursor += g.len() as u64;
        // Exception rows.
        for e in &entry.exceptions {
            let (kind, observed): (u32, Vec<(u32, u64)>) = match &e.detail {
                ExceptionDetail::Duration { observed } => {
                    let mut rows = Vec::with_capacity(observed.support_size());
                    for (k, c) in observed.iter() {
                        rows.push((encode_dur_key(k)?, c));
                    }
                    (KIND_DURATION, rows)
                }
                ExceptionDetail::Transition { observed } => {
                    let mut rows = Vec::with_capacity(observed.support_size());
                    for (k, c) in observed.iter() {
                        let sid = match k {
                            None => NONE_SENTINEL,
                            Some(c) => sid_of(loc.name_of(c))?,
                        };
                        rows.push((sid, c));
                    }
                    (KIND_TRANSITION, rows)
                }
            };
            put_u32(&mut excs, e.node.0);
            put_u32(&mut excs, kind);
            put_u64(&mut excs, e.support);
            put_u64(&mut excs, e.deviation.to_bits());
            put_u64(&mut excs, condcursor);
            put_u64(&mut excs, obscursor);
            put_u32(&mut excs, e.condition.len() as u32);
            put_u32(&mut excs, observed.len() as u32);
            for &(n, d) in &e.condition {
                put_u32(&mut conds, n.0);
                put_u32(&mut conds, d);
                condcursor += 1;
            }
            for (k, c) in observed {
                put_u32(&mut obs, k);
                put_u32(&mut obs, 0);
                put_u64(&mut obs, c);
                obscursor += 1;
            }
            ecursor += 1;
        }
    }

    let mut out = vec![0u8; total];
    out[..CUBOID_HEADER_LEN].copy_from_slice(&hdr);
    for (off, bytes) in [
        (keys_off, &keys),
        (cells_off, &cells),
        (nodes_off, &nodes),
        (children_off, &children),
        (durs_off, &durs),
        (exc_off, &excs),
        (cond_off, &conds),
        (obs_off, &obs),
    ] {
        out[off..off + bytes.len()].copy_from_slice(bytes);
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Validated section + zero-copy views
// ---------------------------------------------------------------------------

#[derive(Copy, Clone, Debug)]
struct Header {
    dims: usize,
    cell_count: usize,
    keys_off: usize,
    cells_off: usize,
    nodes_off: usize,
    node_count: usize,
    children_off: usize,
    child_count: usize,
    durs_off: usize,
    dur_count: usize,
    exc_off: usize,
    exc_count: usize,
    cond_off: usize,
    cond_count: usize,
    obs_off: usize,
    obs_count: usize,
}

/// One fully validated v2 cuboid section, queryable in place. Holds the
/// raw payload and the string context its ids were validated against
/// (the snapshot's shared one, or a delta-patched section's own); every
/// accessor is pure index arithmetic over them.
/// Constructed only through [`ColumnarSection::validate`], which is the
/// single place structural errors can surface — accessors never panic
/// on a value validation admitted.
#[derive(Debug)]
pub struct ColumnarSection {
    bytes: Vec<u8>,
    hdr: Header,
    ctx: Arc<StringsCtx>,
}

impl ColumnarSection {
    /// Structurally validate a section payload against its string
    /// context and the schema's dimension count. One O(section) pass; no
    /// per-cell allocation.
    pub fn validate(
        bytes: Vec<u8>,
        ctx: &Arc<StringsCtx>,
        schema: &Schema,
        label: &str,
    ) -> Result<ColumnarSection, SnapshotError> {
        let oob = |what: String| SnapshotError::OutOfBounds {
            section: label.to_string(),
            what,
        };
        let misaligned = |what: String| SnapshotError::Misaligned {
            section: label.to_string(),
            what,
        };
        let overlap = |what: String| SnapshotError::Overlapping {
            section: label.to_string(),
            what,
        };

        if bytes.len() < CUBOID_HEADER_LEN {
            return Err(SnapshotError::Truncated {
                what: "cuboid section header",
            });
        }
        if bytes[..4] != CUBOID_MAGIC {
            return Err(corrupt(label, "bad cuboid section magic"));
        }
        let dims = u32_at(&bytes, 4) as usize;
        if dims != schema.num_dims() {
            return Err(corrupt(
                label,
                format!("{dims} dims but the schema has {}", schema.num_dims()),
            ));
        }
        let h = Header {
            dims,
            cell_count: u64_at(&bytes, 8) as usize,
            keys_off: u64_at(&bytes, 16) as usize,
            cells_off: u64_at(&bytes, 24) as usize,
            nodes_off: u64_at(&bytes, 32) as usize,
            node_count: u64_at(&bytes, 40) as usize,
            children_off: u64_at(&bytes, 48) as usize,
            child_count: u64_at(&bytes, 56) as usize,
            durs_off: u64_at(&bytes, 64) as usize,
            dur_count: u64_at(&bytes, 72) as usize,
            exc_off: u64_at(&bytes, 80) as usize,
            exc_count: u64_at(&bytes, 88) as usize,
            cond_off: u64_at(&bytes, 96) as usize,
            cond_count: u64_at(&bytes, 104) as usize,
            obs_off: u64_at(&bytes, 112) as usize,
            obs_count: u64_at(&bytes, 120) as usize,
        };

        // Region bounds, alignment, and pairwise order (regions must be
        // laid out in sequence, so any out-of-order offset is an overlap).
        let regions: [(&str, usize, usize, usize); 8] = [
            ("keys", h.keys_off, h.cell_count * dims, 4),
            ("cells", h.cells_off, h.cell_count, CELL_ROW),
            ("nodes", h.nodes_off, h.node_count, NODE_ROW),
            ("children", h.children_off, h.child_count, CHILD_ROW),
            ("durations", h.durs_off, h.dur_count, DUR_ROW),
            ("exceptions", h.exc_off, h.exc_count, EXC_ROW),
            ("conditions", h.cond_off, h.cond_count, COND_ROW),
            ("observations", h.obs_off, h.obs_count, OBS_ROW),
        ];
        let mut prev_end = CUBOID_HEADER_LEN;
        let mut prev_name = "header";
        for (name, off, count, elem) in regions {
            if off % 8 != 0 {
                return Err(misaligned(format!("{name} region offset {off}")));
            }
            let len = count
                .checked_mul(elem)
                .ok_or_else(|| corrupt(label, format!("{name} region size overflow")))?;
            let end = off
                .checked_add(len)
                .ok_or_else(|| corrupt(label, format!("{name} region bounds overflow")))?;
            if end > bytes.len() {
                return Err(oob(format!(
                    "{name} region spans {off}..{end} past section length {}",
                    bytes.len()
                )));
            }
            if off < prev_end {
                return Err(overlap(format!(
                    "{name} region (offset {off}) overlaps {prev_name} region ending at {prev_end}"
                )));
            }
            prev_end = end;
            prev_name = name;
        }

        let nstrings = ctx.table.len() as u32;
        // Keys: ids in table range, resolvable per dimension, rows
        // strictly ascending (sorted + unique ⇒ binary-searchable).
        for row in 0..h.cell_count {
            for d in 0..dims {
                let sid = u32_at(&bytes, h.keys_off + (row * dims + d) * 4);
                if sid >= nstrings {
                    return Err(oob(format!(
                        "cell {row} dim {d} string id {sid} ≥ table size {nstrings}"
                    )));
                }
                if ctx.dim_concept(d, sid).is_none() {
                    return Err(corrupt(
                        label,
                        format!(
                            "cell {row} dim {d}: name id {sid} is not a concept of that dimension"
                        ),
                    ));
                }
            }
            if row > 0 {
                let prev = h.keys_off + (row - 1) * dims * 4;
                let cur = h.keys_off + row * dims * 4;
                if bytes_key_cmp(&bytes, prev, cur, dims) != std::cmp::Ordering::Less {
                    return Err(corrupt(
                        label,
                        format!("cell keys not strictly ascending at row {row}"),
                    ));
                }
            }
        }

        // Cells: node/exception ranges in bounds, contiguous, disjoint.
        let mut gnext = 0usize;
        let mut enext = 0usize;
        for row in 0..h.cell_count {
            let base = h.cells_off + row * CELL_ROW;
            let gstart = u64_at(&bytes, base + 16) as usize;
            let gcount = u32_at(&bytes, base + 24) as usize;
            let estart = u32_at(&bytes, base + 28) as usize;
            let ecount = u32_at(&bytes, base + 32) as usize;
            if gcount == 0 {
                return Err(corrupt(label, format!("cell {row} has an empty flowgraph")));
            }
            let gend = gstart
                .checked_add(gcount)
                .ok_or_else(|| corrupt(label, format!("cell {row} node range overflow")))?;
            if gend > h.node_count {
                return Err(oob(format!(
                    "cell {row} nodes {gstart}..{gend} past node count {}",
                    h.node_count
                )));
            }
            if gstart < gnext {
                return Err(overlap(format!(
                    "cell {row} node rows {gstart}..{gend} overlap a previous cell's (next free row {gnext})"
                )));
            }
            gnext = gend;
            let eend = estart
                .checked_add(ecount)
                .ok_or_else(|| corrupt(label, format!("cell {row} exception range overflow")))?;
            if eend > h.exc_count {
                return Err(oob(format!(
                    "cell {row} exceptions {estart}..{eend} past exception count {}",
                    h.exc_count
                )));
            }
            if estart < enext {
                return Err(overlap(format!(
                    "cell {row} exception rows {estart}..{eend} overlap a previous cell's"
                )));
            }
            enext = eend;

            // Nodes of this cell: local parent/child indices within the
            // cell's graph, child/duration ranges in bounds, locations
            // resolvable.
            for local in 0..gcount {
                let nb = h.nodes_off + (gstart + local) * NODE_ROW;
                let loc_sid = u32_at(&bytes, nb);
                if loc_sid >= nstrings {
                    return Err(oob(format!(
                        "cell {row} node {local} location id {loc_sid} ≥ table size {nstrings}"
                    )));
                }
                if local > 0 && ctx.loc_concept(loc_sid).is_none() {
                    return Err(corrupt(
                        label,
                        format!("cell {row} node {local}: name id {loc_sid} is not a location"),
                    ));
                }
                let parent = u32_at(&bytes, nb + 4) as usize;
                if parent >= gcount {
                    return Err(oob(format!(
                        "cell {row} node {local} parent {parent} ≥ graph size {gcount}"
                    )));
                }
                let first_child = u64_at(&bytes, nb + 24) as usize;
                let dur_off = u64_at(&bytes, nb + 32) as usize;
                let nchildren = u32_at(&bytes, nb + 40) as usize;
                let ndurs = u32_at(&bytes, nb + 44) as usize;
                let cend = first_child
                    .checked_add(nchildren)
                    .ok_or_else(|| corrupt(label, "child range overflow".to_string()))?;
                if cend > h.child_count {
                    return Err(oob(format!(
                        "cell {row} node {local} children {first_child}..{cend} past child count {}",
                        h.child_count
                    )));
                }
                for ci in first_child..cend {
                    let child = u32_at(&bytes, h.children_off + ci * CHILD_ROW) as usize;
                    if child >= gcount {
                        return Err(oob(format!(
                            "cell {row} node {local} child index {child} ≥ graph size {gcount}"
                        )));
                    }
                }
                let dend = dur_off
                    .checked_add(ndurs)
                    .ok_or_else(|| corrupt(label, "duration range overflow".to_string()))?;
                if dend > h.dur_count {
                    return Err(oob(format!(
                        "cell {row} node {local} durations {dur_off}..{dend} past duration count {}",
                        h.dur_count
                    )));
                }
            }

            // Exceptions of this cell.
            for ei in estart..eend {
                let eb = h.exc_off + ei * EXC_ROW;
                let node = u32_at(&bytes, eb) as usize;
                if node >= gcount {
                    return Err(oob(format!(
                        "cell {row} exception {ei} node {node} ≥ graph size {gcount}"
                    )));
                }
                let kind = u32_at(&bytes, eb + 4);
                if kind != KIND_DURATION && kind != KIND_TRANSITION {
                    return Err(corrupt(
                        label,
                        format!("exception {ei} has unknown kind {kind}"),
                    ));
                }
                let cond_off = u64_at(&bytes, eb + 24) as usize;
                let obs_off = u64_at(&bytes, eb + 32) as usize;
                let ncond = u32_at(&bytes, eb + 40) as usize;
                let nobs = u32_at(&bytes, eb + 44) as usize;
                let cond_end = cond_off
                    .checked_add(ncond)
                    .ok_or_else(|| corrupt(label, "condition range overflow".to_string()))?;
                if cond_end > h.cond_count {
                    return Err(oob(format!(
                        "exception {ei} conditions {cond_off}..{cond_end} past condition count {}",
                        h.cond_count
                    )));
                }
                for ci in cond_off..cond_end {
                    let cn = u32_at(&bytes, h.cond_off + ci * COND_ROW) as usize;
                    if cn >= gcount {
                        return Err(oob(format!(
                            "exception {ei} condition node {cn} ≥ graph size {gcount}"
                        )));
                    }
                }
                let obs_end = obs_off
                    .checked_add(nobs)
                    .ok_or_else(|| corrupt(label, "observation range overflow".to_string()))?;
                if obs_end > h.obs_count {
                    return Err(oob(format!(
                        "exception {ei} observations {obs_off}..{obs_end} past observation count {}",
                        h.obs_count
                    )));
                }
                if kind == KIND_TRANSITION {
                    for oi in obs_off..obs_end {
                        let k = u32_at(&bytes, h.obs_off + oi * OBS_ROW);
                        if k != NONE_SENTINEL {
                            if k >= nstrings {
                                return Err(oob(format!(
                                    "exception {ei} observation id {k} ≥ table size {nstrings}"
                                )));
                            }
                            if ctx.loc_concept(k).is_none() {
                                return Err(corrupt(
                                    label,
                                    format!("exception {ei}: observation id {k} is not a location"),
                                ));
                            }
                        }
                    }
                }
            }
        }

        Ok(ColumnarSection {
            bytes,
            hdr: h,
            ctx: ctx.clone(),
        })
    }

    fn sid_at(&self, row: usize, d: usize) -> u32 {
        u32_at(
            &self.bytes,
            self.hdr.keys_off + (row * self.hdr.dims + d) * 4,
        )
    }

    /// Binary-search a cell row by its string-id key.
    pub fn find_row(&self, sids: &[u32]) -> Option<usize> {
        let dims = self.hdr.dims;
        if sids.len() != dims {
            return None;
        }
        let mut lo = 0usize;
        let mut hi = self.hdr.cell_count;
        while lo < hi {
            let mid = (lo + hi) / 2;
            let ord = (0..dims)
                .map(|d| self.sid_at(mid, d).cmp(&sids[d]))
                .find(|o| o.is_ne())
                .unwrap_or(std::cmp::Ordering::Equal);
            match ord {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return Some(mid),
            }
        }
        None
    }

    /// Probe for a cell by concept key.
    pub fn find(&self, key: &[ConceptId]) -> Option<usize> {
        self.find_row(&self.ctx.sids_of_key(key)?)
    }

    /// The concept key of a row.
    pub fn key_of(&self, row: usize) -> CellKey {
        (0..self.hdr.dims)
            .map(|d| {
                self.ctx
                    .dim_concept(d, self.sid_at(row, d))
                    .unwrap_or(ConceptId::ROOT)
            })
            .collect()
    }

    /// The cell at `row`.
    pub fn cell(&self, row: usize) -> CellColumns<'_> {
        let base = self.hdr.cells_off + row * CELL_ROW;
        CellColumns {
            sec: self,
            gstart: u64_at(&self.bytes, base + 16) as usize,
            gcount: u32_at(&self.bytes, base + 24) as usize,
            support: u64_at(&self.bytes, base),
            total_paths: u64_at(&self.bytes, base + 8),
            estart: u32_at(&self.bytes, base + 28) as usize,
            ecount: u32_at(&self.bytes, base + 32) as usize,
            redundant: u32_at(&self.bytes, base + 36) & 1 != 0,
        }
    }

    /// Materialize the whole section into an in-memory [`Cuboid`] — the
    /// write path's escape hatch (delta overlay, compaction).
    pub fn decode_cuboid(&self) -> Result<Cuboid, SnapshotError> {
        let mut cuboid = Cuboid::default();
        for row in 0..self.hdr.cell_count {
            let key = self.key_of(row);
            let cell = self.cell(row);
            let graph = cell.materialize_graph()?;
            let exceptions = cell.exceptions();
            cuboid.cells.insert(
                key,
                CellEntry {
                    support: cell.support,
                    graph,
                    exceptions,
                    redundant: cell.redundant,
                },
            );
        }
        Ok(cuboid)
    }
}

/// The serving layer's one cuboid representation: the core navigation
/// helpers (`view::slice_keys`, `view::dice_keys`, `view::lookup_route`
/// probes) run over the validated bytes.
impl CuboidRead for ColumnarSection {
    fn contains(&self, key: &[ConceptId]) -> bool {
        self.find(key).is_some()
    }

    fn num_cells(&self) -> usize {
        self.hdr.cell_count
    }

    fn stats(&self, key: &[ConceptId]) -> Option<CellStats> {
        self.find(key).map(|row| self.cell(row).stats())
    }

    /// Ascending in concept order: string-id order is
    /// name-lexicographic, so rows are re-sorted to enumerate exactly
    /// like the heap [`Cuboid`] the section was encoded from.
    fn keys_sorted(&self) -> Vec<CellKey> {
        let mut keys: Vec<CellKey> = (0..self.hdr.cell_count).map(|r| self.key_of(r)).collect();
        keys.sort_unstable();
        keys
    }
}

fn bytes_key_cmp(b: &[u8], a_off: usize, b_off: usize, dims: usize) -> std::cmp::Ordering {
    for d in 0..dims {
        let ord = u32_at(b, a_off + d * 4).cmp(&u32_at(b, b_off + d * 4));
        if ord.is_ne() {
            return ord;
        }
    }
    std::cmp::Ordering::Equal
}

/// One cell of a validated section: scalar columns plus handles into
/// the flowgraph and exception regions. Cheap to construct (a few
/// header reads); nothing is decoded until asked for.
#[derive(Copy, Clone)]
pub struct CellColumns<'a> {
    sec: &'a ColumnarSection,
    gstart: usize,
    gcount: usize,
    pub support: u64,
    pub total_paths: u64,
    estart: usize,
    ecount: usize,
    pub redundant: bool,
}

impl<'a> CellColumns<'a> {
    /// The scalar facts cell rows are rendered from (`nodes` includes
    /// the virtual root).
    pub fn stats(&self) -> CellStats {
        CellStats {
            support: self.support,
            nodes: self.gcount,
            exceptions: self.ecount,
        }
    }

    /// The zero-copy flowgraph over this cell's node rows.
    pub fn graph(&self) -> GraphView<'a> {
        GraphView {
            sec: self.sec,
            gstart: self.gstart,
            gcount: self.gcount,
            total_paths: self.total_paths,
        }
    }

    /// Decode this cell's exceptions into their in-memory form (used for
    /// rendering responses and for materialization — not on the probe
    /// path).
    pub fn exceptions(&self) -> Vec<Exception> {
        let ctx = &self.sec.ctx;
        let b = &self.sec.bytes;
        let h = &self.sec.hdr;
        let mut out = Vec::with_capacity(self.ecount);
        for ei in self.estart..self.estart + self.ecount {
            let eb = h.exc_off + ei * EXC_ROW;
            let node = NodeId(u32_at(b, eb));
            let kind = u32_at(b, eb + 4);
            let support = u64_at(b, eb + 8);
            let deviation = f64_at(b, eb + 16);
            let cond_off = u64_at(b, eb + 24) as usize;
            let obs_off = u64_at(b, eb + 32) as usize;
            let ncond = u32_at(b, eb + 40) as usize;
            let nobs = u32_at(b, eb + 44) as usize;
            let condition = (cond_off..cond_off + ncond)
                .map(|ci| {
                    let cb = h.cond_off + ci * COND_ROW;
                    (NodeId(u32_at(b, cb)), u32_at(b, cb + 4))
                })
                .collect();
            let detail = if kind == KIND_DURATION {
                let mut observed = CountDist::new();
                for oi in obs_off..obs_off + nobs {
                    let ob = h.obs_off + oi * OBS_ROW;
                    let k = u32_at(b, ob);
                    let key = if k == NONE_SENTINEL { None } else { Some(k) };
                    observed.add_n(key, u64_at(b, ob + 8));
                }
                ExceptionDetail::Duration { observed }
            } else {
                let mut observed = CountDist::new();
                for oi in obs_off..obs_off + nobs {
                    let ob = h.obs_off + oi * OBS_ROW;
                    let k = u32_at(b, ob);
                    let key = if k == NONE_SENTINEL {
                        None
                    } else {
                        ctx.loc_concept(k)
                    };
                    observed.add_n(key, u64_at(b, ob + 8));
                }
                ExceptionDetail::Transition { observed }
            };
            out.push(Exception {
                condition,
                node,
                support,
                deviation,
                detail,
            });
        }
        out
    }

    /// Rebuild the in-memory [`FlowGraph`] (write path only). Node order
    /// is preserved verbatim, so encode(decode(section)) is
    /// byte-identical.
    pub fn materialize_graph(&self) -> Result<FlowGraph, SnapshotError> {
        let ctx = &self.sec.ctx;
        let b = &self.sec.bytes;
        let h = &self.sec.hdr;
        let mut specs = Vec::with_capacity(self.gcount);
        for local in 0..self.gcount {
            let nb = h.nodes_off + (self.gstart + local) * NODE_ROW;
            let loc_sid = u32_at(b, nb);
            let loc = if local == 0 {
                ConceptId::ROOT
            } else {
                ctx.loc_concept(loc_sid).ok_or_else(|| {
                    corrupt(
                        "cuboid section",
                        format!("node {local} location id {loc_sid} unresolved"),
                    )
                })?
            };
            let first_child = u64_at(b, nb + 24) as usize;
            let dur_off = u64_at(b, nb + 32) as usize;
            let nchildren = u32_at(b, nb + 40) as usize;
            let ndurs = u32_at(b, nb + 44) as usize;
            let children = (first_child..first_child + nchildren)
                .map(|ci| NodeId(u32_at(b, h.children_off + ci * CHILD_ROW)))
                .collect();
            let durations = (dur_off..dur_off + ndurs)
                .map(|di| {
                    let db = h.durs_off + di * DUR_ROW;
                    let k = u32_at(b, db);
                    let key = if k == NONE_SENTINEL { None } else { Some(k) };
                    (key, u64_at(b, db + 8))
                })
                .collect();
            specs.push(NodeSpec {
                loc,
                parent: NodeId(u32_at(b, nb + 4)),
                children,
                count: u64_at(b, nb + 8),
                terminate: u64_at(b, nb + 16),
                durations,
            });
        }
        FlowGraph::from_nodes(specs, self.total_paths).ok_or_else(|| {
            corrupt(
                "cuboid section",
                "node table rejected by graph reassembly".to_string(),
            )
        })
    }
}

/// A zero-copy flowgraph over one cell's node rows, implementing the
/// same [`GraphRead`] contract as [`FlowGraph`] — node ids are local
/// indices into the cell's canonical node table, identical in both
/// representations.
#[derive(Copy, Clone)]
pub struct GraphView<'a> {
    sec: &'a ColumnarSection,
    gstart: usize,
    gcount: usize,
    total_paths: u64,
}

impl<'a> GraphView<'a> {
    fn node_base(&self, n: NodeId) -> usize {
        self.sec.hdr.nodes_off + (self.gstart + n.index()) * NODE_ROW
    }

    fn child_range(&self, n: NodeId) -> (usize, usize) {
        let nb = self.node_base(n);
        (
            u64_at(&self.sec.bytes, nb + 24) as usize,
            u32_at(&self.sec.bytes, nb + 40) as usize,
        )
    }
}

impl GraphRead for GraphView<'_> {
    fn total_paths(&self) -> u64 {
        self.total_paths
    }

    fn len(&self) -> usize {
        self.gcount
    }

    fn location(&self, n: NodeId) -> ConceptId {
        if n == NodeId::ROOT {
            return ConceptId::ROOT;
        }
        let sid = u32_at(&self.sec.bytes, self.node_base(n));
        // Validation proved every non-root location id resolves.
        self.sec.ctx.loc_concept(sid).unwrap_or(ConceptId::ROOT)
    }

    fn parent(&self, n: NodeId) -> NodeId {
        NodeId(u32_at(&self.sec.bytes, self.node_base(n) + 4))
    }

    fn count(&self, n: NodeId) -> u64 {
        u64_at(&self.sec.bytes, self.node_base(n) + 8)
    }

    fn terminate_count(&self, n: NodeId) -> u64 {
        u64_at(&self.sec.bytes, self.node_base(n) + 16)
    }

    fn child_at(&self, n: NodeId, loc: ConceptId) -> Option<NodeId> {
        let want = self.sec.ctx.loc_sid(loc)?;
        let (first, count) = self.child_range(n);
        for ci in first..first + count {
            let child = u32_at(&self.sec.bytes, self.sec.hdr.children_off + ci * CHILD_ROW);
            let child_sid = u32_at(&self.sec.bytes, self.node_base(NodeId(child)));
            if child_sid == want {
                return Some(NodeId(child));
            }
        }
        None
    }

    fn duration_probability(&self, n: NodeId, dur: DurValue) -> f64 {
        let nb = self.node_base(n);
        let dur_off = u64_at(&self.sec.bytes, nb + 32) as usize;
        let ndurs = u32_at(&self.sec.bytes, nb + 44) as usize;
        let want = match dur {
            None => NONE_SENTINEL,
            Some(v) => v,
        };
        let mut total = 0u64;
        let mut hit = 0u64;
        for di in dur_off..dur_off + ndurs {
            let db = self.sec.hdr.durs_off + di * DUR_ROW;
            let c = u64_at(&self.sec.bytes, db + 8);
            total += c;
            if u32_at(&self.sec.bytes, db) == want {
                hit = c;
            }
        }
        if total == 0 {
            0.0
        } else {
            hit as f64 / total as f64
        }
    }

    fn transitions(&self, n: NodeId) -> CountDist<Option<ConceptId>> {
        let mut d = CountDist::new();
        let t = self.terminate_count(n);
        if t > 0 {
            d.add_n(None, t);
        }
        let (first, count) = self.child_range(n);
        for ci in first..first + count {
            let child = NodeId(u32_at(
                &self.sec.bytes,
                self.sec.hdr.children_off + ci * CHILD_ROW,
            ));
            d.add_n(Some(self.location(child)), self.count(child));
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn string_table_roundtrip_and_lookup() {
        let table = StringTable {
            names: vec!["*".into(), "factory".into(), "shelf".into()],
        };
        let bytes = table.encode();
        let back = StringTable::decode(&bytes).unwrap();
        assert_eq!(back, table);
        assert_eq!(back.id_of("factory"), Some(1));
        assert_eq!(back.id_of("missing"), None);
        assert_eq!(back.get(2), Some("shelf"));
    }

    #[test]
    fn string_table_rejects_unsorted_and_oob() {
        let unsorted = StringTable {
            names: vec!["b".into(), "a".into()],
        };
        let err = StringTable::decode(&unsorted.encode()).unwrap_err();
        assert!(matches!(err, SnapshotError::Corrupt { .. }), "{err:?}");

        let table = StringTable {
            names: vec!["abc".into()],
        };
        let mut bytes = table.encode();
        // Push the single string's length past the blob.
        bytes[12..16].copy_from_slice(&100u32.to_le_bytes());
        let err = StringTable::decode(&bytes).unwrap_err();
        assert!(matches!(err, SnapshotError::OutOfBounds { .. }), "{err:?}");
    }
}
