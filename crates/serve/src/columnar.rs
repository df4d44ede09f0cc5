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
use flowcube_hier::{ConceptHierarchy, ConceptId, DurValue, Schema};
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
    ///
    /// One pass marks the concepts in use, per hierarchy; each distinct
    /// name is then materialized once. The sort + dedup folds a name
    /// that several hierarchies share into one id.
    pub fn from_cuboids<'a>(
        schema: &Schema,
        cuboids: impl IntoIterator<Item = &'a Cuboid>,
    ) -> StringTable {
        let dims = schema.num_dims();
        let hierarchies: Vec<&ConceptHierarchy> =
            schema.dims().iter().chain([schema.locations()]).collect();
        // One mark per concept; the locations' marks are `used[dims]`.
        let mut used: Vec<Vec<bool>> = hierarchies.iter().map(|h| vec![false; h.len()]).collect();
        for cuboid in cuboids {
            for (key, entry) in cuboid.iter() {
                for (d, &c) in key.iter().enumerate() {
                    used[d][c.index()] = true;
                }
                let g = &entry.graph;
                for n in g.node_ids() {
                    used[dims][g.location(n).index()] = true;
                }
                for e in &entry.exceptions {
                    if let ExceptionDetail::Transition { observed } = &e.detail {
                        for (k, _) in observed.iter() {
                            if let Some(c) = k {
                                used[dims][c.index()] = true;
                            }
                        }
                    }
                }
            }
        }
        let mut names: Vec<String> = Vec::new();
        for (hierarchy, used) in hierarchies.iter().zip(&used) {
            for (i, _) in used.iter().enumerate().filter(|(_, &used)| used) {
                names.push(hierarchy.name_of(ConceptId(i as u32)).to_string());
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
/// the location hierarchy. Built once per table — O(distinct names +
/// concepts), never O(cells) — so the encoder and the query path both
/// translate ids by array indexing only.
#[derive(Debug)]
pub struct StringsCtx {
    pub table: StringTable,
    /// Per dimension: concept → string id, [`NO_SID`] when the concept's
    /// name is not in the table.
    dim_to_sid: Vec<Vec<u32>>,
    /// Per dimension: string id → concept, `None` when the name is not a
    /// concept of that hierarchy.
    sid_to_dim: Vec<Vec<Option<ConceptId>>>,
    loc_to_sid: Vec<u32>,
    sid_to_loc: Vec<Option<ConceptId>>,
}

/// "This concept's name was never interned", in the `*_to_sid` arrays.
const NO_SID: u32 = u32::MAX;

fn sid_in(to_sid: &[u32], c: ConceptId) -> Option<u32> {
    to_sid.get(c.index()).copied().filter(|&sid| sid != NO_SID)
}

impl StringsCtx {
    pub fn new(table: StringTable, schema: &Schema) -> StringsCtx {
        let dims = schema.num_dims();
        let n = table.len();
        let mut dim_to_sid: Vec<Vec<u32>> = (0..dims)
            .map(|d| vec![NO_SID; schema.dim(d as u8).len()])
            .collect();
        let mut sid_to_dim = vec![vec![None; n]; dims];
        let mut loc_to_sid = vec![NO_SID; schema.locations().len()];
        let mut sid_to_loc = vec![None; n];
        for (sid, name) in table.names.iter().enumerate() {
            for d in 0..dims {
                if let Ok(c) = schema.dim(d as u8).id_of(name) {
                    dim_to_sid[d][c.index()] = sid as u32;
                    sid_to_dim[d][sid] = Some(c);
                }
            }
            if let Ok(c) = schema.locations().id_of(name) {
                loc_to_sid[c.index()] = sid as u32;
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
            .map(|(d, &c)| self.dim_sid(d, c))
            .collect()
    }

    /// The string id of dimension `d`'s concept `c`, if it was interned.
    fn dim_sid(&self, d: usize, c: ConceptId) -> Option<u32> {
        sid_in(self.dim_to_sid.get(d)?, c)
    }

    fn dim_concept(&self, d: usize, sid: u32) -> Option<ConceptId> {
        *self.sid_to_dim.get(d)?.get(sid as usize)?
    }

    fn loc_concept(&self, sid: u32) -> Option<ConceptId> {
        *self.sid_to_loc.get(sid as usize)?
    }

    fn loc_sid(&self, c: ConceptId) -> Option<u32> {
        sid_in(&self.loc_to_sid, c)
    }
}

// ---------------------------------------------------------------------------
// Encoder
// ---------------------------------------------------------------------------

/// A write position inside the section buffer: one per region, each
/// starting at its region's offset, so rows land where they will be read
/// from with no staging buffer in between.
struct Cursor(usize);

impl Cursor {
    fn put_u32(&mut self, out: &mut [u8], v: u32) {
        out[self.0..self.0 + 4].copy_from_slice(&v.to_le_bytes());
        self.0 += 4;
    }

    fn put_u64(&mut self, out: &mut [u8], v: u64) {
        out[self.0..self.0 + 8].copy_from_slice(&v.to_le_bytes());
        self.0 += 8;
    }
}

fn observation_count(detail: &ExceptionDetail) -> usize {
    match detail {
        ExceptionDetail::Duration { observed } => observed.support_size(),
        ExceptionDetail::Transition { observed } => observed.support_size(),
    }
}

/// One cuboid laid out but not yet written: its cells in ascending
/// string-id key order, every region's row count and offset, and the
/// section's length. Planning and writing are separate so that the
/// snapshot writer can lay out the whole file from the plans' lengths
/// before any section is written, and hand workers buffers it owns.
pub struct SectionPlan<'a> {
    rows: Vec<(Vec<u32>, &'a CellEntry)>,
    hdr: Header,
    len: usize,
}

const SEC: &str = "cuboid section";

impl<'a> SectionPlan<'a> {
    /// Sort `cuboid`'s cells and count what they hold. `strings` is a
    /// context over a table that interned this cuboid
    /// ([`StringTable::from_cuboids`]).
    pub fn new(cuboid: &'a Cuboid, strings: &StringsCtx) -> Result<Self, SnapshotError> {
        let dims = strings.dim_to_sid.len();
        let mut rows: Vec<(Vec<u32>, &CellEntry)> = Vec::with_capacity(cuboid.len());
        for (key, entry) in cuboid.iter() {
            if key.len() != dims {
                return Err(corrupt(
                    SEC,
                    format!(
                        "{}-coordinate cell key in a {dims}-dimension cube",
                        key.len()
                    ),
                ));
            }
            let sids = strings.sids_of_key(key).ok_or_else(|| {
                corrupt(SEC, format!("cell key {key:?} missing from string table"))
            })?;
            rows.push((sids, entry));
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
        for (_, entry) in &rows {
            let g = &entry.graph;
            node_count += g.len();
            for n in g.node_ids() {
                child_count += g.children(n).len();
                dur_count += g.durations(n).support_size();
            }
            exc_count += entry.exceptions.len();
            for e in &entry.exceptions {
                cond_count += e.condition.len();
                obs_count += observation_count(&e.detail);
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
        Ok(SectionPlan {
            rows,
            hdr: Header {
                dims,
                cell_count,
                keys_off,
                cells_off,
                nodes_off,
                node_count,
                children_off,
                child_count,
                durs_off,
                dur_count,
                exc_off,
                exc_count,
                cond_off,
                cond_count,
                obs_off,
                obs_count,
            },
            len: align8(obs_off + obs_count * OBS_ROW),
        })
    }

    /// Length of the section in bytes.
    pub fn byte_len(&self) -> usize {
        self.len
    }

    /// Write the section into `out` — exactly [`Self::byte_len`] **zeroed**
    /// bytes: the alignment gaps and the pad words are never written.
    /// Cells go out in key order and graphs in their stored (canonical)
    /// node order, so the bytes are a pure function of the cuboid's
    /// content — the determinism the differential suite pins down.
    pub fn write(&self, strings: &StringsCtx, out: &mut [u8]) -> Result<(), SnapshotError> {
        assert_eq!(out.len(), self.len, "section buffer sized by the plan");
        let h = &self.hdr;
        let loc_sid = |c: ConceptId| {
            strings
                .loc_sid(c)
                .ok_or_else(|| corrupt(SEC, format!("location {c} missing from string table")))
        };
        out[..4].copy_from_slice(&CUBOID_MAGIC);
        let mut hdr = Cursor(4);
        hdr.put_u32(out, h.dims as u32);
        for v in [
            h.cell_count,
            h.keys_off,
            h.cells_off,
            h.nodes_off,
            h.node_count,
            h.children_off,
            h.child_count,
            h.durs_off,
            h.dur_count,
            h.exc_off,
            h.exc_count,
            h.cond_off,
            h.cond_count,
            h.obs_off,
            h.obs_count,
        ] {
            hdr.put_u64(out, v as u64);
        }

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

        let (mut keys, mut cells) = (Cursor(h.keys_off), Cursor(h.cells_off));
        let (mut nodes, mut children) = (Cursor(h.nodes_off), Cursor(h.children_off));
        let (mut durs, mut excs) = (Cursor(h.durs_off), Cursor(h.exc_off));
        let (mut conds, mut obs) = (Cursor(h.cond_off), Cursor(h.obs_off));
        // Row numbers (not byte offsets) of the next free row per region.
        let (mut gcursor, mut ccursor, mut dcursor) = (0u64, 0u64, 0u64);
        let (mut ecursor, mut condcursor, mut obscursor) = (0u64, 0u64, 0u64);
        for (sids, entry) in &self.rows {
            for &sid in sids {
                keys.put_u32(out, sid);
            }
            let g = &entry.graph;
            // Cell row.
            cells.put_u64(out, entry.support);
            cells.put_u64(out, g.total_paths());
            cells.put_u64(out, gcursor);
            cells.put_u32(out, g.len() as u32);
            cells.put_u32(out, ecursor as u32);
            cells.put_u32(out, entry.exceptions.len() as u32);
            cells.put_u32(out, u32::from(entry.redundant));
            // Node rows (stored order — canonical pre-order).
            for n in g.node_ids() {
                nodes.put_u32(out, loc_sid(g.location(n))?);
                nodes.put_u32(out, g.parent(n).0);
                nodes.put_u64(out, g.count(n));
                nodes.put_u64(out, g.terminate_count(n));
                nodes.put_u64(out, ccursor);
                nodes.put_u64(out, dcursor);
                nodes.put_u32(out, g.children(n).len() as u32);
                nodes.put_u32(out, g.durations(n).support_size() as u32);
                for &c in g.children(n) {
                    children.put_u32(out, c.0);
                    ccursor += 1;
                }
                for (d, c) in g.durations(n).iter() {
                    durs.put_u32(out, encode_dur_key(d)?);
                    durs.0 += 4; // pad
                    durs.put_u64(out, c);
                    dcursor += 1;
                }
            }
            gcursor += g.len() as u64;
            // Exception rows.
            for e in &entry.exceptions {
                let kind = match &e.detail {
                    ExceptionDetail::Duration { .. } => KIND_DURATION,
                    ExceptionDetail::Transition { .. } => KIND_TRANSITION,
                };
                let nobs = observation_count(&e.detail);
                excs.put_u32(out, e.node.0);
                excs.put_u32(out, kind);
                excs.put_u64(out, e.support);
                excs.put_u64(out, e.deviation.to_bits());
                excs.put_u64(out, condcursor);
                excs.put_u64(out, obscursor);
                excs.put_u32(out, e.condition.len() as u32);
                excs.put_u32(out, nobs as u32);
                for &(n, d) in &e.condition {
                    conds.put_u32(out, n.0);
                    conds.put_u32(out, d);
                }
                condcursor += e.condition.len() as u64;
                let mut put_obs = |key: u32, count: u64| {
                    obs.put_u32(out, key);
                    obs.0 += 4; // pad
                    obs.put_u64(out, count);
                };
                match &e.detail {
                    ExceptionDetail::Duration { observed } => {
                        for (k, c) in observed.iter() {
                            put_obs(encode_dur_key(k)?, c);
                        }
                    }
                    ExceptionDetail::Transition { observed } => {
                        for (k, c) in observed.iter() {
                            put_obs(k.map_or(Ok(NONE_SENTINEL), loc_sid)?, c);
                        }
                    }
                }
                obscursor += nobs as u64;
                ecursor += 1;
            }
        }
        // The counting pass and the writing pass walk the same structures.
        debug_assert_eq!(
            (keys.0, cells.0, nodes.0, children.0, durs.0, excs.0, conds.0, obs.0),
            (
                h.keys_off + h.cell_count * h.dims * 4,
                h.cells_off + h.cell_count * CELL_ROW,
                h.nodes_off + h.node_count * NODE_ROW,
                h.children_off + h.child_count * CHILD_ROW,
                h.durs_off + h.dur_count * DUR_ROW,
                h.exc_off + h.exc_count * EXC_ROW,
                h.cond_off + h.cond_count * COND_ROW,
                h.obs_off + h.obs_count * OBS_ROW,
            )
        );
        Ok(())
    }
}

/// Serialize one cuboid into a v2 section payload: plan, allocate, write.
pub fn encode_cuboid(cuboid: &Cuboid, strings: &StringsCtx) -> Result<Vec<u8>, SnapshotError> {
    let plan = SectionPlan::new(cuboid, strings)?;
    let mut section = vec![0u8; plan.byte_len()];
    plan.write(strings, &mut section)?;
    Ok(section)
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

    /// Binary-search a cell row by concept key. Each coordinate is
    /// translated to its string id as it is compared, so a probe — a
    /// fallback walk makes one per stored ancestor level — allocates
    /// nothing. `None` also when some coordinate's name was never
    /// interned: the cell cannot be in this section.
    pub fn find(&self, key: &[ConceptId]) -> Option<usize> {
        let dims = self.hdr.dims;
        let ctx = &self.ctx;
        if key.len() != dims || (0..dims).any(|d| ctx.dim_sid(d, key[d]).is_none()) {
            return None;
        }
        let sid = |d: usize| ctx.dim_sid(d, key[d]).unwrap_or(NO_SID);
        let mut lo = 0usize;
        let mut hi = self.hdr.cell_count;
        while lo < hi {
            let mid = (lo + hi) / 2;
            let ord = (0..dims)
                .map(|d| self.sid_at(mid, d).cmp(&sid(d)))
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
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Two dimensions and the locations, all three holding a concept
    /// named "shared"; `ghost*` are locations no graph node ever carries.
    fn shared_name_schema() -> Schema {
        let hierarchy = |name: &str, chains: &[&[&str]]| {
            let mut h = ConceptHierarchy::new(name);
            for chain in chains {
                h.add_path(chain.iter().copied()).expect("distinct names");
            }
            h
        };
        Schema::new(
            vec![
                hierarchy("product", &[&["a", "a1"], &["a", "shared"], &["b", "b1"]]),
                hierarchy("brand", &[&["shared", "s1"], &["t", "t1"], &["t", "t2"]]),
            ],
            hierarchy(
                "location",
                &[
                    &["x", "x1"],
                    &["x", "shared"],
                    &["y", "y1"],
                    &["ghost1"],
                    &["z", "ghost2"],
                ],
            ),
        )
    }

    /// A random cuboid over [`shared_name_schema`]. Its first cell is
    /// keyed ("shared", "shared"), passes through location "shared", and
    /// carries a transition exception that observed a ghost location.
    fn random_cuboid(schema: &Schema, rng: &mut StdRng) -> Cuboid {
        let loc = schema.locations();
        let ghosts = [loc.id_of("ghost1").unwrap(), loc.id_of("ghost2").unwrap()];
        let walked: Vec<ConceptId> = loc.iter().filter(|c| !ghosts.contains(c)).collect();
        let mut cuboid = Cuboid::default();
        for cell in 0..rng.gen_range(1..6usize) {
            let forced = cell == 0;
            let key: CellKey = (0..schema.num_dims())
                .map(|d| {
                    let h = schema.dim(d as u8);
                    if forced {
                        h.id_of("shared").unwrap()
                    } else {
                        ConceptId(rng.gen_range(0..h.len() as u32))
                    }
                })
                .collect();
            let n = rng.gen_range(2..7usize);
            let mut specs: Vec<NodeSpec> = (0..n)
                .map(|i| NodeSpec {
                    loc: match i {
                        0 => ConceptId::ROOT,
                        1 if forced => loc.id_of("shared").unwrap(),
                        _ => walked[rng.gen_range(0..walked.len())],
                    },
                    parent: NodeId(if i == 0 {
                        0
                    } else {
                        rng.gen_range(0..i as u32)
                    }),
                    children: Vec::new(),
                    count: rng.gen_range(1..50u64),
                    terminate: rng.gen_range(0..5u64),
                    durations: (0..rng.gen_range(0..3u32))
                        .map(|d| (Some(d), rng.gen_range(1..9u64)))
                        .collect(),
                })
                .collect();
            for i in 1..n {
                let parent = specs[i].parent.index();
                specs[parent].children.push(NodeId(i as u32));
            }
            let mut exceptions = Vec::new();
            for e in 0..rng.gen_range(0..3usize) + usize::from(forced) {
                let detail = if forced && e == 0 || rng.gen_bool(0.5) {
                    let mut observed = CountDist::new();
                    observed.add_n(None, rng.gen_range(1..4u64));
                    observed.add_n(Some(ghosts[rng.gen_range(0..2usize)]), 2);
                    observed.add_n(Some(walked[rng.gen_range(0..walked.len())]), 1);
                    ExceptionDetail::Transition { observed }
                } else {
                    let mut observed = CountDist::new();
                    observed.add_n(Some(rng.gen_range(0..4u32)), 3);
                    ExceptionDetail::Duration { observed }
                };
                exceptions.push(Exception {
                    condition: vec![(NodeId(rng.gen_range(0..n as u32)), rng.gen_range(0..4u32))],
                    node: NodeId(rng.gen_range(0..n as u32)),
                    support: rng.gen_range(1..20u64),
                    deviation: rng.gen_range(0.0..1.0),
                    detail,
                });
            }
            // A later cell that draws the first one's key does not replace it.
            cuboid.cells.entry(key).or_insert(CellEntry {
                support: rng.gen_range(1..100u64),
                graph: FlowGraph::from_nodes(specs, 100).expect("ids in range"),
                exceptions,
                redundant: rng.gen_bool(0.2),
            });
        }
        cuboid
    }

    /// What [`StringTable::from_cuboids`] is defined to equal: every
    /// referenced name, one `String` per reference, sorted and deduped.
    fn names_by_definition(schema: &Schema, cuboids: &[Cuboid]) -> Vec<String> {
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
        names
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Interning by concept id yields the table the per-reference
        /// definition yields — one id for a name three hierarchies share,
        /// ids for locations only an exception saw — and sections encoded
        /// through it decode to the cuboids they came from.
        #[test]
        fn interning_by_concept_id_matches_the_definition(seed in 0u64..1_000_000) {
            let schema = shared_name_schema();
            let mut rng = StdRng::seed_from_u64(seed);
            let cuboids: Vec<Cuboid> = (0..rng.gen_range(1..4usize))
                .map(|_| random_cuboid(&schema, &mut rng))
                .collect();
            let table = StringTable::from_cuboids(&schema, &cuboids);
            prop_assert_eq!(&table.names, &names_by_definition(&schema, &cuboids));
            prop_assert_eq!(table.names.iter().filter(|n| *n == "shared").count(), 1);
            prop_assert!(table.names.iter().any(|n| n.starts_with("ghost")));

            let ctx = Arc::new(StringsCtx::new(table, &schema));
            for cuboid in &cuboids {
                let bytes = encode_cuboid(cuboid, &ctx).expect("every name is interned");
                let section = ColumnarSection::validate(bytes, &ctx, &schema, "test")
                    .expect("the encoder's own bytes validate");
                let back = section.decode_cuboid().expect("decodes");
                prop_assert_eq!(back.len(), cuboid.len());
                for (key, entry) in cuboid.iter() {
                    let got = back.get(key).expect("same cells");
                    prop_assert_eq!(got.support, entry.support);
                    prop_assert_eq!(got.redundant, entry.redundant);
                    prop_assert_eq!(&got.exceptions, &entry.exceptions);
                    prop_assert_eq!(
                        serde_json::to_string(&got.graph).unwrap(),
                        serde_json::to_string(&entry.graph).unwrap()
                    );
                }
            }
        }
    }

    #[test]
    fn string_table_roundtrip_and_lookup() {
        let table = StringTable {
            names: vec!["*".into(), "factory".into(), "shelf".into()],
        };
        let bytes = table.encode();
        let back = StringTable::decode(&bytes).unwrap();
        assert_eq!(back, table);
        assert_eq!(back.get(1), Some("factory"));
        assert_eq!(back.get(3), None);
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
