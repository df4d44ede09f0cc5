//! Cell-by-cell comparison of two cubes: the one answer to "is this the
//! same cube", and to the paper's "contrast … with historic flow
//! information".
//!
//! [`FlowCube::compare`] aligns two cubes by `(cuboid, cell)` and reports
//! the comparisons Vassiliadis's cube algebra names: containment and
//! overlap (cells on one side only) and distance (per shared cell, the
//! supports, the exception lists, the redundancy marks and the exact per-node
//! [`flowgraph::diff`](flowcube_flowgraph::diff)).

use crate::cell::{display_key, CellEntry, CellKey, CuboidKey};
use crate::cube::FlowCube;
use crate::error::CoreError;
use flowcube_flowgraph::{diff, FlowDiff};
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// A cell both cubes materialize whose entries differ.
#[derive(Clone, Debug)]
pub struct CellDiff {
    pub cuboid: CuboidKey,
    pub key: CellKey,
    /// Support on the left and on the right.
    pub support: (u64, u64),
    /// Whether the exception lists differ.
    pub exceptions_differ: bool,
    /// The non-redundancy mark on the left and on the right.
    pub redundant: (bool, bool),
    /// The flowgraph nodes that differ, most severe first.
    pub graph: FlowDiff,
}

/// Where two cubes differ. Every list is in `(cuboid, cell)` order.
#[derive(Clone, Debug, Default)]
pub struct CubeDiff {
    /// Cells only the left cube materializes.
    pub left_only: Vec<(CuboidKey, CellKey)>,
    /// Cells only the right cube materializes.
    pub right_only: Vec<(CuboidKey, CellKey)>,
    /// Cells both materialize, with different entries.
    pub changed: Vec<CellDiff>,
}

impl CubeDiff {
    /// Whether the two cubes hold the same cells with the same entries.
    pub fn is_empty(&self) -> bool {
        self.left_only.is_empty() && self.right_only.is_empty() && self.changed.is_empty()
    }

    /// The first `limit` differences, one line per cell (named with
    /// [`display_key`] and its path level) and, under a changed cell, up
    /// to `limit` of its nodes by location. `cube` supplies the names:
    /// either side of the comparison.
    pub fn render(&self, cube: &FlowCube, limit: usize) -> String {
        let schema = cube.schema();
        let name = |ck: &CuboidKey, key: &CellKey| {
            let level = &cube.spec().level(ck.path_level).name;
            format!("{} @ {level}", display_key(key, schema))
        };
        let mut out = format!(
            "{} cells left only, {} right only, {} changed\n",
            self.left_only.len(),
            self.right_only.len(),
            self.changed.len()
        );
        let one_sided = (self.left_only.iter().map(|c| ("left only", c)))
            .chain(self.right_only.iter().map(|c| ("right only", c)));
        for (side, (ck, key)) in one_sided.take(limit) {
            let _ = writeln!(out, "{side}: {}", name(ck, key));
        }
        for cell in self.changed.iter().take(limit) {
            let _ = write!(
                out,
                "changed: {}: support {} vs {}",
                name(&cell.cuboid, &cell.key),
                cell.support.0,
                cell.support.1,
            );
            if cell.exceptions_differ {
                out.push_str(", exceptions differ");
            }
            if cell.redundant.0 != cell.redundant.1 {
                let _ = write!(
                    out,
                    ", redundant {} vs {}",
                    cell.redundant.0, cell.redundant.1
                );
            }
            out.push('\n');
            for line in cell.graph.render(schema.locations(), limit).lines() {
                let _ = writeln!(out, "    {line}");
            }
        }
        out
    }
}

impl FlowCube {
    /// Compare this cube (left) with `other` (right), cell by cell.
    ///
    /// # Errors
    /// The error [`FlowCube::merge_partitions`] returns for the same
    /// pair: the two cubes differ in dimension count or path levels.
    pub fn compare(&self, other: &FlowCube) -> Result<CubeDiff, CoreError> {
        fn entry<'c>(cube: &'c FlowCube, ck: &CuboidKey, key: &CellKey) -> Option<&'c CellEntry> {
            cube.cuboid(&ck.item_level, ck.path_level)?.get(key)
        }
        self.check_mergeable(other)?;
        let cells: BTreeSet<(&CuboidKey, &CellKey)> = (self.cuboids().chain(other.cuboids()))
            .flat_map(|(ck, cuboid)| cuboid.iter().map(move |(key, _)| (ck, key)))
            .collect();
        let mut out = CubeDiff::default();
        for (ck, key) in cells {
            match (entry(self, ck, key), entry(other, ck, key)) {
                (Some(ours), Some(theirs)) => {
                    let graph = diff(&ours.graph, &theirs.graph);
                    let exceptions_differ = ours.exceptions != theirs.exceptions;
                    let redundant = (ours.redundant, theirs.redundant);
                    if ours.support != theirs.support
                        || exceptions_differ
                        || redundant.0 != redundant.1
                        || !graph.is_empty()
                    {
                        out.changed.push(CellDiff {
                            cuboid: ck.clone(),
                            key: key.clone(),
                            support: (ours.support, theirs.support),
                            exceptions_differ,
                            redundant,
                            graph,
                        });
                    }
                }
                (Some(_), None) => out.left_only.push((ck.clone(), key.clone())),
                (None, _) => out.right_only.push((ck.clone(), key.clone())),
            }
        }
        Ok(out)
    }

    /// `Ok` when `other` holds the same cells with the same entries as
    /// this cube; otherwise the comparison's error or its first eight
    /// differences, rendered — the one "same cube" check of the
    /// differential suites.
    pub fn ensure_same(&self, other: &FlowCube) -> Result<(), String> {
        let diff = self.compare(other).map_err(|e| e.to_string())?;
        if diff.is_empty() {
            Ok(())
        } else {
            Err(diff.render(self, 8))
        }
    }
}
