//! Cells and cuboids of the flowcube (Definition 4.1).

use flowcube_flowgraph::{Exception, FlowGraph};
use flowcube_hier::{ConceptId, FxHashMap, ItemLevel, PathLevelId, Schema};
use serde::{Deserialize, Serialize};

/// Coordinates of a cell within a cuboid: one concept per dimension,
/// `ConceptId::ROOT` standing for `*` (the dimension aggregated away).
///
/// A key is *consistent* with an [`ItemLevel`] when each concept sits at
/// exactly the level the cuboid prescribes (ROOT for level 0).
pub type CellKey = Vec<ConceptId>;

/// Derive the item level a key lives at.
pub fn level_of_key(key: &[ConceptId], schema: &Schema) -> ItemLevel {
    ItemLevel(
        key.iter()
            .enumerate()
            .map(|(d, &c)| schema.dim(d as u8).level_of(c))
            .collect(),
    )
}

/// Aggregate a key to a coarser level (used to find parent cells).
pub fn aggregate_key(key: &[ConceptId], level: &ItemLevel, schema: &Schema) -> CellKey {
    let mut out = Vec::with_capacity(key.len());
    aggregate_key_into(key, level, schema, &mut out);
    out
}

/// [`aggregate_key`] into a caller's buffer, replacing its contents.
pub fn aggregate_key_into(
    key: &[ConceptId],
    level: &ItemLevel,
    schema: &Schema,
    out: &mut CellKey,
) {
    out.clear();
    out.extend(
        (key.iter().enumerate())
            .map(|(d, &c)| schema.dim(d as u8).ancestor_at_level(c, level.0[d])),
    );
}

/// Render a key with dimension names, e.g. `(outerwear, nike)`.
pub fn display_key(key: &[ConceptId], schema: &Schema) -> String {
    let parts: Vec<&str> = key
        .iter()
        .enumerate()
        .map(|(d, &c)| schema.dim(d as u8).name_of(c))
        .collect();
    format!("({})", parts.join(", "))
}

/// The materialized measure of one cell.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CellEntry {
    /// Number of paths aggregated in the cell.
    pub support: u64,
    /// The flowgraph measure.
    pub graph: FlowGraph,
    /// Exceptions to the graph's distributions (empty when exception
    /// mining was disabled).
    pub exceptions: Vec<Exception>,
    /// Marked during non-redundancy pruning; redundant cells are dropped
    /// from the cube but counted in the build stats.
    pub redundant: bool,
}

impl CellEntry {
    /// Exception-aware next-hop prediction for an observed partial path
    /// within this cell (see [`flowcube_flowgraph::predict_next`]).
    pub fn predict_next(
        &self,
        observed: &[flowcube_pathdb::AggStage],
    ) -> Option<flowcube_flowgraph::CountDist<Option<ConceptId>>> {
        flowcube_flowgraph::predict_next(&self.graph, &self.exceptions, observed)
    }
}

/// One cuboid `<Il, Pl>`: all materialized cells sharing an item level
/// and a path level.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct Cuboid {
    #[serde(with = "crate::serde_map")]
    pub cells: FxHashMap<CellKey, CellEntry>,
}

impl Cuboid {
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    pub fn get(&self, key: &[ConceptId]) -> Option<&CellEntry> {
        self.cells.get(key)
    }

    pub fn iter(&self) -> impl Iterator<Item = (&CellKey, &CellEntry)> {
        self.cells.iter()
    }

    /// Merge another cuboid's cells into this one by Lemma 4.2 count
    /// addition, clearing the touched cells' exceptions (now stale —
    /// Lemma 4.3). Merged graphs are re-canonicalized so the node table
    /// stays a pure function of the cell's content regardless of merge
    /// order. No δ is applied: that is [`Cuboid::fold`]'s one cut.
    fn merge_from(&mut self, other: &Cuboid) {
        for (key, entry) in other.iter() {
            match self.cells.get_mut(key) {
                Some(existing) => {
                    existing.graph.merge(&entry.graph);
                    existing.graph.canonicalize();
                    existing.support += entry.support;
                    existing.exceptions.clear();
                }
                None => {
                    let mut cloned = entry.clone();
                    cloned.graph.canonicalize();
                    cloned.exceptions.clear();
                    self.cells.insert(key.clone(), cloned);
                }
            }
        }
    }

    /// The one fold of an assembled cube: add `parts` into this cuboid
    /// ([`Cuboid::merge_from`], Lemma 4.2), then cut at `min_support`
    /// **once**, over the summed supports. A partition merge, a delta
    /// apply, a served overlay and a compaction all fold through here, so
    /// a cell the parts only lift over δ together survives in each.
    /// Returns how many cells the cut dropped.
    pub fn fold<'a>(
        &mut self,
        parts: impl IntoIterator<Item = &'a Cuboid>,
        min_support: u64,
    ) -> usize {
        for part in parts {
            self.merge_from(part);
        }
        let before = self.cells.len();
        self.cells.retain(|_, e| e.support >= min_support);
        before - self.cells.len()
    }
}

/// Address of a cuboid within the cube.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct CuboidKey {
    pub item_level: ItemLevel,
    pub path_level: PathLevelId,
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowcube_pathdb::samples;

    #[test]
    fn key_levels_and_aggregation() {
        let schema = samples::paper_schema();
        let tennis = schema.dim(0).id_of("tennis").unwrap();
        let nike = schema.dim(1).id_of("nike").unwrap();
        let key = vec![tennis, nike];
        assert_eq!(level_of_key(&key, &schema), ItemLevel(vec![3, 2]));
        let up = aggregate_key(&key, &ItemLevel(vec![2, 0]), &schema);
        assert_eq!(schema.dim(0).name_of(up[0]), "shoes");
        assert_eq!(up[1], ConceptId::ROOT);
        assert_eq!(display_key(&up, &schema), "(shoes, *)");
    }
}
