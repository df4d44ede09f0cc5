//! The [`FlowCube`]: the materialized warehouse of commodity flows
//! (Definition 4.1) with OLAP-style navigation.

use crate::build::{self, BuildOutput};
use crate::cell::{display_key, level_of_key, CellEntry, CellKey, Cuboid, CuboidKey};
use crate::counts;
use crate::error::CoreError;
use crate::params::{FlowCubeParams, ItemPlan};
use crate::stats::BuildStats;
use crate::view;
use flowcube_hier::{ConceptId, FxHashMap, ItemLevel, PathLatticeSpec, PathLevelId, Schema};
use flowcube_pathdb::{AggStage, PathDatabase};

/// Result of a point lookup: the entry plus whether it came from the
/// requested cell or from the nearest materialized ancestor (the
/// non-redundant cube's contract: a pruned cell "can be inferred from
/// higher level cells").
#[derive(Debug)]
pub struct Lookup<'a> {
    pub entry: &'a CellEntry,
    /// `true` when the exact requested cell was materialized.
    pub exact: bool,
    /// The cell the entry actually came from.
    pub source_key: &'a CellKey,
    pub source_level: &'a ItemLevel,
}

/// A materialized flowcube. Its one persistent form is the snapshot
/// `flowcube-serve` writes and opens.
#[derive(Clone, Debug)]
pub struct FlowCube {
    schema: Schema,
    spec: PathLatticeSpec,
    params: FlowCubeParams,
    cuboids: FxHashMap<CuboidKey, Cuboid>,
    stats: BuildStats,
}

impl FlowCube {
    /// Construct a flowcube from a path database (paper §5).
    pub fn build(
        db: &PathDatabase,
        spec: PathLatticeSpec,
        params: FlowCubeParams,
        plan: ItemPlan,
    ) -> Self {
        let BuildOutput { cuboids, stats } = build::build(db, spec.clone(), &params, &plan);
        FlowCube {
            schema: db.schema().clone(),
            spec,
            params,
            cuboids,
            stats,
        }
    }

    /// Assemble a cube shell from pre-built parts with no cuboids; the
    /// snapshot loader adds cuboids as they come off disk via
    /// [`FlowCube::insert_cuboid`]. Name-lookup indexes are rebuilt, so a
    /// schema deserialized from a snapshot section works immediately.
    pub fn from_parts(
        mut schema: Schema,
        spec: PathLatticeSpec,
        params: FlowCubeParams,
        stats: BuildStats,
    ) -> Self {
        schema.rebuild_indexes();
        FlowCube {
            schema,
            spec,
            params,
            cuboids: FxHashMap::default(),
            stats,
        }
    }

    /// Install a cuboid (snapshot hook; replaces any cuboid at `key`).
    pub fn insert_cuboid(&mut self, key: CuboidKey, cuboid: Cuboid) {
        self.cuboids.insert(key, cuboid);
    }

    /// Whether a cuboid is present at `key`.
    pub fn has_cuboid(&self, key: &CuboidKey) -> bool {
        self.cuboids.contains_key(key)
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    pub fn spec(&self) -> &PathLatticeSpec {
        &self.spec
    }

    pub fn params(&self) -> &FlowCubeParams {
        &self.params
    }

    pub fn stats(&self) -> &BuildStats {
        &self.stats
    }

    pub(crate) fn cuboids_map_mut(&mut self) -> &mut FxHashMap<CuboidKey, Cuboid> {
        &mut self.cuboids
    }

    pub(crate) fn stats_mut(&mut self) -> &mut BuildStats {
        &mut self.stats
    }

    /// Number of non-empty cuboids.
    pub fn num_cuboids(&self) -> usize {
        self.cuboids.len()
    }

    /// Total cells across cuboids.
    pub fn total_cells(&self) -> usize {
        self.cuboids.values().map(|c| c.len()).sum()
    }

    /// Iterate `(cuboid key, cuboid)` pairs.
    pub fn cuboids(&self) -> impl Iterator<Item = (&CuboidKey, &Cuboid)> {
        self.cuboids.iter()
    }

    /// The cuboid at `<Il, Pl>`, if any cell of it was materialized.
    pub fn cuboid(&self, item_level: &ItemLevel, path_level: PathLevelId) -> Option<&Cuboid> {
        self.cuboids.get(&CuboidKey {
            item_level: item_level.clone(),
            path_level,
        })
    }

    /// Exact cell lookup; the item level is derived from the key.
    pub fn cell(&self, key: &[ConceptId], path_level: PathLevelId) -> Option<&CellEntry> {
        let level = level_of_key(key, &self.schema);
        self.cuboid(&level, path_level)?.get(key)
    }

    /// Convenience: cell lookup by `(dimension value name | None)` pairs
    /// and path level name.
    pub fn cell_by_names(&self, names: &[Option<&str>], path_level: &str) -> Option<&CellEntry> {
        let key = self.key_from_names(names)?;
        let pl = self.path_level_id(path_level)?;
        self.cell(&key, pl)
    }

    /// Resolve a path level by its configured name.
    pub fn path_level_id(&self, name: &str) -> Option<PathLevelId> {
        (0..self.spec.len() as PathLevelId).find(|&i| self.spec.level(i).name == name)
    }

    /// [`FlowCube::path_level_id`] with a typed error for callers that
    /// surface failures (e.g. the serve subsystem's HTTP mapping).
    pub fn require_path_level(&self, name: &str) -> Result<PathLevelId, CoreError> {
        self.path_level_id(name)
            .ok_or_else(|| CoreError::UnknownPathLevel {
                name: name.to_string(),
            })
    }

    /// Resolve a comma-separated cell spec (`*` or empty = any) into a
    /// key, with a typed error when a value name is unknown or the arity
    /// is wrong.
    pub fn require_key(&self, spec: &str) -> Result<CellKey, CoreError> {
        let names: Vec<Option<&str>> = spec
            .split(',')
            .map(|s| {
                let s = s.trim();
                (s != "*" && !s.is_empty()).then_some(s)
            })
            .collect();
        self.key_from_names(&names)
            .ok_or_else(|| CoreError::UnresolvedCell {
                spec: spec.to_string(),
            })
    }

    /// Resolve an observed path `loc:dur,loc` — location names, each with
    /// an optional duration — into aggregated stages. Empty stages are
    /// skipped.
    ///
    /// # Errors
    /// [`CoreError::UnknownLocation`] for a name the location hierarchy
    /// lacks; [`CoreError::MalformedPath`] for a duration that is not a
    /// number, or a path with no stage.
    pub fn require_path(&self, spec: &str) -> Result<Vec<AggStage>, CoreError> {
        let locations = self.schema.locations();
        let mut out = Vec::new();
        for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (name, dur) = match part.split_once(':') {
                Some((name, d)) => {
                    let dur = d.parse::<u32>().map_err(|_| CoreError::MalformedPath {
                        detail: format!("bad duration in path stage {part:?}"),
                    })?;
                    (name, Some(dur))
                }
                None => (part, None),
            };
            let loc = locations
                .id_of(name)
                .map_err(|_| CoreError::UnknownLocation {
                    name: name.to_string(),
                })?;
            out.push(AggStage { loc, dur });
        }
        if out.is_empty() {
            return Err(CoreError::MalformedPath {
                detail: "empty path".to_string(),
            });
        }
        Ok(out)
    }

    /// Resolve a cell key from value names (`None` = `*`).
    pub fn key_from_names(&self, names: &[Option<&str>]) -> Option<CellKey> {
        if names.len() != self.schema.num_dims() {
            return None;
        }
        names
            .iter()
            .enumerate()
            .map(|(d, n)| match n {
                None => Some(ConceptId::ROOT),
                Some(name) => self.schema.dim(d as u8).id_of(name).ok(),
            })
            .collect()
    }

    /// Point lookup that falls back to the nearest materialized ancestor
    /// cell — how a non-redundant / iceberg cube answers queries for
    /// pruned cells. The routing lives in [`view::lookup_route`], shared
    /// with the zero-copy snapshot query path; on a miss it walks this
    /// cube's own item levels at `path_level`.
    pub fn lookup(&self, key: &[ConceptId], path_level: PathLevelId) -> Option<Lookup<'_>> {
        let stored = || {
            view::walk_order(
                (self.cuboids.keys())
                    .filter(|ck| ck.path_level == path_level)
                    .map(|ck| ck.item_level.clone()),
            )
        };
        let (route, (source_level, source_key, entry)) =
            view::lookup_route(&self.schema, key, stored, |lvl, k| {
                let ck = CuboidKey {
                    item_level: lvl.clone(),
                    path_level,
                };
                let (ck, cuboid) = self.cuboids.get_key_value(&ck)?;
                let (source_key, entry) = cuboid.cells.get_key_value(k)?;
                Some((&ck.item_level, source_key, entry))
            })?;
        Some(Lookup {
            entry,
            exact: route.exact,
            source_key,
            source_level,
        })
    }

    /// Roll up one dimension of a cell: the parent cell with `dim`
    /// aggregated one level.
    pub fn roll_up(
        &self,
        key: &[ConceptId],
        dim: usize,
        path_level: PathLevelId,
    ) -> Option<(CellKey, &CellEntry)> {
        let (parent_level, parent_key) = view::rollup_target(&self.schema, key, dim)?;
        let entry = self.cuboid(&parent_level, path_level)?.get(&parent_key)?;
        Some((parent_key, entry))
    }

    /// Drill down one dimension: all materialized child cells obtained by
    /// specializing `dim` one level, in hierarchy order.
    pub fn drill_down(
        &self,
        key: &[ConceptId],
        dim: usize,
        path_level: PathLevelId,
    ) -> Vec<(CellKey, &CellEntry)> {
        let (child_level, candidates) = view::drilldown_candidates(&self.schema, key, dim);
        let Some(cuboid) = self.cuboid(&child_level, path_level) else {
            return Vec::new();
        };
        candidates
            .into_iter()
            .filter_map(|child_key| cuboid.get(&child_key).map(|entry| (child_key, entry)))
            .collect()
    }

    /// Slice a cuboid: all cells whose `dim` coordinate equals `value`,
    /// in ascending key order.
    pub fn slice(
        &self,
        item_level: &ItemLevel,
        path_level: PathLevelId,
        dim: usize,
        value: ConceptId,
    ) -> Vec<(&CellKey, &CellEntry)> {
        self.cuboid(item_level, path_level)
            .map(|c| {
                let mut rows: Vec<_> = c.iter().filter(|(k, _)| k[dim] == value).collect();
                rows.sort_unstable_by(|a, b| a.0.cmp(b.0));
                rows
            })
            .unwrap_or_default()
    }

    /// Dice a cuboid with an arbitrary predicate over keys, in ascending
    /// key order.
    pub fn dice<'a>(
        &'a self,
        item_level: &ItemLevel,
        path_level: PathLevelId,
        pred: impl Fn(&CellKey) -> bool + 'a,
    ) -> Vec<(&'a CellKey, &'a CellEntry)> {
        self.cuboid(item_level, path_level)
            .map(|c| {
                let mut rows: Vec<_> = c.iter().filter(move |(k, _)| pred(k)).collect();
                rows.sort_unstable_by(|a, b| a.0.cmp(b.0));
                rows
            })
            .unwrap_or_default()
    }

    /// Structural compatibility check of a partition merge or a
    /// comparison: same dimension count, same path-level spec (by level
    /// names).
    pub(crate) fn check_mergeable(&self, other: &FlowCube) -> Result<(), CoreError> {
        if self.schema.num_dims() != other.schema.num_dims() {
            return Err(CoreError::SchemaMismatch {
                left_dims: self.schema.num_dims(),
                right_dims: other.schema.num_dims(),
            });
        }
        if self.spec.len() != other.spec.len() {
            return Err(CoreError::PathSpecMismatch {
                detail: format!("{} levels vs {}", self.spec.len(), other.spec.len()),
            });
        }
        for i in 0..self.spec.len() as PathLevelId {
            if self.spec.level(i).name != other.spec.level(i).name {
                return Err(CoreError::PathSpecMismatch {
                    detail: format!("path level {i} name mismatch"),
                });
            }
        }
        Ok(())
    }

    /// Merge the partial cubes of a **disjoint partition** of one logical
    /// database into a single cube under `params` — distributed (sharded)
    /// construction via Lemma 4.2: flowgraph distributions are algebraic,
    /// so partition cubes combine by adding counts.
    ///
    /// Every cuboid is folded once ([`Cuboid::fold`]): cut at δ over the
    /// summed supports, so the merge is exact at any δ provided the
    /// partials were built at δ = 1.
    ///
    /// Exceptions are holistic (Lemma 4.3) and arrive cleared; re-mine
    /// them from the full database via [`FlowCube::remine_exceptions`]
    /// with [`FlowCube::all_cells`] as the dirty set. Redundancy pruning
    /// is likewise holistic; apply [`FlowCube::prune_redundant`] after
    /// the merge when `params.redundancy_tau` is set.
    ///
    /// The merged [`BuildStats`] describe the total construction work
    /// across the parts (see [`BuildStats::absorb`]), with
    /// `cells_materialized` recomputed from the merged cube.
    ///
    /// # Errors
    /// [`CoreError::PathSpecMismatch`] when `parts` is empty or any two
    /// partials disagree structurally; [`CoreError::SchemaMismatch`] on a
    /// dimension-count mismatch.
    pub fn merge_partitions<'a>(
        parts: impl IntoIterator<Item = &'a FlowCube>,
        params: FlowCubeParams,
    ) -> Result<FlowCube, CoreError> {
        let mut parts = parts.into_iter().peekable();
        let first = parts.peek().ok_or_else(|| CoreError::PathSpecMismatch {
            detail: "no partition cubes to merge".to_string(),
        })?;
        let mut cube = FlowCube::from_parts(
            first.schema.clone(),
            first.spec.clone(),
            params,
            BuildStats::default(),
        );
        let mut by_key: FxHashMap<&CuboidKey, Vec<&Cuboid>> = FxHashMap::default();
        for part in parts {
            cube.check_mergeable(part)?;
            for (ck, cuboid) in &part.cuboids {
                by_key.entry(ck).or_default().push(cuboid);
            }
            cube.stats.absorb(&part.stats);
        }
        for (ck, cuboids) in by_key {
            let mut folded = Cuboid::default();
            folded.fold(cuboids, cube.params.min_support);
            if !folded.is_empty() {
                cube.cuboids.insert(ck.clone(), folded);
            }
        }
        cube.stats.cells_materialized = cube.total_cells();
        Ok(cube)
    }

    /// Drop cells redundant w.r.t. their item-lattice parents
    /// (Definition 4.4) — the decision the build pipeline makes on its
    /// counts, made on this cube's graphs projected onto counts, for
    /// cubes assembled by merging partials, where τ cannot be applied per
    /// partition (similarity to a parent is holistic over the union).
    /// Returns the number of cells dropped and records it in the build
    /// stats.
    pub fn prune_redundant(&mut self, tau: f64) -> usize {
        // `cells_materialized` deliberately stays at its pre-prune value,
        // matching the batch pipeline (every counted cell is counted
        // there, whether or not it is stored).
        counts::prune_redundant(
            &mut self.cuboids,
            &self.schema,
            tau,
            &self.params,
            &mut self.stats,
        );
        self.stats.cells_pruned_redundant
    }

    /// Every materialized cell, grouped by cuboid and deterministically
    /// sorted — the "everything is dirty" set fed to
    /// [`FlowCube::remine_exceptions`] after a partition merge.
    pub fn all_cells(&self) -> Vec<(CuboidKey, Vec<CellKey>)> {
        let mut out: Vec<(CuboidKey, Vec<CellKey>)> = self
            .cuboids
            .iter()
            .map(|(ck, cuboid)| {
                let mut keys: Vec<CellKey> = cuboid.iter().map(|(k, _)| k.clone()).collect();
                keys.sort();
                (ck.clone(), keys)
            })
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Human-readable cell description.
    pub fn describe_cell(&self, key: &[ConceptId], path_level: PathLevelId) -> String {
        let name = &self.spec.level(path_level).name;
        match self.cell(key, path_level) {
            Some(e) => format!(
                "{} @ {}: {} paths, {} nodes, {} exceptions",
                display_key(key, &self.schema),
                name,
                e.support,
                e.graph.len() - 1,
                e.exceptions.len()
            ),
            None => format!(
                "{} @ {}: not materialized",
                display_key(key, &self.schema),
                name
            ),
        }
    }
}
