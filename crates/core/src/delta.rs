//! Incremental flowcube maintenance: micro-batch deltas and their
//! algebraic application (DESIGN.md §12).
//!
//! The split follows the paper's two lemmas. Lemma 4.2 makes the
//! flowgraph's count/distribution component **algebraic**: the cube for
//! `D ∪ ΔD` is obtained from the cube for `D` by adding the per-cell
//! counts of a δ=1 mini-cube over `ΔD` — no rebuild, no second scan of
//! `D`. Lemma 4.3 makes exceptions **holistic**: a cell touched by a
//! delta keeps stale exceptions, so [`FlowCube::apply_delta`] clears and
//! reports them as *dirty*, and [`FlowCube::remine_exceptions`] re-mines
//! exactly those cells from the full path set.

use crate::cell::{aggregate_key, CellKey, Cuboid, CuboidKey};
use crate::cube::FlowCube;
use crate::error::CoreError;
use crate::params::{FlowCubeParams, ItemPlan};
use flowcube_flowgraph::ExceptionParams;
use flowcube_hier::{FxHashMap, PathLatticeSpec, PathLevelId, Schema};
use flowcube_obs::{counter_add, Timer};
use flowcube_pathdb::{aggregate_stages, AggStage, PathDatabase};
use serde::{Deserialize, Serialize};

/// A micro-batch of cube content: the δ=1, exception-free mini-cube of a
/// slice of the reading stream, ready to merge into a live cube by count
/// addition.
///
/// A delta carries a structural fingerprint (dimension hierarchy names +
/// path level names) instead of the full schema, so appliers can reject
/// a delta computed against a different cube shape without shipping the
/// hierarchies in every batch.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CubeDelta {
    /// Names of the dimension hierarchies, in schema order.
    pub dims: Vec<String>,
    /// Names of the path levels, in spec order.
    pub path_levels: Vec<String>,
    /// Paths (records) summarized by this delta.
    pub paths: u64,
    /// Mini-cuboids, sorted by key for deterministic serialization.
    /// Every cell is δ=1-materialized with an empty exception list.
    pub cuboids: Vec<(CuboidKey, Cuboid)>,
}

impl CubeDelta {
    /// Build the delta for a micro-batch of path records.
    ///
    /// `params` is the **base cube's** parameter set; the delta itself is
    /// built at δ = 1 with exception mining and redundancy pruning off
    /// (both are holistic — they cannot be computed per batch), keeping
    /// everything else (merge policy, thread plan) so that applying the
    /// delta is exact per Lemma 4.2.
    pub fn compute(
        batch: &PathDatabase,
        spec: &PathLatticeSpec,
        params: &FlowCubeParams,
        plan: &ItemPlan,
    ) -> CubeDelta {
        let _span = flowcube_obs::span!("delta.compute");
        let mut delta_params = params.clone();
        delta_params.min_support = 1;
        delta_params.mine_exceptions = false;
        delta_params.redundancy_tau = None;
        let mini = FlowCube::build(batch, spec.clone(), delta_params, plan.clone());
        let mut cuboids: Vec<(CuboidKey, Cuboid)> = mini
            .cuboids()
            .map(|(k, c)| (k.clone(), c.clone()))
            .collect();
        cuboids.sort_by(|a, b| a.0.cmp(&b.0));
        counter_add("cube.delta.computed", 1);
        counter_add("cube.delta.paths", batch.len() as u64);
        CubeDelta {
            dims: Self::dim_names(batch.schema()),
            path_levels: Self::level_names(spec),
            paths: batch.len() as u64,
            cuboids,
        }
    }

    /// The structural fingerprint a cube must match to accept this delta.
    pub fn dim_names(schema: &Schema) -> Vec<String> {
        schema.dims().iter().map(|h| h.name().to_string()).collect()
    }

    pub fn level_names(spec: &PathLatticeSpec) -> Vec<String> {
        spec.levels().iter().map(|l| l.name.clone()).collect()
    }

    /// Total cells across the delta's cuboids.
    pub fn total_cells(&self) -> usize {
        self.cuboids.iter().map(|(_, c)| c.len()).sum()
    }

    /// Check this delta's structural fingerprint against a cube without
    /// touching it — the precondition of [`FlowCube::apply_delta`], also
    /// used by appliers that must reject a bad delta *before* persisting
    /// it (e.g. the serve layer's delta sidecar).
    ///
    /// # Errors
    /// [`CoreError::SchemaMismatch`] when the dimension counts differ,
    /// [`CoreError::PathSpecMismatch`] when a hierarchy or path-level
    /// name differs.
    pub fn validate_against(&self, cube: &FlowCube) -> Result<(), CoreError> {
        let dims = Self::dim_names(cube.schema());
        if dims.len() != self.dims.len() {
            return Err(CoreError::SchemaMismatch {
                left_dims: dims.len(),
                right_dims: self.dims.len(),
            });
        }
        for (i, (mine, theirs)) in dims.iter().zip(&self.dims).enumerate() {
            if mine != theirs {
                return Err(CoreError::PathSpecMismatch {
                    detail: format!(
                        "dimension {i} hierarchy is {mine:?}, delta was computed over {theirs:?}"
                    ),
                });
            }
        }
        let levels = Self::level_names(cube.spec());
        if levels != self.path_levels {
            return Err(CoreError::PathSpecMismatch {
                detail: format!("path levels {levels:?} vs delta's {:?}", self.path_levels),
            });
        }
        Ok(())
    }
}

/// What [`FlowCube::apply_delta`] did.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DeltaReport {
    /// Paths the delta contributed.
    pub paths: u64,
    /// Cells merged or created.
    pub merged_cells: usize,
    /// Cells dropped when the iceberg δ was re-enforced after the merge.
    pub pruned_cells: usize,
    /// Surviving touched cells whose exceptions are now stale (cleared)
    /// and need re-mining — feed to [`FlowCube::remine_exceptions`].
    pub dirty: Vec<(CuboidKey, Vec<CellKey>)>,
}

impl FlowCube {
    /// Merge a micro-batch delta into this cube (Lemma 4.2: counts add),
    /// re-enforce the iceberg condition, and report the dirty cells whose
    /// exceptions must be re-mined (Lemma 4.3).
    ///
    /// Exactness: with `params.min_support == 1` the result is
    /// byte-identical to rebuilding from the union of the streams (any
    /// split, any order). At δ > 1 the iceberg prunes eagerly after each
    /// apply, so a cell's early sub-threshold contributions are forgotten
    /// — the maintained cube is a subset of the batch-built one, which is
    /// the same per-partition caveat as [`FlowCube::merge_from`].
    ///
    /// # Errors
    /// [`CoreError::SchemaMismatch`] / [`CoreError::PathSpecMismatch`]
    /// when the delta's fingerprint does not match this cube.
    pub fn apply_delta(&mut self, delta: &CubeDelta) -> Result<DeltaReport, CoreError> {
        let _span = flowcube_obs::span!("cube.apply_delta");
        let timer = Timer::start("cube.delta.apply");
        delta.validate_against(self)?;

        let mut merged_cells = 0;
        let mut dirty: Vec<(CuboidKey, Vec<CellKey>)> = Vec::with_capacity(delta.cuboids.len());
        for (ck, cuboid) in &delta.cuboids {
            let touched = self
                .cuboids_map_mut()
                .entry(ck.clone())
                .or_default()
                .merge_from(cuboid);
            merged_cells += touched.len();
            dirty.push((ck.clone(), touched));
        }
        let pruned_cells = self.enforce_min_support(self.params().min_support);
        if pruned_cells > 0 {
            // Cells that did not survive the iceberg are not dirty — they
            // no longer exist.
            for (ck, keys) in &mut dirty {
                let cuboid = self.cuboids_map().get(ck);
                keys.retain(|k| cuboid.is_some_and(|c| c.get(k).is_some()));
            }
        }
        dirty.retain(|(_, keys)| !keys.is_empty());

        self.stats_mut().deltas_applied += 1;
        self.stats_mut().delta_paths += delta.paths;
        self.stats_mut().cells_materialized = self.total_cells();
        counter_add("cube.delta.applied", 1);
        counter_add("cube.delta.merged_cells", merged_cells as u64);
        counter_add("cube.delta.pruned_cells", pruned_cells as u64);
        let elapsed = timer.stop();
        flowcube_obs::histogram_record("cube.delta.apply_us", elapsed.as_secs_f64() * 1e6);
        Ok(DeltaReport {
            paths: delta.paths,
            merged_cells,
            pruned_cells,
            dirty,
        })
    }

    /// Re-mine exceptions for the dirty cells of one or more delta
    /// applications, against the **full** path database (base plus every
    /// applied batch) — exceptions are holistic (Lemma 4.3), so the
    /// delta's own paths are not enough.
    ///
    /// Only the listed cells are touched; everything else keeps its
    /// existing exceptions. Returns the number of cells re-mined. Cells
    /// in `dirty` that no longer exist (pruned meanwhile) are skipped.
    ///
    /// # Errors
    /// [`CoreError::SchemaMismatch`] when `db`'s dimension count differs
    /// from the cube's.
    pub fn remine_exceptions(
        &mut self,
        db: &PathDatabase,
        dirty: &[(CuboidKey, Vec<CellKey>)],
    ) -> Result<usize, CoreError> {
        let _span = flowcube_obs::span!("cube.remine_exceptions");
        if db.schema().num_dims() != self.schema().num_dims() {
            return Err(CoreError::SchemaMismatch {
                left_dims: self.schema().num_dims(),
                right_dims: db.schema().num_dims(),
            });
        }
        let timer = Timer::start("cube.delta.remine");

        // Aggregate each record's path once per distinct path level in
        // the dirty set (the expensive, shared part).
        let mut agg_by_level: FxHashMap<PathLevelId, Vec<Vec<AggStage>>> = FxHashMap::default();
        for (ck, _) in dirty {
            agg_by_level.entry(ck.path_level).or_insert_with(|| {
                let level = self.spec().level(ck.path_level);
                db.records()
                    .iter()
                    .map(|r| {
                        aggregate_stages(&r.stages, level, self.params().merge)
                            .expect("db locations are covered by every cut")
                    })
                    .collect()
            });
        }

        // One pass per dirty cuboid: route each record's paths to the
        // dirty cells its dims aggregate into.
        let mut work: Vec<(CuboidKey, CellKey, Vec<&[AggStage]>)> = Vec::new();
        for (ck, keys) in dirty {
            let agg = &agg_by_level[&ck.path_level];
            let mut per_cell: FxHashMap<&CellKey, Vec<&[AggStage]>> = FxHashMap::default();
            let wanted: FxHashMap<&CellKey, ()> = keys.iter().map(|k| (k, ())).collect();
            for (i, r) in db.records().iter().enumerate() {
                let cell = aggregate_key(&r.dims, &ck.item_level, self.schema());
                if let Some((&k, _)) = wanted.get_key_value(&cell) {
                    per_cell.entry(k).or_default().push(&agg[i]);
                }
            }
            // Keep the caller's key order (deterministic, matches the
            // delta's sorted cell order).
            for key in keys {
                if self
                    .cuboids_map()
                    .get(ck)
                    .is_some_and(|c| c.get(key).is_some())
                {
                    let paths = per_cell.remove(key).unwrap_or_default();
                    work.push((ck.clone(), key.clone(), paths));
                }
            }
        }

        let exc_params = ExceptionParams {
            min_support: self.params().min_support,
            min_deviation: self.params().exception_deviation,
        };
        let threads = self.params().threads_for(work.len());
        let results: Vec<Vec<flowcube_flowgraph::Exception>> = {
            let cells: Vec<flowcube_mining::RemineCell<'_, &[AggStage]>> = work
                .iter()
                .map(|(ck, key, paths)| flowcube_mining::RemineCell {
                    graph: &self.cuboids_map()[ck].cells[key].graph,
                    paths,
                })
                .collect();
            flowcube_mining::remine_cells(&cells, &exc_params, threads)
        };
        let remined = results.len();
        for ((ck, key, _), exceptions) in work.iter().zip(results) {
            if let Some(entry) = self
                .cuboids_map_mut()
                .get_mut(ck)
                .and_then(|c| c.cells.get_mut(key))
            {
                entry.exceptions = exceptions;
            }
        }
        counter_add("cube.delta.remined_cells", remined as u64);
        let elapsed = timer.stop();
        flowcube_obs::histogram_record("cube.delta.remine_us", elapsed.as_secs_f64() * 1e6);
        Ok(remined)
    }
}
