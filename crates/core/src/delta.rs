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

use crate::build;
use crate::cell::{CellKey, Cuboid, CuboidKey};
use crate::cube::FlowCube;
use crate::error::CoreError;
use crate::params::{partial_params, FlowCubeParams, ItemPlan};
use flowcube_hier::{PathLatticeSpec, Schema};
use flowcube_obs::{counter_add, Timer};
use flowcube_pathdb::PathDatabase;
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
    /// built under [`partial_params`] — δ = 1, the holistic phases off —
    /// so that applying the delta is exact per Lemma 4.2.
    pub fn compute(
        batch: &PathDatabase,
        spec: &PathLatticeSpec,
        params: &FlowCubeParams,
        plan: &ItemPlan,
    ) -> CubeDelta {
        let _span = flowcube_obs::span!("delta.compute");
        let mini = FlowCube::build(batch, spec.clone(), partial_params(params), plan.clone());
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
    /// folding each of its cuboids into this cube's with one δ cut
    /// ([`Cuboid::fold`]), and report the dirty cells whose exceptions
    /// must be re-mined (Lemma 4.3).
    ///
    /// Exactness: with `params.min_support == 1` the result is
    /// byte-identical to rebuilding from the union of the streams (any
    /// split, any order). At δ > 1 each apply cuts at δ, so a cell's
    /// early sub-threshold contributions are forgotten — the maintained
    /// cube is a subset of the batch-built one. (A served overlay folds
    /// all its pending deltas in one cut and forgets nothing between
    /// them.)
    ///
    /// # Errors
    /// [`CoreError::SchemaMismatch`] / [`CoreError::PathSpecMismatch`]
    /// when the delta's fingerprint does not match this cube.
    pub fn apply_delta(&mut self, delta: &CubeDelta) -> Result<DeltaReport, CoreError> {
        let _span = flowcube_obs::span!("cube.apply_delta");
        let timer = Timer::start("cube.delta.apply");
        delta.validate_against(self)?;

        let min_support = self.params().min_support;
        let (mut merged_cells, mut pruned_cells) = (0, 0);
        let mut dirty: Vec<(CuboidKey, Vec<CellKey>)> = Vec::with_capacity(delta.cuboids.len());
        for (ck, cuboid) in &delta.cuboids {
            let cuboids = self.cuboids_map_mut();
            let mut folded = cuboids.remove(ck).unwrap_or_default();
            pruned_cells += folded.fold([cuboid], min_support);
            merged_cells += cuboid.len();
            let touched: Vec<CellKey> = (cuboid.cells.keys())
                .filter(|k| folded.cells.contains_key(*k))
                .cloned()
                .collect();
            if !folded.is_empty() {
                cuboids.insert(ck.clone(), folded);
            }
            if !touched.is_empty() {
                dirty.push((ck.clone(), touched));
            }
        }

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
    /// applications (or of a partition merge), against the **full** path
    /// database — exceptions are holistic (Lemma 4.3), so the delta's own
    /// paths are not enough.
    ///
    /// Runs on the build's machinery (BUC tid lists, the path dictionary,
    /// the chunked runner). Only the listed cells that still exist are
    /// touched; returns how many were re-mined.
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
        let (spec, params) = (self.spec().clone(), self.params().clone());
        let remined = build::remine(db, &spec, &params, self.cuboids_map_mut(), dirty);
        counter_add("cube.delta.remined_cells", remined as u64);
        let elapsed = timer.stop();
        flowcube_obs::histogram_record("cube.delta.remine_us", elapsed.as_secs_f64() * 1e6);
        Ok(remined)
    }
}
