//! Incremental maintenance cost: applying a micro-batch `CubeDelta` to a
//! live cube (Lemma 4.2 count addition) versus rebuilding the whole cube
//! from scratch, on the Figure 6 dataset at two dimensions. CI holds
//! `speedup` — rebuild over delta compute + apply — to at least 2.
//!
//! Usage: `exp_incremental` (no flags); prints one JSON line.

use flowcube_bench::median_secs;
use flowcube_core::{CubeDelta, FlowCube, FlowCubeParams, ItemPlan};
use flowcube_datagen::{generate, DimShape, GeneratorConfig};
use flowcube_hier::PathLatticeSpec;
use flowcube_pathdb::PathDatabase;
use serde::Serialize;
use std::hint::black_box;

/// Base paths (the live cube) and micro-batch size.
const BASE_PATHS: usize = 5_000;
const BATCH_PATHS: usize = 20;
const RUNS: usize = 10;

#[derive(Serialize)]
struct Incremental {
    base_paths: usize,
    batch_paths: usize,
    base_cells: usize,
    delta_cells: usize,
    /// Rebuild the cube from base + batch: what a non-incremental system
    /// pays per micro-batch.
    full_rebuild_us: f64,
    /// Compute the micro-batch's delta, which pays only for the batch.
    delta_compute_us: f64,
    /// Merge the delta into the live cube.
    delta_apply_us: f64,
    /// `full_rebuild_us / (delta_compute_us + delta_apply_us)`.
    speedup: f64,
}

fn us_per_run(f: impl FnMut()) -> f64 {
    median_secs(RUNS, 1, f) * 1e6
}

fn main() {
    // Figure 6's workload at Figure 8's low dimensionality (d = 2): with
    // the full d = 5 item lattice a δ = 1 micro-batch delta materializes
    // every item level, past what a live ingest accepts in one body.
    let config = GeneratorConfig {
        num_paths: BASE_PATHS + BATCH_PATHS,
        dims: vec![DimShape::new(vec![4, 4, 6], 0.8); 2],
        ..Default::default()
    };
    let db = generate(&config).db;
    let records = db.records();
    let base =
        PathDatabase::from_records(db.schema().clone(), records[..BASE_PATHS].to_vec()).unwrap();
    let batch =
        PathDatabase::from_records(db.schema().clone(), records[BASE_PATHS..].to_vec()).unwrap();
    let spec = PathLatticeSpec::paper(db.schema().locations(), 4);
    // Exceptions off: serve-side ingest is algebraic only.
    let params = FlowCubeParams::new(20).with_exceptions(false);

    let live = FlowCube::build(&base, spec.clone(), params.clone(), ItemPlan::All);
    let delta = CubeDelta::compute(&batch, &spec, &params, &ItemPlan::All);

    let full_rebuild_us = us_per_run(|| {
        black_box(FlowCube::build(
            &db,
            spec.clone(),
            params.clone(),
            ItemPlan::All,
        ));
    });
    let delta_compute_us = us_per_run(|| {
        black_box(CubeDelta::compute(&batch, &spec, &params, &ItemPlan::All));
    });
    // Apply into one persistent cube, the way a live server does: the
    // same delta touches the same cells every run, so every run is the
    // same merge and iceberg re-enforcement.
    let mut cube = live.clone();
    let delta_apply_us = us_per_run(|| {
        cube.apply_delta(&delta).expect("same shape");
    });

    let result = Incremental {
        base_paths: BASE_PATHS,
        batch_paths: BATCH_PATHS,
        base_cells: live.total_cells(),
        delta_cells: delta.total_cells(),
        full_rebuild_us,
        delta_compute_us,
        delta_apply_us,
        speedup: full_rebuild_us / (delta_compute_us + delta_apply_us),
    };
    println!(
        "{}",
        serde_json::to_string(&result).expect("serialize result")
    );
}
