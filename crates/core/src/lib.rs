//! The FlowCube: a warehouse of RFID commodity flows (Gonzalez, Han, Li;
//! VLDB 2006).
//!
//! A [`FlowCube`] is a collection of cuboids, each characterized by an
//! item abstraction level and a path abstraction level; the measure of a
//! cell is a [`flowcube_flowgraph::FlowGraph`] over the paths in the cell,
//! annotated with exceptions. Construction (paper §5) mines frequent
//! cells and frequent path segments simultaneously at every abstraction
//! level, materializes only cells passing the iceberg condition δ, and
//! optionally drops cells redundant w.r.t. their lattice parents
//! (Definition 4.4).
//!
//! ```
//! use flowcube_core::{FlowCube, FlowCubeParams, ItemPlan};
//! use flowcube_hier::PathLatticeSpec;
//! use flowcube_pathdb::samples;
//!
//! let db = samples::paper_table1();
//! let spec = PathLatticeSpec::paper(db.schema().locations(), 1);
//! let cube = FlowCube::build(&db, spec, FlowCubeParams::new(2), ItemPlan::All);
//! assert!(cube.total_cells() > 0);
//! ```

mod build;
pub mod cell;
pub mod compare;
mod counts;
pub mod cube;
pub mod delta;
pub mod error;
pub mod params;
pub(crate) mod serde_map;
pub mod stats;
pub mod view;

pub use cell::{aggregate_key, display_key, level_of_key, CellEntry, CellKey, Cuboid, CuboidKey};
pub use compare::{CellDiff, CubeDiff};
pub use cube::{FlowCube, Lookup};
pub use delta::{CubeDelta, DeltaReport};
pub use error::CoreError;
/// The chunk runner every parallel phase of a cube's life shares — the
/// one [`FlowCubeParams::threads_for`] plans threads for — re-exported
/// for the crates that persist and serve a cube.
pub use flowcube_mining::parallel;
pub use params::{partial_params, Algorithm, FlowCubeParams, ItemPlan};
pub use stats::BuildStats;
pub use view::{CellStats, CuboidRead, Route};
