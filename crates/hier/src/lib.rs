//! Concept hierarchies and abstraction lattices for the FlowCube model.
//!
//! This crate is the bottom substrate of the FlowCube reproduction
//! (Gonzalez, Han, Li: *FlowCube: Constructing RFID FlowCubes for
//! Multi-Dimensional Analysis of Commodity Flows*, VLDB 2006). It provides:
//!
//! * [`ConceptHierarchy`] — interned *is-a* trees over dimension values,
//!   with ancestor queries and the paper's hierarchy-digit encoding;
//! * [`ItemLevel`] / [`ItemLattice`] — the item-view abstraction lattice
//!   (paper §4.1);
//! * [`LocationCut`] / [`PathLevel`] / [`PathLatticeSpec`] — the path-view
//!   abstraction lattice: antichains through the location hierarchy paired
//!   with a [`DurationLevel`];
//! * [`Schema`] — the dimensional schema of a path database;
//! * [`fx`] — a small Fx-style hasher used across the workspace.

pub mod concept;
pub mod cut;
pub mod fx;
pub mod lattice;
pub mod level;
pub mod schema;

pub use concept::{ConceptHierarchy, ConceptId, HierarchyError};
pub use cut::{CutError, LocationCut, PathLevel};
pub use fx::{FxHashMap, FxHashSet};
pub use lattice::{DuplicatePathLevel, ItemLattice, PathLatticeSpec, PathLevelId};
pub use level::{DurValue, DurationLevel, ItemLevel};
pub use schema::{DimId, Schema};
