//! Typed errors for flowcube operations.
//!
//! Every fallible `FlowCube` API returns [`CoreError`] rather than a
//! bare string, so downstream layers (the serve subsystem's
//! error-to-HTTP-status mapping in particular) can branch on the failure
//! kind instead of parsing messages.

use std::fmt;

/// Why a `FlowCube` operation failed.
#[derive(Clone, Debug, PartialEq)]
pub enum CoreError {
    /// Two cubes cannot combine: their schemas have different dimension
    /// counts.
    SchemaMismatch { left_dims: usize, right_dims: usize },
    /// Two cubes cannot combine: their path-level specs disagree.
    PathSpecMismatch { detail: String },
    /// A path level name did not resolve against the cube's spec.
    UnknownPathLevel { name: String },
    /// A cell specification did not resolve against the schema (wrong
    /// arity or an unknown dimension value).
    UnresolvedCell { spec: String },
    /// An observed path names a location the hierarchy does not have.
    UnknownLocation { name: String },
    /// An observed path has a stage whose duration is not a number, or
    /// no stage at all.
    MalformedPath { detail: String },
    /// A dimension index is out of range for the schema.
    DimensionOutOfRange { dim: usize, num_dims: usize },
    /// Source data failed to parse during ingestion (bad input, not a
    /// bug — CLI maps this to `EX_DATAERR`).
    Ingest { line: usize, detail: String },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::SchemaMismatch {
                left_dims,
                right_dims,
            } => write!(f, "schema mismatch: {left_dims} dimensions vs {right_dims}"),
            CoreError::PathSpecMismatch { detail } => {
                write!(f, "path-level spec mismatch: {detail}")
            }
            CoreError::UnknownPathLevel { name } => {
                write!(f, "unknown path level {name:?}")
            }
            CoreError::UnresolvedCell { spec } => {
                write!(f, "cannot resolve cell {spec:?}")
            }
            CoreError::UnknownLocation { name } => write!(f, "unknown location {name:?}"),
            CoreError::MalformedPath { detail } => f.write_str(detail),
            CoreError::DimensionOutOfRange { dim, num_dims } => {
                write!(f, "dimension {dim} out of range (schema has {num_dims})")
            }
            CoreError::Ingest { line, detail } => {
                write!(f, "ingest failed at line {line}: {detail}")
            }
        }
    }
}

impl std::error::Error for CoreError {}

impl From<flowcube_pathdb::io::ParseError> for CoreError {
    fn from(e: flowcube_pathdb::io::ParseError) -> Self {
        CoreError::Ingest {
            line: e.line,
            detail: e.message,
        }
    }
}
