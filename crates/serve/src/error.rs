//! Serving-layer errors and their HTTP status mapping.

use flowcube_core::CoreError;
use std::fmt;

/// Why a snapshot could not be written, opened, or read.
#[derive(Clone, Debug, PartialEq)]
pub enum SnapshotError {
    Io {
        path: String,
        detail: String,
    },
    /// The file does not start with the snapshot magic.
    BadMagic,
    /// The file declares a format version this build does not read.
    UnsupportedVersion {
        found: u32,
        supported: u32,
    },
    /// The file ends before a structure it promises.
    Truncated {
        what: &'static str,
    },
    /// A section's bytes do not match their recorded CRC-32.
    ChecksumMismatch {
        section: String,
    },
    /// A structurally invalid index or payload.
    Corrupt {
        detail: String,
    },
    /// A required metadata section is absent.
    MissingSection {
        kind: &'static str,
    },
    /// A columnar section references something past the end of the
    /// region that should contain it (string-table id, node range,
    /// child / duration / exception offset, …).
    OutOfBounds {
        section: String,
        what: String,
    },
    /// A columnar region offset violates the format's 8-byte alignment,
    /// so the fixed-width tables cannot be addressed in place.
    Misaligned {
        section: String,
        what: String,
    },
    /// Two columnar ranges that must be disjoint overlap (e.g. two
    /// cells claiming the same flowgraph node rows).
    Overlapping {
        section: String,
        what: String,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io { path, detail } => write!(f, "{path}: {detail}"),
            SnapshotError::BadMagic => write!(f, "not a flowcube snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion { found, supported } => write!(
                f,
                "snapshot format version {found} not supported (this build reads {supported})"
            ),
            SnapshotError::Truncated { what } => write!(f, "snapshot truncated in {what}"),
            SnapshotError::ChecksumMismatch { section } => {
                write!(f, "checksum mismatch in {section}")
            }
            SnapshotError::Corrupt { detail } => write!(f, "corrupt snapshot: {detail}"),
            SnapshotError::MissingSection { kind } => {
                write!(f, "snapshot missing required section {kind:?}")
            }
            SnapshotError::OutOfBounds { section, what } => {
                write!(f, "out-of-bounds reference in {section}: {what}")
            }
            SnapshotError::Misaligned { section, what } => {
                write!(f, "misaligned region in {section}: {what}")
            }
            SnapshotError::Overlapping { section, what } => {
                write!(f, "overlapping ranges in {section}: {what}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// A request that could not be served, carrying its HTTP status.
#[derive(Clone, Debug, PartialEq)]
pub enum ApiError {
    /// Missing/unparsable parameter, unknown route parameterization.
    BadRequest(String),
    /// The route or the addressed data does not exist.
    NotFound(String),
    /// A typed core failure (resolution, compatibility).
    Core(CoreError),
    /// The snapshot backing the cube failed mid-serve.
    Snapshot(SnapshotError),
    /// The request's deadline elapsed before an answer was produced.
    Deadline,
    /// Nothing behind this server could answer right now (the front
    /// tier, when every shard of a fan-out failed).
    Unavailable(String),
    /// The bytes on the socket were not a request (the parser's detail).
    Malformed(String),
    /// The request head exceeded its bound.
    HeadTooLarge,
    /// The request body exceeded its bound.
    BodyTooLarge,
    /// The route does not take this method.
    MethodNotAllowed(String),
    /// The accept queue was full: the connection is shed at the door.
    Overloaded,
}

impl ApiError {
    /// The HTTP status this error maps to. This is the single place the
    /// serving layer decides statuses, and it reuses [`CoreError`]'s
    /// variants rather than string matching.
    pub fn status(&self) -> u16 {
        match self {
            ApiError::BadRequest(_) | ApiError::Malformed(_) => 400,
            ApiError::NotFound(_) => 404,
            ApiError::Core(e) => match e {
                CoreError::UnknownPathLevel { .. }
                | CoreError::UnresolvedCell { .. }
                | CoreError::UnknownLocation { .. } => 404,
                CoreError::DimensionOutOfRange { .. } | CoreError::MalformedPath { .. } => 400,
                CoreError::SchemaMismatch { .. } | CoreError::PathSpecMismatch { .. } => 409,
                // Bad source data surfacing through a serving path is a
                // malformed request from the server's point of view.
                CoreError::Ingest { .. } => 400,
            },
            ApiError::Snapshot(_) => 500,
            ApiError::Deadline | ApiError::Unavailable(_) => 503,
            ApiError::HeadTooLarge => 431,
            ApiError::BodyTooLarge => 413,
            ApiError::MethodNotAllowed(_) => 405,
            ApiError::Overloaded => 429,
        }
    }

    /// Seconds a client should wait before retrying, for errors where a
    /// retry can reasonably succeed (emitted as a `Retry-After` header).
    /// Overload-shaped failures (`429` load shed, `503` deadline) are
    /// transient; everything else is the client's request being wrong,
    /// where retrying as-is only adds load.
    pub fn retry_after_secs(&self) -> Option<u64> {
        match self {
            ApiError::Deadline | ApiError::Unavailable(_) | ApiError::Overloaded => Some(1),
            _ => None,
        }
    }
}

impl fmt::Display for ApiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ApiError::BadRequest(m) => write!(f, "bad request: {m}"),
            ApiError::NotFound(m) => write!(f, "not found: {m}"),
            ApiError::Core(e) => write!(f, "{e}"),
            ApiError::Snapshot(e) => write!(f, "{e}"),
            ApiError::Deadline => write!(f, "deadline exceeded"),
            ApiError::Unavailable(m) => write!(f, "{m}"),
            ApiError::Malformed(detail) => write!(f, "malformed request: {detail}"),
            ApiError::HeadTooLarge => write!(f, "request head too large"),
            ApiError::BodyTooLarge => write!(f, "request body too large"),
            ApiError::MethodNotAllowed(method) => write!(f, "method {method} not allowed"),
            ApiError::Overloaded => write!(f, "server overloaded"),
        }
    }
}

impl From<CoreError> for ApiError {
    fn from(e: CoreError) -> Self {
        ApiError::Core(e)
    }
}

impl From<SnapshotError> for ApiError {
    fn from(e: SnapshotError) -> Self {
        ApiError::Snapshot(e)
    }
}
