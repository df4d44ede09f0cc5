//! Typed federation failures and their mapping onto the serving layer's
//! HTTP error vocabulary.

use flowcube_core::CoreError;
use flowcube_serve::ApiError;
use std::fmt;

/// Why a sharded build, merge, or federated query failed.
#[derive(Clone, Debug, PartialEq)]
pub enum FederateError {
    /// The shard map disagrees with itself or with the caller: a
    /// `--shards N` build served behind an M-backend front, a shard id
    /// out of range, or partial cubes built against different shard
    /// counts.
    ShardCountMismatch { expected: u32, actual: u32 },
    /// A set of shard partials cannot merge: duplicate or missing shard
    /// ids, inconsistent schemas, or a path count that does not add up
    /// to the full database.
    PartMismatch { detail: String },
    /// A configuration problem caught before any work started.
    Config { detail: String },
    /// A malformed replica-set spec: an empty shard entry in
    /// `--backends "a:1|a:2,b:1"`, or a shard whose replica set is
    /// empty.
    ReplicaSpec { detail: String },
    /// A typed core failure surfaced by the merge machinery.
    Core(CoreError),
    /// One backend shard could not be reached or answered garbage.
    Shard { shard: u32, detail: String },
    /// Every shard of a fan-out failed or timed out — there is nothing
    /// to degrade to.
    AllShardsFailed { shards: u32 },
    /// Plain I/O (binding the front listener, a failed POST).
    Io { detail: String },
}

impl fmt::Display for FederateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FederateError::ShardCountMismatch { expected, actual } => {
                write!(f, "shard count mismatch: expected {expected}, got {actual}")
            }
            FederateError::PartMismatch { detail } => write!(f, "shard parts mismatch: {detail}"),
            FederateError::Config { detail } => write!(f, "federate config: {detail}"),
            FederateError::ReplicaSpec { detail } => write!(f, "replica set spec: {detail}"),
            FederateError::Core(e) => write!(f, "{e}"),
            FederateError::Shard { shard, detail } => write!(f, "shard {shard}: {detail}"),
            FederateError::AllShardsFailed { shards } => {
                write!(f, "all {shards} shards failed or timed out")
            }
            FederateError::Io { detail } => write!(f, "{detail}"),
        }
    }
}

impl std::error::Error for FederateError {}

impl From<CoreError> for FederateError {
    fn from(e: CoreError) -> Self {
        FederateError::Core(e)
    }
}

/// Map a federation failure onto the serving layer's error vocabulary —
/// the front tier answers HTTP, so every failure must land on a status.
///
/// * Shard-map and config mistakes are the operator's request being
///   wrong: `BadRequest` (400).
/// * Core mismatches keep their own mapping (404/400/409).
/// * A fully failed fan-out is overload-shaped and transient:
///   `Unavailable` (503 with `Retry-After`), like a single node's
///   deadline miss.
impl From<FederateError> for ApiError {
    fn from(e: FederateError) -> Self {
        match e {
            FederateError::Core(c) => ApiError::Core(c),
            FederateError::AllShardsFailed { .. } | FederateError::Shard { .. } => {
                ApiError::Unavailable(e.to_string())
            }
            other => ApiError::BadRequest(other.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_to_http_statuses() {
        let e: ApiError = FederateError::ShardCountMismatch {
            expected: 4,
            actual: 2,
        }
        .into();
        assert_eq!(e.status(), 400);
        let e: ApiError = FederateError::AllShardsFailed { shards: 3 }.into();
        assert_eq!(e.status(), 503);
        assert_eq!(e.retry_after_secs(), Some(1));
        let e: ApiError = FederateError::Core(CoreError::SchemaMismatch {
            left_dims: 2,
            right_dims: 3,
        })
        .into();
        assert_eq!(e.status(), 409);
    }
}
