//! # flowcube-federate — sharded construction and scatter-gather serving
//!
//! Two halves of one scaling story:
//!
//! 1. **Sharded build** ([`build`], [`shard`]) — partition the path
//!    database by EPC hash, build a partial flowcube per shard (δ = 1,
//!    holistic phases deferred), and merge the partials into a cube
//!    **byte-identical** to the single-node build. Counts merge by
//!    addition (Lemma 4.2); the iceberg threshold is enforced once over
//!    the merged counts; exceptions and redundancy pruning — holistic
//!    per Lemma 4.3 / Definition 4.4 — run over the merged cube against
//!    the full path database.
//! 2. **Federated serving** ([`front`], [`merge`], [`client`]) — a
//!    front tier holding the shard map fans queries out to one `serve`
//!    instance per shard, merges answers per endpoint, and degrades to
//!    `"partial": true` instead of failing when shards are slow or
//!    down.
//!
//! The shard map (shard count + id + paths) travels in
//! [`shard::ShardPart`] — on disk, one `shard` section of the part's
//! snapshot — and in front configuration, never inside a cube, which is
//! what keeps merged snapshots byte-identical to single-node ones.
//!
//! Like the serving layer, this crate fronts the network: `unwrap` /
//! `expect` are denied outside tests.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod build;
pub mod client;
pub mod error;
pub mod front;
pub mod health;
pub mod merge;
pub mod replica;
pub mod shard;

pub use build::{build_shard_part, build_sharded, merge_shard_parts, partial_params};
pub use client::{http_post, ClientConfig};
pub use error::FederateError;
pub use front::{serve_front, Front, FrontConfig, FrontHandle};
pub use health::{BreakerConfig, BreakerState};
pub use merge::merge_endpoint;
pub use replica::{
    attempts_in_background, parse_backend_spec, HedgePolicy, ReplicaSet, RetryBudget,
};
pub use shard::{shard_db, shard_of, ShardMap, ShardPart};
