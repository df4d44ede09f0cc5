//! Multi-level frequent pattern mining for flowcube construction (§5).

pub mod apriori;
mod bitmap;
pub mod buc;
pub mod cubing;
pub mod encode;
pub mod item;
pub mod parallel;
pub mod prefix;
pub mod shared;

pub use apriori::{Itemset, MiningStats};
pub use buc::{buc_iceberg, BucStats, IcebergCell};
pub use cubing::{mine_cubing, CubingConfig, CubingIo};
pub use encode::TransactionDb;
pub use flowcube_obs as obs;
pub use item::{DictContext, ItemDictionary, ItemId, ItemKind};
pub use parallel::{plan_threads, resolve_threads, DEFAULT_PARALLEL_CUTOFF, THREADS_ENV};
pub use prefix::{PrefixId, PrefixInterner};
pub use shared::{mine, mine_basic, mine_shared, FrequentItemsets, SharedConfig};
