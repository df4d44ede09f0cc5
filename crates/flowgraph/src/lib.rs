//! The flowgraph measure (paper §3): a tree-shaped probabilistic workflow
//! summarizing the paths in one flowcube cell.
//!
//! * [`FlowGraph`] — prefix tree with per-node duration distributions,
//!   transition counts, and termination counts; algebraic `merge`
//!   (Lemma 4.2) assembles higher-level graphs from materialized ones.
//! * [`exception`] — the holistic component (Lemma 4.3): frequent path
//!   segments whose presence shifts a node's distributions by more than ε.
//! * [`similarity`] — the KL divergence between flowgraphs and the
//!   Definition 4.4 redundancy test.

pub mod diff;
pub mod dist;
pub mod exception;
pub mod graph;
pub mod query;
pub mod similarity;

pub use diff::{diff, FlowDiff, NodeDelta, Presence};
pub use dist::CountDist;
pub use exception::{
    exceptions_from_segments, mine_exceptions, mine_frequent_segments, Constraint, Exception,
    ExceptionDetail, ExceptionParams, Segment,
};
pub use graph::{FlowGraph, GraphRead, NodeId, NodeSpec};
pub use query::{path_probability, predict_next, top_k_paths, ScoredPath};
pub use similarity::{is_redundant, FlowSimilarity, KlSimilarity};
