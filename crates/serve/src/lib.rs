//! # flowcube-serve — snapshots and a query server for built FlowCubes
//!
//! The serving layer splits a FlowCube's life into two phases:
//!
//! 1. **Snapshot** — [`snapshot::write_snapshot`] persists a built cube
//!    into a versioned binary container (magic + format version,
//!    CRC-protected section index; JSON metadata sections for schema,
//!    path-lattice spec, params and build stats; an interned string
//!    table; and one flat columnar FCC2 section per cuboid, see
//!    [`columnar`]). [`snapshot::Snapshot::open`] validates the
//!    container and loads metadata eagerly but cuboid sections
//!    **lazily**, so a server starts in milliseconds regardless of cube
//!    size. A validated section is the only form a cuboid is ever
//!    served from: an in-process cube is encoded into the same
//!    container in memory, and ingested deltas re-encode the sections
//!    they touch.
//! 2. **Serve** — [`server::serve`] answers the OLAP + flowgraph query
//!    API over HTTP/1.1 with a fixed worker pool, a bounded accept
//!    queue that sheds load with `429` instead of buffering without
//!    bound, per-connection socket timeouts, a sharded LRU response
//!    cache ([`cache::ResponseCache`]) fronting the flowgraph-heavy
//!    endpoints, and graceful shutdown on `SIGINT`/`SIGTERM`. The
//!    listener runtime and the request envelope are generic over a
//!    [`server::Service`]: [`server::host`] runs the federation front
//!    (`flowcube-federate`) on the same code.
//!
//! Every request is traced through `flowcube-obs` (`serve.requests.*`,
//! `serve.latency_us*`, `serve.cache.*`, per-endpoint × status-class
//! `serve.request.latency_us{endpoint=…,status=…}` histograms) and the
//! registry is exported over `/metrics` — JSON by default, Prometheus
//! text with `?format=prometheus`. Each request carries an
//! `X-Request-Id` (inbound honored, minted otherwise, always echoed),
//! feeds the in-memory flight recorder (`/debug/flight`), and can be
//! logged to a structured JSON access log ([`access::AccessLog`]) that
//! attaches the flight window to 5xx and slow responses.
//!
//! Failure handling (panic-isolated workers, per-request deadlines,
//! snapshot hot-reload with rollback) is described in `DESIGN.md` §10.
//! This crate fronts the network, so sloppy error handling becomes an
//! outage: `unwrap`/`expect` are denied outside tests — every failure
//! must map to an HTTP status or a typed error.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod access;
pub mod api;
pub mod cache;
pub mod columnar;
pub mod compact;
pub mod crc;
pub mod deltalog;
pub mod error;
pub mod http;
pub mod server;
pub mod snapshot;

pub use access::{AccessEntry, AccessLog};
pub use api::{
    echoed_request_id, error_response, handle_request, registered_endpoints, AppState,
    CompactResponse, HealthState, HttpResponse, IngestResponse, ReloadResponse, RequestCtx,
    ServedCube,
};
pub use cache::{CachedResponse, ResponseCache};
pub use columnar::{ColumnarSection, GraphView, StringTable, StringsCtx};
pub use compact::{compact, recover, CompactReport, Recovery};
pub use deltalog::{append_delta, deltalog_path, read_deltas, read_deltas_up_to};
pub use error::{ApiError, SnapshotError};
pub use server::{host, serve, serve_cube, Scope, ServerConfig, ServerHandle, Service};
pub use snapshot::{
    load_v1_cube, write_snapshot, write_snapshot_with, Snapshot, SnapshotInfo, FORMAT_VERSION,
};
