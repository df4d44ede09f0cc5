//! The scatter-gather front tier.
//!
//! A front server owns a **shard map** — `backends[k]` is the *replica
//! set* serving shard `k` of a `shards`-way EPC partition — and answers
//! the federated query endpoints (`/cell`, `/rollup`, `/drilldown`,
//! `/paths/topk`, `/exceptions`) by fanning the request out to every
//! shard, merging the answers per the rules in [`crate::merge`], and
//! degrading rather than failing when a shard is slow or down:
//!
//! * every shard answered → a plain merged `200`;
//! * some shards failed or timed out → a merged `200` with
//!   `"partial": true` and a `Retry-After` header — a federated answer
//!   over the surviving shards is still a correct answer over *their*
//!   paths, and callers that need totals can retry;
//! * every shard failed → `503` with `Retry-After`, through the same
//!   typed-error path as a single node's deadline miss.
//!
//! Within a shard, [`crate::replica`] makes the leg resilient before
//! degradation is even considered: health-weighted replica selection
//! over per-replica circuit breakers ([`crate::health`]), a hedged
//! second request after the shard's recent p95, and budgeted retries —
//! a shard leg fails only when its *entire replica set* is down.
//!
//! The fan-out hands nothing to another thread while the request is
//! open. The front worker answering the request is the coordinator of
//! every shard leg and owns its attempts' sockets: each attempt is a
//! non-blocking state machine ([`crate::client::Attempt`]), and the
//! worker waits in one `poll(2)` over them until a socket is ready, the
//! earliest pending hedge, an attempt's socket budget, or the request's
//! deadline. Every data attempt forwards the request's id — the one the
//! front echoes to its client — as `X-Request-Id`, so each shard's flight
//! ring names the request as the front's does. What is still in flight
//! when the request answers (a hedge loser) finishes on one background
//! thread ([`crate::replica`]).
//!
//! The front is a [`Service`] hosted on the serving layer's runtime
//! (`serve::server`): listener, bounded accept queue, `429` shedding,
//! supervised workers, the request envelope (request id, flight
//! `RequestStart`/`RequestEnd`, the `federate.*` request series), the
//! built-in `/metrics` and `/debug/flight`, and the error bodies are
//! all that runtime's. This module is what is the front's own: the
//! shard map, `/healthz`, and scatter-gather — with per-shard latency
//! and error series labeled `shard=K`, per-replica `federate.replica.*`
//! counters labeled `shard=K replica=R`, and flight-recorder `Scatter`/
//! `Gather`/`ShardTimeout`/`Hedge`/`BreakerOpen`/`BreakerClose` events
//! tied to the request's trace id.

use crate::error::FederateError;
use crate::health::BreakerConfig;
use crate::merge;
use crate::replica::{Fanout, HedgePolicy, ReplicaSet, RetryBudget, ShardOutcome, ShardRuntime};
use flowcube_obs::flight::{self, FlightKind};
use flowcube_serve::http::Request;
use flowcube_serve::{
    echoed_request_id, error_response, host, ApiError, HealthState, HttpResponse, RequestCtx,
    Scope, ServerConfig, ServerHandle, Service,
};
use serde_json::Value;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Front-tier tunables; `Default` is sized for tests.
#[derive(Clone, Debug)]
pub struct FrontConfig {
    /// Bind address; port 0 for ephemeral.
    pub addr: String,
    /// Worker threads answering front requests.
    pub workers: usize,
    /// Accepted-but-unserved connections held before shedding.
    pub queue_depth: usize,
    /// Replica set per shard — every replica of `backends[k]` must serve
    /// the cube built from shard `k`. Length must equal `shards`.
    pub backends: Vec<ReplicaSet>,
    /// Shard count the backends were built with.
    pub shards: u32,
    /// Whole-request budget at the front.
    pub request_deadline: Duration,
    /// Per-attempt cap inside the request budget. A shard leg may spend
    /// longer than this across retries, but never a single socket.
    pub shard_timeout: Duration,
    /// When to fire the hedged second request within a replica set.
    pub hedge: HedgePolicy,
    /// Extra attempts (hedges + retries combined) one request may spend
    /// across all of its shard legs.
    pub retry_budget: u32,
    /// Per-replica circuit-breaker policy.
    pub breaker: BreakerConfig,
}

impl Default for FrontConfig {
    fn default() -> Self {
        FrontConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_depth: 64,
            backends: Vec::new(),
            shards: 0,
            request_deadline: Duration::from_secs(2),
            shard_timeout: Duration::from_secs(1),
            hedge: HedgePolicy::Adaptive,
            retry_budget: 3,
            breaker: BreakerConfig::default(),
        }
    }
}

/// The routing state of a running front: the validated config plus one
/// [`ShardRuntime`] (replica breakers, round-robin cursor, latency
/// window) per shard. Construct with [`Front::new`]; [`serve_front`]
/// hosts one on a listener. Public so tests can drive the routing table
/// without sockets, through `flowcube_serve::handle_request`.
pub struct Front {
    config: FrontConfig,
    shards: Vec<Arc<ShardRuntime>>,
    scope: Scope,
    health: HealthState,
}

impl Front {
    /// Validate the shard map and build the per-shard runtimes.
    pub fn new(config: FrontConfig) -> Result<Front, FederateError> {
        if config.shards == 0 {
            return Err(FederateError::Config {
                detail: "front tier needs --shards >= 1".into(),
            });
        }
        if config.backends.len() != config.shards as usize {
            return Err(FederateError::ShardCountMismatch {
                expected: config.shards,
                actual: config.backends.len() as u32,
            });
        }
        if let Some(k) = config.backends.iter().position(|s| s.replicas.is_empty()) {
            return Err(FederateError::ReplicaSpec {
                detail: format!("shard {k} has an empty replica set"),
            });
        }
        let shards = config
            .backends
            .iter()
            .enumerate()
            .map(|(k, set)| Arc::new(ShardRuntime::new(k as u32, set, config.breaker.clone())))
            .collect();
        let endpoints = [FEDERATED, &[("/healthz", "healthz")]].concat();
        Ok(Front {
            config,
            shards,
            scope: Scope::new("federate", &endpoints),
            health: HealthState::default(),
        })
    }

    /// The per-shard runtimes: replica breakers, latency windows and
    /// connection pools, for inspection.
    pub fn shards(&self) -> &[Arc<ShardRuntime>] {
        &self.shards
    }
}

/// Endpoints the front federates, with their metric tags. Everything
/// else is a 404 — the front has no cube of its own, and admin/stats
/// surfaces are per-backend.
const FEDERATED: &[(&str, &str)] = &[
    ("/cell", "cell"),
    ("/rollup", "rollup"),
    ("/drilldown", "drilldown"),
    ("/paths/topk", "paths_topk"),
    ("/exceptions", "exceptions"),
];

/// A running front server: the serving layer's handle over a [`Front`].
pub type FrontHandle = ServerHandle<Front>;

/// Validate the shard map and start the front tier. Returns once the
/// listener is bound and the workers are running.
pub fn serve_front(config: FrontConfig) -> Result<FrontHandle, FederateError> {
    let front = Front::new(config)?;
    // Client-facing socket budget derives from the request deadline —
    // a front configured for a 200ms deadline must not keep sockets
    // alive for a hardcoded 5s. The small grace covers header I/O on a
    // loaded loopback.
    let io_budget = front.config.request_deadline + Duration::from_millis(250);
    let listen = ServerConfig {
        addr: front.config.addr.clone(),
        workers: front.config.workers,
        queue_depth: front.config.queue_depth,
        read_timeout: io_budget,
        write_timeout: io_budget,
        ..ServerConfig::default()
    };
    host(front, &listen).map_err(|e| FederateError::Io {
        detail: format!("bind {}: {e}", listen.addr),
    })
}

impl Service for Front {
    fn scope(&self) -> &Scope {
        &self.scope
    }

    fn route(&self, req: &Request, _ctx: &RequestCtx, trace: u64) -> HttpResponse {
        if req.method != "GET" {
            return error_response(&ApiError::MethodNotAllowed(req.method.clone()));
        }
        match req.path.as_str() {
            "/healthz" => {
                let replica_sets: Vec<Value> = self
                    .shards
                    .iter()
                    .map(|rt| {
                        let replicas: Vec<Value> = rt
                            .states()
                            .into_iter()
                            .map(|(addr, state, failures)| {
                                Value::Object(vec![
                                    ("addr".into(), Value::String(addr)),
                                    ("state".into(), Value::String(state.name().into())),
                                    (
                                        "consecutive_failures".into(),
                                        Value::Number(serde_json::Number::U(failures as u64)),
                                    ),
                                ])
                            })
                            .collect();
                        Value::Object(vec![
                            (
                                "shard".into(),
                                Value::Number(serde_json::Number::U(rt.shard as u64)),
                            ),
                            ("replicas".into(), Value::Array(replicas)),
                        ])
                    })
                    .collect();
                let body = serde_json::to_string(&Value::Object(vec![
                    ("ok".into(), Value::Bool(true)),
                    ("status".into(), Value::String("ok".into())),
                    (
                        "worker_crashes".into(),
                        Value::Number(serde_json::Number::U(self.health.worker_crashes())),
                    ),
                    (
                        "shards".into(),
                        Value::Number(serde_json::Number::U(self.config.shards as u64)),
                    ),
                    ("replica_sets".into(), Value::Array(replica_sets)),
                ]))
                .unwrap_or_default();
                HttpResponse::json(200, body)
            }
            path if FEDERATED.iter().any(|&(p, _)| p == path) => scatter_gather(req, self, trace),
            other => error_response(&ApiError::NotFound(format!(
                "{other} is not a federated endpoint"
            ))),
        }
    }

    fn worker_crashed(&self) {
        self.health.record_worker_crash();
    }
}

fn scatter_gather(req: &Request, front: &Front, trace: u64) -> HttpResponse {
    let config = &front.config;
    let scatter_label = flight::intern("scatter");
    flight::record(
        FlightKind::Scatter,
        trace,
        scatter_label,
        0,
        config.shards as u64,
    );

    let target = rebuild_target(req);
    let request_id = echoed_request_id(req, trace);
    let fan = Fanout {
        target: &target,
        request_id: &request_id,
        deadline: Instant::now() + config.request_deadline,
        shard_timeout: config.shard_timeout,
        hedge: &config.hedge,
        // One retry budget per request, shared across every shard leg:
        // hedges and retries all draw from it, so a brownout that slows
        // every shard cannot multiply this request's backend load past
        // `shards + retry_budget` attempts.
        budget: RetryBudget::new(config.retry_budget),
        trace,
        flights: Vec::new(),
    };
    let replies = fan.scatter(&front.shards);

    let answered = replies
        .iter()
        .filter(|r| matches!(r, ShardOutcome::Answered { .. }))
        .count();
    flight::record(FlightKind::Gather, trace, scatter_label, 0, answered as u64);

    gather(req, config, &replies)
}

fn gather(req: &Request, config: &FrontConfig, replies: &[ShardOutcome]) -> HttpResponse {
    let mut ok_raw: Vec<&str> = Vec::new();
    let mut ok_bodies: Vec<Value> = Vec::new();
    let mut not_found: Option<&str> = None;
    let mut other_status: Option<(u16, &str)> = None;
    let mut failed = 0u32;
    for reply in replies {
        match reply {
            ShardOutcome::Answered { status: 200, body } => {
                match serde_json::parse_value_str(body) {
                    Ok(v) => {
                        ok_raw.push(body);
                        ok_bodies.push(v);
                    }
                    // A 200 that is not JSON is a broken shard, not data.
                    Err(_) => failed += 1,
                }
            }
            ShardOutcome::Answered { status: 404, body } => {
                not_found.get_or_insert(body.as_str());
            }
            ShardOutcome::Answered { status, body } => {
                other_status.get_or_insert((*status, body.as_str()));
            }
            ShardOutcome::Failed { .. } => failed += 1,
        }
    }

    // A non-200/404 backend answer (bad request, conflict) means the
    // request itself is wrong everywhere — pass the first one through.
    if let Some((status, body)) = other_status {
        return HttpResponse::json(status, body.to_string());
    }

    if ok_bodies.is_empty() {
        // No shard produced data. All-404 is a real federated answer:
        // the cell exists nowhere. Otherwise the fan-out failed.
        return match not_found {
            Some(body) if failed == 0 => HttpResponse::json(404, body.to_string()),
            _ => {
                let detail = replies
                    .iter()
                    .find_map(|r| match r {
                        ShardOutcome::Failed { detail } => Some(detail.as_str()),
                        ShardOutcome::Answered { .. } => None,
                    })
                    .unwrap_or("no shard answered");
                let all_failed = FederateError::AllShardsFailed {
                    shards: config.shards,
                };
                error_response(&ApiError::Unavailable(format!("{all_failed}: {detail}")))
            }
        };
    }

    // Degenerate single-shard federation must be transparent: the
    // backend's body passes through byte-for-byte.
    if config.shards == 1 {
        return HttpResponse::json(200, ok_raw[0].to_string());
    }

    let k = req
        .param("k")
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(5);
    match merge::merge_endpoint(&req.path, k, &ok_bodies) {
        Ok(mut merged) => {
            let partial = failed > 0;
            if partial {
                merge::mark_partial(&mut merged);
                flowcube_obs::counter_add("federate.responses.partial", 1);
            }
            let mut resp =
                HttpResponse::json(200, serde_json::to_string(&merged).unwrap_or_default());
            if partial {
                resp.headers
                    .push(("Retry-After".to_string(), "1".to_string()));
            }
            resp
        }
        Err(e) => error_response(&e.into()),
    }
}

/// Re-encode the inbound path + query for the backend hop. Parsing
/// decoded `%XX` and `+`; this escapes every byte that is not printable
/// ASCII (so a decoded CR LF cannot split the request line, and a UTF-8
/// name crosses the hop as its own bytes) and the query delimiters.
fn rebuild_target(req: &Request) -> String {
    let mut target = req.path.clone();
    for (i, (k, v)) in req.query.iter().enumerate() {
        target.push(if i == 0 { '?' } else { '&' });
        target.push_str(&encode_component(k));
        target.push('=');
        target.push_str(&encode_component(v));
    }
    target
}

fn encode_component(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for b in s.bytes() {
        if b.is_ascii_graphic() && !matches!(b, b'%' | b'&' | b'=' | b'#' | b'+' | b'?') {
            out.push(char::from(b));
        } else {
            out.push_str(&format!("%{b:02X}"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowcube_serve::handle_request;
    use flowcube_serve::http::read_request;
    use proptest::prelude::*;

    fn get(path: &str, query: &[(&str, &str)]) -> Request {
        Request {
            method: "GET".into(),
            path: path.into(),
            query: query
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            headers: Vec::new(),
            body: Vec::new(),
        }
    }

    #[test]
    fn rejects_mismatched_shard_map() {
        let config = FrontConfig {
            backends: vec![ReplicaSet::single("127.0.0.1:1")],
            shards: 2,
            ..FrontConfig::default()
        };
        assert!(matches!(
            serve_front(config),
            Err(FederateError::ShardCountMismatch {
                expected: 2,
                actual: 1
            })
        ));
    }

    #[test]
    fn rejects_empty_replica_sets() {
        let config = FrontConfig {
            backends: vec![
                ReplicaSet::single("127.0.0.1:1"),
                ReplicaSet {
                    replicas: Vec::new(),
                },
            ],
            shards: 2,
            ..FrontConfig::default()
        };
        assert!(matches!(
            Front::new(config),
            Err(FederateError::ReplicaSpec { .. })
        ));
    }

    #[test]
    fn healthz_reports_replica_states() {
        let config = FrontConfig {
            backends: vec![
                ReplicaSet::parse("127.0.0.1:1|127.0.0.1:2").unwrap(),
                ReplicaSet::single("127.0.0.1:3"),
            ],
            shards: 2,
            ..FrontConfig::default()
        };
        let front = Front::new(config).expect("valid map");
        let resp = handle_request(&front, &get("/healthz", &[]), &RequestCtx::default());
        assert_eq!(resp.status, 200);
        let body = resp.body;
        assert!(body.contains("\"replica_sets\""), "{body}");
        assert!(body.contains("127.0.0.1:2"), "{body}");
        assert!(body.contains("\"state\":\"closed\""), "{body}");
        assert!(body.contains("\"worker_crashes\":0"), "{body}");
    }

    #[test]
    fn rebuilds_targets_with_escapes() {
        let req = get("/cell", &[("cell", "a b,*"), ("level", "loc0/dur0")]);
        assert_eq!(rebuild_target(&req), "/cell?cell=a%20b,*&level=loc0/dur0");
        let req = get("/cell", &[("cell", "é\r\nX: y")]);
        assert_eq!(rebuild_target(&req), "/cell?cell=%C3%A9%0D%0AX:%20y");
    }

    /// A character the old hop mangled (CR, LF, NUL, space, a query
    /// delimiter, a non-ASCII name) half the time, any scalar value else.
    fn any_char() -> impl Strategy<Value = char> {
        const TRICKY: &[char] = &[
            '\r', '\n', '\0', ' ', '%', '&', '=', '#', '+', '?', 'é', '日', '🦀', '\u{7f}', 'a',
            ',', '*', '/',
        ];
        (0u8..2, 0u32..0x11_0000).prop_map(|(pick, code)| match pick {
            0 => TRICKY[code as usize % TRICKY.len()],
            _ => char::from_u32(code).unwrap_or('\u{FFFD}'),
        })
    }

    fn any_text() -> impl Strategy<Value = String> {
        prop::collection::vec(any_char(), 0..8).prop_map(|cs| cs.into_iter().collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// What the front sends a shard parses, on the shard, back to the
        /// query the client sent the front.
        #[test]
        fn rebuilt_targets_parse_back_to_the_same_query(
            query in prop::collection::vec((any_text(), any_text()), 0..5)
        ) {
            let mut req = get("/cell", &[]);
            req.query = query;
            let mut wire =
                format!("GET {} HTTP/1.1\r\nHost: shard\r\n\r\n", rebuild_target(&req))
                    .into_bytes();
            match read_request(&mut std::io::empty(), &mut wire) {
                Ok((back, _)) => {
                    prop_assert_eq!(&back.path, &req.path);
                    prop_assert_eq!(&back.query, &req.query);
                }
                Err(e) => prop_assert!(false, "{e:?} for {:?}", req.query),
            }
        }
    }

    #[test]
    fn non_federated_paths_404() {
        let config = FrontConfig {
            backends: vec![ReplicaSet::single("127.0.0.1:1")],
            shards: 1,
            ..FrontConfig::default()
        };
        let front = Front::new(config).expect("valid map");
        let resp = handle_request(&front, &get("/stats", &[]), &RequestCtx::default());
        assert_eq!(resp.status, 404);
        assert!(
            resp.body.contains("not a federated endpoint"),
            "{}",
            resp.body
        );
    }

    #[test]
    fn all_failed_maps_to_503() {
        let config = FrontConfig {
            backends: vec![ReplicaSet::single("x"), ReplicaSet::single("y")],
            shards: 2,
            ..FrontConfig::default()
        };
        let replies = vec![
            ShardOutcome::Failed {
                detail: "down".into(),
            },
            ShardOutcome::Failed {
                detail: "down".into(),
            },
        ];
        let resp = gather(&get("/cell", &[]), &config, &replies);
        assert_eq!(resp.status, 503);
        assert!(resp.header("retry-after").is_some());
    }

    #[test]
    fn partial_when_some_shards_fail() {
        let config = FrontConfig {
            backends: vec![ReplicaSet::single("x"), ReplicaSet::single("y")],
            shards: 2,
            ..FrontConfig::default()
        };
        let replies = vec![
            ShardOutcome::Answered {
                status: 200,
                body: r#"{"cell":"*","parent":"*","support":5,"nodes":2}"#.into(),
            },
            ShardOutcome::Failed {
                detail: "down".into(),
            },
        ];
        let resp = gather(&get("/rollup", &[]), &config, &replies);
        assert_eq!(resp.status, 200);
        assert!(resp.body.contains("\"partial\":true"), "{}", resp.body);
        assert!(resp.header("retry-after").is_some());
    }

    #[test]
    fn all_not_found_passes_404_through() {
        let config = FrontConfig {
            backends: vec![ReplicaSet::single("x"), ReplicaSet::single("y")],
            shards: 2,
            ..FrontConfig::default()
        };
        let replies = vec![
            ShardOutcome::Answered {
                status: 404,
                body: r#"{"error":"no such cell"}"#.into(),
            },
            ShardOutcome::Answered {
                status: 404,
                body: r#"{"error":"no such cell"}"#.into(),
            },
        ];
        let resp = gather(&get("/cell", &[]), &config, &replies);
        assert_eq!(resp.status, 404);
        assert!(resp.body.contains("no such cell"));
    }
}
