//! Request-level observability, end to end: request-id echo, Prometheus
//! exposition conformance, per-endpoint latency histograms, Retry-After
//! on overload-shaped errors, the flight-recorder debug endpoint, the
//! cause of every swap of the served cube, and structured access logging
//! with flight dumps.

use flowcube_core::{CubeDelta, FlowCube, FlowCubeParams, ItemPlan};
use flowcube_datagen::{generate, GeneratorConfig};
use flowcube_hier::PathLatticeSpec;
use flowcube_obs::flight::{self, FlightKind};
use flowcube_serve::http::Request;
use flowcube_serve::{
    handle_request, serve_cube, write_snapshot, AccessLog, AppState, RequestCtx, ResponseCache,
    ServedCube, ServerConfig, ServerHandle, Snapshot,
};
use flowcube_testkit::http::{get, header, third_connection};
use flowcube_testkit::temp_path;
use std::sync::Mutex;
use std::time::Duration;

/// Held by the tests that read flight events back and by the one that
/// floods the ring, so the flood cannot lap the events being read.
static FLIGHT_RING: Mutex<()> = Mutex::new(());

fn image() -> ServedCube {
    let db = generate(&GeneratorConfig::small(120, 11)).db;
    let spec = PathLatticeSpec::paper(db.schema().locations(), 1);
    let cube = FlowCube::build(&db, spec, FlowCubeParams::new(8), ItemPlan::All);
    ServedCube::from_cube(&cube).expect("encode image")
}

fn start(config: ServerConfig) -> ServerHandle {
    serve_cube(image(), config).expect("server starts")
}

fn default_config() -> ServerConfig {
    ServerConfig {
        workers: 2,
        read_timeout: Duration::from_millis(500),
        write_timeout: Duration::from_millis(500),
        ..Default::default()
    }
}

fn plain_request(path: &str, query: &[(&str, &str)], headers: &[(&str, &str)]) -> Request {
    Request {
        method: "GET".to_string(),
        path: path.to_string(),
        query: query
            .iter()
            .map(|&(k, v)| (k.to_string(), v.to_string()))
            .collect(),
        headers: headers
            .iter()
            .map(|&(k, v)| (k.to_string(), v.to_string()))
            .collect(),
        body: Vec::new(),
    }
}

#[test]
fn request_ids_are_honored_generated_and_echoed() {
    let handle = start(default_config());
    let addr = handle.addr();

    // A well-formed inbound id is echoed verbatim.
    let (status, headers, _) = get(addr, "/healthz", &[("X-Request-Id", "trace-42.a")]);
    assert_eq!(status, 200);
    assert_eq!(header(&headers, "x-request-id"), Some("trace-42.a"));

    // No inbound id: the server mints one (16 hex chars), distinct per
    // request, echoed even on errors.
    let (_, h1, _) = get(addr, "/healthz", &[]);
    let (s2, h2, _) = get(addr, "/no/such/route", &[]);
    let id1 = header(&h1, "x-request-id")
        .expect("generated id")
        .to_string();
    let id2 = header(&h2, "x-request-id")
        .expect("id on errors too")
        .to_string();
    assert_eq!(s2, 404);
    assert_ne!(id1, id2);
    for id in [&id1, &id2] {
        assert_eq!(id.len(), 16, "hex id, got {id:?}");
        assert!(id.bytes().all(|b| b.is_ascii_hexdigit()), "got {id:?}");
    }

    // A hostile inbound id (header-injection shaped) is replaced.
    let (_, h3, _) = get(addr, "/healthz", &[("X-Request-Id", "a b\tc")]);
    let id3 = header(&h3, "x-request-id").expect("replacement id");
    assert_ne!(id3, "a b\tc");

    handle.shutdown();
    handle.join();
}

#[test]
fn prometheus_scrape_is_conformant_with_per_endpoint_histograms() {
    flowcube_obs::enable();
    let handle = start(default_config());
    let addr = handle.addr();

    // Mixed traffic: successes, a 404, and a repeated cacheable query.
    let (s, _, _) = get(addr, "/cell?cell=*,*&level=loc0/dur0", &[]);
    assert_eq!(s, 200);
    get(addr, "/stats", &[]);
    get(addr, "/healthz", &[]);
    get(addr, "/paths/topk?cell=*,*&level=loc0/dur0&k=3", &[]);
    get(addr, "/paths/topk?cell=*,*&level=loc0/dur0&k=3", &[]); // cache hit
    get(addr, "/no/such/route", &[]);

    // Default stays JSON — existing scrapers keep working.
    let (s, headers, body) = get(addr, "/metrics", &[]);
    assert_eq!(s, 200);
    assert!(header(&headers, "content-type").is_some_and(|ct| ct.contains("application/json")));
    assert!(body.trim_start().starts_with('{'), "got {body:?}");

    // ?format=prometheus selects the text exposition.
    let (s, headers, text) = get(addr, "/metrics?format=prometheus", &[]);
    assert_eq!(s, 200);
    assert!(
        header(&headers, "content-type").is_some_and(|ct| ct.contains("text/plain")),
        "got {headers:?}"
    );
    let samples =
        flowcube_obs::export::check_prometheus_text(&text).expect("conformant exposition");

    // Per-endpoint × status-class histograms exist for the traffic above.
    for (endpoint, class) in [("cell", "2xx"), ("paths_topk", "2xx"), ("other", "4xx")] {
        assert!(
            samples.iter().any(|smp| {
                smp.name == "serve_request_latency_us_bucket"
                    && smp.labels.contains(&("endpoint".into(), endpoint.into()))
                    && smp.labels.contains(&("status".into(), class.into()))
            }),
            "missing latency histogram for {endpoint}/{class}:\n{text}"
        );
    }
    // Cache and queue series are exposed.
    assert!(samples.iter().any(|smp| smp.name == "serve_cache_hits"));
    assert!(samples
        .iter()
        .any(|smp| smp.name == "serve_queue_wait_us_count"));
    assert!(samples.iter().any(|smp| smp.name == "serve_queue_depth"));

    // An Accept header naming text/plain also selects the exposition.
    let (_, _, via_accept) = get(addr, "/metrics", &[("Accept", "text/plain")]);
    assert!(via_accept.contains("# TYPE"), "got {via_accept:?}");

    handle.shutdown();
    handle.join();
}

#[test]
fn deadline_503_carries_retry_after_and_request_id() {
    let state = AppState::new(image(), ResponseCache::new(8));
    let req = plain_request("/cell", &[("cell", "*,*"), ("level", "loc0/dur0")], &[]);
    let ctx = RequestCtx::with_timeout(Duration::ZERO);
    let resp = handle_request(&state, &req, &ctx);
    assert_eq!(resp.status, 503, "got {}", resp.body);
    assert_eq!(resp.header("retry-after"), Some("1"));
    assert!(resp.header("x-request-id").is_some());

    // Client-error statuses are not retryable: no Retry-After.
    let req = plain_request("/cell", &[], &[]);
    let resp = handle_request(&state, &req, &RequestCtx::default());
    assert_eq!(resp.status, 400);
    assert_eq!(resp.header("retry-after"), None);
}

/// A serving process records but never exports the span trace, so the
/// request path must not feed it: per-request telemetry is the flight
/// ring and the metrics registry, both bounded.
#[test]
fn requests_leave_the_span_trace_alone() {
    let _ring = FLIGHT_RING.lock().unwrap_or_else(|e| e.into_inner());
    flowcube_obs::enable();
    let state = AppState::new(image(), ResponseCache::new(8));
    let req = plain_request("/cell", &[("cell", "*,*"), ("level", "loc0/dur0")], &[]);
    // Hydration happens (and may span) on the first touch only.
    assert_eq!(
        handle_request(&state, &req, &RequestCtx::default()).status,
        200
    );
    // The buffer is process-global and other tests hydrate cubes
    // meanwhile; the handler runs on this thread, so watch this lane.
    let lane = flowcube_obs::trace::lane();
    let on_lane = || {
        let events = flowcube_obs::trace::events();
        events.iter().filter(|e| e.tid == lane).count()
    };
    let before = on_lane();
    for _ in 0..10_000 {
        handle_request(&state, &req, &RequestCtx::default());
    }
    assert_eq!(on_lane(), before);
}

fn shed_count() -> u64 {
    let counters = flowcube_obs::snapshot().counters;
    counters.get("serve.shed").copied().unwrap_or(0)
}

#[test]
fn shed_429_carries_retry_after() {
    // One worker, queue depth one: occupy the worker with a silent
    // connection (it blocks in read until the socket timeout), fill the
    // queue with a second, and the third is shed at the door.
    let handle = start(ServerConfig {
        workers: 1,
        queue_depth: 1,
        read_timeout: Duration::from_secs(2),
        write_timeout: Duration::from_millis(500),
        ..Default::default()
    });
    let addr = handle.addr();

    flowcube_obs::enable();
    let shed_before = shed_count();
    let (status, headers, body) = third_connection(addr);
    assert_eq!(status, 429, "got {body:?}");
    assert_eq!(header(&headers, "retry-after"), Some("1"));
    assert_eq!(shed_count(), shed_before + 1);

    handle.shutdown();
    handle.join();
}

#[test]
fn debug_flight_exposes_recent_events() {
    let handle = start(default_config());
    let addr = handle.addr();

    let (s, _, _) = get(addr, "/healthz", &[("X-Request-Id", "flight-probe")]);
    assert_eq!(s, 200);
    let (s, _, body) = get(addr, "/debug/flight", &[]);
    assert_eq!(s, 200);
    assert!(body.contains("\"enabled\":true"), "got {body:?}");
    assert!(body.contains("\"capacity\":4096"), "got {body:?}");
    assert!(body.contains("RequestEnd"), "got {body:?}");
    assert!(body.contains("healthz"), "got {body:?}");

    handle.shutdown();
    handle.join();
}

/// Reload, ingest and compaction all swap the served cube; each swap is a
/// `Reload` flight event whose label names its cause, and a failed
/// attempt carries status 1.
#[test]
fn swap_events_name_their_cause() {
    let _ring = FLIGHT_RING.lock().unwrap_or_else(|e| e.into_inner());
    flight::enable();
    let db = generate(&GeneratorConfig::small(120, 11)).db;
    let spec = PathLatticeSpec::paper(db.schema().locations(), 1);
    let params = FlowCubeParams::new(8);
    let path = temp_path("swaps.snap");
    let sidecar = flowcube_serve::deltalog_path(&path);
    let _ = std::fs::remove_file(&sidecar);
    let cube = FlowCube::build(&db, spec.clone(), params.clone(), ItemPlan::All);
    write_snapshot(&cube, &path).expect("write snapshot");
    let served = ServedCube::from_snapshot(Snapshot::open(&path).expect("open snapshot"));
    let state = AppState::new(served, ResponseCache::new(8));

    let delta = CubeDelta::compute(&db, &spec, &params, &ItemPlan::All);
    let body = serde_json::to_string(&delta).expect("encode delta");
    state.ingest(body.as_bytes()).expect("ingest");
    assert!(state.ingest(b"{not json").is_err());
    state.compact().expect("compact");
    state.reload().expect("reload");
    let swaps: Vec<(String, u16)> = (flight::snapshot().into_iter())
        .filter(|e| e.kind == FlightKind::Reload)
        .map(|e| (e.label, e.status))
        .collect();
    let causes = [("ingest", 0), ("ingest", 1), ("compact", 0), ("reload", 0)];
    assert!(
        swaps.ends_with(&causes.map(|(cause, status)| (cause.to_string(), status))),
        "got {swaps:?}"
    );

    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&sidecar);
}

#[test]
fn access_log_writes_entries_and_dumps_flight_when_bad() {
    flight::enable();
    let path = temp_path("access.jsonl");
    let _ = std::fs::remove_file(&path);
    let log =
        AccessLog::open(path.to_str().expect("utf8 path"), Some(10_000)).expect("open access log");
    let state = AppState::new(image(), ResponseCache::new(8)).with_access_log(log);

    // A routine 200: logged without a flight dump.
    let ok = handle_request(
        &state,
        &plain_request("/healthz", &[], &[("x-request-id", "routine-1")]),
        &RequestCtx::default(),
    );
    assert_eq!(ok.status, 200);
    // A 503 deadline miss: logged with the flight window attached.
    let bad = handle_request(
        &state,
        &plain_request("/cell", &[("cell", "*,*"), ("level", "loc0/dur0")], &[]),
        &RequestCtx::with_timeout(Duration::ZERO),
    );
    assert_eq!(bad.status, 503);
    let bad_id = bad.header("x-request-id").expect("id").to_string();

    let text = std::fs::read_to_string(&path).expect("read access log");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 2, "got {text:?}");
    assert!(lines[0].contains("\"id\":\"routine-1\""), "{}", lines[0]);
    assert!(lines[0].contains("\"status\":200"), "{}", lines[0]);
    assert!(lines[0].contains("\"dump_reason\":\"\""), "{}", lines[0]);
    assert!(lines[0].contains("\"flight\":null"), "{}", lines[0]);
    assert!(
        lines[1].contains(&format!("\"id\":\"{bad_id}\"")),
        "{}",
        lines[1]
    );
    assert!(lines[1].contains("\"status\":503"), "{}", lines[1]);
    assert!(lines[1].contains("\"dump_reason\":\"5xx\""), "{}", lines[1]);
    // The dump carries actual flight events, including this request's.
    assert!(lines[1].contains("\"RequestStart\""), "{}", lines[1]);
    let _ = std::fs::remove_file(&path);
}
