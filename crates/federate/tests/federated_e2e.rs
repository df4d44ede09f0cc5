//! End-to-end scatter-gather federation: real backend `serve` instances
//! over shard cubes, a real front tier fanning out over TCP, and the
//! answers compared against a single-node build over the same paths.
//!
//! The algebraic claims (Lemma 4.2) are exact and asserted exactly:
//! federated cell/rollup supports equal the single-node supports because
//! counts partition by shard and merge by addition. Node counts merge as
//! `max` — a documented lower bound (the union of shard node sets can be
//! larger than any one of them) — so they are asserted as bounds, not
//! equality.

use flowcube_datagen::{generate, GeneratorConfig};
use flowcube_federate::{serve_front, FrontConfig, ReplicaSet};
use flowcube_fixtures::{counter, federation, parse, server_at, shard_cube, shutdown_all};
use flowcube_testkit::http::{
    get, get_ok, header, hostile_requests, parse_response, raw_roundtrip, third_connection,
};
use serde_json::Value;

fn field_u64(v: &Value, key: &str) -> Option<u64> {
    v.get(key).and_then(Value::as_u64)
}

/// The tentpole e2e: federated answers over 2 shards equal the
/// single-node answers in every algebraic measure.
#[test]
fn federated_answers_match_single_node() {
    let db = generate(&GeneratorConfig::small(90, 21)).db;
    let single = server_at(&shard_cube(&db), "127.0.0.1:0");
    let (groups, front) = federation(shard_cube, &db, 2, 1, |_| {});

    // Apex cell: supports partition across shards and sum back exactly.
    let fed_body = get_ok(front.addr(), "/cell?cell=*,*&level=loc0/dur0");
    let single_body = get_ok(single.addr(), "/cell?cell=*,*&level=loc0/dur0");
    let (fed, one) = (parse(&fed_body), parse(&single_body));
    assert_eq!(field_u64(&fed, "support"), Some(db.len() as u64));
    assert_eq!(field_u64(&fed, "support"), field_u64(&one, "support"));
    assert!(
        field_u64(&fed, "nodes") <= field_u64(&one, "nodes"),
        "merged node count is a lower bound: fed {fed_body} vs single {single_body}"
    );
    assert!(
        fed.get("partial").is_none(),
        "healthy fan-out is not partial"
    );

    // Drill the apex down dim 0, then roll one child back up: the
    // federated rollup support equals the in-process roll_up the single
    // node answers (both are the apex support).
    let (status, _, drill) = get(
        front.addr(),
        "/drilldown?cell=*,*&dim=0&level=loc0/dur0",
        &[],
    );
    assert_eq!(status, 200, "got {drill:?}");
    let drill = parse(&drill);
    let children = drill
        .get("cells")
        .and_then(Value::as_array)
        .expect("children");
    assert!(!children.is_empty(), "apex must have dim-0 children");
    let (status, _, single_drill) = get(
        single.addr(),
        "/drilldown?cell=*,*&dim=0&level=loc0/dur0",
        &[],
    );
    assert_eq!(status, 200);
    let single_drill = parse(&single_drill);
    // Same children, same supports (order-independent).
    let rows = |v: &Value| -> Vec<(String, u64)> {
        let mut out: Vec<(String, u64)> = v
            .get("cells")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|row| {
                (
                    row.get("cell").and_then(Value::as_str).unwrap().to_string(),
                    field_u64(row, "support").unwrap(),
                )
            })
            .collect();
        out.sort();
        out
    };
    assert_eq!(rows(&drill), rows(&single_drill));

    let child = children[0]
        .get("cell")
        .and_then(Value::as_str)
        .expect("cell name");
    // Display form "(v0, v1)" → query form "v0,v1".
    let child_query = child
        .trim_start_matches('(')
        .trim_end_matches(')')
        .replace(", ", ",");
    let target = format!("/rollup?cell={child_query}&dim=0&level=loc0/dur0");
    let fed_roll = get_ok(front.addr(), &target);
    let single_roll = get_ok(single.addr(), &target);
    let (fed_roll, single_roll) = (parse(&fed_roll), parse(&single_roll));
    assert_eq!(
        field_u64(&fed_roll, "support"),
        field_u64(&single_roll, "support")
    );
    assert_eq!(fed_roll.get("cell"), single_roll.get("cell"));
    assert_eq!(fed_roll.get("parent"), single_roll.get("parent"));

    // Top-k with k large enough that no shard truncates: the federated
    // probability distribution equals the single node's, because the
    // support-weighted shard probabilities are exactly path counts.
    let (status, _, fed_topk) = get(
        front.addr(),
        "/paths/topk?cell=*,*&level=loc0/dur0&k=500",
        &[],
    );
    assert_eq!(status, 200, "got {fed_topk:?}");
    let (status, _, single_topk) = get(
        single.addr(),
        "/paths/topk?cell=*,*&level=loc0/dur0&k=500",
        &[],
    );
    assert_eq!(status, 200);
    let paths = |v: &Value| -> Vec<(String, i64)> {
        let mut out: Vec<(String, i64)> = v
            .get("paths")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|p| {
                let locs: Vec<&str> = p
                    .get("locations")
                    .and_then(Value::as_array)
                    .unwrap()
                    .iter()
                    .filter_map(Value::as_str)
                    .collect();
                let prob = p.get("probability").and_then(Value::as_f64).unwrap();
                (locs.join(">"), (prob * 1e9).round() as i64)
            })
            .collect();
        out.sort();
        out
    };
    assert_eq!(paths(&parse(&fed_topk)), paths(&parse(&single_topk)));

    // Exceptions federate as a union; the endpoint answers and carries
    // a consistent count.
    let exc = get_ok(front.addr(), "/exceptions?cell=*,*&level=loc0/dur0");
    let exc = parse(&exc);
    let listed = exc
        .get("exceptions")
        .and_then(Value::as_array)
        .map_or(0, <[Value]>::len);
    assert_eq!(field_u64(&exc, "count"), Some(listed as u64));

    shutdown_all(groups, front);
    single.stop();
}

/// Degenerate single-shard federation is transparent: the front passes
/// the backend's body through byte-for-byte.
#[test]
fn single_shard_federation_is_byte_transparent() {
    let db = generate(&GeneratorConfig::small(40, 33)).db;
    let (groups, front) = federation(shard_cube, &db, 1, 1, |_| {});

    for target in [
        "/cell?cell=*,*&level=loc0/dur0",
        "/drilldown?cell=*,*&dim=0&level=loc0/dur0",
        "/paths/topk?cell=*,*&level=loc0/dur0&k=3",
        "/exceptions?cell=*,*&level=loc0/dur0",
    ] {
        let (f_status, _, f_body) = get(front.addr(), target, &[]);
        let (b_status, _, b_body) = get(groups[0][0].addr(), target, &[]);
        assert_eq!(f_status, b_status, "{target}");
        assert_eq!(
            f_body, b_body,
            "single-shard passthrough must be verbatim: {target}"
        );
    }

    shutdown_all(groups, front);
}

/// One dead shard degrades the answer instead of failing it: 200 with
/// `"partial": true` and a `Retry-After` header, and the surviving
/// shard's counts are still a correct answer over its own paths.
#[test]
fn dead_shard_degrades_to_partial() {
    let db = generate(&GeneratorConfig::small(60, 47)).db;
    let (mut groups, front) = federation(shard_cube, &db, 2, 1, |_| {});

    // Healthy first.
    let healthy = get_ok(front.addr(), "/cell?cell=*,*&level=loc0/dur0");
    let healthy_support = field_u64(&parse(&healthy), "support").unwrap();
    assert_eq!(healthy_support, db.len() as u64);

    // Kill shard 1.
    for dead in groups.remove(1) {
        dead.stop();
    }

    let (status, headers, body) = get(front.addr(), "/cell?cell=*,*&level=loc0/dur0", &[]);
    assert_eq!(status, 200, "degradation must not be an error: {body:?}");
    let partial = parse(&body);
    assert_eq!(partial.get("partial").and_then(Value::as_bool), Some(true));
    assert_eq!(header(&headers, "retry-after"), Some("1"));
    let partial_support = field_u64(&partial, "support").unwrap();
    assert!(
        partial_support < healthy_support,
        "a partial answer covers only surviving shards"
    );

    // Kill the last shard: nothing to degrade to → 503 + Retry-After.
    for dead in groups.remove(0) {
        dead.stop();
    }
    let (status, headers, body) = get(front.addr(), "/cell?cell=*,*&level=loc0/dur0", &[]);
    assert_eq!(status, 503, "got {body:?}");
    assert_eq!(header(&headers, "retry-after"), Some("1"));
    assert!(body.contains("error"), "got {body:?}");

    front.shutdown();
    front.join();
}

/// The front runs on serve's runtime, so hostile bytes draw the same
/// JSON error bodies there — and leave it answering.
#[test]
fn front_survives_malformed_and_hostile_input() {
    let db = generate(&GeneratorConfig::small(40, 52)).db;
    let (groups, front) = federation(shard_cube, &db, 2, 1, |_| {});
    let addr = front.addr();

    for (raw, want) in hostile_requests() {
        let (status, _, body) = parse_response(&raw_roundtrip(addr, &raw));
        let shown = String::from_utf8_lossy(&raw[..raw.len().min(60)]).into_owned();
        assert_eq!(status, want, "{shown:?} got {body:?}");
        let error = parse(&body);
        assert!(
            error.get("error").and_then(Value::as_str).is_some(),
            "{shown:?} got {body:?}"
        );
        // The rejected bytes left nothing behind: a new connection is
        // answered as if they had never arrived.
        let _ = get_ok(addr, "/healthz");
    }
    // Half-open connection: connect, write a fragment, hang up.
    let _ = raw_roundtrip(addr, b"GET /cel");

    let body = get_ok(addr, "/cell?cell=*,*&level=loc0/dur0");
    assert_eq!(field_u64(&parse(&body), "support"), Some(db.len() as u64));

    shutdown_all(groups, front);
}

/// A full accept queue sheds with `429` + `Retry-After` at the front as
/// at a shard, counted under the front's own scope.
#[test]
fn front_sheds_with_429_and_retry_after() {
    flowcube_obs::enable();
    // Nothing is scattered, so the backend need not exist.
    let front = serve_front(FrontConfig {
        backends: vec![ReplicaSet::single("127.0.0.1:1")],
        shards: 1,
        workers: 1,
        queue_depth: 1,
        ..Default::default()
    })
    .expect("front starts");
    let shed_count = || counter("federate.shed");

    let shed_before = shed_count();
    let (status, headers, body) = third_connection(front.addr());
    assert_eq!(status, 429, "got {body:?}");
    assert_eq!(header(&headers, "retry-after"), Some("1"));
    assert_eq!(shed_count(), shed_before + 1);

    front.shutdown();
    front.join();
}

/// One request id, both flight views: the id a client sends names the
/// request in the front's own flight ring, served in serve's shape — and
/// the front forwards it on every shard leg, so each shard's flight ring
/// names the request by the same id.
#[test]
fn request_id_is_in_the_fronts_flight_ring() {
    let db = generate(&GeneratorConfig::small(40, 53)).db;
    let (groups, front) = federation(shard_cube, &db, 2, 1, |_| {});

    let target = "/cell?cell=*,*&level=loc0/dur0";
    let (status, headers, _) = get(front.addr(), target, &[("X-Request-Id", "abc-1")]);
    assert_eq!(status, 200);
    assert_eq!(header(&headers, "x-request-id"), Some("abc-1"));

    let body = get_ok(front.addr(), "/debug/flight");
    let ring = parse(&body);
    assert_eq!(ring.get("enabled").and_then(Value::as_bool), Some(true));
    assert!(field_u64(&ring, "capacity").is_some(), "got {body:?}");
    assert!(field_u64(&ring, "recorded_total").is_some(), "got {body:?}");
    // FNV-1a of the inbound id: the trace id its flight events carry.
    let trace = "abc-1".bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    });
    let events = ring
        .get("events")
        .and_then(Value::as_array)
        .expect("events");
    for kind in ["RequestStart", "RequestEnd"] {
        assert!(
            events.iter().any(|e| {
                e.get("kind").and_then(Value::as_str) == Some(kind)
                    && field_u64(e, "trace_id") == Some(trace)
            }),
            "no {kind} for abc-1 in {body}"
        );
    }

    // Every tier of this process shares one flight ring: the front's own
    // `RequestStart` for abc-1 is there, and one more per shard, recorded
    // by the shard's envelope from the forwarded `X-Request-Id`.
    for backend in groups.iter().flatten() {
        let body = get_ok(backend.addr(), "/debug/flight");
        let starts = parse(&body)
            .get("events")
            .and_then(Value::as_array)
            .expect("events")
            .iter()
            .filter(|e| {
                e.get("kind").and_then(Value::as_str) == Some("RequestStart")
                    && field_u64(e, "trace_id") == Some(trace)
            })
            .count();
        assert!(
            starts > groups.len(),
            "{starts} RequestStart events for abc-1: the front's and not one per shard"
        );
    }

    shutdown_all(groups, front);
}
