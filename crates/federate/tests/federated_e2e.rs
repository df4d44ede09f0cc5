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

use flowcube_core::{FlowCube, FlowCubeParams, ItemPlan};
use flowcube_datagen::{generate, DimShape, GeneratorConfig};
use flowcube_federate::{serve_front, shard_db, FrontConfig, FrontHandle, ReplicaSet};
use flowcube_hier::{DurationLevel, LocationCut, PathLatticeSpec, PathLevel};
use flowcube_pathdb::PathDatabase;
use flowcube_serve::{serve_cube, ServedCube, ServerConfig, ServerHandle};
use serde_json::Value;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

fn gen_db(paths: usize, seed: u64) -> (PathDatabase, PathLatticeSpec) {
    let config = GeneratorConfig {
        num_paths: paths,
        dims: vec![DimShape::new(vec![2, 3], 0.7); 2],
        num_sequences: 5,
        seed,
        ..Default::default()
    };
    let db = generate(&config).db;
    let loc = db.schema().locations();
    let spec = PathLatticeSpec::new(vec![PathLevel::new(
        "fine",
        LocationCut::uniform_level(loc, loc.max_level()),
        DurationLevel::Raw,
    )]);
    (db, spec)
}

/// Shard-local serving params: δ = 1 so no shard loses counts the
/// federation would need (Lemma 4.2 merges by addition).
fn params() -> FlowCubeParams {
    FlowCubeParams::new(1)
}

fn start_backend(cube: FlowCube) -> ServerHandle {
    serve_cube(
        ServedCube::from_cube(&cube).expect("encode image"),
        ServerConfig {
            workers: 2,
            ..Default::default()
        },
    )
    .expect("backend starts")
}

/// Boot `shards` backends over an EPC-hash partition of `db`, plus a
/// front tier federating them.
fn boot_federation(
    db: &PathDatabase,
    spec: &PathLatticeSpec,
    shards: u32,
) -> (Vec<ServerHandle>, FrontHandle) {
    let backends: Vec<ServerHandle> = (0..shards)
        .map(|k| {
            let shard = shard_db(db, shards, k).expect("shard splits");
            start_backend(FlowCube::build(
                &shard,
                spec.clone(),
                params(),
                ItemPlan::All,
            ))
        })
        .collect();
    let front = serve_front(FrontConfig {
        backends: backends
            .iter()
            .map(|b| ReplicaSet::single(b.addr().to_string()))
            .collect(),
        shards,
        workers: 2,
        ..Default::default()
    })
    .expect("front starts");
    (backends, front)
}

/// GET over a raw socket, returning status, raw header block, and body —
/// the front's `Retry-After` and `partial` degradation live in both.
fn raw_get(addr: std::net::SocketAddr, target: &str) -> (u16, String, String) {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.write_all(
        format!("GET {target} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n").as_bytes(),
    )
    .expect("write");
    let mut out = String::new();
    let _ = s.read_to_string(&mut out);
    let status: u16 = out
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    let (head, body) = out.split_once("\r\n\r\n").unwrap_or(("", ""));
    (status, head.to_string(), body.to_string())
}

fn field_u64(v: &Value, key: &str) -> Option<u64> {
    v.get(key).and_then(Value::as_u64)
}

fn parse(body: &str) -> Value {
    serde_json::parse_value_str(body).unwrap_or_else(|e| panic!("bad JSON {body:?}: {e:?}"))
}

/// The tentpole e2e: federated answers over 2 shards equal the
/// single-node answers in every algebraic measure.
#[test]
fn federated_answers_match_single_node() {
    let (db, spec) = gen_db(90, 21);
    let single = start_backend(FlowCube::build(&db, spec.clone(), params(), ItemPlan::All));
    let (backends, front) = boot_federation(&db, &spec, 2);

    // Apex cell: supports partition across shards and sum back exactly.
    let (status, _, fed_body) = raw_get(front.addr(), "/cell?cell=*,*&level=fine");
    assert_eq!(status, 200, "got {fed_body:?}");
    let (status, _, single_body) = raw_get(single.addr(), "/cell?cell=*,*&level=fine");
    assert_eq!(status, 200);
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
    let (status, _, drill) = raw_get(front.addr(), "/drilldown?cell=*,*&dim=0&level=fine");
    assert_eq!(status, 200, "got {drill:?}");
    let drill = parse(&drill);
    let children = drill
        .get("cells")
        .and_then(Value::as_array)
        .expect("children");
    assert!(!children.is_empty(), "apex must have dim-0 children");
    let (status, _, single_drill) = raw_get(single.addr(), "/drilldown?cell=*,*&dim=0&level=fine");
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
    let target = format!("/rollup?cell={child_query}&dim=0&level=fine");
    let (status, _, fed_roll) = raw_get(front.addr(), &target);
    assert_eq!(status, 200, "got {fed_roll:?}");
    let (status, _, single_roll) = raw_get(single.addr(), &target);
    assert_eq!(status, 200);
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
    let (status, _, fed_topk) = raw_get(front.addr(), "/paths/topk?cell=*,*&level=fine&k=500");
    assert_eq!(status, 200, "got {fed_topk:?}");
    let (status, _, single_topk) = raw_get(single.addr(), "/paths/topk?cell=*,*&level=fine&k=500");
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
    let (status, _, exc) = raw_get(front.addr(), "/exceptions?cell=*,*&level=fine");
    assert_eq!(status, 200, "got {exc:?}");
    let exc = parse(&exc);
    let listed = exc
        .get("exceptions")
        .and_then(Value::as_array)
        .map_or(0, <[Value]>::len);
    assert_eq!(field_u64(&exc, "count"), Some(listed as u64));

    front.shutdown();
    front.join();
    for b in backends {
        b.shutdown();
        b.join();
    }
    single.shutdown();
    single.join();
}

/// Degenerate single-shard federation is transparent: the front passes
/// the backend's body through byte-for-byte.
#[test]
fn single_shard_federation_is_byte_transparent() {
    let (db, spec) = gen_db(40, 33);
    let (backends, front) = boot_federation(&db, &spec, 1);

    for target in [
        "/cell?cell=*,*&level=fine",
        "/drilldown?cell=*,*&dim=0&level=fine",
        "/paths/topk?cell=*,*&level=fine&k=3",
        "/exceptions?cell=*,*&level=fine",
    ] {
        let (f_status, _, f_body) = raw_get(front.addr(), target);
        let (b_status, _, b_body) = raw_get(backends[0].addr(), target);
        assert_eq!(f_status, b_status, "{target}");
        assert_eq!(
            f_body, b_body,
            "single-shard passthrough must be verbatim: {target}"
        );
    }

    front.shutdown();
    front.join();
    for b in backends {
        b.shutdown();
        b.join();
    }
}

/// One dead shard degrades the answer instead of failing it: 200 with
/// `"partial": true` and a `Retry-After` header, and the surviving
/// shard's counts are still a correct answer over its own paths.
#[test]
fn dead_shard_degrades_to_partial() {
    let (db, spec) = gen_db(60, 47);
    let (mut backends, front) = boot_federation(&db, &spec, 2);

    // Healthy first.
    let (status, _, healthy) = raw_get(front.addr(), "/cell?cell=*,*&level=fine");
    assert_eq!(status, 200);
    let healthy_support = field_u64(&parse(&healthy), "support").unwrap();
    assert_eq!(healthy_support, db.len() as u64);

    // Kill shard 1.
    let dead = backends.remove(1);
    dead.shutdown();
    dead.join();

    let (status, head, body) = raw_get(front.addr(), "/cell?cell=*,*&level=fine");
    assert_eq!(status, 200, "degradation must not be an error: {body:?}");
    let partial = parse(&body);
    assert_eq!(partial.get("partial").and_then(Value::as_bool), Some(true));
    assert!(head.contains("Retry-After"), "got headers {head:?}");
    let partial_support = field_u64(&partial, "support").unwrap();
    assert!(
        partial_support < healthy_support,
        "a partial answer covers only surviving shards"
    );

    // Kill the last shard: nothing to degrade to → 503 + Retry-After.
    let dead = backends.remove(0);
    dead.shutdown();
    dead.join();
    let (status, head, body) = raw_get(front.addr(), "/cell?cell=*,*&level=fine");
    assert_eq!(status, 503, "got {body:?}");
    assert!(head.contains("Retry-After"), "got headers {head:?}");
    assert!(body.contains("error"), "got {body:?}");

    front.shutdown();
    front.join();
}
