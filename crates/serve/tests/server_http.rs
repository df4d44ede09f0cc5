//! Server fault tolerance: malformed, oversized, and half-open requests
//! must never take the server down — a well-formed request afterwards
//! still gets a correct answer.

use flowcube_fixtures::{cube_server, small_cube, CubeServer};
use flowcube_serve::ServerConfig;
use flowcube_testkit::http::{get, get_ok, hostile_requests, parse_response, raw_roundtrip};
use serde_json::Value;
use std::time::Duration;

fn start() -> CubeServer {
    let config = ServerConfig {
        workers: 2,
        read_timeout: Duration::from_millis(500),
        write_timeout: Duration::from_millis(500),
        ..Default::default()
    };
    cube_server(&small_cube(11, 8).cube, config)
}

#[test]
fn survives_malformed_and_hostile_input() {
    let handle = start();
    let addr = handle.addr();

    // Garbage, a wrong protocol version, a bad percent-escape, quotes /
    // backslashes / control bytes in the request line and in a header,
    // an oversized head: each draws its status and a JSON error body.
    for (raw, want) in hostile_requests() {
        let (status, _, body) = parse_response(&raw_roundtrip(addr, &raw));
        let shown = String::from_utf8_lossy(&raw[..raw.len().min(60)]).into_owned();
        assert_eq!(status, want, "{shown:?} got {body:?}");
        let error = serde_json::parse_value_str(&body)
            .unwrap_or_else(|e| panic!("{shown:?}: body {body:?} is not JSON: {e:?}"));
        assert!(
            error.get("error").and_then(Value::as_str).is_some(),
            "{shown:?} got {body:?}"
        );
        // The rejected bytes left nothing behind: a new connection is
        // answered as if they had never arrived.
        let _ = get_ok(addr, "/healthz");
    }

    // Half-open connection: connect, write a fragment, hang up.
    let _ = raw_roundtrip(addr, b"GET /hea");

    // Unknown route and unknown parameters answer with JSON errors.
    let (status, _, body) = get(addr, "/no/such/route", &[]);
    assert_eq!(status, 404);
    assert!(body.contains("error"), "got {body:?}");
    let (status, _, _) = get(addr, "/cell?cell=zzz-not-a-value", &[]);
    assert_eq!(status, 404);
    let (status, _, _) = get(addr, "/rollup?cell=*,*&dim=99&level=loc0/dur0", &[]);
    assert_eq!(status, 400);
    let (status, _, _) = get(addr, "/cell?cell=*,*&level=no-such-level", &[]);
    assert_eq!(status, 404);
    // An observed path: an unknown location is not found; a bad duration
    // or no stage at all is a bad request.
    for (path, want) in [("mars:1", 404), ("mars:soon", 400), (",%20,", 400)] {
        let target = format!("/paths/probability?cell=*,*&level=loc0/dur0&path={path}");
        let (status, _, body) = get(addr, &target, &[]);
        assert_eq!(status, want, "path={path:?} got {body:?}");
    }

    // After all that abuse the server still answers correctly.
    let body = get_ok(addr, "/healthz");
    assert!(body.contains("\"ok\":true"), "got {body:?}");
    assert!(body.contains("\"status\":\"ok\""), "got {body:?}");
    assert!(body.contains("\"worker_crashes\":0"), "got {body:?}");
    let body = get_ok(addr, "/cell?cell=*,*&level=loc0/dur0");
    assert!(body.contains("\"support\""), "got {body:?}");

    handle.stop();
}

#[test]
fn concurrent_clients_get_consistent_answers() {
    let handle = start();
    let addr = handle.addr();

    let mut threads = Vec::new();
    for _ in 0..8 {
        threads.push(std::thread::spawn(move || {
            let mut bodies = Vec::new();
            for _ in 0..10 {
                let body = get_ok(addr, "/cell?cell=*,*&level=loc0/dur0");
                bodies.push(body);
            }
            bodies
        }));
    }
    let mut all: Vec<String> = Vec::new();
    for t in threads {
        all.extend(t.join().expect("client thread"));
    }
    assert_eq!(all.len(), 80);
    assert!(
        all.iter().all(|b| b == &all[0]),
        "all clients must see the same answer"
    );

    handle.stop();
}
