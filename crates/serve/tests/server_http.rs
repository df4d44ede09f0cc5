//! Server fault tolerance: malformed, oversized, and half-open requests
//! must never take the server down — a well-formed request afterwards
//! still gets a correct answer.

use flowcube_core::{FlowCube, FlowCubeParams, ItemPlan};
use flowcube_datagen::{generate, DimShape, GeneratorConfig};
use flowcube_hier::{DurationLevel, LocationCut, PathLatticeSpec, PathLevel};
use flowcube_serve::{serve_cube, ServedCube, ServerConfig, ServerHandle};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

fn small_cube() -> FlowCube {
    let config = GeneratorConfig {
        num_paths: 120,
        dims: vec![DimShape::new(vec![2, 3], 0.7); 2],
        num_sequences: 5,
        seed: 11,
        ..Default::default()
    };
    let db = generate(&config).db;
    let loc = db.schema().locations();
    let spec = PathLatticeSpec::new(vec![PathLevel::new(
        "fine",
        LocationCut::uniform_level(loc, loc.max_level()),
        DurationLevel::Raw,
    )]);
    FlowCube::build(&db, spec, FlowCubeParams::new(8), ItemPlan::All)
}

fn start() -> ServerHandle {
    serve_cube(
        ServedCube::from_cube(&small_cube()).expect("encode image"),
        ServerConfig {
            workers: 2,
            read_timeout: Duration::from_millis(500),
            write_timeout: Duration::from_millis(500),
            ..Default::default()
        },
    )
    .expect("server starts")
}

/// Send raw bytes, return the raw response (may be empty on hangup).
fn raw_roundtrip(addr: std::net::SocketAddr, bytes: &[u8]) -> Vec<u8> {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    s.write_all(bytes).expect("write");
    s.shutdown(std::net::Shutdown::Write).ok();
    let mut out = Vec::new();
    let _ = s.read_to_end(&mut out);
    out
}

fn get(addr: std::net::SocketAddr, target: &str) -> (u16, String) {
    let raw = raw_roundtrip(
        addr,
        format!("GET {target} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n").as_bytes(),
    );
    let text = String::from_utf8_lossy(&raw).into_owned();
    let status: u16 = text
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let body = text
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

#[test]
fn survives_malformed_and_hostile_input() {
    let handle = start();
    let addr = handle.addr();

    // Garbage request line.
    let resp = String::from_utf8_lossy(&raw_roundtrip(addr, b"TOTAL GARBAGE\r\n\r\n")).into_owned();
    assert!(resp.starts_with("HTTP/1.1 400"), "got {resp:?}");

    // Wrong protocol version.
    let resp =
        String::from_utf8_lossy(&raw_roundtrip(addr, b"GET /healthz SPDY/9\r\n\r\n")).into_owned();
    assert!(resp.starts_with("HTTP/1.1 400"), "got {resp:?}");

    // Bad percent-escape.
    let (status, _) = get(addr, "/cell?cell=%zz");
    assert_eq!(status, 400);

    // Oversized head.
    let mut big = b"GET /healthz HTTP/1.1\r\nX-Pad: ".to_vec();
    big.resize(big.len() + 20 * 1024, b'a');
    big.extend_from_slice(b"\r\n\r\n");
    let resp = String::from_utf8_lossy(&raw_roundtrip(addr, &big)).into_owned();
    assert!(resp.starts_with("HTTP/1.1 431"), "got {resp:?}");

    // Half-open connection: connect, write a fragment, hang up.
    let _ = raw_roundtrip(addr, b"GET /hea");

    // Unknown route and unknown parameters answer with JSON errors.
    let (status, body) = get(addr, "/no/such/route");
    assert_eq!(status, 404);
    assert!(body.contains("error"), "got {body:?}");
    let (status, _) = get(addr, "/cell?cell=zzz-not-a-value");
    assert_eq!(status, 404);
    let (status, _) = get(addr, "/rollup?cell=*,*&dim=99&level=fine");
    assert_eq!(status, 400);
    let (status, _) = get(addr, "/cell?cell=*,*&level=no-such-level");
    assert_eq!(status, 404);

    // After all that abuse the server still answers correctly.
    let (status, body) = get(addr, "/healthz");
    assert_eq!(status, 200);
    assert!(body.contains("\"ok\":true"), "got {body:?}");
    assert!(body.contains("\"status\":\"ok\""), "got {body:?}");
    assert!(body.contains("\"worker_crashes\":0"), "got {body:?}");
    let (status, body) = get(addr, "/cell?cell=*,*&level=fine");
    assert_eq!(status, 200, "got {body:?}");
    assert!(body.contains("\"support\""), "got {body:?}");

    handle.shutdown();
    handle.join();
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
                let (status, body) = get(addr, "/cell?cell=*,*&level=fine");
                assert_eq!(status, 200);
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

    handle.shutdown();
    handle.join();
}
