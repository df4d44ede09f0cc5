//! The keep-alive contract of the server runtime, checked on both tiers
//! it hosts — the query API (`serve_cube`) and the federation front
//! (`serve_front`, over one shard): connections persist, requests are
//! framed by `Content-Length` and answered in order, every response
//! names the connection's fate, an idle connection occupies no worker,
//! is closed after the read timeout, and does not hold up shutdown, and
//! warm requests never wake the acceptor.
//!
//! The metrics registry is process-global and both tiers' shards write
//! the `serve.*` series; the tests serialize on one mutex.

use flowcube_core::{FlowCube, FlowCubeParams, ItemPlan};
use flowcube_datagen::{generate, GeneratorConfig};
use flowcube_federate::{serve_front, FrontConfig, FrontHandle, ReplicaSet};
use flowcube_hier::PathLatticeSpec;
use flowcube_serve::{serve_cube, ServedCube, ServerConfig, ServerHandle};
use flowcube_testkit::http::{get, header, parse_response, raw_roundtrip, Persistent, Response};
use std::net::SocketAddr;
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

static GLOBALS: Mutex<()> = Mutex::new(());

fn lock_globals() -> MutexGuard<'static, ()> {
    let guard = GLOBALS.lock().unwrap_or_else(|e| e.into_inner());
    flowcube_obs::enable();
    guard
}

const CELL: &str = "/cell?cell=*,*&level=loc0/dur0";

/// One tier under test, with whatever it needs kept alive behind it.
struct Tier {
    /// The scope of the tier's runtime series: `serve` or `federate`.
    scope: &'static str,
    addr: SocketAddr,
    /// How long the tier lets a connection idle.
    idle_budget: Duration,
    server: Option<ServerHandle>,
    front: Option<FrontHandle>,
}

impl Tier {
    /// Stop the tier, then the shard behind it if it has one; returns
    /// how long the tier's own `shutdown` + `join` took.
    fn stop(self) -> Duration {
        let start = Instant::now();
        let front_took = self.front.map(|front| {
            front.shutdown();
            front.join();
            start.elapsed()
        });
        if let Some(server) = self.server {
            server.shutdown();
            server.join();
        }
        front_took.unwrap_or_else(|| start.elapsed())
    }

    fn counter(&self, suffix: &str) -> u64 {
        let name = format!("{}.{suffix}", self.scope);
        flowcube_obs::snapshot()
            .counters
            .get(&name)
            .copied()
            .unwrap_or(0)
    }

    fn idle_gauge(&self) -> f64 {
        let name = format!("{}.connections.idle", self.scope);
        flowcube_obs::snapshot()
            .gauges
            .get(&name)
            .copied()
            .unwrap_or(0.0)
    }
}

fn backend(workers: usize, read_timeout: Duration) -> ServerHandle {
    let db = generate(&GeneratorConfig::small(120, 11)).db;
    let spec = PathLatticeSpec::paper(db.schema().locations(), 1);
    let cube = FlowCube::build(&db, spec, FlowCubeParams::new(8), ItemPlan::All);
    serve_cube(
        ServedCube::from_cube(&cube).expect("encode image"),
        ServerConfig {
            workers,
            read_timeout,
            write_timeout: Duration::from_secs(2),
            ..Default::default()
        },
    )
    .expect("server starts")
}

/// Both tiers, each with `workers` workers and about `idle` of idle
/// budget (the front derives its own from its request deadline).
fn tiers(workers: usize, idle: Duration) -> Vec<Tier> {
    let server = backend(workers, idle);
    let query_api = Tier {
        scope: "serve",
        addr: server.addr(),
        idle_budget: idle,
        server: Some(server),
        front: None,
    };
    let shard = backend(2, Duration::from_secs(5));
    let request_deadline = idle.saturating_sub(Duration::from_millis(250));
    let front = serve_front(FrontConfig {
        backends: vec![ReplicaSet::single(shard.addr().to_string())],
        shards: 1,
        workers,
        request_deadline,
        ..Default::default()
    })
    .expect("front starts");
    let front = Tier {
        scope: "federate",
        addr: front.addr(),
        idle_budget: request_deadline + Duration::from_millis(250),
        server: Some(shard),
        front: Some(front),
    };
    vec![query_api, front]
}

fn default_tiers() -> Vec<Tier> {
    tiers(2, Duration::from_secs(2))
}

fn connection(response: &Response) -> Option<&str> {
    header(&response.1, "connection")
}

/// (a) Fifty requests ride one connection; every answer is the one a
/// one-shot client gets, and says the connection stays.
#[test]
fn sequential_requests_share_one_connection() {
    let _guard = lock_globals();
    for tier in default_tiers() {
        let (status, _, want) = get(tier.addr, CELL, &[]);
        assert_eq!(status, 200, "{}: {want}", tier.scope);
        let reused_before = tier.counter("connections.reused");
        let accepted_before = tier.counter("connections.accepted");

        let mut client = Persistent::new(tier.addr);
        for i in 0..50 {
            let response = client.get(CELL).expect("answered");
            assert_eq!(response.0, 200, "{} request {i}", tier.scope);
            assert_eq!(response.2, want, "{} request {i}", tier.scope);
            assert_eq!(connection(&response), Some("keep-alive"), "request {i}");
        }
        assert_eq!(client.connects, 1, "{}: one connect for fifty", tier.scope);
        assert_eq!(tier.counter("connections.accepted") - accepted_before, 1);
        assert_eq!(tier.counter("connections.reused") - reused_before, 49);
        tier.stop();
    }
}

/// (b) Pipelined requests are answered in order, and a body ends where
/// its `Content-Length` says: what follows it is the next request.
#[test]
fn pipelined_requests_are_split_and_answered_in_order() {
    let _guard = lock_globals();
    for tier in default_tiers() {
        let mut client = Persistent::new(tier.addr);
        client.send(
            format!(
                "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\nGET {CELL} HTTP/1.1\r\nHost: t\r\n\r\n"
            )
            .as_bytes(),
        );
        let first = client.recv().expect("first answer");
        let second = client.recv().expect("second answer");
        assert!(first.2.contains("\"ok\":true"), "{}: {first:?}", tier.scope);
        assert!(
            second.2.contains("\"support\""),
            "{}: {second:?}",
            tier.scope
        );

        // A body that reads like a request, then a real request.
        let body = "GET /stats HTTP/1.1\r\n\r\n";
        client.send(
            format!(
                "POST /admin/ingest HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}\
                 GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n",
                body.len()
            )
            .as_bytes(),
        );
        let post = client.recv().expect("the POST is answered");
        assert!(
            matches!(post.0, 400 | 405),
            "{}: the body is no delta and the front takes no POST: {post:?}",
            tier.scope
        );
        let after = client.recv().expect("the GET behind the body is answered");
        assert_eq!(after.0, 200, "{}: {after:?}", tier.scope);
        assert!(after.2.contains("\"ok\":true"), "{}: {after:?}", tier.scope);
        assert_eq!(client.connects, 1);
        tier.stop();
    }
}

/// (c) A client that asks for `Connection: close`, or speaks HTTP/1.0
/// without asking for keep-alive, gets `Connection: close` and an EOF.
#[test]
fn close_and_http_1_0_end_the_connection() {
    let _guard = lock_globals();
    for tier in default_tiers() {
        for request in [
            "GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
            "GET /healthz HTTP/1.0\r\n\r\n",
        ] {
            let mut client = Persistent::new(tier.addr);
            client.send(request.as_bytes());
            let response = client.recv().expect("answered");
            assert_eq!(response.0, 200, "{}: {request:?}", tier.scope);
            assert_eq!(connection(&response), Some("close"), "{request:?}");
            assert!(
                client.closed_by_server(Duration::from_secs(2)),
                "{}: EOF follows {request:?}",
                tier.scope
            );
        }
        let mut client = Persistent::new(tier.addr);
        client.send(b"GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n");
        let response = client.recv().expect("answered");
        assert_eq!(connection(&response), Some("keep-alive"));
        assert_eq!(client.get("/healthz").expect("second answer").0, 200);
        assert_eq!(client.connects, 1);
        tier.stop();
    }
}

/// (d) A malformed request on a kept connection draws 400 and a close —
/// the stream position is unknown — and nobody else notices.
#[test]
fn malformed_request_on_a_kept_connection_closes_it() {
    let _guard = lock_globals();
    for tier in default_tiers() {
        let mut bystander = Persistent::new(tier.addr);
        assert_eq!(bystander.get("/healthz").expect("answered").0, 200);

        let mut client = Persistent::new(tier.addr);
        assert_eq!(client.get("/healthz").expect("answered").0, 200);
        client.send(b"POST /healthz HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n");
        let response = client.recv().expect("rejected, not ignored");
        assert_eq!(response.0, 400, "{}: {response:?}", tier.scope);
        assert_eq!(connection(&response), Some("close"));
        assert!(client.closed_by_server(Duration::from_secs(2)));

        assert_eq!(bystander.get("/healthz").expect("still answered").0, 200);
        assert_eq!(bystander.connects, 1);
        assert_eq!(
            client.get("/healthz").expect("a new connection works").0,
            200
        );
        assert_eq!(client.connects, 2);
        tier.stop();
    }
}

/// (e) Idle connections hold no worker: with one worker and three idle
/// kept-alive clients, a fourth is answered at once. A runtime that
/// leaves a worker in `read` on an idle socket answers it only after
/// the read timeout.
#[test]
fn idle_connections_hold_no_worker() {
    let _guard = lock_globals();
    for tier in tiers(1, Duration::from_secs(3)) {
        let mut idle: Vec<Persistent> = (0..3).map(|_| Persistent::new(tier.addr)).collect();
        for client in &mut idle {
            let response = client.get("/healthz").expect("answered");
            assert_eq!(connection(&response), Some("keep-alive"));
        }
        let deadline = Instant::now() + Duration::from_secs(1);
        while tier.idle_gauge() < 3.0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(tier.idle_gauge(), 3.0, "{}: three parked", tier.scope);

        let start = Instant::now();
        let (status, _, _) = get(tier.addr, "/healthz", &[]);
        let took = start.elapsed();
        assert_eq!(status, 200);
        assert!(
            took < Duration::from_millis(100),
            "{}: the fourth client waited {took:?} behind idle connections",
            tier.scope
        );
        // The idle ones are still good.
        for client in &mut idle {
            assert_eq!(client.get("/healthz").expect("answered").0, 200);
            assert_eq!(client.connects, 1);
        }
        tier.stop();
    }
}

/// (f) A parked connection silent for the read timeout is closed by the
/// server — counted as an idle close, not as a peer that vanished — and
/// the client's next request, on a fresh connection, is answered.
#[test]
fn idle_connection_is_closed_after_the_read_timeout() {
    let _guard = lock_globals();
    for tier in tiers(2, Duration::from_millis(300)) {
        let idle_closed = tier.counter("connections.idle_closed");
        let disconnected = tier.counter("disconnected");
        let mut client = Persistent::new(tier.addr);
        assert_eq!(client.get("/healthz").expect("answered").0, 200);
        let start = Instant::now();
        assert!(
            client.closed_by_server(tier.idle_budget + Duration::from_secs(2)),
            "{}: the server never closed the idle connection",
            tier.scope
        );
        let took = start.elapsed();
        assert!(
            took + Duration::from_millis(50) >= tier.idle_budget,
            "{}: closed after {took:?}, before the {:?} budget",
            tier.scope,
            tier.idle_budget
        );
        assert_eq!(tier.counter("connections.idle_closed") - idle_closed, 1);
        assert_eq!(client.get("/healthz").expect("reconnects").0, 200);
        assert_eq!(client.connects, 2);

        // The other way round: the client closes its idle connection. No
        // request was under way, so nobody vanished mid-request.
        drop(client);
        let deadline = Instant::now() + Duration::from_secs(1);
        while tier.idle_gauge() > 0.0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(tier.idle_gauge(), 0.0);
        assert_eq!(get(tier.addr, "/healthz", &[]).0, 200);
        assert_eq!(tier.counter("disconnected"), disconnected, "{}", tier.scope);
        tier.stop();
    }
}

/// (g) Idle clients do not hold up shutdown.
#[test]
fn shutdown_is_prompt_with_idle_clients_connected() {
    let _guard = lock_globals();
    for tier in tiers(2, Duration::from_secs(5)) {
        let scope = tier.scope;
        let mut idle: Vec<Persistent> = (0..3).map(|_| Persistent::new(tier.addr)).collect();
        for client in &mut idle {
            assert_eq!(client.get("/healthz").expect("answered").0, 200);
        }
        let took = tier.stop();
        assert!(
            took < Duration::from_secs(1),
            "{scope}: shutdown + join took {took:?} with idle clients connected"
        );
        for client in &mut idle {
            assert!(
                client.closed_by_server(Duration::from_secs(1)),
                "{scope}: a stopped server closes its parked connections"
            );
        }
    }
}

/// A one-shot client that forgets `Connection: close` but half-closes —
/// `raw_roundtrip` — still reads its response and then the end of the
/// stream: the server notices the peer is done instead of waiting out
/// the idle budget.
#[test]
fn half_closed_client_gets_its_answer_and_an_eof() {
    let _guard = lock_globals();
    for tier in tiers(2, Duration::from_secs(5)) {
        let start = Instant::now();
        let raw = raw_roundtrip(tier.addr, b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
        let (status, headers, _) = parse_response(&raw);
        assert_eq!(status, 200);
        assert_eq!(header(&headers, "connection"), Some("keep-alive"));
        assert!(
            start.elapsed() < Duration::from_secs(1),
            "{}: EOF took {:?}",
            tier.scope,
            start.elapsed()
        );
        tier.stop();
    }
}

/// (h) Warm traffic never wakes the acceptor: a parked connection that
/// turns readable goes from the kernel to a worker, and the worker
/// re-arms it itself. Two hundred requests on one warm connection add
/// no wake-up and no connection.
#[test]
fn warm_requests_never_wake_the_acceptor() {
    let _guard = lock_globals();
    for tier in tiers(2, Duration::from_secs(5)) {
        let mut client = Persistent::new(tier.addr);
        assert_eq!(client.get(CELL).expect("warm-up answered").0, 200);
        let wakeups = tier.counter("acceptor.wakeups");
        assert!(wakeups > 0, "{}: accepting woke the acceptor", tier.scope);
        let accepted = tier.counter("connections.accepted");
        for i in 0..200 {
            let response = client.get(CELL).expect("answered");
            assert_eq!(response.0, 200, "{} request {i}", tier.scope);
        }
        assert_eq!(
            tier.counter("acceptor.wakeups") - wakeups,
            0,
            "{}: warm requests woke the acceptor",
            tier.scope
        );
        assert_eq!(tier.counter("connections.accepted"), accepted);
        assert_eq!(client.connects, 1, "{}", tier.scope);
        tier.stop();
    }
}
