//! Fault-injection tests for the delta-shipper HTTP client: the retry
//! policy must wait out a refused connect (server restarting) with
//! backoff, and must NEVER retry once bytes were sent — a delta POST is
//! not idempotent.
//!
//! The failpoint registry is process-global; these tests serialize on a
//! mutex.

use flowcube_federate::{http_post, ClientConfig, FederateError};
use flowcube_fixtures::serial;
use flowcube_testkit::FailAction;
use std::io::{Read, Write};
use std::net::TcpListener;
use std::sync::Mutex;
use std::time::{Duration, Instant};

static FAILPOINTS: Mutex<()> = Mutex::new(());

/// A one-shot HTTP server: accepts connections until stopped, answering
/// each with a fixed 200. Returns the URL and a join guard.
fn tiny_server(responses: usize) -> (String, std::thread::JoinHandle<usize>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let handle = std::thread::spawn(move || {
        let mut served = 0;
        for conn in listener.incoming().take(responses) {
            let Ok(mut stream) = conn else { continue };
            let mut buf = [0u8; 4096];
            let _ = stream.read(&mut buf); // drain the request head
            let _ = stream.write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 11\r\n\r\n{\"ok\":true}");
            served += 1;
        }
        served
    });
    (format!("http://{addr}/admin/ingest"), handle)
}

/// A pinned jitter seed keeps the backoff schedule — now full-jitter —
/// reproducible across runs of this suite.
const JITTER_SEED: u64 = 0xF10C;

fn cfg(retries: u32) -> ClientConfig {
    ClientConfig {
        timeout: Duration::from_secs(2),
        retries,
        backoff: Duration::from_millis(20),
        jitter_seed: Some(JITTER_SEED),
    }
}

/// Two refused connects, then the server is "back": the POST succeeds
/// after retry-with-backoff, and the wait matches the seeded full-jitter
/// schedule (`backoff_schedule` with the same pinned seed).
#[test]
fn refused_connect_is_retried_with_backoff() {
    let _guard = serial(&FAILPOINTS);
    flowcube_testkit::reset();
    let (url, server) = tiny_server(1);

    flowcube_testkit::arm_times(
        "federate.client.connect",
        2,
        FailAction::ReturnErr(Some("connection refused".into())),
    );
    let expected: Duration = flowcube_federate::client::backoff_schedule(&cfg(3), 2)
        .iter()
        .sum();
    let start = Instant::now();
    let (status, body) = http_post(&url, "{}", &cfg(3)).expect("third attempt succeeds");
    let waited = start.elapsed();
    assert_eq!(status, 200);
    assert!(body.contains("\"ok\":true"), "got {body:?}");
    assert_eq!(flowcube_testkit::hits("federate.client.connect"), 2);
    assert!(
        waited >= expected,
        "backoff must wait out the seeded jitter schedule ({expected:?}), got {waited:?}"
    );
    assert!(
        waited < expected + Duration::from_secs(2),
        "jitter is bounded: slept {waited:?} against schedule {expected:?}"
    );
    flowcube_testkit::reset();
    assert_eq!(
        server.join().unwrap(),
        1,
        "exactly one request reached the server"
    );
}

/// The retry budget is honored: with every connect refused, the client
/// gives up after 1 + retries attempts and surfaces a typed error.
#[test]
fn exhausted_retries_surface_the_refusal() {
    let _guard = serial(&FAILPOINTS);
    flowcube_testkit::reset();

    flowcube_testkit::arm(
        "federate.client.connect",
        FailAction::ReturnErr(Some("connection refused".into())),
    );
    let err = http_post("http://127.0.0.1:1/x", "{}", &cfg(2)).expect_err("all attempts refused");
    assert!(matches!(err, FederateError::Io { .. }), "{err:?}");
    assert!(err.to_string().contains("connection refused"), "{err}");
    assert_eq!(
        flowcube_testkit::hits("federate.client.connect"),
        3,
        "first attempt + 2 retries"
    );
    flowcube_testkit::reset();
}

/// A failure after the request was written is NOT retried — the server
/// may already have applied the delta, and a blind retry would
/// double-ingest it.
#[test]
fn post_send_failures_are_never_retried() {
    let _guard = serial(&FAILPOINTS);
    flowcube_testkit::reset();
    let (url, server) = tiny_server(1);

    flowcube_testkit::arm(
        "federate.client.read",
        FailAction::ReturnErr(Some("connection reset mid-response".into())),
    );
    let err = http_post(&url, "{}", &cfg(5)).expect_err("read failure surfaces");
    assert!(matches!(err, FederateError::Io { .. }), "{err:?}");
    assert_eq!(
        flowcube_testkit::hits("federate.client.read"),
        1,
        "exactly one attempt — no retry after bytes were sent"
    );
    flowcube_testkit::reset();
    drop(server); // the single accepted connection satisfied take(1)
}

/// A torn response (short read) is malformed, not silently accepted.
#[test]
fn torn_response_is_an_error_not_a_success() {
    let _guard = serial(&FAILPOINTS);
    flowcube_testkit::reset();
    let (url, _server) = tiny_server(1);

    flowcube_testkit::arm_times("federate.client.read", 1, FailAction::ShortRead(0));
    let err = http_post(&url, "{}", &cfg(0)).expect_err("empty response is malformed");
    assert!(err.to_string().contains("malformed"), "{err}");
    flowcube_testkit::reset();
}
