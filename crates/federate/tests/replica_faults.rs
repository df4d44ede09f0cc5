//! Fault-injection tests for replica sets in the federated front tier:
//! hedged requests (first reply wins, the loser is abandoned, a hedge
//! pair is never gathered twice), retry budgets (an exhausted budget
//! suppresses the hedge), breaker-gated routing (a refused replica opens
//! its breaker, a half-open `/healthz` probe closes it), and the
//! acceptance path — one replica per shard killed mid-run yields 100%
//! full, non-partial 200s — and the contract of the per-replica
//! connection pools: attempts reuse connections, a stale pooled
//! connection is not a replica failure (but a timeout on one is), a
//! socket whose response was not read to the end never carries another
//! request, and an open breaker empties its replica's pool — and that the
//! request's coordinator owns its attempts: a hung connect stalls neither
//! the hedge nor the other shard, and a warm front starts no thread and
//! hands no attempt over unless a hedge fired.
//!
//! The failpoint registry, metrics registry, and flight ring are all
//! process-global; these tests serialize on one mutex and reset all
//! three at entry.

use flowcube_datagen::{generate, GeneratorConfig};
use flowcube_federate::{
    serve_front, shard_db, BreakerConfig, FrontConfig, FrontHandle, HedgePolicy, ReplicaSet,
};
use flowcube_fixtures::{
    counter, federation, parse, serial, server_at, shard_counts, shutdown_all,
};
use flowcube_obs::flight::{self, FlightKind};
use flowcube_pathdb::PathDatabase;
use flowcube_testkit::http::{get, get_ok, raw_roundtrip};
use flowcube_testkit::FailAction;
use serde_json::Value;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{mpsc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

static GLOBALS: Mutex<()> = Mutex::new(());

fn lock_globals() -> MutexGuard<'static, ()> {
    let guard = serial(&GLOBALS);
    // An earlier test's abandoned attempts (a held hedge loser, a probe)
    // may still be running on the background thread; they would count
    // into this test's metrics.
    let deadline = Instant::now() + Duration::from_secs(10);
    while flowcube_federate::attempts_in_background() > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    flowcube_testkit::reset();
    flowcube_obs::enable();
    flowcube_obs::reset();
    flight::enable();
    flight::clear();
    guard
}

/// Replica `r` of shard `k`'s series of a per-replica counter.
fn replica_counter(name: &str, k: usize, r: usize) -> u64 {
    let labels = [("shard", &*k.to_string()), ("replica", &*r.to_string())];
    counter(&flowcube_obs::labeled(name, &labels))
}

/// Sum of a counter family over all of its label sets.
fn family(name: &str) -> u64 {
    let labeled = format!("{name}{{");
    flowcube_obs::snapshot()
        .counters
        .iter()
        .filter(|(k, _)| *k == name || k.starts_with(&labeled))
        .map(|(_, v)| *v)
        .sum()
}

/// Idle connections the front holds to replica `r` of shard `k`.
fn pooled(front: &FrontHandle, k: usize, r: usize) -> usize {
    front.state().shards()[k].replicas[r].pool.len()
}

/// `/cell` of the apex: the whole database's support, from every shard.
fn assert_full_answer(front: &FrontHandle, db: &PathDatabase, tag: &str) {
    let body = get_ok(front.addr(), "/cell?cell=*,*&level=loc0/dur0");
    let v = parse(&body);
    assert_eq!(
        v.get("support").and_then(Value::as_u64),
        Some(db.len() as u64),
        "{tag}: full support: {body}"
    );
    assert!(v.get("partial").is_none(), "{tag}: non-partial: {body}");
}

fn flight_kinds() -> Vec<FlightKind> {
    flight::snapshot().into_iter().map(|e| e.kind).collect()
}

/// A slow primary loses the hedge race: the hedged second request
/// answers first, the answer is returned without waiting out the
/// primary's delay, and the loser is abandoned — not gathered.
#[test]
fn hedge_first_reply_wins_and_abandons_the_slow_replica() {
    let _guard = lock_globals();
    let db = generate(&GeneratorConfig::small(50, 71)).db;
    let (groups, front) = federation(shard_counts, &db, 1, 2, |c| {
        c.hedge = HedgePolicy::Fixed(Duration::from_millis(20));
    });

    // Replica 0 is the first request's primary (the rotation cursor
    // starts at 0); make every attempt against it crawl.
    flowcube_testkit::arm(
        "federate.replica.s0.r0",
        FailAction::Delay(Duration::from_millis(400)),
    );
    let start = Instant::now();
    let (status, _, body) = get(front.addr(), "/cell?cell=*,*&level=loc0/dur0", &[]);
    let elapsed = start.elapsed();
    assert_eq!(status, 200, "got {body:?}");
    let v = parse(&body);
    assert_eq!(
        v.get("support").and_then(Value::as_u64),
        Some(db.len() as u64),
        "the hedge winner's answer is complete: {body}"
    );
    assert!(
        v.get("partial").is_none(),
        "a won hedge is not a degradation: {body}"
    );
    assert!(
        elapsed < Duration::from_millis(300),
        "first reply wins — the 400ms primary must not gate the answer, took {elapsed:?}"
    );
    assert_eq!(
        replica_counter("federate.replica.hedged", 0, 1),
        1,
        "exactly one hedge fired"
    );
    assert_eq!(
        replica_counter("federate.replica.hedge_won", 0, 1),
        1,
        "the hedge won the race"
    );
    assert_eq!(
        counter(&flowcube_obs::labeled(
            "federate.replica.abandoned",
            &[("shard", "0")]
        )),
        1,
        "the slow primary was abandoned"
    );
    assert!(
        flight_kinds().contains(&FlightKind::Hedge),
        "hedging leaves a flight event"
    );

    flowcube_testkit::reset();
    shutdown_all(groups, front);
}

/// A hedge pair is one shard leg, not two: with every shard's primary
/// slowed so every leg hedges, the federated support still equals the
/// database size exactly — the abandoned loser is never merged.
#[test]
fn hedge_pair_is_never_gathered_twice() {
    let _guard = lock_globals();
    let db = generate(&GeneratorConfig::small(60, 72)).db;
    let (groups, front) = federation(shard_counts, &db, 2, 2, |c| {
        c.hedge = HedgePolicy::Fixed(Duration::from_millis(15));
    });

    for shard in 0..2 {
        flowcube_testkit::arm(
            &format!("federate.replica.s{shard}.r0"),
            FailAction::Delay(Duration::from_millis(300)),
        );
    }
    for _ in 0..3 {
        let body = get_ok(front.addr(), "/cell?cell=*,*&level=loc0/dur0");
        let v = parse(&body);
        assert_eq!(
            v.get("support").and_then(Value::as_u64),
            Some(db.len() as u64),
            "hedged legs merge exactly once: {body}"
        );
        assert!(v.get("partial").is_none(), "not a degradation: {body}");
    }
    assert!(
        replica_counter("federate.replica.hedged", 0, 1) >= 1
            && replica_counter("federate.replica.hedged", 1, 1) >= 1,
        "both shards actually hedged"
    );

    flowcube_testkit::reset();
    shutdown_all(groups, front);
}

/// An exhausted retry budget suppresses the hedge: the request waits out
/// the slow primary instead of sending a second attempt it has no
/// tokens for.
#[test]
fn exhausted_budget_suppresses_the_hedge() {
    let _guard = lock_globals();
    let db = generate(&GeneratorConfig::small(40, 73)).db;
    let (groups, front) = federation(shard_counts, &db, 1, 2, |c| {
        c.hedge = HedgePolicy::Fixed(Duration::from_millis(10));
        c.retry_budget = 0;
    });

    flowcube_testkit::arm(
        "federate.replica.s0.r0",
        FailAction::Delay(Duration::from_millis(150)),
    );
    let start = Instant::now();
    let (status, _, body) = get(front.addr(), "/cell?cell=*,*&level=loc0/dur0", &[]);
    let elapsed = start.elapsed();
    assert_eq!(status, 200, "got {body:?}");
    assert!(
        elapsed >= Duration::from_millis(140),
        "with no budget the request waits for the primary, took {elapsed:?}"
    );
    assert_eq!(
        replica_counter("federate.replica.hedged", 0, 1),
        0,
        "no hedge without a token"
    );
    assert_eq!(
        replica_counter("federate.replica.selected", 0, 1),
        0,
        "replica 1 was never contacted"
    );

    flowcube_testkit::reset();
    shutdown_all(groups, front);
}

/// The breaker lifecycle: injected failures open a replica's breaker
/// (visible in `/healthz` and the flight ring), the cooldown elapses,
/// the half-open `/healthz` probe finds the replica healthy again, and
/// the breaker closes — without any data request ever failing.
#[test]
fn breaker_opens_on_failures_and_probe_closes_it() {
    let _guard = lock_globals();
    let db = generate(&GeneratorConfig::small(40, 74)).db;
    let (groups, front) = federation(shard_counts, &db, 1, 2, |c| {
        c.hedge = HedgePolicy::Off;
        c.breaker = BreakerConfig {
            failure_threshold: 1,
            cooldown: Duration::from_millis(50),
            probe_timeout: Duration::from_millis(500),
        };
    });

    // The first request's primary (replica 0) fails once: threshold 1
    // opens the breaker, the retry answers from replica 1.
    flowcube_testkit::arm_times(
        "federate.replica.s0.r0",
        1,
        FailAction::ReturnErr(Some("injected transport failure".into())),
    );
    let body = get_ok(front.addr(), "/cell?cell=*,*&level=loc0/dur0");
    assert!(parse(&body).get("partial").is_none(), "full answer: {body}");
    assert_eq!(replica_counter("federate.replica.breaker_open", 0, 0), 1);
    assert_eq!(replica_counter("federate.replica.retried", 0, 1), 1);
    let health = get_ok(front.addr(), "/healthz");
    assert!(
        health.contains("\"open\""),
        "healthz names the open replica: {health}"
    );
    assert!(flight_kinds().contains(&FlightKind::BreakerOpen));

    // Past the cooldown, a data request triggers the half-open probe;
    // the replica's real /healthz answers, so the breaker closes.
    std::thread::sleep(Duration::from_millis(80));
    let deadline = Instant::now() + Duration::from_secs(3);
    loop {
        get_ok(front.addr(), "/cell?cell=*,*&level=loc0/dur0");
        let (_, _, health) = get(front.addr(), "/healthz", &[]);
        if !health.contains("\"open\"") && !health.contains("\"half_open\"") {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "breaker never closed; healthz: {health}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(replica_counter("federate.replica.breaker_close", 0, 0), 1);
    assert!(flight_kinds().contains(&FlightKind::BreakerClose));

    flowcube_testkit::reset();
    shutdown_all(groups, front);
}

/// The acceptance path: 2 shards x 2 replicas, one replica per shard
/// killed mid-run. Every answer before and after the kill is a full,
/// non-partial 200 with the exact database support — partial-200
/// degradation is reserved for a whole replica set being down.
#[test]
fn one_dead_replica_per_shard_keeps_every_answer_full() {
    let _guard = lock_globals();
    let db = generate(&GeneratorConfig::small(80, 75)).db;
    let (mut groups, front) = federation(shard_counts, &db, 2, 2, |_| {});

    for _ in 0..5 {
        assert_full_answer(&front, &db, "healthy");
    }
    // Kill replica 1 of every shard mid-run.
    for group in &mut groups {
        let dead = group.remove(1);
        dead.stop();
    }
    for _ in 0..30 {
        assert_full_answer(&front, &db, "one replica per shard dead");
    }

    // The dead replicas were discovered: they carry failure streaks (or
    // open breakers) in /healthz, yet no answer was partial.
    let (_, _, health) = get(front.addr(), "/healthz", &[]);
    let v = parse(&health);
    let sets = v
        .get("replica_sets")
        .and_then(Value::as_array)
        .expect("replica_sets in healthz");
    assert_eq!(sets.len(), 2);

    shutdown_all(groups, front);
}

/// A front worker that panics mid-request is joined by the supervisor,
/// counted in the front's `/healthz` and under `federate.worker.crashes`,
/// and replaced — and the failpoint carries the front's scope, so no
/// shard worker in the same process dies with it.
#[test]
fn front_worker_panic_is_counted_and_respawned() {
    let _guard = lock_globals();
    let db = generate(&GeneratorConfig::small(40, 76)).db;
    let (groups, front) = federation(shard_counts, &db, 2, 1, |_| {});

    // Exactly one request panics its worker; the client sees a hangup.
    flowcube_testkit::arm_times("federate.worker.request", 1, FailAction::Panic(None));
    let raw = raw_roundtrip(front.addr(), b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
    assert!(raw.is_empty(), "panicked worker must not answer: {raw:?}");

    // The supervisor notices within its poll interval and respawns.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let health = get_ok(front.addr(), "/healthz");
        if health.contains("\"worker_crashes\":1") {
            break;
        }
        assert!(Instant::now() < deadline, "crash never recorded: {health}");
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(counter("federate.worker.crashes"), 1);
    assert_eq!(counter("serve.worker.crashes"), 0);
    for backend in groups.iter().flatten() {
        assert_eq!(backend.state().health.worker_crashes(), 0);
    }

    let body = get_ok(front.addr(), "/cell?cell=*,*&level=loc0/dur0");
    let v = parse(&body);
    assert_eq!(
        v.get("support").and_then(Value::as_u64),
        Some(db.len() as u64)
    );
    assert!(v.get("partial").is_none(), "full answer: {body}");

    flowcube_testkit::reset();
    shutdown_all(groups, front);
}

/// (a) Shard attempts reuse connections: twenty federated requests over
/// two shards open a connection per shard, not one per attempt.
#[test]
fn shard_connections_are_pooled_not_opened_per_attempt() {
    let _guard = lock_globals();
    let db = generate(&GeneratorConfig::small(60, 77)).db;
    let (groups, front) = federation(shard_counts, &db, 2, 1, |_| {});

    let accepted = family("serve.connections.accepted");
    for i in 0..20 {
        assert_full_answer(&front, &db, &format!("request {i}"));
    }
    let opened = family("serve.connections.accepted") - accepted;
    assert!(
        (2..=4).contains(&opened),
        "40 shard attempts opened {opened} connections: one per shard, plus slack for a hedge"
    );
    assert_eq!(family("federate.client.pool.miss"), opened);
    assert_eq!(family("federate.client.pool.hit"), 40 - opened);
    assert_eq!(family("serve.connections.reused"), 40 - opened);
    assert_eq!((pooled(&front, 0, 0), pooled(&front, 1, 0)), (1, 1));

    shutdown_all(groups, front);
}

/// (b) A replica restarted between two requests leaves the front holding
/// a dead pooled connection. The next request is resent on a fresh one
/// and answers in full; health, breaker, retries and the request's budget
/// never hear of it.
#[test]
fn stale_pooled_connection_is_resent_not_reported() {
    let _guard = lock_globals();
    let db = generate(&GeneratorConfig::small(60, 78)).db;
    let (mut groups, front) = federation(shard_counts, &db, 2, 1, |_| {});
    assert_full_answer(&front, &db, "before the restart");
    assert_eq!(pooled(&front, 0, 0), 1, "the front holds a connection");

    // Restart shard 0's only replica where it was.
    let old = groups[0].remove(0);
    let addr = old.addr().to_string();
    old.stop();
    let shard = shard_db(&db, 2, 0).expect("shard splits");
    groups[0].push(server_at(&shard_counts(&shard), &addr));

    let selected = family("federate.replica.selected");
    assert_full_answer(&front, &db, "after the restart");
    assert_eq!(family("federate.client.pool.stale"), 1, "one resend");
    assert_eq!(
        family("federate.replica.selected") - selected,
        2,
        "one attempt per shard: the resend is not an attempt"
    );
    for untouched in [
        "federate.replica.retried",
        "federate.replica.hedged",
        "federate.replica.breaker_open",
        "federate.shard.errors",
    ] {
        assert_eq!(family(untouched), 0, "{untouched} moved");
    }
    let (_, _, health) = get(front.addr(), "/healthz", &[]);
    assert!(
        !health.contains("\"consecutive_failures\":1"),
        "no failure streak: {health}"
    );
    assert_eq!(pooled(&front, 0, 0), 1, "the fresh connection is pooled");

    shutdown_all(groups, front);
}

/// (c) A torn read on a pooled connection fails the attempt as it always
/// did, and the socket — its response unread — is dropped, not pooled.
#[test]
fn torn_read_on_a_pooled_connection_drops_the_socket() {
    let _guard = lock_globals();
    let db = generate(&GeneratorConfig::small(40, 79)).db;
    let (groups, front) = federation(shard_counts, &db, 1, 1, |_| {});
    assert_full_answer(&front, &db, "warm-up");
    assert_eq!(pooled(&front, 0, 0), 1);

    flowcube_testkit::arm_times("federate.client.read", 1, FailAction::ShortRead(0));
    let (status, _, body) = get(front.addr(), "/cell?cell=*,*&level=loc0/dur0", &[]);
    assert_eq!(status, 503, "the only replica's attempt failed: {body}");
    assert_eq!(flowcube_testkit::hits("federate.client.read"), 1);
    assert_eq!(family("federate.client.pool.hit"), 1, "it rode the pool");
    assert_eq!(
        family("federate.client.pool.stale"),
        0,
        "and was not resent"
    );
    assert_eq!(pooled(&front, 0, 0), 0, "a half-read socket is not pooled");
    let (_, _, health) = get(front.addr(), "/healthz", &[]);
    assert!(
        health.contains("\"consecutive_failures\":1"),
        "reported to health as before: {health}"
    );

    // The next request connects afresh and reads its own answer, not
    // the /cell answer left unread on the dropped socket.
    let misses = family("federate.client.pool.miss");
    let (status, _, body) = get(
        front.addr(),
        "/paths/topk?cell=*,*&level=loc0/dur0&k=2",
        &[],
    );
    assert_eq!(family("federate.client.pool.miss") - misses, 1);
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"paths\""), "a top-k answer: {body}");
    assert_full_answer(&front, &db, "afterwards");

    flowcube_testkit::reset();
    shutdown_all(groups, front);
}

/// (d) A hedge loser's socket re-enters the pool only once its response
/// was read to the end: requests that later ride it read their own
/// answers.
#[test]
fn hedge_losers_socket_is_pooled_only_after_its_whole_response() {
    let _guard = lock_globals();
    let db = generate(&GeneratorConfig::small(50, 80)).db;
    let (groups, front) = federation(shard_counts, &db, 1, 2, |c| {
        c.hedge = HedgePolicy::Fixed(Duration::from_millis(20));
    });

    flowcube_testkit::arm_times(
        "federate.replica.s0.r0",
        1,
        FailAction::Delay(Duration::from_millis(150)),
    );
    assert_full_answer(&front, &db, "hedged");
    assert_eq!(
        replica_counter("federate.replica.hedge_won", 0, 1),
        1,
        "the hedge won"
    );
    assert_eq!(pooled(&front, 0, 0), 0, "the loser is still under way");
    let deadline = Instant::now() + Duration::from_secs(2);
    while pooled(&front, 0, 0) == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(
        (pooled(&front, 0, 0), pooled(&front, 0, 1)),
        (1, 1),
        "the loser read its whole response and pooled its socket"
    );

    // The rotation leads with each replica in turn; both pooled sockets
    // carry requests, and every answer is the one asked for.
    let accepted = family("serve.connections.accepted");
    for i in 0..3 {
        assert_full_answer(&front, &db, &format!("cell {i}"));
        let (status, _, body) = get(
            front.addr(),
            "/paths/topk?cell=*,*&level=loc0/dur0&k=2",
            &[],
        );
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"paths\""), "a top-k answer: {body}");
    }
    assert_eq!(family("serve.connections.accepted"), accepted, "all reused");

    flowcube_testkit::reset();
    shutdown_all(groups, front);
}

/// (e) When a replica's breaker opens, the idle connections to it go.
#[test]
fn breaker_open_empties_the_replicas_pool() {
    let _guard = lock_globals();
    let db = generate(&GeneratorConfig::small(40, 81)).db;
    let (groups, front) = federation(shard_counts, &db, 1, 2, |c| {
        c.hedge = HedgePolicy::Off;
        c.breaker = BreakerConfig {
            failure_threshold: 1,
            cooldown: Duration::from_secs(60),
            probe_timeout: Duration::from_millis(500),
        };
    });
    // The rotation leads with replica 0, then replica 1.
    assert_full_answer(&front, &db, "warm replica 0");
    assert_full_answer(&front, &db, "warm replica 1");
    assert_eq!((pooled(&front, 0, 0), pooled(&front, 0, 1)), (1, 1));

    flowcube_testkit::arm_times(
        "federate.replica.s0.r0",
        1,
        FailAction::ReturnErr(Some("injected transport failure".into())),
    );
    assert_full_answer(&front, &db, "the retry hides the failure");
    assert_eq!(replica_counter("federate.replica.breaker_open", 0, 0), 1);
    assert_eq!(
        (pooled(&front, 0, 0), pooled(&front, 0, 1)),
        (0, 1),
        "the open replica's pool is empty, its neighbour's untouched"
    );

    flowcube_testkit::reset();
    shutdown_all(groups, front);
}

/// (f) A pooled connection whose replica stalls is a timed-out attempt,
/// not a stale connection: it fails after one shard timeout, is not
/// resent, and the replica's failure streak hears of it.
#[test]
fn timeout_on_a_pooled_connection_is_a_failure_not_a_stale_resend() {
    let _guard = lock_globals();
    // A scripted replica: it answers the first request on its first
    // connection with keep-alive, then reads the second and stalls.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let (done_tx, done_rx) = mpsc::channel::<()>();
    let replica = std::thread::spawn(move || {
        let (mut conn, _) = listener.accept().expect("accept");
        read_head(&mut conn);
        let body = r#"{"cell":"*,*","support":7,"nodes":1}"#;
        let response = format!(
            "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\nConnection: keep-alive\r\n\r\n{body}",
            body.len()
        );
        conn.write_all(response.as_bytes()).expect("answer");
        read_head(&mut conn);
        // Hold both the stalled connection and the listener until the
        // test is done: a resend would connect and stall too.
        let _ = done_rx.recv();
    });
    let front = serve_front(FrontConfig {
        backends: vec![ReplicaSet::single(addr)],
        shards: 1,
        workers: 2,
        shard_timeout: Duration::from_millis(200),
        hedge: HedgePolicy::Off,
        ..Default::default()
    })
    .expect("front starts");

    get_ok(front.addr(), "/cell?cell=*,*&level=loc0/dur0");
    assert_eq!(pooled(&front, 0, 0), 1, "and its connection pooled");

    let start = Instant::now();
    let (status, _, body) = get(front.addr(), "/cell?cell=*,*&level=loc0/dur0", &[]);
    let elapsed = start.elapsed();
    assert_eq!(status, 503, "the only replica timed out: {body}");
    assert!(
        (Duration::from_millis(190)..Duration::from_millis(380)).contains(&elapsed),
        "one shard timeout, not two: took {elapsed:?}"
    );
    assert_eq!(family("federate.client.pool.hit"), 1, "it rode the pool");
    assert_eq!(
        family("federate.client.pool.stale"),
        0,
        "and was not resent"
    );
    assert_eq!(
        front.state().shards()[0].replicas[0]
            .health
            .consecutive_failures(),
        1,
        "the replica's failure streak heard of the timeout"
    );

    front.shutdown();
    front.join();
    let _ = done_tx.send(());
    replica.join().expect("scripted replica");
}

/// Read one request head off `conn`.
fn read_head(conn: &mut TcpStream) {
    let mut head = Vec::new();
    let mut byte = [0u8; 1];
    while !head.ends_with(b"\r\n\r\n") {
        match conn.read(&mut byte) {
            Ok(1) => head.push(byte[0]),
            other => panic!("request head cut short: {other:?}"),
        }
    }
}

/// A connect that hangs stalls nothing else. One replica of shard 0 is a
/// listener whose accept queue is full, so a connect to it never ends its
/// handshake. Whenever the rotation leads with it, the hedge goes out on
/// time and shard 1's leg runs on: every read is a full 200 well inside
/// one shard timeout.
#[test]
fn a_hung_connect_stalls_neither_the_hedge_nor_the_other_shard() {
    let _guard = lock_globals();
    let db = generate(&GeneratorConfig::small(60, 83)).db;
    let hung = TcpListener::bind("127.0.0.1:0").expect("bind");
    let hung_addr = hung.local_addr().expect("addr");
    // Fill its accept queue: past the backlog, the kernel drops the SYN
    // and the connect waits for a retransmit that will not be answered.
    let mut queued = Vec::new();
    while let Ok(conn) = TcpStream::connect_timeout(&hung_addr, Duration::from_millis(100)) {
        queued.push(conn);
        assert!(queued.len() < 4096, "the accept queue never filled");
    }
    let shard_timeout = Duration::from_secs(1);
    let (groups, front) = federation(shard_counts, &db, 2, 2, |c| {
        c.backends[0].replicas[1] = hung_addr.to_string();
        c.hedge = HedgePolicy::Fixed(Duration::from_millis(20));
        c.shard_timeout = shard_timeout;
    });

    for i in 0..8 {
        let start = Instant::now();
        assert_full_answer(&front, &db, &format!("read {i}"));
        let took = start.elapsed();
        assert!(
            took < shard_timeout / 2,
            "read {i} waited on the hung connect: {took:?}"
        );
    }
    assert!(
        replica_counter("federate.replica.hedged", 0, 0) >= 3,
        "the rotation led with the hung replica, and the hedge answered"
    );

    shutdown_all(groups, front);
    drop(queued);
}

/// A warm front hands no attempt to another thread: after a warm-up, a
/// hundred federated reads over 2 shards x 2 replicas start no thread,
/// and hand the background thread no attempt unless a hedge fired (a
/// hedge's loser may still be reading when its request answers).
#[test]
fn warm_front_spawns_no_attempt_workers() {
    let _guard = lock_globals();
    let db = generate(&GeneratorConfig::small(60, 82)).db;
    let (groups, front) = federation(shard_counts, &db, 2, 2, |_| {});

    // One forced hedge first, so the background thread starts now and not
    // during the steady reads: shard 0's first primary (replica 0, where
    // the rotation starts) is held past the cold window's hedge at half
    // the shard timeout, and is still held when its request answers.
    flowcube_testkit::arm_times(
        "federate.replica.s0.r0",
        1,
        FailAction::Delay(Duration::from_millis(800)),
    );
    assert_full_answer(&front, &db, "hedged");
    assert_eq!(
        counter("federate.attempts.handed_off"),
        1,
        "the held loser went to the background thread"
    );
    // Warm up with both front workers busy at once.
    std::thread::scope(|scope| {
        for client in 0..2 {
            let (front, db) = (&front, &db);
            scope.spawn(move || {
                for i in 0..30 {
                    assert_full_answer(front, db, &format!("warm-up {client}.{i}"));
                }
            });
        }
    });
    let threads = || {
        std::fs::read_dir("/proc/self/task")
            .expect("/proc/self/task")
            .count()
    };
    // A joined warm-up client can linger in /proc for a moment: count
    // once two looks agree.
    let settled = || loop {
        let count = threads();
        std::thread::sleep(Duration::from_millis(20));
        if threads() == count {
            break count;
        }
    };
    let (before, handed, hedged) = (
        settled(),
        counter("federate.attempts.handed_off"),
        family("federate.replica.hedged"),
    );
    for i in 0..100 {
        assert_full_answer(&front, &db, &format!("steady {i}"));
    }
    assert_eq!(threads(), before, "steady-state reads started a thread");
    let handed = counter("federate.attempts.handed_off") - handed;
    let hedged = family("federate.replica.hedged") - hedged;
    assert!(
        handed <= hedged,
        "{handed} attempts handed off with {hedged} hedges: only a hedge's loser may be"
    );

    flowcube_testkit::reset();
    shutdown_all(groups, front);
}
