//! Scrape conformance, CLI-level: build a tiny snapshot, boot `serve`
//! with the observability flags, drive traffic through **every
//! registered endpoint**, then scrape `/metrics?format=prometheus` and
//! verify the page passes the exposition conformance checker and
//! carries a per-endpoint latency histogram for each registered
//! endpoint. This is the check CI runs against a release build — a new
//! endpoint that forgets its metrics fails here.

mod common;

use common::args;
use flowcube_cli::commands;
use flowcube_fixtures::stop;
use flowcube_obs::export::check_prometheus_text;
use flowcube_serve::registered_endpoints;
use flowcube_testkit::http::get;
use flowcube_testkit::temp_path;

/// A request that exercises the endpoint behind each registered tag.
fn target_for(tag: &str) -> String {
    match tag {
        "cell" => "/cell?cell=*,*,*&level=loc0/dur0".into(),
        "rollup" => "/rollup?cell=*,*,*&dim=0&level=loc0/dur0".into(),
        "drilldown" => "/drilldown?cell=*,*,*&dim=0&level=loc0/dur0".into(),
        "slice" => "/slice?at=1,0,0&level=loc0/dur0&dim=0&value=apex".into(),
        "dice" => "/dice?at=0,0,0&level=loc0/dur0".into(),
        "paths_topk" => "/paths/topk?cell=*,*,*&level=loc0/dur0&k=2".into(),
        "paths_probability" => "/paths/probability?cell=*,*,*&level=loc0/dur0&path=x".into(),
        "exceptions" => "/exceptions?cell=*,*,*&level=loc0/dur0".into(),
        "stats" => "/stats".into(),
        "metrics" => "/metrics".into(),
        "healthz" => "/healthz".into(),
        "debug_flight" => "/debug/flight".into(),
        other => panic!("registered endpoint {other:?} has no scrape target — add one"),
    }
}

#[test]
fn every_registered_endpoint_exposes_a_latency_histogram() {
    let [db, snap, access] =
        ["db.json", "cube.snap", "access.jsonl"].map(|n| temp_path(n).display().to_string());

    commands::generate(&args(&format!(
        "generate --paths 300 --dims 3 --seqs 6 --seed 5 --out {db}"
    )))
    .expect("generate");
    commands::build(&args(&format!(
        "build --db {db} --min-support 15 --out {snap}"
    )))
    .expect("build");

    let handle = commands::serve_with_handle(&args(&format!(
        "serve --snapshot {snap} --addr 127.0.0.1:0 --workers 2 \
         --access-log {access} --slow-ms 30000"
    )))
    .expect("serve");
    let addr = handle.addr();

    // Touch every registered endpoint. Some answer 4xx for these
    // synthetic parameters — that still must produce a latency series.
    for tag in registered_endpoints() {
        let (status, headers, body) = get(addr, &target_for(tag), &[]);
        assert!(
            status != 0 && status != 500,
            "{tag}: status {status}, body {body}"
        );
        assert!(
            headers.iter().any(|(k, _)| k == "x-request-id"),
            "{tag}: response must echo X-Request-Id"
        );
    }

    let (status, headers, text) = get(addr, "/metrics?format=prometheus", &[]);
    assert_eq!(status, 200);
    assert!(
        headers
            .iter()
            .any(|(k, v)| k == "content-type" && v.contains("text/plain")),
        "got {headers:?}"
    );
    let samples = check_prometheus_text(&text)
        .unwrap_or_else(|e| panic!("exposition conformance failed: {e}\n{text}"));

    for tag in registered_endpoints() {
        assert!(
            samples.iter().any(|s| {
                s.name == "serve_request_latency_us_bucket"
                    && s.labels.iter().any(|(k, v)| k == "endpoint" && v == tag)
            }),
            "registered endpoint {tag:?} has no latency histogram in the scrape:\n{text}"
        );
    }

    stop(handle);

    // The CLI wired --access-log through: one JSON line per request.
    let log = std::fs::read_to_string(&access).expect("access log written");
    let lines: Vec<&str> = log.lines().collect();
    assert!(
        lines.len() >= registered_endpoints().len(),
        "expected a log line per request, got {}",
        lines.len()
    );
    assert!(lines[0].contains("\"latency_us\""), "{}", lines[0]);

    let _ = std::fs::remove_file(&db);
    let _ = std::fs::remove_file(&snap);
    let _ = std::fs::remove_file(&access);
}
