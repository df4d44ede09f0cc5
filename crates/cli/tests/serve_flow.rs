//! End-to-end serving flow: generate → build → serve on an ephemeral
//! port → one query per endpoint → clean shutdown. Also checks the
//! acceptance property that a served `/rollup` equals the in-process
//! `FlowCube::roll_up` on the same snapshot.

use flowcube_cli::{commands, Args};
use flowcube_fixtures::stop;
use flowcube_testkit::http::get_ok;
use flowcube_testkit::temp_path;
use std::net::SocketAddr;

fn args(line: &str) -> Args {
    Args::parse(line.split_whitespace().map(String::from)).expect("parse")
}

/// Assert a 200 whose JSON body contains every expected fragment.
fn expect_json(addr: SocketAddr, target: &str, fragments: &[&str]) -> String {
    let body = get_ok(addr, target);
    assert!(body.starts_with('{'), "{target}: not a JSON object: {body}");
    for frag in fragments {
        assert!(body.contains(frag), "{target}: missing {frag:?} in {body}");
    }
    body
}

#[test]
fn snapshot_serve_query_shutdown() {
    let [db, snap] = ["db.json", "cube.snap"].map(|n| temp_path(n).display().to_string());

    commands::generate(&args(&format!(
        "generate --paths 400 --dims 3 --seqs 8 --seed 9 --out {db}"
    )))
    .expect("generate");
    commands::build(&args(&format!(
        "build --db {db} --min-support 20 --out {snap}"
    )))
    .expect("build");

    let handle = commands::serve_with_handle(&args(&format!(
        "serve --snapshot {snap} --addr 127.0.0.1:0 --workers 2 --cache 64"
    )))
    .expect("serve");
    let addr = handle.addr();

    // One query per endpoint, asserting JSON shape.
    expect_json(addr, "/healthz", &["\"ok\":true"]);
    expect_json(
        addr,
        "/cell?cell=*,*,*&level=loc0/dur0",
        &["\"cell\"", "\"support\"", "\"nodes\"", "\"exact\":true"],
    );
    // Discover a concrete dim-0 value by drilling down from the apex
    // (generated names are synthetic, e.g. "d0_0_0_p0").
    let drill = expect_json(
        addr,
        "/drilldown?cell=*,*,*&dim=0&level=loc0/dur0",
        &["\"count\"", "\"cells\""],
    );
    let value = drill
        .split("\"cell\":\"(")
        .nth(1)
        .and_then(|s| s.split(',').next())
        .expect("a drilldown child cell")
        .to_string();
    let rollup_body = expect_json(
        addr,
        &format!("/rollup?cell={value},*,*&dim=0&level=loc0/dur0"),
        &["\"parent\"", "\"support\""],
    );
    expect_json(
        addr,
        &format!("/slice?at=1,0,0&level=loc0/dur0&dim=0&value={value}"),
        &["\"count\"", "\"cells\""],
    );
    expect_json(
        addr,
        &format!("/dice?at=1,0,0&level=loc0/dur0&where=0:{value}"),
        &["\"count\"", "\"cells\""],
    );
    expect_json(
        addr,
        "/paths/topk?cell=*,*,*&level=loc0/dur0&k=3",
        &["\"paths\"", "\"probability\""],
    );
    expect_json(
        addr,
        "/exceptions?cell=*,*,*&level=loc0/dur0",
        &["\"count\""],
    );
    expect_json(
        addr,
        "/stats",
        &["\"cuboids\"", "\"snapshot_backed\":true", "\"summary\""],
    );
    let metrics = expect_json(
        addr,
        "/metrics",
        &["serve.requests.total", "serve.latency_us", "serve.cache."],
    );
    assert!(
        metrics.contains("serve.responses.2xx"),
        "metrics must count statuses: {metrics}"
    );

    // /paths/probability needs a real location name: pull one from topk.
    let topk = expect_json(addr, "/paths/topk?cell=*,*,*&level=loc0/dur0&k=1", &[]);
    // Tokens after splitting on '"': … "locations", ":[", "<name>", …
    let loc = topk
        .split('"')
        .skip_while(|s| *s != "locations")
        .nth(2)
        .expect("a location name in topk output")
        .to_string();
    expect_json(
        addr,
        &format!("/paths/probability?cell=*,*,*&level=loc0/dur0&path={loc}"),
        &["\"probability\""],
    );

    // Acceptance: served /rollup equals the in-process roll_up.
    {
        let snapshot = flowcube_serve::Snapshot::open(&snap).expect("open snapshot");
        let served = flowcube_serve::ServedCube::from_snapshot(snapshot);
        let cube = served.folded_cube().expect("load cube");
        let key = cube.require_key(&format!("{value},*,*")).expect("key");
        let pl = cube.require_path_level("loc0/dur0").expect("level");
        let (parent, entry) = cube.roll_up(&key, 0, pl).expect("in-process rollup");
        let expected_parent = flowcube_core::display_key(&parent, cube.schema());
        assert!(
            rollup_body.contains(&format!("\"parent\":\"{expected_parent}\"")),
            "served parent differs: {rollup_body}"
        );
        assert!(
            rollup_body.contains(&format!("\"support\":{}", entry.support)),
            "served support differs: {rollup_body}"
        );
    }

    // Clean shutdown: workers drain and join.
    stop(handle);

    let _ = std::fs::remove_file(&db);
    let _ = std::fs::remove_file(&snap);
}

/// A format-1 snapshot is upgrade-only: `serve` refuses it with the
/// typed version error, `snapshot --snapshot old --out new` rewrites it
/// in the current format, and the result serves.
#[test]
fn v1_snapshot_upgrades_then_serves() {
    let old = flowcube_fixtures::golden_v1_path();
    let old = old.display();
    let new = temp_path("upgraded.snap").display().to_string();

    let err =
        commands::serve_with_handle(&args(&format!("serve --snapshot {old} --addr 127.0.0.1:0")))
            .err()
            .expect("serving a v1 file must fail");
    assert!(err.contains("version 1 not supported"), "got {err:?}");

    commands::snapshot(&args(&format!("snapshot --snapshot {old} --out {new}"))).expect("upgrade");
    let handle = commands::serve_with_handle(&args(&format!(
        "serve --snapshot {new} --addr 127.0.0.1:0 --workers 2 --cache 0"
    )))
    .expect("serve the upgrade");
    expect_json(handle.addr(), "/healthz", &["\"ok\":true"]);
    expect_json(
        handle.addr(),
        "/cell?cell=*,*&level=fine",
        &["\"support\":30", "\"exact\":true"],
    );
    stop(handle);

    let _ = std::fs::remove_file(&new);
}
