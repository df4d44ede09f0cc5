//! End-to-end CLI flow: generate → build → cells/query/mine against
//! temp files, driving the command functions directly.

mod common;

use common::args;
use flowcube_cli::commands;
use flowcube_fixtures::stop;
use flowcube_serve::{crc::crc32, snapshot::SectionDesc};
use flowcube_testkit::temp_path;
use serde_json::Value;

#[test]
fn generate_build_query_cycle() {
    let [db, cube] = ["db.json", "cube.snap"].map(|n| temp_path(n).display().to_string());
    commands::generate(&args(&format!(
        "generate --paths 500 --dims 2 --seqs 6 --seed 3 --out {db}"
    )))
    .expect("generate");
    assert!(std::fs::metadata(&db).is_ok());

    commands::build(&args(&format!(
        "build --db {db} --min-support 25 --no-exceptions --out {cube}"
    )))
    .expect("build");
    assert!(std::fs::metadata(&cube).is_ok());

    commands::cells(&args(&format!("cells --snapshot {cube} --limit 3"))).expect("cells");
    commands::query(&args(&format!(
        "query --snapshot {cube} --cell *,* --level loc0/dur0"
    )))
    .expect("query");
    commands::mine(&args(&format!(
        "mine --db {db} --algorithm shared --min-support 25"
    )))
    .expect("mine shared");
    commands::mine(&args(&format!(
        "mine --db {db} --algorithm cubing --min-support 25"
    )))
    .expect("mine cubing");

    let _ = std::fs::remove_file(&db);
    let _ = std::fs::remove_file(&cube);
}

#[test]
fn build_with_redundancy_and_exceptions() {
    let [db, cube] = ["db2.json", "cube2.snap"].map(|n| temp_path(n).display().to_string());
    commands::generate(&args(&format!(
        "generate --paths 400 --dims 2 --seed 5 --flow-correlation 0.5 --out {db}"
    )))
    .expect("generate");
    commands::build(&args(&format!(
        "build --db {db} --min-support 40 --tau 0.5 --eps 0.2 --threads=2 --out {cube}"
    )))
    .expect("build with exceptions");
    commands::cells(&args(&format!(
        "cells --snapshot {cube} --level loc0/dur0 --limit 2"
    )))
    .expect("cells filtered");
    let _ = std::fs::remove_file(&db);
    let _ = std::fs::remove_file(&cube);
}

#[test]
fn errors_are_reported() {
    assert!(commands::build(&args("build --db /nonexistent.json --out /tmp/x")).is_err());
    assert!(commands::query(&args("query --snapshot /nonexistent.snap --cell a")).is_err());
    assert!(commands::mine(&args("mine --db /nonexistent.json")).is_err());
    assert!(commands::generate(&args("generate")).is_err()); // missing --out
                                                             // unknown algorithm
    let db = temp_path("db3.json").display().to_string();
    commands::generate(&args(&format!("generate --paths 120 --dims 2 --out {db}")))
        .expect("generate");
    assert!(commands::mine(&args(&format!("mine --db {db} --algorithm quantum"))).is_err());
    let _ = std::fs::remove_file(&db);
}

#[test]
fn predict_flow() {
    let [db, cube] = ["db4.json", "cube4.snap"].map(|n| temp_path(n).display().to_string());
    commands::generate(&args(&format!(
        "generate --paths 600 --dims 2 --seqs 5 --seed 11 --exception-bias 0.8 --out {db}"
    )))
    .expect("generate");
    commands::build(&args(&format!(
        "build --db {db} --min-support 30 --eps 0.1 --out {cube}"
    )))
    .expect("build");
    // Find a first-hop location by reading the db back.
    let text = std::fs::read_to_string(&db).unwrap();
    let parsed: flowcube_pathdb::PathDatabase = serde_json::from_str(&text).unwrap();
    let first = parsed.records()[0].stages[0].loc;
    let loc_name = parsed.schema().locations().name_of(first).to_string();
    commands::predict(&args(&format!(
        "predict --snapshot {cube} --cell *,* --observed {loc_name}:1"
    )))
    .expect("predict");
    // bad observed location
    assert!(commands::predict(&args(&format!(
        "predict --snapshot {cube} --cell *,* --observed mars:1"
    )))
    .is_err());
    let _ = std::fs::remove_file(&db);
    let _ = std::fs::remove_file(&cube);
}

#[test]
fn tables_runs() {
    commands::tables(&args("tables")).expect("tables");
}

#[test]
fn build_with_trace_and_metrics_out() {
    let [db, cube, trace, metrics] = ["db5.json", "cube5.snap", "trace5.json", "metrics5.json"]
        .map(|n| temp_path(n).display().to_string());
    commands::generate(&args(&format!(
        "generate --paths 400 --dims 2 --seed 9 --out {db}"
    )))
    .expect("generate");
    commands::build(&args(&format!(
        "build --db {db} --min-support 30 --tau 0.05 --threads 2 --trace-out {trace} --metrics-out {metrics} --out {cube}"
    )))
    .expect("build with tracing");

    // Other tests in this binary may run concurrently against the shared
    // global recorder, so assert shape rather than exact contents.
    let trace_text = std::fs::read_to_string(&trace).expect("trace file written");
    let trace_json = serde_json::parse_value_str(&trace_text).expect("trace is valid JSON");
    match trace_json {
        serde_json::Value::Array(events) => {
            assert!(!events.is_empty(), "trace should contain events");
            assert!(events
                .iter()
                .all(|e| matches!(e, serde_json::Value::Object(_))));
        }
        other => panic!("trace must be a JSON array, got {other:?}"),
    }
    assert!(trace_text.contains("\"build\""), "root build span missing");
    // Every phase `BuildStats` times is a span of its own, the exceptions
    // pass (folded into `materialize_time`) included, and so are mining's
    // row pass and pair pre-count.
    for phase in [
        "build.encode",
        "build.mine",
        "mining.bitmaps",
        "mining.precount",
        "build.prepare",
        "build.dictionary",
        "build.materialize",
        "build.redundancy",
        "build.graphs",
        "build.exceptions",
    ] {
        assert!(trace_text.contains(&format!("\"{phase}\"")), "{phase}");
    }

    let metrics_text = std::fs::read_to_string(&metrics).expect("metrics file written");
    serde_json::parse_value_str(&metrics_text).expect("metrics is valid JSON");
    assert!(metrics_text.contains("candidates.len1"));
    assert!(metrics_text.contains("mining.shared.pruned.family"));
    for series in [
        "mining.bitmap_bytes",
        "build.cell_materialize_us",
        "build.redundancy.comparisons",
        "build.graphs_built",
    ] {
        assert!(metrics_text.contains(series), "{series}");
    }

    // The build's trace attributes the snapshot write to its stages.
    for stage in [
        "serve.snapshot.write",
        "serve.snapshot.intern",
        "serve.snapshot.plan",
        "serve.snapshot.encode",
        "serve.snapshot.file_write",
    ] {
        assert!(trace_text.contains(&format!("\"{stage}\"")), "{stage}");
    }

    for f in [&db, &cube, &trace, &metrics] {
        let _ = std::fs::remove_file(f);
    }
}

/// Rewrite the snapshot at `path` with its `spec` section's first path
/// level listed twice, repairing every offset and checksum so that the
/// repeated level is the file's only fault.
fn repeat_a_path_level(path: &str) {
    let full = std::fs::read(path).unwrap();
    let data = 24 + u64::from_le_bytes(full[12..20].try_into().unwrap()) as usize;
    let mut index: Vec<SectionDesc> =
        serde_json::from_str(std::str::from_utf8(&full[24..data]).unwrap()).unwrap();
    let mut payloads: Vec<Vec<u8>> = (index.iter())
        .map(|d| full[data + d.offset as usize..][..d.len as usize].to_vec())
        .collect();
    let spec = index.iter().position(|d| d.kind == "spec").expect("spec");
    let mut value = serde_json::parse_value_str(std::str::from_utf8(&payloads[spec]).unwrap());
    let Ok(Value::Object(fields)) = &mut value else {
        panic!("the spec is an object")
    };
    let (_, Value::Array(levels)) = &mut fields[0] else {
        panic!("its one field is the level list")
    };
    levels.push(levels[0].clone());
    payloads[spec] = serde_json::to_string(&value.unwrap()).unwrap().into_bytes();
    let mut offset = 0;
    for (d, p) in index.iter_mut().zip(&payloads) {
        (d.offset, d.len, d.crc) = (offset, p.len() as u64, crc32(p));
        offset += d.len;
    }
    let index = serde_json::to_string(&index).unwrap().into_bytes();
    let mut out = full[..12].to_vec();
    out.extend((index.len() as u64).to_le_bytes());
    out.extend(crc32(&index).to_le_bytes());
    out.extend(index);
    payloads.iter().for_each(|p| out.extend(p));
    std::fs::write(path, out).unwrap();
}

/// A shard part whose spec lists one path level twice is bad input
/// data: `merge` exits 65 where it used to recurse in mining until the
/// stack overflowed.
#[test]
fn merge_rejects_a_part_that_repeats_a_path_level() {
    let [db, part, out] =
        ["db6.json", "part6.snap", "merged6.snap"].map(|n| temp_path(n).display().to_string());
    commands::generate(&args(&format!(
        "generate --paths 200 --dims 2 --seed 4 --out {db}"
    )))
    .expect("generate");
    commands::build(&args(&format!(
        "build --db {db} --min-support 10 --shards 1 --shard-id 0 --out {part}"
    )))
    .expect("build a part");
    repeat_a_path_level(&part);

    let err = commands::merge(&args(&format!("merge {part} --no-exceptions --out {out}")))
        .expect_err("a repeated level is refused");
    assert_eq!(err.code, 65, "{}", err.message);
    assert!(err.message.contains("same level"), "{}", err.message);
    for f in [&db, &part, &out] {
        let _ = std::fs::remove_file(f);
    }
}

/// Shard parts are snapshots end to end: `serve` answers a part file's
/// apex with the part's path count, and `merge` of the parts writes the
/// bytes `build` writes under the same flags (τ set, exceptions on).
#[test]
fn shard_parts_serve_and_merge_to_the_build() {
    let [db, part0, part1, merged, built] = [
        "db7.json",
        "part7-0.snap",
        "part7-1.snap",
        "merged7.snap",
        "built7.snap",
    ]
    .map(|n| temp_path(n).display().to_string());
    let parts = [part0, part1];
    commands::generate(&args(&format!(
        "generate --paths 300 --dims 2 --seqs 6 --seed 8 --exception-bias 0.5 --out {db}"
    )))
    .expect("generate");
    let flags = format!("--db {db} --min-support 15 --tau 0.05 --eps 0.2");
    for (k, part) in parts.iter().enumerate() {
        commands::build(&args(&format!(
            "build {flags} --shards 2 --shard-id {k} --out {part}"
        )))
        .expect("build a part");
    }

    let text = std::fs::read_to_string(&db).unwrap();
    let parsed: flowcube_pathdb::PathDatabase = serde_json::from_str(&text).unwrap();
    let paths = (parsed.records().iter())
        .filter(|r| flowcube_federate::shard_of(r.id, 2) == 0)
        .count();
    assert!(
        paths > 0 && paths < parsed.len(),
        "shard 0 holds {paths} paths"
    );
    let handle = commands::serve_with_handle(&args(&format!(
        "serve --snapshot {} --addr 127.0.0.1:0 --workers 1",
        parts[0]
    )))
    .expect("serve a part");
    let (status, _, body) =
        flowcube_testkit::http::get(handle.addr(), "/cell?cell=*,*&level=loc0/dur0", &[]);
    stop(handle);
    assert_eq!(status, 200, "{body}");
    assert!(body.contains(&format!("\"support\":{paths},")), "{body}");

    commands::merge(&args(&format!(
        "merge {} {} {flags} --out {merged}",
        parts[0], parts[1]
    )))
    .expect("merge");
    commands::build(&args(&format!("build {flags} --out {built}"))).expect("build");
    assert!(
        std::fs::read(&merged).unwrap() == std::fs::read(&built).unwrap(),
        "merged parts differ from the single-node build"
    );
    for f in parts.iter().chain([&db, &merged, &built]) {
        let _ = std::fs::remove_file(f);
    }
}

/// Table 1's database as a `--db` / `--schema-from` file.
fn paper_db(name: &str) -> String {
    let path = temp_path(name).display().to_string();
    let db = flowcube_pathdb::samples::paper_table1();
    std::fs::write(&path, serde_json::to_string(&db).unwrap()).unwrap();
    path
}

/// `ingest --text`: one bad line fails a strict parse as bad data (exit
/// 65); a lenient one writes the good records.
#[test]
fn ingest_text_is_strict_or_lenient() {
    let [text, out] = ["paths8.txt", "clean8.json"].map(|n| temp_path(n).display().to_string());
    let schema = paper_db("db8.json");
    let lines = "tennis, nike : (factory,1)(shelf,2)\nnot a path\nshirt, adidas : (factory,3)\n";
    std::fs::write(&text, lines).unwrap();
    let ingest = format!("ingest --text {text} --schema-from {schema} --out {out}");
    let err = commands::ingest(&args(&ingest)).expect_err("strict refuses the bad line");
    assert_eq!(err.code, 65, "{}", err.message);
    commands::ingest(&args(&format!("{ingest} --on-error lenient"))).expect("lenient");
    let written = std::fs::read_to_string(&out).unwrap();
    let db: flowcube_pathdb::PathDatabase = serde_json::from_str(&written).unwrap();
    assert_eq!(db.len(), 2);
    for f in [&text, &out, &schema] {
        let _ = std::fs::remove_file(f);
    }
}

/// `ingest --follow --once` writes one delta line per commit to `--out`
/// and posts each to a live server, whose apex counts the log's paths. A
/// `--post` URL without `http://` is refused before the log is read, so
/// no delta reaches `--out`.
#[test]
fn ingest_follow_writes_and_posts_each_commit() {
    let [log, out, snap] = ["readings9.log", "deltas9.jsonl", "cube9.snap"]
        .map(|n| temp_path(n).display().to_string());
    let db = paper_db("db9.json");
    let flags = format!("--db {db} --min-support 1 --no-exceptions");
    commands::build(&args(&format!("build {flags} --out {snap}"))).expect("build");
    let readings = "item 101 tennis nike\nitem 102 shirt adidas\nitem 103 sandals nike\n\
                    read 101 factory 0\nread 101 truck 4\nread 102 factory 1\ncommit\n\
                    read 103 factory 2\nread 103 shelf 5\ncommit\nend\n";
    std::fs::write(&log, readings).unwrap();
    let follow = format!("ingest --follow {log} {flags} --once --out {out}");
    let post = |url: &str| commands::ingest(&args(&format!("{follow} --post {url}")));
    let err = post("localhost:7070/admin/ingest").expect_err("no scheme");
    assert!(err.message.contains("only http:// URLs"), "{}", err.message);
    assert!(std::fs::metadata(&out).is_err(), "--out was written");

    let handle = commands::serve_with_handle(&args(&format!(
        "serve --snapshot {snap} --addr 127.0.0.1:0 --workers 1"
    )))
    .expect("serve");
    let followed = post(&format!("http://{}/admin/ingest", handle.addr()));
    let apex = "/cell?cell=*,*&level=loc0/dur0";
    let (status, _, body) = flowcube_testkit::http::get(handle.addr(), apex, &[]);
    stop(handle);
    followed.expect("follow");
    assert_eq!(std::fs::read_to_string(&out).unwrap().lines().count(), 2);
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"support\":11,"), "{body}");
    for f in [&log, &out, &snap, &db, &format!("{snap}.deltas")] {
        let _ = std::fs::remove_file(f);
    }
}
