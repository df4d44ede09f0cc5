//! Incremental maintenance cost: applying a micro-batch `CubeDelta` to a
//! live cube versus rebuilding the whole cube from scratch, on the
//! fig6-style dataset — the number behind the PR's claim that streaming
//! ingestion turns the cube from a batch artifact into a live view.
//!
//! Also measures serve-side availability: `/cell` latency from a
//! concurrent client while `POST /admin/ingest` requests land, compared
//! against an idle server.
//!
//! Writes `BENCH_incremental.json`.

use criterion::{criterion_group, criterion_main, Criterion};
use flowcube_bench::experiments::{base_config, paper_path_spec};
use flowcube_bench::serving::{measure, LatencySeries};
use flowcube_core::{CubeDelta, FlowCube, FlowCubeParams, ItemPlan};
use flowcube_datagen::{generate, DimShape};
use flowcube_pathdb::PathDatabase;
use flowcube_serve::{serve_cube, ServedCube, ServerConfig};
use serde::Serialize;
use std::io::{Read, Write};
use std::time::{Duration, Instant};

/// Base paths (the live cube) and micro-batch size (1% of the base, the
/// fig6 δ convention).
const BASE_PATHS: usize = 5_000;
const BATCH_PATHS: usize = 20;

#[derive(Serialize)]
struct TimingSeries {
    label: String,
    iterations: usize,
    mean_us: f64,
    min_us: f64,
}

#[derive(Serialize)]
struct IncrementalResult {
    base_paths: usize,
    batch_paths: usize,
    base_cells: usize,
    delta_cells: usize,
    /// Rebuild the cube from base + batch (what a non-incremental system
    /// pays per micro-batch).
    full_rebuild: TimingSeries,
    /// Compute the micro-batch's delta (pays only for the batch).
    delta_compute: TimingSeries,
    /// Merge the delta into the live cube (Lemma 4.2 count addition).
    delta_apply: TimingSeries,
    /// rebuild mean / (compute + apply) mean.
    speedup: f64,
    /// `/cell` latency with no ingest traffic.
    query_idle: LatencySeries,
    /// `/cell` latency while `POST /admin/ingest` requests land.
    query_during_ingest: LatencySeries,
    ingests_during_measurement: usize,
}

fn time_series(label: &str, iterations: usize, mut f: impl FnMut()) -> TimingSeries {
    let mut samples = Vec::with_capacity(iterations);
    for _ in 0..iterations {
        let start = Instant::now();
        f();
        samples.push(start.elapsed().as_secs_f64() * 1e6);
    }
    let mean = samples.iter().sum::<f64>() / samples.len() as f64;
    let min = samples.iter().cloned().fold(f64::INFINITY, f64::min);
    TimingSeries {
        label: label.to_string(),
        iterations,
        mean_us: mean,
        min_us: min,
    }
}

fn post(addr: std::net::SocketAddr, target: &str, body: &str) -> u16 {
    let mut s = std::net::TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.write_all(
        format!(
            "POST {target} HTTP/1.1\r\nHost: b\r\nContent-Length: {}\r\n\
             Connection: close\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    )
    .expect("write");
    let mut out = String::new();
    let _ = s.read_to_string(&mut out);
    out.split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

fn bench(c: &mut Criterion) {
    // Fig6-style workload at fig8's low dimensionality (d=2): with the
    // full d=5 item lattice a δ=1 micro-batch delta materializes every
    // item level and its JSON blows past the ingest body cap — real
    // streaming deployments restrain the plan, so the bench does too.
    let mut config = base_config(BASE_PATHS + BATCH_PATHS);
    config.dims = vec![DimShape::new(vec![4, 4, 6], 0.8); 2];
    let db = generate(&config).db;
    let records = db.records();
    let base =
        PathDatabase::from_records(db.schema().clone(), records[..BASE_PATHS].to_vec()).unwrap();
    let batch =
        PathDatabase::from_records(db.schema().clone(), records[BASE_PATHS..].to_vec()).unwrap();
    let spec = paper_path_spec(db.schema());
    // Exceptions off: the serve-side ingest path is algebraic-only, and
    // the holistic re-mine is priced separately by its own counters.
    let params = FlowCubeParams::new(20).with_exceptions(false);

    let live = FlowCube::build(&base, spec.clone(), params.clone(), ItemPlan::All);
    let delta = CubeDelta::compute(&batch, &spec, &params, &ItemPlan::All);
    let (base_cells, delta_cells) = (live.total_cells(), delta.total_cells());

    let mut group = c.benchmark_group("incremental_apply");
    group.sample_size(10);
    group.bench_function("full_rebuild", |b| {
        b.iter(|| FlowCube::build(&db, spec.clone(), params.clone(), ItemPlan::All))
    });
    group.bench_function("delta_compute", |b| {
        b.iter(|| CubeDelta::compute(&batch, &spec, &params, &ItemPlan::All))
    });
    group.bench_function("delta_apply", |b| {
        // Apply into a persistent cube, the way a live server does —
        // re-applying the same delta touches the same cells, so every
        // iteration is the same merge + iceberg re-enforcement work.
        let mut cube = live.clone();
        b.iter(|| cube.apply_delta(&delta).expect("same shape"))
    });
    group.finish();

    // The artifact's own timings (criterion keeps its numbers in
    // target/, the JSON wants a self-contained summary).
    let full_rebuild = time_series("full_rebuild", 10, || {
        FlowCube::build(&db, spec.clone(), params.clone(), ItemPlan::All);
    });
    let delta_compute = time_series("delta_compute", 10, || {
        CubeDelta::compute(&batch, &spec, &params, &ItemPlan::All);
    });
    let delta_apply = {
        let mut cube = live.clone();
        time_series("delta_apply", 10, || {
            cube.apply_delta(&delta).expect("same shape");
        })
    };
    let speedup = full_rebuild.mean_us / (delta_compute.mean_us + delta_apply.mean_us);

    // Availability: /cell latency idle vs under a stream of ingests.
    let server = serve_cube(
        ServedCube::from_cube(&live).expect("encode image"),
        ServerConfig::default(),
    )
    .expect("server starts");
    let addr = server.addr();
    let apex = "*,*"; // two dimensions (see the config above)
    let target = format!("/cell?cell={apex}&level=loc0/dur0");
    let query_idle = measure("cell/idle", addr, &target, 100);

    let body = serde_json::to_string(&delta).expect("serialize delta");
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let ingester = {
        let (stop, body) = (stop.clone(), body.clone());
        std::thread::spawn(move || {
            let mut n = 0usize;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                assert_eq!(post(addr, "/admin/ingest", &body), 200);
                n += 1;
            }
            n
        })
    };
    let query_during_ingest = measure("cell/during_ingest", addr, &target, 100);
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let ingests = ingester.join().expect("ingester thread");
    server.shutdown();
    server.join();

    let result = IncrementalResult {
        base_paths: BASE_PATHS,
        batch_paths: BATCH_PATHS,
        base_cells,
        delta_cells,
        full_rebuild,
        delta_compute,
        delta_apply,
        speedup,
        query_idle,
        query_during_ingest,
        ingests_during_measurement: ingests,
    };
    std::fs::write(
        "BENCH_incremental.json",
        serde_json::to_string_pretty(&result).expect("serialize"),
    )
    .expect("write BENCH_incremental.json");
    println!("\nwrote BENCH_incremental.json");
    println!(
        "full rebuild {:.0}us vs delta compute+apply {:.0}us  ({:.1}x)",
        result.full_rebuild.mean_us,
        result.delta_compute.mean_us + result.delta_apply.mean_us,
        result.speedup
    );
    println!(
        "query p99: idle {:.0}us, during ingest {:.0}us ({} ingests landed)",
        result.query_idle.p99_us, result.query_during_ingest.p99_us, ingests
    );
}

criterion_group!(benches, bench);
criterion_main!(benches);
