//! Serving latency: p50/p99 per endpoint, cold vs cached, measured
//! end-to-end through the real HTTP server on a loopback socket.
//!
//! "Cold" requests hit a server whose response cache is disabled
//! (capacity 0), so every answer pays the full handler cost; "cached"
//! requests hit an identical server with the cache on, where all but
//! the first answer is a cache hit. Both serve the same in-memory cube.
//!
//! Writes `BENCH_serve_latency.json` — the same results pipeline as the
//! mining experiments, with the frozen `flowcube-obs` registry attached
//! so request counters and cache hit rates ride along.

use criterion::{criterion_group, criterion_main, Criterion};
use flowcube_bench::experiments::base_config;
use flowcube_bench::serving::{measure, EndpointLatency, ServeLatencyResult};
use flowcube_core::{FlowCube, FlowCubeParams, ItemPlan};
use flowcube_datagen::generate;
use flowcube_hier::{DurationLevel, LocationCut, PathLatticeSpec, PathLevel};
use flowcube_serve::{serve_cube, ServedCube, ServerConfig};

const REQUESTS: usize = 200;

fn build_cube(n: usize) -> FlowCube {
    let db = generate(&base_config(n)).db;
    let loc = db.schema().locations();
    let fine = LocationCut::uniform_level(loc, loc.max_level());
    let spec = PathLatticeSpec::new(vec![
        PathLevel::new("loc0/dur0", fine.clone(), DurationLevel::Raw),
        PathLevel::new("loc0/dur*", fine, DurationLevel::Any),
    ]);
    FlowCube::build(&db, spec, FlowCubeParams::new(20), ItemPlan::All)
}

fn bench(c: &mut Criterion) {
    let n = 2_000usize;
    let cube = build_cube(n);
    let (cuboids, cells) = (cube.num_cuboids(), cube.total_cells());

    flowcube_obs::reset();
    flowcube_obs::enable();

    let image = || ServedCube::from_cube(&cube).expect("encode image");
    let cold_server = serve_cube(
        image(),
        ServerConfig {
            cache_capacity: 0,
            ..Default::default()
        },
    )
    .expect("cold server starts");
    let cached_server = serve_cube(
        image(),
        ServerConfig {
            cache_capacity: 512,
            ..Default::default()
        },
    )
    .expect("cached server starts");

    let apex = "*,*,*,*,*"; // base_config builds 5 dimensions
    let targets = [
        ("cell", format!("/cell?cell={apex}&level=loc0/dur0")),
        (
            "paths_topk",
            format!("/paths/topk?cell={apex}&level=loc0/dur0&k=5"),
        ),
        (
            "exceptions",
            format!("/exceptions?cell={apex}&level=loc0/dur0"),
        ),
    ];

    let mut group = c.benchmark_group("serve_latency");
    group.sample_size(10);
    let mut endpoints = Vec::new();
    for (name, target) in &targets {
        let cold = measure(
            &format!("{name}/cold"),
            cold_server.addr(),
            target,
            REQUESTS,
        );
        let cached = measure(
            &format!("{name}/cached"),
            cached_server.addr(),
            target,
            REQUESTS,
        );
        let addr = cached_server.addr();
        group.bench_function(format!("{name}_cached_roundtrip"), |b| {
            b.iter(|| {
                flowcube_bench::serving::timed_get(addr, target).expect("request");
            })
        });
        endpoints.push(EndpointLatency {
            endpoint: name.to_string(),
            cold,
            cached,
        });
    }
    group.finish();

    // The registry is process-global, so the hit-rate gauge reflects the
    // cached server's traffic (the cold server's cache never stores).
    let snapshot = flowcube_obs::snapshot();
    let hit_rate = snapshot
        .gauges
        .get("serve.cache.hit_rate")
        .copied()
        .unwrap_or(0.0);

    let result = ServeLatencyResult {
        num_paths: n,
        cuboids,
        cells,
        endpoints,
        cache_hit_rate: hit_rate,
        metrics: Some(snapshot),
    };
    std::fs::write(
        "BENCH_serve_latency.json",
        serde_json::to_string_pretty(&result).expect("serialize"),
    )
    .expect("write BENCH_serve_latency.json");
    println!("\nwrote BENCH_serve_latency.json");
    for e in &result.endpoints {
        println!(
            "{:<12} cold p50={:>8.1}us p99={:>8.1}us   cached p50={:>8.1}us p99={:>8.1}us",
            e.endpoint, e.cold.p50_us, e.cold.p99_us, e.cached.p50_us, e.cached.p99_us
        );
    }
    println!("cache hit rate: {:.3}", result.cache_hit_rate);

    cold_server.shutdown();
    cold_server.join();
    cached_server.shutdown();
    cached_server.join();
    flowcube_obs::disable();
    flowcube_obs::reset();
}

criterion_group!(benches, bench);
criterion_main!(benches);
