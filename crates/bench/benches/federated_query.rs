//! Federated serving cost: front-tier query latency through the
//! scatter-gather tier at 1, 2, and 4 shards versus a direct single-node
//! server over the same path database — the number behind DESIGN.md §13's
//! claim that federation buys horizontal build capacity for one extra
//! network hop.
//!
//! Also measures two failure modes:
//! - a whole shard dead with no replicas to fall back on: every answer is
//!   a `"partial": true` 200 that had to wait out the connect failure;
//! - one of two replicas dead on every shard: retries and breaker-gated
//!   routing keep every answer a FULL 200, and the p99 under that
//!   brownout must stay within 2x of the healthy replicated p99 (CI
//!   gates both from the JSON).
//!
//! Writes `BENCH_federated.json`.

use criterion::{criterion_group, criterion_main, Criterion};
use flowcube_bench::serving::{measure, series_from_us, timed_get_body, LatencySeries};
use flowcube_core::{FlowCube, FlowCubeParams, ItemPlan};
use flowcube_datagen::{generate, DimShape, GeneratorConfig};
use flowcube_federate::{
    serve_front, shard_db, BreakerConfig, FrontConfig, FrontHandle, ReplicaSet,
};
use flowcube_hier::{DurationLevel, LocationCut, PathLatticeSpec, PathLevel};
use flowcube_pathdb::PathDatabase;
use flowcube_serve::{serve_cube, ServedCube, ServerConfig, ServerHandle};
use serde::Serialize;
use std::time::Duration;

const NUM_PATHS: usize = 2_000;
const REQUESTS: usize = 200;
const SHARD_COUNTS: [u32; 3] = [1, 2, 4];
const REPLICAS_PER_SHARD: usize = 2;
/// The replicated series use more samples than the plain tiers: the CI
/// gate compares two p99s, and a 1-core runner's tail is noisy enough
/// that 200-sample p99s (the 2nd-worst request) would flap the ratio.
const REPLICA_REQUESTS: usize = 300;

#[derive(Serialize)]
struct TierResult {
    shards: u32,
    cell: LatencySeries,
    topk: LatencySeries,
}

/// One replicated-tier series: front-tier `/cell` latency plus how many
/// of the measured answers degraded to `"partial": true`.
#[derive(Serialize)]
struct ReplicaResult {
    shards: u32,
    replicas_per_shard: usize,
    cell: LatencySeries,
    partial_responses: usize,
}

#[derive(Serialize)]
struct FederatedResult {
    num_paths: usize,
    requests_per_series: usize,
    /// Direct single-node serve over the full database — the baseline.
    single: TierResult,
    /// Front-tier latency at each shard count, all shards healthy.
    tiers: Vec<TierResult>,
    /// Front-tier latency at 2 shards with one shard dead and no
    /// replicas: every answer is a partial 200 that paid the dead
    /// shard's connect failure.
    degraded_one_of_two_dead: TierResult,
    /// 2 shards x 2 replicas, everything healthy.
    replica_healthy: ReplicaResult,
    /// 2 shards x 2 replicas with one replica per shard killed mid-run:
    /// retries + breakers must keep `partial_responses` at zero.
    replica_degraded: ReplicaResult,
    /// replica_degraded p99 / replica_healthy p99 — the brownout
    /// amplification the hedged/retried path pays; CI gates this <= 2.
    replica_degraded_p99_ratio: f64,
    /// tiers[shards=1].cell.p50 / single.cell.p50 — the pure fan-out hop
    /// cost, no merge work.
    federation_hop_overhead_p50: f64,
}

fn workload() -> (PathDatabase, PathLatticeSpec) {
    let config = GeneratorConfig {
        num_paths: NUM_PATHS,
        dims: vec![DimShape::new(vec![3, 4], 0.8); 2],
        num_sequences: 8,
        seed: 61,
        ..Default::default()
    };
    let db = generate(&config).db;
    let loc = db.schema().locations();
    let spec = PathLatticeSpec::new(vec![PathLevel::new(
        "fine",
        LocationCut::uniform_level(loc, loc.max_level()),
        DurationLevel::Raw,
    )]);
    (db, spec)
}

fn start_backend(cube: FlowCube) -> ServerHandle {
    serve_cube(
        ServedCube::from_cube(&cube).expect("encode image"),
        ServerConfig {
            workers: 2,
            ..Default::default()
        },
    )
    .expect("backend starts")
}

fn boot_federation(
    db: &PathDatabase,
    spec: &PathLatticeSpec,
    shards: u32,
) -> (Vec<ServerHandle>, FrontHandle) {
    let params = FlowCubeParams::new(1);
    let backends: Vec<ServerHandle> = (0..shards)
        .map(|k| {
            let shard = shard_db(db, shards, k).expect("shard splits");
            start_backend(FlowCube::build(
                &shard,
                spec.clone(),
                params.clone(),
                ItemPlan::All,
            ))
        })
        .collect();
    let front = serve_front(FrontConfig {
        backends: backends
            .iter()
            .map(|b| ReplicaSet::single(b.addr().to_string()))
            .collect(),
        shards,
        workers: 4,
        ..Default::default()
    })
    .expect("front starts");
    (backends, front)
}

/// Boot `shards` shard cubes each served by `REPLICAS_PER_SHARD`
/// identical backends, federated behind one front. Returns the replica
/// servers grouped by shard so the caller can kill one per set.
fn boot_replicated(
    db: &PathDatabase,
    spec: &PathLatticeSpec,
    shards: u32,
) -> (Vec<Vec<ServerHandle>>, FrontHandle) {
    let params = FlowCubeParams::new(1);
    let groups: Vec<Vec<ServerHandle>> = (0..shards)
        .map(|k| {
            let shard = shard_db(db, shards, k).expect("shard splits");
            let cube = FlowCube::build(&shard, spec.clone(), params.clone(), ItemPlan::All);
            (0..REPLICAS_PER_SHARD)
                .map(|_| start_backend(cube.clone()))
                .collect()
        })
        .collect();
    let front = serve_front(FrontConfig {
        backends: groups
            .iter()
            .map(|g| ReplicaSet {
                replicas: g.iter().map(|b| b.addr().to_string()).collect(),
            })
            .collect(),
        shards,
        workers: 4,
        // Steady-state brownout policy for the gated comparison: the
        // first refused connect opens the dead replica's breaker and the
        // long cooldown keeps it open across the measured window, so the
        // series prices health-gated routing — not once-a-second probe
        // threads, which on a 1-core runner land straight in the p99.
        breaker: BreakerConfig {
            failure_threshold: 1,
            cooldown: Duration::from_secs(120),
            ..Default::default()
        },
        ..Default::default()
    })
    .expect("front starts");
    (groups, front)
}

fn measure_tier(label: &str, addr: std::net::SocketAddr, shards: u32) -> TierResult {
    TierResult {
        shards,
        cell: measure(
            &format!("cell/{label}"),
            addr,
            "/cell?cell=*,*&level=fine",
            REQUESTS,
        ),
        topk: measure(
            &format!("topk/{label}"),
            addr,
            "/paths/topk?cell=*,*&level=fine&k=5",
            REQUESTS,
        ),
    }
}

/// Like `measure`, but keeps the bodies so degraded runs can prove the
/// answers stayed full: any `"partial"` marker in a 200 is counted.
fn measure_replicated(label: &str, addr: std::net::SocketAddr, shards: u32) -> ReplicaResult {
    let mut us: Vec<f64> = Vec::with_capacity(REPLICA_REQUESTS);
    let mut partial = 0usize;
    for _ in 0..REPLICA_REQUESTS {
        let (status, body, d) =
            timed_get_body(addr, "/cell?cell=*,*&level=fine").expect("request transport");
        assert_eq!(status, 200, "{label}: replicated front answered {body:?}");
        if body.contains("\"partial\"") {
            partial += 1;
        }
        us.push(d.as_secs_f64() * 1e6);
    }
    ReplicaResult {
        shards,
        replicas_per_shard: REPLICAS_PER_SHARD,
        cell: series_from_us(&format!("cell/{label}"), us),
        partial_responses: partial,
    }
}

fn bench(c: &mut Criterion) {
    let (db, spec) = workload();
    let params = FlowCubeParams::new(1);

    // Baseline: one server over the whole database.
    let single_cube = FlowCube::build(&db, spec.clone(), params, ItemPlan::All);
    let single_server = start_backend(single_cube);
    let single = measure_tier("single", single_server.addr(), 0);

    // Criterion series: front-tier /cell at each shard count.
    let mut group = c.benchmark_group("federated_query");
    group.sample_size(20);
    let mut tiers = Vec::new();
    for shards in SHARD_COUNTS {
        let (backends, front) = boot_federation(&db, &spec, shards);
        let addr = front.addr();
        group.bench_function(format!("cell_front_{shards}_shards"), |b| {
            b.iter(|| {
                let (status, _) =
                    flowcube_bench::serving::timed_get(addr, "/cell?cell=*,*&level=fine")
                        .expect("request transport");
                assert_eq!(status, 200);
            })
        });
        tiers.push(measure_tier(&format!("front-{shards}"), addr, shards));
        front.shutdown();
        front.join();
        for b in backends {
            b.shutdown();
            b.join();
        }
    }
    group.finish();

    // Degraded: 2 shards, one killed, no replicas. Answers stay 200
    // (partial), but each pays the dead shard's connect failure inside
    // the deadline.
    let (mut backends, front) = boot_federation(&db, &spec, 2);
    let dead = backends.remove(1);
    dead.shutdown();
    dead.join();
    let degraded = measure_tier("front-2-degraded", front.addr(), 2);
    front.shutdown();
    front.join();
    for b in backends {
        b.shutdown();
        b.join();
    }

    // Replicated: 2 shards x 2 replicas, healthy, then with one replica
    // per shard killed mid-run. Retry budgets + breakers must keep every
    // degraded answer a FULL 200 — the front only goes partial when an
    // entire replica set is down.
    let (mut groups, front) = boot_replicated(&db, &spec, 2);
    let replica_healthy = measure_replicated("front-2x2", front.addr(), 2);
    for group in &mut groups {
        let dead = group.remove(1);
        dead.shutdown();
        dead.join();
    }
    // A short unmeasured burst lets the router discover the dead
    // replicas (the first refused connect opens each breaker) so the
    // measured series reflects health-gated routing, not
    // first-discovery retries.
    for _ in 0..20 {
        let _ = timed_get_body(front.addr(), "/cell?cell=*,*&level=fine");
    }
    let replica_degraded = measure_replicated("front-2x2-degraded", front.addr(), 2);
    front.shutdown();
    front.join();
    for group in groups {
        for b in group {
            b.shutdown();
            b.join();
        }
    }
    single_server.shutdown();
    single_server.join();

    let hop = tiers[0].cell.p50_us / single.cell.p50_us;
    let ratio = replica_degraded.cell.p99_us / replica_healthy.cell.p99_us;
    let result = FederatedResult {
        num_paths: NUM_PATHS,
        requests_per_series: REQUESTS,
        single,
        tiers,
        degraded_one_of_two_dead: degraded,
        replica_healthy,
        replica_degraded,
        replica_degraded_p99_ratio: ratio,
        federation_hop_overhead_p50: hop,
    };
    std::fs::write(
        "BENCH_federated.json",
        serde_json::to_string_pretty(&result).expect("serialize"),
    )
    .expect("write BENCH_federated.json");
    println!("\nwrote BENCH_federated.json");
    println!(
        "single /cell p50 {:.0}us p99 {:.0}us",
        result.single.cell.p50_us, result.single.cell.p99_us
    );
    for t in &result.tiers {
        println!(
            "front {} shard(s) /cell p50 {:.0}us p99 {:.0}us  topk p50 {:.0}us",
            t.shards, t.cell.p50_us, t.cell.p99_us, t.topk.p50_us
        );
    }
    println!(
        "degraded (1 of 2 dead) /cell p50 {:.0}us p99 {:.0}us",
        result.degraded_one_of_two_dead.cell.p50_us, result.degraded_one_of_two_dead.cell.p99_us
    );
    println!(
        "replicated 2x2 healthy /cell p50 {:.0}us p99 {:.0}us  partials {}",
        result.replica_healthy.cell.p50_us,
        result.replica_healthy.cell.p99_us,
        result.replica_healthy.partial_responses
    );
    println!(
        "replicated 2x2 one-dead-per-shard /cell p50 {:.0}us p99 {:.0}us  partials {}  p99 ratio {ratio:.2}x",
        result.replica_degraded.cell.p50_us,
        result.replica_degraded.cell.p99_us,
        result.replica_degraded.partial_responses
    );
    println!("federation hop overhead (1 shard vs direct, p50): {hop:.2}x");
}

criterion_group!(benches, bench);
criterion_main!(benches);
