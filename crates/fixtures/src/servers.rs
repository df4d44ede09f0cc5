//! Servers over a cube, a federation of them, and the requests and
//! answers in-process suites exchange with them.

use flowcube_core::{CubeDelta, FlowCube, FlowCubeParams, ItemPlan};
use flowcube_federate::{serve_front, shard_db, FrontConfig, FrontHandle, ReplicaSet};
use flowcube_hier::{ConceptId, PathLatticeSpec, Schema};
use flowcube_pathdb::PathDatabase;
use flowcube_serve::http::Request;
use flowcube_serve::{serve_cube, ServedCube, ServerConfig, ServerHandle};
use flowcube_testkit::http::ok;
use serde_json::Value;
use std::net::SocketAddr;

/// `cube` encoded as an in-memory image.
pub fn image(cube: &FlowCube) -> ServedCube {
    ServedCube::from_cube(cube).expect("encode image")
}

/// A server over `served`.
pub fn server(served: ServedCube, config: ServerConfig) -> ServerHandle {
    serve_cube(served, config).expect("server starts")
}

/// A two-worker server over `cube`'s image on `addr` — `127.0.0.1:0`
/// for a fresh port, or a replica's old address to restart it there.
pub fn server_at(cube: &FlowCube, addr: &str) -> ServerHandle {
    let config = ServerConfig {
        addr: addr.to_string(),
        workers: 2,
        ..Default::default()
    };
    server(image(cube), config)
}

/// `db` cubed as a shard of a [`federation`] is: the leaf path level at
/// δ = 1, so no shard drops counts the federation adds up (Lemma 4.2),
/// with its exceptions mined.
pub fn shard_cube(db: &PathDatabase) -> FlowCube {
    let spec = PathLatticeSpec::paper(db.schema().locations(), 1);
    FlowCube::build(db, spec, FlowCubeParams::new(1), ItemPlan::All)
}

/// [`shard_cube`] without exceptions: mining them at δ = 1 is most of a
/// shard's build, and a suite that never asks for them need not pay.
pub fn shard_counts(db: &PathDatabase) -> FlowCube {
    let spec = PathLatticeSpec::paper(db.schema().locations(), 1);
    let params = FlowCubeParams::new(1).with_exceptions(false);
    FlowCube::build(db, spec, params, ItemPlan::All)
}

/// `shards` EPC-hash shards of `db`, each cubed by `cube` ([`shard_cube`]
/// or [`shard_counts`]), federated as [`front_over`] federates cubes.
pub fn federation(
    cube: fn(&PathDatabase) -> FlowCube,
    db: &PathDatabase,
    shards: u32,
    replicas: usize,
    tune: impl FnOnce(&mut FrontConfig),
) -> (Vec<Vec<ServerHandle>>, FrontHandle) {
    let shard = |k| cube(&shard_db(db, shards, k).expect("shard splits"));
    front_over(&(0..shards).map(shard).collect::<Vec<_>>(), replicas, tune)
}

/// One shard per cube, each served by `replicas` identical servers,
/// behind one two-worker front that `tune` may adjust. The servers come
/// grouped by shard, so a test can kill particular ones.
pub fn front_over(
    cubes: &[FlowCube],
    replicas: usize,
    tune: impl FnOnce(&mut FrontConfig),
) -> (Vec<Vec<ServerHandle>>, FrontHandle) {
    let groups: Vec<Vec<ServerHandle>> = (cubes.iter())
        .map(|cube| {
            (0..replicas)
                .map(|_| server_at(cube, "127.0.0.1:0"))
                .collect()
        })
        .collect();
    let replica_set = |group: &Vec<ServerHandle>| ReplicaSet {
        replicas: group.iter().map(|b| b.addr().to_string()).collect(),
    };
    let mut config = FrontConfig {
        backends: groups.iter().map(replica_set).collect(),
        shards: cubes.len() as u32,
        workers: 2,
        ..Default::default()
    };
    tune(&mut config);
    (groups, serve_front(config).expect("front starts"))
}

/// Shut `server` down and wait for its threads.
pub fn stop(server: ServerHandle) {
    server.shutdown();
    server.join();
}

/// Stop the front, then every server of every shard.
pub fn shutdown_all(groups: Vec<Vec<ServerHandle>>, front: FrontHandle) {
    front.shutdown();
    front.join();
    groups.into_iter().flatten().for_each(stop);
}

/// Post `delta` to the server at `addr`; the answer must be a `200`.
pub fn ingest(addr: SocketAddr, delta: &CubeDelta) -> String {
    let body = serde_json::to_string(delta).expect("delta encodes");
    ok(addr, "POST", "/admin/ingest", &body)
}

/// A `GET` request for `handle_request`, as the server parses it.
pub fn get_request(path: &str, query: &[(&str, &str)]) -> Request {
    Request {
        method: "GET".to_string(),
        path: path.to_string(),
        query: (query.iter())
            .map(|&(k, v)| (k.to_string(), v.to_string()))
            .collect(),
        headers: Vec::new(),
        body: Vec::new(),
    }
}

/// A cell key as a client spells it: value names, `*` for the root.
pub fn cell_spec(schema: &Schema, key: &[ConceptId]) -> String {
    (key.iter().enumerate())
        .map(|(d, &c)| match c {
            ConceptId::ROOT => "*",
            c => schema.dim(d as u8).name_of(c),
        })
        .collect::<Vec<_>>()
        .join(",")
}

/// A counter of the process's metrics registry; 0 before its first
/// record.
pub fn counter(name: &str) -> u64 {
    let counters = flowcube_obs::snapshot().counters;
    counters.get(name).copied().unwrap_or(0)
}

/// A gauge of the process's metrics registry; 0 before it is first set.
pub fn gauge(name: &str) -> f64 {
    let gauges = flowcube_obs::snapshot().gauges;
    gauges.get(name).copied().unwrap_or(0.0)
}

/// A JSON body, parsed; a panic names the body that was not JSON.
pub fn parse(body: &str) -> Value {
    serde_json::parse_value_str(body).unwrap_or_else(|e| panic!("bad JSON {body:?}: {e:?}"))
}
