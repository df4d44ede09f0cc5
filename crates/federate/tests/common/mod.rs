//! What the federation suites share: the generated path database, a
//! backend `serve` instance over a cube, and a JSON body parser.

use flowcube_core::FlowCube;
use flowcube_datagen::{generate, DimShape, GeneratorConfig};
use flowcube_hier::{DurationLevel, LocationCut, PathLatticeSpec, PathLevel};
use flowcube_pathdb::PathDatabase;
use flowcube_serve::{serve_cube, ServedCube, ServerConfig, ServerHandle};
use serde_json::Value;

pub fn gen_db(paths: usize, seed: u64) -> (PathDatabase, PathLatticeSpec) {
    let config = GeneratorConfig {
        num_paths: paths,
        dims: vec![DimShape::new(vec![2, 3], 0.7); 2],
        num_sequences: 5,
        seed,
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

pub fn start_backend(cube: FlowCube) -> ServerHandle {
    start_backend_at(cube, "127.0.0.1:0")
}

/// A backend on a given address — a replica restarted where it was.
pub fn start_backend_at(cube: FlowCube, addr: &str) -> ServerHandle {
    serve_cube(
        ServedCube::from_cube(&cube).expect("encode image"),
        ServerConfig {
            addr: addr.to_string(),
            workers: 2,
            ..Default::default()
        },
    )
    .expect("backend starts")
}

pub fn parse(body: &str) -> Value {
    serde_json::parse_value_str(body).unwrap_or_else(|e| panic!("bad JSON {body:?}: {e:?}"))
}
