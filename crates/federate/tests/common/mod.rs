//! What the federation suites share: a backend `serve` instance over a
//! cube, and a JSON body parser.

use flowcube_core::FlowCube;
use flowcube_serve::{serve_cube, ServedCube, ServerConfig, ServerHandle};
use serde_json::Value;

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
