//! Differential suite for the one served representation (DESIGN.md
//! §14): a cuboid is only ever answered from a validated FCC2 columnar
//! section, and that section must be indistinguishable from the heap
//! `FlowCube` it was encoded from.
//!
//! The reference is the in-process core API — `lookup`, `roll_up`,
//! `drill_down`, `slice`, `dice`, `top_k_paths` / `path_probability` on
//! the heap `FlowGraph`, the cell's exception list. Three properties:
//!
//! 1. every endpoint, over every materialized cell of a generated cube,
//!    answers from the cube's snapshot file field by field, and byte for
//!    byte, what the core API answers;
//! 2. the operator contracts the endpoints are built on (`CuboidRead`,
//!    `GraphRead`) agree between a `ColumnarSection` and the `Cuboid` it
//!    encodes;
//! 3. write → open → `folded_cube` → write again reproduces the file
//!    byte-for-byte: the encode/decode pair is lossless *and* canonical.
//!
//! The checked-in format-1 fixture rides the same reference: upgraded
//! through `load_v1_cube` + `write_snapshot`, it answers like core.

use flowcube::core::{display_key, view, CellKey, CuboidRead};
use flowcube::flowgraph::{path_probability, top_k_paths, ExceptionDetail, GraphRead};
use flowcube::hier::PathLevelId;
use flowcube::hier::{ConceptId, Schema};
use flowcube::pathdb::AggStage;
use flowcube::serve::http::Request;
use flowcube::serve::{
    handle_request, load_v1_cube, write_snapshot, AppState, RequestCtx, ServedCube, Snapshot,
};
use flowcube::FlowCube;
use flowcube_fixtures::{
    cell_spec, get_request, golden_v1_path, snapshot_bytes, Lattice, Scenario, Small, TempSnapshot,
};
use proptest::prelude::*;
use serde_json::{Number, Value};

/// A small cube with exceptions on — the exception columns must survive
/// the encoding too, not just the flowgraphs — under two path levels.
fn scenario(paths: usize, seed: u64, min_support: u64) -> Scenario {
    Scenario {
        lattice: Lattice::Paper(2),
        ..Scenario::small(seed, min_support).paths(paths)
    }
}

/// The cube, and the distinct keys of its records in ascending order:
/// leaf cells, most of which the iceberg does not keep, so a point
/// lookup of one walks up to an ancestor.
fn small_cube_and_records(paths: usize, seed: u64, min_support: u64) -> (FlowCube, Vec<CellKey>) {
    let Small { db, cube, .. } = scenario(paths, seed, min_support).build();
    let mut keys: Vec<CellKey> = db.records().iter().map(|r| r.dims.clone()).collect();
    keys.sort_unstable();
    keys.dedup();
    (cube, keys)
}

// ---- the core reference --------------------------------------------------

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn num(n: u64) -> Value {
    Value::Number(Number::U(n))
}

fn count(n: usize) -> Value {
    num(n as u64)
}

fn float(f: f64) -> Value {
    Value::Number(Number::F(f))
}

fn text(s: impl Into<String>) -> Value {
    Value::String(s.into())
}

fn names(schema: &Schema, locations: &[ConceptId]) -> Value {
    let h = schema.locations();
    Value::Array(locations.iter().map(|&c| text(h.name_of(c))).collect())
}

/// What an endpoint must answer, computed from the in-process cube
/// alone: a `200` with exactly this body, or a `404`.
type Expected = Option<Value>;

fn cell_rows<K: AsRef<[ConceptId]>>(
    cube: &FlowCube,
    rows: Vec<(K, &flowcube::core::CellEntry)>,
) -> Value {
    let cells: Vec<Value> = rows
        .iter()
        .map(|(key, entry)| {
            obj(vec![
                ("cell", text(display_key(key.as_ref(), cube.schema()))),
                ("support", num(entry.support)),
                ("nodes", count(entry.graph.len() - 1)),
                ("exceptions", count(entry.exceptions.len())),
            ])
        })
        .collect();
    obj(vec![
        ("count", count(cells.len())),
        ("cells", Value::Array(cells)),
    ])
}

/// The point lookups of `key` at path level `pl` — `/cell`,
/// `/paths/topk`, `/paths/probability`, `/exceptions` — with what core's
/// `lookup` answers: from the cell itself when it is materialized, from
/// the ancestor the walk up the item lattice reaches when not, `404`
/// when nothing answers.
fn point_requests(cube: &FlowCube, key: &[ConceptId], pl: PathLevelId) -> Vec<(Request, Expected)> {
    let schema = cube.schema();
    let loc = schema.locations();
    let level = cube.spec().level(pl).name.clone();
    let spec = cell_spec(schema, key);
    let shown = display_key(key, schema);
    let mut reqs = Vec::new();
    let Some(lk) = cube.lookup(key, pl) else {
        for path in ["/cell", "/paths/topk", "/exceptions"] {
            reqs.push((
                get_request(path, &[("cell", &spec), ("level", &level)]),
                None,
            ));
        }
        return reqs;
    };
    let source = display_key(lk.source_key, schema);
    reqs.push((
        get_request("/cell", &[("cell", &spec), ("level", &level)]),
        Some(obj(vec![
            ("cell", text(&shown)),
            ("level", text(&level)),
            ("exact", Value::Bool(lk.exact)),
            ("source_cell", text(&source)),
            ("support", num(lk.entry.support)),
            ("nodes", count(lk.entry.graph.len() - 1)),
            ("exceptions", count(lk.entry.exceptions.len())),
            ("description", text(cube.describe_cell(lk.source_key, pl))),
        ])),
    ));
    let top = top_k_paths(&lk.entry.graph, 3);
    reqs.push((
        get_request(
            "/paths/topk",
            &[("cell", &spec), ("level", &level), ("k", "3")],
        ),
        Some(obj(vec![
            ("cell", text(&source)),
            ("support", num(lk.entry.support)),
            (
                "paths",
                Value::Array(
                    top.iter()
                        .map(|p| {
                            obj(vec![
                                ("locations", names(schema, &p.locations)),
                                ("probability", float(p.probability)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])),
    ));
    if let Some(best) = top.first() {
        let stages: Vec<AggStage> = best
            .locations
            .iter()
            .map(|&loc| AggStage { loc, dur: None })
            .collect();
        let path = best
            .locations
            .iter()
            .map(|&c| loc.name_of(c))
            .collect::<Vec<_>>()
            .join(",");
        reqs.push((
            get_request(
                "/paths/probability",
                &[("cell", &spec), ("level", &level), ("path", &path)],
            ),
            Some(obj(vec![
                ("cell", text(&source)),
                (
                    "probability",
                    float(path_probability(&lk.entry.graph, &stages)),
                ),
            ])),
        ));
    }
    let graph = &lk.entry.graph;
    let exceptions: Vec<Value> = lk
        .entry
        .exceptions
        .iter()
        .map(|e| {
            let condition = e
                .condition
                .iter()
                .map(|&(n, d)| text(format!("{}={d}", loc.name_of(graph.location(n)))))
                .collect();
            obj(vec![
                ("node", names(schema, &graph.prefix_of(e.node))),
                ("condition", Value::Array(condition)),
                ("support", num(e.support)),
                ("deviation", float(e.deviation)),
                (
                    "kind",
                    text(match e.detail {
                        ExceptionDetail::Duration { .. } => "duration",
                        ExceptionDetail::Transition { .. } => "transition",
                    }),
                ),
            ])
        })
        .collect();
    reqs.push((
        get_request("/exceptions", &[("cell", &spec), ("level", &level)]),
        Some(obj(vec![
            ("cell", text(&source)),
            ("count", count(exceptions.len())),
            ("exceptions", Value::Array(exceptions)),
        ])),
    ));
    reqs
}

/// Every query endpoint, over every materialized cell of the cube, in a
/// deterministic order, each paired with the core API's answer: point
/// lookups, rollup and drilldown along every dimension, slices and dices
/// over each cuboid, top-k paths, path probabilities, and exceptions.
/// Misses (rollup past the apex, unmaterialized children) are part of
/// the matrix on purpose.
fn request_matrix(cube: &FlowCube) -> Vec<(Request, Expected)> {
    let schema = cube.schema();
    let mut reqs = Vec::new();
    let mut cuboids: Vec<_> = cube.cuboids().collect();
    cuboids.sort_by(|a, b| a.0.cmp(b.0));
    for (ck, cuboid) in cuboids {
        let pl = ck.path_level;
        let level = cube.spec().level(pl).name.clone();
        let at = ck
            .item_level
            .0
            .iter()
            .map(|l| l.to_string())
            .collect::<Vec<_>>()
            .join(",");
        for key in cuboid.keys_sorted() {
            let spec = cell_spec(schema, &key);
            let shown = display_key(&key, schema);
            reqs.extend(point_requests(cube, &key, pl));
            for dim in 0..schema.num_dims() {
                let d = dim.to_string();
                reqs.push((
                    get_request(
                        "/rollup",
                        &[("cell", &spec), ("level", &level), ("dim", &d)],
                    ),
                    cube.roll_up(&key, dim, pl).map(|(parent, entry)| {
                        obj(vec![
                            ("cell", text(&shown)),
                            ("parent", text(display_key(&parent, schema))),
                            ("support", num(entry.support)),
                            ("nodes", count(entry.graph.len() - 1)),
                        ])
                    }),
                ));
                reqs.push((
                    get_request(
                        "/drilldown",
                        &[("cell", &spec), ("level", &level), ("dim", &d)],
                    ),
                    Some(cell_rows(cube, cube.drill_down(&key, dim, pl))),
                ));
            }
            if key[0] != ConceptId::ROOT {
                let value = schema.dim(0).name_of(key[0]).to_string();
                let expected = cell_rows(cube, cube.slice(&ck.item_level, pl, 0, key[0]));
                reqs.push((
                    get_request(
                        "/slice",
                        &[
                            ("at", &at),
                            ("level", &level),
                            ("dim", "0"),
                            ("value", &value),
                        ],
                    ),
                    Some(expected.clone()),
                ));
                reqs.push((
                    get_request(
                        "/dice",
                        &[
                            ("at", &at),
                            ("level", &level),
                            ("where", &format!("0:{value}")),
                        ],
                    ),
                    Some(expected),
                ));
            }
        }
        // The unconstrained dice enumerates the whole cuboid — a direct
        // probe of `keys_sorted` order.
        reqs.push((
            get_request("/dice", &[("at", &at), ("level", &level)]),
            Some(cell_rows(cube, cube.dice(&ck.item_level, pl, |_| true))),
        ));
    }
    reqs
}

/// The point lookups of each record's own key at every path level: leaf
/// cells, answered exactly or from the nearest stored ancestor.
fn fallback_matrix(cube: &FlowCube, record_keys: &[CellKey]) -> Vec<(Request, Expected)> {
    (cube.spec().ids())
        .flat_map(|pl| {
            record_keys
                .iter()
                .flat_map(move |key| point_requests(cube, key, pl))
        })
        .collect()
}

/// Answer every request of the matrix from `state` and check each body
/// byte for byte against the core reference's rendering.
fn check_against_core(state: &AppState, matrix: &[(Request, Expected)], source: &str) {
    for (req, expected) in matrix {
        let resp = handle_request(state, req, &RequestCtx::default());
        let what = format!("{source}: {} {:?}", req.path, req.query);
        match expected {
            Some(want) => {
                assert_eq!(resp.status, 200, "{what}: {}", resp.body);
                let got = serde_json::parse_value_str(&resp.body).expect("JSON body");
                assert_eq!(&got, want, "{what}");
                assert_eq!(resp.body, serde_json::to_string(want).unwrap(), "{what}");
            }
            None => assert_eq!(resp.status, 404, "{what}: {}", resp.body),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Properties 1 and 3: the snapshot file answers every endpoint
    /// like the in-process cube — over every materialized cell, and for
    /// the point lookups over every record's leaf cell, which mostly
    /// falls back to an ancestor — and survives write → open → load →
    /// rewrite byte-for-byte.
    #[test]
    fn endpoints_match_core_from_the_snapshot_file(
        paths in 40usize..120,
        seed in 0u64..1000,
        min_support in 2u64..10,
    ) {
        let (cube, record_keys) = small_cube_and_records(paths, seed, min_support);
        let mut matrix = request_matrix(&cube);
        let fallbacks = fallback_matrix(&cube, &record_keys);
        let inexact = (fallbacks.iter())
            .filter(|(req, want)| {
                req.path == "/cell" && want.as_ref().is_some_and(|w| w.get("exact") == Some(&Value::Bool(false)))
            })
            .count();
        prop_assert!(inexact > 0, "no record's leaf cell falls back");
        matrix.extend(fallbacks);
        let file = TempSnapshot::new("endpoints.snap");
        write_snapshot(&cube, &file).expect("write");

        let snapshot = Snapshot::open(&file).expect("open");
        let from_file = AppState::new(ServedCube::from_snapshot(snapshot), 64);
        check_against_core(&from_file, &matrix, "file");

        // Re-encode stability: one canonical byte string per content.
        let reopened = Snapshot::open(&file).expect("reopen");
        let reloaded = ServedCube::from_snapshot(reopened).folded_cube().expect("load");
        prop_assert_eq!(
            std::fs::read(&file).expect("read"),
            snapshot_bytes(&reloaded),
            "write → open → load → rewrite is not byte-stable"
        );
    }

    /// Property 2: `CuboidRead` / `GraphRead` over a columnar section ≡
    /// over the heap cuboid it was encoded from.
    #[test]
    fn columnar_operators_match_heap_cuboid(
        paths in 40usize..120,
        seed in 0u64..1000,
        min_support in 2u64..10,
    ) {
        let cube = scenario(paths, seed, min_support).build().cube;
        let file = TempSnapshot::new("ops.snap");
        write_snapshot(&cube, &file).expect("write");
        let snapshot = Snapshot::open(&file).expect("open");

        for (ck, cuboid) in cube.cuboids() {
            let section = snapshot.load_cuboid(ck).expect("load").expect("section present");
            prop_assert_eq!(section.num_cells(), cuboid.num_cells());
            let keys = cuboid.keys_sorted();
            prop_assert_eq!(&section.keys_sorted(), &keys);
            prop_assert_eq!(
                view::dice_keys(&section, |k| k[1] != ConceptId::ROOT),
                view::dice_keys(cuboid, |k| k[1] != ConceptId::ROOT)
            );
            for key in &keys {
                prop_assert!(section.contains(key));
                prop_assert_eq!(section.stats(key), cuboid.stats(key));
                prop_assert_eq!(
                    view::slice_keys(&section, 0, key[0]),
                    view::slice_keys(cuboid, 0, key[0])
                );

                let entry = cuboid.get(key).expect("cell");
                let cell = section.cell(section.find(key).expect("row"));
                prop_assert_eq!(&cell.exceptions(), &entry.exceptions);
                let (heap, columnar) = (&entry.graph, cell.graph());
                prop_assert_eq!(columnar.len(), heap.len());
                for n in heap.node_ids() {
                    prop_assert_eq!(GraphRead::prefix_of(&columnar, n), heap.prefix_of(n));
                }
                let top = top_k_paths(heap, 3);
                prop_assert_eq!(&top_k_paths(&columnar, 3), &top);
                for p in &top {
                    let stages: Vec<AggStage> =
                        p.locations.iter().map(|&loc| AggStage { loc, dur: None }).collect();
                    prop_assert_eq!(
                        path_probability(&columnar, &stages),
                        path_probability(heap, &stages)
                    );
                }
            }
            // The apex key is a cell of the apex cuboid only.
            let apex = vec![ConceptId::ROOT; cube.schema().num_dims()];
            prop_assert_eq!(section.contains(&apex), cuboid.get(&apex).is_some());
        }
    }
}

/// The frozen format-1 fixture, upgraded (`load_v1_cube` →
/// `write_snapshot`), answers every endpoint like the core API over the
/// cube the v1 reader decoded.
#[test]
fn golden_v1_upgrade_answers_like_core() {
    let cube = load_v1_cube(golden_v1_path()).expect("read golden v1");
    let upgraded = TempSnapshot::new("golden-upgraded.snap");
    write_snapshot(&cube, &upgraded).expect("write upgrade");
    let snapshot = Snapshot::open(&upgraded).expect("open upgrade");
    let state = AppState::new(ServedCube::from_snapshot(snapshot), 64);
    let matrix = request_matrix(&cube);
    assert!(!matrix.is_empty());
    check_against_core(&state, &matrix, "golden upgrade");
}
