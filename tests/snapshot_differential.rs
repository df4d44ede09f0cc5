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
//!    answers field by field what the core API answers — both from the
//!    in-memory image (`ServedCube::from_cube`) and from a snapshot file,
//!    whose bodies must also be byte-identical to each other;
//! 2. the operator contracts the endpoints are built on (`CuboidRead`,
//!    `GraphRead`) agree between a `ColumnarSection` and the `Cuboid` it
//!    encodes;
//! 3. write → open → `folded_cube` → write again reproduces the file
//!    byte-for-byte: the encode/decode pair is lossless *and* canonical.
//!
//! The checked-in format-1 fixture rides the same reference: upgraded
//! through `load_v1_cube` + `write_snapshot`, it answers like core.

use flowcube::core::{display_key, view, CellKey, CuboidRead};
use flowcube::datagen::{generate, GeneratorConfig};
use flowcube::flowgraph::{path_probability, top_k_paths, ExceptionDetail, GraphRead};
use flowcube::hier::PathLevelId;
use flowcube::hier::{ConceptId, PathLatticeSpec, Schema};
use flowcube::pathdb::AggStage;
use flowcube::serve::http::Request;
use flowcube::serve::{
    handle_request, load_v1_cube, write_snapshot, AppState, RequestCtx, ResponseCache, ServedCube,
    Snapshot,
};
use flowcube::testkit::temp_path;
use flowcube::{FlowCube, FlowCubeParams, ItemPlan};
use proptest::prelude::*;
use serde_json::{Number, Value};

/// A small deterministic cube with exceptions on — the exception
/// columns must survive the encoding too, not just the flowgraphs.
fn small_cube(paths: usize, seed: u64, min_support: u64) -> FlowCube {
    small_cube_and_records(paths, seed, min_support).0
}

/// The cube, and the distinct keys of its records in ascending order:
/// leaf cells, most of which the iceberg does not keep, so a point
/// lookup of one walks up to an ancestor.
fn small_cube_and_records(paths: usize, seed: u64, min_support: u64) -> (FlowCube, Vec<CellKey>) {
    let db = generate(&GeneratorConfig::small(paths, seed)).db;
    let mut keys: Vec<CellKey> = db.records().iter().map(|r| r.dims.clone()).collect();
    keys.sort_unstable();
    keys.dedup();
    let cube = FlowCube::build(
        &db,
        PathLatticeSpec::paper(db.schema().locations(), 2),
        FlowCubeParams::new(min_support).with_threads(1),
        ItemPlan::All,
    );
    (cube, keys)
}

fn get(path: &str, query: &[(&str, &str)]) -> Request {
    Request {
        method: "GET".to_string(),
        path: path.to_string(),
        query: query
            .iter()
            .map(|&(k, v)| (k.to_string(), v.to_string()))
            .collect(),
        headers: Vec::new(),
        body: Vec::new(),
    }
}

/// Render a cell key the way a client would spell it: value names,
/// `*` for the all-aggregated root.
fn cell_spec(key: &[ConceptId], schema: &Schema) -> String {
    key.iter()
        .enumerate()
        .map(|(d, &c)| {
            if c == ConceptId::ROOT {
                "*".to_string()
            } else {
                schema.dim(d as u8).name_of(c).to_string()
            }
        })
        .collect::<Vec<_>>()
        .join(",")
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
    let spec = cell_spec(key, schema);
    let shown = display_key(key, schema);
    let mut reqs = Vec::new();
    let Some(lk) = cube.lookup(key, pl) else {
        for path in ["/cell", "/paths/topk", "/exceptions"] {
            reqs.push((get(path, &[("cell", &spec), ("level", &level)]), None));
        }
        return reqs;
    };
    let source = display_key(lk.source_key, schema);
    reqs.push((
        get("/cell", &[("cell", &spec), ("level", &level)]),
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
        get(
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
            get(
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
        get("/exceptions", &[("cell", &spec), ("level", &level)]),
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
            let spec = cell_spec(&key, schema);
            let shown = display_key(&key, schema);
            reqs.extend(point_requests(cube, &key, pl));
            for dim in 0..schema.num_dims() {
                let d = dim.to_string();
                reqs.push((
                    get(
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
                    get(
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
                    get(
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
                    get(
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
            get("/dice", &[("at", &at), ("level", &level)]),
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

/// Answer every request of the matrix from `state`, check each body
/// byte for byte against the core reference's rendering, and return the
/// raw `(status, body)` pairs for cross-source comparison.
fn check_against_core(
    state: &AppState,
    matrix: &[(Request, Expected)],
    source: &str,
) -> Vec<(u16, String)> {
    matrix
        .iter()
        .map(|(req, expected)| {
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
            (resp.status, resp.body)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Properties 1 and 3: the in-memory image and the snapshot file
    /// both answer every endpoint like the in-process cube, identically
    /// to each other — over every materialized cell, and for the point
    /// lookups over every record's leaf cell, which mostly falls back to
    /// an ancestor — and the file survives write → open → load →
    /// rewrite byte-for-byte.
    #[test]
    fn endpoints_match_core_from_image_and_file(
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
        let tag = format!("{paths}-{seed}-{min_support}");
        let file = temp_path(&format!("{tag}.snap"));
        write_snapshot(&cube, &file).expect("write");

        let image = AppState::new(
            ServedCube::from_cube(&cube).expect("encode image"),
            ResponseCache::new(64),
        );
        let snapshot = Snapshot::open(&file).expect("open");
        let from_file = AppState::new(ServedCube::from_snapshot(snapshot), ResponseCache::new(64));

        let image_bodies = check_against_core(&image, &matrix, "image");
        let file_bodies = check_against_core(&from_file, &matrix, "file");
        prop_assert_eq!(
            image_bodies, file_bodies,
            "image and file diverged ({} requests)", matrix.len()
        );

        // Re-encode stability: one canonical byte string per content.
        let reopened = Snapshot::open(&file).expect("reopen");
        let reloaded = ServedCube::from_snapshot(reopened).folded_cube().expect("load");
        let rewrite = temp_path(&format!("{tag}-rewrite.snap"));
        write_snapshot(&reloaded, &rewrite).expect("rewrite");
        prop_assert_eq!(
            std::fs::read(&file).expect("read"),
            std::fs::read(&rewrite).expect("read rewrite"),
            "write → open → load → rewrite is not byte-stable"
        );

        for p in [&file, &rewrite] {
            let _ = std::fs::remove_file(p);
        }
    }

    /// Property 2: `CuboidRead` / `GraphRead` over a columnar section ≡
    /// over the heap cuboid it was encoded from.
    #[test]
    fn columnar_operators_match_heap_cuboid(
        paths in 40usize..120,
        seed in 0u64..1000,
        min_support in 2u64..10,
    ) {
        let cube = small_cube(paths, seed, min_support);
        let file = temp_path(&format!("ops-{paths}-{seed}-{min_support}.snap"));
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
        let _ = std::fs::remove_file(&file);
    }
}

/// The frozen format-1 fixture, upgraded (`load_v1_cube` →
/// `write_snapshot`), answers every endpoint like the core API over the
/// cube the v1 reader decoded.
#[test]
fn golden_v1_upgrade_answers_like_core() {
    let fixture = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/crates/serve/tests/fixtures/golden_v1.snap"
    );
    let cube = load_v1_cube(fixture).expect("read golden v1");
    let upgraded = temp_path("golden-upgraded.snap");
    write_snapshot(&cube, &upgraded).expect("write upgrade");
    let snapshot = Snapshot::open(&upgraded).expect("open upgrade");
    let state = AppState::new(ServedCube::from_snapshot(snapshot), ResponseCache::new(64));
    let matrix = request_matrix(&cube);
    assert!(!matrix.is_empty());
    check_against_core(&state, &matrix, "golden upgrade");
    let _ = std::fs::remove_file(&upgraded);
}
