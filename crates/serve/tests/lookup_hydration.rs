//! A point lookup hydrates only the sections its ancestor walk probes:
//! a cold server pays for what a query reads, not for the whole path
//! level, and a corrupt section fails exactly the lookups that reach it.

use flowcube_core::{view, CuboidKey, FlowCube};
use flowcube_datagen::{DimShape, GeneratorConfig};
use flowcube_fixtures::{cell_spec, get_request, snapshot_bytes, Lattice, Scenario, TempSnapshot};
use flowcube_hier::{ConceptId, ItemLevel};
use flowcube_serve::http::Request;
use flowcube_serve::snapshot::SectionDesc;
use flowcube_serve::{handle_request, AppState, RequestCtx, ServedCube, Snapshot};
use std::collections::BTreeSet;

/// Two dimensions three levels deep, at a δ that leaves most fine cells
/// out: lookups there fall back up the lattice.
fn cube() -> FlowCube {
    let config = GeneratorConfig {
        dims: vec![DimShape::new(vec![2, 2, 2], 0.7); 2],
        ..GeneratorConfig::small(400, 5)
    };
    let scenario = Scenario {
        data: Some(config),
        lattice: Lattice::Paper(2),
        exceptions: false,
        ..Scenario::small(5, 25)
    };
    scenario.build().cube
}

/// Serve `bytes` from a file, cold.
fn serve(bytes: &[u8], name: &str) -> AppState {
    let path = TempSnapshot::holding(name, bytes);
    AppState::new(
        ServedCube::from_snapshot(Snapshot::open(&path).expect("open")),
        0,
    )
}

fn cell_request(cube: &FlowCube, key: &[ConceptId]) -> Request {
    let cell = cell_spec(cube.schema(), key);
    get_request("/cell", &[("cell", &cell), ("level", "loc0/dur0")])
}

/// Every key at the finest item level, in hierarchy order.
fn finest_keys(cube: &FlowCube) -> Vec<Vec<ConceptId>> {
    let schema = cube.schema();
    let mut keys: Vec<Vec<ConceptId>> = vec![Vec::new()];
    for d in 0..schema.num_dims() {
        let h = schema.dim(d as u8);
        let leaves: Vec<ConceptId> = h.concepts_at_level(h.max_level()).collect();
        keys = (keys.iter())
            .flat_map(|k| {
                leaves.iter().map(move |&c| {
                    let mut k = k.clone();
                    k.push(c);
                    k
                })
            })
            .collect();
    }
    keys
}

#[test]
fn a_lookup_at_the_apex_hydrates_one_section() {
    let cube = cube();
    let state = serve(&snapshot_bytes(&cube), "apex-served.snap");
    assert_eq!(state.cube().resident_cuboids(), 0, "cold");
    let apex = vec![ConceptId::ROOT; cube.schema().num_dims()];
    let resp = handle_request(&state, &cell_request(&cube, &apex), &RequestCtx::default());
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert_eq!(state.cube().resident_cuboids(), 1);
    assert!(state.cube().total_cuboids() > 1);
}

#[test]
fn a_fallback_hydrates_exactly_the_levels_the_walk_probed() {
    let cube = cube();
    let state = serve(&snapshot_bytes(&cube), "walk-served.snap");
    let depth = |level: &ItemLevel| level.0.iter().map(|&l| l as usize).sum::<usize>();
    // A finest key answered two lattice steps up, and every item level
    // the walk probed on the way.
    let (key, probed) = finest_keys(&cube)
        .into_iter()
        .find_map(|key| {
            let mut probed = BTreeSet::new();
            let stored = || {
                view::walk_order(
                    (cube.cuboids())
                        .filter(|(ck, _)| ck.path_level == 0)
                        .map(|(ck, _)| ck.item_level.clone()),
                )
            };
            let (route, ()) = view::lookup_route(cube.schema(), &key, stored, |level, k| {
                probed.insert(level.clone());
                cube.cuboid(level, 0)?.get(k).map(|_| ())
            })?;
            let steps =
                depth(&flowcube_core::level_of_key(&key, cube.schema())) - depth(&route.item_level);
            (steps == 2).then_some((key, probed))
        })
        .expect("a key whose answer is two steps up");
    let resp = handle_request(&state, &cell_request(&cube, &key), &RequestCtx::default());
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert!(resp.body.contains("\"exact\":false"), "{}", resp.body);
    let with_cells = (probed.iter())
        .filter(|level| cube.cuboid(level, 0).is_some())
        .count();
    assert_eq!(state.cube().resident_cuboids(), with_cells);
    let at_level = cube.cuboids().filter(|(ck, _)| ck.path_level == 0).count();
    assert!(
        with_cells < at_level,
        "the walk must not need the whole level"
    );
}

#[test]
fn a_corrupt_section_fails_only_the_lookups_that_probe_it() {
    let cube = cube();
    let mut bytes = snapshot_bytes(&cube);
    // Flip a byte inside the (1, 0) cuboid's section at the fine level.
    let target = CuboidKey {
        item_level: ItemLevel(vec![1, 0]),
        path_level: 0,
    };
    let index_len = u64::from_le_bytes(bytes[12..20].try_into().unwrap()) as usize;
    let index: Vec<SectionDesc> =
        serde_json::from_str(std::str::from_utf8(&bytes[24..24 + index_len]).unwrap()).unwrap();
    let section = (index.iter())
        .find(|d| d.cuboid.as_ref() == Some(&target))
        .expect("the (1, 0) cuboid is stored");
    bytes[24 + index_len + section.offset as usize + section.len as usize / 2] ^= 0x01;
    let state = serve(&bytes, "corrupt-served.snap");

    let (row_key, _) = cube
        .cuboid(&target.item_level, 0)
        .unwrap()
        .iter()
        .next()
        .unwrap();
    let sibling = ItemLevel(vec![0, 1]);
    let (other_key, _) = cube.cuboid(&sibling, 0).unwrap().iter().next().unwrap();
    let ask = |key: &[ConceptId]| {
        handle_request(&state, &cell_request(&cube, key), &RequestCtx::default())
    };
    for _ in 0..2 {
        // Probes (1, 0) first: the typed error, every time — not memoized.
        let resp = ask(row_key);
        assert!(resp.status >= 500, "got {} {}", resp.status, resp.body);
        assert!(resp.body.contains("checksum"), "{}", resp.body);
        // Found at (0, 1) without touching (1, 0).
        let resp = ask(other_key);
        assert_eq!(resp.status, 200, "{}", resp.body);
    }
}
