//! What a warm read costs the allocator. A `/rollup` and a multi-row
//! `/slice`, answered through `handle_request` once their sections are
//! resident, make a bounded number of allocations: the handlers render
//! their JSON straight from the response structs, without a `Value`
//! tree per response. A `/cell` that falls back to an ancestor costs
//! the same whether its walk probes few stored levels or many.

use flowcube_core::{display_key, view};
use flowcube_datagen::{DimShape, GeneratorConfig};
use flowcube_fixtures::{cell_spec, get_request, served_file, Lattice, Scenario, Small};
use flowcube_hier::ConceptId;
use flowcube_serve::http::Request;
use flowcube_serve::{handle_request, AppState, RequestCtx};
use flowcube_testkit::alloc::{allocations_in, Counting};

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The cube both tests read: 400 paths under two path levels at δ = 4.
fn small() -> Small {
    let scenario = Scenario {
        lattice: Lattice::Paper(2),
        ..Scenario::small(3, 4).paths(400)
    };
    scenario.build()
}

/// Allocations of the third identical request, after two have made its
/// sections resident and its metric series exist; the three bodies must
/// agree.
fn warm_allocations(state: &AppState, req: &Request) -> (u64, String) {
    let first = handle_request(state, req, &RequestCtx::default());
    assert_eq!(first.status, 200, "{}", first.body);
    handle_request(state, req, &RequestCtx::default());
    let mut body = String::new();
    let made = allocations_in(|| {
        body = handle_request(state, req, &RequestCtx::default()).body;
    });
    assert_eq!(body, first.body);
    (made, body)
}

#[test]
fn warm_rollup_and_slice_allocate_a_bounded_amount() {
    flowcube_obs::enable();
    let cube = small().cube;
    let (_snapshot, served) = served_file(&cube);
    let state = AppState::new(served, 0);
    let pl = 0;
    let level = cube.spec().level(pl).name.clone();

    // A rollup along dimension 0 whose parent is materialized.
    let mut cuboids: Vec<_> = (cube.cuboids())
        .filter(|(ck, _)| ck.path_level == pl)
        .collect();
    cuboids.sort_by(|a, b| a.0.cmp(b.0));
    let key = (cuboids.iter())
        .flat_map(|(_, c)| c.iter().map(|(k, _)| k.clone()))
        .filter(|k| k[0] != ConceptId::ROOT)
        .find(|k| cube.roll_up(k, 0, pl).is_some())
        .expect("a cell whose dimension-0 parent is materialized");
    let rollup = get_request(
        "/rollup",
        &[
            ("cell", &cell_spec(cube.schema(), &key)),
            ("level", &level),
            ("dim", "0"),
        ],
    );

    // The slice with the most rows.
    let (rows, at, value) = (cuboids.iter())
        .flat_map(|(ck, c)| c.iter().map(move |(k, _)| (ck, k[0])))
        .filter(|&(_, v)| v != ConceptId::ROOT)
        .map(|(ck, v)| (cube.slice(&ck.item_level, pl, 0, v).len(), ck, v))
        .max_by_key(|&(rows, ck, v)| (rows, std::cmp::Reverse((*ck, v))))
        .map(|(rows, ck, v)| (rows, ck.item_level.clone(), v))
        .expect("a cuboid to slice");
    assert!(rows >= 4, "a multi-row slice: {rows} rows");
    let at: Vec<String> = at.0.iter().map(u8::to_string).collect();
    let slice = get_request(
        "/slice",
        &[
            ("at", &at.join(",")),
            ("level", &level),
            ("dim", "0"),
            ("value", cube.schema().dim(0).name_of(value)),
        ],
    );

    let (rollup_allocs, body) = warm_allocations(&state, &rollup);
    assert!(body.contains(&display_key(&key, cube.schema())), "{body}");
    let (slice_allocs, body) = warm_allocations(&state, &slice);
    assert!(body.contains(&format!("\"count\":{rows}")), "{body}");
    eprintln!("warm /rollup: {rollup_allocs} allocations; /slice of {rows} rows: {slice_allocs}");
    // Rendered through a `Value` tree, these were 40 and 129 (6 rows);
    // written straight from the structs, 26 and 65.
    assert!(
        rollup_allocs <= 32,
        "warm /rollup made {rollup_allocs} allocations"
    );
    assert!(
        slice_allocs <= 24 + 8 * rows as u64,
        "warm /slice of {rows} rows made {slice_allocs} allocations"
    );
}

/// A record's leaf cell that the iceberg left out is answered by its
/// nearest stored ancestor; the walk probes each stored level on the
/// way once. A probe allocates nothing, so the fallback that probes the
/// most levels allocates no more than the one that probes the fewest.
#[test]
fn a_fallback_allocates_alike_however_many_levels_it_probes() {
    flowcube_obs::enable();
    // Two dimensions three levels deep at a δ that leaves most fine
    // cells out: sixteen item levels for a walk to probe.
    let deep = GeneratorConfig {
        dims: vec![DimShape::new(vec![2, 2, 2], 0.7); 2],
        ..GeneratorConfig::small(400, 5)
    };
    let scenario = Scenario {
        data: Some(deep),
        exceptions: false,
        ..Scenario::small(5, 25)
    };
    let Small { db, cube, .. } = scenario.build();
    let (_snapshot, served) = served_file(&cube);
    let state = AppState::new(served, 0);
    let level = cube.spec().level(0).name.clone();
    let stored = view::walk_order(
        (cube.cuboids())
            .filter(|(ck, _)| ck.path_level == 0)
            .map(|(ck, _)| ck.item_level.clone()),
    );
    let mut keys: Vec<_> = db.records().iter().map(|r| r.dims.clone()).collect();
    keys.sort_unstable();
    keys.dedup();
    // Each key that falls back, after the stored levels its walk probes.
    let mut fallbacks: Vec<_> = (keys.into_iter())
        .filter_map(|key| {
            let mut probes = 0;
            let (route, ()) = view::lookup_route(
                cube.schema(),
                &key,
                || &stored,
                |at, k| {
                    let cuboid = cube.cuboid(at, 0)?;
                    probes += 1;
                    cuboid.get(k).map(drop)
                },
            )?;
            (route.key != key).then_some((probes, key))
        })
        .collect();
    fallbacks.sort();
    let (fewest, most) = (&fallbacks[0], &fallbacks[fallbacks.len() - 1]);
    assert!(most.0 >= fewest.0 + 4, "probe counts spread: {fallbacks:?}");

    let allocations = |key| {
        let spec = cell_spec(cube.schema(), key);
        let cell = get_request("/cell", &[("cell", &spec), ("level", &level)]);
        let (made, body) = warm_allocations(&state, &cell);
        assert!(body.contains("\"exact\":false"), "{body}");
        made
    };
    let (few, many) = (allocations(&fewest.1), allocations(&most.1));
    eprintln!(
        "fallback /cell: {} probes, {few} allocations; {} probes, {many} allocations",
        fewest.0, most.0
    );
    // A vector per probe, as `find` once built, would add one allocation
    // per extra level probed.
    assert!(
        many <= few + 1,
        "{} probes made {many} allocations, {} made {few}",
        most.0,
        fewest.0
    );
}
