//! What a warm read costs the allocator. A `/rollup` and a multi-row
//! `/slice`, answered through `handle_request` once their sections are
//! resident, make a bounded number of allocations: the handlers render
//! their JSON straight from the response structs, without a `Value`
//! tree per response.

use flowcube_core::{display_key, FlowCube, FlowCubeParams, ItemPlan};
use flowcube_datagen::{generate, GeneratorConfig};
use flowcube_hier::{ConceptId, PathLatticeSpec};
use flowcube_serve::http::Request;
use flowcube_serve::{handle_request, AppState, RequestCtx, ResponseCache, ServedCube};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting the allocations of threads that ask
/// for it — only this test's, not the harness's.
struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn note_allocation() {
    // `try_with`: a thread being torn down has no locals left to count in.
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        }
    });
}

// SAFETY: every call goes straight to `System`; counting touches only
// const-initialised thread locals, which allocate nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations_in(f: impl FnOnce()) -> u64 {
    ALLOCATIONS.with(|n| n.set(0));
    COUNTING.with(|on| on.set(true));
    f();
    COUNTING.with(|on| on.set(false));
    ALLOCATIONS.with(Cell::get)
}

fn get(path: &str, query: &[(&str, String)]) -> Request {
    Request {
        method: "GET".to_string(),
        path: path.to_string(),
        query: (query.iter())
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect(),
        headers: Vec::new(),
        body: Vec::new(),
    }
}

fn cell_spec(cube: &FlowCube, key: &[ConceptId]) -> String {
    (key.iter().enumerate())
        .map(|(d, &c)| match c {
            ConceptId::ROOT => "*",
            c => cube.schema().dim(d as u8).name_of(c),
        })
        .collect::<Vec<_>>()
        .join(",")
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
    let db = generate(&GeneratorConfig::small(400, 3)).db;
    let spec = PathLatticeSpec::paper(db.schema().locations(), 2);
    let params = FlowCubeParams::new(4).with_threads(1);
    let cube = FlowCube::build(&db, spec, params, ItemPlan::All);
    let state = AppState::new(
        ServedCube::from_cube(&cube).expect("encode image"),
        ResponseCache::new(0),
    );
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
    let rollup = get(
        "/rollup",
        &[
            ("cell", cell_spec(&cube, &key)),
            ("level", level.clone()),
            ("dim", "0".to_string()),
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
    let slice = get(
        "/slice",
        &[
            ("at", at.join(",")),
            ("level", level),
            ("dim", "0".to_string()),
            ("value", cube.schema().dim(0).name_of(value).to_string()),
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
