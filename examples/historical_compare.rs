//! The introduction's third analyst question: "present a workflow that
//! summarizes item movement … for the year 2006 … and contrast path
//! durations with historic flow information for the same region in
//! 2005."
//!
//! Two cubes are built from two simulated years whose logistics changed
//! (a rerouted lane and slower transport); `FlowCube::compare` aligns
//! them cell by cell and surfaces exactly what moved.
//!
//! ```sh
//! cargo run --release --example historical_compare
//! ```

use flowcube::core::{FlowCube, FlowCubeParams, ItemPlan};
use flowcube::datagen::{generate, GeneratorConfig};
use flowcube::hier::{DurationLevel, LocationCut, PathLatticeSpec, PathLevel};
use flowcube::pathdb::{PathDatabase, PathRecord, Stage};

fn build_cube(db: &PathDatabase) -> FlowCube {
    let loc = db.schema().locations();
    let spec = PathLatticeSpec::new(vec![PathLevel::new(
        "leaf",
        LocationCut::uniform_level(loc, 2),
        DurationLevel::Bucket(2),
    )]);
    FlowCube::build(
        db,
        spec,
        FlowCubeParams::new(100).with_exceptions(false),
        ItemPlan::All,
    )
}

fn main() {
    // Year 2005: the baseline operation.
    let config_2005 = GeneratorConfig {
        num_paths: 10_000,
        num_sequences: 10,
        seed: 2005,
        ..Default::default()
    };
    let year_2005 = generate(&config_2005);

    // Year 2006: same sequence pool, but one lane is rerouted (every path
    // through the most popular sequence takes an alternate second hop)
    // and transport durations grow by 2 units.
    let mut db_2006 = PathDatabase::new(year_2005.db.schema().clone());
    let reroute_from = year_2005.sequences[0].clone();
    let reroute_to = year_2005
        .sequences
        .iter()
        .find(|s| s[0] == reroute_from[0] && **s != reroute_from)
        .cloned()
        .unwrap_or_else(|| reroute_from.clone());
    for r in year_2005.db.records() {
        let locs: Vec<_> = r.stages.iter().map(|s| s.loc).collect();
        let stages: Vec<Stage> = if locs == reroute_from {
            reroute_to
                .iter()
                .enumerate()
                .map(|(i, &l)| {
                    let dur = r.stages.get(i).map_or(2, |s| s.dur);
                    Stage::new(l, dur + 2)
                })
                .collect()
        } else {
            r.stages
                .iter()
                .map(|s| Stage::new(s.loc, s.dur + 2))
                .collect()
        };
        db_2006
            .push(PathRecord::new(r.id, r.dims.clone(), stages))
            .unwrap();
    }

    let cube_2005 = build_cube(&year_2005.db);
    let cube_2006 = build_cube(&db_2006);

    let changes = cube_2006.compare(&cube_2005).expect("same schema and spec");
    println!(
        "2006 vs 2005 — {} cells new, {} gone, {} changed",
        changes.left_only.len(),
        changes.right_only.len(),
        changes.changed.len()
    );

    let apex = vec![flowcube::hier::ConceptId::ROOT; year_2005.db.schema().num_dims()];
    let mut flows = (changes.changed.into_iter())
        .find(|c| c.key == apex)
        .expect("the apex cell changed")
        .graph;
    flows
        .deltas
        .retain(|d| d.reach_left.max(d.reach_right) >= 0.01);
    let loc = year_2005.db.schema().locations();
    println!("\ntop flow changes at the apex (reach ≥ 1%):\n");
    print!("{}", flows.render(loc, 12));
}
