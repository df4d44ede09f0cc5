//! `write_snapshot` streams: the heap it holds at once is a few
//! sections per writer worker, not the file. Writing a cube of many
//! cuboid sections grows the live heap by at most a quarter of the
//! file's size, at any writer thread count — a writer that encoded every
//! section before writing any would hold more than the whole file.
//!
//! One test: the live-bytes high-water is process-wide.

use flowcube_core::FlowCube;
use flowcube_datagen::{DimShape, GeneratorConfig};
use flowcube_fixtures::{Lattice, Scenario, TempSnapshot};
use flowcube_serve::write_snapshot;
use flowcube_testkit::alloc::{peak_growth_in, Counting};

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `cube` under params that send the snapshot writer to `threads`
/// workers.
fn with_writer_threads(cube: &FlowCube, threads: usize) -> FlowCube {
    let mut out = FlowCube::from_parts(
        cube.schema().clone(),
        cube.spec().clone(),
        cube.params().clone().with_threads(threads),
        cube.stats().clone(),
    );
    for (key, cuboid) in cube.cuboids() {
        out.insert_cuboid(key.clone(), cuboid.clone());
    }
    out
}

#[test]
fn a_write_holds_a_few_sections_not_the_file() {
    // Three dimensions of two levels: 27 item levels, at each of three
    // path levels.
    let cube = Scenario {
        data: Some(GeneratorConfig {
            dims: vec![DimShape::new(vec![2, 3], 0.7); 3],
            ..GeneratorConfig::small(600, 7)
        }),
        lattice: Lattice::Paper(3),
        ..Scenario::small(7, 2)
    }
    .build()
    .cube;
    assert!(cube.num_cuboids() >= 50, "{} cuboids", cube.num_cuboids());
    let path = TempSnapshot::new("write-memory.snap");
    for threads in [1, 2, 4] {
        let cube = with_writer_threads(&cube, threads);
        let mut written = None;
        let growth = peak_growth_in(|| written = Some(write_snapshot(&cube, &path)));
        let info = written.expect("ran").expect("snapshot writes");
        assert_eq!(info.bytes, std::fs::metadata(&path).unwrap().len());
        assert!(
            growth * 4 <= info.bytes,
            "threads={threads}: the write grew the heap by {growth} bytes \
             for a {}-byte file of {} sections",
            info.bytes,
            info.sections
        );
    }
}
