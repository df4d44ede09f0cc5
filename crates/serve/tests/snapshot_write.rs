//! `write_snapshot` replaces the file at `path`, it does not rewrite it:
//! a process holding the old file open keeps a whole snapshot, and a
//! writer that fails leaves `path` and its directory as they were.
//!
//! One test, so the process-global `serve.snapshot.write` and
//! `serve.snapshot.spool` failpoints have no concurrent writer to land
//! in.

use flowcube_fixtures::small_cube;
use flowcube_serve::{write_snapshot, ServedCube, Snapshot, SnapshotError};
use flowcube_testkit::{temp_path, FailAction};

#[test]
fn a_write_onto_a_served_path_replaces_the_file_atomically() {
    let dir = temp_path("snap-write");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("cube.snap");
    let listing = || {
        let mut names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    };

    let cube = |seed, min_support| small_cube(seed, min_support).cube;
    let (old, new) = (cube(31, 4), cube(32, 8));
    assert_ne!(old.total_cells(), new.total_cells());
    write_snapshot(&old, &path).expect("write old");
    let held = Snapshot::open(&path).expect("open old");

    // A different cube lands on the same path while `held` has hydrated
    // nothing yet: the handle still reads the old file, all of it.
    let info = write_snapshot(&new, &path).expect("write new");
    held.verify_all()
        .expect("the open handle keeps a whole file");
    assert_eq!(
        ServedCube::from_snapshot(held)
            .folded_cube()
            .expect("old cube")
            .total_cells(),
        old.total_cells()
    );
    let fresh = Snapshot::open(&path).expect("open new");
    assert_eq!(
        ServedCube::from_snapshot(fresh)
            .folded_cube()
            .expect("new cube")
            .total_cells(),
        new.total_cells()
    );
    let on_disk = std::fs::read(&path).unwrap();
    assert_eq!(info.bytes, on_disk.len() as u64);
    assert_eq!(info.crc, flowcube_serve::crc::crc32(&on_disk));
    assert_eq!(listing(), ["cube.snap"], "no temp file after a success");

    // The writer fails with its temp file on disk: the error surfaces,
    // the temp file goes, and `path` still holds the last good snapshot.
    flowcube_testkit::arm_times(
        "serve.snapshot.write",
        1,
        FailAction::ReturnErr(Some("disk full".into())),
    );
    let failed = write_snapshot(&old, &path);
    flowcube_testkit::reset();
    match failed {
        Err(SnapshotError::Io { detail, .. }) => assert!(detail.contains("disk full")),
        other => panic!("expected the injected Io error, got {other:?}"),
    }
    assert_eq!(listing(), ["cube.snap"], "no temp file after a failure");
    assert_eq!(std::fs::read(&path).unwrap(), on_disk);

    // The writer fails between two sections, its data region half
    // spooled: the same error, and neither the spool nor a temp file is
    // left beside `path`.
    flowcube_testkit::arm_after(
        "serve.snapshot.spool",
        7,
        FailAction::ReturnErr(Some("disk full".into())),
    );
    let failed = write_snapshot(&old, &path);
    let fired = flowcube_testkit::hits("serve.snapshot.spool");
    flowcube_testkit::reset();
    assert_eq!(fired, 1, "the fault must land between two sections");
    match failed {
        Err(SnapshotError::Io { detail, .. }) => assert!(detail.contains("disk full")),
        other => panic!("expected the injected Io error, got {other:?}"),
    }
    assert_eq!(
        listing(),
        ["cube.snap"],
        "no spool and no temp file after a failure between sections"
    );
    assert_eq!(std::fs::read(&path).unwrap(), on_disk);

    let _ = std::fs::remove_dir_all(&dir);
}
