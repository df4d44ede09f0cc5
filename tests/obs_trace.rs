//! Integration tests of the observability layer: a parallel flowcube
//! build must produce a well-formed (Perfetto-loadable) Chrome trace and
//! a metrics snapshot with per-length candidate counters; the Shared vs
//! Basic counter shapes must reproduce Figure 11 of the paper.

use flowcube::core::{FlowCube, FlowCubeParams, ItemPlan};
use flowcube::datagen::{generate, GeneratorConfig};
use flowcube::mining::{buc_iceberg, mine, mine_cubing, CubingConfig, SharedConfig, TransactionDb};
use flowcube::obs;
use flowcube::pathdb::{MergePolicy, PathDatabase};
use serde_json::{Number, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Mutex;

use flowcube_fixtures::two_level_spec;

/// The recorder is process-global; every test here serializes on this so
/// one test's spans never leak into another's exported trace.
static OBS_LOCK: Mutex<()> = Mutex::new(());

fn test_db() -> PathDatabase {
    let config = GeneratorConfig {
        num_paths: 600,
        seed: 23,
        ..Default::default()
    };
    generate(&config).db
}

fn field<'a>(fields: &'a [(String, Value)], key: &str) -> &'a Value {
    fields
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("event missing field {key:?}"))
}

#[test]
fn parallel_build_chrome_trace_wellformed() {
    let _guard = OBS_LOCK.lock().unwrap();
    obs::reset();
    obs::enable();
    let db = test_db();
    let spec = two_level_spec(&db);
    let mut params = FlowCubeParams::new(20).with_redundancy(0.05);
    params.threads = 2;
    let cube = FlowCube::build(&db, spec, params, ItemPlan::All);
    let snap = flowcube::testkit::temp_path("obs-trace.snap");
    let written = flowcube::serve::write_snapshot(&cube, &snap).expect("snapshot writes");
    let _ = std::fs::remove_file(&snap);
    let json = obs::export::chrome_trace_json();
    let snapshot = obs::snapshot();
    obs::disable();
    obs::reset();

    let value = serde_json::parse_value_str(&json).expect("trace is valid JSON");
    let Value::Array(rows) = value else {
        panic!("trace must be a JSON array");
    };
    assert!(
        rows.len() >= 10,
        "expected a real trace, got {} events",
        rows.len()
    );

    let mut depth: BTreeMap<u64, i64> = BTreeMap::new();
    let mut tids: BTreeSet<u64> = BTreeSet::new();
    let mut names: BTreeSet<String> = BTreeSet::new();
    let mut last_ts = f64::NEG_INFINITY;
    for row in &rows {
        let Value::Object(fields) = row else {
            panic!("each trace event must be an object");
        };
        let Value::String(name) = field(fields, "name") else {
            panic!("name must be a string");
        };
        names.insert(name.clone());
        let Value::Number(Number::U(tid)) = field(fields, "tid") else {
            panic!("tid must be an unsigned integer");
        };
        tids.insert(*tid);
        assert!(matches!(field(fields, "pid"), Value::Number(_)));
        let Value::Number(Number::F(ts)) = field(fields, "ts") else {
            panic!("ts must be a float (microseconds)");
        };
        assert!(*ts >= last_ts, "timestamps must be sorted");
        last_ts = *ts;
        let d = depth.entry(*tid).or_insert(0);
        match field(fields, "ph") {
            Value::String(ph) if ph == "B" => *d += 1,
            Value::String(ph) if ph == "E" => {
                *d -= 1;
                assert!(*d >= 0, "end without begin on lane {tid}");
            }
            other => panic!("ph must be \"B\" or \"E\", got {other:?}"),
        }
    }
    for (tid, d) in &depth {
        assert_eq!(*d, 0, "unbalanced begin/end on lane {tid}");
    }

    // The whole pipeline shows up: root build span, phase spans, mining's
    // row pass, pair pre-count and per-length counting passes, per-cell
    // materialization spans, and the snapshot writer's stages.
    for expected in [
        "build",
        "build.encode",
        "build.mine",
        "mining.apriori",
        "mining.scan",
        "mining.bitmaps",
        "mining.precount",
        "build.prepare",
        "build.buc",
        "build.dictionary",
        "build.materialize",
        "build.cell",
        "build.redundancy",
        "build.graphs",
        "build.exceptions",
        "serve.snapshot.write",
        "serve.snapshot.intern",
        "serve.snapshot.plan",
        "serve.snapshot.encode",
        "serve.snapshot.file_write",
    ] {
        assert!(
            names.contains(expected),
            "missing span {expected:?} in {names:?}"
        );
    }
    // Parallel materialization renders as extra lanes when the machine
    // has more than one core.
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    if cores > 1 {
        assert!(tids.len() > 1, "expected concurrent lanes, got {tids:?}");
    }

    // The metrics side of the same run.
    assert!(
        snapshot
            .counters
            .keys()
            .any(|k| k.starts_with("mining.shared.candidates.len")),
        "per-length candidate counters missing: {:?}",
        snapshot.counters.keys().collect::<Vec<_>>()
    );
    // The build mines with the family rule on, and says how much it cut.
    assert!(
        snapshot
            .counters
            .get("mining.shared.pruned.family")
            .is_some_and(|&n| n > 0),
        "family-rule prune counter missing or zero"
    );
    assert_eq!(
        snapshot.counters.get("serve.snapshot.bytes_written"),
        Some(&written.bytes)
    );
    let cell_hist = snapshot
        .histograms
        .get("build.cell_materialize_us")
        .expect("per-cell materialization histogram");
    assert!(cell_hist.count > 0);
    assert!(cell_hist.p50 <= cell_hist.p99);
    assert!(snapshot.gauges.contains_key("build.cells_materialized"));
    // The tid rows the build's mining counted on.
    assert!(
        snapshot
            .gauges
            .get("mining.bitmap_bytes")
            .is_some_and(|&b| b > 0.0),
        "tid-row bytes gauge missing or zero"
    );
    // The BUC pass's counters are its own `BucStats`.
    let (_, buc) = buc_iceberg(&db, 20, None, |_| 1);
    assert_eq!(
        snapshot.counters.get("build.buc.partitions"),
        Some(&buc.partitions_examined)
    );
    assert_eq!(
        snapshot.counters.get("build.buc.tid_entries"),
        Some(&buc.tidlist_items)
    );
    // Definition 4.4 on counts: parent comparisons, the ones cut short
    // past τ, and a graph written per stored cell only.
    for counter in [
        "build.redundancy.comparisons",
        "build.redundancy.early_exit",
    ] {
        assert!(
            snapshot.counters.get(counter).is_some_and(|&n| n > 0),
            "{counter} missing or zero"
        );
    }
    assert_eq!(
        snapshot.gauges.get("build.graphs_built"),
        Some(&(cube.total_cells() as f64))
    );
    #[cfg(target_os = "linux")]
    assert!(snapshot.gauges.contains_key("process.peak_rss_bytes"));
}

#[test]
fn metrics_cover_all_three_algorithms() {
    let _guard = OBS_LOCK.lock().unwrap();
    obs::reset();
    obs::enable();
    let db = test_db();
    let tx = TransactionDb::encode(&db, two_level_spec(&db), MergePolicy::Sum);
    let delta = 20;
    mine(&tx, &SharedConfig::shared(delta))
        .stats
        .publish("mining.shared");
    mine(&tx, &SharedConfig::basic(delta))
        .stats
        .publish("mining.basic");
    mine_cubing(&db, &tx, &CubingConfig::new(delta))
        .stats
        .publish("mining.cubing");
    let snapshot = obs::snapshot();
    obs::disable();
    obs::reset();

    for prefix in ["mining.shared", "mining.basic", "mining.cubing"] {
        assert!(
            snapshot
                .counters
                .get(&format!("{prefix}.candidates.len1"))
                .is_some_and(|&n| n > 0),
            "{prefix} has no length-1 candidate counter"
        );
        assert!(
            snapshot
                .counters
                .get(&format!("{prefix}.scans"))
                .is_some_and(|&n| n > 0),
            "{prefix} has no scan counter"
        );
    }
    // Multi-length counters for the Apriori algorithms.
    assert!(snapshot
        .counters
        .contains_key("mining.shared.candidates.len2"));
    assert!(snapshot
        .counters
        .contains_key("mining.basic.candidates.len2"));
    // Cubing's structural counters: cells mined and spill I/O charged.
    assert!(snapshot.counters["mining.cubing.cells_mined"] > 0);
    assert!(snapshot.counters["mining.cubing.io_bytes_read"] > 0);
}

/// Figure 11 of the paper: Basic counts strictly more candidates than
/// Shared at the same support, and its candidates reach at least the same
/// maximum length (item+ancestor itemsets inflate Basic's frontier).
#[test]
fn fig11_shape_shared_vs_basic() {
    let _guard = OBS_LOCK.lock().unwrap();
    let db = test_db();
    let tx = TransactionDb::encode(&db, two_level_spec(&db), MergePolicy::Sum);
    let delta = 12;
    let shared = mine(&tx, &SharedConfig::shared(delta));
    let basic = mine(&tx, &SharedConfig::basic(delta));
    assert!(
        basic.stats.total_counted() > shared.stats.total_counted(),
        "basic {} candidates !> shared {}",
        basic.stats.total_counted(),
        shared.stats.total_counted()
    );
    assert!(shared.stats.max_length() <= basic.stats.max_length());
    let s = &shared.stats;
    assert!(
        s.pruned_ancestor + s.pruned_unlinkable + s.pruned_precount > 0,
        "shared pruned nothing — Figure 11's gap would vanish"
    );
}
