//! CLI subcommand implementations.

use crate::args::Args;
use crate::error::CliError;
use flowcube_core::{Algorithm, CellKey, FlowCube, FlowCubeParams, ItemPlan};
use flowcube_datagen::{generate as gen_paths, DimShape, GeneratorConfig};
use flowcube_federate::{build_shard_part, merge_shard_parts, ShardPart};
use flowcube_hier::{PathLatticeSpec, PathLevelId};
use flowcube_mining::{
    mine as mine_itemsets, mine_cubing, CubingConfig, SharedConfig, TransactionDb,
};
use flowcube_pathdb::{MergePolicy, PathDatabase};
use flowcube_serve::{write_snapshot, ServedCube, SnapshotError, SnapshotInfo, FORMAT_VERSION};

pub const USAGE: &str = "\
flowcube — RFID FlowCube construction and analysis (VLDB 2006 reproduction)

USAGE:
  flowcube generate --paths N [--dims D] [--seqs S] [--seed K]
                    [--flow-correlation F] [--exception-bias B] --out db.json
  flowcube build    --db db.json --min-support N [--eps E] [--tau T]
                    [--algorithm shared|basic|cubing]
                    [--no-exceptions] [--threads N] --out cube.snap
                    [--shards N --shard-id K] (write one shard part)
  flowcube merge    part0.snap part1.snap … --db db.json --min-support N
                    [--eps E] [--tau T] [--no-exceptions] --out cube.snap
  flowcube cells    --snapshot cube.snap [--level NAME] [--limit N]
  flowcube query    --snapshot cube.snap --cell v1,v2,… (use * for any)
                    [--level NAME]
  flowcube mine     --db db.json --algorithm shared|basic|cubing
                    --min-support N [--threads N]
  flowcube predict  --snapshot cube.snap --cell v1,…
                    --observed loc:dur,loc:dur [--level NAME]
  flowcube snapshot --snapshot old.snap --out cube.snap
                    (upgrade a format-1 snapshot)
  flowcube serve    --snapshot cube.snap [--addr HOST:PORT] [--workers N]
                    [--queue-depth N] [--cache N] [--deadline-ms MS]
                    [--degraded-after N] [--access-log FILE|-] [--slow-ms MS]
                    [--compact-after-bytes N] [--compact-after-secs S]
  flowcube federate --backends h1:p1|h1r2:p,h2:p2,… [--shards N]
                    [--addr HOST:PORT] [--deadline-ms MS]
                    [--shard-timeout-ms MS] [--workers N] [--queue-depth N]
                    [--hedge-after-ms MS | --no-hedge] [--retry-budget N]
                    [--breaker-failures N] [--breaker-cooldown-ms MS]
  flowcube ingest   --text paths.txt --schema-from db.json --out clean.json
                    [--on-error strict|lenient|quarantine]
                    [--quarantine-cap N] [--quarantine-out FILE]
  flowcube ingest   --follow readings.log --db db.json [--out deltas.jsonl]
                    [--post http://HOST:PORT/admin/ingest] [--once]
                    [--post-timeout-ms MS] [--post-retries N]
                    [--post-backoff-ms MS] [--poll-ms MS] [--gap N] [--unit N]
                    [build flags]
  flowcube tables   (reproduce the paper's Tables 1-4 examples)

INGESTION (--on-error):
  strict      stop at the first malformed line (exit code 65)
  lenient     skip malformed lines, report line numbers and messages
  quarantine  like lenient, but also retain the raw text of bad lines

INCREMENTAL INGESTION (--follow):
  Tails a line-oriented readings log (`item EPC d1..dm` registrations,
  `read EPC loc time` readings, `commit` to close a micro-batch, `end`
  to finish) through the stream cleaner, and emits one cube delta per
  commit. Deltas append to --out as JSON lines and/or POST to a running
  server's /admin/ingest, which merges counts live (Lemma 4.2) without
  going offline; the server persists them in a <snapshot>.deltas sidecar
  replayed on restart and reload. An item's readings must not span
  commits. --once polls a single time instead of looping; --gap/--unit
  are the cleaner's same-location gap and duration unit.

SHARDED BUILD + FEDERATION:
  A large path database builds in parallel: `build --shards N --shard-id K`
  partitions paths by a fixed EPC hash and writes shard K's part file, the
  snapshot of its partial cube (δ = 1, no exceptions, no pruning — counts
  merge by addition, Lemma 4.2) plus the shard map; `merge` combines the
  N parts, enforces the real min-support, prunes redundancy and re-mines
  exceptions against the full database (Lemma 4.3 — pass --db), writing
  a snapshot byte-identical to a single-node build. `federate` boots a
  scatter-gather front over N `serve` backends (backend K serves part K):
  query endpoints fan out, counts merge, and a slow or dead shard degrades
  the answer (\"partial\": true + Retry-After) instead of failing it.

REPLICA SETS (federate --backends):
  Each shard entry may name several replicas separated by '|'
  (e.g. \"a:1|a:2,b:1|b:2\" — 2 shards, 2 replicas each; every replica
  of entry K must serve shard K's cube). The front picks a replica by
  health-weighted round-robin, skips replicas whose circuit breaker is
  open (--breaker-failures consecutive transport failures open it;
  after --breaker-cooldown-ms a /healthz probe closes it), fires a
  hedged second request when the first is slower than the shard's
  recent p95 (--hedge-after-ms pins the threshold, --no-hedge disables
  hedging), and retries failed replicas against the rest of the set.
  Hedges and retries share one per-request token pool
  (--retry-budget), so retry storms cannot amplify a brownout. An
  answer degrades to partial only when an entire replica set is down.

SNAPSHOT FORMAT:
  Every cube file is a format-2 snapshot, the columnar layout `serve`
  queries in place; `cells`, `query`, `predict`, `merge` and `serve` all
  open it with its <snapshot>.deltas sidecar. A format-1 file from an
  older build is upgrade-only: `snapshot --snapshot old.snap --out new.snap`.

COMPACTION (--compact-after-bytes / --compact-after-secs):
  A snapshot-backed server folds its <snapshot>.deltas sidecar into a
  fresh snapshot when the sidecar exceeds N bytes or deltas have been
  pending S seconds (POST /admin/compact triggers one manually). The
  fold is crash-safe: a durable marker file brackets the snapshot
  rename and sidecar trim, and startup recovery finishes or discards an
  interrupted job without losing an ingested path.

SERVING:
  --deadline-ms MS     per-request deadline; slow requests answer 503
  --degraded-after N   /healthz reports degraded after N worker crashes
                       (0 disables; default 8)
  --access-log DEST    structured JSON access log: '-' for stdout, else a
                       file to append to; one object per request, carrying
                       the X-Request-Id echoed to the client
  --slow-ms MS         requests slower than MS log with the flight-recorder
                       window attached (requires --access-log); 5xx always
                       dump the flight window
  GET /metrics answers JSON by default; ?format=prometheus (or an Accept
  header naming text/plain) selects Prometheus text exposition. GET
  /debug/flight dumps the in-memory flight recorder ring.
  SIGHUP or POST /admin/reload re-opens the snapshot file, verifies every
  section checksum, and swaps it in atomically; a corrupt file is rejected
  and the server keeps serving the old cube.

OBSERVABILITY (build and mine):
  --trace-out FILE    write a Chrome trace-event JSON of the run
                      (load it at https://ui.perfetto.dev)
  --metrics-out FILE  write the metrics registry (counters per candidate
                      length, prune rules, histograms, peak RSS) as JSON
  --verbose           print the span tree with durations after the run

FAULT INJECTION:
  FLOWCUBE_FAILPOINTS=\"site=action;…\" arms deterministic failpoints at
  process start (e.g. \"pathdb.parse.line=2*return(boom)\"). Used by the
  fault-injection test suite; disabled sites cost one atomic load.
";

/// Turn recording on when any observability flag is present.
fn obs_setup(args: &Args) {
    if args.get("trace-out").is_some() || args.get("metrics-out").is_some() || args.flag("verbose")
    {
        flowcube_obs::reset();
        flowcube_obs::enable();
    }
}

/// Write the requested exports and print the verbose span tree.
fn obs_finish(args: &Args) -> Result<(), CliError> {
    if let Some(path) = args.get("trace-out") {
        std::fs::write(path, flowcube_obs::export::chrome_trace_json())
            .map_err(|e| format!("{path}: {e}"))?;
        println!("wrote trace to {path} (load at https://ui.perfetto.dev)");
    }
    if let Some(path) = args.get("metrics-out") {
        let snapshot = flowcube_obs::snapshot();
        std::fs::write(path, flowcube_obs::export::metrics_json(&snapshot))
            .map_err(|e| format!("{path}: {e}"))?;
        println!("wrote metrics to {path}");
    }
    if args.flag("verbose") {
        print!("{}", flowcube_obs::export::tree_summary());
    }
    Ok(())
}

fn parse_algorithm(name: &str) -> Result<Algorithm, String> {
    match name {
        "shared" => Ok(Algorithm::Shared),
        "basic" => Ok(Algorithm::Basic),
        "cubing" => Ok(Algorithm::Cubing),
        other => Err(format!("unknown algorithm {other:?}")),
    }
}

fn algorithm_prefix(algo: Algorithm) -> &'static str {
    match algo {
        Algorithm::Shared => "mining.shared",
        Algorithm::Basic => "mining.basic",
        Algorithm::Cubing => "mining.cubing",
    }
}

fn read_db(path: &str) -> Result<PathDatabase, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut db: PathDatabase = serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
    // Rebuild the name indexes serde skips.
    let (mut schema, records) = db.into_parts();
    schema.rebuild_indexes();
    db = PathDatabase::from_records(schema, records).map_err(|e| e.to_string())?;
    Ok(db)
}

pub fn generate(args: &Args) -> Result<(), CliError> {
    let out = args.require("out")?;
    let config = GeneratorConfig {
        num_paths: args.num("paths", 10_000usize)?,
        dims: vec![DimShape::new(vec![4, 4, 6], 0.8); args.num("dims", 5usize)?],
        num_sequences: args.num("seqs", 30usize)?,
        seed: args.num("seed", 42u64)?,
        flow_correlation: args.num("flow-correlation", 0.0f64)?,
        exception_bias: args.num("exception-bias", 0.0f64)?,
        ..Default::default()
    };
    let generated = gen_paths(&config);
    let json = serde_json::to_string(&generated.db).map_err(|e| e.to_string())?;
    std::fs::write(out, json).map_err(|e| e.to_string())?;
    println!(
        "wrote {} paths over {} dimensions to {out}",
        generated.db.len(),
        generated.db.schema().num_dims()
    );
    Ok(())
}

/// The shared build flags (`--min-support --eps --tau --algorithm
/// --no-exceptions --threads`) as [`FlowCubeParams`].
fn build_params(args: &Args) -> Result<FlowCubeParams, String> {
    let mut params = FlowCubeParams::new(args.num("min-support", 100u64)?);
    params.exception_deviation = args.num("eps", params.exception_deviation)?;
    params.algorithm = parse_algorithm(args.get_or("algorithm", "shared"))?;
    if let Some(tau) = args.get("tau") {
        params.redundancy_tau = Some(
            tau.parse()
                .map_err(|_| format!("--tau: bad value {tau:?}"))?,
        );
    }
    if args.flag("no-exceptions") {
        params.mine_exceptions = false;
    }
    // 0 = auto (FLOWCUBE_THREADS env, else available_parallelism); the
    // result is bit-identical at any thread count.
    params.threads = args.num("threads", 0usize)?;
    Ok(params)
}

/// Print what a snapshot write wrote.
fn report_write(out: &str, written: Result<SnapshotInfo, SnapshotError>) -> Result<(), CliError> {
    let info = written.map_err(|e| e.to_string())?;
    println!(
        "wrote snapshot {out} (format v{FORMAT_VERSION}): {} sections ({} cuboids), {} bytes",
        info.sections, info.cuboids, info.bytes
    );
    Ok(())
}

/// `flowcube build` — write the snapshot of `--db`'s cube or, with
/// `--shards N --shard-id K`, shard K's [`ShardPart`] file.
pub fn build(args: &Args) -> Result<(), CliError> {
    obs_setup(args);
    let out = args.require("out")?;
    let shard = match (args.get("shards"), args.get("shard-id")) {
        (None, _) => None,
        (Some(_), None) => return Err(CliError::usage("--shards requires --shard-id")),
        (Some(_), Some(_)) => Some((args.num("shards", 0u32)?, args.num("shard-id", 0u32)?)),
    };
    let db = read_db(args.require("db")?)?;
    let params = build_params(args)?;
    let spec = PathLatticeSpec::try_paper(db.schema().locations(), 4)?;
    let written = match shard {
        Some((shards, shard_id)) => {
            let part = build_shard_part(&db, spec, &params, shards, shard_id)?;
            println!(
                "built shard {shard_id}/{shards}: {} paths, {} cells",
                part.map.paths,
                part.cube.total_cells()
            );
            part.write(out)
        }
        None => {
            let cube = FlowCube::build(&db, spec, params, ItemPlan::All);
            println!(
                "built cube: {} cuboids, {} cells [{}]",
                cube.num_cuboids(),
                cube.total_cells(),
                cube.stats().summary()
            );
            write_snapshot(&cube, out)
        }
    };
    report_write(out, written)?;
    obs_finish(args)
}

/// `flowcube merge` — combine shard part files (positional arguments)
/// into one cube snapshot, identical to a single-node build with the
/// same flags. `--db` supplies the full path database for exception
/// re-mining (Lemma 4.3: exceptions are holistic); omit it only with
/// `--no-exceptions`.
pub fn merge(args: &Args) -> Result<(), CliError> {
    obs_setup(args);
    let out = args.require("out")?;
    if args.positional.is_empty() {
        return Err(CliError::usage(
            "merge needs at least one shard part file (positional)",
        ));
    }
    let params = build_params(args)?;
    let parts = (args.positional.iter())
        .map(|path| ShardPart::open(path).map_err(|e| CliError::snapshot(path, e)))
        .collect::<Result<Vec<_>, _>>()?;
    let db = args.get("db").map(read_db).transpose()?;
    let cube = merge_shard_parts(&parts, db.as_ref(), &params)?;
    println!(
        "merged {} shard parts: {} cuboids, {} cells",
        parts.len(),
        cube.num_cuboids(),
        cube.total_cells()
    );
    report_write(out, write_snapshot(&cube, out))?;
    obs_finish(args)
}

/// `flowcube federate` — boot the scatter-gather front tier over a
/// shard map of backend replica sets: `,` separates shards, `|`
/// separates replicas of one shard (`"a:1|a:2,b:1|b:2"`).
pub fn federate(args: &Args) -> Result<(), CliError> {
    flowcube_obs::enable();
    let backends = flowcube_federate::parse_backend_spec(args.require("backends")?)?;
    let shards: u32 = args.num("shards", backends.len() as u32)?;
    let replicas: usize = backends.iter().map(|s| s.replicas.len()).sum();
    let hedge = if args.flag("no-hedge") {
        flowcube_federate::HedgePolicy::Off
    } else {
        match args.get("hedge-after-ms") {
            Some(_) => flowcube_federate::HedgePolicy::Fixed(std::time::Duration::from_millis(
                args.num("hedge-after-ms", 0u64)?,
            )),
            None => flowcube_federate::HedgePolicy::Adaptive,
        }
    };
    let config = flowcube_federate::FrontConfig {
        addr: args.get_or("addr", "127.0.0.1:7080").to_string(),
        workers: args.num("workers", 4usize)?,
        queue_depth: args.num("queue-depth", 64usize)?,
        backends,
        shards,
        request_deadline: std::time::Duration::from_millis(args.num("deadline-ms", 2000u64)?),
        shard_timeout: std::time::Duration::from_millis(args.num("shard-timeout-ms", 1000u64)?),
        hedge,
        retry_budget: args.num("retry-budget", 3u32)?,
        breaker: flowcube_federate::BreakerConfig {
            failure_threshold: args.num("breaker-failures", 3u32)?,
            cooldown: std::time::Duration::from_millis(args.num("breaker-cooldown-ms", 1000u64)?),
            ..Default::default()
        },
    };
    let handle = flowcube_federate::serve_front(config)?;
    println!(
        "federating {shards} shards ({replicas} replicas) on http://{}/ (try /healthz, /metrics)",
        handle.addr()
    );
    handle.wait_for_signals();
    println!("shut down cleanly");
    Ok(())
}

/// The cube in `--snapshot` as `serve` answers from that file: the one
/// open ([`ServedCube::open`]: crash recovery, sidecar deltas) and the
/// one eager decode ([`ServedCube::folded_cube`]).
fn open_cube(args: &Args) -> Result<FlowCube, CliError> {
    let path = args.require("snapshot")?;
    ServedCube::open(path.as_ref())
        .and_then(|(served, _)| served.folded_cube())
        .map_err(|e| CliError::snapshot(path, e))
}

/// The cell `--cell` (`*` or empty = any) at the path level `--level`
/// (default: the first).
fn cell_at(cube: &FlowCube, args: &Args) -> Result<(CellKey, PathLevelId), CliError> {
    let key = cube.require_key(args.require("cell")?)?;
    let level = args.get_or("level", &cube.spec().level(0).name);
    Ok((key, cube.require_path_level(level)?))
}

pub fn cells(args: &Args) -> Result<(), CliError> {
    let cube = open_cube(args)?;
    let limit = args.num("limit", 50usize)?;
    let level_filter = args.get("level");
    let mut shown = 0;
    let mut rows: Vec<String> = Vec::new();
    for (ck, cuboid) in cube.cuboids() {
        let level_name = &cube.spec().level(ck.path_level).name;
        if let Some(f) = level_filter {
            if level_name != f {
                continue;
            }
        }
        for (key, entry) in cuboid.iter() {
            rows.push(format!(
                "{:<40} @{:<12} {:>7} paths {:>4} nodes {:>3} exceptions",
                flowcube_core::display_key(key, cube.schema()),
                level_name,
                entry.support,
                entry.graph.len() - 1,
                entry.exceptions.len()
            ));
        }
    }
    rows.sort();
    for r in &rows {
        println!("{r}");
        shown += 1;
        if shown >= limit {
            println!("… ({} more)", rows.len() - shown);
            break;
        }
    }
    println!(
        "total: {} cells in {} cuboids",
        cube.total_cells(),
        cube.num_cuboids()
    );
    Ok(())
}

pub fn query(args: &Args) -> Result<(), CliError> {
    let cube = open_cube(args)?;
    let (key, pl) = cell_at(&cube, args)?;
    match cube.lookup(&key, pl) {
        Some(lk) => {
            if !lk.exact {
                println!(
                    "(cell not materialized; showing nearest ancestor {})",
                    flowcube_core::display_key(lk.source_key, cube.schema())
                );
            }
            println!("{}", cube.describe_cell(lk.source_key, pl));
            print!("{}", lk.entry.graph.render(cube.schema().locations()));
            if !lk.entry.exceptions.is_empty() {
                println!("exceptions: {}", lk.entry.exceptions.len());
            }
            Ok(())
        }
        None => Err("no materialized cell or ancestor found".into()),
    }
}

pub fn mine(args: &Args) -> Result<(), CliError> {
    obs_setup(args);
    let db = read_db(args.require("db")?)?;
    let delta = args.num("min-support", 100u64)?;
    let spec = PathLatticeSpec::try_paper(db.schema().locations(), 4)?;
    let timer = flowcube_obs::Timer::start("mine.encode");
    let tx = TransactionDb::encode(&db, spec, MergePolicy::Sum);
    let encode = timer.stop();
    let algo = parse_algorithm(args.get_or("algorithm", "shared"))?;
    let threads = args.num("threads", 0usize)?;
    let timer = flowcube_obs::Timer::start("mine.run");
    let out = match algo {
        Algorithm::Shared => mine_itemsets(&tx, &SharedConfig::shared(delta).with_threads(threads)),
        Algorithm::Basic => mine_itemsets(&tx, &SharedConfig::basic(delta).with_threads(threads)),
        Algorithm::Cubing => mine_cubing(&db, &tx, &CubingConfig::new(delta).with_threads(threads)),
    };
    let elapsed = timer.stop();
    out.stats.publish(algorithm_prefix(algo));
    println!(
        "{:?}: encode {:?}, mine {:?}; {} frequent patterns, {} candidates counted",
        algo,
        encode,
        elapsed,
        out.stats.total_frequent(),
        out.stats.total_counted()
    );
    println!("candidates per length: {:?}", out.stats.counted_by_length);
    println!("frequent per length:   {:?}", out.stats.frequent_by_length);
    obs_finish(args)
}

/// Predict the next location for an observed partial path within a cell.
pub fn predict(args: &Args) -> Result<(), CliError> {
    let cube = open_cube(args)?;
    let (key, pl) = cell_at(&cube, args)?;
    let lk = cube
        .lookup(&key, pl)
        .ok_or("no materialized cell or ancestor found")?;
    let observed_spec = args.require("observed")?;
    let observed = cube.require_path(observed_spec)?;
    let loc_h = cube.schema().locations();
    let dist = lk
        .entry
        .predict_next(&observed)
        .ok_or("observed prefix not present in this cell's flowgraph")?;
    println!(
        "next-hop prediction after {} ({} exceptions consulted):",
        observed_spec,
        lk.entry.exceptions.len()
    );
    let mut rows: Vec<(f64, String)> = dist
        .probabilities()
        .map(|(k, p)| {
            (
                p,
                k.map_or("(terminate)".to_string(), |l| loc_h.name_of(l).to_string()),
            )
        })
        .collect();
    rows.sort_by(|a, b| b.0.total_cmp(&a.0));
    for (p, name) in rows {
        println!("  {name:<24} {:.1}%", p * 100.0);
    }
    Ok(())
}

/// `flowcube snapshot --snapshot old.snap --out new.snap` — rewrite a
/// format-1 snapshot in the current format.
pub fn snapshot(args: &Args) -> Result<(), CliError> {
    obs_setup(args);
    let old = args.require("snapshot")?;
    let out = args.require("out")?;
    let cube = flowcube_serve::load_v1_cube(old).map_err(|e| CliError::snapshot(old, e))?;
    report_write(out, write_snapshot(&cube, out))?;
    obs_finish(args)
}

/// Start a server per the CLI flags and return its handle without
/// blocking — the piece `serve` and the integration tests share.
pub fn serve_with_handle(args: &Args) -> Result<flowcube_serve::ServerHandle, String> {
    // The server is an observability consumer: always record.
    flowcube_obs::enable();
    let path = args.require("snapshot")?;
    // The one open: any compaction a crash interrupted is resolved
    // first — the marker decides whether the new snapshot is live
    // (finish the sidecar trim) or half-done (discard the attempt).
    let (served, recovery) = ServedCube::open(path.as_ref()).map_err(|e| e.to_string())?;
    if recovery != flowcube_serve::Recovery::Clean {
        println!("recovered interrupted compaction: {recovery:?}");
    }
    println!(
        "opened snapshot {path} ({} cuboids, lazy, {} sidecar deltas)",
        served.total_cuboids(),
        served.pending_deltas()
    );
    let config = flowcube_serve::ServerConfig {
        addr: args.get_or("addr", "127.0.0.1:7070").to_string(),
        workers: args.num("workers", 4usize)?,
        queue_depth: args.num("queue-depth", 64usize)?,
        cache_capacity: args.num("cache", 256usize)?,
        request_deadline: match args.num("deadline-ms", 0u64)? {
            0 => None,
            ms => Some(std::time::Duration::from_millis(ms)),
        },
        degraded_after: args.num("degraded-after", 8u64)?,
        access_log: args.get("access-log").map(|s| s.to_string()),
        slow_request_ms: match args.num("slow-ms", 0u64)? {
            0 => None,
            ms => Some(ms),
        },
        compact_after_bytes: match args.num("compact-after-bytes", 0u64)? {
            0 => None,
            bytes => Some(bytes),
        },
        compact_after_secs: match args.num("compact-after-secs", 0u64)? {
            0 => None,
            secs => Some(secs),
        },
        ..Default::default()
    };
    let handle = flowcube_serve::serve_cube(served, config).map_err(|e| e.to_string())?;
    println!(
        "serving on http://{}/ (try /healthz, /stats, /metrics)",
        handle.addr()
    );
    Ok(handle)
}

/// `flowcube serve` — serve a snapshot until SIGINT/SIGTERM.
pub fn serve(args: &Args) -> Result<(), CliError> {
    let handle = serve_with_handle(args)?;
    handle.wait_for_signals();
    println!("shut down cleanly");
    Ok(())
}

/// `flowcube ingest` — either parse a path text file into a database
/// JSON (batch mode, `--text`), or tail a live readings log into
/// micro-batch cube deltas (incremental mode, `--follow`).
pub fn ingest(args: &Args) -> Result<(), CliError> {
    if args.get("follow").is_some() {
        return ingest_follow(args);
    }
    let text_path = args.require("text")?;
    let schema_from = args.require("schema-from")?;
    let out = args.require("out")?;
    let mode: flowcube_pathdb::IngestMode = args
        .get_or("on-error", "strict")
        .parse()
        .map_err(|e: String| CliError::usage(format!("--on-error: {e}")))?;
    let options = flowcube_pathdb::ParseOptions {
        mode,
        quarantine_cap: args.num("quarantine-cap", 64usize)?,
    };
    let schema = read_db(schema_from)?.schema().clone();
    let text = std::fs::read_to_string(text_path).map_err(|e| format!("{text_path}: {e}"))?;
    // A strict-mode parse failure is a data error: ParseError routes
    // through CoreError::Ingest and exits with code 65 (EX_DATAERR).
    let outcome = flowcube_pathdb::parse_text_with(schema, &text, &options)?;
    let json = serde_json::to_string(&outcome.db).map_err(|e| e.to_string())?;
    std::fs::write(out, json).map_err(|e| format!("{out}: {e}"))?;
    println!(
        "wrote {} records to {out} ({} mode)",
        outcome.db.len(),
        mode
    );
    if !outcome.quarantine.is_empty() {
        eprintln!("{}", outcome.quarantine.summary());
        for entry in &outcome.quarantine.entries {
            match &entry.raw {
                Some(raw) => eprintln!("  line {}: {} | {raw}", entry.line, entry.message),
                None => eprintln!("  line {}: {}", entry.line, entry.message),
            }
        }
        if outcome.quarantine.dropped() > 0 {
            eprintln!(
                "  … {} more (raise --quarantine-cap to keep them)",
                outcome.quarantine.dropped()
            );
        }
    }
    if let Some(qpath) = args.get("quarantine-out") {
        let qjson = serde_json::to_string(&outcome.quarantine).map_err(|e| e.to_string())?;
        std::fs::write(qpath, qjson).map_err(|e| format!("{qpath}: {e}"))?;
        println!("wrote quarantine report to {qpath}");
    }
    Ok(())
}

/// `flowcube ingest --follow` — tail a readings log through the cleaner
/// and emit one [`flowcube_core::CubeDelta`] per committed micro-batch:
/// appended as JSON lines to `--out`, and/or POSTed to a live server's
/// `/admin/ingest` with `--post`.
fn ingest_follow(args: &Args) -> Result<(), CliError> {
    obs_setup(args);
    let log_path = args.require("follow")?;
    let schema = read_db(args.require("db")?)?.schema().clone();

    // Delta parameters mirror the *base cube's* build flags — the delta
    // itself is always computed at δ = 1 (CubeDelta::compute).
    let params = build_params(args)?;
    let spec = PathLatticeSpec::try_paper(schema.locations(), 4)?;

    let config = flowcube_pathdb::CleanerConfig {
        max_same_location_gap: args.num("gap", u64::MAX)?,
        duration_unit: args.num("unit", 1u32)?,
    };
    let mut follower = flowcube_pathdb::Follower::new(schema, config);
    let poll = std::time::Duration::from_millis(args.num("poll-ms", 500u64)?);
    let once = args.flag("once");
    let out_path = args.get("out");
    let post_url = args.get("post");
    // Reject an unusable URL before any log lines are consumed — a late
    // failure would leave batches already emitted to --out.
    if let Some(url) = post_url {
        if !url.starts_with("http://") {
            return Err(CliError::from(format!(
                "--post {url:?}: only http:// URLs are supported"
            )));
        }
    }
    let post_cfg = flowcube_federate::ClientConfig {
        timeout: std::time::Duration::from_millis(args.num("post-timeout-ms", 5000u64)?),
        retries: args.num("post-retries", 3u32)?,
        backoff: std::time::Duration::from_millis(args.num("post-backoff-ms", 100u64)?),
        ..Default::default()
    };

    let mut emitted = 0usize;
    loop {
        let batches = follower.poll_file(log_path).map_err(|e| e.to_string())?;
        for batch in &batches {
            let delta = flowcube_core::CubeDelta::compute(batch, &spec, &params, &ItemPlan::All);
            let json = serde_json::to_string(&delta).map_err(|e| e.to_string())?;
            if let Some(path) = out_path {
                use std::io::Write;
                let mut file = std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path)
                    .map_err(|e| format!("{path}: {e}"))?;
                writeln!(file, "{json}").map_err(|e| format!("{path}: {e}"))?;
            }
            if let Some(url) = post_url {
                let (status, body) = flowcube_federate::http_post(url, &json, &post_cfg)?;
                if status != 200 {
                    return Err(CliError::from(format!(
                        "POST {url} answered {status}: {body}"
                    )));
                }
            }
            emitted += 1;
            println!(
                "delta {emitted}: {} paths, {} cells ({} cuboids)",
                delta.paths,
                delta.total_cells(),
                delta.cuboids.len()
            );
        }
        if follower.finished() || once {
            break;
        }
        std::thread::sleep(poll);
    }
    println!(
        "follow done: {emitted} deltas, {} bytes of log consumed{}",
        follower.offset(),
        if follower.finished() {
            " (log ended)"
        } else {
            ""
        }
    );
    obs_finish(args)
}

pub fn tables(_args: &Args) -> Result<(), CliError> {
    // Delegate to the sample data; same content as examples/paper_tables.
    let db = flowcube_pathdb::samples::paper_table1();
    println!("Table 1 — path database:");
    for r in db.records() {
        println!("  {:>2}  {}", r.id, db.display_record(r));
    }
    let spec = PathLatticeSpec::paper(db.schema().locations(), 1);
    let tx = TransactionDb::encode(&db, spec, MergePolicy::Sum);
    println!("\nTable 3 — transformed transaction database:");
    for i in 0..tx.len() {
        println!("  {:>2}  {}", tx.record_id(i), tx.display_transaction(i));
    }
    Ok(())
}
