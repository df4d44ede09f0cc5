//! The five workloads. Each is set-up → warm-up → fixed-length measured
//! window → correctness gates, and every one reports every end-to-end
//! metric for its own deployment (README.md: "What each metric means on
//! each workload").

use crate::client::Client;
use crate::data::{Workload, BATCH_PATHS, COMPACT_AFTER_BYTES, REPLICAS, SHARDS};
use crate::load::{summarize, verify_targets, Check, Load, WindowResult};
use crate::metrics::Report;
use crate::prepare::{self, Prepared, BASE_PATHS, DATAGEN_DONE, DIMS, PIPELINE};
use crate::serving::{
    apex_target, backend_config, cold_start, counter_delta, histogram_delta, read_probes,
    report_window, serve_snapshot, stop, sub_windows, ReadPhase, CLIENTS, SUB_WINDOW,
};
use crate::targets::{body_json, cell_spec, field_u64, Endpoint, Target, TargetGen};
use crate::trace::{self, timed};
use crate::util::{median, ms, percentile, pin_to_one_cpu, restore_cpus, rss_mb, us, Rng};
use flowcube_core::CubeDelta;
use flowcube_federate::{merge_endpoint, serve_front, FrontConfig, ReplicaSet};
use flowcube_hier::ConceptId;
use flowcube_serve::{
    append_delta, deltalog_path, read_deltas, serve_cube, ServedCube, ServerHandle, Snapshot,
};
use std::hint::black_box;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

pub struct Run {
    pub workload: Workload,
    pub seed: u64,
    /// Length of the measured window (`--seconds`).
    pub window: Duration,
    pub traced: bool,
    /// Scratch directory of this run, inside the checkout.
    pub dir: PathBuf,
}

impl Run {
    pub fn execute(&self, report: &mut Report) -> Result<(), String> {
        match self.workload {
            Workload::BuildFig6 => self.build_fig6(report),
            Workload::ServeHot | Workload::ServeScan => self.serve(report),
            Workload::Federate2x2 => self.federate(report),
            Workload::IngestLive => self.ingest(report),
        }
    }

    /// Set-up in a child process of this binary, so that this process's
    /// RSS never holds a build. Returns what it left in `dir` and how long
    /// it took, from spawning the child to having loaded its manifest.
    fn prepare_in_child(&self, dir: &Path, traced: bool) -> Result<(Prepared, f64), String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let (prepared, took) = timed("setup.child", || {
            let status = Command::new(exe)
                .arg("prepare")
                .args(["--workload", self.workload.name()])
                .args(["--seed", &self.seed.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }])
                .arg("--dir")
                .arg(dir)
                .status()
                .map_err(|e| format!("spawning set-up: {e}"))?;
            if !status.success() {
                return Err(format!("set-up child exited with {status}"));
            }
            Prepared::load(dir)
        });
        Ok((prepared?, took.as_secs_f64()))
    }

    /// The run's set-up. Sets `setup_s` and the pipeline's metrics.
    fn setup_in_child(&self, report: &mut Report) -> Result<Prepared, String> {
        let (prepared, took) = self.prepare_in_child(&self.dir, self.traced)?;
        report.absorb(&prepared.metrics);
        report.set("setup_s", took);
        Ok(prepared)
    }

    /// The same set-up once more, after the measured window and with
    /// nothing else running: `setup_s` and the pipeline's timings are the
    /// faster of the two (see `Report::set_if_faster`).
    fn setup_again(&self, report: &mut Report) -> Result<(), String> {
        let dir = self.dir.join("again");
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let (again, took) = self.prepare_in_child(&dir, false)?;
        report.set_if_faster(&[("setup_s", took)]);
        report.set_if_faster(&PIPELINE.map(|name| (name, again.metrics[name])));
        Ok(())
    }

    // ---- build_fig6 -------------------------------------------------------

    fn build_fig6(&self, report: &mut Report) -> Result<(), String> {
        // The pipeline is the measurement, so it runs in this process.
        let mut prepared = prepare::run(self.workload, self.seed, &self.dir, self.traced);
        report.absorb(&prepared.metrics);
        // Set-up here is data generation alone. It takes a tenth of a
        // second, nearly all of it first-touch page faults, which cost 0.09
        // or 0.14 s depending on what the host is doing; so it is repeated,
        // and the fastest repeat is the one that reads the program.
        let mut setup = prepared.metrics[DATAGEN_DONE];
        for _ in 0..8 {
            let (_, t) = timed("setup.datagen_again", || {
                black_box(prepare::generate_readings(self.workload, self.seed))
            });
            setup = setup.min(t.as_secs_f64());
        }
        report.set("setup_s", setup);

        let cube = prepared.cube.take().expect("set-up ran in this process");
        let paths = prepared.metrics[BASE_PATHS] as u64;
        let dims = prepared.metrics[DIMS] as usize;
        let apex = vec![ConceptId::ROOT; dims];
        for level in cube.spec().ids() {
            let support = cube.cell(&apex, level).map(|e| e.support);
            report.gate(support == Some(paths), || {
                format!("apex support at path level {level} is {support:?}, not {paths}")
            });
        }

        // Reopen what was written: every section must verify, and sampled
        // cells must answer from the file exactly as from memory.
        let snapshot_file = &prepared.snapshots[0];
        pin_to_one_cpu();
        verify_all_probe(snapshot_file, report)?;

        cold_start(snapshot_file, dims, report)?;
        flowcube_obs::enable();
        let (server, _) = serve_snapshot(snapshot_file, backend_config(None))?;
        let mut client = Client::new(server.addr());
        let mut rng = Rng::new(self.seed ^ 0x6669_6736);
        let cells = TargetGen::all_cells(&cube);
        for _ in 0..200 {
            let (ck, key) = &cells[rng.below(cells.len())];
            let level = &cube.spec().level(ck.path_level).name;
            let target = format!("/cell?cell={}&level={level}", cell_spec(cube.schema(), key));
            let entry = cube.cell(key, ck.path_level).expect("listed cell");
            let want = (
                entry.support,
                entry.graph.len() as u64 - 1,
                entry.exceptions.len() as u64,
            );
            let got = client
                .get(&target, 0)
                .map_err(|e| e.to_string())
                .and_then(|_| body_json(client.body()))
                .and_then(|v| {
                    Ok((
                        field_u64(&v, "support")?,
                        field_u64(&v, "nodes")?,
                        field_u64(&v, "exceptions")?,
                    ))
                });
            report.count_ops(1, 0);
            if got.as_ref() != Ok(&want) {
                report.failed += 1;
                report
                    .violations
                    .push(format!("{target}: memory says {want:?}, snapshot {got:?}"));
            }
        }
        drop(cube);

        // The freshly built cube under the `serve_hot` mix, for half the
        // window: the build takes the larger part of this workload's run.
        ReadPhase {
            addr: server.addr(),
            targets: &prepared.targets,
            skewed: true,
            seed: self.seed,
            warmup: Duration::from_secs(2),
            window: self.window / 2,
            traced: self.traced,
        }
        .run(report)?;
        if self.traced {
            read_probes(server.addr(), &prepared.targets, true, self.seed, report);
            let stages = report.get("pathdb.clean_s")
                + report.get("core.build_s")
                + report.get("serve.snapshot_write_s");
            let wall = report.get("build_wall_s");
            report.gate((stages - wall).abs() <= 0.03 * wall, || {
                format!("build stages sum to {stages:.3} s but build_wall_s is {wall:.3} s")
            });
        }
        stop(server);
        cold_start(snapshot_file, dims, report)?;
        Ok(())
    }

    // ---- serve_hot / serve_scan -------------------------------------------

    fn serve(&self, report: &mut Report) -> Result<(), String> {
        let prepared = self.setup_in_child(report)?;
        let both_cpus = pin_to_one_cpu();
        let snapshot_file = &prepared.snapshots[0];
        let dims = prepared.metrics[DIMS] as usize;
        cold_start(snapshot_file, dims, report)?;
        if self.traced {
            verify_all_probe(snapshot_file, report)?;
        }
        flowcube_obs::enable();
        let (server, _) = serve_snapshot(snapshot_file, backend_config(None))?;
        let hot = self.workload == Workload::ServeHot;
        ReadPhase {
            addr: server.addr(),
            targets: &prepared.targets,
            skewed: hot,
            seed: self.seed,
            warmup: Duration::from_secs(4),
            window: self.window,
            traced: self.traced,
        }
        .run(report)?;
        // The two workloads are defined by which side of the response
        // cache they sit on; a cache change must not blur that.
        let hit_ratio = report.get("serve.cache.hit_ratio");
        report.gate(
            if hot {
                hit_ratio >= 0.95
            } else {
                hit_ratio <= 0.05
            },
            || {
                format!(
                    "{} saw a cache hit ratio of {hit_ratio:.3}",
                    self.workload.name()
                )
            },
        );
        if self.traced {
            read_probes(server.addr(), &prepared.targets, hot, self.seed, report);
        }
        stop(server);
        cold_start(snapshot_file, dims, report)?;
        restore_cpus(both_cpus);
        self.setup_again(report)
    }

    // ---- federate_2x2 -----------------------------------------------------

    fn federate(&self, report: &mut Report) -> Result<(), String> {
        let prepared = self.setup_in_child(report)?;
        let both_cpus = pin_to_one_cpu();
        let dims = prepared.metrics[DIMS] as usize;
        cold_start(&prepared.snapshots[0], dims, report)?;
        if self.traced {
            verify_all_probe(&prepared.snapshots[0], report)?;
        }
        flowcube_obs::enable();
        let mut shards: Vec<Vec<ServerHandle>> = Vec::new();
        for snapshot_file in &prepared.snapshots {
            let replicas = (0..REPLICAS)
                .map(|_| serve_snapshot(snapshot_file, backend_config(None)).map(|(s, _)| s))
                .collect::<Result<Vec<_>, _>>()?;
            shards.push(replicas);
        }
        // `flowcube federate --workers 2`: default deadline, shard
        // timeout, adaptive hedge, retry budget and breaker policy.
        let front = serve_front(FrontConfig {
            backends: shards
                .iter()
                .map(|replicas| ReplicaSet {
                    replicas: replicas.iter().map(|r| r.addr().to_string()).collect(),
                })
                .collect(),
            shards: SHARDS,
            workers: 2,
            ..Default::default()
        })
        .map_err(|e| e.to_string())?;

        // Healthy window, four fifths of the run's. The warm-up is longer
        // than a single server's: shard hydration and the hedge-delay
        // estimator take ~5 s to settle.
        let outcome = ReadPhase {
            addr: front.addr(),
            targets: &prepared.targets,
            skewed: true,
            seed: self.seed,
            warmup: Duration::from_secs(5),
            window: self.window * 4 / 5,
            traced: self.traced,
        }
        .run(report)?;
        let (before, after) = (&outcome.before, &outcome.after);
        let requests = counter_delta(before, after, "federate.requests.total").max(1) as f64;
        let replica =
            |name: &str| counter_delta(before, after, &format!("federate.replica.{name}")) as f64;
        let partial = counter_delta(before, after, "federate.responses.partial");
        report.gate(partial == 0, || {
            format!("{partial} partial answers in the healthy window")
        });
        report.set("federate.partial_ratio", partial as f64 / requests);
        report.set(
            "federate.attempts_per_request",
            replica("selected") / requests,
        );
        report.set("federate.hedged_ratio", replica("hedged") / requests);
        report.set(
            "federate.hedge_won_ratio",
            replica("hedge_won") / replica("hedged").max(1.0),
        );
        report.set("federate.retried", replica("retried"));
        report.set("federate.breaker_open", replica("breaker_open"));
        if self.traced {
            timed("probe.federate", || {
                federate_probes(&shards, &prepared.targets, report)
            })
            .0?;
            // The same transport floor, seen on one shard backend.
            read_probes(
                shards[0][0].addr(),
                &prepared.targets,
                true,
                self.seed,
                report,
            );
        }

        // Degraded window, the remaining fifth: one replica of every shard
        // goes away. Retries and breakers must keep every answer a full 200.
        for replicas in &mut shards {
            stop(replicas.pop().expect("two replicas per shard"));
        }
        let load = Load {
            addr: front.addr(),
            targets: &prepared.targets,
            check: Check::Hash(&outcome.hashes),
            skewed: true,
            clients: CLIENTS,
            seed: self.seed ^ 0x6465_6772,
        };
        let (result, _) = timed("window.degraded", || {
            load.run(SUB_WINDOW, &sub_windows(false, self.window / 5))
        });
        let degraded = summarize(&result.subs);
        report.count_ops(degraded.ok, degraded.failed);
        for failure in &result.failures {
            eprintln!("failed op (degraded): {failure}");
        }
        report.set("federate.degraded.p50_us", degraded.p50_us);
        report.set("federate.degraded.p99_us", degraded.p99_us);
        report.set(
            "federate.degraded.full_ratio",
            degraded.ok as f64 / (degraded.ok + degraded.failed).max(1) as f64,
        );

        front.shutdown();
        front.join();
        shards.into_iter().flatten().for_each(stop);
        cold_start(&prepared.snapshots[0], dims, report)?;
        restore_cpus(both_cpus);
        self.setup_again(report)
    }

    // ---- ingest_live ------------------------------------------------------

    fn ingest(&self, report: &mut Report) -> Result<(), String> {
        let prepared = self.setup_in_child(report)?;
        let snapshot_file = &prepared.snapshots[0];
        let dims = prepared.metrics[DIMS] as usize;
        cold_start(snapshot_file, dims, report)?;
        if self.traced {
            verify_all_probe(snapshot_file, report)?;
        }
        let bodies: Vec<Vec<u8>> = prepared
            .deltas
            .iter()
            .map(|p| std::fs::read(p).map_err(|e| format!("{}: {e}", p.display())))
            .collect::<Result<_, _>>()?;

        flowcube_obs::enable();
        let (server, _) = serve_snapshot(snapshot_file, backend_config(Some(COMPACT_AFTER_BYTES)))?;
        let addr = server.addr();
        verify_targets(addr, &prepared.targets)?;
        let reader = Load {
            addr,
            targets: &prepared.targets,
            check: Check::SupportAtLeast,
            skewed: true,
            clients: 1,
            seed: self.seed,
        };
        let mut writer = Writer::new(addr, &bodies, snapshot_file);

        // Warm-up: both clients, unmeasured (its acknowledged paths still
        // count towards the final support check).
        timed("warmup.load", || {
            writer.run_beside(&reader, Duration::from_secs(4), &[false])
        });
        let warm_acks = writer.acked;

        let before = flowcube_obs::snapshot();
        let traced_subs = &sub_windows(self.traced, self.window);
        writer.reset_window();
        let (reads, _) = timed("window.ingest", || {
            writer.run_beside(&reader, SUB_WINDOW, traced_subs)
        });
        let after = flowcube_obs::snapshot();
        let rss = rss_mb();

        let acks = writer.acked - warm_acks;
        let plain = reads.summary_of(traced_subs, false);
        // The delta shipper is this workload's primary client: `rps` is
        // its acknowledged requests per second, from the window's start to
        // its last acknowledgement. The reader's throughput is coupled to
        // how often the cube is swapped, so it stays a per-layer number.
        let ingest_rps = acks as f64 / writer.last_ack_s.max(1e-9);
        report.set("rps", ingest_rps);
        report.set("p50_us", plain.p50_us);
        report.set("serve_rss_mb", rss);
        report_window(&reads, traced_subs, self.traced, report);
        report.count_ops(acks, writer.failed);
        for failure in &writer.failures {
            eprintln!("failed op: {failure}");
        }

        writer.latencies_ms.sort_by(f64::total_cmp);
        let latencies = &writer.latencies_ms;
        report.set("serve.ingest_paths_per_s", ingest_rps * BATCH_PATHS as f64);
        report.set("serve.ingest_p50_ms", percentile(latencies, 0.5));
        report.set("serve.ingest_p90_ms", percentile(latencies, 0.9));
        report.set("serve.reader_rps", plain.rps);
        let compactions = counter_delta(&before, &after, "serve.compact.ok");
        // Background work must have cycled several times for the write
        // amplification to have levelled off (about 15 cycles in 25 s here).
        report.gate(compactions >= 5, || {
            format!("only {compactions} compaction cycles in the window")
        });
        report.set("serve.compactions", compactions as f64);
        let (fold_us, folds) = histogram_delta(&before, &after, "serve.compact.fold_us");
        report.set("serve.compact_ms", fold_us / 1e3 / folds.max(1) as f64);
        report.set(
            "serve.compact_bytes_rewritten",
            writer.rewritten_bytes as f64,
        );
        report.set(
            "serve.write_bytes_per_path",
            (writer.appended_bytes + writer.rewritten_bytes) as f64
                / (acks as usize * BATCH_PATHS).max(1) as f64,
        );
        if self.traced {
            writer.probes(&server, &self.dir, dims, report)?;
            read_probes(addr, &prepared.targets, true, self.seed, report);
        }

        // Freshness and durability. Every acknowledged path must be in
        // the apex, an explicit compaction must succeed, and a fresh open
        // of the files must replay to the same answer.
        let want = prepared.metrics[BASE_PATHS] as u64 + writer.acked * BATCH_PATHS as u64;
        let apex = apex_target(dims);
        let mut client = Client::new(addr);
        let live = apex_support(&mut client, &apex);
        report.gate(live == Ok(want), || {
            format!("live apex support is {live:?}, acknowledged paths make it {want}")
        });
        let compacted = client.post("/admin/compact", b"");
        report.gate(matches!(compacted, Ok(200)), || {
            format!("POST /admin/compact: {compacted:?}")
        });
        stop(server);
        let reopened = (|| {
            let snapshot = Snapshot::open(snapshot_file).map_err(|e| e.to_string())?;
            let deltas = read_deltas(&deltalog_path(snapshot_file)).map_err(|e| e.to_string())?;
            let served = ServedCube::from_snapshot_with_deltas(snapshot, deltas);
            let server = serve_cube(served, backend_config(None)).map_err(|e| e.to_string())?;
            let support = apex_support(&mut Client::new(server.addr()), &apex);
            stop(server);
            support
        })();
        report.count_ops(3, 0);
        report.gate(reopened == Ok(want), || {
            format!("reopened files answer {reopened:?}, not {want}")
        });
        self.setup_again(report)
    }
}

fn verify_all_probe(snapshot_file: &Path, report: &mut Report) -> Result<(), String> {
    let (verified, t) = timed("serve.verify_all", || {
        Snapshot::open(snapshot_file).and_then(|s| s.verify_all())
    });
    report.set("serve.verify_all_ms", ms(t));
    verified.map_err(|e| format!("verify_all: {e}"))
}

fn apex_support(client: &mut Client, apex: &str) -> Result<u64, String> {
    match client.get(apex, 0) {
        Ok(200) => field_u64(&body_json(client.body())?, "support"),
        other => Err(format!("{apex}: {other:?}")),
    }
}

/// The closed-loop delta shipper: posts the pre-computed bodies
/// back-to-back, each after the previous acknowledgement.
struct Writer<'a> {
    addr: SocketAddr,
    bodies: &'a [Vec<u8>],
    snapshot_file: &'a Path,
    next: usize,
    /// Acknowledged ingests since the server started.
    acked: u64,
    last_pending: u64,
    // Reset per window:
    failed: u64,
    latencies_ms: Vec<f64>,
    /// Seconds from the window's start to its last acknowledgement.
    last_ack_s: f64,
    /// Sidecar bytes appended (payload plus the 12-byte record header).
    appended_bytes: u64,
    /// Snapshot bytes rewritten by the compactions seen.
    rewritten_bytes: u64,
    failures: Vec<String>,
}

impl<'a> Writer<'a> {
    fn new(addr: SocketAddr, bodies: &'a [Vec<u8>], snapshot_file: &'a Path) -> Self {
        Writer {
            addr,
            bodies,
            snapshot_file,
            next: 0,
            acked: 0,
            last_pending: 0,
            failed: 0,
            latencies_ms: Vec::new(),
            last_ack_s: 0.0,
            appended_bytes: 0,
            rewritten_bytes: 0,
            failures: Vec::new(),
        }
    }

    fn reset_window(&mut self) {
        self.failed = 0;
        self.latencies_ms.clear();
        self.last_ack_s = 0.0;
        self.appended_bytes = 0;
        self.rewritten_bytes = 0;
        self.failures.clear();
    }

    /// One ingest round trip; returns its latency when acknowledged.
    fn post_one(&mut self, client: &mut Client) -> Option<Duration> {
        let body = &self.bodies[self.next % self.bodies.len()];
        self.next += 1;
        let start = Instant::now();
        let status = client.post("/admin/ingest", body);
        let elapsed = start.elapsed();
        trace::leaf("client.ingest", start, start + elapsed, 0);
        let pending = match status {
            Ok(200) => body_json(client.body()).and_then(|v| field_u64(&v, "pending_deltas")),
            other => Err(format!(
                "{other:?}: {}",
                String::from_utf8_lossy(client.body())
            )),
        };
        match pending {
            Ok(pending) => {
                self.acked += 1;
                self.appended_bytes += body.len() as u64 + 12;
                // The answer is rendered before a size-triggered fold runs,
                // so a fold shows as the next answer's count not growing.
                if pending <= self.last_pending {
                    self.rewritten_bytes += std::fs::metadata(self.snapshot_file)
                        .map(|m| m.len())
                        .unwrap_or(0);
                }
                self.last_pending = pending;
                Some(elapsed)
            }
            Err(e) => {
                self.failed += 1;
                if self.failures.len() < 5 {
                    self.failures.push(format!("/admin/ingest: {e}"));
                }
                None
            }
        }
    }

    /// Run the reader's window with this writer posting beside it; the
    /// writer stops at the first acknowledgement after the window closes.
    fn run_beside(
        &mut self,
        reader: &Load<'_>,
        sub_len: Duration,
        traced_subs: &[bool],
    ) -> WindowResult {
        let done = AtomicBool::new(false);
        let parent_span = trace::current();
        std::thread::scope(|scope| {
            let writer = scope.spawn(|| {
                trace::adopt(parent_span);
                let mut client = Client::new(self.addr);
                let start = Instant::now();
                while !done.load(Ordering::Relaxed) {
                    if let Some(latency) = self.post_one(&mut client) {
                        self.latencies_ms.push(ms(latency));
                        self.last_ack_s = start.elapsed().as_secs_f64();
                    }
                }
            });
            let reads = reader.run(sub_len, traced_subs);
            done.store(true, Ordering::Relaxed);
            writer.join().expect("writer panicked");
            reads
        })
    }

    /// The serve write path, piece by piece, on the quiet server.
    fn probes(
        &mut self,
        server: &ServerHandle,
        dir: &Path,
        dims: usize,
        report: &mut Report,
    ) -> Result<(), String> {
        let body = &self.bodies[0];
        let state = server.state();
        let apply: Vec<f64> = (0..5)
            .map(|_| {
                let (answer, t) = timed("serve.ingest_apply", || state.ingest(body));
                self.acked += u64::from(answer.is_ok());
                ms(t)
            })
            .collect();
        report.set("serve.ingest_apply_ms", median(apply));

        let text = std::str::from_utf8(body).map_err(|_| "delta body is not UTF-8")?;
        let delta: CubeDelta = serde_json::from_str(text).map_err(|e| e.to_string())?;
        let sidecar = dir.join("probe.deltas");
        let append: Vec<f64> = (0..9)
            .map(|_| {
                let (result, t) = timed("serve.deltalog_append", || append_delta(&sidecar, &delta));
                result.map(|()| ms(t)).map_err(|e| e.to_string())
            })
            .collect::<Result<_, _>>()?;
        report.set("serve.deltalog_append_ms", median(append));
        let read: Vec<f64> = (0..5)
            .map(|_| {
                let (result, t) = timed("serve.deltalog_read", || read_deltas(&sidecar));
                result
                    .map(|d| ms(t) / d.len() as f64)
                    .map_err(|e| e.to_string())
            })
            .collect::<Result<_, _>>()?;
        // Per record, so the figure does not depend on the probe's log length.
        report.set("serve.deltalog_read_ms", median(read));

        let apex = apex_target(dims);
        let mut client = Client::new(server.addr());
        let mut rehydrate = Vec::new();
        for _ in 0..5 {
            if self.post_one(&mut client).is_none() {
                return Err("rehydrate probe: ingest was not acknowledged".into());
            }
            let (status, t) = timed("serve.rehydrate", || client.get(&apex, 0));
            if !matches!(status, Ok(200)) {
                return Err(format!("rehydrate probe: {status:?}"));
            }
            rehydrate.push(ms(t));
        }
        report.set("serve.rehydrate_ms", median(rehydrate));
        Ok(())
    }
}

/// The federate layer on its own, single client, on the quiet
/// federation: what the front adds over a direct hit, what a shard leg
/// costs, and what each gather function costs.
fn federate_probes(
    shards: &[Vec<ServerHandle>],
    targets: &[Target],
    report: &mut Report,
) -> Result<(), String> {
    let direct = shards[0][0].addr();
    let sample: Vec<&Target> = targets.iter().take(64).collect();
    let latencies = |addr: SocketAddr| -> Vec<f64> {
        let mut client = Client::new(addr);
        let mut out = Vec::new();
        for _ in 0..5 {
            for target in &sample {
                let start = Instant::now();
                if matches!(client.get(&target.target, 0), Ok(200)) {
                    out.push(us(start.elapsed()));
                }
            }
        }
        out.sort_by(f64::total_cmp);
        out
    };
    // A 1 shard × 1 replica front passes the backend's body through
    // untouched, so its cost over a direct hit is the front's overhead.
    let passthrough = serve_front(FrontConfig {
        backends: vec![ReplicaSet::single(direct.to_string())],
        shards: 1,
        workers: 2,
        ..Default::default()
    })
    .map_err(|e| e.to_string())?;
    let rtt = latencies(direct);
    let through = latencies(passthrough.addr());
    passthrough.shutdown();
    passthrough.join();
    report.set("federate.shard_rtt_p50_us", percentile(&rtt, 0.5));
    report.set("federate.shard_rtt_p95_us", percentile(&rtt, 0.95));
    report.set(
        "federate.front_overhead_us",
        percentile(&through, 0.5) - percentile(&rtt, 0.5),
    );

    for endpoint in Endpoint::FEDERATED {
        let Some(target) = targets.iter().find(|t| t.endpoint == endpoint) else {
            continue;
        };
        let bodies = shards
            .iter()
            .map(|replicas| {
                let mut client = Client::new(replicas[0].addr());
                match client.get(&target.target, 0) {
                    Ok(200) => body_json(client.body()),
                    other => Err(format!("{}: {other:?}", target.target)),
                }
            })
            .collect::<Result<Vec<_>, _>>()?;
        let samples: Vec<f64> = (0..15)
            .map(|_| {
                let (_, t) = timed("federate.merge_endpoint", || {
                    for _ in 0..50 {
                        black_box(merge_endpoint(endpoint.route(), 5, black_box(&bodies)).is_ok());
                    }
                });
                us(t) / 50.0
            })
            .collect();
        report.set(
            &format!("federate.gather_us.{}", endpoint.tag()),
            median(samples),
        );
    }
    Ok(())
}
