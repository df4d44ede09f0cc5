//! Pieces every workload shares once a snapshot file exists: booting a
//! snapshot-backed server the way `flowcube serve` does, the cold-start
//! measurement, the warm-up → measured-window read phase, and the
//! single-client probes of the serve read path.

use crate::client::Client;
use crate::load::{summarize, verify_targets, Check, Load, WindowResult};
use crate::metrics::Report;
use crate::targets::{Endpoint, Target};
use crate::trace::timed;
use crate::util::{median, ms, percentile, rss_mb, us, Popularity, Rng};
use flowcube_obs::MetricsSnapshot;
use flowcube_serve::{serve_cube, ServedCube, ServerConfig, ServerHandle, Snapshot};
use std::net::SocketAddr;
use std::path::Path;
use std::time::{Duration, Instant};

/// Closed-loop analysts per read window — the box has two cores.
pub const CLIENTS: usize = 2;

/// `flowcube serve --workers 2`: default 256-entry response cache,
/// default queue depth and socket timeouts.
pub fn backend_config(compact_after_bytes: Option<u64>) -> ServerConfig {
    ServerConfig {
        workers: 2,
        compact_after_bytes,
        ..Default::default()
    }
}

/// `Snapshot::open → ServedCube::from_snapshot → serve_cube`; also
/// returns how long the open took.
pub fn serve_snapshot(
    path: &Path,
    config: ServerConfig,
) -> Result<(ServerHandle, Duration), String> {
    let (snapshot, t_open) = timed("serve.snapshot_open", || Snapshot::open(path));
    let served = ServedCube::from_snapshot(snapshot.map_err(|e| e.to_string())?);
    let (server, _) = timed("serve.serve_cube", || serve_cube(served, config));
    Ok((server.map_err(|e| e.to_string())?, t_open))
}

pub fn stop(server: ServerHandle) {
    server.shutdown();
    server.join();
}

/// `/cell` of the apex at the finest path level: the first query of a
/// cold server, which hydrates that whole path level.
pub fn apex_target(dims: usize) -> String {
    format!("/cell?cell={}&level=loc0/dur0", vec!["*"; dims].join(","))
}

/// File to first answer, three times: `Snapshot::open` → `serve_cube` →
/// first 200 over the socket. Sets `cold_start_ms` (median) and the
/// per-stage medians of the serve file path. Called before and after the
/// measured window; the faster trio is the one reported.
pub fn cold_start(path: &Path, dims: usize, report: &mut Report) -> Result<(), String> {
    let target = apex_target(dims);
    let (mut total, mut open, mut first) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..3 {
        let start = Instant::now();
        let (server, t_open) = serve_snapshot(path, backend_config(None))?;
        let mut client = Client::new(server.addr());
        let (status, t_first) = timed("serve.first_query", || client.get(&target, 0));
        total.push(ms(start.elapsed()));
        open.push(ms(t_open));
        first.push(ms(t_first));
        let status = status.map_err(|e| format!("cold start {target}: {e}"));
        stop(server);
        if status? != 200 {
            return Err(format!("cold start {target} did not answer 200"));
        }
    }
    report.set_if_faster(&[
        ("cold_start_ms", median(total)),
        ("serve.snapshot_open_ms", median(open)),
        ("serve.first_query_ms", median(first)),
    ]);
    Ok(())
}

/// Sum of every series of a (possibly labeled) counter family.
fn counter(snapshot: &MetricsSnapshot, name: &str) -> u64 {
    let labeled = format!("{name}{{");
    snapshot
        .counters
        .iter()
        .filter(|(k, _)| *k == name || k.starts_with(&labeled))
        .map(|(_, v)| *v)
        .sum()
}

/// Growth of a product counter between two registry snapshots.
pub fn counter_delta(before: &MetricsSnapshot, after: &MetricsSnapshot, name: &str) -> u64 {
    counter(after, name).saturating_sub(counter(before, name))
}

/// `(sum, count)` growth of a product histogram between two snapshots.
pub fn histogram_delta(
    before: &MetricsSnapshot,
    after: &MetricsSnapshot,
    name: &str,
) -> (f64, u64) {
    let at = |s: &MetricsSnapshot| {
        s.histograms
            .get(name)
            .map_or((0.0, 0), |h| (h.sum, h.count))
    };
    let (b, a) = (at(before), at(after));
    (a.0 - b.0, a.1.saturating_sub(b.1))
}

/// p99 of the observations a product histogram gained between two
/// snapshots, as the upper bound of the log₂ bucket it falls in.
fn histogram_p99(before: &MetricsSnapshot, after: &MetricsSnapshot, name: &str) -> f64 {
    let Some(after) = after.histograms.get(name) else {
        return 0.0;
    };
    let before_at = |le: f64| {
        before
            .histograms
            .get(name)
            .and_then(|h| h.buckets.iter().rev().find(|b| b.le <= le))
            .map_or(0, |b| b.count)
    };
    let before_total = before.histograms.get(name).map_or(0, |h| h.count);
    let gained = after.count.saturating_sub(before_total);
    let rank = (gained as f64 * 0.99).ceil() as u64;
    after
        .buckets
        .iter()
        .find(|b| b.count.saturating_sub(before_at(b.le)) >= rank)
        .map_or(0.0, |b| b.le)
}

/// A window is cut into half-second sub-windows, so that the best of them
/// (`load::Summary`) still stands when interference takes all but half a
/// second of the window.
pub const SUB_WINDOW: Duration = Duration::from_millis(500);

/// Which of a window's sub-windows record request spans. A traced run
/// alternates off-on-on-off, so that a drift in throughput across the
/// window cancels out of the difference that is reported as trace
/// overhead.
pub fn sub_windows(traced: bool, window: Duration) -> Vec<bool> {
    let count = (window.as_millis() / SUB_WINDOW.as_millis()).max(1) as usize;
    (0..count)
        .map(|i| traced && matches!(i % 4, 1 | 2))
        .collect()
}

pub struct ReadPhase<'a> {
    pub addr: SocketAddr,
    pub targets: &'a [Target],
    pub skewed: bool,
    pub seed: u64,
    pub warmup: Duration,
    pub window: Duration,
    pub traced: bool,
}

/// What a read phase leaves for the caller's own metrics.
pub struct ReadOutcome {
    /// Body hash per target, recorded while checking against the oracle.
    pub hashes: Vec<u64>,
    pub before: MetricsSnapshot,
    pub after: MetricsSnapshot,
}

impl ReadPhase<'_> {
    /// Warm-up (every target checked against the oracle once, then
    /// unmeasured closed-loop load) followed by the measured window.
    /// Sets `rps`, `p50_us`, `serve_rss_mb` and the window's
    /// per-layer counters.
    pub fn run(&self, report: &mut Report) -> Result<ReadOutcome, String> {
        let warm_start = Instant::now();
        let (hashes, _) = timed("warmup.verify_targets", || {
            verify_targets(self.addr, self.targets)
        });
        let hashes = hashes?;
        let load = Load {
            addr: self.addr,
            targets: self.targets,
            check: Check::Hash(&hashes),
            skewed: self.skewed,
            clients: CLIENTS,
            seed: self.seed,
        };
        let rest = self
            .warmup
            .saturating_sub(warm_start.elapsed())
            .max(Duration::from_millis(500));
        timed("warmup.load", || load.run(rest, &[false]));

        let traced_subs = &sub_windows(self.traced, self.window);
        let before = flowcube_obs::snapshot();
        let rss_before = rss_mb();
        let (result, _) = timed("window.read", || load.run(SUB_WINDOW, traced_subs));
        let rss_after = rss_mb();
        let after = flowcube_obs::snapshot();

        let plain = result.summary_of(traced_subs, false);
        report.set("rps", plain.rps);
        report.set("p50_us", plain.p50_us);
        report.set("serve_rss_mb", rss_after);
        report_window(&result, traced_subs, self.traced, report);

        let hits = counter_delta(&before, &after, "serve.cache.hits");
        let misses = counter_delta(&before, &after, "serve.cache.misses");
        report.set(
            "serve.cache.hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
        );
        report.set(
            "serve.cache.evictions",
            counter_delta(&before, &after, "serve.cache.evictions") as f64,
        );
        report.set(
            "serve.queue_wait_p99_us",
            histogram_p99(&before, &after, "serve.queue.wait_us"),
        );
        report.set(
            "serve.shed",
            counter_delta(&before, &after, "serve.shed") as f64,
        );
        report.set(
            "serve.rss_growth_bytes_per_request",
            (rss_after - rss_before) * 1e6 / result.requests.max(1) as f64,
        );
        Ok(ReadOutcome {
            hashes,
            before,
            after,
        })
    }
}

/// What every read window reports beside its end-to-end metrics: the
/// operation counts, the client-side per-layer numbers, and (traced runs)
/// the throughput lost to the benchmark's own request spans.
pub fn report_window(
    result: &WindowResult,
    traced_subs: &[bool],
    traced: bool,
    report: &mut Report,
) {
    let all = summarize(&result.subs);
    report.count_ops(all.ok, all.failed);
    for failure in &result.failures {
        eprintln!("failed op: {failure}");
    }
    let per_request = |total: u64| total as f64 / result.requests.max(1) as f64;
    report.set("serve.connects_per_request", per_request(result.connects));
    report.set(
        "serve.bytes_per_response",
        per_request(result.response_bytes),
    );
    // Tails are per-layer only: on the 2-core reference box a p99 does
    // not repeat within a tenth from run to run, so it cannot be gated.
    let plain = result.summary_of(traced_subs, false);
    report.set("client.p99_us", plain.p99_us);
    report.set("client.p999_us", plain.p999_us);
    report.set("client.max_us", plain.max_us);
    if traced {
        let with_spans = result.summary_of(traced_subs, true).rps;
        report.set(
            "obs.trace_overhead_pct",
            100.0 * (plain.rps - with_spans) / plain.rps,
        );
    }
}

/// Median latency of `count` sequential GETs from one client.
fn p50_of(addr: SocketAddr, count: usize, mut target: impl FnMut(usize) -> String) -> f64 {
    let mut client = Client::new(addr);
    let mut samples = Vec::with_capacity(count);
    for i in 0..count {
        let target = target(i);
        let start = Instant::now();
        let status = client.get(&target, 0);
        let elapsed = start.elapsed();
        if matches!(status, Ok(200)) {
            samples.push(us(elapsed));
        }
    }
    samples.sort_by(f64::total_cmp);
    percentile(&samples, 0.5)
}

/// The serve read path, one client, nothing else running: the transport
/// floor, a cache hit, and a guaranteed miss per endpoint. A miss is
/// forced on an already hydrated cuboid by a `nonce` parameter, which
/// enters the cache key and which no handler reads.
pub fn read_probes(
    addr: SocketAddr,
    targets: &[Target],
    skewed: bool,
    seed: u64,
    report: &mut Report,
) {
    timed("probe.serve_reads", || {
        report.set(
            "serve.http_floor_us",
            p50_of(addr, 300, |_| "/healthz".to_string()),
        );
        if let Some(cached) = targets.iter().find(|t| t.endpoint == Endpoint::PathsTopk) {
            report.set(
                "serve.cache_hit_us",
                p50_of(addr, 300, |_| cached.target.clone()),
            );
        }
        for endpoint in Endpoint::ALL {
            let of_kind: Vec<&Target> = targets
                .iter()
                .filter(|t| t.endpoint == endpoint)
                .take(200)
                .collect();
            if of_kind.is_empty() {
                continue;
            }
            let p50 = p50_of(addr, of_kind.len(), |i| {
                format!("{}&nonce={i}", of_kind[i].target)
            });
            report.set(&format!("serve.miss_us.{}", endpoint.tag()), p50);
        }
        let popularity = Popularity::new(skewed, targets.len());
        let mut rng = Rng::new(seed ^ 0x6331);
        report.set(
            "client.c1_p50_us",
            p50_of(addr, 500, |_| {
                targets[popularity.sample(&mut rng)].target.clone()
            }),
        );
    });
}
