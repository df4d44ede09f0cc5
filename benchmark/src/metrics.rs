//! The declared metrics — the names every later issue uses — and the
//! report one run fills in. `BENCHMARK.json` is generated from these
//! tables (`describe` subcommand), so the two cannot drift apart.

use crate::data::Workload;
use std::collections::BTreeMap;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        higher_is_better: higher,
        bound,
    }
}

/// Every workload reports every one of these (README.md says what each
/// means on each workload). A bound is at least three times the widest
/// spread any workload showed for the metric over ten seeds on the 2-core
/// reference box (README.md "Bounds"); the contract caps it at 0.25, and
/// every timing and the serving RSS (which grows with the requests a run
/// fits in) take all of that: the box's own speed drifts by a fifth or
/// more within minutes.
pub const END_TO_END: &[EndToEnd] = &[
    e2e("setup_s", "s", false, 0.25),
    e2e("build_wall_s", "s", false, 0.25),
    e2e("build_peak_rss_mb", "MB", false, 0.10),
    e2e("snapshot_mb", "MB", false, 0.10),
    e2e("cold_start_ms", "ms", false, 0.25),
    e2e("rps", "1/s", true, 0.25),
    e2e("p50_us", "us", false, 0.25),
    e2e("serve_rss_mb", "MB", false, 0.25),
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        higher_is_better: false,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        higher_is_better: true,
    }
}

/// Layers are the crate names. A traced run reports every one of these;
/// one a workload does not exercise reads 0 there (README.md has the
/// layer × workload table).
pub const PER_LAYER: &[PerLayer] = &[
    lower("datagen.generate_s", "s"),
    lower("datagen.to_readings_s", "s"),
    lower("pathdb.clean_s", "s"),
    lower("pathdb.readings", "count"),
    lower("mining.encode_s", "s"),
    lower("mining.shared_s", "s"),
    lower("mining.scans", "count"),
    lower("mining.candidates_counted", "count"),
    lower("mining.frequent_patterns", "count"),
    higher("mining.prune_ratio", "ratio"),
    lower("core.build_s", "s"),
    lower("core.materialize_s", "s"),
    lower("core.cells", "count"),
    lower("core.cuboids", "count"),
    higher("core.cells_pruned_redundant", "count"),
    lower("core.delta_compute_ms", "ms"),
    lower("core.apply_delta_ms", "ms"),
    lower("flowgraph.build_apex_ms", "ms"),
    lower("flowgraph.exceptions_apex_ms", "ms"),
    lower("flowgraph.kl_us", "us"),
    lower("flowgraph.topk_us", "us"),
    lower("serve.snapshot_write_s", "s"),
    lower("serve.snapshot_open_ms", "ms"),
    lower("serve.verify_all_ms", "ms"),
    lower("serve.first_query_ms", "ms"),
    lower("serve.snapshot_bytes_per_cell", "bytes"),
    lower("serve.http_floor_us", "us"),
    lower("serve.cache_hit_us", "us"),
    lower("serve.miss_us.cell", "us"),
    lower("serve.miss_us.rollup", "us"),
    lower("serve.miss_us.drilldown", "us"),
    lower("serve.miss_us.slice", "us"),
    lower("serve.miss_us.dice", "us"),
    lower("serve.miss_us.paths_topk", "us"),
    lower("serve.miss_us.paths_probability", "us"),
    lower("serve.miss_us.exceptions", "us"),
    higher("serve.cache.hit_ratio", "ratio"),
    lower("serve.cache.evictions", "count"),
    lower("serve.queue_wait_p99_us", "us"),
    lower("serve.shed", "count"),
    lower("serve.connects_per_request", "ratio"),
    lower("serve.bytes_per_response", "bytes"),
    lower("serve.rss_growth_bytes_per_request", "bytes"),
    higher("serve.ingest_paths_per_s", "1/s"),
    lower("serve.ingest_p50_ms", "ms"),
    lower("serve.ingest_p90_ms", "ms"),
    lower("serve.ingest_apply_ms", "ms"),
    lower("serve.deltalog_append_ms", "ms"),
    lower("serve.deltalog_read_ms", "ms"),
    lower("serve.compact_ms", "ms"),
    lower("serve.compactions", "count"),
    lower("serve.compact_bytes_rewritten", "bytes"),
    lower("serve.rehydrate_ms", "ms"),
    lower("serve.write_bytes_per_path", "bytes"),
    higher("serve.reader_rps", "1/s"),
    lower("federate.front_overhead_us", "us"),
    lower("federate.shard_rtt_p50_us", "us"),
    lower("federate.shard_rtt_p95_us", "us"),
    lower("federate.gather_us.cell", "us"),
    lower("federate.gather_us.rollup", "us"),
    lower("federate.gather_us.drilldown", "us"),
    lower("federate.gather_us.paths_topk", "us"),
    lower("federate.gather_us.exceptions", "us"),
    lower("federate.attempts_per_request", "ratio"),
    lower("federate.hedged_ratio", "ratio"),
    higher("federate.hedge_won_ratio", "ratio"),
    lower("federate.retried", "count"),
    lower("federate.breaker_open", "count"),
    lower("federate.partial_ratio", "ratio"),
    lower("federate.degraded.p50_us", "us"),
    lower("federate.degraded.p99_us", "us"),
    higher("federate.degraded.full_ratio", "ratio"),
    lower("obs.trace_overhead_pct", "%"),
    lower("client.p99_us", "us"),
    lower("client.p999_us", "us"),
    lower("client.max_us", "us"),
    lower("client.c1_p50_us", "us"),
];

/// Why each workload exists, in one line (README.md has the long form).
pub fn why(workload: Workload) -> &'static str {
    match workload {
        Workload::BuildFig6 => {
            "Fig 6's first point at paper scale: mining and core do the work; then the hot mix \
             on the fresh snapshot, all cache hits: transport and cache, no handler"
        }
        Workload::ServeHot => {
            "128 Zipf targets fit the response cache: transport, queue and cache do the work, \
             handlers none"
        }
        Workload::ServeScan => {
            "13 500 uniform targets over all 8 endpoints miss the cache: lookup, graph walk and \
             serialization run every time"
        }
        Workload::Federate2x2 => {
            "front over 2 shards x 2 replicas: scatter, shard RTT and gather dominate; then one \
             replica per shard dies"
        }
        Workload::IngestLive => {
            "one writer posting deltas beside one reader: delta apply, sidecar, compaction and \
             swap, which no read workload touches"
        }
    }
}

/// What one run measured.
#[derive(Default)]
pub struct Report {
    values: BTreeMap<String, f64>,
    /// Operations checked in the measured phases, and how many failed.
    pub attempted: u64,
    pub failed: u64,
    /// Violated correctness gates; any entry makes the run incorrect.
    pub violations: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &str, value: f64) {
        debug_assert!(
            END_TO_END.iter().any(|m| m.name == name) || PER_LAYER.iter().any(|m| m.name == name),
            "undeclared metric {name}"
        );
        self.values.insert(name.to_string(), value);
    }

    /// Record timings that were taken together, unless a group recorded
    /// earlier under the same names was faster by its first member. Point
    /// measurements (a set-up, a pipeline pass, a cold start) are taken
    /// once before and once after the measured window and the faster
    /// taking is reported: the host's interference comes in episodes of a
    /// minute or so, and a run that reads such a metric at one moment only
    /// reads the episode in three runs out of ten.
    pub fn set_if_faster(&mut self, group: &[(&str, f64)]) {
        let (key, value) = group[0];
        if self.values.get(key).is_none_or(|earlier| value < *earlier) {
            for (name, value) in group {
                self.set(name, *value);
            }
        }
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Take over set-up's measurements (its `aux.*` entries are not
    /// metrics).
    pub fn absorb(&mut self, measured: &BTreeMap<String, f64>) {
        for (name, value) in measured {
            if !name.starts_with("aux.") {
                self.set(name, *value);
            }
        }
    }

    /// Record a correctness gate; a false `holds` fails the run.
    pub fn gate(&mut self, holds: bool, what: impl FnOnce() -> String) {
        if !holds {
            self.violations.push(what());
        }
    }

    pub fn count_ops(&mut self, ok: u64, failed: u64) {
        self.attempted += ok + failed;
        self.failed += failed;
    }
}

/// Full-precision JSON number: the shortest text that reads back to the
/// same `f64`.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// The driver's result line: every end-to-end metric of an untraced run,
/// every per-layer metric of a traced one.
pub fn result_line(report: &Report, traced: bool) -> String {
    let metrics: Vec<String> = if traced {
        PER_LAYER
            .iter()
            .map(|m| (m.name, m.unit))
            .map(|(name, unit)| {
                format!(
                    "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                    num(report.get(name))
                )
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|m| {
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    m.name,
                    num(report.get(m.name)),
                    m.unit
                )
            })
            .collect()
    };
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.violations.is_empty(),
        report.attempted.max(1),
        report.failed,
        metrics.join(",")
    )
}

/// Every metric the run holds, one `name value unit` line each.
pub fn human_table(report: &Report) -> String {
    let mut out = String::new();
    let rows = END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)));
    for (name, unit) in rows {
        if let Some(value) = report.values.get(name) {
            out.push_str(&format!("{name:<40} {value:>16.4} {unit}\n"));
        }
    }
    out
}

/// `BENCHMARK.json`, generated from the tables above.
pub fn describe(run_seconds: u64) -> String {
    let better = |higher: bool| if higher { "higher" } else { "lower" };
    let workloads: Vec<String> = Workload::GATED
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": \"{}\", \"why\": \"{}\"}}",
                w.name(),
                why(*w)
            )
        })
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                better(m.higher_is_better),
                m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                better(m.higher_is_better)
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {run_seconds},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}
