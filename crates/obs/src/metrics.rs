//! The metrics registry: named counters, gauges, and log₂-bucketed
//! histograms, all global and thread-safe.
//!
//! Recording is gated on the global enabled flag (one atomic load when
//! off). Names are dotted paths (`mining.shared.candidates.len2`);
//! `snapshot()` freezes everything into a serializable structure.

use crate::is_enabled;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Log₂-bucketed histogram over non-negative values.
///
/// Bucket `i` covers `[2^(i-1), 2^i)` (bucket 0 is `[0, 1)`), which gives
/// ~2× relative error on percentile estimates at constant memory — plenty
/// for duration profiling.
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: [u64; 64],
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: [0; 64],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

impl Histogram {
    pub fn record(&mut self, value: f64) {
        // NaN would poison `sum` and make every later quantile NaN;
        // clamp it (and negatives) to the zero bucket instead.
        let value = if value.is_nan() { 0.0 } else { value.max(0.0) };
        self.counts[Self::bucket(value)] += 1;
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    fn bucket(value: f64) -> usize {
        if value < 1.0 {
            0
        } else {
            // floor(log2(v)) + 1, exact for the u64 range we care about.
            (64 - (value as u64).leading_zeros() as usize).min(63)
        }
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Estimate the `q`-quantile (`q` in `[0, 1]`) as the geometric
    /// midpoint of the bucket containing that rank. Well-defined on an
    /// empty histogram: every quantile of no data is `0`, never NaN.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let estimate = if i == 0 {
                    0.5
                } else {
                    // midpoint of [2^(i-1), 2^i)
                    1.5 * f64::powi(2.0, i as i32 - 1)
                };
                return estimate.clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Cumulative bucket counts up to the highest non-empty bucket.
    /// `le` is the bucket's (exclusive) upper bound `2^i`; counts are
    /// cumulative, so the last entry equals [`Histogram::count`]. Empty
    /// histogram ⇒ no buckets.
    pub fn cumulative_buckets(&self) -> Vec<BucketCount> {
        let last = match self.counts.iter().rposition(|&c| c > 0) {
            Some(i) => i,
            None => return Vec::new(),
        };
        let mut cumulative = 0u64;
        (0..=last)
            .map(|i| {
                cumulative += self.counts[i];
                BucketCount {
                    le: f64::powi(2.0, i as i32),
                    count: cumulative,
                }
            })
            .collect()
    }

    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count,
            sum: self.sum,
            min: if self.count == 0 { 0.0 } else { self.min },
            max: if self.count == 0 { 0.0 } else { self.max },
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
            buckets: self.cumulative_buckets(),
        }
    }
}

/// One cumulative histogram bucket: observations `< le` (log₂ bound).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BucketCount {
    pub le: f64,
    pub count: u64,
}

/// Frozen percentile summary of one histogram.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramSummary {
    pub count: u64,
    pub sum: f64,
    pub min: f64,
    pub max: f64,
    pub p50: f64,
    pub p90: f64,
    pub p99: f64,
    /// Cumulative log₂ buckets (absent in pre-exposition snapshots, so
    /// old metrics JSON still deserializes).
    #[serde(default)]
    pub buckets: Vec<BucketCount>,
}

/// Frozen state of the whole registry; serializes to the metrics JSON
/// exported by `--metrics-out` and embedded in bench result rows.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, f64>,
    pub histograms: BTreeMap<String, HistogramSummary>,
}

#[derive(Default)]
struct Registry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

static REGISTRY: Mutex<Option<Registry>> = Mutex::new(None);

fn with_registry(f: impl FnOnce(&mut Registry)) {
    let mut guard = REGISTRY.lock();
    f(guard.get_or_insert_with(Registry::default));
}

/// Add to a named counter (no-op while disabled).
pub fn counter_add(name: &str, delta: u64) {
    if !is_enabled() || delta == 0 {
        return;
    }
    with_registry(|r| match r.counters.get_mut(name) {
        Some(count) => *count += delta,
        None => {
            r.counters.insert(name.to_string(), delta);
        }
    });
}

/// Set a named gauge to the latest value (no-op while disabled).
pub fn gauge_set(name: &str, value: f64) {
    if !is_enabled() {
        return;
    }
    with_registry(|r| match r.gauges.get_mut(name) {
        Some(gauge) => *gauge = value,
        None => {
            r.gauges.insert(name.to_string(), value);
        }
    });
}

/// Build a canonical labeled metric name: `name{k="v",k2="v2"}`.
///
/// The registry itself is flat — a labeled series is just a distinct
/// string key — but using this canonical encoding lets
/// [`crate::export::prometheus_text`] split the base name from the label
/// set and emit proper Prometheus series. Label *values* are escaped
/// here (`\` → `\\`, `"` → `\"`, newline → `\n`), exactly the escaping
/// the exposition format requires, so the stored key is already
/// exposition-safe.
pub fn labeled(name: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let mut out = String::with_capacity(name.len() + 16 * labels.len());
    out.push_str(name);
    out.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        for c in v.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                c => out.push(c),
            }
        }
        out.push('"');
    }
    out.push('}');
    out
}

/// Record one observation into a named histogram (no-op while disabled).
pub fn histogram_record(name: &str, value: f64) {
    if !is_enabled() {
        return;
    }
    with_registry(|r| match r.histograms.get_mut(name) {
        Some(histogram) => histogram.record(value),
        None => r
            .histograms
            .entry(name.to_string())
            .or_default()
            .record(value),
    });
}

/// Freeze the registry (plus the process peak-RSS gauge, if readable).
pub fn snapshot() -> MetricsSnapshot {
    let mut out = MetricsSnapshot::default();
    let guard = REGISTRY.lock();
    if let Some(r) = guard.as_ref() {
        out.counters = r.counters.clone();
        out.gauges = r.gauges.clone();
        out.histograms = r
            .histograms
            .iter()
            .map(|(k, h)| (k.clone(), h.summary()))
            .collect();
    }
    drop(guard);
    if let Some(bytes) = crate::rss::peak_rss_bytes() {
        out.gauges
            .insert("process.peak_rss_bytes".to_string(), bytes as f64);
    }
    out
}

pub(crate) fn clear() {
    *REGISTRY.lock() = None;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_quantiles_are_zero_not_nan() {
        let h = Histogram::default();
        for q in [0.0, 0.5, 0.99, 1.0] {
            let v = h.quantile(q);
            assert_eq!(v, 0.0, "quantile({q}) on empty histogram");
            assert!(!v.is_nan());
        }
        let s = h.summary();
        for v in [s.sum, s.min, s.max, s.p50, s.p90, s.p99] {
            assert_eq!(v, 0.0);
            assert!(!v.is_nan());
        }
        assert!(s.buckets.is_empty(), "empty histogram has no buckets");
    }

    #[test]
    fn nan_and_negative_observations_land_in_bucket_zero() {
        let mut h = Histogram::default();
        h.record(f64::NAN);
        h.record(-5.0);
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 0.0);
        let s = h.summary();
        assert!(!s.p50.is_nan() && !s.sum.is_nan());
        assert_eq!(s.buckets, vec![BucketCount { le: 1.0, count: 2 }]);
    }

    #[test]
    fn cumulative_buckets_are_monotone_and_end_at_count() {
        let mut h = Histogram::default();
        for v in [0.5, 1.0, 3.0, 3.5, 100.0] {
            h.record(v);
        }
        let buckets = h.cumulative_buckets();
        assert!(!buckets.is_empty());
        for pair in buckets.windows(2) {
            assert!(pair[0].le < pair[1].le, "le strictly increasing");
            assert!(pair[0].count <= pair[1].count, "counts cumulative");
        }
        assert_eq!(buckets.last().unwrap().count, h.count());
        // 0.5 lands below 1; 1.0 and 3.x below 4; 100 below 128.
        assert_eq!(buckets[0], BucketCount { le: 1.0, count: 1 });
        assert_eq!(buckets.last().unwrap().le, 128.0);
    }

    #[test]
    fn labeled_builds_canonical_escaped_names() {
        assert_eq!(labeled("a.b", &[]), "a.b");
        assert_eq!(
            labeled("serve.latency", &[("endpoint", "cell"), ("status", "2xx")]),
            "serve.latency{endpoint=\"cell\",status=\"2xx\"}"
        );
        assert_eq!(
            labeled("m", &[("k", "a\"b\\c\nd")]),
            "m{k=\"a\\\"b\\\\c\\nd\"}"
        );
    }
}
