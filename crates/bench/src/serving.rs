//! Serving-latency measurement: drives real HTTP requests against an
//! in-process `flowcube-serve` server and reports request-latency
//! percentiles, cold (cache cleared before every request) vs cached
//! (cache warmed), in the same JSON-results shape as the mining runs.

use flowcube_obs::MetricsSnapshot;
use serde::{Deserialize, Serialize};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Latency percentiles of one request series.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct LatencySeries {
    pub label: String,
    pub requests: usize,
    pub p50_us: f64,
    pub p99_us: f64,
    pub mean_us: f64,
    pub max_us: f64,
}

/// One endpoint's cold/cached comparison.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct EndpointLatency {
    pub endpoint: String,
    pub cold: LatencySeries,
    pub cached: LatencySeries,
}

/// The whole serving benchmark, written to `BENCH_serve_latency.json`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ServeLatencyResult {
    pub num_paths: usize,
    pub cuboids: usize,
    pub cells: usize,
    pub endpoints: Vec<EndpointLatency>,
    pub cache_hit_rate: f64,
    /// Frozen `flowcube-obs` registry (request counters, latency
    /// histograms, cache gauges); `None` when recording was disabled.
    pub metrics: Option<MetricsSnapshot>,
}

/// One blocking HTTP GET; returns `(status, latency)`.
pub fn timed_get(addr: SocketAddr, target: &str) -> std::io::Result<(u16, Duration)> {
    let start = Instant::now();
    let mut s = TcpStream::connect(addr)?;
    s.set_read_timeout(Some(Duration::from_secs(10)))?;
    s.write_all(
        format!("GET {target} HTTP/1.1\r\nHost: b\r\nConnection: close\r\n\r\n").as_bytes(),
    )?;
    let mut raw = Vec::new();
    s.read_to_end(&mut raw)?;
    let elapsed = start.elapsed();
    let status = std::str::from_utf8(&raw)
        .ok()
        .and_then(|t| t.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    Ok((status, elapsed))
}

/// One blocking HTTP GET that also keeps the response body; returns
/// `(status, body, latency)`. The degraded-replica bench needs the body
/// to prove answers stayed full (no `"partial": true`) — `timed_get`
/// throws it away.
pub fn timed_get_body(addr: SocketAddr, target: &str) -> std::io::Result<(u16, String, Duration)> {
    let start = Instant::now();
    let mut s = TcpStream::connect(addr)?;
    s.set_read_timeout(Some(Duration::from_secs(10)))?;
    s.write_all(
        format!("GET {target} HTTP/1.1\r\nHost: b\r\nConnection: close\r\n\r\n").as_bytes(),
    )?;
    let mut raw = Vec::new();
    s.read_to_end(&mut raw)?;
    let elapsed = start.elapsed();
    let text = String::from_utf8_lossy(&raw);
    let status = text
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    let body = text
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok((status, body, elapsed))
}

/// Fold raw microsecond samples into the percentile series.
pub fn series_from_us(label: &str, mut us: Vec<f64>) -> LatencySeries {
    us.sort_by(f64::total_cmp);
    let pick = |p: f64| us[((us.len() - 1) as f64 * p).round() as usize];
    LatencySeries {
        label: label.to_string(),
        requests: us.len(),
        p50_us: pick(0.50),
        p99_us: pick(0.99),
        mean_us: us.iter().sum::<f64>() / us.len() as f64,
        max_us: us.last().copied().unwrap_or(0.0),
    }
}

/// Run `n` sequential requests and fold the latencies into percentiles.
/// Panics on transport errors or non-200s — a latency number for a
/// failed request would be meaningless.
pub fn measure(label: &str, addr: SocketAddr, target: &str, n: usize) -> LatencySeries {
    let mut us: Vec<f64> = Vec::with_capacity(n);
    for _ in 0..n {
        let (status, d) = timed_get(addr, target).expect("request transport");
        assert_eq!(status, 200, "{target} failed while measuring");
        us.push(d.as_secs_f64() * 1e6);
    }
    series_from_us(label, us)
}
