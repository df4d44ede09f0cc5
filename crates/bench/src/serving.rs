//! Serving-latency measurement: drives real HTTP requests against an
//! in-process `flowcube-serve` server and reports request-latency
//! percentiles in the same JSON-results shape as the mining runs. (The
//! closed-loop serving and federation measurements live in the tracked
//! `benchmark/` package.)

use serde::{Deserialize, Serialize};
use std::net::SocketAddr;
use std::time::Instant;

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

/// Fold raw microsecond samples into the percentile series.
fn series_from_us(label: &str, mut us: Vec<f64>) -> LatencySeries {
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
        let start = Instant::now();
        let (status, _, _) = flowcube_testkit::http::get(addr, target, &[]);
        us.push(start.elapsed().as_secs_f64() * 1e6);
        assert_eq!(status, 200, "{target} failed while measuring");
    }
    series_from_us(label, us)
}
