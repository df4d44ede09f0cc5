//! The closed-loop load generator: each client sends its next request
//! only after the previous answer arrived, so a slower system receives
//! less load. A window is cut into equal sub-windows and throughput and
//! median latency are read from the best of them (see [`Summary`]), so a
//! noisy neighbour cannot move a reported number.

use crate::client::Client;
use crate::targets::Target;
use crate::trace;
use crate::util::{fnv1a, percentile, us, Popularity, Rng};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// How a client decides that an answer is correct.
#[derive(Copy, Clone)]
pub enum Check<'a> {
    /// The body's FNV-1a hash equals the one recorded for the target
    /// during warm-up (when the answer was checked against the oracle).
    Hash(&'a [u64]),
    /// `support` is at least the oracle's: the cube only grows under
    /// ingest, so hashes cannot be pinned.
    SupportAtLeast,
}

pub struct Load<'a> {
    pub addr: SocketAddr,
    pub targets: &'a [Target],
    pub check: Check<'a>,
    /// Zipf over target rank, or uniform.
    pub skewed: bool,
    pub clients: usize,
    pub seed: u64,
}

/// What one sub-window saw, summed over the clients.
#[derive(Default, Clone)]
pub struct SubWindow {
    pub ok: u64,
    pub failed: u64,
    /// Latencies of the correct answers, in µs.
    pub latencies_us: Vec<f64>,
    pub seconds: f64,
}

#[derive(Default)]
pub struct WindowResult {
    pub subs: Vec<SubWindow>,
    pub connects: u64,
    pub requests: u64,
    pub response_bytes: u64,
    /// The first few failures, for the log.
    pub failures: Vec<String>,
}

/// `"support":123` without parsing the whole body.
fn support_field(body: &[u8]) -> Option<u64> {
    const KEY: &[u8] = b"\"support\":";
    let at = body.windows(KEY.len()).position(|w| w == KEY)? + KEY.len();
    let digits = body[at..].iter().take_while(|b| b.is_ascii_digit()).count();
    std::str::from_utf8(&body[at..at + digits])
        .ok()?
        .parse()
        .ok()
}

fn verdict(target: &Target, index: usize, check: Check<'_>, status: u16, body: &[u8]) -> bool {
    if status != 200 {
        return false;
    }
    match check {
        Check::Hash(hashes) => fnv1a(body) == hashes[index],
        Check::SupportAtLeast => match (&target.expect, support_field(body)) {
            (crate::targets::Expect::Support(base), Some(got)) => got >= *base,
            _ => false,
        },
    }
}

impl Load<'_> {
    /// Run the clients for `subs.len()` sub-windows of `sub_len` each.
    /// `subs[i]` says whether sub-window `i` records request spans (a
    /// traced run alternates, and the difference is the trace overhead).
    pub fn run(&self, sub_len: Duration, traced_subs: &[bool]) -> WindowResult {
        let parent_span = trace::current();
        let start = Instant::now();
        let per_client: Vec<WindowResult> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..self.clients)
                .map(|c| {
                    scope.spawn(move || {
                        trace::adopt(parent_span);
                        self.client_loop(c, start, sub_len, traced_subs)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("load client panicked"))
                .collect()
        });
        let mut out = WindowResult {
            subs: vec![SubWindow::default(); traced_subs.len()],
            ..Default::default()
        };
        for client in per_client {
            for (sum, part) in out.subs.iter_mut().zip(client.subs) {
                sum.ok += part.ok;
                sum.failed += part.failed;
                sum.latencies_us.extend(part.latencies_us);
                sum.seconds = sub_len.as_secs_f64();
            }
            out.connects += client.connects;
            out.requests += client.requests;
            out.response_bytes += client.response_bytes;
            out.failures.extend(client.failures);
        }
        for sub in &mut out.subs {
            sub.latencies_us.sort_by(f64::total_cmp);
        }
        out.failures.truncate(5);
        // For telling the host's interference from the program's own
        // behaviour (README.md "Bounds"): every sub-window as it was.
        if std::env::var_os("BENCH_SUBS").is_some() && out.subs.len() > 1 {
            for sub in &out.subs {
                let rate = sub.ok as f64 / sub.seconds;
                eprintln!("SUB {rate:.0} {:.1}", percentile(&sub.latencies_us, 0.5));
            }
        }
        out
    }

    fn client_loop(
        &self,
        client_index: usize,
        start: Instant,
        sub_len: Duration,
        traced_subs: &[bool],
    ) -> WindowResult {
        let mut rng = Rng::new(self.seed ^ (0x636c_6900 + client_index as u64));
        let popularity = Popularity::new(self.skewed, self.targets.len());
        let mut client = Client::new(self.addr);
        let mut subs = vec![SubWindow::default(); traced_subs.len()];
        let mut failures = Vec::new();
        let mut sent = 0u64;
        loop {
            let begin = Instant::now();
            let sub = ((begin - start).as_nanos() / sub_len.as_nanos()) as usize;
            if sub >= subs.len() {
                break;
            }
            let traced = traced_subs[sub] && trace::is_on();
            sent += 1;
            // One traced request in 64 carries an id the server's flight
            // recorder and access log will echo.
            let request_id = if traced && sent.is_multiple_of(64) {
                ((client_index as u64 + 1) << 48) | sent
            } else {
                0
            };
            let index = popularity.sample(&mut rng);
            let target = &self.targets[index];
            let outcome = client.get(&target.target, request_id);
            let end = Instant::now();
            if traced {
                trace::leaf("client.request", begin, end, request_id);
            }
            // An answer belongs to the sub-window it was asked in.
            let slot = &mut subs[sub];
            let ok = match outcome {
                Ok(status) => verdict(target, index, self.check, status, client.body()),
                Err(_) => false,
            };
            if ok {
                slot.ok += 1;
                slot.latencies_us.push(us(end - begin));
            } else {
                slot.failed += 1;
                if failures.len() < 5 {
                    failures.push(match outcome {
                        Ok(status) => format!(
                            "{} answered {status}: {}",
                            target.target,
                            String::from_utf8_lossy(&client.body()[..client.body().len().min(200)])
                        ),
                        Err(e) => format!("{}: {e}", target.target),
                    });
                }
            }
        }
        WindowResult {
            subs,
            connects: client.connects,
            requests: client.requests,
            response_bytes: client.response_bytes,
            failures,
        }
    }
}

/// Timing summary of a set of sub-windows: throughput and median latency
/// are those of the **best sub-window**, the one that answered the most.
/// Interference only ever slows a sub-window down, and on the reference
/// box it does not come as jitter but as plateaus: for 3 to 30 s at a
/// time, in about one run in three at its worst, the same binary answers a
/// flat 30 to 40 % less (a neighbour on the host; the guest sees no steal
/// time). A median, or any quartile of the sub-windows, reads the plateau
/// whenever it covers that share of the window. The best sub-window reads
/// the program as long as one half-second of the window was undisturbed,
/// and it is what repeats: over ten seeds its spread was 0.06 where the
/// upper quartile's was 0.27. Latency is taken from that same sub-window,
/// not from the one with the lowest median: when one client stalls, the
/// other's requests get faster.
///
/// The tail percentiles are over every answer of all the sub-windows:
/// there the disturbed moments are the point.
pub struct Summary {
    pub rps: f64,
    pub p50_us: f64,
    pub p99_us: f64,
    pub p999_us: f64,
    pub max_us: f64,
    pub ok: u64,
    pub failed: u64,
}

impl WindowResult {
    /// Summary of the sub-windows that did (`traced`) or did not record
    /// request spans, per the flags the window was run with.
    pub fn summary_of(&self, traced_subs: &[bool], traced: bool) -> Summary {
        summarize(
            self.subs
                .iter()
                .zip(traced_subs)
                .filter(|(_, flag)| **flag == traced)
                .map(|(sub, _)| sub),
        )
    }
}

pub fn summarize<'a>(subs: impl IntoIterator<Item = &'a SubWindow>) -> Summary {
    let subs: Vec<&SubWindow> = subs.into_iter().collect();
    let mut all: Vec<f64> = subs
        .iter()
        .flat_map(|s| s.latencies_us.iter().copied())
        .collect();
    all.sort_by(f64::total_cmp);
    // Sub-windows are equally long, so the most answers is the best rate.
    let best = subs.iter().max_by_key(|s| s.ok);
    Summary {
        rps: best.map_or(0.0, |s| s.ok as f64 / s.seconds),
        p50_us: best.map_or(0.0, |s| percentile(&s.latencies_us, 0.50)),
        p99_us: percentile(&all, 0.99),
        p999_us: percentile(&all, 0.999),
        max_us: all.last().copied().unwrap_or(0.0),
        ok: subs.iter().map(|s| s.ok).sum(),
        failed: subs.iter().map(|s| s.failed).sum(),
    }
}

/// Warm-up, part one: ask for every distinct target once, check the
/// answer against the oracle, and record the body hash the measured
/// window will compare against.
pub fn verify_targets(addr: SocketAddr, targets: &[Target]) -> Result<Vec<u64>, String> {
    let mut client = Client::new(addr);
    let mut hashes = Vec::with_capacity(targets.len());
    for target in targets {
        let status = client
            .get(&target.target, 0)
            .map_err(|e| format!("{}: {e}", target.target))?;
        if status != 200 {
            return Err(format!(
                "{} answered {status}: {}",
                target.target,
                String::from_utf8_lossy(client.body())
            ));
        }
        if client.body().windows(14).any(|w| w == b"\"partial\":true") {
            return Err(format!("{} answered partially", target.target));
        }
        target.check(client.body())?;
        hashes.push(fnv1a(client.body()));
    }
    Ok(hashes)
}
